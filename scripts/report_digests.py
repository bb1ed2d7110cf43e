#!/usr/bin/env python3
"""Print the sha256 of a small experiment report for every task and
environment, one line each, or check them against the committed baseline.

Each line is ``task environment sha256`` for
``report_bytes(run_experiment(ExperimentConfig(task=t, environment=e,
trials=3, seed=42)))`` with the default ten configurations and all four
systems, over tasks 1-9 and every benchmark environment. Two trees that
print the same 36 lines produce byte-identical reports.

``report_digests.txt`` next to this script holds the 36 lines of the
current reports. A change that claims identical output is checked with

    python3 scripts/report_digests.py --check

which prints each line that differs from the baseline and exits 1 on any
difference. The baseline is regenerated (``python3
scripts/report_digests.py > scripts/report_digests.txt``) only when a
change alters reports on purpose.

The package is imported from this checkout's ``src`` directory. The
reports run in one worker process per CPU and print in the order above.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from momaplan.harness import (  # noqa: E402
    ENVIRONMENTS,
    TASK_OBJECTS,
    ExperimentConfig,
    report_bytes,
    run_experiment,
)

BASELINE = Path(__file__).with_name("report_digests.txt")


def digest(task: int, environment: str) -> str:
    config = ExperimentConfig(task=task, environment=environment, trials=3, seed=42)
    return hashlib.sha256(report_bytes(run_experiment(config))).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {BASELINE.name} instead of printing")
    args = parser.parse_args(argv)
    expected = BASELINE.read_text().splitlines() if args.check else []
    runs = [(task, environment) for task in sorted(TASK_OBJECTS) for environment in ENVIRONMENTS]
    workers = min(os.cpu_count() or 1, len(runs))
    lines = []
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        for (task, environment), sha in zip(runs, pool.map(digest, *zip(*runs))):
            lines.append(f"{task} {environment} {sha}")
            if not args.check:
                print(lines[-1], flush=True)
    if not args.check:
        return 0
    differing = 0
    for want, got in itertools.zip_longest(expected, lines, fillvalue="(missing)"):
        if want != got:
            differing += 1
            print(f"- {want}\n+ {got}")
    print(f"{differing} line(s) differ from {BASELINE.name}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
