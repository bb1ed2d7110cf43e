#!/usr/bin/env python3
"""Print the sha256 of a small experiment report for every task and
environment, one line each.

Each line is ``task environment sha256`` for
``report_bytes(run_experiment(ExperimentConfig(task=t, environment=e,
trials=3, seed=42)))`` with the default ten configurations and all four
systems, over tasks 1-9 and every benchmark environment. Two trees that
print the same 36 lines produce byte-identical reports, so a change that
claims identical output is checked with one ``diff``:

    python3 scripts/report_digests.py > after.txt
    (cd ../parent && python3 scripts/report_digests.py) > before.txt
    diff before.txt after.txt

The package is imported from this checkout's ``src`` directory. The
reports run in one worker process per CPU and print in the order above.
"""
from __future__ import annotations

import hashlib
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


def digest(task: int, environment: str) -> str:
    config = ExperimentConfig(task=task, environment=environment, trials=3, seed=42)
    return hashlib.sha256(report_bytes(run_experiment(config))).hexdigest()


def main() -> int:
    runs = [(task, environment) for task in sorted(TASK_OBJECTS) for environment in ENVIRONMENTS]
    workers = min(os.cpu_count() or 1, len(runs))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        for (task, environment), sha in zip(runs, pool.map(digest, *zip(*runs))):
            print(f"{task} {environment} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
