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

The package is imported from this checkout's ``src`` directory.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from momaplan.harness import (  # noqa: E402
    ENVIRONMENTS,
    TASK_OBJECTS,
    ExperimentConfig,
    report_bytes,
    run_experiment,
)


def main() -> int:
    for task in sorted(TASK_OBJECTS):
        for environment in ENVIRONMENTS:
            config = ExperimentConfig(task=task, environment=environment, trials=3, seed=42)
            digest = hashlib.sha256(report_bytes(run_experiment(config))).hexdigest()
            print(f"{task} {environment} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
