"""The summary arithmetic of ``scripts/bench_pairs.py`` on synthetic pairs;
no benchmark runs."""
import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "trials_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def _run(trials_per_s: float, setup_s: float, failed: int = 0) -> dict:
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        },
    }


def _pairs(parent, change):
    return [
        {"workload": "w", "seed": 100 + i, "first": ("parent", "change")[i % 2],
         "parent": _run(*p), "change": _run(*c)}
        for i, (p, c) in enumerate(zip(parent, change))
    ]


def test_quartiles_follow_numpy_linear_percentiles():
    values = [37.97, 37.84, 37.46, 38.4, 36.9, 37.1]
    assert bench_pairs.quartiles(values) == pytest.approx(
        list(np.percentile(values, [25, 50, 75])), rel=1e-12)
    assert bench_pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]


def test_summary_counts_wins_gap_and_bounds_per_direction():
    parent = [(10.0, 1.0), (11.0, 1.2), (12.0, 0.9), (13.0, 1.1)]
    change = [(14.0, 1.3), (11.0, 1.0), (15.0, 1.5), (12.0, 1.4)]
    summary = bench_pairs.summarize_workload(_pairs(parent, change), END_TO_END)["summary"]

    trials = summary["trials_per_s"]
    assert trials["parent_q1_median_q3"] == pytest.approx([10.75, 11.5, 12.25])
    assert trials["change_q1_median_q3"] == pytest.approx([11.75, 13.0, 14.25])
    # One tie (11 vs 11) counts for neither side.
    assert trials["change_wins"] == "2/4"
    assert trials["parent_iqr"] == pytest.approx(1.5)
    assert trials["median_gap"] == pytest.approx(1.5)
    assert trials["median_change_pct"] == pytest.approx(100.0 * (13.0 / 11.5 - 1.0))
    assert trials["within_bound"] and not trials["unresolved"]
    assert trials["rows_parent_change"][0] == [10.0, 14.0]

    # Lower is better: only 1.2 -> 1.0 wins, and a 29% rise in the median
    # breaks the 25% bound.
    setup = summary["setup_s"]
    assert setup["parent_q1_median_q3"][1] == pytest.approx(1.05)
    assert setup["change_q1_median_q3"][1] == pytest.approx(1.35)
    assert setup["change_wins"] == "1/4"
    assert not setup["within_bound"]


def test_wide_parent_spread_is_unresolved_unless_the_change_wins_every_run():
    rows = [(1.0, 1.1), (2.0, 1.9), (3.0, 3.1), (4.0, 3.9)]
    assert bench_pairs.summarize(rows, "higher", 0.25)["unresolved"]
    assert not bench_pairs.summarize([(1.0, 5.0), (2.0, 6.0), (3.0, 7.0)], "higher",
                                     0.25)["unresolved"]


def test_workload_totals_count_failures_and_correctness():
    pairs = _pairs([(10.0, 1.0), (11.0, 1.0)], [(12.0, 1.0), (13.0, 1.0)])
    pairs[1]["change"] = _run(13.0, 1.0, failed=2)
    result = bench_pairs.summarize_workload(pairs, END_TO_END)
    assert result["seeds"] == [100, 101]
    assert result["failed_parent_change"] == [0, 2]
    assert result["attempted_parent_change"] == [200, 200]
    assert result["correct_parent_change"] == [True, False]


@pytest.mark.parametrize("change, factor, met", [
    # 10/10 wins, gap 12 against a parent IQR of 4.5, ratio 1.25.
    ([p + 12.0 for p in range(44, 54)], 1.2, True),
    # The same runs against a 1.3x claim.
    ([p + 12.0 for p in range(44, 54)], 1.3, False),
    # 8/10 wins is below nine tenths.
    ([p + 12.0 for p in range(44, 52)] + [40.0, 41.0], 1.0, False),
    # 10/10 wins, but the gap (1) lies inside the parent's IQR (4.5).
    ([p + 1.0 for p in range(44, 54)], 1.0, False),
])
def test_claim_verdict_follows_the_paired_rule(change, factor, met):
    rows = list(zip([float(p) for p in range(44, 54)], change))
    summary = bench_pairs.summarize(rows, "higher", 0.25)
    verdict = bench_pairs.claim_verdict(summary, "higher", factor)
    assert verdict["met"] is met
    assert verdict["median_ratio"] == pytest.approx(
        summary["change_q1_median_q3"][1] / summary["parent_q1_median_q3"][1])


def test_claim_ratio_for_a_lower_is_better_metric():
    rows = [(100.0 + i, 80.0 + i) for i in range(10)]
    verdict = bench_pairs.claim_verdict(bench_pairs.summarize(rows, "lower", 0.1), "lower", 1.2)
    assert verdict["median_ratio"] == pytest.approx(104.5 / 84.5)
    assert verdict["met"]


def test_a_crashed_run_is_recorded_and_the_batch_goes_on(tmp_path, monkeypatch):
    """Seed 2's change run exits non-zero: the report still holds every
    run, the crash by its exit code, and summarizes the complete pair; the
    run length comes from BENCHMARK.json. A claim on a workload with no
    complete pair is not met."""
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "end_to_end": [{"name": "trials_per_s", "better": "higher", '
        '"bound": 0.25}, {"name": "setup_s", "better": "lower", "bound": 0.25}]}')
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append((tree.name, workload, seed, seconds))
        if (tree.name, seed) in (("change", 2), ("parent", 3)):
            return {"exit_code": 1, "stderr_tail": ["Traceback", "ValueError: boom"]}, ""
        return _run(10.0 if tree.name == "parent" else 13.0, 1.0), "cpu"

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    for workload, claim in (("w:1-2", "w:trials_per_s:1.2"), ("v:3", "v:trials_per_s:1.2")):
        assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                 "--workload", workload, "--claim", claim,
                                 "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["machine"] == "cpu"
        assert "--seconds 7 " in report["command"]
        if workload == "w:1-2":
            result = report["workloads"]["w"]
            assert result["pairs"][1]["change"]["exit_code"] == 1
            assert result["crashed_parent_change"] == [0, 1]
            assert result["correct_parent_change"] == [True, False]
            assert result["summary"]["trials_per_s"]["rows_parent_change"] == [[10.0, 13.0]]
            assert report["claim"]["change_wins"] == "1/1"
        else:
            assert report["workloads"]["v"]["summary"] == {}
            assert report["claim"]["met"] is False
    assert {seconds for *_, seconds in calls} == {7}
    assert len(calls) == 6


def test_a_run_keeps_its_measured_lines(tmp_path, monkeypatch):
    """The unscaled set-up seconds and the slowdowns a run prints as
    ``# measured`` lines stay with its final JSON line."""
    stdout = "\n".join([
        "# experiment_t1_easy seed=5 seconds=25 trace=0",
        "# machine: cpu",
        "# setup_s = 0.31 s (lower is better)",
        "# measured setup_s = 0.3345",
        "# measured peak_rss_mb = 101.5",
        "# measured slowdown.setup = 1.07",
        "# error_rate = 0 (quality, not gated)",
        json.dumps(_run(40.0, 0.31)),
    ])
    seen = []

    def fake_run(command, cwd, capture_output, text):
        seen.append((command[-8:], cwd))
        return subprocess.CompletedProcess(command, 0, stdout=stdout + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    run, machine = bench_pairs.run_once(tmp_path, "experiment_t1_easy", 5, 25.0)
    assert machine == "cpu"
    assert run["measured"] == {"setup_s": 0.3345, "peak_rss_mb": 101.5, "slowdown.setup": 1.07}
    assert run["metrics"] == _run(40.0, 0.31)["metrics"]
    assert seen == [(["--workload", "experiment_t1_easy", "--seed", "5", "--seconds", "25",
                      "--trace", "0"], tmp_path)]
