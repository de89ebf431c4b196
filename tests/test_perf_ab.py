"""The statistics of ``tools/perf_ab.py``, on fixed numbers (no subprocess)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "perf_ab.py"
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]


class TestQuartiles:
    def test_linear_interpolation(self):
        assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert perf_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def test_single_run(self):
        assert perf_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestWins:
    def test_ties_count_for_neither_side(self):
        assert perf_ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
        assert perf_ab.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1


class TestClaimRule:
    def test_holds_with_nine_wins_and_a_gap_beyond_the_iqr(self):
        # Parent IQR 0.45 (2.225 .. 2.675); the change median is 0.5 lower.
        change = [p - 0.6 for p in PARENT]
        change[0] = PARENT[0] + 0.1  # one lost pair
        assert perf_ab.wins(PARENT, change, "lower") == 9
        assert perf_ab.claim_holds(PARENT, change, "lower")

    def test_fails_with_eight_wins(self):
        change = [p - 0.6 for p in PARENT]
        change[0] = change[1] = 3.0
        assert perf_ab.wins(PARENT, change, "lower") == 8
        assert not perf_ab.claim_holds(PARENT, change, "lower")

    def test_fails_when_the_gap_is_inside_the_iqr(self):
        change = [p - 0.3 for p in PARENT]
        assert perf_ab.wins(PARENT, change, "lower") == 10
        assert not perf_ab.claim_holds(PARENT, change, "lower")

    def test_higher_is_better(self):
        change = [p + 0.6 for p in PARENT]
        assert perf_ab.claim_holds(PARENT, change, "higher")
        assert not perf_ab.claim_holds(PARENT, change, "lower")


def test_report_has_one_line_per_metric():
    runs = [{"wall_s": {"value": v}, "frames_per_s": {"value": 1 / v}} for v in PARENT]
    faster = [{"wall_s": {"value": v - 0.6}, "frames_per_s": {"value": 1 / (v - 0.6)}} for v in PARENT]
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "frames_per_s", "better": "higher"}]
    lines = perf_ab.report(runs, faster, metrics)
    assert len(lines) == 3
    assert lines[1].startswith("wall_s") and lines[1].endswith("holds")
    assert "10/10" in lines[2]


def test_benchmark_metrics_have_a_direction():
    import json

    benchmark = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    assert {metric["better"] for metric in benchmark["end_to_end"]} <= {"lower", "higher"}
    with pytest.raises(SystemExit):
        perf_ab.main(["--help"])
