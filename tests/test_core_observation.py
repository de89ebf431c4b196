"""Unit tests for repro.core.observation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observation import Observation, ObservationWindow, WindowTable
from repro.errors import LearningError


class TestObservation:
    def test_valid_construction(self):
        obs = Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=80.0)
        assert obs.fps == 25.0

    def test_negative_values_rejected(self):
        with pytest.raises(LearningError):
            Observation(fps=-1.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=80.0)
        with pytest.raises(LearningError):
            Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=-0.1, power_w=80.0)
        with pytest.raises(LearningError):
            Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=-1.0)


def window_of(observations) -> ObservationWindow:
    """A window that saw ``observations`` in order."""
    window = ObservationWindow()
    for o in observations:
        window.add(o.fps, o.psnr_db, o.bitrate_mbps, o.power_w)
    return window


class TestAverageObservations:
    def test_single_observation_is_identity(self):
        obs = Observation(fps=25.0, psnr_db=36.0, bitrate_mbps=4.0, power_w=80.0)
        assert window_of([obs]).average() == obs

    def test_componentwise_mean(self):
        a = Observation(fps=20.0, psnr_db=30.0, bitrate_mbps=2.0, power_w=60.0)
        b = Observation(fps=30.0, psnr_db=40.0, bitrate_mbps=6.0, power_w=100.0)
        avg = window_of([a, b]).average()
        assert avg.fps == pytest.approx(25.0)
        assert avg.psnr_db == pytest.approx(35.0)
        assert avg.bitrate_mbps == pytest.approx(4.0)
        assert avg.power_w == pytest.approx(80.0)

    def test_empty_list_rejected(self):
        with pytest.raises(LearningError):
            ObservationWindow().average()
        # A cleared window is empty again.
        window = window_of(
            [Observation(fps=20.0, psnr_db=30.0, bitrate_mbps=2.0, power_w=60.0)]
        )
        window.clear()
        assert (window.fps, window.psnr_db, window.bitrate_mbps, window.power_w) == (
            0.0,
            0.0,
            0.0,
            0.0,
        )
        assert window.count == 0
        with pytest.raises(LearningError):
            window.average()


def left_to_right_mean(values) -> float:
    """The mean summed left to right from 0.0 (``sum()`` compensates on 3.12+)."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


class TestSinglePassAveraging:
    def test_matches_the_four_pass_reference_bitwise(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7, 20, 150):
            observations = [
                Observation(
                    fps=float(rng.uniform(1, 60)),
                    psnr_db=float(rng.uniform(20, 55)),
                    bitrate_mbps=float(rng.uniform(0.1, 10)),
                    power_w=float(rng.uniform(40, 200)),
                )
                for _ in range(n)
            ]
            window = window_of(observations)
            assert window.count == n
            averaged = window.average()
            # One left-to-right pass per component, as the batch form's
            # averaging of the same sums assumes.
            for attribute in ("fps", "psnr_db", "bitrate_mbps", "power_w"):
                assert getattr(averaged, attribute) == left_to_right_mean(
                    [getattr(o, attribute) for o in observations]
                )


_OBSERVED = st.tuples(
    st.floats(0.0, 120.0, allow_nan=False),
    st.floats(15.0, 60.0, allow_nan=False),
    st.floats(0.0, 20.0, allow_nan=False),
    st.floats(20.0, 250.0, allow_nan=False),
)


def _sums(window: ObservationWindow) -> tuple:
    return (window.fps, window.psnr_db, window.bitrate_mbps, window.power_w, window.count)


class TestWindowTable:
    """The batch forms on a table's rows against the scalar view of each row."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 9),
        script=st.lists(
            st.tuples(
                st.sampled_from(["add", "clear", "average"]),
                st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True),
                st.lists(_OBSERVED, min_size=9, max_size=9),
            ),
            max_size=25,
        ),
    )
    def test_batch_forms_equal_the_scalar_view_bitwise(self, size, script):
        table = WindowTable()
        batch = [table.window() for _ in range(size)]
        scalar = [ObservationWindow() for _ in range(size)]
        assert [window.row for window in batch] == list(range(size))
        for operation, picked, observed in script:
            rows = np.array([row for row in picked if row < size], dtype=np.int64)
            if not len(rows):
                continue
            if operation == "add":
                columns = np.array([observed[k] for k in range(len(rows))]).T
                table.add_batch(rows, *columns)
                for row, values in zip(rows.tolist(), columns.T.tolist()):
                    scalar[row].add(*values)
            elif operation == "clear":
                table.clear_batch(rows)
                for row in rows.tolist():
                    scalar[row].clear()
            elif all(scalar[row].count for row in rows.tolist()):
                averaged = table.average_batch(rows)
                for column, attribute in zip(
                    averaged, ("fps", "psnr_db", "bitrate_mbps", "power_w")
                ):
                    assert column.tolist() == [
                        getattr(scalar[row].average(), attribute) for row in rows.tolist()
                    ]
            else:
                with pytest.raises(LearningError):
                    table.average_batch(rows)
            assert [_sums(window) for window in batch] == [_sums(window) for window in scalar]

    def test_rows_survive_the_table_growing(self):
        table = WindowTable()
        first = table.window()
        first.add(30.0, 35.0, 2.0, 40.0)
        sums = table.sums
        others = [table.window() for _ in range(40)]
        assert table.sums is not sums  # the columns were reallocated
        assert _sums(first) == (30.0, 35.0, 2.0, 40.0, 1)
        assert [window.count for window in others] == [0] * 40
        assert table.size == 41


class TestAverageBatch:
    def test_equals_the_scalar_average_bitwise(self):
        rng = np.random.default_rng(7)
        table = WindowTable()
        windows = []
        for n in rng.integers(1, 30, size=200).tolist():
            window = table.window()
            for _ in range(n):
                window.add(
                    float(rng.uniform(1, 60)),
                    float(rng.uniform(20, 55)),
                    float(rng.uniform(0.1, 10)),
                    float(rng.uniform(40, 200)),
                )
            windows.append(window)
        rows = rng.permutation(len(windows))
        columns = table.average_batch(rows)
        scalar = [windows[row].average() for row in rows.tolist()]
        for column, attribute in zip(columns, ("fps", "psnr_db", "bitrate_mbps", "power_w")):
            assert column.tolist() == [getattr(mean, attribute) for mean in scalar]

    def test_an_empty_window_is_rejected(self):
        table = WindowTable()
        full = table.window()
        full.add(20.0, 30.0, 2.0, 60.0)
        table.window()
        with pytest.raises(LearningError):
            table.average_batch(np.array([0, 1]))
        assert table.average_batch(np.empty(0, dtype=np.int64)).shape == (4, 0)
