"""Unit tests for repro.core.observation."""

from __future__ import annotations

import pytest

from repro.core.observation import Observation, ObservationWindow
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
        import numpy as np

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


class TestAverageBatch:
    def test_equals_the_scalar_average_bitwise(self):
        import numpy as np

        rng = np.random.default_rng(7)
        windows = [
            window_of(
                [
                    Observation(
                        fps=float(rng.uniform(1, 60)),
                        psnr_db=float(rng.uniform(20, 55)),
                        bitrate_mbps=float(rng.uniform(0.1, 10)),
                        power_w=float(rng.uniform(40, 200)),
                    )
                    for _ in range(n)
                ]
            )
            for n in rng.integers(1, 30, size=200).tolist()
        ]
        columns = ObservationWindow.average_batch(windows)
        scalar = [window.average() for window in windows]
        for column, attribute in zip(columns, ("fps", "psnr_db", "bitrate_mbps", "power_w")):
            assert column.tolist() == [getattr(mean, attribute) for mean in scalar]

    def test_an_empty_window_is_rejected(self):
        full = window_of([Observation(fps=20.0, psnr_db=30.0, bitrate_mbps=2.0, power_w=60.0)])
        with pytest.raises(LearningError):
            ObservationWindow.average_batch([full, ObservationWindow()])
        assert [len(column) for column in ObservationWindow.average_batch([])] == [0] * 4
