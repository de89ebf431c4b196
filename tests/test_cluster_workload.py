"""Unit tests for repro.cluster.workload (traffic models + generator)."""

from __future__ import annotations

import pytest

from repro.errors import ClusterError
from repro.cluster.workload import (
    CompositeTraffic,
    DiurnalTraffic,
    FlashCrowdTraffic,
    PoissonTraffic,
    WorkloadGenerator,
)
from repro.video.content import ContentModel
from repro.video.sequence import ResolutionClass


class TestTrafficModels:
    def test_poisson_rate_is_constant(self):
        model = PoissonTraffic(1.5)
        assert model.rate(0) == model.rate(123) == 1.5

    def test_poisson_rejects_negative_rate(self):
        with pytest.raises(ClusterError):
            PoissonTraffic(-0.1)

    def test_diurnal_oscillates_around_base(self):
        model = DiurnalTraffic(base_rate=2.0, amplitude=0.5, period=100)
        rates = [model.rate(step) for step in range(100)]
        assert max(rates) == pytest.approx(3.0, abs=0.01)
        assert min(rates) == pytest.approx(1.0, abs=0.01)
        assert sum(rates) / len(rates) == pytest.approx(2.0, abs=0.05)

    def test_diurnal_never_negative_at_full_amplitude(self):
        model = DiurnalTraffic(base_rate=1.0, amplitude=1.0, period=50)
        assert all(model.rate(step) >= 0.0 for step in range(100))

    def test_flash_crowd_spikes_inside_the_window(self):
        model = FlashCrowdTraffic(base_rate=1.0, peak_multiplier=5.0, start=10, duration=5)
        assert model.rate(9) == 1.0
        assert model.rate(10) == 5.0
        assert model.rate(14) == 5.0
        assert model.rate(15) == 1.0

    def test_composite_sums_rates(self):
        model = CompositeTraffic([PoissonTraffic(1.0), PoissonTraffic(0.5)])
        assert model.rate(0) == pytest.approx(1.5)

    def test_composite_rejects_empty(self):
        with pytest.raises(ClusterError):
            CompositeTraffic([])


class TestWorkloadGenerator:
    def test_same_seed_reproduces_the_trace(self):
        def trace(seed):
            generator = WorkloadGenerator(PoissonTraffic(1.0), seed=seed)
            return generator.generate(50)

        a, b = trace(7), trace(7)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert ea.arrival_step == eb.arrival_step
            assert ea.request.user_id == eb.request.user_id
            assert ea.request.sequence.name == eb.request.sequence.name
            assert ea.request.sequence.seed == eb.request.sequence.seed
            assert ea.request.resolution_class is eb.request.resolution_class

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(PoissonTraffic(2.0), seed=0).generate(50)
        b = WorkloadGenerator(PoissonTraffic(2.0), seed=1).generate(50)
        assert [e.arrival_step for e in a] != [e.arrival_step for e in b] or [
            e.request.sequence.name for e in a
        ] != [e.request.sequence.name for e in b]

    def test_arrival_count_tracks_the_rate(self):
        events = WorkloadGenerator(PoissonTraffic(2.0), seed=0).generate(300)
        # ~600 expected; allow generous slack for the Poisson draw.
        assert 450 <= len(events) <= 750

    def test_zero_rate_produces_no_events(self):
        assert WorkloadGenerator(PoissonTraffic(0.0), seed=0).generate(100) == []

    def test_user_ids_are_unique(self):
        events = WorkloadGenerator(PoissonTraffic(1.5), seed=3).generate(100)
        ids = [e.request.user_id for e in events]
        assert len(set(ids)) == len(ids)

    def test_hr_fraction_extremes(self):
        all_hr = WorkloadGenerator(PoissonTraffic(1.0), seed=0, hr_fraction=1.0).generate(40)
        all_lr = WorkloadGenerator(PoissonTraffic(1.0), seed=0, hr_fraction=0.0).generate(40)
        assert all(e.request.resolution_class is ResolutionClass.HR for e in all_hr)
        assert all(e.request.resolution_class is ResolutionClass.LR for e in all_lr)

    def test_playlist_shape(self):
        events = WorkloadGenerator(
            PoissonTraffic(1.0), seed=0, playlist_videos=3, frames_per_video=24
        ).generate(20)
        assert events, "expected some arrivals"
        for event in events:
            assert len(event.playlist) == 3
            assert event.total_frames == 72
            assert event.playlist[0] is event.request.sequence

    def test_arrivals_draw_no_content(self, monkeypatch):
        # A request's videos draw their content when a session first reads
        # them, so a request that is never served costs no content draws.
        drawn = []
        monkeypatch.setattr(
            ContentModel, "columns", lambda model, count: drawn.append(count)
        )
        events = WorkloadGenerator(
            PoissonTraffic(1.0), seed=0, playlist_videos=2, frames_per_video=24
        ).generate(20)
        assert events and all(event.total_frames == 48 for event in events)
        assert all(event.request.num_frames == 24 for event in events)
        assert drawn == []

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ClusterError):
            WorkloadGenerator(PoissonTraffic(1.0), hr_fraction=1.5)
        with pytest.raises(ClusterError):
            WorkloadGenerator(PoissonTraffic(1.0), playlist_videos=0)
        with pytest.raises(ClusterError):
            WorkloadGenerator(PoissonTraffic(1.0), frames_per_video=0)
        with pytest.raises(ClusterError):
            WorkloadGenerator(PoissonTraffic(1.0)).generate(-1)
