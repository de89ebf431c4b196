"""Unit tests for repro.video.content."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VideoError
from repro.video.catalog import SEQUENCE_CATALOG
from repro.video.content import ContentModel, ContentProfile, FrameContent


def reference_columns(profile: ContentProfile, seed: int, num_frames: int) -> tuple:
    """Frozen reference for :meth:`ContentModel.columns`.

    The per-frame AR(1) step the columnar loop replaced, frozen: the same
    arithmetic and draw order, ``np.clip`` clamps, constants written out.
    """
    rng = np.random.default_rng(seed)
    level = current = profile.complexity
    motion = profile.motion
    complexity_col, motion_col, scene_col = [], [], []
    for _ in range(num_frames):
        scene_change = bool(rng.random() < profile.scene_change_rate)
        if scene_change:
            level = float(
                np.clip(rng.normal(profile.complexity, 3.0 * profile.variability), 0.4, 2.0)
            )
            current = level

        noise = rng.normal(0.0, profile.variability)
        current = 0.92 * current + (1.0 - 0.92) * level + noise * math.sqrt(1.0 - 0.92**2)
        current = float(np.clip(current, 0.4, 2.0))

        motion_noise = rng.normal(0.0, 0.02 + 0.05 * profile.variability)
        motion = 0.97 * motion + (1.0 - 0.97) * profile.motion + motion_noise
        motion = float(np.clip(motion, 0.0, 1.0))

        complexity_col.append(current)
        motion_col.append(motion)
        scene_col.append(scene_change)
    return tuple(complexity_col), tuple(motion_col), tuple(scene_col)


def _bits(value: float) -> bytes:
    """The IEEE-754 bytes of ``value``: ``==`` that also tells -0.0 from 0.0."""
    return struct.pack("<d", value)


class TestNormalIsScaledStandardNormal:
    """``Generator.normal(loc, scale)`` is ``loc + scale * standard_normal()``.

    :meth:`ContentModel.columns` draws every Gaussian term through
    ``standard_normal`` and scales it itself; every seeded content stream
    (and so every pinned digest) rests on this identity holding, draw for
    draw and bit for bit, on the installed NumPy.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        terms=st.lists(
            st.tuples(
                st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6)),
                st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_same_values_sign_of_zero_and_end_state(self, seed, terms):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for loc, scale in terms:
            assert _bits(a.normal(loc, scale)) == _bits(loc + scale * b.standard_normal())
        assert a.bit_generator.state == b.bit_generator.state


class TestContentProfile:
    def test_defaults_are_valid(self):
        profile = ContentProfile()
        assert profile.complexity == pytest.approx(1.0)
        assert 0.0 <= profile.motion <= 1.0

    def test_rejects_non_positive_complexity(self):
        with pytest.raises(VideoError):
            ContentProfile(complexity=0.0)
        with pytest.raises(VideoError):
            ContentProfile(complexity=-1.0)

    def test_rejects_motion_out_of_range(self):
        with pytest.raises(VideoError):
            ContentProfile(motion=1.5)
        with pytest.raises(VideoError):
            ContentProfile(motion=-0.1)

    def test_rejects_negative_variability(self):
        with pytest.raises(VideoError):
            ContentProfile(variability=-0.01)

    def test_rejects_invalid_scene_change_rate(self):
        with pytest.raises(VideoError):
            ContentProfile(scene_change_rate=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("complexity", math.nan),
            ("complexity", math.inf),
            ("variability", math.nan),
            ("variability", math.inf),
        ],
    )
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(VideoError, match=field):
            ContentProfile(**{field: value})


class TestContentModel:
    def test_same_seed_same_stream(self):
        a = ContentModel(seed=42).generate(100)
        b = ContentModel(seed=42).generate(100)
        assert a == b

    def test_different_seeds_differ(self):
        a = ContentModel(seed=1).generate(100)
        b = ContentModel(seed=2).generate(100)
        assert a != b

    def test_reset_rewinds_the_stream(self):
        model = ContentModel(seed=7)
        first = model.generate(50)
        model.reset()
        second = model.generate(50)
        assert first == second

    def test_complexity_and_motion_stay_in_range(self):
        model = ContentModel(ContentProfile(variability=0.2, motion=0.9), seed=3)
        for content in model.generate(500):
            assert 0.4 <= content.complexity <= 2.0
            assert 0.0 <= content.motion <= 1.0

    def test_zero_variability_keeps_complexity_constant(self):
        profile = ContentProfile(complexity=1.2, variability=0.0, scene_change_rate=0.0)
        contents = ContentModel(profile, seed=0).generate(50)
        assert all(c.complexity == pytest.approx(1.2) for c in contents)
        assert not any(c.scene_change for c in contents)

    def test_scene_changes_occur_with_high_rate(self):
        profile = ContentProfile(scene_change_rate=0.5)
        contents = ContentModel(profile, seed=0).generate(200)
        assert sum(1 for c in contents if c.scene_change) > 50

    def test_mean_complexity_tracks_profile(self):
        profile = ContentProfile(complexity=1.4, variability=0.05, scene_change_rate=0.0)
        contents = ContentModel(profile, seed=5).generate(2000)
        mean = sum(c.complexity for c in contents) / len(contents)
        assert mean == pytest.approx(1.4, abs=0.15)

    def test_generate_negative_raises(self):
        with pytest.raises(VideoError):
            ContentModel().generate(-1)

    def test_generate_zero_returns_empty(self):
        assert ContentModel().generate(0) == []

    def test_frame_content_is_immutable(self):
        content = FrameContent(complexity=1.0, motion=0.5)
        with pytest.raises(Exception):
            content.complexity = 2.0  # type: ignore[misc]


class TestColumnsMatchReference:
    """``columns`` reproduces the frozen reference exactly (``==``, no tolerance)."""

    @pytest.mark.parametrize("name", sorted(SEQUENCE_CATALOG))
    @pytest.mark.parametrize("seed", [0, 1009])
    def test_catalog_profiles(self, name, seed):
        profile = SEQUENCE_CATALOG[name].profile
        assert ContentModel(profile, seed=seed).columns(600) == reference_columns(
            profile, seed, 600
        )

    @pytest.mark.parametrize(
        "profile",
        [
            ContentProfile(variability=0.0),
            ContentProfile(scene_change_rate=0.0),
            ContentProfile(scene_change_rate=1.0),
            ContentProfile(motion=0.0),
            ContentProfile(motion=1.0),
        ],
        ids=["variability=0", "scene_rate=0", "scene_rate=1", "motion=0", "motion=1"],
    )
    def test_edge_profiles(self, profile):
        assert ContentModel(profile, seed=3).columns(400) == reference_columns(
            profile, 3, 400
        )

    def test_every_clamp_binds(self):
        profile = ContentProfile(motion=0.6, variability=0.5)
        columns = ContentModel(profile, seed=0).columns(500)
        complexity, motion, _ = columns
        # Both bounds of both clamps are hit, so the clamps are exercised.
        assert (min(complexity), max(complexity)) == (0.4, 2.0)
        assert (min(motion), max(motion)) == (0.0, 1.0)
        assert columns == reference_columns(profile, 0, 500)

    def test_chunked_generation_carries_the_ar_state(self):
        profile = ContentProfile(variability=0.1, scene_change_rate=0.05)
        chunked = ContentModel(profile, seed=11)
        first = chunked.columns(30)
        second = chunked.columns(42)
        joined = tuple(a + b for a, b in zip(first, second))
        assert joined == ContentModel(profile, seed=11).columns(72)
        assert joined == reference_columns(profile, 11, 72)

        model = ContentModel(profile, seed=11)
        assert model.generate(30) + model.generate(42) == ContentModel(
            profile, seed=11
        ).generate(72)

    @settings(max_examples=100, deadline=None)
    @given(
        profile=st.builds(
            ContentProfile,
            complexity=st.floats(0.05, 3.0),
            motion=st.floats(0.0, 1.0),
            variability=st.floats(0.0, 0.6),
            scene_change_rate=st.floats(0.0, 1.0),
        ),
        seed=st.integers(0, 2**31 - 2),
        chunks=st.lists(st.integers(0, 40), min_size=1, max_size=5),
    )
    def test_random_profiles_seeds_and_chunk_splits(self, profile, seed, chunks):
        model = ContentModel(profile, seed=seed)
        parts = [model.columns(count) for count in chunks]
        joined = tuple(sum((part[k] for part in parts), ()) for k in range(3))
        assert joined == reference_columns(profile, seed, sum(chunks))

    def test_columns_hold_plain_floats_and_bools(self):
        profile = ContentProfile(
            complexity=np.float64(1.1), motion=np.float64(0.5), scene_change_rate=np.float64(0.5)
        )
        complexity, motion, scene_change = ContentModel(profile, seed=0).columns(50)
        assert all(type(value) is float for value in complexity + motion)
        assert all(type(value) is bool for value in scene_change)
