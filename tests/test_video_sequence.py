"""Unit tests for repro.video.sequence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.video.sequence as sequence_module
from repro.constants import HR_RESOLUTION, LR_RESOLUTION
from repro.errors import VideoError
from repro.video.content import ContentModel, ContentProfile
from repro.video.sequence import Frame, ResolutionClass, VideoSequence
from repro.video.content import FrameContent


class TestResolutionClass:
    def test_dimensions(self):
        assert ResolutionClass.HR.dimensions == HR_RESOLUTION
        assert ResolutionClass.LR.dimensions == LR_RESOLUTION

    def test_from_exact_dimensions(self):
        assert ResolutionClass.from_dimensions(1920, 1080) is ResolutionClass.HR
        assert ResolutionClass.from_dimensions(832, 480) is ResolutionClass.LR

    def test_from_nearby_dimensions(self):
        assert ResolutionClass.from_dimensions(1280, 720) is ResolutionClass.LR
        assert ResolutionClass.from_dimensions(2560, 1440) is ResolutionClass.HR


class TestFrame:
    def test_properties(self):
        frame = Frame(
            index=3,
            width=1920,
            height=1080,
            content=FrameContent(complexity=1.2, motion=0.6, scene_change=True),
        )
        assert frame.pixels == 1920 * 1080
        assert frame.complexity == pytest.approx(1.2)
        assert frame.motion == pytest.approx(0.6)
        assert frame.is_scene_change is True


class TestVideoSequence:
    def make(self, **kwargs) -> VideoSequence:
        defaults = dict(
            name="test", width=1920, height=1080, frame_rate=24.0, num_frames=30, seed=0
        )
        defaults.update(kwargs)
        return VideoSequence(**defaults)

    def test_length_and_iteration(self):
        sequence = self.make(num_frames=25)
        assert len(sequence) == 25
        assert len(list(sequence)) == 25
        assert sequence[0].index == 0
        assert sequence[24].index == 24

    def test_frames_are_resolution_consistent(self):
        sequence = self.make()
        assert all(f.width == 1920 and f.height == 1080 for f in sequence)

    def test_resolution_class(self):
        assert self.make().resolution_class is ResolutionClass.HR
        assert self.make(width=832, height=480).resolution_class is ResolutionClass.LR

    def test_duration(self):
        sequence = self.make(num_frames=48, frame_rate=24.0)
        assert sequence.duration_seconds == pytest.approx(2.0)

    def test_reproducible_with_seed(self):
        a = self.make(seed=11)
        b = self.make(seed=11)
        assert [f.complexity for f in a] == [f.complexity for f in b]

    def test_different_seed_changes_content(self):
        a = self.make(seed=1, profile=ContentProfile(variability=0.1))
        b = self.make(seed=2, profile=ContentProfile(variability=0.1))
        assert [f.complexity for f in a] != [f.complexity for f in b]

    def test_mean_statistics(self):
        sequence = self.make(profile=ContentProfile(complexity=1.3, variability=0.0))
        assert sequence.mean_complexity == pytest.approx(1.3)
        assert 0.0 <= sequence.mean_motion <= 1.0

    def test_invalid_resolution_raises(self):
        with pytest.raises(VideoError):
            self.make(width=0)
        with pytest.raises(VideoError):
            self.make(height=-1)

    def test_invalid_frame_rate_raises(self):
        with pytest.raises(VideoError):
            self.make(frame_rate=0)

    def test_invalid_num_frames_raises(self):
        with pytest.raises(VideoError):
            self.make(num_frames=0)

    def test_frames_property_is_a_copy_view(self):
        sequence = self.make()
        frames = sequence.frames
        assert isinstance(frames, tuple)
        assert len(frames) == len(sequence)

    def test_integer_indexing_has_list_semantics(self):
        sequence = self.make(num_frames=12)
        assert sequence[-1].index == len(sequence) - 1
        assert sequence[-len(sequence)].index == 0
        assert sequence[-1] == sequence[len(sequence) - 1]
        with pytest.raises(IndexError):
            sequence[len(sequence)]
        with pytest.raises(IndexError):
            sequence[-len(sequence) - 1]

    def test_iteration_matches_frames(self):
        sequence = self.make()
        assert list(sequence) == list(sequence.frames)
        assert [f.index for f in sequence] == list(range(len(sequence)))

    def test_frames_match_columns(self):
        sequence = self.make(profile=ContentProfile(scene_change_rate=0.2))
        for i, frame in enumerate(sequence):
            assert frame.content == FrameContent(
                complexity=sequence.complexity_column[i],
                motion=sequence.motion_column[i],
                scene_change=sequence.scene_change_column[i],
            )

    def test_columns_are_tuples_of_num_frames(self):
        sequence = self.make(num_frames=17)
        for column in (
            sequence.complexity_column,
            sequence.motion_column,
            sequence.scene_change_column,
        ):
            assert isinstance(column, tuple)
            assert len(column) == 17

    def test_same_seed_sequences_are_equal_frame_by_frame(self):
        a = self.make(seed=5, profile=ContentProfile(scene_change_rate=0.1))
        b = self.make(seed=5, profile=ContentProfile(scene_change_rate=0.1))
        assert list(a) == list(b)


#: Every way to read a sequence's content.
CONTENT_READS = {
    "complexity_column": lambda video: video.complexity_column,
    "motion_column": lambda video: video.motion_column,
    "scene_change_column": lambda video: video.scene_change_column,
    "index": lambda video: video[len(video) // 2],
    "negative index": lambda video: video[-1],
    "iteration": lambda video: list(video),
    "frames": lambda video: video.frames,
    "mean_complexity": lambda video: video.mean_complexity,
    "mean_motion": lambda video: video.mean_motion,
}

#: Attributes that never read the content.
STATIC_READS = {
    "len": len,
    "name": lambda video: video.name,
    "resolution_class": lambda video: video.resolution_class,
    "pixels_per_frame": lambda video: video.pixels_per_frame,
    "duration_seconds": lambda video: video.duration_seconds,
}


@pytest.fixture
def models_built(monkeypatch):
    """Counts the content models the sequence module builds."""
    built = []

    class Counted(ContentModel):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sequence_module, "ContentModel", Counted)
    return built


def lazy_sequence(seed: int = 0, num_frames: int = 30) -> VideoSequence:
    return VideoSequence(
        name="lazy",
        width=832,
        height=480,
        frame_rate=30.0,
        num_frames=num_frames,
        profile=ContentProfile(variability=0.1, scene_change_rate=0.1),
        seed=seed,
    )


class TestContentDrawnOnFirstRead:
    """A sequence draws its content on the first read of it, exactly once."""

    def test_static_reads_draw_nothing(self, models_built):
        video = lazy_sequence()
        for read in STATIC_READS.values():
            read(video)
        assert len(video) == 30
        assert video.duration_seconds == 1.0
        assert models_built == []

    @pytest.mark.parametrize("first", sorted(CONTENT_READS))
    def test_first_content_read_draws_once(self, models_built, first):
        video = lazy_sequence()
        CONTENT_READS[first](video)
        assert len(models_built) == 1
        for read in CONTENT_READS.values():
            read(video)
        assert len(models_built) == 1

    @settings(max_examples=50, deadline=None)
    @given(
        reads=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(sorted(CONTENT_READS))),
            min_size=1,
            max_size=12,
        )
    )
    def test_any_first_read_order_gives_the_eager_columns(self, reads):
        videos = [lazy_sequence(seed=seed, num_frames=8 + seed) for seed in range(4)]
        for k, read in reads:
            CONTENT_READS[read](videos[k])
        for seed, video in enumerate(videos):
            eager = ContentModel(video.profile, seed=seed).columns(8 + seed)
            assert (
                video.complexity_column,
                video.motion_column,
                video.scene_change_column,
            ) == eager
