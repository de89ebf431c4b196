"""Video sequences and frames.

A :class:`VideoSequence` is the unit of work a transcoding user submits,
mirroring a decoded JCT-VC test sequence.  Its per-frame content is drawn on
its first read and kept as three columns (complexity, motion, scene change),
so a video nobody transcodes (a rejected, shed or never-reached request)
draws nothing.  A :class:`Frame` object is built only when the sequence is
indexed or iterated.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Iterator, Sequence

from repro.constants import HR_RESOLUTION, LR_RESOLUTION
from repro.errors import VideoError
from repro.numeric import ordered_sum
from repro.video.content import ContentModel, ContentProfile, FrameContent

__all__ = ["ResolutionClass", "Frame", "VideoSequence"]


class ResolutionClass(enum.Enum):
    """Resolution classes used throughout the paper's evaluation."""

    #: High resolution: 1920x1080 (JCT-VC class B).
    HR = "HR"
    #: Low resolution: 832x480 (JCT-VC class C).
    LR = "LR"

    @property
    def dimensions(self) -> tuple[int, int]:
        """(width, height) in pixels for this class."""
        return HR_RESOLUTION if self is ResolutionClass.HR else LR_RESOLUTION

    @classmethod
    def from_dimensions(cls, width: int, height: int) -> "ResolutionClass":
        """Classify an arbitrary resolution as HR or LR by pixel count."""
        hr_pixels = HR_RESOLUTION[0] * HR_RESOLUTION[1]
        lr_pixels = LR_RESOLUTION[0] * LR_RESOLUTION[1]
        pixels = width * height
        # Nearest class by pixel count; exact matches resolve trivially.
        return cls.HR if abs(pixels - hr_pixels) <= abs(pixels - lr_pixels) else cls.LR


@dataclasses.dataclass(frozen=True)
class Frame:
    """A single video frame to be transcoded.

    Attributes
    ----------
    index:
        Zero-based frame number within its sequence.
    width, height:
        Frame dimensions in pixels.
    content:
        Per-frame content descriptors from the sequence's content model.
    """

    index: int
    width: int
    height: int
    content: FrameContent

    @property
    def pixels(self) -> int:
        """Number of luma pixels in the frame."""
        return self.width * self.height

    @property
    def complexity(self) -> float:
        """Shortcut for the frame's spatial complexity."""
        return self.content.complexity

    @property
    def motion(self) -> float:
        """Shortcut for the frame's temporal activity."""
        return self.content.motion

    @property
    def is_scene_change(self) -> bool:
        """Whether this frame starts a new scene."""
        return self.content.scene_change


class VideoSequence:
    """A named, finite sequence of frames with homogeneous resolution.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"Kimono"``).
    width, height:
        Frame dimensions in pixels.
    frame_rate:
        Source frame rate in frames per second; used for bitrate accounting.
    num_frames:
        Number of frames in the sequence.
    profile:
        Content profile used to generate per-frame descriptors.
    seed:
        Seed for the content model, making the sequence reproducible.

    The content is drawn from ``ContentModel(profile, seed)`` on its first
    read (the columns, indexing, iteration, :attr:`frames`,
    :attr:`mean_complexity` or :attr:`mean_motion`) and kept until
    :meth:`release`.  Each
    sequence owns its seed, so the order in which sequences are first read
    moves no stream.  ``len``, the name, the resolution and the other
    static attributes never draw.

    Integer indexing and iteration build :class:`Frame` objects on demand,
    with the semantics of a list.  :attr:`complexity_column`,
    :attr:`motion_column` and :attr:`scene_change_column` expose the same
    content without building frames.
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        frame_rate: float,
        num_frames: int,
        profile: ContentProfile | None = None,
        seed: int = 0,
    ) -> None:
        if width <= 0 or height <= 0:
            raise VideoError(f"invalid resolution {width}x{height}")
        if frame_rate <= 0:
            raise VideoError(f"frame_rate must be positive, got {frame_rate}")
        if num_frames <= 0:
            raise VideoError(f"num_frames must be positive, got {num_frames}")

        self.name = name
        self.width = int(width)
        self.height = int(height)
        self.frame_rate = float(frame_rate)
        self.profile = profile if profile is not None else ContentProfile()
        self.seed = int(seed)
        self._num_frames = int(num_frames)

    @functools.cached_property
    def _columns(self) -> tuple:
        """(complexity, motion, scene change), drawn on the first read."""
        return ContentModel(self.profile, seed=self.seed).columns(self._num_frames)

    def release(self) -> None:
        """Drop the drawn content; the next read draws it again, from the same seed.

        A session releases each video it has finished, so a long run does
        not keep the content of every video it served.
        """
        self.__dict__.pop("_columns", None)

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return self._num_frames

    def __iter__(self) -> Iterator[Frame]:
        return map(self._frame, range(len(self)))

    def __getitem__(self, index: int) -> Frame:
        # range() indexing gives list semantics: negative indices count from
        # the end and an out-of-range index raises IndexError.
        return self._frame(range(len(self))[index])

    def _frame(self, index: int) -> Frame:
        complexity, motion, scene_change = self._columns
        content = FrameContent(
            complexity=complexity[index],
            motion=motion[index],
            scene_change=scene_change[index],
        )
        return Frame(index=index, width=self.width, height=self.height, content=content)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VideoSequence(name={self.name!r}, {self.width}x{self.height}, "
            f"{len(self)} frames @ {self.frame_rate} fps)"
        )

    # -- derived properties --------------------------------------------------

    @property
    def frames(self) -> Sequence[Frame]:
        """Immutable view of the frames of this sequence."""
        return tuple(self)

    @property
    def complexity_column(self) -> tuple[float, ...]:
        """Spatial complexity of every frame, in frame order."""
        return self._columns[0]

    @property
    def motion_column(self) -> tuple[float, ...]:
        """Temporal activity of every frame, in frame order."""
        return self._columns[1]

    @property
    def scene_change_column(self) -> tuple[bool, ...]:
        """Scene-change flag of every frame, in frame order."""
        return self._columns[2]

    @property
    def resolution_class(self) -> ResolutionClass:
        """HR or LR classification of the sequence."""
        return ResolutionClass.from_dimensions(self.width, self.height)

    @property
    def pixels_per_frame(self) -> int:
        """Number of luma pixels per frame."""
        return self.width * self.height

    @property
    def duration_seconds(self) -> float:
        """Source duration of the sequence in seconds."""
        return len(self) / self.frame_rate

    @property
    def mean_complexity(self) -> float:
        """Average spatial complexity over the whole sequence."""
        return ordered_sum(self._columns[0]) / len(self)

    @property
    def mean_motion(self) -> float:
        """Average temporal activity over the whole sequence."""
        return ordered_sum(self._columns[1]) / len(self)
