"""Per-frame content models for synthetic video sequences.

Real video sequences exhibit two properties that matter for the MAMUT
controller:

* *spatial complexity* (texture) drives how many bits and encoding cycles a
  frame needs at a given QP, and how much PSNR is achievable;
* *temporal dynamism* (motion, scene changes) makes those quantities vary
  frame by frame, which is exactly the "noise" the multi-agent learner has to
  cope with (paper Sec. IV-A).

The :class:`ContentModel` draws a sequence's content from a first-order
autoregressive process with occasional scene changes, fully determined by a
seed so that experiments are reproducible.  :meth:`ContentModel.columns` is
the one implementation of that process: a single loop that returns the
content as three columns (complexity, motion, scene change), which is how
:class:`~repro.video.sequence.VideoSequence` stores it.
:meth:`ContentModel.generate` wraps the same loop and returns one
:class:`FrameContent` per frame.  Each Gaussian term is drawn through
``Generator.standard_normal`` and scaled as ``loc + scale * z``, which is
what ``Generator.normal(loc, scale)`` computes from the same draw, so the
streams are those of ``normal`` without its per-call argument handling.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.errors import VideoError

__all__ = ["ContentProfile", "FrameContent", "ContentModel"]


@dataclasses.dataclass(frozen=True)
class ContentProfile:
    """Statistical description of a sequence's content.

    Attributes
    ----------
    complexity:
        Mean spatial complexity, a dimensionless scalar around 1.0.  Values
        above 1.0 describe highly textured content (more bits, more cycles,
        lower PSNR for a given QP); values below 1.0 describe flat content.
    motion:
        Mean temporal activity in ``[0, 1]``.  High motion increases encoding
        effort and bitrate and amplifies frame-to-frame variation.
    variability:
        Standard deviation of the frame-to-frame complexity fluctuations.
    scene_change_rate:
        Probability per frame of a scene change, which re-draws the local
        complexity level.
    """

    complexity: float = 1.0
    motion: float = 0.4
    variability: float = 0.08
    scene_change_rate: float = 0.004

    def __post_init__(self) -> None:
        if not (math.isfinite(self.complexity) and self.complexity > 0):
            raise VideoError(
                f"complexity must be positive and finite, got {self.complexity}"
            )
        if not 0.0 <= self.motion <= 1.0:
            raise VideoError(f"motion must be in [0, 1], got {self.motion}")
        if not (math.isfinite(self.variability) and self.variability >= 0):
            raise VideoError(
                f"variability must be >= 0 and finite, got {self.variability}"
            )
        if not 0.0 <= self.scene_change_rate <= 1.0:
            raise VideoError(
                f"scene_change_rate must be in [0, 1], got {self.scene_change_rate}"
            )


@dataclasses.dataclass(frozen=True)
class FrameContent:
    """Content descriptors of a single frame.

    Attributes
    ----------
    complexity:
        Instantaneous spatial complexity (dimensionless, ~0.4 .. ~2.0).
    motion:
        Instantaneous temporal activity in ``[0, 1]``.
    scene_change:
        True when this frame starts a new scene (intra-coded in a real
        encoder, therefore noticeably more expensive).
    """

    complexity: float
    motion: float
    scene_change: bool = False


class ContentModel:
    """Seeded generator of per-frame content.

    The spatial complexity follows a mean-reverting AR(1) process around the
    profile mean; a scene change re-centres the process at a freshly drawn
    level.  Motion follows a slower AR(1) process bounded to ``[0, 1]``.
    Consecutive calls continue one stream: generating 30 frames and then 42
    yields the same content as generating 72 at once.

    Parameters
    ----------
    profile:
        The statistical profile of the sequence.
    seed:
        Seed of the private random generator; two models built with the same
        profile and seed produce identical streams.
    """

    #: AR(1) coefficient for the complexity process (close to 1 = smooth).
    _RHO_COMPLEXITY = 0.92
    #: AR(1) coefficient for the motion process.
    _RHO_MOTION = 0.97

    def __init__(self, profile: ContentProfile | None = None, seed: int = 0) -> None:
        self.profile = profile if profile is not None else ContentProfile()
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        """Rewind the generator to its initial, seed-determined state."""
        self._rng = np.random.default_rng(self.seed)
        self._level = self._current = float(self.profile.complexity)
        self._motion = float(self.profile.motion)

    def columns(
        self, num_frames: int
    ) -> tuple[tuple[float, ...], tuple[float, ...], tuple[bool, ...]]:
        """Generate the next ``num_frames`` frames as content columns.

        Returns ``(complexity, motion, scene_change)``, one entry per frame.
        Each frame draws, in order: a uniform for the scene change, a new
        level if the scene changes, the complexity noise and the motion
        noise.  Every seeded result depends on that order.  The three
        Gaussian terms are ``loc + scale * standard_normal()``, exactly
        ``Generator.normal(loc, scale)``'s arithmetic on the same draw, and
        the clamps are comparisons on Python floats.
        """
        if num_frames < 0:
            raise VideoError(f"num_frames must be >= 0, got {num_frames}")
        profile = self.profile
        # Python floats throughout, so the columns hold plain floats and bools.
        mean = float(profile.complexity)
        variability = float(profile.variability)
        scene_change_rate = float(profile.scene_change_rate)
        level_sigma = 3.0 * variability
        motion_sigma = 0.02 + 0.05 * variability
        rho_c = self._RHO_COMPLEXITY
        pull_c = 1.0 - rho_c
        noise_scale = math.sqrt(1.0 - rho_c**2)
        rho_m = self._RHO_MOTION
        pull_m = (1.0 - rho_m) * float(profile.motion)
        random = self._rng.random
        standard_normal = self._rng.standard_normal

        level, current, motion = self._level, self._current, self._motion
        complexity_col: list[float] = []
        motion_col: list[float] = []
        scene_col: list[bool] = []
        for _ in range(num_frames):
            scene_change = random() < scene_change_rate
            if scene_change:
                # A new scene re-draws the local complexity level around the mean.
                level = mean + level_sigma * standard_normal()
                level = current = 0.4 if level < 0.4 else 2.0 if level > 2.0 else level
            # The 0.0 is normal(0.0, scale)'s loc: it turns a -0.0 term into 0.0.
            noise = 0.0 + variability * standard_normal()
            current = rho_c * current + pull_c * level + noise * noise_scale
            current = 0.4 if current < 0.4 else 2.0 if current > 2.0 else current
            motion = rho_m * motion + pull_m + (0.0 + motion_sigma * standard_normal())
            motion = 0.0 if motion < 0.0 else 1.0 if motion > 1.0 else motion
            complexity_col.append(current)
            motion_col.append(motion)
            scene_col.append(scene_change)
        self._level, self._current, self._motion = level, current, motion
        return tuple(complexity_col), tuple(motion_col), tuple(scene_col)

    def generate(self, num_frames: int) -> list[FrameContent]:
        """Generate ``num_frames`` consecutive frame descriptors."""
        return [
            FrameContent(complexity=c, motion=m, scene_change=s)
            for c, m, s in zip(*self.columns(num_frames))
        ]
