"""Controller interface shared by MAMUT and the baseline approaches.

A *controller* manages exactly one transcoding session: once per frame the
session asks it for a :class:`Decision` (QP, threads, frequency).  What the
controller has seen since it last acted lives in its
:class:`~repro.core.observation.ObservationWindow`, which the session fills
once per committed frame
(:meth:`~repro.manager.session.TranscodingSession.commit`).  MAMUT, the
mono-agent Q-learning baseline, the heuristic baseline and the static
baseline all implement this interface, which is what lets the experiment
runner compare them on identical scenarios.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.core.observation import ObservationWindow
from repro.errors import ConfigurationError
from repro.platform.dvfs import DvfsPolicy

__all__ = ["Decision", "Controller"]


@dataclasses.dataclass(frozen=True)
class Decision:
    """Configuration applied to the next frame of a session.

    Attributes
    ----------
    qp:
        Quantization Parameter for the encoder.
    threads:
        Number of WPP threads to encode the frame with.
    frequency_ghz:
        Operating frequency of the session's cores.
    """

    qp: int
    threads: int
    frequency_ghz: float

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        if self.frequency_ghz <= 0:
            raise ConfigurationError(
                f"frequency_ghz must be positive, got {self.frequency_ghz}"
            )


class Controller(abc.ABC):
    """Run-time manager of a single transcoding session."""

    #: How this controller's frequency decisions are applied to the package.
    #: Learning controllers use per-core DVFS; the heuristic baseline applies
    #: its frequency chip-wide (see repro.platform.dvfs.DvfsPolicy).
    dvfs_policy: DvfsPolicy = DvfsPolicy.PER_CORE

    def __init__(self, window: ObservationWindow | None = None) -> None:
        #: Frames observed since the controller last acted; the session adds
        #: each committed frame, the controller averages and clears it.  A
        #: controller built without one gets a window of its own.
        self.window = window if window is not None else ObservationWindow()

    @abc.abstractmethod
    def decide(self, frame_index: int) -> Decision:
        """Choose the configuration for frame ``frame_index``.

        The measurements of the frames committed since the controller last
        acted are in :attr:`window` (empty before the session's first
        frame).
        """

    def reset(self) -> None:
        """Forget per-video transient state (called between videos).

        Learned knowledge (Q-tables, transition counts) survives a reset so
        that a controller keeps improving across the videos of a Scenario II
        batch; only the per-frame bookkeeping is cleared.  The base class
        empties the observation window.
        """
        self.window.clear()

    @property
    def name(self) -> str:
        """Human-readable controller name (defaults to the class name)."""
        return type(self).__name__
