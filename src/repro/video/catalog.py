"""Synthetic stand-ins for the JCT-VC benchmark sequences.

The paper evaluates on JCT-VC class B (1920x1080, "HR") and class C (832x480,
"LR") sequences.  The real YUV files cannot be shipped nor decoded here, so
this module provides a catalog of synthetic sequences whose content profiles
are chosen to reflect the well-known character of each JCT-VC sequence
(e.g. *Kimono* is smooth and slow, *BQTerrace* is highly textured,
*RaceHorses* has strong motion).  Only the statistics matter to the
transcoder simulator, not the pixels.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

from repro.errors import VideoError
from repro.video.content import ContentProfile
from repro.video.sequence import ResolutionClass, VideoSequence

__all__ = [
    "CatalogEntry",
    "SEQUENCE_CATALOG",
    "hr_sequences",
    "lr_sequences",
    "make_sequence",
    "random_sequence",
]


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    """Description of one synthetic benchmark sequence.

    Attributes
    ----------
    name:
        JCT-VC sequence name this entry mimics.
    resolution_class:
        HR (class B, 1080p) or LR (class C, 832x480).
    frame_rate:
        Nominal source frame rate of the original sequence.
    num_frames:
        Default number of frames generated for the synthetic sequence.
    profile:
        Content profile approximating the original sequence's character.
    """

    name: str
    resolution_class: ResolutionClass
    frame_rate: float
    num_frames: int
    profile: ContentProfile


#: Catalog of synthetic JCT-VC-like sequences.
SEQUENCE_CATALOG: dict[str, CatalogEntry] = {
    # --- Class B, 1920x1080 ("HR") ---------------------------------------
    "Kimono": CatalogEntry(
        "Kimono", ResolutionClass.HR, 24.0, 240,
        ContentProfile(complexity=0.85, motion=0.35, variability=0.03, scene_change_rate=0.002),
    ),
    "ParkScene": CatalogEntry(
        "ParkScene", ResolutionClass.HR, 24.0, 240,
        ContentProfile(complexity=1.00, motion=0.30, variability=0.03, scene_change_rate=0.002),
    ),
    "Cactus": CatalogEntry(
        "Cactus", ResolutionClass.HR, 50.0, 500,
        ContentProfile(complexity=1.10, motion=0.45, variability=0.04, scene_change_rate=0.004),
    ),
    "BasketballDrive": CatalogEntry(
        "BasketballDrive", ResolutionClass.HR, 50.0, 500,
        ContentProfile(complexity=1.05, motion=0.70, variability=0.05, scene_change_rate=0.005),
    ),
    "BQTerrace": CatalogEntry(
        "BQTerrace", ResolutionClass.HR, 60.0, 600,
        ContentProfile(complexity=1.30, motion=0.40, variability=0.05, scene_change_rate=0.003),
    ),
    # --- Class C, 832x480 ("LR") ------------------------------------------
    "BasketballDrill": CatalogEntry(
        "BasketballDrill", ResolutionClass.LR, 50.0, 500,
        ContentProfile(complexity=1.00, motion=0.55, variability=0.04, scene_change_rate=0.004),
    ),
    "BQMall": CatalogEntry(
        "BQMall", ResolutionClass.LR, 60.0, 600,
        ContentProfile(complexity=1.10, motion=0.45, variability=0.04, scene_change_rate=0.004),
    ),
    "PartyScene": CatalogEntry(
        "PartyScene", ResolutionClass.LR, 50.0, 500,
        ContentProfile(complexity=1.35, motion=0.50, variability=0.05, scene_change_rate=0.005),
    ),
    "RaceHorses": CatalogEntry(
        "RaceHorses", ResolutionClass.LR, 30.0, 300,
        ContentProfile(complexity=1.15, motion=0.80, variability=0.06, scene_change_rate=0.006),
    ),
}


def make_sequence(
    name: str,
    num_frames: int | None = None,
    seed: int = 0,
) -> VideoSequence:
    """Instantiate a synthetic sequence from the catalog.

    Parameters
    ----------
    name:
        A key of :data:`SEQUENCE_CATALOG`.
    num_frames:
        Override the default number of frames (e.g. to run longer traces).
    seed:
        Content-model seed; the same (name, num_frames, seed) triple always
        yields an identical sequence.
    """
    try:
        entry = SEQUENCE_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(SEQUENCE_CATALOG))
        raise VideoError(f"unknown sequence {name!r}; known sequences: {known}") from None
    width, height = entry.resolution_class.dimensions
    return VideoSequence(
        name=entry.name,
        width=width,
        height=height,
        frame_rate=entry.frame_rate,
        num_frames=num_frames if num_frames is not None else entry.num_frames,
        profile=entry.profile,
        seed=seed,
    )


def hr_sequences() -> list[str]:
    """Names of the HR (1080p, class B) sequences in the catalog."""
    return [
        name
        for name, entry in SEQUENCE_CATALOG.items()
        if entry.resolution_class is ResolutionClass.HR
    ]


def lr_sequences() -> list[str]:
    """Names of the LR (832x480, class C) sequences in the catalog."""
    return [
        name
        for name, entry in SEQUENCE_CATALOG.items()
        if entry.resolution_class is ResolutionClass.LR
    ]


def random_sequence(
    resolution_class: ResolutionClass,
    rng: np.random.Generator | int | None = None,
    num_frames: int | None = None,
) -> VideoSequence:
    """Pick a random catalog sequence of the requested resolution class.

    Used by Scenario II, where each initial video is followed by a sequence
    of randomly selected videos of the same resolution (paper Sec. V-C).

    Parameters
    ----------
    resolution_class:
        HR or LR.
    rng:
        A numpy Generator, an integer seed, or None for a fresh default
        generator.  The same generator also seeds the content model so that
        two draws of the same name still differ in content realisation.
    num_frames:
        Optional frame-count override.
    """
    if isinstance(rng, (int, np.integer)) or rng is None:
        rng = np.random.default_rng(rng)
    names = (
        hr_sequences() if resolution_class is ResolutionClass.HR else lr_sequences()
    )
    name = names[int(rng.integers(len(names)))]
    seed = int(rng.integers(2**31 - 1))
    return make_sequence(name, num_frames=num_frames, seed=seed)


def catalog_entries(resolution_class: ResolutionClass | None = None) -> Iterable[CatalogEntry]:
    """Iterate over catalog entries, optionally filtered by resolution class."""
    for entry in SEQUENCE_CATALOG.values():
        if resolution_class is None or entry.resolution_class is resolution_class:
            yield entry
