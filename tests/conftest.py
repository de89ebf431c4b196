"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.hevc.params import EncoderConfig, Preset
from repro.hevc.transcoder import Transcoder
from repro.platform.server import MulticoreServer
from repro.video.catalog import make_sequence
from repro.video.content import ContentProfile
from repro.video.request import TranscodingRequest
from repro.video.sequence import Frame, VideoSequence
from repro.video.content import FrameContent


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo a test's ``configure_logging``: level, handlers and propagation.

    Without it, a CLI test leaves the ``repro`` logger writing to that
    test's captured stdout, closed by then, and hidden from ``caplog``.
    """
    logger = logging.getLogger("repro")
    level, handlers, propagate = logger.level, list(logger.handlers), logger.propagate
    yield
    logger.setLevel(level)
    logger.handlers[:] = handlers
    logger.propagate = propagate


@pytest.fixture
def hr_sequence() -> VideoSequence:
    """A short, reproducible HR (1080p) sequence."""
    return make_sequence("Cactus", num_frames=60, seed=1)


@pytest.fixture
def lr_sequence() -> VideoSequence:
    """A short, reproducible LR (832x480) sequence."""
    return make_sequence("BQMall", num_frames=60, seed=2)


@pytest.fixture
def hr_frame(hr_sequence: VideoSequence) -> Frame:
    """One frame of the HR sequence."""
    return hr_sequence[10]


@pytest.fixture
def lr_frame(lr_sequence: VideoSequence) -> Frame:
    """One frame of the LR sequence."""
    return lr_sequence[10]


@pytest.fixture
def plain_frame() -> Frame:
    """A synthetic 1080p frame with unit complexity and no motion quirks."""
    return Frame(
        index=0,
        width=1920,
        height=1080,
        content=FrameContent(complexity=1.0, motion=0.4, scene_change=False),
    )


@pytest.fixture
def hr_request(hr_sequence: VideoSequence) -> TranscodingRequest:
    """A transcoding request for the HR sequence."""
    return TranscodingRequest(user_id="user-hr", sequence=hr_sequence)


@pytest.fixture
def lr_request(lr_sequence: VideoSequence) -> TranscodingRequest:
    """A transcoding request for the LR sequence."""
    return TranscodingRequest(user_id="user-lr", sequence=lr_sequence)


@pytest.fixture
def ultrafast_config() -> EncoderConfig:
    """A mid-range ultrafast encoder configuration."""
    return EncoderConfig(qp=32, threads=8, preset=Preset.ULTRAFAST)


@pytest.fixture
def transcoder() -> Transcoder:
    """A default-calibrated transcoder."""
    return Transcoder()


@pytest.fixture
def server() -> MulticoreServer:
    """A default 16-core / 32-thread server."""
    return MulticoreServer()


@pytest.fixture
def mamut_controller(hr_request: TranscodingRequest) -> MamutController:
    """A MAMUT controller configured for the HR request."""
    return MamutController(MamutConfig.for_request(hr_request, seed=0))


@pytest.fixture
def flat_profile() -> ContentProfile:
    """A content profile with no variability (deterministic content)."""
    return ContentProfile(complexity=1.0, motion=0.4, variability=0.0, scene_change_rate=0.0)
