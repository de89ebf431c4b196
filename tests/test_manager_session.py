"""Unit tests for repro.manager.session."""

from __future__ import annotations

import pytest

from repro.baselines.static import StaticController
from repro.core.controller import Controller, Decision
from repro.errors import ScenarioError
from repro.hevc.params import Preset
from repro.manager.session import TranscodingSession
from repro.video.catalog import make_sequence
from repro.video.request import TranscodingRequest


class _CountingController(Controller):
    """A static controller that counts reset() calls (playlist transitions)."""

    def __init__(self) -> None:
        self.resets = 0
        self.frames_seen: list[int] = []

    def decide(self, frame_index, observation) -> Decision:
        self.frames_seen.append(frame_index)
        return Decision(qp=32, threads=4, frequency_ghz=3.2)

    def reset(self) -> None:
        self.resets += 1


def make_session(
    num_frames=8, playlist_videos=1, controller=None, start_frame_index=0
) -> TranscodingSession:
    videos = [
        make_sequence("Kimono", num_frames=num_frames, seed=i) for i in range(playlist_videos)
    ]
    request = TranscodingRequest(user_id="u0", sequence=videos[0])
    return TranscodingSession(
        request=request,
        controller=controller if controller is not None else StaticController(32, 4, 3.2),
        playlist=videos,
        start_frame_index=start_frame_index,
    )


class TestSessionProtocol:
    def test_prepare_then_execute_produces_a_record(self):
        session = make_session()
        demand = session.prepare()
        assert demand.session_id == "u0"
        assert demand.threads == 4
        record = session.execute(contention_scale=1.0, server_power_w=75.0)
        assert record.session_id == "u0"
        assert record.step == 0
        assert record.power_w == pytest.approx(75.0)
        assert record.fps > 0
        assert session.step == 1

    def test_double_prepare_rejected(self):
        session = make_session()
        session.prepare()
        with pytest.raises(ScenarioError):
            session.prepare()

    def test_execute_without_prepare_rejected(self):
        session = make_session()
        with pytest.raises(ScenarioError):
            session.execute(1.0, 75.0)

    def test_double_decide_rejected(self):
        session = make_session()
        session.decide()
        with pytest.raises(ScenarioError):
            session.decide()

    def test_decide_rejected_with_prepare_in_flight(self):
        session = make_session()
        session.prepare()
        with pytest.raises(ScenarioError):
            session.decide()

    def test_session_finishes_after_all_frames(self):
        session = make_session(num_frames=3)
        for _ in range(3):
            session.prepare()
            session.execute(1.0, 75.0)
        assert not session.active
        with pytest.raises(ScenarioError):
            session.prepare()

    def test_observation_is_fed_back_to_the_controller(self):
        session = make_session()
        assert session.last_observation is None
        session.prepare()
        session.execute(1.0, 75.0)
        assert session.last_observation is not None
        assert session.last_observation.power_w == pytest.approx(75.0)


class TestPlaylist:
    def test_playlist_advances_and_resets_controller(self):
        controller = _CountingController()
        session = make_session(num_frames=4, playlist_videos=3, controller=controller)
        assert session.total_frames == 12
        for _ in range(12):
            session.prepare()
            session.execute(1.0, 75.0)
        assert not session.active
        # reset() fires on each video-to-video transition (not after the last).
        assert controller.resets == 2

    def test_step_counter_is_monotonic_across_videos(self):
        controller = _CountingController()
        session = make_session(num_frames=4, playlist_videos=2, controller=controller)
        for _ in range(8):
            session.prepare()
            session.execute(1.0, 75.0)
        assert controller.frames_seen == list(range(8))
        assert [r.step for r in session.records] == list(range(8))

    def test_empty_playlist_rejected(self):
        video = make_sequence("Kimono", num_frames=4)
        request = TranscodingRequest(user_id="u0", sequence=video)
        with pytest.raises(ScenarioError):
            TranscodingSession(request, StaticController(32, 4, 3.2), playlist=[])


class TestCheckpointResume:
    """``start_frame_index`` — how checkpointed sessions rejoin a fleet."""

    def test_resumes_mid_video(self):
        session = make_session(num_frames=8, start_frame_index=5)
        assert session.frame_index == 5
        # Only the remaining frames of the interrupted video are processed.
        records = []
        while session.active:
            session.prepare()
            records.append(session.execute(1.0, 75.0))
        assert [r.frame_index for r in records] == [5, 6, 7]

    def test_resume_spans_playlist_boundary(self):
        controller = _CountingController()
        session = make_session(
            num_frames=4, playlist_videos=2, controller=controller,
            start_frame_index=2,
        )
        while session.active:
            session.prepare()
            session.execute(1.0, 75.0)
        # Frames 2-3 of the interrupted video, then all of the next one.
        assert controller.frames_seen == [0, 1, 2, 3, 4, 5]
        assert controller.resets == 1

    def test_start_frame_must_be_inside_first_video(self):
        with pytest.raises(ScenarioError):
            make_session(num_frames=8, start_frame_index=8)
        with pytest.raises(ScenarioError):
            make_session(num_frames=8, start_frame_index=-1)


class TestPresets:
    def test_hr_uses_ultrafast_and_lr_uses_slow(self):
        hr_video = make_sequence("Cactus", num_frames=4)
        lr_video = make_sequence("BQMall", num_frames=4)
        hr_session = TranscodingSession(
            TranscodingRequest(user_id="hr", sequence=hr_video), StaticController(32, 4, 3.2)
        )
        lr_session = TranscodingSession(
            TranscodingRequest(user_id="lr", sequence=lr_video), StaticController(32, 4, 3.2)
        )
        assert hr_session.preset_for(hr_video) is Preset.ULTRAFAST
        assert lr_session.preset_for(lr_video) is Preset.SLOW

    def test_preset_override(self):
        video = make_sequence("Cactus", num_frames=4)
        session = TranscodingSession(
            TranscodingRequest(user_id="u", sequence=video),
            StaticController(32, 4, 3.2),
            preset=Preset.MEDIUM,
        )
        assert session.preset_for(video) is Preset.MEDIUM


class TestDrivenStepProtocol:
    """commit() without decide(): the batch MAMUT driver's path."""

    def commit_args(self, session):
        from repro.core.observation import Observation
        from repro.metrics.records import FrameRecord

        video = session.current_video
        record = FrameRecord(
            session_id=session.session_id,
            step=session.step,
            video_name=video.name,
            frame_index=session.frame_index,
            resolution_class=video.resolution_class,
            qp=32,
            threads=4,
            frequency_ghz=3.2,
            fps=30.0,
            psnr_db=40.0,
            bitrate_mbps=2.0,
            encode_time_s=0.03,
            power_w=100.0,
            target_fps=session.request.target_fps,
        )
        observation = Observation(
            fps=30.0, psnr_db=40.0, bitrate_mbps=2.0, power_w=100.0
        )
        return record, observation

    def test_advances_like_prepare_then_execute(self):
        # The batch engine's MAMUT driver commits without decide(); the
        # bookkeeping must be the scalar engine's, across a video boundary
        # and the end of the playlist.
        def progress(session):
            return (
                session.step,
                session.video_index,
                session.frame_index,
                session.active,
                session.controller.resets,
            )

        scalar, driven = (
            make_session(
                num_frames=2,
                playlist_videos=2,
                controller=_CountingController(),
                start_frame_index=1,
            )
            for _ in range(2)
        )
        while scalar.active:
            scalar.prepare()
            record = scalar.execute(1.0, 75.0)
            driven.commit(record, scalar.last_observation)
            assert progress(driven) == progress(scalar)
        assert progress(scalar) == (3, 2, 0, False, 1)
        assert driven.records == scalar.records
        assert driven.last_observation == scalar.last_observation
        assert driven.controller.frames_seen == []

    def test_rejected_after_finish(self):
        session = make_session(num_frames=1)
        record, observation = self.commit_args(session)
        session.commit(record, observation)
        assert not session.active
        with pytest.raises(ScenarioError):
            session.commit(record, observation)
