"""The frame ledger: committed frames as columns, records built on read.

A run's sessions write their frames to one
:class:`~repro.metrics.records.FrameLedger`; ``session.records`` and the
result's ``records_by_server`` are
:class:`~repro.metrics.records.FrameRecordView` objects over it.  These
tests pin the views' sequence semantics against the tuples they replace,
the scalar ``commit`` against its batch form ``commit_batch`` (bitwise, on
every field the two forms move), and the cluster summary over views against
the same records as plain tuples.
"""

from __future__ import annotations

import builtins
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_fixtures import compensated_sum
from repro.baselines.static import StaticController
from repro.cluster import ClusterOrchestrator, PoissonTraffic, WorkloadGenerator
from repro.errors import ScenarioError
from repro.manager.session import TranscodingSession
from repro.metrics.cluster import ClusterResult, summarize_cluster
from repro.metrics.records import FrameLedger, FrameRecord, FrameRecordView, PowerSample
from repro.numeric import ordered_sum
from repro.video.catalog import make_sequence
from repro.video.request import TranscodingRequest


class _CountingController(StaticController):
    """A static controller that counts its per-video resets."""

    def __init__(self) -> None:
        super().__init__(32, 4, 3.2)
        self.resets = 0

    def reset(self) -> None:
        super().reset()
        self.resets += 1


def make_session(
    name="u0", lengths=(6,), start_frame_index=0, ledger=None, target_fps=24.0, seed=0
) -> TranscodingSession:
    videos = [
        make_sequence("Kimono", num_frames=n, seed=seed + i) for i, n in enumerate(lengths)
    ]
    request = TranscodingRequest(user_id=name, sequence=videos[0], target_fps=target_fps)
    return TranscodingSession(
        request,
        _CountingController(),
        playlist=videos,
        start_frame_index=start_frame_index,
        ledger=ledger,
    )


def run_scalar(session: TranscodingSession, frames: int) -> list[FrameRecord]:
    """Step ``session`` ``frames`` times on the scalar path; returns the records."""
    records = []
    for k in range(frames):
        session.prepare()
        records.append(session.execute(1.0 / (1.0 + k), 80.0 + k))
    return records


def frame_fields(rng: np.random.Generator, n: int) -> dict:
    """One step's per-session frame fields, as commit_batch takes them."""
    return dict(
        qp=rng.integers(22, 45, n),
        threads=rng.integers(1, 9, n),
        frequency_ghz=rng.choice([1.6, 2.4, 3.2], n),
        fps=rng.uniform(10.0, 40.0, n),
        psnr_db=rng.uniform(30.0, 45.0, n),
        bitrate_mbps=rng.uniform(0.5, 8.0, n),
        encode_time_s=rng.uniform(0.01, 0.1, n),
        power_w=rng.uniform(40.0, 120.0, n),
    )


def record_of(session: TranscodingSession, fields: dict, i: int) -> FrameRecord:
    """The record ``commit`` takes for lane ``i`` of ``fields``."""
    video = session.current_video
    return FrameRecord(
        session.session_id,
        session.step,
        video.name,
        session.frame_index,
        video.resolution_class,
        int(fields["qp"][i]),
        int(fields["threads"][i]),
        *(float(fields[name][i]) for name in FrameLedger.FLOAT_COLUMNS),
        session.request.target_fps,
    )


class TestFrameRecordView:
    def test_sequence_semantics_match_the_records_tuple(self):
        session = make_session(lengths=(3, 4))
        records = tuple(run_scalar(session, 6))
        view = session.records
        assert isinstance(view, FrameRecordView)
        assert len(view) == 6
        assert tuple(view) == records
        assert list(iter(view)) == list(records)
        for index in (0, 3, 5, -1, -6):
            assert view[index] == records[index]
        for index in (6, -7):
            with pytest.raises(IndexError):
                view[index]
        for piece in (slice(1, 4), slice(None, None, -2), slice(-3, None), slice(5, 1)):
            assert view[piece] == records[piece]
            assert type(view[piece]) is tuple
        assert view.index(records[4]) == 4
        assert records[2] in view

    def test_repr_and_equality_are_the_tuples(self):
        session = make_session(lengths=(2, 2))
        assert repr(session.records) == repr(())
        records = tuple(run_scalar(session, 3))
        view = session.records
        assert repr(view) == repr(records)
        one = make_session(lengths=(1,))
        run_scalar(one, 1)
        assert repr(one.records) == repr((one.records[0],))
        assert view == records and records == view
        assert view == list(records)
        assert view != records[:2]
        assert view != "not records"
        with pytest.raises(TypeError):
            hash(view)

    def test_live_view_grows_and_fixed_view_keeps_its_length(self):
        session = make_session(lengths=(5,))
        live = session.records
        run_scalar(session, 2)
        fixed = session.records.fixed()
        first = tuple(fixed)
        run_scalar(session, 3)
        assert len(live) == len(session.records) == 5
        assert len(fixed) == 2
        assert tuple(fixed) == first == tuple(live)[:2]

    def test_views_stay_valid_after_the_ledger_grows(self):
        ledger = FrameLedger()
        session = make_session(lengths=(4,), ledger=ledger)
        records = tuple(run_scalar(session, 4))
        view = session.records.fixed()
        columns = ledger.floats
        for k in range(12):
            make_session(name=f"n{k}", lengths=(40,), ledger=ledger)
        assert ledger.floats is not columns  # the columns were reallocated
        assert tuple(view) == tuple(session.records) == records

    def test_cluster_views_equal_the_scalar_engines_records(self):
        def run(engine):
            workload = WorkloadGenerator(
                PoissonTraffic(1.5), seed=4, frames_per_video=6, playlist_videos=2
            )
            return ClusterOrchestrator(2, workload, seed=4, engine=engine).run(12)

        batch, scalar = run("batch"), run("scalar")
        views = [view for server in batch.records_by_server for view in server.values()]
        assert views and all(isinstance(view, FrameRecordView) for view in views)
        assert batch.records_by_server == scalar.records_by_server
        as_tuples = tuple(
            {sid: tuple(view) for sid, view in server.items()}
            for server in scalar.records_by_server
        )
        assert batch.records_by_server == as_tuples
        assert repr(batch.records_by_server) == repr(as_tuples)


class TestBlockBounds:
    """A session writes only its own block, however its playlist changes."""

    def grown(self, ledger):
        """A session whose playlist grew after it was built, at its block's end."""
        session = make_session(name="grown", lengths=(2,), ledger=ledger)
        session.playlist.append(make_sequence("Kimono", num_frames=2, seed=9))
        run_scalar(session, 2)
        assert session.active
        return session

    def test_scalar_commit_past_the_block_raises(self):
        ledger = FrameLedger()
        session = self.grown(ledger)
        neighbour = make_session(name="next", lengths=(3,), ledger=ledger)
        records = tuple(run_scalar(neighbour, 3))
        session.prepare()
        with pytest.raises(ScenarioError, match="no row left"):
            session.execute(1.0, 80.0)
        assert session.step == 2
        assert tuple(neighbour.records) == records

    def test_batch_commit_past_the_block_raises_and_moves_nothing(self):
        ledger = FrameLedger()
        session = self.grown(ledger)
        neighbour = make_session(name="next", lengths=(3,), ledger=ledger)
        records = tuple(run_scalar(neighbour, 1))
        before = ledger.floats.copy(), ledger.ints.copy()
        fields = frame_fields(np.random.default_rng(0), 2)
        with pytest.raises(ScenarioError, match="grown"):
            TranscodingSession.commit_batch(
                [neighbour, session], [neighbour.frame_index, session.frame_index], **fields
            )
        assert (neighbour.step, session.step) == (1, 2)
        assert neighbour.controller.window.count == 1
        assert ledger.floats.tobytes() == before[0].tobytes()
        assert ledger.ints.tobytes() == before[1].tobytes()
        assert tuple(neighbour.records) == records

    def test_terminated_session_takes_no_commit(self):
        session = make_session(lengths=(4,))
        run_scalar(session, 1)
        session.terminate()
        fields = frame_fields(np.random.default_rng(0), 1)
        with pytest.raises(ScenarioError):
            TranscodingSession.commit_batch([session], [0], **fields)
        assert len(session.records) == 1


_SESSION_SPECS = st.lists(
    st.tuples(
        st.lists(st.integers(1, 4), min_size=1, max_size=3),  # video lengths
        st.integers(0, 3),  # start frame (clipped to the first video)
        st.integers(0, 1),  # ledger
    ),
    min_size=1,
    max_size=5,
)


def _progress(session: TranscodingSession) -> tuple:
    window = session.controller.window
    return (
        session.step,
        session.video_index,
        session.frame_index,
        session.active,
        session.controller.resets,
        (window.fps, window.psnr_db, window.bitrate_mbps, window.power_w, window.count),
    )


class TestCommitBatchPairsCommit:
    """``commit_batch`` moves every session exactly as ``commit`` does."""

    @staticmethod
    def build(specs):
        ledgers = [FrameLedger(), FrameLedger()]
        sessions = [
            make_session(
                name=f"u{k}",
                lengths=lengths,
                start_frame_index=min(start, lengths[0] - 1),
                ledger=ledgers[which],
                target_fps=20.0 + k,
                seed=10 * k,
            )
            for k, (lengths, start, which) in enumerate(specs)
        ]
        return sessions, ledgers

    @settings(max_examples=60, deadline=None)
    @given(specs=_SESSION_SPECS, seed=st.integers(0, 2**16))
    def test_batch_and_scalar_commits_agree_bitwise(self, specs, seed):
        scalar, scalar_ledgers = self.build(specs)
        batch, batch_ledgers = self.build(specs)
        rng = np.random.default_rng(seed)
        while any(session.active for session in scalar):
            lanes = [k for k, session in enumerate(scalar) if session.active]
            fields = frame_fields(rng, len(lanes))
            for i, k in enumerate(lanes):
                scalar[k].commit(record_of(scalar[k], fields, i))
            sessions = [batch[k] for k in lanes]
            videos = [session.video_index for session in sessions]
            moved = TranscodingSession.commit_batch(
                sessions, [session.frame_index for session in sessions], **fields
            )
            assert moved == [
                i
                for i, session in enumerate(sessions)
                if session.active and session.video_index != videos[i]
            ]
            assert [_progress(batch[k]) for k in lanes] == [
                _progress(scalar[k]) for k in lanes
            ]
        for a, b in zip(scalar, batch):
            assert repr(a.records) == repr(b.records)
            assert a.records == b.records
        for a, b in zip(scalar_ledgers, batch_ledgers):
            assert a.reserved == b.reserved
            written = slice(0, a.reserved)
            assert a.ints[written].tobytes() == b.ints[written].tobytes()
            assert a.floats[written].tobytes() == b.floats[written].tobytes()

    def test_cases_cover_boundaries_resumes_and_two_ledgers(self):
        # The cases the fuzz must reach, spelled out: a video boundary, a
        # playlist end mid-run, a resumed session, and two ledgers in one call.
        specs = [((2, 3), 1, 0), ((1,), 0, 1), ((3, 1, 2), 2, 0), ((4,), 0, 1)]
        batch, ledgers = self.build(specs)
        assert batch[2].frame_index == 2
        fields = frame_fields(np.random.default_rng(0), 4)
        moved = TranscodingSession.commit_batch(
            batch, [session.frame_index for session in batch], **fields
        )
        # u0 moved from frame 1 of its first video to its second; u1 ended.
        assert moved == [0, 2]
        assert not batch[1].active
        assert [session.controller.resets for session in batch] == [1, 0, 1, 0]
        assert [len(session.records) for session in batch] == [1, 1, 1, 1]
        assert [ledger.reserved for ledger in ledgers] == [4 + 4, 1 + 4]
        first = batch[0].playlist[0]
        assert batch[0].records[0] == FrameRecord(
            "u0",
            0,
            first.name,
            1,
            first.resolution_class,
            int(fields["qp"][0]),
            int(fields["threads"][0]),
            *(float(fields[name][0]) for name in FrameLedger.FLOAT_COLUMNS),
            20.0,
        )


_FPS = st.one_of(st.floats(0.0, 60.0, allow_nan=False), st.sampled_from([24.0, 30.0]))


class TestSummaryOverViews:
    """``summarize_cluster`` reads ledger views and tuples alike."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_views_and_tuples_summarize_alike(self, data):
        ledger = FrameLedger()
        records_by_server, samples_by_server = [], []
        for server in range(data.draw(st.integers(1, 3))):
            by_session = {}
            for k in range(data.draw(st.integers(0, 3))):
                session = make_session(
                    name=f"s{server}u{k}",
                    lengths=(data.draw(st.integers(1, 5)),),
                    ledger=ledger,
                    target_fps=data.draw(st.sampled_from([24.0, 30.0])),
                )
                fps = data.draw(st.lists(_FPS, max_size=len(session.playlist[0])))
                for value in fps:
                    fields = frame_fields(np.random.default_rng(len(fps)), 1)
                    fields["fps"] = np.array([value])
                    session.commit(record_of(session, fields, 0))
                by_session[session.session_id] = session.records.fixed()
            records_by_server.append(by_session)
            samples_by_server.append(
                [
                    PowerSample(step, data.draw(st.floats(40.0, 120.0)), 0.04, 1)
                    for step in range(data.draw(st.integers(1, 4)))
                ]
            )
        as_tuples = [
            {sid: tuple(view) for sid, view in by_session.items()}
            for by_session in records_by_server
        ]
        ledger_args = dict(
            arrivals=5, admitted=4, rejected=1, abandoned=0, queue_waits=(0, 2), steps=4
        )

        def summaries():
            return (
                summarize_cluster(
                    ClusterResult(records_by_server, samples_by_server, **ledger_args)
                ),
                summarize_cluster(
                    ClusterResult(as_tuples, samples_by_server, **ledger_args)
                ),
            )

        views, tuples = summaries()
        assert views.to_dict() == tuples.to_dict()
        # Today's fold: server, then session, then frame, left to right.
        every = [r for by in as_tuples for records in by.values() for r in records]
        if every:
            assert views.mean_fps == ordered_sum(r.fps for r in every) / len(every)
            below = ordered_sum(1 for r in every if r.is_violation)
            assert views.qos_violation_pct == 100.0 * below / len(every)
        with mock.patch.object(builtins, "sum", compensated_sum):
            views, tuples = summaries()
        assert views.to_dict() == tuples.to_dict()
