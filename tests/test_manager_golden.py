"""Golden digests: every output of a seeded single-server run, pinned.

``tests/test_cluster_golden.py`` pins cluster runs.  This file pins the
single-server path behind ``quickstart``, ``compare``, ``fig4``, ``fig5``,
``table1`` and ``table2``: :meth:`Orchestrator.run` on both engines, a
chunked batch run, a batch-to-scalar hand-off, and the idle steps of an
empty orchestrator.  Each run's frame records, power samples, summary and
learned state (MAMUT Q-tables plus activation history, the mono-agent's
Q-table) are hashed to sha256 literals, so a refactor of the session, idle
or energy bookkeeping that changes any output by a byte fails here, even
when it changes both engines alike.

The session set mixes every controller family on one server: MAMUT with
``record_history=True``, the chip-wide heuristic (which switches the server
to chip-wide DVFS), the mono-agent and a static controller, on HR and LR
two-video playlists, with one session started mid-video through
``start_frame_index``.  A second set leaves the heuristic out, so the
server keeps per-core DVFS.

A deliberate output change regenerates the literals (printed as JSON) with
``PYTHONPATH=src python tests/test_manager_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro.core.persistence import snapshot_agent, snapshot_controller
from repro.manager.factories import (
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
    static_factory,
)
from repro.manager.orchestrator import Orchestrator
from repro.manager.session import TranscodingSession
from repro.video.catalog import random_sequence
from repro.video.request import TranscodingRequest
from repro.video.sequence import ResolutionClass

FRAMES_PER_VIDEO = 16

HR, LR = ResolutionClass.HR, ResolutionClass.LR

#: (user, controller factory, resolution class, start frame of video 1)
PLAN = [
    ("mamut-hr", mamut_factory(record_history=True), HR, 0),
    ("mamut-lr", mamut_factory(record_history=True), LR, 0),
    ("heuristic-lr", heuristic_factory(), LR, 0),
    ("mono-hr", monoagent_factory(), HR, 0),
    ("static-lr", static_factory(qp=32, threads=4, frequency_ghz=2.6), LR, 0),
    ("mamut-resumed", mamut_factory(record_history=True), HR, 11),
]


def make_sessions(chip_wide: bool) -> list[TranscodingSession]:
    sessions = []
    for i, (user, factory, resolution, start) in enumerate(PLAN):
        if not chip_wide and user.startswith("heuristic"):
            continue
        playlist = [
            random_sequence(resolution, rng=10 * i + k, num_frames=FRAMES_PER_VIDEO)
            for k in range(2)
        ]
        request = TranscodingRequest(user_id=user, sequence=playlist[0])
        sessions.append(
            TranscodingSession(
                request=request,
                controller=factory(request, i),
                playlist=playlist,
                start_frame_index=start,
            )
        )
    return sessions


def run_plain(engine: str, chip_wide: bool):
    orchestrator = Orchestrator(make_sessions(chip_wide))
    result = orchestrator.run(engine=engine)
    return orchestrator, result.records_by_session, result.power_samples, result


def run_chunked(second_engine: str, chip_wide: bool):
    """Nine batch steps, then the rest on ``second_engine``."""
    orchestrator = Orchestrator(make_sessions(chip_wide))
    first = orchestrator.run(max_steps=9, engine="batch")
    rest = orchestrator.run(engine=second_engine)
    assert first.steps == 9
    samples = list(first.power_samples) + list(rest.power_samples)
    return orchestrator, rest.records_by_session, samples, rest


#: run name -> (runner, second argument, pin in ``GOLDEN``).  Runs that
#: must agree share a pin, which also checks the engines against each other.
RUNS = {
    "scalar": (run_plain, "scalar", "one_shot"),
    "batch": (run_plain, "batch", "one_shot"),
    "batch_chunked": (run_chunked, "batch", "chunked"),
    "batch_then_scalar": (run_chunked, "scalar", "chunked"),
}

FLEETS = {"chip_wide": True, "per_core": False}


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def learned_state(orchestrator: Orchestrator) -> dict:
    state = {}
    for session in orchestrator.sessions:
        controller = session.controller
        if getattr(controller, "agent", None) is not None:
            state[session.session_id] = snapshot_agent(controller.agent)
        else:
            state[session.session_id] = snapshot_controller(controller)
    return state


def digests(orchestrator, records_by_session, samples, result) -> dict[str, str]:
    """sha256 of each run output, as pinned in ``GOLDEN``."""
    return {
        "records": _sha(repr(sorted(records_by_session.items()))),
        "samples": _sha(repr(list(samples))),
        "summary": _sha(repr(result.summary())),
        "learned": _sha(json.dumps(learned_state(orchestrator), sort_keys=True)),
        "history": _sha(
            repr(
                [
                    (session.session_id, getattr(session.controller, "history", None))
                    for session in orchestrator.sessions
                ]
            )
        ),
    }


def idle_digest() -> str:
    orchestrator = Orchestrator()
    return _sha(repr([orchestrator.idle_step(step) for step in range(3)]))


GOLDEN = {
    "chip_wide": {
        "one_shot": {
            "records": "bd864973d7b8b7a042f83f6b104a918c19569e542432c58c9e170b3210faa665",
            "samples": "9fd012b7053023f8b0a2d5019d18af8956aa68a070587fb74f3969c06d775fcf",
            "summary": "4d67426a196b0984653df0837742112d11b74301305ee40571686d49d44eb5be",
            "learned": "7faf0a87d59902d6e4dc7fd9a7da7846989e8b0da0ae7e8494b6b41f114c99c5",
            "history": "f07cf580ca4d16e70ca9d9f450f8c5be6d7ec8fbd820d1284cc3bd25afc254fd",
        },
        "chunked": {
            "records": "bd864973d7b8b7a042f83f6b104a918c19569e542432c58c9e170b3210faa665",
            "samples": "c3bf06154619988b81ddda48a1add28208ffc92c8349900d9a9af0bda5e1b7e5",
            "summary": "7a5a239eaf2efc34347d9d825bcc1010eafb50a529f6c9a11de76a40281f22bc",
            "learned": "7faf0a87d59902d6e4dc7fd9a7da7846989e8b0da0ae7e8494b6b41f114c99c5",
            "history": "f07cf580ca4d16e70ca9d9f450f8c5be6d7ec8fbd820d1284cc3bd25afc254fd",
        },
    },
    "per_core": {
        "one_shot": {
            "records": "ecea656651d4552fa92fc5fcb0f3e2f72f083afcc2ec871178854669d99952b8",
            "samples": "5c1aace6f5d0eb6067dd88dc96adf4e2f440d8358f89cd6ef335fd176d5c28cd",
            "summary": "8b90bc70098c4f4623a6314a067572e6408b14922cd5aec0d91b3ce286f1e08b",
            "learned": "19eb9c2522d5e5ef57f59cfb47c1ffd567e5c4a9e853ee13e7ad8237688539c2",
            "history": "7c8aebebc8bf8ecdc416241402906e2dd1320a0b8b330934e4e4901ce5554237",
        },
        "chunked": {
            "records": "ecea656651d4552fa92fc5fcb0f3e2f72f083afcc2ec871178854669d99952b8",
            "samples": "a834efdb6501c75f4a89900ac8dc35155fa93dd44028ed222b9f17e48c83c186",
            "summary": "36761c7ea258295d7f8f5f43de6af3ace6fac9b863c998c25fae1fab8841e8fc",
            "learned": "19eb9c2522d5e5ef57f59cfb47c1ffd567e5c4a9e853ee13e7ad8237688539c2",
            "history": "7c8aebebc8bf8ecdc416241402906e2dd1320a0b8b330934e4e4901ce5554237",
        },
    },
}

GOLDEN_IDLE = "7d196aaa08a2760a458cab99e8861e4af852211b513f348e313ea6004cafcc38"


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_run_outputs_match_golden_digests(fleet, run):
    runner, argument, pin = RUNS[run]
    assert digests(*runner(argument, FLEETS[fleet])) == GOLDEN[fleet][pin]


def test_idle_steps_match_golden_digest():
    assert idle_digest() == GOLDEN_IDLE


def test_session_set_exercises_every_path():
    # The pins only guard what the runs reach.
    orchestrator, records, samples, _ = run_plain("batch", chip_wide=True)
    sessions = {session.session_id: session for session in orchestrator.sessions}
    assert all(not session.active for session in sessions.values())
    assert len(records["mamut-resumed"]) == 2 * FRAMES_PER_VIDEO - 11
    assert records["mamut-resumed"][0].frame_index == 11
    # Every MAMUT session learned and switched videos mid-run.
    for user in ("mamut-hr", "mamut-lr", "mamut-resumed"):
        assert sessions[user].controller.history
        assert len({r.video_name for r in records[user]}) == 2
    # Sessions finish at different steps, so the server steps short-handed.
    assert len({s.active_sessions for s in samples}) > 1


if __name__ == "__main__":
    golden = {
        fleet: {
            pin: digests(*runner(argument, chip_wide))
            for runner, argument, pin in RUNS.values()
        }
        for fleet, chip_wide in sorted(FLEETS.items())
    }
    json.dump({"GOLDEN": golden, "GOLDEN_IDLE": idle_digest()}, sys.stdout, indent=4)
    sys.stdout.write("\n")
