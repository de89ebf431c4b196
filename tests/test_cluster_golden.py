"""Golden digests: every output of a seeded cluster run, pinned to fixed values.

The other cluster tests compare the two engines with each other, or a run
with itself.  This file pins what a run *produces* — the span list, the
Prometheus text, the per-step metric series (values and key order), the
SLO report, the summary and the raw result — to sha256 literals, so a refactor of the
cluster loop that changes any output by a byte fails here, even when it
changes both engines alike.

Three scenarios, each on both engines (the literals are shared, which also
checks the engines against each other):

* ``chaos`` — a flash crowd with per-class patience under
  ``QueueWhileWarming(ClassAwareAdmission(...))``, failure-aware dispatch,
  predictive autoscaling and brownout with a degraded controller factory,
  plus crashes, stragglers, warm-up failures, drawn zone outages, a kill
  schedule and checkpoints.  It runs once drained and once with a drain
  tail cut at three steps.
* ``overload`` — ``tests/test_telemetry.py``'s flash-crowd scenario, whose
  run ends with requests still queued (abandoned).
* the three-phase run — a Poisson fleet of controllers seeded with
  :func:`~repro.manager.pretrain.pretrain_mamut` knowledge, whose agents act
  in exploration, exploration-exploitation and Algorithm 1's exploitation
  (the other scenarios' agents start from scratch and only explore).  Its
  summary, every controller's snapshot and every activation history are
  pinned in ``GOLDEN_PHASES``.

A deliberate output change regenerates the literals (printed as JSON) with
``PYTHONPATH=src python tests/test_cluster_golden.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from collections import Counter

import pytest

from repro.cluster import (
    BrownoutController,
    CapacityThreshold,
    ClassAwareAdmission,
    ClusterOrchestrator,
    FailureAware,
    FailureTopology,
    FaultConfig,
    FlashCrowdTraffic,
    KillEntry,
    KillSchedule,
    PoissonTraffic,
    PredictiveScaling,
    QueueWhileWarming,
    WorkloadGenerator,
)
from repro.core.persistence import snapshot_controller
from repro.core.phases import Phase
from repro.manager.factories import mamut_factory, static_factory
from repro.manager.pretrain import pretrain_mamut, pretrained_mamut_factory
from repro.telemetry import (
    ListTraceSink,
    QueueWaitObjective,
    ShedRateObjective,
    TelemetryConfig,
    ViolationRateObjective,
)
from repro.video.sequence import ResolutionClass

SEED = 1


def chaos_cluster(engine: str) -> ClusterOrchestrator:
    """Every admission, dispatch, scaling, brownout and fault path at once."""
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.8, peak_multiplier=5.0, start=10, duration=15),
        seed=SEED,
        playlist_videos=2,
        frames_per_video=10,
        patience_steps=4,
        patience_by_class={ResolutionClass.HR: 8, ResolutionClass.LR: 2},
    )
    admission = QueueWhileWarming(
        ClassAwareAdmission(
            {
                ResolutionClass.HR: CapacityThreshold(
                    max_sessions_per_server=3, max_queue=8, brownout_extra_sessions=1
                ),
                ResolutionClass.LR: CapacityThreshold(
                    max_sessions_per_server=3, max_queue=2, brownout_extra_sessions=1
                ),
            }
        ),
        max_queue=12,
    )
    return ClusterOrchestrator(
        4,
        workload,
        admission=admission,
        dispatcher=FailureAware(),
        controller_factory=mamut_factory(),
        seed=SEED,
        engine=engine,
        autoscaler=PredictiveScaling(sessions_per_server=3, service_steps=20),
        min_servers=2,
        max_servers=8,
        provision_warmup_steps=2,
        brownout=BrownoutController(
            sessions_per_server=3,
            enter_steps=2,
            exit_steps=3,
            degraded_factory=static_factory(qp=37, threads=2, frequency_ghz=2.0),
        ),
        faults=FaultConfig(
            crash_mtbf_steps=60.0,
            crash_mttr_steps=5.0,
            straggler_mtbf_steps=50.0,
            straggler_duration_steps=4.0,
            warmup_failure_rate=0.3,
            max_retries=1,
            retry_backoff_steps=1,
            seed=7,
            topology=FailureTopology(zones=2, seed=7),
            zone_mtbf_steps=150.0,
            zone_mttr_steps=6.0,
            kill_schedule=KillSchedule(
                (
                    KillEntry(zone=1, step=30, duration=6),
                    # The window's last step: these retries are still
                    # pending when the run ends.
                    KillEntry(zone=0, step=59, duration=4),
                )
            ),
            checkpoint_interval_frames=4,
        ),
    )


def overload_cluster(engine: str) -> ClusterOrchestrator:
    """``tests/test_telemetry.py::make_cluster``, on either engine."""
    workload = WorkloadGenerator(
        FlashCrowdTraffic(0.3, peak_multiplier=6.0, start=8, duration=10),
        seed=0,
        frames_per_video=12,
        patience_steps=8,
    )
    return ClusterOrchestrator(
        2,
        workload,
        admission=CapacityThreshold(max_sessions_per_server=3, max_queue=5),
        controller_factory=static_factory(qp=32, threads=4, frequency_ghz=3.2),
        seed=0,
        engine=engine,
    )


#: name -> (cluster factory, duration, max_drain_steps)
SCENARIOS = {
    "chaos_drained": (chaos_cluster, 60, None),
    "chaos_cut_tail": (chaos_cluster, 60, 3),
    "overload": (overload_cluster, 30, None),
}


def run_scenario(name: str, engine: str):
    build, duration, max_drain_steps = SCENARIOS[name]
    sink = ListTraceSink()
    telemetry = TelemetryConfig(
        trace_sink=sink,
        metrics=True,
        record_series=True,
        slo=(
            QueueWaitObjective(name="queue-wait-p95", max_steps=3.0, window_steps=8),
            ShedRateObjective(name="shed-rate", max_pct=10.0, window_steps=8),
            ViolationRateObjective(
                name="qos-violation-rate", max_pct=20.0, window_steps=8
            ),
        ),
    )
    cluster = build(engine)
    result = cluster.run(
        duration, max_drain_steps=max_drain_steps, telemetry=telemetry
    )
    return cluster, result, sink


def _sha(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digests(cluster, result, sink) -> dict[str, str]:
    """sha256 of each run output, as pinned in ``GOLDEN``."""
    hub = cluster.telemetry
    series = hub.recorder.to_dict()
    return {
        "spans": _sha(sink.spans),
        "prometheus": _sha(hub.metrics.to_prometheus()),
        "series": _sha(json.dumps(series, sort_keys=True)),
        "series_keys": _sha(list(series["series"])),
        "slo": _sha(hub.slo.report()),
        "summary": _sha(result.summary().to_dict()),
        # Every raw result field: frame records, power samples, queue
        # waits, fault and scaling events, the fleet trace and the counts.
        "result": _sha(
            repr([getattr(result, f.name) for f in dataclasses.fields(result)])
        ),
    }


GOLDEN = {
    "chaos_cut_tail": {
        "spans": "a9266981d579e348f16b7fdf226e942d4f11e748f783c9a013c9fa0906cce1ce",
        "prometheus": "091066c60ebe27f9f3496587b1463130a938a601a5dd5964fef22a78a1b5f598",
        "series": "0f2566ff10851e5e1ee8a7b3107e455bcd7b6e5a8aab7c4dadad95b773e3c4f9",
        "series_keys": "d3d93f716eef9cbc70248006ad00de4413f3ae3d67398d645cef925598b0e84c",
        "slo": "59e4ece1bc3cf9cf9c43cf80ac31f71e8f55d623fc0b3515f5e643ec35a30faa",
        "summary": "0a29f67e646dd6c245c74482db9cd8f9194ee8a65c28ecfaccf3674bfa9b73f3",
        "result": "6e3cdab61a55cb5d756c0fb02a40a4d883a83728f478fbace31658d77659cec3",
    },
    "chaos_drained": {
        "spans": "de958d9510f20c6fa4b54fd8379345b0eae71c9e79304b1c90a46e1bce5ea19e",
        "prometheus": "22bef4a7d097455aba3b666f657c382c9275bb172723b2563db2883c99a092c1",
        "series": "d0e18509198f5eb08f666cf7ff3c6938a0b14316870c5c0382763eb6f30f7513",
        "series_keys": "d3d93f716eef9cbc70248006ad00de4413f3ae3d67398d645cef925598b0e84c",
        "slo": "20da55d4904b804f9a0290d03804bf4310ac241524f2ac94648681d03a0b3527",
        "summary": "5473738cb984503fe7bd0f2f9819b507de4c2ce1c777081e2438fb9449424129",
        "result": "7dd8a0d118d21c41c918d7316e63d0f1d3cf506e02b79f5e4bb2d8bb0f31e1ef",
    },
    "overload": {
        "spans": "7b0e06258b039c02ff977db228857416ea89cd7717b8a95cf2420cbca690d751",
        "prometheus": "d6e3f936fc08fa3385256f75542a91496bb2d35e7d177e8cc93a4b9ce98decf8",
        "series": "24791104a70b4b18a824a6571921332925457ff6bdce140ea9a28249cc692506",
        "series_keys": "0a7b6b1f8149f8b5dd75d544b36c9acf6b20d670ebf19f046033659bc85fdd12",
        "slo": "be9db1f1995ae9ca3e9585fe42ecd1032bb34ac5722fe2c319dfffba13f83e41",
        "summary": "46f9aaf6c3f8066b63c625c2bfe8577a389dd9c3c6ab698dc55c8b4aba46236b",
        "result": "7c31b9d120c57233df7f6de9adfca6c08dde426064ab86dbf8a59939bb54ed43",
    },
}


@pytest.mark.parametrize("engine", ["batch", "scalar"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_outputs_match_golden_digests(name, engine):
    assert digests(*run_scenario(name, engine)) == GOLDEN[name]


def test_chaos_scenario_exercises_every_ledger_path():
    # The pins only guard what the scenario reaches: keep every count the
    # cluster loop maintains non-zero.
    _, result, sink = run_scenario("chaos_drained", "batch")
    summary = result.summary()
    assert summary.rejected > 0
    assert summary.dropped > 0
    assert summary.degraded_sessions > 0
    assert summary.brownout_steps > 0
    assert summary.failed > 0
    assert any(span.get("pending") for span in sink.by_kind("failed"))
    assert summary.retried > 0
    assert summary.recomputed_frames > 0
    assert summary.checkpoint_writes > 0
    assert summary.server_crashes > 0
    assert summary.stragglers > 0
    assert summary.warmup_failures > 0
    assert summary.failed_domains > 0
    assert summary.scale_up_events > 0


def test_overload_scenario_ends_with_abandoned_requests():
    _, result, _ = run_scenario("overload", "batch")
    assert result.abandoned > 0


@functools.lru_cache(maxsize=None)
def phase_knowledge() -> dict:
    """Pre-trained HR and LR knowledge (read-only, shared by every run)."""
    return {
        resolution: pretrain_mamut(resolution, frames=2000)
        for resolution in (ResolutionClass.HR, ResolutionClass.LR)
    }


def run_phases(engine: str, knowledge: dict | None = None):
    """The three-phase run: pretrained controllers, 4 servers, 60 steps.

    ``knowledge`` defaults to :func:`phase_knowledge`.  Returns the result
    and every session's controller by session id.
    """
    if knowledge is None:
        knowledge = phase_knowledge()
    workload = WorkloadGenerator(PoissonTraffic(1.0), seed=3, frames_per_video=48)
    cluster = ClusterOrchestrator(
        4,
        workload,
        controller_factory=pretrained_mamut_factory(knowledge, record_history=True),
        seed=3,
        engine=engine,
    )
    result = cluster.run(60)
    controllers = {
        session.session_id: session.controller
        for orch in cluster.orchestrators
        for session in orch.sessions
    }
    return result, controllers


def phase_digests(result, controllers) -> dict[str, str]:
    """sha256 of the three-phase run's outputs, as pinned in ``GOLDEN_PHASES``."""
    return {
        "summary": _sha(result.summary().to_dict()),
        "snapshots": _sha(
            [(sid, snapshot_controller(ctl)) for sid, ctl in controllers.items()]
        ),
        "histories": _sha(
            repr([(sid, ctl.history) for sid, ctl in controllers.items()])
        ),
    }


GOLDEN_PHASES = {
    "summary": "c925f2615c360c584daa50f95c93ef4f1054c6e54550df8af51b0eae4d75d9b8",
    "snapshots": "13547c9a150d3f8d002a6ff6b2da76421294cabf48e29a6188a272eaa6fa8556",
    "histories": "f7190c0567012512af4f3ab7aa33db05bf035a7f418ebe70dc7f6e8bbff84d1f",
}


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_three_phase_run_matches_golden_digests(engine):
    assert phase_digests(*run_phases(engine)) == GOLDEN_PHASES


def test_three_phase_run_reaches_every_phase():
    _, controllers = run_phases("batch")
    phases = Counter(
        entry.phase for controller in controllers.values() for entry in controller.history
    )
    assert all(phases[phase] > 0 for phase in Phase), phases


if __name__ == "__main__":
    golden = {
        name: digests(*run_scenario(name, "scalar")) for name in sorted(SCENARIOS)
    }
    golden["GOLDEN_PHASES"] = phase_digests(*run_phases("scalar"))
    json.dump(golden, sys.stdout, indent=4)
    sys.stdout.write("\n")
