"""Command-line interface for the MAMUT reproduction.

Provides quick access to the main experiments without writing Python::

    repro-mamut quickstart --frames 600
    repro-mamut compare --hr 1 --lr 1 --frames 360
    repro-mamut fig2
    repro-mamut fig5 --frames 500
    repro-mamut table1
    repro-mamut table2 --mixes 1x1,2x2,3x3
    repro-mamut cluster --servers 4 --arrival-rate 2.0 --duration 500
    repro-mamut cluster --traffic flash --autoscale reactive --max-servers 12
    repro-mamut cluster --traffic flash --patience 12 --brownout
    repro-mamut cluster --admission class-aware --hr-max-queue 32 --lr-max-queue 4
    repro-mamut cluster --fault-mtbf 60 --fault-seed 7 --autoscale reactive
    repro-mamut cluster --slo-queue-wait-p95 4 --slo-shed-rate 5 --summary-out run.json
    repro-mamut obs report trace.jsonl --summary run.json
    repro-mamut obs compare baseline.json candidate.json --rel-tol 0.01
    repro-mamut lint src tests
    repro-mamut lint --list-rules

(Equivalently: ``python -m repro.cli <command> ...``.)
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Sequence

from repro.analysis.figures import fig2_characterization, fig5_trace
from repro.cluster import (
    AlwaysAdmit,
    BrownoutController,
    CapacityThreshold,
    ClassAwareAdmission,
    ClusterOrchestrator,
    DiurnalTraffic,
    FailureAware,
    FailureTopology,
    FaultConfig,
    FlashCrowdTraffic,
    KillSchedule,
    LeastLoaded,
    PoissonTraffic,
    PowerAware,
    PowerHeadroom,
    PredictiveScaling,
    QueueWhileWarming,
    ReactiveThreshold,
    RoundRobin,
    TargetTracking,
    WorkloadGenerator,
)
from repro.video.sequence import ResolutionClass
from repro.analysis.tables import (
    fig4_scenario_one_sweep,
    table1_threads_frequency,
    table2_scenario_two,
)
from repro.constants import DEFAULT_POWER_CAP_W
from repro.core.config import MamutConfig
from repro.core.mamut import MamutController
from repro.lint import add_lint_arguments, lint_command
from repro.manager.factories import heuristic_factory, mamut_factory, monoagent_factory
from repro.manager.orchestrator import Orchestrator
from repro.manager.runner import ExperimentRunner
from repro.manager.scenario import scenario_one
from repro.manager.session import TranscodingSession
from repro.metrics.cluster import ClusterSummary
from repro.metrics.report import format_table
from repro.telemetry import (
    LOG_LEVELS,
    QueueWaitObjective,
    ShedRateObjective,
    TelemetryConfig,
    ViolationRateObjective,
    analyze_trace,
    configure_logging,
    provenance_mismatches,
    provenance_of,
    stamp_provenance,
)
from repro.video.catalog import make_sequence
from repro.video.request import TranscodingRequest

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mamut",
        description="MAMUT (DATE 2019) reproduction: experiments from the command line.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--power-cap", type=float, default=DEFAULT_POWER_CAP_W, help="server power cap (W)"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the 'repro' logger (debug shows scaling/brownout transitions)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser("quickstart", help="one HR video under MAMUT control")
    quickstart.add_argument("--frames", type=int, default=600)
    quickstart.add_argument("--sequence", default="Cactus")

    compare = subparsers.add_parser("compare", help="compare MAMUT against the baselines")
    compare.add_argument("--hr", type=int, default=1, help="number of HR videos")
    compare.add_argument("--lr", type=int, default=1, help="number of LR videos")
    compare.add_argument("--frames", type=int, default=240)
    compare.add_argument("--repetitions", type=int, default=1)
    compare.add_argument("--warmup-videos", type=int, default=1)

    fig2 = subparsers.add_parser("fig2", help="regenerate the Fig. 2 characterisation")
    fig2.add_argument("--frames", type=int, default=24)

    fig4 = subparsers.add_parser("fig4", help="regenerate the Fig. 4 Scenario I sweep")
    fig4.add_argument("--frames", type=int, default=120)
    fig4.add_argument("--warmup-videos", type=int, default=1)

    fig5 = subparsers.add_parser("fig5", help="regenerate the Fig. 5 MAMUT trace")
    fig5.add_argument("--frames", type=int, default=500)
    fig5.add_argument("--sequence", default="Cactus")

    subparsers.add_parser("table1", help="regenerate Table I (threads / frequency)")

    table2 = subparsers.add_parser("table2", help="regenerate Table II (Scenario II)")
    table2.add_argument(
        "--mixes",
        default="1x1,2x2,3x3",
        help="comma-separated HRxLR mixes, e.g. 1x1,2x3",
    )
    table2.add_argument("--frames-per-video", type=int, default=96)
    table2.add_argument("--warmup-videos", type=int, default=3)

    cluster = subparsers.add_parser(
        "cluster", help="multi-server fleet under arriving traffic"
    )
    cluster.add_argument("--servers", type=int, default=4, help="servers in the fleet")
    cluster.add_argument(
        "--arrival-rate", type=float, default=2.0, help="expected requests per step"
    )
    cluster.add_argument("--duration", type=int, default=500, help="arrival window (steps)")
    cluster.add_argument(
        "--traffic",
        choices=("poisson", "diurnal", "flash"),
        default="poisson",
        help="traffic model shaping the arrival rate",
    )
    cluster.add_argument(
        "--admission",
        choices=("always", "capacity", "power", "class-aware"),
        default="capacity",
        help="admission control policy (class-aware: per-resolution-class SLAs)",
    )
    cluster.add_argument(
        "--dispatch",
        choices=("round-robin", "least-loaded", "power-aware", "failure-aware"),
        default="least-loaded",
        help="load-balancing policy (failure-aware: crash-history-weighted)",
    )
    cluster.add_argument(
        "--max-sessions-per-server",
        type=int,
        default=4,
        help="concurrency bound of the capacity admission policy",
    )
    cluster.add_argument(
        "--max-queue", type=int, default=16, help="admission queue bound"
    )
    cluster.add_argument(
        "--hr-max-queue",
        type=int,
        default=None,
        help="HR queue bound under class-aware admission (default: --max-queue)",
    )
    cluster.add_argument(
        "--lr-max-queue",
        type=int,
        default=None,
        help="LR queue bound under class-aware admission (default: --max-queue)",
    )
    cluster.add_argument(
        "--patience",
        type=int,
        default=None,
        help="steps a queued request waits before being dropped (default: forever)",
    )
    cluster.add_argument(
        "--hr-patience",
        type=int,
        default=None,
        help="patience override for HR requests",
    )
    cluster.add_argument(
        "--lr-patience",
        type=int,
        default=None,
        help="patience override for LR requests",
    )
    cluster.add_argument(
        "--queue-while-warming",
        action="store_true",
        help="while servers warm, queue instead of rejecting (backlog may "
        "grow to 2x the queue bound)",
    )
    cluster.add_argument(
        "--brownout",
        action="store_true",
        help="degrade quality fleet-wide under sustained pressure instead of shedding",
    )
    cluster.add_argument(
        "--brownout-fps-relax",
        type=float,
        default=0.75,
        help="FPS-target factor applied to sessions admitted during brownout",
    )
    cluster.add_argument(
        "--brownout-extra-sessions",
        type=int,
        default=2,
        help="extra per-server session slots capacity admission unlocks during brownout",
    )
    cluster.add_argument("--hr-fraction", type=float, default=0.5)
    cluster.add_argument("--frames-per-video", type=int, default=72)
    cluster.add_argument("--playlist-videos", type=int, default=1)
    cluster.add_argument(
        "--autoscale",
        choices=("none", "reactive", "target-tracking", "predictive"),
        default="none",
        help="elastic fleet policy (--servers becomes the initial size)",
    )
    cluster.add_argument(
        "--min-servers", type=int, default=1, help="autoscaling floor"
    )
    cluster.add_argument(
        "--max-servers",
        type=int,
        default=None,
        help="autoscaling ceiling (default: 4x --servers)",
    )
    cluster.add_argument(
        "--warmup-steps",
        type=int,
        default=3,
        help="provisioning delay before a commissioned server takes sessions",
    )
    cluster.add_argument(
        "--no-drain",
        action="store_true",
        help="stop at the end of the arrival window instead of finishing sessions",
    )
    cluster.add_argument(
        "--fault-mtbf",
        type=float,
        default=None,
        metavar="STEPS",
        help="inject server crashes: per-server mean time between failures",
    )
    cluster.add_argument(
        "--fault-mttr",
        type=float,
        default=10.0,
        metavar="STEPS",
        help="mean downtime of a crashed server before it reboots",
    )
    cluster.add_argument(
        "--fault-straggler-mtbf",
        type=float,
        default=None,
        metavar="STEPS",
        help="inject transient throttles: per-server mean time between stragglers",
    )
    cluster.add_argument(
        "--fault-straggler-duration",
        type=float,
        default=5.0,
        metavar="STEPS",
        help="mean length of a straggler throttle episode",
    )
    cluster.add_argument(
        "--fault-warmup-failure",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a freshly commissioned server never comes ready",
    )
    cluster.add_argument(
        "--fault-retries",
        type=int,
        default=3,
        help="crash-retry budget per request (0 = naive load shedding)",
    )
    cluster.add_argument(
        "--fault-backoff",
        type=int,
        default=2,
        metavar="STEPS",
        help="exponential retry backoff base after a crash",
    )
    cluster.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault injector's private random stream",
    )
    cluster.add_argument(
        "--fault-zones",
        type=int,
        default=1,
        metavar="N",
        help="failure zones the fleet is spread across",
    )
    cluster.add_argument(
        "--fault-racks-per-zone",
        type=int,
        default=1,
        metavar="N",
        help="racks inside each failure zone",
    )
    cluster.add_argument(
        "--fault-zone-mtbf",
        type=float,
        default=None,
        metavar="STEPS",
        help="inject correlated zone outages: per-zone mean time between failures",
    )
    cluster.add_argument(
        "--fault-zone-mttr",
        type=float,
        default=15.0,
        metavar="STEPS",
        help="mean downtime of the servers a zone outage takes down",
    )
    cluster.add_argument(
        "--kill-zone",
        action="append",
        default=None,
        metavar="Z:STEP:DUR",
        help="declaratively kill zone Z at STEP for DUR steps (repeatable)",
    )
    cluster.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="FRAMES",
        help="checkpoint session state every N frames so retries resume "
        "instead of recomputing the whole video",
    )
    # Accepted after the subcommand as well (SUPPRESS keeps the pre-command
    # values when the trailing flags are absent).
    cluster.add_argument(
        "--engine",
        choices=("batch", "scalar"),
        default="batch",
        help="stepping engine: vectorized NumPy batch (default) or scalar",
    )
    cluster.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write request-lifecycle spans as JSONL to PATH",
    )
    cluster.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write final metrics in Prometheus text format to PATH",
    )
    cluster.add_argument(
        "--profile",
        action="store_true",
        help="report per-phase engine wall time after the run",
    )
    cluster.add_argument(
        "--summary-out",
        default=None,
        metavar="PATH",
        help="write the run summary (with provenance) as JSON to PATH, "
        "for 'repro-mamut obs compare'",
    )
    cluster.add_argument(
        "--slo-queue-wait-p95",
        type=float,
        default=None,
        metavar="STEPS",
        help="SLO: windowed p95 queue wait must stay <= STEPS",
    )
    cluster.add_argument(
        "--slo-shed-rate",
        type=float,
        default=None,
        metavar="PCT",
        help="SLO: windowed shed rate (rejected+dropped+failed) <= PCT%% of arrivals",
    )
    cluster.add_argument(
        "--slo-violation-rate",
        type=float,
        default=None,
        metavar="PCT",
        help="SLO: windowed QoS-violating frames <= PCT%% of frames",
    )
    cluster.add_argument(
        "--slo-window",
        type=int,
        default=32,
        metavar="STEPS",
        help="rolling window the SLO objectives are judged over",
    )
    cluster.add_argument(
        "--slo-budget",
        type=float,
        default=5.0,
        metavar="PCT",
        help="error budget: share of run steps each SLO may spend in breach",
    )
    cluster.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    cluster.add_argument("--power-cap", type=float, default=argparse.SUPPRESS)
    cluster.add_argument(
        "--log-level", choices=LOG_LEVELS, default=argparse.SUPPRESS
    )

    obs = subparsers.add_parser(
        "obs", help="observability: analyse traces, compare run artifacts"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_commands.add_parser(
        "report", help="human-readable analysis of a trace JSONL"
    )
    report.add_argument("trace", help="span stream written by --trace-out")
    report.add_argument(
        "--summary",
        default=None,
        metavar="PATH",
        help="run artifact from --summary-out to reconcile the trace against",
    )
    compare = obs_commands.add_parser(
        "compare",
        help="diff two --summary-out artifacts; nonzero exit on regression",
    )
    compare.add_argument("baseline", help="baseline run artifact (JSON)")
    compare.add_argument("candidate", help="candidate run artifact (JSON)")
    compare.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="relative tolerance for numeric drift (e.g. 0.01 = 1%%)",
    )
    compare.add_argument(
        "--abs-tol",
        type=float,
        default=0.0,
        metavar="X",
        help="absolute tolerance for numeric drift",
    )
    compare.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="GLOB",
        help="dotted metric paths to skip (fnmatch glob; repeatable)",
    )
    compare.add_argument(
        "--force",
        action="store_true",
        help="diff anyway when provenance says the runs are not comparable",
    )

    lint = subparsers.add_parser(
        "lint",
        help="static analysis: RNG discipline, layering, scalar/batch "
        "parity, telemetry purity",
    )
    add_lint_arguments(lint)

    return parser


def _parse_mixes(text: str) -> list[tuple[int, int]]:
    mixes = []
    for chunk in text.split(","):
        hr, _, lr = chunk.strip().partition("x")
        mixes.append((int(hr), int(lr)))
    return mixes


def _cmd_quickstart(args: argparse.Namespace) -> None:
    sequence = make_sequence(args.sequence, num_frames=args.frames, seed=args.seed)
    request = TranscodingRequest(user_id="cli", sequence=sequence)
    controller = MamutController(
        MamutConfig.for_request(request, power_cap_w=args.power_cap, seed=args.seed)
    )
    summary = Orchestrator([TranscodingSession(request, controller)]).run().summary()
    session = summary.sessions["cli"]
    print(
        format_table(
            ["metric", "value"],
            [
                ["frames", session.frames],
                ["mean FPS", session.mean_fps],
                ["QoS violations (%)", session.qos_violation_pct],
                ["mean PSNR (dB)", session.mean_psnr_db],
                ["mean power (W)", summary.mean_power_w],
            ],
            float_format="{:.2f}",
        )
    )


def _cmd_compare(args: argparse.Namespace) -> None:
    specs = scenario_one(args.hr, args.lr, num_frames=args.frames, seed=args.seed)
    runner = ExperimentRunner(power_cap_w=args.power_cap, seed=args.seed)
    results = runner.compare(
        {
            "Heuristic": heuristic_factory(args.power_cap),
            "MonoAgent": monoagent_factory(args.power_cap),
            "MAMUT": mamut_factory(args.power_cap),
        },
        specs,
        repetitions=args.repetitions,
        warmup_videos=args.warmup_videos,
    )
    rows = [
        [label, r.qos_violation_pct, r.mean_power_w, r.mean_fps, r.mean_threads, r.mean_frequency_ghz]
        for label, r in results.items()
    ]
    print(format_table(["controller", "Δ (%)", "Power (W)", "FPS", "Nth", "Freq (GHz)"], rows))


def _cmd_fig2(args: argparse.Namespace) -> None:
    points = fig2_characterization(num_frames=args.frames, seed=args.seed)
    rows = [
        [p.threads, p.qp, p.fps, p.power_w, p.psnr_db, p.bandwidth_mbytes_per_s]
        for p in points
    ]
    print(format_table(["threads", "QP", "FPS", "Power (W)", "PSNR", "BW (MB/s)"], rows, "{:.2f}"))


def _cmd_fig4(args: argparse.Namespace) -> None:
    rows = fig4_scenario_one_sweep(
        num_frames=args.frames,
        warmup_videos=args.warmup_videos,
        power_cap_w=args.power_cap,
        seed=args.seed,
    )
    table = [[r.workload, r.controller, r.qos_violation_pct, r.power_w] for r in rows]
    print(format_table(["workload", "controller", "Δ (%)", "Power (W)"], table))


def _cmd_fig5(args: argparse.Namespace) -> None:
    trace = fig5_trace(
        sequence_name=args.sequence,
        num_frames=args.frames,
        power_cap_w=args.power_cap,
        seed=args.seed,
    )
    rows = [
        [int(frame), fps, qp, threads, freq]
        for frame, fps, qp, threads, freq in zip(
            trace["frame"], trace["fps"], trace["qp"], trace["threads"], trace["frequency_ghz"]
        )
    ][:: max(1, args.frames // 25)]
    print(format_table(["frame", "FPS", "QP", "threads", "freq (GHz)"], rows, "{:.2f}"))


def _cmd_table1(args: argparse.Namespace) -> None:
    rows = table1_threads_frequency(power_cap_w=args.power_cap, seed=args.seed)
    table = [[r.controller, r.resolution_class, r.mean_threads, r.mean_frequency_ghz] for r in rows]
    print(format_table(["controller", "class", "Nth", "Freq (GHz)"], table, "{:.2f}"))


def _cmd_table2(args: argparse.Namespace) -> None:
    rows = table2_scenario_two(
        mixes=_parse_mixes(args.mixes),
        frames_per_video=args.frames_per_video,
        warmup_videos=args.warmup_videos,
        power_cap_w=args.power_cap,
        seed=args.seed,
    )
    table = [
        [r.workload, r.controller, r.power_w, r.mean_threads, r.mean_fps, r.qos_violation_pct]
        for r in rows
    ]
    print(format_table(["mix", "controller", "Watts", "Nth", "FPS", "Δ (%)"], table))


def _cluster_traffic(args: argparse.Namespace):
    if args.traffic == "diurnal":
        return DiurnalTraffic(args.arrival_rate, amplitude=0.6, period=max(2, args.duration // 2))
    if args.traffic == "flash":
        # Baseline traffic with a 4x crowd in the middle fifth of the run
        # (FlashCrowdTraffic already emits the base rate outside the burst).
        return FlashCrowdTraffic(
            args.arrival_rate,
            peak_multiplier=4.0,
            start=2 * args.duration // 5,
            duration=max(1, args.duration // 5),
        )
    return PoissonTraffic(args.arrival_rate)


def _cluster_admission(args: argparse.Namespace):
    def capacity(max_queue: int) -> CapacityThreshold:
        return CapacityThreshold(
            max_sessions_per_server=args.max_sessions_per_server,
            max_queue=max_queue,
            brownout_extra_sessions=(
                args.brownout_extra_sessions if args.brownout else 0
            ),
        )

    queue_bound = args.max_queue
    if args.admission == "always":
        policy = AlwaysAdmit()
    elif args.admission == "power":
        policy = PowerHeadroom(max_queue=args.max_queue)
    elif args.admission == "class-aware":
        hr_queue = args.hr_max_queue if args.hr_max_queue is not None else args.max_queue
        lr_queue = args.lr_max_queue if args.lr_max_queue is not None else args.max_queue
        policy = ClassAwareAdmission(
            {
                ResolutionClass.HR: capacity(hr_queue),
                ResolutionClass.LR: capacity(lr_queue),
            }
        )
        queue_bound = max(hr_queue, lr_queue)
    else:
        policy = capacity(args.max_queue)
    if args.queue_while_warming:
        # The wrapper only matters if it tolerates a deeper backlog than
        # the wrapped policy (which already queues up to its own bound):
        # while servers warm, the queue may grow to twice the normal bound.
        policy = QueueWhileWarming(policy, max_queue=2 * queue_bound)
    return policy


def _cluster_slo(args: argparse.Namespace) -> tuple:
    """SLO objectives from the ``--slo-*`` flags (empty when none given)."""
    objectives = []
    if args.slo_queue_wait_p95 is not None:
        objectives.append(
            QueueWaitObjective(
                name="queue-wait-p95",
                max_steps=args.slo_queue_wait_p95,
                window_steps=args.slo_window,
                error_budget_pct=args.slo_budget,
            )
        )
    if args.slo_shed_rate is not None:
        objectives.append(
            ShedRateObjective(
                name="shed-rate",
                max_pct=args.slo_shed_rate,
                window_steps=args.slo_window,
                error_budget_pct=args.slo_budget,
            )
        )
    if args.slo_violation_rate is not None:
        objectives.append(
            ViolationRateObjective(
                name="qos-violation-rate",
                max_pct=args.slo_violation_rate,
                window_steps=args.slo_window,
                error_budget_pct=args.slo_budget,
            )
        )
    return tuple(objectives)


#: Parsed ``cluster`` arguments left out of the provenance ``config``
#: fingerprint of a --summary-out artifact; every other argument is in it,
#: so a new scenario flag is fingerprinted by default.  Left out: the
#: subcommand, output paths, profiling and verbosity (they don't shape
#: results), ``engine`` (the engines are seed-for-seed identical, so
#: cross-engine comparison is a legitimate gate), the ``--slo-*`` flags
#: (observe-only by contract) and the seeds (stamped as ``seed`` instead).
_UNFINGERPRINTED_KEYS = frozenset(
    {
        "command",
        "engine",
        "trace_out",
        "metrics_out",
        "summary_out",
        "profile",
        "slo_queue_wait_p95",
        "slo_shed_rate",
        "slo_violation_rate",
        "slo_window",
        "slo_budget",
        "log_level",
        "seed",
        "fault_seed",
    }
)


def _cmd_cluster(args: argparse.Namespace) -> None:
    admission = _cluster_admission(args)
    dispatcher = {
        "round-robin": RoundRobin,
        "least-loaded": LeastLoaded,
        "power-aware": PowerAware,
        "failure-aware": FailureAware,
    }[args.dispatch]()
    patience_by_class = {}
    if args.hr_patience is not None:
        patience_by_class[ResolutionClass.HR] = args.hr_patience
    if args.lr_patience is not None:
        patience_by_class[ResolutionClass.LR] = args.lr_patience
    workload = WorkloadGenerator(
        _cluster_traffic(args),
        seed=args.seed,
        hr_fraction=args.hr_fraction,
        playlist_videos=args.playlist_videos,
        frames_per_video=args.frames_per_video,
        patience_steps=args.patience,
        patience_by_class=patience_by_class or None,
    )
    brownout = None
    if args.brownout:
        # The relaxed request target flows into the MAMUT config through the
        # normal controller factory, so no separate degraded factory is
        # needed here.
        brownout = BrownoutController(
            sessions_per_server=args.max_sessions_per_server,
            fps_relax=args.brownout_fps_relax,
        )
    autoscaler = None
    if args.autoscale != "none":
        service_steps = args.frames_per_video * args.playlist_videos
        autoscaler = {
            "reactive": lambda: ReactiveThreshold(
                sessions_per_server=args.max_sessions_per_server
            ),
            "target-tracking": lambda: TargetTracking(),
            "predictive": lambda: PredictiveScaling(
                sessions_per_server=args.max_sessions_per_server,
                service_steps=service_steps,
            ),
        }[args.autoscale]()
    # Built even with every fault mode off, so invalid fault flags fail
    # before the run starts; the orchestrator drops a disabled config.
    faults = FaultConfig(
        crash_mtbf_steps=args.fault_mtbf,
        crash_mttr_steps=args.fault_mttr,
        straggler_mtbf_steps=args.fault_straggler_mtbf,
        straggler_duration_steps=args.fault_straggler_duration,
        warmup_failure_rate=args.fault_warmup_failure,
        max_retries=args.fault_retries,
        retry_backoff_steps=args.fault_backoff,
        seed=args.fault_seed,
        topology=FailureTopology(
            zones=args.fault_zones,
            racks_per_zone=args.fault_racks_per_zone,
            seed=args.fault_seed,
        ),
        zone_mtbf_steps=args.fault_zone_mtbf,
        zone_mttr_steps=args.fault_zone_mttr,
        kill_schedule=KillSchedule.parse(args.kill_zone) if args.kill_zone else None,
        checkpoint_interval_frames=args.checkpoint_interval,
    )
    cluster = ClusterOrchestrator(
        args.servers,
        workload,
        admission=admission,
        dispatcher=dispatcher,
        power_cap_w=args.power_cap,
        seed=args.seed,
        engine=args.engine,
        autoscaler=autoscaler,
        min_servers=args.min_servers,
        max_servers=args.max_servers,
        provision_warmup_steps=args.warmup_steps,
        brownout=brownout,
        faults=faults,
    )
    slo_objectives = _cluster_slo(args)
    telemetry = None
    if args.trace_out or args.metrics_out or args.profile or slo_objectives:
        telemetry = TelemetryConfig(
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            profile=args.profile,
            slo=slo_objectives,
        )
    summary = cluster.run(
        args.duration, drain=not args.no_drain, telemetry=telemetry
    ).summary()

    fleet_label = (
        f"{args.servers} servers"
        if autoscaler is None
        else f"{args.servers} servers ({args.autoscale} autoscaling)"
    )
    print(
        f"ClusterSummary: {fleet_label}, {args.traffic} traffic "
        f"@ {args.arrival_rate}/step, {args.admission} admission, "
        f"{args.dispatch} dispatch"
    )
    rows = [
        ["steps (incl. drain)", summary.steps],
        ["arrivals", summary.arrivals],
        ["admitted sessions", summary.admitted],
        ["rejected", summary.rejected],
        ["dropped (patience)", summary.dropped],
        ["abandoned in queue", summary.abandoned],
        ["rejection rate (%)", 100.0 * summary.rejection_rate],
        ["shed rate (%)", 100.0 * summary.shed_rate],
        ["mean queue wait (steps)", summary.mean_queue_wait_steps],
        ["mean active sessions", summary.mean_active_sessions],
        ["fleet power (W)", summary.fleet_mean_power_w],
        ["fleet energy (kJ)", summary.fleet_energy_j / 1000.0],
        ["watts per session", summary.watts_per_session],
        ["mean FPS", summary.mean_fps],
        ["QoS violations (Δ, %)", summary.qos_violation_pct],
    ]
    if brownout is not None:
        rows += [
            ["brownout steps", summary.brownout_steps],
            ["degraded sessions", summary.degraded_sessions],
        ]
    if faults.enabled:
        rows += [
            ["server crashes", summary.server_crashes],
            ["stragglers", summary.stragglers],
            ["warm-up failures", summary.warmup_failures],
            ["sessions retried", summary.retried],
            ["requests failed", summary.failed],
            ["mean healthy servers", summary.mean_healthy_servers],
            ["zone outages", summary.failed_domains],
            ["mean available domains", summary.mean_available_domains],
            ["recomputed frames", summary.recomputed_frames],
            ["checkpoint writes", summary.checkpoint_writes],
            ["checkpoint energy (J)", summary.checkpoint_energy_j],
        ]
    if autoscaler is not None:
        rows += [
            ["mean fleet size", summary.mean_fleet_size],
            ["peak fleet size", summary.peak_fleet_size],
            ["scale-up events", summary.scale_up_events],
            ["scale-down events", summary.scale_down_events],
            ["servers added / removed",
             f"{summary.servers_added} / {summary.servers_removed}"],
            ["scaling-transient steps", summary.transient_steps],
            ["transient queue length", summary.transient_mean_queue_length],
            ["transient QoS (Δ, %)", summary.transient_qos_violation_pct],
        ]
    print(format_table(["metric", "value"], rows, float_format="{:.2f}"))
    print()
    print(
        format_table(
            ["server", "sessions", "frames", "util (%)", "power (W)", "Δ (%)"],
            [
                [
                    f"srv-{server.server_index}",
                    server.sessions_served,
                    server.frames,
                    100.0 * server.utilization,
                    server.mean_power_w,
                    server.qos_violation_pct,
                ]
                for server in summary.servers
            ],
            float_format="{:.1f}",
        )
    )
    slo_report = cluster.telemetry.slo.report() if cluster.telemetry.slo else []
    if slo_report:
        print()
        print("SLO report:")
        print(
            format_table(
                ["objective", "target", "breach steps", "budget used (%)",
                 "max burn", "worst", "verdict"],
                [
                    [
                        row["name"],
                        row["objective"],
                        f"{row['breach_steps']}/{row['steps']}",
                        row["budget_consumed_pct"],
                        row["max_burn_rate"],
                        row["worst_value"],
                        "OK" if row["healthy"] else "BREACHED",
                    ]
                    for row in slo_report
                ],
                float_format="{:.2f}",
            )
        )
    if telemetry is not None:
        _print_telemetry(cluster.telemetry)
    if args.summary_out:
        artifact = {"summary": summary.to_dict()}
        if slo_report:
            artifact["slo"] = slo_report
        seeds = {"seed": args.seed}
        if faults.enabled:
            seeds["fault_seed"] = args.fault_seed
        stamp_provenance(
            artifact,
            kind="cluster",
            seed=seeds,
            config={
                key: value
                for key, value in vars(args).items()
                if key not in _UNFINGERPRINTED_KEYS
            },
        )
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nSummary artifact -> {args.summary_out}")


def _print_telemetry(telemetry) -> None:
    """Print the run's telemetry section (trace/metrics paths, profile)."""
    info = telemetry.summary()
    print()
    print("Telemetry:")
    if "trace_events" in info:
        path = f" -> {info['trace_path']}" if "trace_path" in info else ""
        print(f"  trace: {info['trace_events']} spans{path}")
    if "metrics" in info:
        path = f" -> {info['metrics_path']}" if "metrics_path" in info else ""
        print(f"  metrics: {info['metrics']} instruments{path}")
    if "profile" in info:
        profile = info["profile"]
        print(
            f"  profile: {profile['steps']} steps, "
            f"{profile['steps_per_s']:.1f} steps/s over "
            f"{profile['instrumented_s']:.3f}s instrumented"
        )
        print(
            format_table(
                ["phase", "total (s)", "calls", "share (%)"],
                [
                    [
                        row["name"],
                        row["total_s"],
                        row["calls"],
                        100.0 * row["share"],
                    ]
                    for row in profile["phases"]
                ],
                float_format="{:.3f}",
            )
        )


def _stats_row(label: str, stats) -> list:
    return [label, stats.count, stats.mean, stats.p50, stats.p95, stats.p99, stats.max]


def _load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    analysis = analyze_trace(args.trace)
    print(
        f"Trace report: {args.trace} — {analysis.span_count} spans, "
        f"{analysis.arrivals} requests, {analysis.steps + 1} steps"
    )
    counts = analysis.terminal_counts()
    print()
    print(
        format_table(
            ["outcome", "requests"],
            [[kind, counts[kind]] for kind in
             ("served", "rejected", "dropped", "abandoned", "failed")]
            + [["retried (re-dispatches)", analysis.retried],
               ["interrupted (crashes)", analysis.interrupted]],
        )
    )
    print()
    print("Latency breakdown (steps):")
    print(
        format_table(
            ["population", "n", "mean", "p50", "p95", "p99", "max"],
            [
                _stats_row("queue wait", analysis.wait_stats()),
                _stats_row("service (dispatch->done)", analysis.service_stats()),
                _stats_row("end-to-end (arrival->done)", analysis.end_to_end_stats()),
                _stats_row("retry overhead", analysis.retry_overhead_stats()),
            ],
            float_format="{:.2f}",
        )
    )
    by_class = analysis.wait_stats_by_class()
    if by_class:
        print()
        print("Queue wait by service class:")
        print(
            format_table(
                ["class", "n", "mean", "p50", "p95", "p99", "max"],
                [_stats_row(cls, stats) for cls, stats in by_class.items()],
                float_format="{:.2f}",
            )
        )
    by_server = analysis.wait_stats_by_server()
    if by_server:
        print()
        print("Queue wait by first-dispatch server:")
        print(
            format_table(
                ["server", "n", "mean", "p50", "p95", "p99", "max"],
                [
                    _stats_row(f"srv-{server}", stats)
                    for server, stats in by_server.items()
                ],
                float_format="{:.2f}",
            )
        )
    if analysis.fault_events:
        print()
        print("Fault timeline:")
        print(
            format_table(
                ["step", "server", "fault"],
                [
                    [event.get("step"), event.get("request"), event.get("fault")]
                    for event in analysis.fault_events
                ],
            )
        )
    if analysis.slo_breaches:
        print()
        print("SLO breaches (entries):")
        print(
            format_table(
                ["step", "slo", "value", "threshold", "burn rate"],
                [
                    [
                        span.get("step"),
                        span.get("slo"),
                        span.get("value"),
                        span.get("threshold"),
                        span.get("burn_rate"),
                    ]
                    for span in analysis.slo_breaches
                ],
                float_format="{:.2f}",
            )
        )
    failures = list(analysis.errors)
    if args.summary:
        artifact = _load_artifact(args.summary)
        summary = ClusterSummary.from_dict(artifact.get("summary", artifact))
        mismatches = analysis.reconcile(summary)
        print()
        if mismatches:
            print(f"Reconciliation against {args.summary}: MISMATCH")
            for mismatch in mismatches:
                print(f"  - {mismatch}")
            failures.extend(mismatches)
        else:
            print(f"Reconciliation against {args.summary}: OK")
    elif failures:
        print()
        print("Lifecycle errors:")
        for error in failures:
            print(f"  - {error}")
    return 1 if failures else 0


def _numeric_leaves(node, prefix: str = "") -> dict[str, object]:
    """Flatten nested dicts/lists to dotted-path leaves (skips provenance)."""
    leaves: dict[str, object] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if prefix == "" and key == "provenance":
                continue
            leaves.update(_numeric_leaves(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            leaves.update(_numeric_leaves(value, f"{prefix}{index}."))
    else:
        leaves[prefix[:-1]] = node
    return leaves


def _leaf_regression(base, cand, rel_tol: float, abs_tol: float):
    """None when within tolerance, else a short description of the drift."""
    numeric = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if numeric(base) and numeric(cand):
        delta = abs(cand - base)
        if delta <= abs_tol or delta <= rel_tol * abs(base):
            return None
        return f"{base!r} -> {cand!r}"
    if base != cand:
        return f"{base!r} -> {cand!r}"
    return None


def _cmd_obs_compare(args: argparse.Namespace) -> int:
    baseline = _load_artifact(args.baseline)
    candidate = _load_artifact(args.candidate)
    refusals, warnings = provenance_mismatches(baseline, candidate)
    for warning in warnings:
        print(f"warning: {warning}")
    if refusals:
        for refusal in refusals:
            print(f"not comparable: {refusal}")
        if not args.force:
            print("refusing to diff (pass --force to compare anyway)")
            return 2
        print("--force: diffing despite provenance mismatch")
    base_leaves = _numeric_leaves(baseline)
    cand_leaves = _numeric_leaves(candidate)
    ignored = lambda path: any(
        fnmatch.fnmatch(path, pattern) for pattern in args.ignore
    )
    regressions = []
    for path in sorted(set(base_leaves) | set(cand_leaves)):
        if ignored(path):
            continue
        if path not in base_leaves:
            regressions.append([path, "only in candidate"])
        elif path not in cand_leaves:
            regressions.append([path, "only in baseline"])
        else:
            drift = _leaf_regression(
                base_leaves[path], cand_leaves[path], args.rel_tol, args.abs_tol
            )
            if drift is not None:
                regressions.append([path, drift])
    compared = sum(1 for path in base_leaves if not ignored(path))
    if regressions:
        print(f"REGRESSION: {len(regressions)} of {compared} metrics drifted "
              f"beyond tolerance (rel {args.rel_tol}, abs {args.abs_tol})")
        print(format_table(["metric", "drift"], regressions))
        return 1
    print(f"OK: {compared} metrics within tolerance "
          f"({args.baseline} vs {args.candidate})")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    return {"report": _cmd_obs_report, "compare": _cmd_obs_compare}[
        args.obs_command
    ](args)


_COMMANDS = {
    "quickstart": _cmd_quickstart,
    "compare": _cmd_compare,
    "fig2": _cmd_fig2,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "cluster": _cmd_cluster,
    "obs": _cmd_obs,
    "lint": lint_command,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Command handlers may return an int exit code (the ``obs`` family does:
    1 = regression/reconciliation failure, 2 = artifacts not comparable);
    ``None`` means success.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    code = _COMMANDS[args.command](args)
    return int(code) if code else 0


if __name__ == "__main__":
    sys.exit(main())
