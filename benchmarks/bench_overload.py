"""Overload control on a flash crowd: shed load vs. degrade quality.

Not a paper figure — this is the overload experiment the brownout subsystem
exists for.  A fixed two-server fleet is hit by the same flash crowd (base
traffic multiplied mid-run) under three control configurations, from
identical seeds:

* ``reject`` — classic capacity admission with a shallow queue: overload is
  answered by turning users away at the door;
* ``patient-queue`` — a deep queue plus per-request patience deadlines:
  users wait, and the ones who wait too long are *dropped* (shed after
  queueing, the costliest kind of rejection);
* ``brownout`` — the same deep queue and patience, plus a
  :class:`~repro.cluster.brownout.BrownoutController`: under sustained
  pressure the fleet serves new sessions degraded (higher QP, relaxed FPS
  target) while capacity admission unlocks extra session slots, so every
  user is served instead of shed.

The headline claim (pinned by ``tests/test_cluster_overload.py``): on the
flash crowd the brownout configuration serves every arriving request — 0
rejected, 0 dropped, 0 abandoned — where both no-brownout baselines shed
load; the price is paid in quality (lower PSNR, more FPS violations), which
is the rejected-vs-degraded frontier the results table shows.

Results are written to ``BENCH_overload.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_overload.py          # full
    PYTHONPATH=src python benchmarks/bench_overload.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
from pathlib import Path

from repro.cluster import (
    BrownoutController,
    CapacityThreshold,
    ClusterOrchestrator,
    FlashCrowdTraffic,
    WorkloadGenerator,
)
from repro.manager.factories import static_factory
from repro.metrics.report import format_table
from repro.numeric import ordered_sum
from repro.telemetry import LOG_LEVELS, configure_logging, stamp_provenance

_LOG = logging.getLogger("repro.benchmarks.overload")

SERVERS = 2
SESSIONS_PER_SERVER = 4
SEED = 0

#: Normal-operation encode configuration (matches the autoscale benchmark).
NORMAL_QP, NORMAL_THREADS = 32, 4
#: Brownout configuration: higher QP (faster, lower PSNR), fewer threads
#: (more sessions fit on the cores before contention bites).
DEGRADED_QP, DEGRADED_THREADS = 40, 2


def _scenario(smoke: bool) -> dict:
    if smoke:
        return {
            "traffic": lambda: FlashCrowdTraffic(
                0.25, peak_multiplier=6.0, start=10, duration=10
            ),
            "duration": 35,
            "frames_per_video": 12,
            "patience": 8,
            "max_queue": 48,
            "shallow_queue": 4,
            "brownout_extra_sessions": 10,
        }
    return {
        "traffic": lambda: FlashCrowdTraffic(
            0.25, peak_multiplier=6.0, start=40, duration=25
        ),
        "duration": 100,
        "frames_per_video": 16,
        "patience": 10,
        "max_queue": 64,
        "shallow_queue": 6,
        "brownout_extra_sessions": 10,
    }


def _run_config(scenario: dict, *, max_queue: int, patience, brownout) -> dict:
    workload = WorkloadGenerator(
        scenario["traffic"](),
        seed=SEED,
        frames_per_video=scenario["frames_per_video"],
        patience_steps=patience,
    )
    extra = scenario["brownout_extra_sessions"] if brownout is not None else 0
    cluster = ClusterOrchestrator(
        SERVERS,
        workload,
        admission=CapacityThreshold(
            max_sessions_per_server=SESSIONS_PER_SERVER,
            max_queue=max_queue,
            brownout_extra_sessions=extra,
        ),
        controller_factory=static_factory(
            qp=NORMAL_QP, threads=NORMAL_THREADS, frequency_ghz=3.2
        ),
        seed=SEED,
        brownout=brownout,
    )
    result = cluster.run(scenario["duration"])
    summary = result.summary()
    records = [
        record
        for server in result.records_by_server
        for session in server.values()
        for record in session
    ]
    out = summary.to_dict()
    # Derived metric the summary does not carry; from_dict ignores it.
    out["mean_psnr_db"] = (
        ordered_sum(r.psnr_db for r in records) / len(records) if records else 0.0
    )
    return out


def make_brownout() -> BrownoutController:
    return BrownoutController(
        sessions_per_server=SESSIONS_PER_SERVER,
        enter_queue_per_server=2.0,
        exit_queue_per_server=0.25,
        enter_steps=2,
        exit_steps=6,
        fps_relax=0.75,
        degraded_factory=static_factory(
            qp=DEGRADED_QP, threads=DEGRADED_THREADS, frequency_ghz=3.2
        ),
    )


def run_benchmark(smoke: bool) -> dict:
    scenario = _scenario(smoke)
    configs = {
        "reject": dict(
            max_queue=scenario["shallow_queue"], patience=None, brownout=None
        ),
        "patient-queue": dict(
            max_queue=scenario["max_queue"],
            patience=scenario["patience"],
            brownout=None,
        ),
        "brownout": dict(
            max_queue=scenario["max_queue"],
            patience=scenario["patience"],
            brownout=make_brownout(),
        ),
    }
    results = {
        label: _run_config(scenario, **config) for label, config in configs.items()
    }

    _LOG.info("=== flash crowd, fixed fleet, three overload-control configs ===")
    _LOG.info(
        format_table(
            [
                "config",
                "rejected",
                "dropped",
                "abandoned",
                "degraded",
                "Δ (%)",
                "PSNR (dB)",
                "energy (kJ)",
            ],
            [
                [
                    label,
                    r["rejected"],
                    r["dropped"],
                    r["abandoned"],
                    r["degraded_sessions"],
                    r["qos_violation_pct"],
                    r["mean_psnr_db"],
                    r["fleet_energy_j"] / 1000.0,
                ]
                for label, r in results.items()
            ],
            float_format="{:.2f}",
        )
    )

    scenario_dict = {
        "duration": scenario["duration"],
        "frames_per_video": scenario["frames_per_video"],
        "patience": scenario["patience"],
        "brownout_extra_sessions": scenario["brownout_extra_sessions"],
    }
    return stamp_provenance(
        {
            "benchmark": "overload",
            "servers": SERVERS,
            "sessions_per_server": SESSIONS_PER_SERVER,
            "seed": SEED,
            "smoke": smoke,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "scenario": scenario_dict,
            "configs": results,
        },
        kind="overload",
        seed=SEED,
        config={
            "servers": SERVERS,
            "sessions_per_server": SESSIONS_PER_SERVER,
            "smoke": smoke,
            "scenario": scenario_dict,
        },
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one tiny scenario: a fast CI canary for the overload path",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_overload.json",
        help="where to write the JSON results",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="verbosity of the repro logger",
    )
    args = parser.parse_args()
    configure_logging(args.log_level)

    payload = run_benchmark(args.smoke)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    _LOG.info(f"\nwrote {args.output}")

    # The acceptance claim (also pinned by tests/test_cluster_overload.py):
    # brownout serves everyone where both baselines shed load.
    results = payload["configs"]
    brownout = results["brownout"]
    assert brownout["rejected"] == 0, brownout
    assert brownout["dropped"] == 0, brownout
    assert brownout["abandoned"] == 0, brownout
    assert brownout["degraded_sessions"] > 0 and brownout["brownout_steps"] > 0
    for label in ("reject", "patient-queue"):
        shed = (
            results[label]["rejected"]
            + results[label]["dropped"]
            + results[label]["abandoned"]
        )
        assert shed > 0, f"{label} should shed load on the flash crowd"
    # The price of serving everyone is quality, not power.
    assert brownout["mean_psnr_db"] < results["patient-queue"]["mean_psnr_db"]
    _LOG.info("overload acceptance claims hold")


if __name__ == "__main__":
    main()
