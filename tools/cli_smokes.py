#!/usr/bin/env python3
"""The command-line smokes: seeded ``cluster`` runs and the ``obs`` gates on them.

Usage::

    python3 tools/cli_smokes.py OUTDIR

Runs the ``repro`` command line of this checkout with ``OUTDIR`` (made if
missing) as the working directory, so every artifact lands there under the
name CI uploads:

``crash``
    Crash salvage, straggler throttles, retries, failures and a flash
    crowd's brownout on an autoscaled fleet, on both stepping engines
    (``crash_batch.json``, ``crash_scalar.json`` and their traces).  The
    batch trace must reconcile with its ledger (``obs report`` exits 0) and
    the engines must agree on every metric (``obs compare`` exits 0).
``telemetry``
    Tracing, metrics and the profiler on one run: ``trace.jsonl`` and
    ``metrics.prom`` must be non-empty, and every trace line must parse as
    JSON.
``observability``
    One seeded scenario with three SLO objectives, run twice (``obs_a``,
    ``obs_b``): the trace must reconcile and the two summaries must compare
    clean (exit 0).  A run on a smaller fleet (``obs_degraded``): ``obs
    compare`` must refuse the mismatched config fingerprint (exit 2), and
    with ``--force`` must report the regression (exit 1).
``zonal``
    A pinned zone kill, MTBF-drawn zone outages and checkpointed retries
    under failure-aware dispatch, on both engines (``chaos_batch.json``,
    ``chaos_scalar.json`` and their traces): the engines must agree (exit
    0) and the batch trace must reconcile.

Every summary, trace and metrics file is a pure function of the seeds, so
two checkouts that should behave alike write identical directories (the
profiler's timings go to standard output only).

Exit status: 0 when every command exits as expected and every file check
holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _crash(engine: str, name: str) -> list[str]:
    return (
        "cluster --servers 3 --traffic flash --arrival-rate 0.5 --duration 60 "
        "--frames-per-video 10 --seed 3 --brownout "
        "--fault-mtbf 30 --fault-straggler-mtbf 80 --fault-seed 7 "
        "--autoscale reactive --max-servers 6 "
        f"--engine {engine} --summary-out {name}.json --trace-out {name}_trace.jsonl"
    ).split()


def _observed(servers: int, name: str) -> list[str]:
    return (
        f"cluster --servers {servers} --traffic flash --arrival-rate 0.5 "
        "--duration 50 --frames-per-video 12 --seed 5 "
        "--slo-queue-wait-p95 6 --slo-shed-rate 10 --slo-violation-rate 25 "
        f"--summary-out {name}.json --trace-out {name}_trace.jsonl"
    ).split()


def _zonal(engine: str, name: str) -> list[str]:
    return (
        "cluster --servers 6 --arrival-rate 0.6 --duration 40 "
        "--frames-per-video 12 --seed 3 --dispatch failure-aware "
        "--fault-zones 3 --fault-racks-per-zone 2 "
        "--kill-zone 1:6:8 --fault-zone-mtbf 60 --fault-seed 7 "
        "--checkpoint-interval 4 "
        f"--engine {engine} --summary-out {name}.json --trace-out {name}_trace.jsonl"
    ).split()


#: (``repro`` arguments, the exit status they must give), in the order run.
COMMANDS: list[tuple[list[str], int]] = [
    (_crash("batch", "crash_batch"), 0),
    (_crash("scalar", "crash_scalar"), 0),
    ("obs report crash_batch_trace.jsonl --summary crash_batch.json".split(), 0),
    ("obs compare crash_batch.json crash_scalar.json".split(), 0),
    (
        "cluster --servers 2 --traffic flash --arrival-rate 0.4 --duration 40 "
        "--frames-per-video 12 --seed 1 "
        "--trace-out trace.jsonl --metrics-out metrics.prom --profile".split(),
        0,
    ),
    (_observed(3, "obs_a"), 0),
    (_observed(3, "obs_b"), 0),
    ("obs report obs_a_trace.jsonl --summary obs_a.json".split(), 0),
    ("obs compare obs_a.json obs_b.json".split(), 0),
    (_observed(2, "obs_degraded"), 0),
    ("obs compare obs_a.json obs_degraded.json".split(), 2),
    ("obs compare obs_a.json obs_degraded.json --force".split(), 1),
    (_zonal("batch", "chaos_batch"), 0),
    (_zonal("scalar", "chaos_scalar"), 0),
    ("obs compare chaos_batch.json chaos_scalar.json".split(), 0),
    ("obs report chaos_batch_trace.jsonl --summary chaos_batch.json".split(), 0),
]


def _telemetry_file_problems(outdir: Path) -> list[str]:
    """What is wrong with the telemetry smoke's trace and metrics files."""
    problems = []
    for name in ("trace.jsonl", "metrics.prom"):
        path = outdir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} is missing or empty")
    try:
        with open(outdir / "trace.jsonl", encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)
    except (OSError, ValueError) as error:
        problems.append(f"trace.jsonl does not parse: {error}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, help="where the artifacts are written")
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    failures = []
    for args, expected in COMMANDS:
        print(f"+ repro {' '.join(args)}", flush=True)
        status = subprocess.run(
            [sys.executable, "-m", "repro.cli", *args], cwd=outdir, env=env
        ).returncode
        if status != expected:
            failures.append(f"repro {' '.join(args)}: exit {status}, want {expected}")
    failures += _telemetry_file_problems(outdir)
    print(f"failed checks: {failures}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
