#!/usr/bin/env python3
"""Whole runs of the benchmark workloads checked against their pinned digests.

Usage::

    python3 tools/digest_gates.py scalar
    python3 tools/digest_gates.py sweep

``scalar``
    One full-size round of each workload at the two pinned seeds, 0 and
    the held-out 1009, on the scalar engine.  The pins in
    ``perfbench/pinned.json`` were made with the scalar engine, the oracle
    (``perfbench/run.py`` checks the batch engine only), so this checks
    that its own session, idle and activation paths still reproduce them.

``sweep``
    ``elastic_chaos``, ``steady_churn`` and ``saturated_long`` at every
    pinned seed, in process, on the batch engine.  ``elastic_chaos`` is the
    only workload whose crashes reach session salvage (learned state
    copied into a retry's controller), and it builds a new stepper on most
    fleet changes; ``steady_churn`` changes its roster on most steps inside
    one stepper; ``saturated_long`` holds the most ``MamutBatch`` rows in
    one roster (256 rows for 240 steps).  Together they run the carried
    lanes and rows on every path.  Each round must

    - give its pinned summary digest;
    - build no ``FrameRecord`` (the batch engine keeps frames as ledger
      columns; a counter wraps ``FrameRecord.__init__``);
    - on ``steady_churn`` and ``saturated_long``, which drain every
      admitted session and recompute no frame, draw no more content frames
      than its summary serves (a video draws its content when a session
      first reads it; a counter wraps ``ContentModel.columns``);
    - build at most one ``ClusterSnapshot`` per step (the autoscaler derives
      its own from the last one admission saw; counters wrap
      ``ClusterOrchestrator.snapshot`` and ``ClusterOrchestrator._step``);
    - read exactly one ``MamutBatch.row`` per ``MamutController`` built (a
      controller's row is fixed for its life and carried from roster to
      roster and from stepper to stepper).

    It takes about three minutes.

Exit status: 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import collections
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The benchmark package and the simulator it runs, from this checkout.
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: The workloads both gates run, in order.
WORKLOADS = ("elastic_chaos", "steady_churn", "saturated_long")
#: The seeds the scalar gate runs; 1009 is the pinned held-out seed.
SCALAR_SEEDS = (0, 1009)


def _pins() -> dict:
    with open(ROOT / "perfbench" / "pinned.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def scalar_gate() -> bool:
    """One scalar-engine round per workload and seed; whether all match their pins."""
    from perfbench.rounds import plain_round

    pins = _pins()
    failed = []
    for seed in SCALAR_SEEDS:
        for workload in WORKLOADS:
            digest = plain_round(workload, seed, engine="scalar")["digest"]
            ok = digest == pins[workload]["digests"][str(seed)]
            print(f"{workload} seed {seed}: {'OK' if ok else 'MISMATCH ' + digest}")
            if not ok:
                failed.append((workload, seed))
    print(f"mismatches: {failed}")
    return not failed


def _count_calls(counts: collections.Counter, owner, name: str, key: str, weight=None) -> None:
    """Wrap ``owner.name`` so every call adds 1 (or ``weight(*args)``) to ``counts[key]``."""
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1 if weight is None else weight(*args, **kwargs)
        return method(*args, **kwargs)

    setattr(owner, name, counted)


def sweep_gate() -> bool:
    """Every pinned seed of every workload; whether every round passes."""
    from perfbench.rounds import plain_round
    from repro.cluster.cluster import ClusterOrchestrator
    from repro.core.mamut import MamutBatch, MamutController
    from repro.metrics.records import FrameRecord
    from repro.video.content import ContentModel

    counts: collections.Counter = collections.Counter()
    _count_calls(counts, FrameRecord, "__init__", "records")
    _count_calls(counts, ContentModel, "columns", "drawn", lambda model, frames: frames)
    _count_calls(counts, ClusterOrchestrator, "snapshot", "snapshots")
    _count_calls(counts, MamutBatch, "row", "rows")
    _count_calls(counts, MamutController, "__init__", "controllers")
    step = ClusterOrchestrator._step

    def counted_step(cluster, *args, **kwargs):
        before = counts["snapshots"]
        step(cluster, *args, **kwargs)
        counts["crowded"] += counts["snapshots"] - before > 1

    ClusterOrchestrator._step = counted_step

    pins = _pins()
    failures = collections.defaultdict(list)
    for workload in WORKLOADS:
        digests = pins[workload]["digests"]
        for seed in sorted(digests, key=int):
            counts.clear()
            outcome = plain_round(workload, int(seed))
            digest = outcome["digest"]
            ok = digest == digests[seed]
            print(
                f"{workload} seed {seed}: {'OK' if ok else 'MISMATCH ' + digest}, "
                f"FrameRecords built {counts['records']}, "
                f"content frames drawn {counts['drawn']}, served {outcome['frames']}, "
                f"steps building more than one snapshot {counts['crowded']}, "
                f"MamutBatch rows read {counts['rows']} for "
                f"{counts['controllers']} MamutControllers built"
            )
            round_id = (workload, seed)
            if not ok:
                failures["digest mismatches"].append(round_id)
            if counts["records"]:
                failures["FrameRecords built"].append(round_id)
            if workload != "elastic_chaos" and counts["drawn"] > outcome["frames"]:
                failures["unserved content drawn"].append(round_id)
            if counts["crowded"]:
                failures["two snapshots in a step"].append(round_id)
            if counts["rows"] != counts["controllers"]:
                failures["rows read unlike controllers built"].append(round_id)
    print(f"failed rounds: {dict(failures)}")
    return not failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("gate", choices=("scalar", "sweep"))
    args = parser.parse_args(argv)
    passed = scalar_gate() if args.gate == "scalar" else sweep_gate()
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
