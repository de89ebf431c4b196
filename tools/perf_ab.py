#!/usr/bin/env python3
"""A/B timing of two checkouts with the end-to-end benchmark.

Usage::

    python3 tools/perf_ab.py PARENT CHANGE --workload saturated_long \\
        [--seed 0] [--pairs 10] [--seconds 30]

``PARENT`` and ``CHANGE`` are the roots of two checkouts of this
repository.  The script

1. clears every ``__pycache__`` directory in both trees and precompiles
   each tree's ``src`` and ``perfbench`` (a tree whose sources changed
   after its last compile would otherwise recompile them in every worker
   process when ``PYTHONDONTWRITEBYTECODE`` is set, and read slower);
2. runs ``--pairs`` pairs of ``python3 perfbench/run.py --workload W
   --seed S --seconds T``, one run per tree, alternating which tree goes
   first, and stops at the first run that prints ``"correct": false``;
3. prints, for each end-to-end metric that ``BENCHMARK.json`` names (read
   from ``CHANGE``, never written), each side's median and quartiles, the
   parent's interquartile range and how many pairs the change won (a tie
   counts for neither side);
4. reports whether the claim rule holds: the change wins at least 90% of
   the pairs (9 of 10), and its median beats the parent's by more than the
   parent's interquartile range.

Quartiles are linearly interpolated (``statistics.quantiles`` with
``method="inclusive"``).  Exit status: 0 when the runs were correct, 1 when
a run was not.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

#: Share of pairs the change must win for a claim.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values``, linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which ``change`` beat ``parent`` (``better`` is "lower" or "higher")."""
    if better == "lower":
        return sum(c < p for p, c in zip(parent, change))
    return sum(c > p for p, c in zip(parent, change))


def claim_holds(parent: list[float], change: list[float], better: str) -> bool:
    """The claim rule: enough won pairs, and a median gap beyond the parent's IQR."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    gap = parent_median - change_median if better == "lower" else change_median - parent_median
    return wins(parent, change, better) >= WIN_SHARE * len(parent) and gap > q3 - q1


def report(
    parent_runs: list[dict], change_runs: list[dict], metrics: list[dict]
) -> list[str]:
    """One line per end-to-end metric, plus the header."""
    lines = [
        f"{'metric':<20} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
        f"{'parent IQR':>11} {'wins':>6}  claim"
    ]
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [run[name]["value"] for run in parent_runs]
        change = [run[name]["value"] for run in change_runs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        lines.append(
            f"{name:<20} {p1:>10.4g} {pm:>10.4g} {p3:>10.4g} "
            f"{c1:>10.4g} {cm:>10.4g} {c3:>10.4g} {p3 - p1:>11.4g} "
            f"{wins(parent, change, better):>3}/{len(parent):<2}  "
            f"{'holds' if claim_holds(parent, change, better) else 'no'}"
        )
    return lines


def _prepare(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        if ".git" not in cache.parts:
            shutil.rmtree(cache)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=tree,
        env=env,
        check=True,
    )


def _run(tree: Path, args: argparse.Namespace) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
        ],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    for tree in trees.values():
        _prepare(tree)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(trees[side], args)
            if not result.get("correct"):
                print(f"pair {pair + 1}: {side} run was not correct; stopping")
                return 1
            runs[side].append(result["metrics"])
            wall = result["metrics"]["wall_s"]["value"]
            print(f"pair {pair + 1}/{args.pairs} {side:<6} wall_s={wall:.4f}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s")
    for line in report(runs["parent"], runs["change"], benchmark["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
