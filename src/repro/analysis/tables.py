"""Regeneration of the paper's comparison figures/tables.

* **Fig. 4** — ΔQoS and power for the heuristic, mono-agent and MAMUT
  controllers over the Scenario I workloads (1HR..5HR and 1LR..8LR).
* **Table I** — average threads and frequency per controller for HR and LR
  videos (Scenario I).
* **Table II** — average Watts / threads / FPS / Δ per controller for the
  Scenario II video mixes (1HR1LR .. 3HR3LR).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.constants import DEFAULT_POWER_CAP_W
from repro.manager.factories import (
    ControllerFactory,
    heuristic_factory,
    mamut_factory,
    monoagent_factory,
)
from repro.manager.runner import ExperimentRunner
from repro.manager.scenario import scenario_one, scenario_two

__all__ = [
    "Fig4Row",
    "Table1Row",
    "Table2Row",
    "default_factories",
    "fig4_scenario_one_sweep",
    "table1_threads_frequency",
    "table2_scenario_two",
]


@dataclasses.dataclass(frozen=True)
class Fig4Row:
    """ΔQoS and power of one controller on one Scenario I workload."""

    workload: str
    controller: str
    qos_violation_pct: float
    power_w: float


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """Average threads and frequency of one controller for one resolution class."""

    controller: str
    resolution_class: str
    mean_threads: float
    mean_frequency_ghz: float


@dataclasses.dataclass(frozen=True)
class Table2Row:
    """One (mix, controller) cell group of the paper's Table II."""

    workload: str
    controller: str
    power_w: float
    mean_threads: float
    mean_fps: float
    qos_violation_pct: float


def default_factories(power_cap_w: float = DEFAULT_POWER_CAP_W) -> dict[str, ControllerFactory]:
    """The paper's three comparison points: heuristic, mono-agent, MAMUT."""
    return {
        "Heuristic": heuristic_factory(power_cap_w),
        "MonoAgent": monoagent_factory(power_cap_w),
        "MAMUT": mamut_factory(power_cap_w),
    }


def fig4_scenario_one_sweep(
    hr_counts: Sequence[int] = (1, 2, 3, 4, 5),
    lr_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    factories: Mapping[str, ControllerFactory] | None = None,
    num_frames: int = 240,
    repetitions: int = 1,
    power_cap_w: float = DEFAULT_POWER_CAP_W,
    seed: int = 0,
    warmup_videos: int = 2,
) -> list[Fig4Row]:
    """ΔQoS and power over the Scenario I workloads (paper Fig. 4).

    ``hr_counts`` produces the xHR workloads (HR videos only) and
    ``lr_counts`` the xLR workloads (LR videos only), as in the figure.
    """
    factories = dict(factories) if factories is not None else default_factories(power_cap_w)
    runner = ExperimentRunner(power_cap_w=power_cap_w, seed=seed)
    rows: list[Fig4Row] = []

    workloads: list[tuple[str, int, int]] = [
        (f"{count}HR", count, 0) for count in hr_counts
    ] + [(f"{count}LR", 0, count) for count in lr_counts]

    for label, num_hr, num_lr in workloads:
        specs = scenario_one(num_hr, num_lr, num_frames=num_frames, seed=seed)
        results = runner.compare(
            factories, specs, repetitions=repetitions, warmup_videos=warmup_videos
        )
        for controller, result in results.items():
            rows.append(
                Fig4Row(
                    workload=label,
                    controller=controller,
                    qos_violation_pct=result.qos_violation_pct,
                    power_w=result.mean_power_w,
                )
            )
    return rows


def table1_threads_frequency(
    factories: Mapping[str, ControllerFactory] | None = None,
    num_hr: int = 2,
    num_lr: int = 2,
    num_frames: int = 240,
    repetitions: int = 1,
    power_cap_w: float = DEFAULT_POWER_CAP_W,
    seed: int = 0,
    warmup_videos: int = 2,
) -> list[Table1Row]:
    """Average threads and frequency per controller and resolution class (Table I)."""
    factories = dict(factories) if factories is not None else default_factories(power_cap_w)
    runner = ExperimentRunner(power_cap_w=power_cap_w, seed=seed)
    specs = scenario_one(num_hr, num_lr, num_frames=num_frames, seed=seed)
    results = runner.compare(
        factories, specs, repetitions=repetitions, warmup_videos=warmup_videos
    )

    rows: list[Table1Row] = []
    for controller, result in results.items():
        for resolution_class in ("HR", "LR"):
            if resolution_class not in result.per_class_threads:
                continue
            rows.append(
                Table1Row(
                    controller=controller,
                    resolution_class=resolution_class,
                    mean_threads=result.per_class_threads[resolution_class],
                    mean_frequency_ghz=result.per_class_frequency_ghz[resolution_class],
                )
            )
    return rows


def table2_scenario_two(
    mixes: Sequence[tuple[int, int]] = (
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (2, 3),
        (2, 4),
        (3, 1),
        (3, 2),
        (3, 3),
    ),
    factories: Mapping[str, ControllerFactory] | None = None,
    followers: int = 4,
    frames_per_video: int = 120,
    repetitions: int = 1,
    power_cap_w: float = DEFAULT_POWER_CAP_W,
    seed: int = 0,
    warmup_videos: int = 4,
) -> list[Table2Row]:
    """Scenario II averages per video mix and controller (paper Table II).

    ``mixes`` lists the (num_HR, num_LR) combinations of the table's rows.
    """
    factories = dict(factories) if factories is not None else default_factories(power_cap_w)
    runner = ExperimentRunner(power_cap_w=power_cap_w, seed=seed)
    rows: list[Table2Row] = []

    for num_hr, num_lr in mixes:
        label = f"{num_hr}HR{num_lr}LR"
        specs = scenario_two(
            num_hr,
            num_lr,
            followers=followers,
            frames_per_video=frames_per_video,
            seed=seed,
        )
        results = runner.compare(
            factories, specs, repetitions=repetitions, warmup_videos=warmup_videos
        )
        for controller, result in results.items():
            rows.append(
                Table2Row(
                    workload=label,
                    controller=controller,
                    power_w=result.mean_power_w,
                    mean_threads=result.mean_threads,
                    mean_fps=result.mean_fps,
                    qos_violation_pct=result.qos_violation_pct,
                )
            )
    return rows
