"""``repro lint`` — static enforcement of the repo's determinism invariants.

Rule-based static analysis (AST visitors plus an import-graph pass) that
turns the reproduction's runtime-tested contracts into parse-time errors:

* **RNG discipline** (RNG101-103): every random draw from a seeded stream,
  no wall-clock/OS entropy in simulation code.
* **Layering** (LAY001-002): the declared layer DAG — telemetry cannot
  reach the engines it observes, device/video models cannot depend on the
  fleet machinery above them.
* **Scalar/batch parity** (PAR101-103): ``foo``/``foo_batch`` entry-point
  pairs keep shared parameters and transcendental backends in sync, and no
  ``repro`` module sums with the builtin ``sum()``, whose float result
  changed in Python 3.12.
* **Telemetry purity** (TEL101): observe/record/emit code paths never
  assign into the objects they are handed.

Run it as ``repro-mamut lint src tests`` (or ``python -m repro.lint``);
silence an individual finding with ``# repro: allow[CODE]`` on or above
the flagged line.
"""

from repro.lint.base import LintModule, Rule, module_name_for_path
from repro.lint.findings import Finding, parse_suppressions
from repro.lint.rules_layering import LAYER_DAG
from repro.lint.runner import (
    add_lint_arguments,
    all_rules,
    lint_command,
    lint_paths,
    main,
    run_lint,
)

__all__ = [
    "Finding",
    "LAYER_DAG",
    "LintModule",
    "Rule",
    "add_lint_arguments",
    "all_rules",
    "lint_command",
    "lint_paths",
    "main",
    "module_name_for_path",
    "parse_suppressions",
    "run_lint",
]
