"""Scalar/batch parity rules over ``foo`` / ``foo_batch`` entry-point pairs.

The batch engine's seed-for-seed equivalence rests on every model exposing
a scalar entry point and a ``*_batch`` counterpart that evaluate the same
arithmetic.  Two drift classes have bitten before:

* a default changing on one side only (the pair silently diverges for
  callers who rely on the default), and
* the PR 5 ULP class — the scalar path evaluating a transcendental
  through ``math.exp`` while the batch path goes through ``np.exp``,
  whose SIMD kernels may differ in the last ULP.

A third is the interpreter's: Python 3.12's builtin ``sum()`` adds floats
with compensation, so a sum can give another double there than on 3.10/3.11.
All three are now parse-time findings:

* **PAR101** — parameter drift: a name shared by the pair appears in a
  different relative order, or with a different default, on the two sides
  (the batch side may explode object parameters into extra arrays; only
  the *shared* names must agree).
* **PAR102** — transcendental backend mix: one side of a pair reaches a
  ``math.<fn>`` the other side evaluates as ``np.<fn>``.  Calls are
  collected transitively through same-module helpers, so the blessed
  idiom — both paths reading one shared table built with ``math`` — passes,
  and a batch side that evaluates the function elementwise through
  ``math`` (e.g. ``RewardFunction.total_batch``) counts as agreement.
* **PAR103** — a builtin ``sum()`` call in a ``repro`` module other than
  :mod:`repro.numeric`, whose ``ordered_sum`` adds left to right on every
  version (and returns the same int for ints, so no call is exempt).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.base import LintModule, Rule
from repro.lint.findings import Finding

__all__ = ["BuiltinSum", "ParityParameterDrift", "ParityMathBackendMix"]

_BATCH_SUFFIX = "_batch"

#: Transcendental function names whose math/np kernels may disagree in the
#: last ULP.  numpy spellings are normalised onto the math ones.
_TRANSCENDENTALS = frozenset(
    {
        "exp",
        "expm1",
        "log",
        "log1p",
        "log2",
        "log10",
        "sqrt",
        "cbrt",
        "pow",
        "hypot",
        "sin",
        "cos",
        "tan",
        "asin",
        "acos",
        "atan",
        "atan2",
        "sinh",
        "cosh",
        "tanh",
    }
)
_NUMPY_SPELLINGS = {
    "power": "pow",
    "arcsin": "asin",
    "arccos": "acos",
    "arctan": "atan",
    "arctan2": "atan2",
}


def _params(fn: ast.FunctionDef) -> list[tuple[str, Optional[str]]]:
    """``(name, default-AST-dump-or-None)`` per parameter, self/cls excluded."""
    args = fn.args
    ordered = [*args.posonlyargs, *args.args]
    defaults: list[Optional[ast.expr]] = [None] * (
        len(ordered) - len(args.defaults)
    ) + list(args.defaults)
    entries = list(zip(ordered, defaults))
    entries += list(zip(args.kwonlyargs, args.kw_defaults))
    out = []
    for arg, default in entries:
        if arg.arg in ("self", "cls"):
            continue
        out.append((arg.arg, ast.dump(default) if default is not None else None))
    return out


def _scopes(module: LintModule) -> Iterable[tuple[str, dict[str, ast.FunctionDef]]]:
    """Function maps per pairing scope: module top level and each class."""
    top: dict[str, ast.FunctionDef] = {}
    for child in ast.iter_child_nodes(module.tree):
        if isinstance(child, ast.FunctionDef):
            top[child.name] = child
    yield "module", top
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            methods = {
                child.name: child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.FunctionDef)
            }
            yield node.name, methods


def _pairs(module: LintModule):
    scopes = list(_scopes(module))
    top = dict(scopes[0][1])
    for scope_name, functions in scopes:
        # Helpers resolve against the class's methods first, then the
        # module's top-level functions (for PAR102's transitive walk).
        resolution = {**top, **functions}
        for name, fn in functions.items():
            if not name.endswith(_BATCH_SUFFIX):
                continue
            scalar = functions.get(name[: -len(_BATCH_SUFFIX)])
            if scalar is not None:
                yield scope_name, resolution, scalar, fn


class ParityParameterDrift(Rule):
    code = "PAR101"
    name = "parity-parameter-drift"
    description = (
        "A parameter name shared by a scalar entry point and its *_batch "
        "counterpart differs in relative order or default value between "
        "the two sides."
    )

    def check(self, module: LintModule) -> list[Finding]:
        findings = []
        for scope, _functions, scalar, batch in _pairs(module):
            scalar_params = dict(_params(scalar))
            batch_params = dict(_params(batch))
            shared = set(scalar_params) & set(batch_params)
            if not shared:
                continue
            label = f"{scope}.{scalar.name}" if scope != "module" else scalar.name
            scalar_order = [n for n, _ in _params(scalar) if n in shared]
            batch_order = [n for n, _ in _params(batch) if n in shared]
            if scalar_order != batch_order:
                findings.append(
                    self.finding(
                        module,
                        batch,
                        f"{label}: shared parameters ordered "
                        f"{scalar_order} in the scalar entry point but "
                        f"{batch_order} in {batch.name}",
                    )
                )
            for name in scalar_order:
                if scalar_params[name] != batch_params[name]:
                    findings.append(
                        self.finding(
                            module,
                            batch,
                            f"{label}: parameter '{name}' default differs "
                            f"between {scalar.name} and {batch.name}",
                        )
                    )
        return findings


def _called_names(fn: ast.FunctionDef) -> set[str]:
    """Local helper names this function calls: bare f(), self.f(), Cls.f()."""
    names = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute):
            names.add(func.attr)
    return names


def _backend_calls(module: LintModule, fn: ast.FunctionDef) -> tuple[set, set]:
    """Transcendental names this function calls via math / via numpy."""
    math_fns: set[str] = set()
    np_fns: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        target = module.resolve_dotted(node.func)
        if target is None:
            continue
        root, _, attr = target.rpartition(".")
        attr = _NUMPY_SPELLINGS.get(attr, attr)
        if attr not in _TRANSCENDENTALS:
            continue
        if root == "math":
            math_fns.add(attr)
        elif root == "numpy":
            np_fns.add(attr)
    return math_fns, np_fns


def _transitive_backends(
    module: LintModule,
    fn: ast.FunctionDef,
    functions: dict[str, ast.FunctionDef],
) -> tuple[set, set]:
    """Backend call sets including same-scope helpers, transitively."""
    math_fns: set[str] = set()
    np_fns: set[str] = set()
    seen: set[str] = set()
    frontier = [fn]
    while frontier:
        current = frontier.pop()
        if current.name in seen:
            continue
        seen.add(current.name)
        direct_math, direct_np = _backend_calls(module, current)
        math_fns |= direct_math
        np_fns |= direct_np
        for name in _called_names(current):
            helper = functions.get(name)
            if helper is not None and helper.name not in seen:
                frontier.append(helper)
    return math_fns, np_fns


class ParityMathBackendMix(Rule):
    code = "PAR102"
    name = "parity-math-backend-mix"
    description = (
        "One side of a scalar/*_batch pair evaluates a transcendental via "
        "math.<fn> while the other uses np.<fn>; their kernels may differ "
        "in the last ULP, breaking bitwise scalar/batch equivalence."
    )

    def check(self, module: LintModule) -> list[Finding]:
        findings = []
        for scope, functions, scalar, batch in _pairs(module):
            scalar_math, scalar_np = _transitive_backends(
                module, scalar, functions
            )
            batch_math, batch_np = _transitive_backends(module, batch, functions)
            label = f"{scope}.{scalar.name}" if scope != "module" else scalar.name
            # A function is in agreement when the other side also touches
            # the same backend for that name (shared table / exact path).
            mixed = (scalar_math & batch_np) - (batch_math | scalar_np)
            mixed |= (scalar_np & batch_math) - (scalar_math | batch_np)
            for name in sorted(mixed):
                findings.append(
                    self.finding(
                        module,
                        batch,
                        f"{label}: '{name}' is evaluated through math on "
                        f"one side of the pair and numpy on the other "
                        "(ULP-divergence risk)",
                    )
                )
        return findings


class BuiltinSum(Rule):
    code = "PAR103"
    name = "builtin-sum"
    description = (
        "A builtin sum() call in a repro module: Python 3.12's compensated "
        "float sum() gives other doubles than 3.10/3.11's; use "
        "repro.numeric.ordered_sum."
    )

    def check(self, module: LintModule) -> list[Finding]:
        # An imported ``sum`` is not the builtin.
        if module.module in (None, "repro.numeric") or "sum" in module.aliases:
            return []
        return [
            self.finding(module, node, "builtin sum(); use repro.numeric.ordered_sum")
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
        ]
