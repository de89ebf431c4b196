"""Layering rules: the package dependency DAG, enforced at parse time.

The repo's subsystems are layered so that the observe-only and
swap-anything contracts hold *by construction*: telemetry can never reach
into the engines it observes, the device/video models can never grow a
dependency on the fleet machinery that drives them.  The DAG below is the
single declared source of truth; an import edge not listed here fails the
lint even if Python would happily execute it.

* **LAY001** — import that violates the declared layer DAG.
* **LAY002** — module in a top-level layer the DAG does not declare
  (forces new subsystems to state their place in the stack).

Layers are the top-level modules under ``repro`` (``repro.cluster`` ->
layer ``cluster``; ``constants``, ``errors`` and ``numeric`` are the
dependency-free bottom), with three finer splits at the bottom of the stack:
``video.content`` and ``video.sequence`` (the leaf content/sequence
models) and ``metrics.records`` (the shared measurement dataclasses).
Those sub-layers are what make the video <-> metrics package pair acyclic
at lint granularity: records sits *above* ``video.sequence`` but *below*
the rest of ``video``.  A sub-layer is contained in its parent — an edge
onto ``video.sequence`` is satisfied by ``video`` appearing in the
importer's allowed set.

An import is checked wherever it appears: a function-scoped import obeys
the same DAG as a module-scoped one.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.base import LintModule, Rule
from repro.lint.findings import Finding

__all__ = ["LAYER_DAG", "LayerViolation", "UndeclaredLayer"]

#: layer -> layers it may import from (its own layer is always allowed).
LAYER_DAG: dict[str, frozenset[str]] = {
    "constants": frozenset(),
    "errors": frozenset(),
    "numeric": frozenset(),
    "video.content": frozenset({"constants", "errors", "numeric"}),
    "video.sequence": frozenset({"constants", "errors", "numeric", "video.content"}),
    "metrics.records": frozenset({"constants", "errors", "numeric", "video.sequence"}),
    "video": frozenset({"constants", "errors", "numeric", "metrics.records"}),
    "metrics": frozenset({"constants", "errors", "numeric", "metrics.records", "video"}),
    "platform": frozenset({"constants", "errors", "numeric", "metrics.records"}),
    "hevc": frozenset({"constants", "errors", "numeric", "video"}),
    "telemetry": frozenset({"constants", "errors", "numeric", "metrics", "metrics.records"}),
    "core": frozenset({"constants", "errors", "numeric", "video", "platform"}),
    "baselines": frozenset({"constants", "errors", "numeric", "core", "platform", "video"}),
    "manager": frozenset(
        {
            "constants",
            "errors",
            "numeric",
            "core",
            "baselines",
            "video",
            "platform",
            "hevc",
            "metrics",
            "metrics.records",
            "telemetry",
        }
    ),
    "cluster": frozenset(
        {
            "constants",
            "errors",
            "numeric",
            "core",
            "manager",
            "video",
            "platform",
            "hevc",
            "metrics",
            "metrics.records",
            "telemetry",
            "baselines",
        }
    ),
    "analysis": frozenset(
        {
            "constants",
            "errors",
            "numeric",
            "video",
            "metrics",
            "metrics.records",
            "platform",
            "hevc",
            "telemetry",
            "core",
            "baselines",
            "manager",
            "cluster",
        }
    ),
    "lint": frozenset({"errors"}),
    # Application surface: may wire everything together.
    "cli": frozenset(),  # filled below
    "root": frozenset(),  # repro/__init__.py re-exports
}
_ALL_LAYERS = frozenset(LAYER_DAG)
LAYER_DAG["cli"] = _ALL_LAYERS - {"cli", "root"}
LAYER_DAG["root"] = _ALL_LAYERS - {"root"}


def layer_chain(module_name: str) -> list[str]:
    """Matching layers for a dotted ``repro`` module, most specific first.

    ``repro.video.sequence`` -> ``["video.sequence", "video"]`` while
    ``repro.metrics.aggregate`` -> ``["metrics"]``; an undeclared
    top-level package yields its bare name (LAY002's trigger).
    """
    if module_name == "repro":
        return ["root"]
    if not module_name.startswith("repro."):
        return []
    tail = module_name[len("repro."):]
    chain = sorted(
        (
            layer
            for layer in LAYER_DAG
            if tail == layer or tail.startswith(layer + ".")
        ),
        key=len,
        reverse=True,
    )
    return chain or [tail.split(".")[0]]


def layer_of(module_name: str) -> Optional[str]:
    """Most specific layer of a dotted ``repro`` module name."""
    chain = layer_chain(module_name)
    return chain[0] if chain else None


def _imported_repro_modules(tree: ast.Module):
    """Yield ``(node, dotted repro module)`` pairs, in any scope."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == "repro" or name.name.startswith("repro."):
                    yield node, name.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module == "repro" or node.module.startswith("repro."):
                yield node, node.module


class LayerViolation(Rule):
    code = "LAY001"
    name = "layer-violation"
    description = (
        "Import edge not allowed by the declared layer DAG (e.g. telemetry "
        "importing cluster/manager/core, or hevc/platform/video importing "
        "the fleet layers)."
    )

    def check(self, module: LintModule) -> list[Finding]:
        if module.module is None:
            return []
        source_layer = layer_of(module.module)
        if source_layer is None or source_layer not in LAYER_DAG:
            return []  # undeclared layers are LAY002's finding
        allowed = LAYER_DAG[source_layer]
        findings = []
        for node, imported in _imported_repro_modules(module.tree):
            target_chain = layer_chain(imported)
            if not target_chain:
                continue
            # Contained in the importer's own layer family, or satisfied
            # by any (sub-)layer of the target being declared allowed.
            if source_layer in target_chain:
                continue
            if any(target in allowed for target in target_chain):
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    f"layer '{source_layer}' may not import layer "
                    f"'{target_chain[0]}' ({imported}); declared deps: "
                    f"{sorted(allowed) or 'none'}",
                )
            )
        return findings


class UndeclaredLayer(Rule):
    code = "LAY002"
    name = "undeclared-layer"
    description = (
        "Module lives in a top-level repro layer the DAG does not declare; "
        "add the new layer (and its allowed dependencies) to "
        "repro/lint/rules_layering.py."
    )

    def check(self, module: LintModule) -> list[Finding]:
        if module.module is None:
            return []
        layer = layer_of(module.module)
        if layer is None or layer in LAYER_DAG:
            return []
        return [
            self.finding(
                module,
                module.tree,
                f"layer '{layer}' is not declared in the layer DAG",
            )
        ]
