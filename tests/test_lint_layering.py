"""Layering rules: LAY001 (DAG violation), LAY002 (undeclared layer)."""

from __future__ import annotations

from lint_fixtures import codes_of, lint_snippet
from repro.lint import LAYER_DAG
from repro.lint.rules_layering import layer_chain, layer_of


class TestLayerDag:
    def test_dag_is_acyclic(self):
        # The declared DAG must actually be one (sub-layers count as
        # distinct nodes; containment is resolved at edge-check time).
        order: list[str] = []
        visiting: set[str] = set()

        def visit(layer: str) -> None:
            if layer in order:
                return
            assert layer not in visiting, f"cycle through {layer}"
            visiting.add(layer)
            for dep in LAYER_DAG[layer]:
                visit(dep)
            visiting.discard(layer)
            order.append(layer)

        for layer in LAYER_DAG:
            visit(layer)
        assert set(order) == set(LAYER_DAG)

    def test_observe_only_and_model_independence_invariants(self):
        # The two contracts the ISSUE names, stated directly on the DAG.
        for forbidden in ("cluster", "manager", "core"):
            assert forbidden not in LAYER_DAG["telemetry"]
        for device_layer in ("hevc", "platform", "video"):
            for forbidden in ("cluster", "manager"):
                assert forbidden not in LAYER_DAG[device_layer]

    def test_layer_resolution(self):
        assert layer_of("repro.cluster.batch") == "cluster"
        assert layer_of("repro.metrics.records") == "metrics.records"
        assert layer_of("repro.metrics.aggregate") == "metrics"
        assert layer_of("repro.video.sequence") == "video.sequence"
        assert layer_of("repro") == "root"
        assert layer_chain("repro.video.sequence") == ["video.sequence", "video"]


class TestLayerViolation:
    def test_telemetry_importing_cluster_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/telemetry/mod.py",
            """
            from repro.cluster.cluster import ClusterOrchestrator
            """,
        )
        assert codes_of(findings) == ["LAY001"]

    def test_video_importing_manager_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/video/mod.py",
            """
            import repro.manager.session
            """,
        )
        assert codes_of(findings) == ["LAY001"]

    def test_lazy_import_of_forbidden_edge_still_flagged(self, tmp_path):
        # Function scope is no escape hatch.
        findings = lint_snippet(
            tmp_path,
            "repro/telemetry/mod.py",
            """
            def reach_in():
                from repro.cluster.cluster import ClusterOrchestrator
                return ClusterOrchestrator
            """,
        )
        assert codes_of(findings) == ["LAY001"]

    def test_manager_importing_cluster_flagged_in_either_scope(self, tmp_path):
        lazy = lint_snippet(
            tmp_path,
            "repro/manager/mod.py",
            """
            def wire():
                from repro.cluster.batch import BatchStepper
                return BatchStepper
            """,
        )
        assert codes_of(lazy) == ["LAY001"]
        module_scope = lint_snippet(
            tmp_path,
            "repro/manager/mod2.py",
            """
            from repro.cluster.batch import BatchStepper
            """,
        )
        assert codes_of(module_scope) == ["LAY001"]

    def test_sublayer_containment_satisfies_parent_grant(self, tmp_path):
        # cluster is granted 'video', which contains 'video.sequence'.
        findings = lint_snippet(
            tmp_path,
            "repro/cluster/mod.py",
            """
            from repro.video.sequence import ResolutionClass
            """,
        )
        assert findings == []

    def test_sublayer_cannot_import_upward_into_its_parent(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/video/sequence.py",
            """
            from repro.video.buffer import PlaybackBuffer
            """,
        )
        assert codes_of(findings) == ["LAY001"]

    def test_suppression(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/telemetry/mod.py",
            """
            from repro.cluster.cluster import ClusterOrchestrator  # repro: allow[LAY001]
            """,
        )
        assert findings == []


class TestUndeclaredLayer:
    def test_new_top_level_layer_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/federation/mod.py",
            """
            VERSION = 1
            """,
        )
        assert codes_of(findings) == ["LAY002"]

    def test_declared_layers_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/telemetry/mod.py",
            """
            from repro.metrics.aggregate import linear_percentile
            """,
        )
        assert findings == []
