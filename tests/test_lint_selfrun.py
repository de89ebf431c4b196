"""The lint gate applied to this repository itself, plus the CLI surface.

The strongest acceptance test for a repo-specific linter is reflexive:
the tree it ships in must be clean, and a seeded violation in a scratch
copy of a real module must be caught (the same proof the CI mutation
gate runs in bash).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import all_rules, lint_paths, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"


class TestSelfRun:
    def test_src_tree_is_clean(self):
        findings, errors = lint_paths([str(SRC)])
        assert errors == []
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_tests_tree_is_clean(self):
        findings, errors = lint_paths([str(TESTS)])
        assert errors == []
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_rule_has_unique_code_and_description(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert len(codes) == len(set(codes))
        assert codes == sorted(codes) or True  # order is reporting order
        for rule in rules:
            assert rule.code and rule.name and rule.description

    @pytest.mark.parametrize(
        ("code", "relative", "payload"),
        [
            (
                "RNG101",
                "repro/cluster/workload.py",
                "\ndef _mut_jitter():\n    return float(np.random.normal())\n",
            ),
            (
                "RNG102",
                "repro/cluster/workload.py",
                "\ndef _mut_stream():\n    return np.random.default_rng()\n",
            ),
            (
                "RNG103",
                "repro/cluster/workload.py",
                "\nimport time as _mut_time\n\n"
                "def _mut_now():\n    return _mut_time.time()\n",
            ),
            (
                "LAY001",
                "repro/telemetry/metrics.py",
                "\nfrom repro.cluster.cluster import ClusterOrchestrator\n",
            ),
            (
                "LAY002",
                "repro/flux.py",
                '"""A new top-level layer the DAG does not declare."""\n',
            ),
            (
                "PAR101",
                "repro/hevc/wpp.py",
                "\nclass _MutModel:\n"
                "    def gain(self, x, relax=0.5):\n"
                "        return x * relax\n\n"
                "    def gain_batch(self, x, relax=0.75):\n"
                "        return x * relax\n",
            ),
            (
                "PAR102",
                "repro/hevc/wpp.py",
                "\nclass _MutUlp:\n"
                "    def decay(self, x):\n"
                "        return math.exp(x)\n\n"
                "    def decay_batch(self, x):\n"
                "        return np.exp(x)\n",
            ),
            (
                "PAR103",
                "repro/cluster/state.py",
                "\ndef _mut_mean(values):\n    return sum(values) / len(values)\n",
            ),
            (
                "TEL101",
                "repro/telemetry/trace.py",
                "\nclass _MutHook:\n"
                "    def observe_sample(self, sample):\n"
                "        sample.dirty = True\n",
            ),
        ],
    )
    def test_seeded_violation_in_scratch_copy_is_caught(
        self, tmp_path, code, relative, payload
    ):
        # Mirror of the CI mutation proof-gate, runnable offline.
        scratch = tmp_path / "src"
        shutil.copytree(SRC, scratch)
        target = scratch / relative
        if target.exists():
            target.write_text(
                target.read_text(encoding="utf-8") + payload, encoding="utf-8"
            )
        else:
            target.write_text(payload, encoding="utf-8")
        findings, errors = lint_paths([str(scratch)])
        assert errors == []
        assert code in {f.code for f in findings}


class TestCliSurface:
    def test_repro_cli_lint_clean_exits_zero(self, capsys):
        assert cli_main(["lint", str(SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_format_parses(self, capsys):
        assert cli_main(["lint", str(SRC), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"count": 0, "findings": []}

    def test_list_rules_names_every_code(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "RNG101",
            "RNG102",
            "RNG103",
            "LAY001",
            "LAY002",
            "PAR101",
            "PAR102",
            "TEL101",
        ):
            assert code in out

    def test_unknown_rule_code_is_usage_error(self, capsys):
        assert cli_main(["lint", str(SRC), "--select", "NOPE999"]) == 2
        assert "unknown rule code" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert cli_main(["lint", "does-not-exist-anywhere"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        assert run_lint([str(bad)]) == 2

    def test_findings_exit_one_and_select_filters(self, tmp_path, capsys):
        snippet = tmp_path / "repro" / "cluster"
        snippet.mkdir(parents=True)
        mod = snippet / "mod.py"
        mod.write_text(
            "import numpy as np\n\nNOISE = np.random.rand(4)\n",
            encoding="utf-8",
        )
        assert cli_main(["lint", str(mod)]) == 1
        assert "RNG101" in capsys.readouterr().out
        # Selecting an unrelated rule must not see the RNG finding.
        assert cli_main(["lint", str(mod), "--select", "LAY001"]) == 0
        capsys.readouterr()
