"""Scalar/batch parity rules: PAR101 (parameter drift), PAR102
(math/numpy transcendental backend mix — the ULP-divergence class), PAR103
(builtin ``sum()``, whose float result changed in Python 3.12)."""

from __future__ import annotations

from lint_fixtures import codes_of, lint_snippet


class TestParityParameterDrift:
    def test_default_drift_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            def gain(x, relax=0.5):
                return x * relax

            def gain_batch(x, relax=0.75):
                return x * relax
            """,
        )
        assert codes_of(findings) == ["PAR101"]

    def test_shared_name_order_drift_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            def cost(frame, wpp=True, frequency_ghz=1.3):
                return frame

            def cost_batch(frames, frequency_ghz=1.3, wpp=True):
                return frames
            """,
        )
        assert codes_of(findings) == ["PAR101"]

    def test_method_pair_inside_class_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            class Model:
                def total(self, qp, wpp=True):
                    return qp

                def total_batch(self, qps, wpp=False):
                    return qps
            """,
        )
        assert codes_of(findings) == ["PAR101"]

    def test_matching_pair_passes(self, tmp_path):
        # Scalar takes objects, batch takes exploded arrays: only the
        # *shared* names (and their defaults/order) must agree.
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            def total(frame, config, wpp=True, frequency_ghz=1.3):
                return frame

            def total_batch(frames, qps, wpp=True, frequency_ghz=1.3):
                return frames
            """,
        )
        assert findings == []

    def test_batch_without_scalar_counterpart_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            def project_batch(frames, wpp=True):
                return frames
            """,
        )
        assert findings == []

    def test_suppression(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            def gain(x, relax=0.5):
                return x * relax

            def gain_batch(x, relax=0.75):  # repro: allow[PAR101]
                return x * relax
            """,
        )
        assert findings == []


class TestParityMathBackendMix:
    def test_math_vs_numpy_exp_flagged(self, tmp_path):
        # The exact ULP class fixed in the vectorised-engine PR:
        # math.exp on the scalar path vs np.exp on the batch path.
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            import math

            import numpy as np

            def decay(x):
                return math.exp(x)

            def decay_batch(xs):
                return np.exp(xs)
            """,
        )
        assert codes_of(findings) == ["PAR102"]

    def test_transitive_helper_mix_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            import math

            import numpy as np

            def _scalar_kernel(x):
                return math.log(x)

            def rate(x):
                return _scalar_kernel(x)

            def rate_batch(xs):
                return np.log(xs)
            """,
        )
        assert codes_of(findings) == ["PAR102"]

    def test_shared_backend_on_both_sides_passes(self, tmp_path):
        # A shared math.exp table feeding both paths is *agreement*:
        # both sides use the same libm kernel, so no ULP split exists.
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            import math

            import numpy as np

            def _qp_factor(qp):
                return math.exp(qp / 6.0)

            def total(qp):
                return _qp_factor(qp)

            def total_batch(qps):
                return np.asarray([_qp_factor(qp) for qp in qps])
            """,
        )
        assert findings == []

    def test_non_transcendental_numpy_use_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            import math

            import numpy as np

            def span(x):
                return math.floor(x)

            def span_batch(xs):
                return np.asarray(xs).sum()
            """,
        )
        assert findings == []

    def test_numpy_spelling_normalised(self, tmp_path):
        # math.pow vs np.power are the same transcendental under two
        # spellings; the rule must still see the split.
        findings = lint_snippet(
            tmp_path,
            "repro/hevc/mod.py",
            """
            import math

            import numpy as np

            def amp(x, k):
                return math.pow(x, k)

            def amp_batch(xs, k):
                return np.power(xs, k)
            """,
        )
        assert codes_of(findings) == ["PAR102"]


class TestBuiltinSum:
    def test_float_and_int_sums_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/mod.py",
            """
            def mean(values):
                return sum(values) / len(values)

            def count(records):
                return sum(1 for record in records if record)
            """,
        )
        assert codes_of(findings) == ["PAR103", "PAR103"]

    def test_ordered_sum_and_array_sums_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/mod.py",
            """
            import numpy as np

            from repro.numeric import ordered_sum

            def total(values, array):
                return ordered_sum(values) + np.sum(array) + array.sum()
            """,
        )
        assert findings == []

    def test_numeric_module_and_non_repro_files_exempt(self, tmp_path):
        source = """
            def total(values):
                return sum(values)
            """
        assert lint_snippet(tmp_path, "repro/numeric.py", source) == []
        assert lint_snippet(tmp_path, "bench.py", source) == []

    def test_imported_sum_is_not_the_builtin(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/metrics/mod.py",
            """
            from numpy import sum

            def total(values):
                return sum(values)
            """,
        )
        assert findings == []
