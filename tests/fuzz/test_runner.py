"""Sweep behaviour: clean runs, error capture, and fault injection.

The injection tests are the subsystem's own acceptance check: break a
section-4.3 bound on purpose and the differential runner must notice,
and the shrinker must reduce the failure to a tiny reproducer.
"""

import pytest

import repro.indexes.kernels as kernels_module
from repro.fuzz.cases import INDEX_NAMES, generate_spec
from repro.fuzz.runner import run_case, run_fuzz, run_spec
from repro.fuzz.shrink import regression_snippet, shrink_case


class TestCleanSweep:
    def test_one_rotation_is_clean(self):
        report = run_fuzz(0, len(INDEX_NAMES))
        assert report.covered_indexes == list(INDEX_NAMES)
        assert report.failures == [], report.summary()
        assert "failures=0" in report.summary()

    def test_fail_fast_stops_after_first_failure(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "slack", lambda value: -0.05)
        report = run_fuzz(0, 48, fail_fast=True)
        assert len(report.failures) == 1
        assert report.results[-1] is report.failures[0]

    def test_on_case_observes_every_result(self):
        seen = []
        run_fuzz(0, 3, on_case=seen.append)
        assert [r.name for r in seen] == [
            f"seed0-case{i:04d}" for i in range(3)
        ]


class TestErrorCapture:
    def test_checker_exception_becomes_discrepancy(self, monkeypatch):
        import repro.fuzz.runner as runner_module

        def boom(case):
            raise RuntimeError("synthetic checker crash")

        monkeypatch.setattr(runner_module, "check_differential", boom)
        case = generate_spec(0, 0).concretize()
        findings = runner_module.run_case(case)
        assert any(f.check == "error:differential" for f in findings)
        assert any("synthetic checker crash" in f.detail for f in findings)


@pytest.fixture
def broken_vpt_bound(monkeypatch):
    """An off-by-one in the kernels' section-4.3 pruning comparison.

    Negative slack makes the frontier's threshold comparison over-prune
    borderline nodes and leaf points — the canary bug the differential
    runner must catch.  The frontier is the one search loop of the
    VP/MVP/GMVP trees, so this is the modern equivalent of breaking
    ``definitely_greater`` in the old recursive traversal.
    """
    monkeypatch.setattr(kernels_module, "slack", lambda value: -0.05)


class TestInjection:
    def test_broken_bound_is_detected(self, broken_vpt_bound):
        report = run_fuzz(0, 48)
        assert report.failures, "fuzzer missed an injected pruning bug"
        kinds = {d.check for d in report.discrepancies}
        assert kinds & {"range-differential", "knn-differential"} or any(
            k.startswith("relation:") for k in kinds
        )

    def test_shrinker_produces_small_reproducer(self, broken_vpt_bound):
        failing = next(
            result
            for spec in (generate_spec(0, i) for i in range(48))
            for result in [run_spec(spec)]
            if not result.ok
        )
        case = failing.spec.concretize()
        shrunk = shrink_case(case, rename=f"{case.name}-shrunk")
        assert len(shrunk.objects) <= 16
        assert run_case(shrunk), "shrunk case no longer reproduces"
        assert shrunk.name.endswith("-shrunk")

    def test_regression_snippet_is_valid_python(self, broken_vpt_bound):
        failing = next(
            run_spec(generate_spec(0, i))
            for i in range(48)
            if not run_spec(generate_spec(0, i)).ok
        )
        case = shrink_case(failing.spec.concretize())
        snippet = regression_snippet(case, "entry.json")
        compile(snippet, "<snippet>", "exec")
        assert "run_case" in snippet and "load_entry" in snippet
