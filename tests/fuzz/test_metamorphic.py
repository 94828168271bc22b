"""Metamorphic relations: clean on correct indexes, sharp on broken ones."""

import pytest

import repro.indexes.kernels as kernels_module
from repro.fuzz.cases import generate_spec
from repro.fuzz.metamorphic import (
    RELATIONS,
    check_duplicate,
    check_knn_prefix,
    check_monotonicity,
    check_permutation,
    check_relations,
    check_scaling,
)


def _case_for(index_name, seed=0, limit=60):
    for case_index in range(limit):
        case = generate_spec(seed, case_index).concretize()
        if case.index == index_name:
            return case
    raise AssertionError(f"no {index_name} case in the first {limit}")


class TestRelationsPassOnCorrectIndexes:
    @pytest.mark.parametrize(
        "relation",
        [
            check_monotonicity,
            check_knn_prefix,
            check_permutation,
            check_duplicate,
            check_scaling,
        ],
    )
    @pytest.mark.parametrize("index_name", ["vpt", "gnat", "dynamic", "bkt"])
    def test_relation_clean(self, relation, index_name):
        case = _case_for(index_name)
        findings = relation(case)
        assert findings == [], [f.format() for f in findings]

    def test_scaling_clean_on_transform(self):
        # Transform scaling is restricted to >= 1 factors (contraction).
        findings = check_scaling(_case_for("transform"))
        assert findings == [], [f.format() for f in findings]


class TestRegistry:
    def test_registry_names(self):
        assert set(RELATIONS) == {
            "monotonicity",
            "knn_prefix",
            "permutation",
            "duplicate",
            "scaling",
        }

    def test_unknown_relation_is_reported(self):
        from dataclasses import replace

        case = replace(generate_spec(0, 0).concretize(), relations=["bogus"])
        findings = check_relations(case)
        assert [f.check for f in findings] == ["relation:unknown"]

    def test_check_relations_runs_named_subset(self):
        from dataclasses import replace

        case = replace(
            generate_spec(0, 1).concretize(), relations=["monotonicity"]
        )
        assert check_relations(case) == []


class TestRelationsCatchBrokenBound:
    def test_some_relation_fires_on_injected_bug(self, monkeypatch):
        monkeypatch.setattr(kernels_module, "slack", lambda value: -0.05)
        # Relations alone (no oracle) must still expose the broken bound
        # on at least one vpt case of the first rotation sweep.
        failed = []
        for case_index in range(48):
            case = generate_spec(0, case_index).concretize()
            if case.index != "vpt":
                continue
            failed.extend(check_relations(case))
        assert failed, "metamorphic relations missed an injected pruning bug"
