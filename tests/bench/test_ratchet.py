"""The perf-trajectory ratchet: baseline loading, replay, verdicts."""

import json

import pytest

from repro.bench.ratchet import (
    DEFAULT_MAX_REGRESSION,
    load_baseline,
    ratchet_main,
    rerun_baseline_config,
)
from repro.bench.throughput import SERVE_SCHEMA, run_throughput


def small_baseline(tmp_path, **overrides):
    """Run the tiny pinned config once and write it as a baseline file."""
    result = run_throughput(
        n=120, dim=4, n_shards=2, workers=2, n_queries=4, seed=2,
        measure_latency=False,
    )
    payload = result.to_dict()
    payload.update(overrides)
    path = tmp_path / "BENCH_test.json"
    path.write_text(json.dumps(payload))
    return path, payload


class TestLoadBaseline:
    def test_accepts_serve_schema(self, tmp_path):
        path, payload = small_baseline(tmp_path)
        baseline = load_baseline(str(path))
        assert baseline["schema"] == SERVE_SCHEMA
        assert baseline["config"]["n"] == 120

    def test_rejects_wrong_schema(self, tmp_path):
        path, _ = small_baseline(tmp_path, schema="something-else/v9")
        with pytest.raises(ValueError, match="schema"):
            load_baseline(str(path))

    def test_rejects_missing_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema": SERVE_SCHEMA}))
        with pytest.raises(ValueError, match="config"):
            load_baseline(str(path))


class TestRerun:
    def test_replays_pinned_config(self, tmp_path):
        path, payload = small_baseline(tmp_path)
        result = rerun_baseline_config(load_baseline(str(path)))
        assert result.n_objects == payload["config"]["n"]
        assert result.backend == payload["config"]["backend"]
        assert result.results_identical
        # Identical config, identical deterministic workload: the
        # distance totals replay exactly.
        assert (
            result.sequential_distance_calls
            == payload["sequential_distance_calls"]
        )

    def test_engine_overlaps_simulated_cost(self):
        """The timing the pinned config relies on, over enough queries
        to be stable: with a sleep per metric call, two workers overlap
        the sleeps that one sequential loop pays back to back."""
        result = run_throughput(
            n=120, dim=4, n_shards=2, workers=2, n_queries=16, seed=2,
            simulated_cost_s=5e-4, measure_latency=False,
        )
        assert result.results_identical
        assert result.speedup > 1.2


class TestRatchetMain:
    """A replay of a 4-query batch repeats its answers and distance
    counts exactly, but its timing moves by more than the allowed
    fraction on a busy host; so the self-comparisons check the exact
    replay, and a baseline that claims no throughput stands in for a
    passing timing."""

    def test_passes_against_own_run(self, tmp_path, capsys):
        path, _ = small_baseline(tmp_path, qps=0.0)
        assert ratchet_main(["--baseline", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path, capsys):
        # A baseline claiming absurd throughput makes any real machine
        # regress past the allowed fraction.
        path, _ = small_baseline(tmp_path, qps=1e9)
        assert ratchet_main(["--baseline", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_fails_on_more_distance_calls(self, tmp_path, capsys):
        path, payload = small_baseline(tmp_path, qps=0.0)
        calls = payload["sequential_distance_calls"] - 1
        path.write_text(json.dumps({**payload, "sequential_distance_calls": calls}))
        assert ratchet_main(["--baseline", str(path)]) == 1
        assert "(MORE)" in capsys.readouterr().out

    def test_json_verdict(self, tmp_path, capsys):
        path, payload = small_baseline(tmp_path)
        code = ratchet_main(["--baseline", str(path), "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["schema"] == "repro-bench-ratchet/v1"
        assert verdict["results_identical"] is True
        assert (
            verdict["current_distance_calls"]
            == verdict["baseline_distance_calls"]
            == payload["sequential_distance_calls"]
        )
        # Only the timing is left to decide the verdict.
        timely = verdict["current_qps"] >= verdict["floor_qps"]
        assert verdict["passed"] is timely
        assert code == (0 if timely else 1)
        assert verdict["max_regression"] == DEFAULT_MAX_REGRESSION
        assert verdict["current"]["schema"] == SERVE_SCHEMA

    def test_write_emits_new_baseline(self, tmp_path):
        path, _ = small_baseline(tmp_path, qps=0.0)
        out = tmp_path / "BENCH_new.json"
        assert (
            ratchet_main(["--baseline", str(path), "--write", str(out)]) == 0
        )
        fresh = json.loads(out.read_text())
        assert fresh["schema"] == SERVE_SCHEMA
        assert fresh["config"]["n"] == 120

    def test_unusable_baseline_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert ratchet_main(["--baseline", str(missing)]) == 2
        assert "unusable baseline" in capsys.readouterr().err

    def test_bad_max_regression_is_exit_2(self, tmp_path, capsys):
        path, _ = small_baseline(tmp_path)
        code = ratchet_main(
            ["--baseline", str(path), "--max-regression", "1.5"]
        )
        assert code == 2
        assert "max-regression" in capsys.readouterr().err
