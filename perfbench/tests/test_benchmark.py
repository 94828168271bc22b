"""Self-tests for the benchmark: tiny runs, planted wrong answers, spans."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import loadgen, measure, oracle, run
from perfbench.tracing import SpanRecorder, TimingMetric, nesting_errors, self_times
from perfbench.workloads import Op, Record, load_specs, make_workload
from repro.indexes.base import Neighbor
from repro.metric import L2

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "clustered-mvpt": {"data": {"n_clusters": 5, "cluster_size": 60}, "probe_queries": 5},
    "words-mvpt": {"data": {"n": 300}, "probe_queries": 4},
    "churn-vpt": {"data": {"n": 600, "dim": 8}, "probe_queries": 4, "rebuild": {"every_ops": 20, "churn_threshold": 0.01}},
}


def tiny_workload(name: str, seed: int = 3):
    spec = copy.deepcopy(load_specs()["workloads"][name])
    for key, value in TINY[name].items():
        if isinstance(value, dict):
            spec[key].update(value)
        else:
            spec[key] = value
    return make_workload(name, seed, spec)


@pytest.fixture(autouse=True)
def short_warm_up(monkeypatch):
    monkeypatch.setattr(measure, "WARM_UP_S", 0.2)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_end_to_end_run(name, tmp_path):
    outcome = measure.end_to_end(tiny_workload(name), 1.0, tmp_path)
    assert outcome["errors"] == []
    assert outcome["attempted"] > 0 and outcome["failed"] == 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(outcome["metrics"]) == names
    for metric in BENCH["end_to_end"]:
        value, unit = outcome["metrics"][metric["name"]]
        assert unit == metric["unit"]
        assert np.isfinite(value) and value > 0, metric["name"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run(name, tmp_path):
    outcome = measure.traced(tiny_workload(name), 1.0, tmp_path)
    assert outcome["errors"] == []  # oracle and span nesting
    assert sorted(outcome["metrics"]) == sorted(m["name"] for m in BENCH["per_layer"])
    for metric in BENCH["per_layer"]:
        value, unit = outcome["metrics"][metric["name"]]
        assert unit == metric["unit"] and np.isfinite(value), metric["name"]
    assert (tmp_path / f"spans-{name}-s3.jsonl").stat().st_size > 0
    if name == "churn-vpt":
        assert outcome["metrics"]["lifecycle.rebuilds"][0] >= 1


# ----------------------------------------------------------------------
# Planted wrong answers
# ----------------------------------------------------------------------


def _answers(workload, op):
    distances = workload.oracle.distances(op.query)
    order = np.lexsort((workload.oracle.ids, distances))
    return distances, order


def test_oracle_rejects_planted_vector_answers():
    workload = tiny_workload("clustered-mvpt")
    workload.generate()
    rng = np.random.default_rng(0)
    knn = workload.query_op("knn", rng)
    distances, order = _answers(workload, knn)
    right = [Neighbor(float(distances[i]), int(i)) for i in order[: knn.param]]
    good = Record(knn, 0, 0.0, 0.0, 0.0, value=right)
    assert workload.check([good]) == []

    swapped = list(right)
    far = int(order[-1])
    swapped[-1] = Neighbor(right[-1].distance, far)  # right distance, wrong id
    assert workload.check([Record(knn, 0, 0.0, 0.0, 0.0, value=swapped)])

    short = workload.query_op("range", rng)
    hits = [int(i) for i in np.nonzero(workload.oracle.distances(short.query) <= short.param)[0]]
    assert workload.check([Record(short, 0, 0.0, 0.0, 0.0, value=hits)]) == []
    assert workload.check([Record(short, 0, 0.0, 0.0, 0.0, value=hits[1:])])


def test_oracle_rejects_unsound_certificate():
    workload = tiny_workload("clustered-mvpt")
    workload.generate()
    op = workload.query_op("bknn", np.random.default_rng(1))
    distances, order = _answers(workload, op)
    # Four true neighbours, six far points, and a certificate claiming all ten.
    picked = list(order[:4]) + list(order[-6:])
    answer = sorted(Neighbor(float(distances[i]), int(i)) for i in picked)

    class Report:
        recall_lower_bound = 1.0
        sound = (True,) * 10

    errors, recall = oracle.check_budgeted_knn(answer, Report, distances, workload.oracle.ids, op.param)
    assert recall == pytest.approx(0.4)
    assert errors


def test_oracle_rejects_planted_word_answer():
    workload = tiny_workload("words-mvpt")
    workload.generate()
    op = workload.query_op("knn", np.random.default_rng(2))
    distances, order = _answers(workload, op)
    right = [Neighbor(float(distances[i]), int(i)) for i in order[: op.param]]
    assert workload.check([Record(op, 0, 0.0, 0.0, 0.0, value=right)]) == []
    # Same distances, but a tie broken against the (distance, id) order.
    tied = [i for i in order if distances[i] == distances[order[op.param - 1]]]
    if len(tied) > 1:
        wrong = right[:-1] + [Neighbor(right[-1].distance, int(max(tied)))]
        if wrong != right:
            assert workload.check([Record(op, 0, 0.0, 0.0, 0.0, value=wrong)])
    off_by_one = right[:-1] + [Neighbor(right[-1].distance + 1, right[-1].id)]
    assert workload.check([Record(op, 0, 0.0, 0.0, 0.0, value=off_by_one)])


def test_vectorised_edit_distance_matches_metric():
    from repro.metric import EditDistance

    workload = tiny_workload("words-mvpt")
    workload.generate()
    queries = ["", "a", workload.data[0], workload.data[5] + "zz"]
    assert workload.oracle.cross_check(queries, EditDistance()) == []


def test_churn_oracle_rejects_deleted_id():
    workload = tiny_workload("churn-vpt")
    workload.generate()
    n = len(workload.data)
    row = np.full(workload.dim, 0.5)
    insert = Op("insert", row, gid=n)
    delete = Op("delete", gid=3)
    query = Op("knn", workload.data[3] + 1e-6, 2)
    live = [i for i in range(n) if i != 3] + [n]
    points = np.vstack([workload.data, row])[live]
    d = np.sqrt(((points - query.query) ** 2).sum(1))
    order = np.lexsort((live, d))[:2]
    right = [Neighbor(float(d[i]), int(live[i])) for i in order]
    records = [
        Record(insert, 0, 0.0, 0.0, 0.0, value=n),
        Record(delete, 0, 1.0, 1.0, 1.0),
        Record(query, 0, 2.0, 2.0, 2.0, value=right),
    ]
    assert workload.check(records) == []
    stale = [Neighbor(0.0, 3)] + right[:1]  # the deleted point comes back
    records[2] = Record(query, 0, 2.0, 2.0, 2.0, value=stale)
    assert workload.check(records)


def test_open_loop_times_from_due_and_reports_backlog():
    def slow(client, op, due):
        start = time.perf_counter()
        time.sleep(0.05)
        return Record(op, client, due, start, time.perf_counter())

    # One sender, an op due every 10 ms, each taking 50 ms: the schedule
    # keeps its pace while the sender falls behind.
    result = loadgen.open_loop(1, 100.0, lambda: Op("knn"), slow, 0.2)
    dues = [r.due - result.records[0].due for r in result.records]
    assert np.allclose(dues, np.arange(20) / 100.0)
    assert all(r.start >= r.due for r in result.records)
    assert result.records[-1].start - result.records[-1].due > 0.5
    assert result.records[-1].latency_ms > 500
    assert loadgen.backlog_max(result.records) > 10


def test_run_exits_non_zero_on_mismatch(monkeypatch, capsys):
    def planted(workload, seconds, out_dir):
        return {"metrics": {"qps": (1.0, "1/s")}, "attempted": 1, "failed": 0, "errors": ["planted"], "notes": []}

    monkeypatch.setattr(measure, "end_to_end", planted)
    assert run.main(["--workload", "churn-vpt", "--seed", "1", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-vpt", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def test_spans_nest_and_self_time_is_non_negative():
    recorder = SpanRecorder()
    metric = TimingMetric(L2(), recorder)
    metric.enabled = True
    points = np.random.default_rng(0).random((50, 4))
    with recorder.span("probe", rid=7):
        with recorder.span("shard"):
            metric.batch_distance(points, points[0])
            metric.distance(points[1], points[2])
        with recorder.span("merge"):
            time.sleep(0.001)
    assert nesting_errors(recorder.spans) == []
    own = self_times(recorder.spans)
    assert all(v >= 0 for v in own.values())
    by_name = {s.name: s for s in recorder.spans}
    assert {s.rid for s in recorder.spans} == {7}
    assert by_name["metric"].parent == by_name["shard"].id
    assert by_name["shard"].parent == by_name["probe"].id
    probe = by_name["probe"]
    children = sum(s.end_ns - s.start_ns for s in recorder.spans if s.parent == probe.id)
    assert own[probe.id] == (probe.end_ns - probe.start_ns) - children
    assert metric.calls == 2 and metric.evals == 51


def test_self_time_counts_overlapping_children_once():
    recorder = SpanRecorder()
    root = recorder.add("request", 0, 100)
    recorder.add("unit", 10, 60, parent=root)
    recorder.add("unit", 40, 100, parent=root)
    assert self_times(recorder.spans)[root] == 10
    assert nesting_errors(recorder.spans) == []
    recorder.add("unit", 90, 120, parent=root)  # leaves its parent
    assert nesting_errors(recorder.spans)


def test_inactive_recorder_keeps_nothing():
    recorder = SpanRecorder(active=False)
    with recorder.span("probe"):
        recorder.add("unit", 0, 1)
    assert recorder.spans == []
