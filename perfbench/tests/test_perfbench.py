"""Tests of the benchmark's own logic: percentile rule, self time, failure
counting, deterministic workloads, span linking and the layer wrappers."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run, stats, tracing, workloads
from repro.hdc import random_bipolar
from repro.hdc.backend import PackedBackend
from repro.hdc.store import AssociativeStore, ShardExecutor, ShardedItemMemory, install_io

ROOT = Path(__file__).resolve().parents[2]


def span(ident, name, start, end, parent=None, **attrs):
    return dict({"id": ident, "name": name, "start": start, "end": end,
                 "parent": parent, "rid": None}, **attrs)


# -- percentile rule -------------------------------------------------------------- #

@pytest.mark.parametrize("n, expected", [
    (1000, 99), (999, 98), (500, 98), (499, 95), (100, 90), (99, 80),
    (20, 50), (19, None), (0, None)])
def test_supported_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 100, 333, 1000, 4321])
def test_reported_tail_has_at_least_ten_samples_beyond_it(n):
    values = list(range(n))
    p, value = stats.tail(values)
    assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND
    assert p == stats.supported_percentile(n)


def test_tail_respects_the_top_percentile():
    values = list(range(2000))
    assert stats.tail(values, top=90)[0] == 90
    assert stats.tail(values, top=90)[1] == 1799  # nearest rank 1800


def test_nearest_rank():
    assert stats.nearest_rank([1, 2, 3, 4], 50) == 2
    assert stats.nearest_rank([1, 2, 3, 4], 99) == 4
    assert stats.nearest_rank([7], 1) == 7


# -- failure counting ------------------------------------------------------------- #

def test_a_refused_request_misses_the_slo():
    fast = [1.0] * 2000
    assert stats.meets_slo(fast, failed=0, limit_ms=50)
    assert not stats.meets_slo(fast, failed=1, limit_ms=50)


def test_failures_count_as_infinitely_slow():
    summary = stats.latency_summary([1.0] * 80, failed=20)
    assert summary["n"] == 100
    assert summary["tail"] == math.inf
    assert summary["p50"] == 1.0


def test_phase_metrics_counts_refusals_and_wrong_answers():
    records = [{"status": "ok", "wrong": False, "start": 0.0, "end": 0.001}] * 30
    records += [{"status": "http 429", "wrong": False, "start": 0.0, "end": 0.001},
                {"status": "ok", "wrong": True, "start": 0.0, "end": 0.001},
                {"status": "timeout", "start": 0.0, "due": 0.0, "end": 5.0}]
    out = run.phase_metrics(records)
    assert out["failed"] == 3
    assert out["queries"] == 33
    assert out["query_per_s"] == 6.0  # only correct answers complete, over 5 s


def test_query_figures_are_medians_over_windows_of_1000():
    records = [{"status": "ok", "start": i / 1000, "end": i / 1000 + 0.001}
               for i in range(3000)]
    for record in records[:1000]:  # one stalled window
        record["end"] += 0.5
    out = run.phase_metrics(records)
    assert out["windows"] == 3 and out["query_tail_p"] == 99
    assert out["query_p99_ms"] == pytest.approx(1.0)
    assert out["query_per_s"] == pytest.approx(1000.0)
    assert run.phase_metrics(records[:2999])["windows"] == 2


def test_commit_figures_count_failed_commits_and_bytes_per_row():
    records = [{"status": "ok", "start": i / 100, "end": i / 100 + 0.001} for i in range(100)]
    commits = [{"status": "ok", "call": 0.0, "ack": 0.010, "rows": 64,
                "io": {"bytes": 6400}}] * 30
    commits += [{"status": "error: OSError", "call": 0.0, "ack": 0.5, "rows": 64,
                 "io": {"bytes": 0}}]
    out = run.phase_metrics(records, commits=commits)
    assert out["failed"] == 1 and out["commits"] == 31
    assert out["commit_bytes_per_row"] == 100.0
    assert out["commit_p50_ms"] == pytest.approx(10.0)


def test_open_loop_latency_is_timed_from_the_due_time():
    records = [{"status": "ok", "due": 1.0, "sent": 1.5, "end": 1.6}] * 20
    assert run.phase_metrics(records)["query_p50_ms"] == pytest.approx(600.0)


# -- self time and linking -------------------------------------------------------- #

def test_self_time_of_nested_spans():
    parent = span(0, "planner", 0.0, 10.0)
    children = [span(1, "sharded", 2.0, 5.0), span(2, "sharded", 6.0, 7.0)]
    assert tracing.self_time(parent, children) == pytest.approx(6.0)


def test_self_time_of_overlapping_children_counts_the_union_once():
    parent = span(0, "parallel", 0.0, 10.0)
    children = [span(1, "backend", 1.0, 6.0), span(2, "backend", 4.0, 8.0),
                span(3, "backend", 5.0, 5.5)]
    assert tracing.self_time(parent, children) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    parent = span(0, "http", 0.0, 4.0)
    children = [span(1, "serving", -1.0, 1.0), span(2, "serving", 3.0, 9.0)]
    assert tracing.self_time(parent, children) == pytest.approx(2.0)


def test_link_parents_picks_the_innermost_container():
    spans = [
        span(0, "planner.mutation", 0.0, 10.0),
        span(1, "planner.compact", 5.0, 9.0),
        span(2, "persistence", 1.0, 4.0),
        span(3, "persistence", 6.0, 8.0),
        span(4, "io", 6.5, 7.0),
    ]
    tracing.link_parents(spans)
    assert [s["parent"] for s in spans] == [None, 0, 0, 1, 3]


def test_link_requests_matches_equal_keys_first_come_first_served():
    requests = [span(0, "serving", 0.0, 5.0, key=7), span(1, "serving", 0.5, 9.0, key=7),
                span(2, "serving", 0.2, 5.0, key=8)]
    waves = [span(10, "planner", 1.0, 4.0, keys=[7, 8]),
             span(11, "planner", 6.0, 8.0, keys=[7])]
    tracing.link_requests(requests, waves)
    assert [r["wave"] for r in requests] == [10, 11, 10]


def test_max_overlap():
    spans = [span(0, "planner", 0, 2), span(1, "planner", 1, 3), span(2, "planner", 3, 4)]
    assert layers.max_overlap(spans) == 2


# -- deterministic workloads ------------------------------------------------------ #

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_a_function_of_the_seed(name):
    small = workloads.WORKLOADS[name].__class__(
        **dict(vars(workloads.WORKLOADS[name]), items=512))
    rows = workloads.items(small, 3)
    assert np.array_equal(rows, workloads.items(small, 3))
    assert not np.array_equal(rows, workloads.items(small, 4))
    assert set(np.unique(rows)) == {-1, 1}
    queries = workloads.fresh_queries(small, 3, 40, rows)
    assert np.array_equal(queries, workloads.fresh_queries(small, 3, 40, rows))
    assert workloads.request_kinds(small, 3, 50) == workloads.request_kinds(small, 3, 50)
    if small.unseen_share:  # one unseen-class row, near no prototype, per period
        agreement = queries.astype(int) @ workloads.prototypes(3).T.astype(int) / workloads.D
        assert np.sum(agreement.max(axis=1) < 0.5) == round(40 * small.unseen_share)
    if small.pool:
        assert np.array_equal(workloads.pool_queries(small, 3, rows),
                              workloads.pool_queries(small, 3, rows))
        assert (workloads.pool_sequence(small, 3, 1, 30)
                == workloads.pool_sequence(small, 3, 1, 30))


def test_arrivals_keep_a_fixed_schedule():
    offsets = workloads.arrival_offsets(400, 200.0)
    assert len(offsets) == 400 and offsets[0] == 0.0
    assert np.allclose(np.diff(offsets), 0.005)  # 400 requests at 200/s take 2 s


def test_cheap_set_ups_repeat_until_the_minimum_time():
    assert workloads.more_setups([])
    assert workloads.more_setups([5.0, 5.0])
    assert not workloads.more_setups([5.0, 5.0, 5.0])
    assert workloads.more_setups([0.3] * 3)
    assert not workloads.more_setups([0.3] * 7)  # 2.1 s
    assert not workloads.more_setups([0.01] * workloads.SETUP_MAX)


@pytest.mark.parametrize("items", [workloads.COMMIT_MIX.items, 512])
def test_commit_schedule_is_deterministic_and_only_touches_live_labels(items):
    workload = workloads.Workload(**dict(vars(workloads.COMMIT_MIX), items=items))
    live = set(workloads.item_labels(workload))
    upserted = set()
    for index in range(60):  # with 512 items the initial halves last 4 turns
        op, labels, vectors = workloads.commit_batch(workload, 5, index)
        again = workloads.commit_batch(workload, 5, index)
        assert op == again[0] == workloads.COMMIT_CYCLE[index % 3]
        assert labels == again[1] and len(labels) == workload.commit_rows
        if op == "delete":
            assert vectors is None
            assert set(labels) <= live - upserted
            live -= set(labels)
        else:
            assert np.array_equal(vectors, again[2])
            if op == "upsert":
                assert set(labels) <= live
                upserted.update(labels)
            else:
                assert not set(labels) & live
                live |= set(labels)


# -- the layer wrappers ----------------------------------------------------------- #

def test_instrument_records_every_layer_and_undo_restores(tmp_path):
    rng = np.random.default_rng(0)
    rows = random_bipolar(400, workloads.D, rng)
    AssociativeStore.from_vectors(
        [f"l{i}" for i in range(400)], rows, backend="packed", shards=4,
    ).save(tmp_path / "store")
    store = AssociativeStore.open(tmp_path / "store", workers=2)
    originals = (ShardedItemMemory.cleanup_batch, ShardExecutor.map,
                 PackedBackend.hamming_topk)
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer, store)
    try:
        store.cleanup_batch(rows[:3])
        store.delete(["l1", "l2"])
        store.upsert(["l3"], rows[3:4])
    finally:
        undo()
    names = {s["name"] for s in tracer.spans}
    assert {"planner", "sharded", "parallel", "backend", "planner.mutation",
            "persistence", "io"} <= names
    tracing.link_parents(tracer.spans)
    by_id = {s["id"]: s for s in tracer.spans}
    for s in tracer.spans:
        parents = tracing.PARENT_LAYERS.get(s["name"])
        if parents and s["name"] != "planner.compact":
            assert by_id[s["parent"]]["name"] in parents, s
    assert (ShardedItemMemory.cleanup_batch, ShardExecutor.map,
            PackedBackend.hamming_topk) == originals
    assert "cleanup_batch" not in vars(store)
    assert undo.io.counts["fsync"] > 0 and undo.io.bytes_written > 0
    store.memory.close()


def test_metered_io_counts_the_bytes_it_writes(tmp_path):
    seam = tracing.MeteredIO()
    previous = install_io(seam)
    try:
        AssociativeStore.from_vectors(
            ["a", "b"], random_bipolar(2, 64, np.random.default_rng(1)),
            backend="packed", shards=2).save(tmp_path / "s")
    finally:
        install_io(previous)
    on_disk = sum(p.stat().st_size for p in (tmp_path / "s").iterdir())
    assert seam.bytes_written == on_disk
    assert seam.counts["write"] == seam.counts["fsync"] > 0


# -- the benchmark description ---------------------------------------------------- #

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    empty = {"server": {"mean_batch_size": 0.0, "waves": 0, "flushed_deadline": 0,
                        "rejected": 0, "timed_out": 0}, "pruning": {}}
    computed = set(layers.layer_metrics([], empty, []))
    computed |= {"trace.overhead_query_p50_ms", "trace.overhead_query_per_s"}
    assert computed == {m["name"] for m in spec["per_layer"]} == set(layers.MOVES)


def test_time_limits_grow_with_the_measured_seconds():
    wire, clustered = workloads.WIRE_SMALL, workloads.SERVE_CLUSTERED
    assert run.time_limits(wire, 10, 0) == (10 + run.SLACK_S, 10 + run.SLACK_S)
    assert run.time_limits(wire, 60, 1) == (60 + run.SLACK_S, 120 + run.SLACK_S)
    ladder = len(clustered.ladder) * clustered.ladder_seconds
    assert run.time_limits(clustered, 20, 0)[1] == 20 + ladder + run.SLACK_S
    assert run.time_limits(clustered, 20, 1)[1] == 40 + run.SLACK_S
