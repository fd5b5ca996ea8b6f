"""Per-layer metrics of a traced phase, from its spans and counters.

Each metric names the layer it measures; the end-to-end metric it
should move is listed beside it in :data:`MOVES`. Counts of
compares and bytes are computed from the kernel's argument shapes, not
measured.

Every metric is printed on every workload, as BENCHMARK.json lists them
all. A layer a workload does not reach reports 0 there, structurally:
``http.*`` outside wire_small (the other workloads call StoreServer in
process); ``persistence.*`` except ``open_s``, ``planner.compact*`` and
``serving.mutation_wait_ms_p50`` outside commit_mix (no commits);
``sharded.skip_frac`` and ``sharded.skipped_centroid`` outside
serve_clustered (uniform data never prunes); ``loadgen.late_ms_p99`` on
wire_small (a closed loop has no due times). ``sharded.skipped_minus``
is 0 on all three: no workload's queries let the minus-count bound skip
a shard. The failure counts (``http.non2xx``, ``serving.rejected``,
``serving.timed_out``) are 0 on a healthy run.
"""

import statistics

from . import SPEC, stats, tracing

#: the end-to-end metric each per-layer metric should move; BENCHMARK.json
#: gives every name its unit and direction
MOVES = {
    "loadgen.late_ms_p99": "validity of every open-loop run",
    "loadgen.sent": "validity: requests and commits sent",
    "http.self_ms_p50": "query_p50_ms, query_per_s on wire_small",
    "http.req_bytes": "query_per_s on wire_small (mean per request)",
    "http.resp_bytes": "query_per_s on wire_small (mean per request)",
    "http.non2xx": "failed requests on the wire",
    "serving.queue_wait_ms_p50": "query_p50_ms on wire_small",
    "serving.queue_wait_ms_p99": "query_p99_ms, max_qps_at_slo on serve_clustered",
    "serving.batch_mean": "query_p99_ms, max_qps_at_slo on serve_clustered",
    "serving.waves": "kernel calls per query",
    "serving.flushed_deadline_frac": "query_p50_ms on wire_small",
    "serving.concurrent_waves_max": "query_per_s when waves overlap",
    "serving.mutation_wait_ms_p50": "query_p99_ms on commit_mix",
    "serving.rejected": "failed requests",
    "serving.timed_out": "failed requests",
    "planner.batch_ms_p50": "query latency on every workload",
    "planner.self_ms_p50": "query latency on every workload",
    "planner.compactions": "commit_p90_ms on commit_mix",
    "planner.compact_ms_p50": "commit_p90_ms on commit_mix",
    "sharded.self_ms_p50": "query_p99_ms, max_qps_at_slo on serve_clustered",
    "sharded.skip_frac": "query_p99_ms, max_qps_at_slo on serve_clustered",
    "sharded.skipped_centroid": "shards skipped by the centroid bound",
    "sharded.skipped_minus": "shards skipped by the minus-count bound",
    "sharded.bounded": "shards run with a k-th-best bound",
    "parallel.map_ms_p50": "query_per_s on serve_clustered and commit_mix",
    "parallel.tasks": "shard tasks dispatched",
    "parallel.busy_frac": "query_per_s when fan-out scales across cores",
    "backend.kernel_ms_per_query": "query latency on serve_clustered and commit_mix",
    "backend.calls": "kernel calls",
    "backend.compares": "item compares (from argument shapes)",
    "backend.compares_per_s": "kernel throughput (compares from shapes)",
    "backend.bytes_in": "bytes the kernel was handed (from shapes)",
    "persistence.append_ms_p50": "commit_p50_ms on commit_mix",
    "persistence.delete_ms_p50": "commit_p50_ms on commit_mix",
    "persistence.upsert_ms_p50": "commit_p50_ms on commit_mix",
    "persistence.io_ms_per_commit": "commit_p50_ms on commit_mix",
    "persistence.nonio_ms_per_commit": "commit_p50_ms on commit_mix",
    "persistence.fsyncs_per_commit": "commit_p50_ms on commit_mix",
    "persistence.files_per_commit": "commit_bytes_per_row on commit_mix",
    "persistence.bytes_written_per_commit": "commit_bytes_per_row on commit_mix",
    "persistence.open_s": "setup_s on every workload",
    # the traced phase runs after the untraced one, so these include the
    # drift between them (commit_mix: a larger store, more compactions)
    "trace.overhead_query_p50_ms": "traced minus untraced query_p50_ms, drift included",
    "trace.overhead_query_per_s": "traced minus untraced query_per_s, drift included",
}
#: (name, unit, what it should move), in BENCHMARK.json's order
PER_LAYER = tuple((m["name"], m["unit"], MOVES[m["name"]]) for m in SPEC["per_layer"])

COMMIT_OPS = {"append": "persistence.append_ms_p50",
              "delete": "persistence.delete_ms_p50",
              "upsert": "persistence.upsert_ms_p50"}


def _ms(seconds):
    return seconds * 1000.0


def _median_ms(durations):
    return _ms(stats.median_or_zero(durations))


def _duration(span):
    return span["end"] - span["start"]


def max_overlap(spans):
    """Largest number of spans open at one instant."""
    events = sorted([(s["start"], 1) for s in spans] + [(s["end"], -1) for s in spans])
    best = current = 0
    for _, step in events:
        current += step
        best = max(best, current)
    return best


def layer_metrics(spans, counters, records, commits=(), http_spans=(), open_s=0.0):
    """Per-layer metrics of one traced phase.

    ``spans`` are the store process's spans, ``http_spans`` the load
    generator's, ``counters`` the host's ``end`` reply, ``records`` the
    query records (open loop: with ``due`` and ``sent``), ``commits``
    the commit records in the order they were sent.
    """
    http_spans = list(http_spans)
    spans = list(spans) + http_spans
    tracing.link_parents(spans)
    by_name, children = {}, {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    named = lambda name: by_name.get(name, [])  # noqa: E731
    waves, requests = named("planner"), named("serving")
    tracing.link_requests(requests, waves)
    wave_of = {w["id"]: w for w in waves}
    served = [r for r in requests if r["wave"] is not None]
    waits = [_ms(wave_of[r["wave"]]["start"] - r["start"]) for r in served]
    mutations = [(m["start"], m["end"]) for m in named("planner.mutation")]
    parked = [
        tracing.covered(r["start"], wave_of[r["wave"]]["start"], mutations)
        for r in served
    ]
    server, pruning = counters["server"], counters["pruning"] or {}
    out = {}

    lateness = [_ms(r["sent"] - r["due"]) for r in records if "due" in r]
    out["loadgen.late_ms_p99"] = stats.tail(lateness)[1] if len(lateness) >= 20 else 0.0
    out["loadgen.sent"] = len(records) + len(commits)

    # http: the round trip minus the serving span it caused (same query key)
    http_self = []
    if http_spans:
        pending = {}
        for request in sorted(requests, key=lambda r: r["start"]):
            pending.setdefault(request["key"], []).append(request)
        for span in sorted(http_spans, key=lambda s: s["start"]):
            queue = pending.get(span["key"], [])
            for index, request in enumerate(queue):
                if span["start"] <= request["start"] and request["end"] <= span["end"]:
                    http_self.append(tracing.self_time(span, [request]))
                    del queue[index]
                    break
    out["http.self_ms_p50"] = _median_ms(http_self)
    out["http.req_bytes"] = statistics.fmean(s["req_bytes"] for s in http_spans) if http_spans else 0.0
    out["http.resp_bytes"] = statistics.fmean(s["resp_bytes"] for s in http_spans) if http_spans else 0.0
    out["http.non2xx"] = sum(1 for s in http_spans if not 200 <= s["status"] < 300)

    out["serving.queue_wait_ms_p50"] = stats.median_or_zero(waits)
    out["serving.queue_wait_ms_p99"] = stats.tail(waits)[1] if len(waits) >= 20 else 0.0
    out["serving.batch_mean"] = server["mean_batch_size"]
    out["serving.waves"] = server["waves"]
    out["serving.flushed_deadline_frac"] = (
        server["flushed_deadline"] / server["waves"] if server["waves"] else 0.0)
    out["serving.concurrent_waves_max"] = max_overlap(waves)
    out["serving.mutation_wait_ms_p50"] = _median_ms([p for p in parked if p > 0])
    out["serving.rejected"] = server["rejected"]
    out["serving.timed_out"] = server["timed_out"]

    out["planner.batch_ms_p50"] = _median_ms([_duration(w) for w in waves])
    out["planner.self_ms_p50"] = _median_ms(
        [tracing.self_time(w, children.get(w["id"], [])) for w in waves])
    compactions = named("planner.compact")
    out["planner.compactions"] = len(compactions)
    out["planner.compact_ms_p50"] = _median_ms([_duration(c) for c in compactions])

    sharded = named("sharded")
    out["sharded.self_ms_p50"] = _median_ms(
        [tracing.self_time(s, children.get(s["id"], [])) for s in sharded])
    out["sharded.skip_frac"] = pruning.get("skip_rate", 0.0)
    for key in ("skipped_centroid", "skipped_minus", "bounded"):
        out["sharded." + key] = pruning.get(key, 0)

    maps, kernels = named("parallel"), named("backend")
    map_ids = {m["id"] for m in maps}
    capacity = sum(_duration(m) * m["workers"] for m in maps)
    busy = sum(_duration(k) for k in kernels if k["parent"] in map_ids)
    out["parallel.map_ms_p50"] = _median_ms([_duration(m) for m in maps])
    out["parallel.tasks"] = sum(m["tasks"] for m in maps)
    out["parallel.busy_frac"] = busy / capacity if capacity else 0.0

    kernel_s = sum(_duration(k) for k in kernels)
    answered = sum(len(w["keys"]) for w in waves)
    compares = sum(k["compares"] for k in kernels)
    out["backend.kernel_ms_per_query"] = _ms(kernel_s / answered) if answered else 0.0
    out["backend.calls"] = len(kernels)
    out["backend.compares"] = compares
    out["backend.compares_per_s"] = compares / kernel_s if kernel_s else 0.0
    out["backend.bytes_in"] = sum(k["bytes_in"] for k in kernels)

    out.update(_persistence(named, children, commits))
    out["persistence.open_s"] = open_s
    return out


def _persistence(named, children, commits):
    """Commit-path metrics: each ``planner.mutation`` span is one commit,
    in the order sent; compaction inside it is reported by the planner."""
    per_op = {op: [] for op in COMMIT_OPS}
    io_s = nonio_s = fsyncs = files = written = 0
    mutations = sorted(named("planner.mutation"), key=lambda s: s["start"])
    for commit, mutation in zip(commits, mutations):
        for span in children.get(mutation["id"], []):
            if span["name"] != "persistence":
                continue
            ops = children.get(span["id"], [])
            io = tracing.covered(span["start"], span["end"],
                                 [(o["start"], o["end"]) for o in ops])
            per_op[commit["op"]].append(_duration(span))
            io_s += io
            nonio_s += _duration(span) - io
            fsyncs += sum(1 for o in ops if o["op"] == "fsync")
            files += sum(1 for o in ops if o["op"] == "write")
            written += sum(o["bytes"] for o in ops)
    count = len(mutations)
    out = {name: _median_ms(per_op[op]) for op, name in COMMIT_OPS.items()}
    out["persistence.io_ms_per_commit"] = _ms(io_s / count) if count else 0.0
    out["persistence.nonio_ms_per_commit"] = _ms(nonio_s / count) if count else 0.0
    out["persistence.fsyncs_per_commit"] = fsyncs / count if count else 0.0
    out["persistence.files_per_commit"] = files / count if count else 0.0
    out["persistence.bytes_written_per_commit"] = written / count if count else 0.0
    return out
