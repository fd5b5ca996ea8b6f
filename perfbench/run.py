"""The store benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's store from the seed (``setup_s`` is the median of
at least :data:`~perfbench.workloads.SETUP_REPEATS` independent build, save, lazy
reopen and warm-up cycles), serves it from a separate host process
(:mod:`perfbench.host`), measures for ``S`` seconds, checks every answer
against direct :class:`AssociativeStore` calls, and prints a report
whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones
(:data:`END_TO_END`); with ``--trace 1`` the run measures an untraced
phase and then a traced phase of ``S`` seconds each, and the metrics are
the per-layer ones (:data:`perfbench.layers.PER_LAYER`) of the traced
phase, including the tracing overhead: traced minus untraced phase, so it
also holds whatever drifted between the two (on commit_mix a store that
took more commits and compactions). Spans and the full report are
written under ``.perfbench_runs/<workload>-trace<t>/``.
"""

import argparse
import asyncio
import gc
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import SPEC, layers, stats, tracing, verify, workloads  # noqa: E402
from repro.hdc.store import (  # noqa: E402
    AssociativeStore,
    JSONHTTPClient,
    StoreHTTPError,
)

RUNS = ROOT / ".perfbench_runs"

#: (name, unit) of the metrics every workload reports with ``--trace 0``
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
#: end-to-end metrics only some workloads have; printed in the report
EXTRA_UNITS = {
    "commit_p50_ms": "ms", "commit_p90_ms": "ms", "commit_bytes_per_row": "B",
    "max_qps_at_slo": "1/s", "failed_frac": "1",
}
#: a phase is cut into up to MAX_WINDOWS windows of at least WINDOW_QUERIES
WINDOW_QUERIES = 1000
MAX_WINDOWS = 5
#: time a run may take beyond its measured seconds (set-ups, warm-up, the
#: drain of the last requests, the correctness gate); see :func:`time_limits`
SLACK_S = 100.0


def cpu_probe_s():
    """Seconds a fixed NumPy and dict workload takes at the start of the
    run: a shared machine's speed varies by spells, and this tells such a
    spell apart from a change of the program when runs are compared."""
    rows = np.random.default_rng(0).integers(0, 2**63, size=(50_000, 16), dtype=np.uint64)
    start = time.perf_counter()
    for _ in range(3):
        np.bitwise_count(rows ^ rows[::-1]).sum()
        {f"k{j}": j for j in range(50_000)}
    return time.perf_counter() - start


def environment():
    """Core count, CPU model, versions, the store's executor settings and
    the machine's speed (:func:`cpu_probe_s`)."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "cores": workloads.cores(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "git": sha, "executor": "thread", "workers": workloads.cores(),
        "cpu_probe_s": round(cpu_probe_s(), 4),
    }


def time_limits(workload, seconds, trace):
    """``(per host call, whole run)`` limits in seconds.

    The longest host call is one measured phase; the run measures one
    phase, two with ``trace``, and without it the ladder's rungs. A run
    past its limit fails and stops its host process.
    """
    measured = seconds * (2 if trace else 1)
    if not trace:
        measured += len(workload.ladder) * workload.ladder_seconds
    return seconds + SLACK_S, measured + SLACK_S


class HostProcess:
    """The store-holding child process and its JSON-lines protocol."""

    def __init__(self, workload, seed, run_dir, timeout):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "host.py"),
             "--workload", workload.name, "--seed", str(seed),
             "--run-dir", str(run_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def call(self, command):
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        watchdog = threading.Timer(self.timeout, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(f"host process ended during {command['cmd']!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"host failed on {command['cmd']!r}:\n{reply['error']}")
        return reply

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdin.close()
        self.proc.stdout.close()


# -- set-up ------------------------------------------------------------------------ #

def setup(workload, seed, run_dir, host, query_count):
    """Build, save, reopen and warm the store while
    :func:`workloads.more_setups` asks for more.

    Returns the generated rows, the measured queries (written to
    ``queries.npy`` for the host), the served store's path, the in-memory
    store of the last build (the reference of commit_mix) and the
    timings.
    """
    rows = workloads.items(workload, seed)
    labels = workloads.item_labels(workload)
    queries = workloads.fresh_queries(workload, seed, 8 + query_count, rows)
    np.save(run_dir / "warm.npy", queries[:8])
    queries = queries[8:]
    np.save(run_dir / "queries.npy", queries)
    totals, opens = [], []
    while workloads.more_setups(totals):
        repeat = len(totals)
        path = run_dir / f"store{repeat}"
        start = time.perf_counter()
        store = AssociativeStore(workloads.D, backend="packed",
                                 shards=workloads.SHARDS, routing=workload.routing)
        store.add_many(labels, rows)
        store.save(path)
        built = time.perf_counter() - start
        opened = host.call({"cmd": "open", "path": str(path),
                            "auto_compact_segments": workload.auto_compact_segments})
        totals.append(built + opened["open_s"] + opened["warm_s"])
        opens.append(opened["open_s"])
        if repeat:
            shutil.rmtree(run_dir / f"store{repeat - 1}")
    return {
        "rows": rows, "queries": queries, "path": path, "reference": store,
        "setup_s": stats.median_or_zero(totals), "setup_runs": totals,
        "open_s": stats.median_or_zero(opens),
    }


# -- load ------------------------------------------------------------------------- #

async def closed_loop(port, plan, seconds):
    """Drive one keep-alive connection per sequence until ``seconds`` pass.

    Every answer is compared with the direct answer on arrival; the
    records keep the verdict, not the payload.
    """
    clients = [await JSONHTTPClient.connect("127.0.0.1", port)
               for _ in plan["sequences"]]
    records = []
    stop_at = time.perf_counter() + seconds

    async def drive(connection):
        client = clients[connection]
        sequence = plan["sequences"][connection]
        while time.perf_counter() < stop_at:
            kind, index = sequence[plan["positions"][connection]]
            plan["positions"][connection] += 1
            sent = time.perf_counter()
            try:
                status, body = await client.request(
                    "POST", "/v1/" + kind, plan["payloads"][kind][index])
            except StoreHTTPError as exc:
                status, body = -1, str(exc)
            end = time.perf_counter()
            ok = status == 200
            records.append({
                "kind": kind, "start": sent, "end": end,
                "status": "ok" if ok else f"http {status}",
                "wrong": ok and body != plan["expected"][kind][index],
                "key": plan["keys"][index],
                "req_bytes": plan["req_bytes"][kind][index],
                "resp_bytes": int(client.last_headers.get("content-length", 0)),
                "code": status,
            })

    try:
        await asyncio.gather(*(drive(c) for c in range(len(clients))))
    finally:
        for client in clients:
            await client.close()
    return records


def wire_plan(workload, seed, store_path, rows, seconds):
    """Pool payloads, per-connection sequences and the direct answers.

    Each sequence holds 1000 requests per second of the run, several
    times what one connection completes."""
    pool = workloads.pool_queries(workload, seed, rows)
    kinds = [kind for kind, _ in workload.mix]
    direct = AssociativeStore.open(store_path)
    try:
        expected = {
            kind: verify.direct_answers(direct, pool, [kind] * len(pool))
            for kind in kinds}
    finally:
        direct.memory.close()
    payloads, req_bytes = {}, {}
    for kind in kinds:
        payloads[kind] = [{"query": row.tolist()} for row in pool]
        if kind == "topk":
            for payload in payloads[kind]:
                payload["k"] = workloads.TOPK
        req_bytes[kind] = [
            len(json.dumps(p).encode()) + len(
                f"POST /v1/{kind} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Length: {len(json.dumps(p).encode())}\r\n\r\n")
            for p in payloads[kind]]
    connections = workloads.cores()
    return {
        "payloads": payloads, "expected": expected, "req_bytes": req_bytes,
        "keys": [tracing.row_key(row) for row in pool],
        "sequences": [workloads.pool_sequence(workload, seed, c, int(seconds * 1000))
                      for c in range(connections)],
        "positions": [0] * connections,
    }


def window_figures(records, seconds):
    """Throughput, median and supported tail of one window of a phase."""
    failed = sum(1 for r in records if r["status"] != "ok" or r.get("wrong"))
    latencies = [
        (r["end"] - (r["due"] if "due" in r else r["start"])) * 1000.0
        for r in records if r["status"] == "ok" and not r.get("wrong")]
    summary = stats.latency_summary(latencies, failed)
    return {"query_per_s": len(latencies) / seconds, "query_p50_ms": summary["p50"],
            "query_p99_ms": summary["tail"], "query_tail_p": summary["tail_p"]}


def phase_metrics(records, commits=()):
    """End-to-end figures of one measured phase.

    Latency is timed from the send (closed loop) or from the due time
    (open loop); failed, refused and wrong answers count as infinitely
    slow, and only correct answers count as completed. The phase is cut
    into as many consecutive windows of equally many requests as keep
    :data:`WINDOW_QUERIES` each (at most :data:`MAX_WINDOWS`), and every
    query figure is the median over the windows, so a stall of the shared
    machine shorter than a window moves one window, not the run; a window
    of 1000 queries still supports p99. A window's throughput is its
    correct answers over the time from its first send to its last answer.
    """
    def sent(record):
        return record["due"] if "due" in record else record["start"]

    ordered = sorted(records, key=sent)
    windows = max(1, min(MAX_WINDOWS, len(ordered) // WINDOW_QUERIES))
    cuts = [len(ordered) * w // windows for w in range(windows + 1)]
    parts = [ordered[a:b] for a, b in zip(cuts, cuts[1:])]
    figures = [window_figures(part, max(r["end"] for r in part) - sent(part[0]))
               for part in parts]
    out = {name: statistics.median(f[name] for f in figures)
           for name in ("query_per_s", "query_p50_ms", "query_p99_ms")}
    failed = sum(1 for r in records if r["status"] != "ok" or r.get("wrong"))
    out.update({"query_tail_p": min(f["query_tail_p"] or 0 for f in figures),
                "queries": len(records), "windows": windows, "failed": failed})
    if commits:
        ok = [c for c in commits if c["status"] == "ok"]
        commit_ms = [(c["ack"] - c["call"]) * 1000.0 for c in ok]
        failed_commits = len(commits) - len(ok)
        summary = stats.latency_summary(commit_ms, failed_commits, top=90)
        out.update({
            "commit_p50_ms": summary["p50"],
            "commit_p90_ms": summary["tail"],
            "commit_tail_p": summary["tail_p"],
            "commit_bytes_per_row": (
                sum(c["io"]["bytes"] for c in ok) / max(1, sum(c["rows"] for c in ok))),
            "commits": len(commits),
            "failed": failed + failed_commits,
        })
    return out


def decoded(records):
    """Host records with their wire-form answers parsed back."""
    for record in records:
        record["answer"] = json.loads(record["answer"])
    return records


def ladder_rate(host, workload, first):
    """``max_qps_at_slo``: the highest rung of the offered-rate ladder whose
    supported tail is within ``SLO_MS`` with no failure and no backlog (at
    the end of the rung's send window, no more requests outstanding than
    arrive in ``SLO_MS``). Stops at the first rung that misses; wrong
    answers are caught afterwards by the correctness gate."""
    best, rungs, records = 0.0, [], []
    for rate in workload.ladder:
        count = int(rate * workload.ladder_seconds)
        reply = host.call({"cmd": "open_loop", "first": first, "count": count,
                           "rate": rate})
        first += count
        rung = decoded(reply["records"])
        records += rung
        failed = sum(1 for r in rung if r["status"] != "ok")
        latencies = [(r["end"] - r["due"]) * 1000.0 for r in rung if r["status"] == "ok"]
        backlog = sum(1 for r in rung if r["end"] > reply["window_end"])
        p, value = stats.tail(latencies)
        passed = (stats.meets_slo(latencies, failed, workloads.SLO_MS)
                  and backlog <= rate * workloads.SLO_MS / 1000.0)
        rungs.append({"rate": rate, "n": len(rung), "tail_p": p, "tail_ms": value,
                      "failed": failed, "backlog": backlog, "passed": passed})
        if not passed:
            break
        best = rate
    return {"max_qps_at_slo": best, "rungs": rungs, "records": records}


def run_workload(workload, seed, seconds, trace, run_dir):
    """Set up, measure every phase, check every answer; returns the raw run."""
    phases = (False, True) if trace else (False,)
    open_loop = workload.rate is not None
    base_count = int(workload.rate * seconds) if open_loop else 0
    ladder_count = 0 if trace else sum(
        int(rate * workload.ladder_seconds) for rate in workload.ladder)
    query_count = base_count * len(phases) + ladder_count
    kinds = workloads.request_kinds(workload, seed, query_count)
    (run_dir / "kinds.json").write_text(json.dumps(kinds))
    host = HostProcess(workload, seed, run_dir, time_limits(workload, seconds, trace)[0])
    try:
        prepared = setup(workload, seed, run_dir, host, query_count)
        if not open_loop:
            plan = wire_plan(workload, seed, prepared["path"], prepared["rows"],
                             seconds * len(phases))
        prepared["rows"] = None  # the host holds the store now
        # the load generator's own set-up objects (payloads, expected
        # answers) stay out of its garbage collections while it measures
        gc.collect()
        gc.freeze()
        port = host.call({"cmd": "serve", "http": not open_loop}).get("port")
        results, first, committed = [], 0, 0
        for traced in phases:
            host.call({"cmd": "begin", "trace": traced})
            if open_loop:
                reply = host.call({
                    "cmd": "open_loop", "first": first, "count": base_count,
                    "rate": workload.rate,
                    "commit_first": committed if workload.commit_rows else None})
                records, commits = decoded(reply["records"]), reply["commits"]
                first += base_count
                committed += len(commits)
            else:
                records = asyncio.run(closed_loop(port, plan, seconds))
                commits = []
            counters = host.call({"cmd": "end"})
            results.append({"traced": traced, "records": records, "commits": commits,
                            "counters": counters})
        ladder = ladder_rate(host, workload, first) if workload.ladder and not trace else None
        peak = host.call({"cmd": "quit"})
    finally:
        host.close()
    problems = check(workload, seed, prepared, kinds, results, ladder)
    spans = json.loads(Path(peak["spans"]).read_text())
    return {"prepared": prepared, "results": results, "ladder": ladder,
            "peak_rss_mb": peak["peak_rss_mb"], "problems": problems, "spans": spans}


def check(workload, seed, prepared, kinds, results, ladder):
    """The correctness gate; marks ``wrong`` records, returns other problems."""
    if workload.rate is None:
        return []  # the closed loop compared every answer on arrival
    records = [r for phase in results for r in phase["records"]]
    if ladder:
        records += ladder["records"]
    queries = prepared["queries"]
    if not workload.commit_rows:
        group = None
        if workload.data == "clustered":
            group = np.argmax(queries.astype(np.int32)
                              @ workloads.prototypes(seed).T.astype(np.int32), axis=1)
        store = AssociativeStore.open(prepared["path"])
        try:
            verify.mark_wrong(records, queries, kinds, store, group)
        finally:
            store.memory.close()
        return []
    commits = [c for phase in results for c in phase["commits"]]
    reference = prepared["reference"]
    verify.replay_commit_history(reference, workload, seed, commits, records, queries)
    # the host process has exited: this reopen is a fresh reader
    return verify.durable_mismatches(prepared["path"], reference, np.asarray(queries[:16]))


# -- report ----------------------------------------------------------------------- #

def client_spans(records):
    """The load generator's ``http`` spans of a wire phase."""
    return [
        {"id": 10**9 + i, "name": "http", "start": r["start"], "end": r["end"],
         "parent": None, "rid": i, "key": r["key"], "req_bytes": r["req_bytes"],
         "resp_bytes": r["resp_bytes"], "status": r["code"]}
        for i, r in enumerate(records)]


def finite(value):
    """JSON-safe metric: a tail made of failures reads as the request deadline."""
    return value if math.isfinite(value) else workloads.REQUEST_TIMEOUT_MS


def summarize(workload, run, trace):
    prepared, results = run["prepared"], run["results"]
    first = results[0]
    e2e = phase_metrics(first["records"], first["commits"])
    e2e["setup_s"] = prepared["setup_s"]
    e2e["setups"] = len(prepared["setup_runs"])
    e2e["peak_rss_mb"] = run["peak_rss_mb"]
    all_records = [r for phase in results for r in phase["records"]]
    all_commits = [c for phase in results for c in phase["commits"]]
    if run["ladder"]:
        all_records += run["ladder"]["records"]
        e2e["max_qps_at_slo"] = run["ladder"]["max_qps_at_slo"]
    attempted = len(all_records) + len(all_commits)
    failed = (sum(1 for r in all_records if r["status"] != "ok" or r["wrong"])
              + sum(1 for c in all_commits if c["status"] != "ok"))
    e2e["failed_frac"] = failed / attempted
    wrong = sum(1 for r in all_records if r["wrong"])
    summary = {"correct": wrong == 0 and not run["problems"],
               "attempted": attempted, "failed": failed, "wrong": wrong,
               "problems": run["problems"], "end_to_end": e2e}
    if trace:
        traced = results[1]
        http = client_spans(traced["records"]) if workload.rate is None else ()
        per_layer = layers.layer_metrics(
            run["spans"], traced["counters"], traced["records"], traced["commits"],
            http_spans=http, open_s=prepared["open_s"])
        traced_e2e = phase_metrics(traced["records"], traced["commits"])
        per_layer["trace.overhead_query_p50_ms"] = (
            traced_e2e["query_p50_ms"] - e2e["query_p50_ms"])
        per_layer["trace.overhead_query_per_s"] = (
            traced_e2e["query_per_s"] - e2e["query_per_s"])
        summary["traced_end_to_end"] = traced_e2e
        summary["per_layer"] = per_layer
    return summary


def print_report(workload, args, env, summary, out):
    e2e = summary["end_to_end"]
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", file=out)
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}"
                            for k, v in env.items()), file=out)
    why = {w["name"]: w["why"] for w in SPEC["workloads"]}[workload.name]
    print(f"why: {why}", file=out)
    notes = {
        "setup_s": f"median of {e2e['setups']} set-ups",
        "query_per_s": f"median of {e2e['windows']} windows, n={e2e['queries']} queries",
        "query_p50_ms": f"median of {e2e['windows']} windows, n={e2e['queries']}",
        "query_p99_ms": (f"median of {e2e['windows']} windows' p{e2e['query_tail_p']}, "
                         f"n={e2e['queries']}"),
        "commit_p50_ms": f"n={e2e.get('commits')} commits",
        "commit_p90_ms": f"p{e2e.get('commit_tail_p')} of n={e2e.get('commits')} commits",
        "commit_bytes_per_row": "exact, from the I/O seam",
        "failed_frac": f"{summary['failed']} of {summary['attempted']} operations",
    }
    units = dict(END_TO_END, **EXTRA_UNITS)
    for name, unit in units.items():
        if name in e2e:
            print(f"  {name:<24}{e2e[name]:>14.4f} {unit:<6} {notes.get(name, '')}",
                  file=out)
    if "per_layer" in summary:
        traced = summary["traced_end_to_end"]
        print("  traced phase: " + ", ".join(
            f"{name}={traced[name]:.4f}" for name in
            ("query_per_s", "query_p50_ms", "query_p99_ms")), file=out)
        for name, unit, moves in layers.PER_LAYER:
            print(f"  {name:<36}{summary['per_layer'][name]:>16.4f} {unit:<6} -> {moves}",
                  file=out)
    print(f"  correct={summary['correct']} wrong={summary['wrong']} "
          f"problems={summary['problems']}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description="The repro.hdc.store benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    run_dir = RUNS / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment()
    limit = time_limits(workload, args.seconds, args.trace)[1]

    def out_of_time(signum, frame):
        raise TimeoutError(f"the run did not finish within {limit:.0f} s")

    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(math.ceil(limit))
    try:
        run = run_workload(workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        signal.alarm(0)
        for store_dir in run_dir.glob("store*"):
            shutil.rmtree(store_dir)
    summary = summarize(workload, run, args.trace)
    (run_dir / "spans.json").write_text(json.dumps(run["spans"] + (
        client_spans(run["results"][1]["records"])
        if args.trace and workload.rate is None else [])))
    (run_dir / "report.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "summary": summary,
         "ladder": run["ladder"] and run["ladder"]["rungs"],
         "setup_runs": run["prepared"]["setup_runs"]}, indent=1, default=str))
    print_report(workload, args, env, summary, sys.stdout)
    if args.trace:
        metrics = {name: {"value": float(summary["per_layer"][name]), "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        metrics = {name: {"value": finite(float(summary["end_to_end"][name])), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
