"""The process that holds the store, driven by JSON lines on stdin.

``python3 perfbench/host.py --workload NAME --seed N --run-dir DIR`` is
started by :mod:`perfbench.run`. It answers one JSON line on stdout per
command line on stdin:

- ``{"cmd": "open", "path": P, "auto_compact_segments": N}`` — lazily
  reopen the saved store at ``P`` (thread executor, ``workers = nproc``)
  and warm it up with the rows of ``warm.npy``; replies ``open_s`` and
  ``warm_s``. The last opened store is the one served.
- ``{"cmd": "serve", "http": bool}`` — start a :class:`StoreServer`
  over the store, behind a :class:`StoreHTTPServer` when ``http``;
  replies the port.
- ``{"cmd": "begin", "trace": bool}`` / ``{"cmd": "end"}`` — bracket a
  measured phase: reset the server and pruning counters, meter the
  persistence I/O seam, and with ``trace`` wrap every layer (see
  :mod:`perfbench.tracing`). ``end`` replies the phase's counters.
- ``{"cmd": "open_loop", ...}`` — run an open-loop query stream (and,
  with ``commit_first``, the commit writer) through the in-process
  ``StoreServer`` API; replies one record per request and per commit.
- ``{"cmd": "quit"}`` — stop serving, write the spans, reply the peak
  resident memory of this process (``VmHWM``: unlike ``ru_maxrss`` it
  does not inherit the parent's peak across ``exec``), exit.
"""

import argparse
import asyncio
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench import tracing, workloads  # noqa: E402
from repro.hdc.store import (  # noqa: E402
    AssociativeStore,
    ServerClosed,
    ServerOverloaded,
    ServerTimeout,
    StoreHTTPServer,
    StoreServer,
    install_io,
    jsonable_result,
)


class Host:
    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.store = None
        self.server = None
        self.http = None
        self.tracer = tracing.Tracer()
        self._undo = None
        self._io = None
        self._previous_io = None

    async def handle(self, command):
        return await getattr(self, "cmd_" + command["cmd"])(command)

    async def cmd_open(self, command):
        if self.store is not None:
            self.store.memory.close()
            self.store = None
            gc.collect()
        warm = np.load(self.run_dir / "warm.npy")
        start = time.perf_counter()
        store = AssociativeStore.open(
            command["path"], workers=workloads.cores(), executor="thread",
            auto_compact_segments=command["auto_compact_segments"])
        opened = time.perf_counter()
        store.cleanup_batch(warm)
        store.topk_batch(warm, k=workloads.TOPK)
        warmed = time.perf_counter()
        self.store = store
        return {"open_s": opened - start, "warm_s": warmed - opened}

    async def cmd_serve(self, command):
        self.server = StoreServer(
            self.store, default_timeout_ms=workloads.REQUEST_TIMEOUT_MS)
        if command["http"]:
            self.http = StoreHTTPServer(self.server)
            await self.http.start()
            return {"port": self.http.port}
        await self.server.start()
        return {}

    async def cmd_begin(self, command):
        self.server.reset_stats()
        self.store.reset_pruning_stats()
        if command["trace"]:
            self._undo = tracing.instrument(self.tracer, self.store, self.server)
            self._io = self._undo.io
        else:
            self._io = tracing.MeteredIO()
            self._previous_io = install_io(self._io)
        return {}

    async def cmd_end(self, command):
        if self._undo is not None:
            self._undo()
            self._undo = None
        else:
            install_io(self._previous_io)
        return {
            "server": self.server.reset_stats(),
            "pruning": self.store.reset_pruning_stats(),
            "io": dict(self._io.counts, bytes=self._io.bytes_written),
        }

    async def cmd_open_loop(self, command):
        """Run one open-loop phase; the generator is this event loop.

        Queries fall due at the fixed send times of
        :func:`workloads.arrival_offsets` and are timed from then, so a
        stalled generator or server shows as latency. With
        ``commit_first`` a single writer coroutine commits back to back,
        batch ``commit_first``, ``commit_first + 1``, ... of
        :func:`workloads.commit_batch`, each after the previous one is
        acknowledged, until the last query has been sent.
        """
        queries = np.load(self.run_dir / "queries.npy", mmap_mode="r")
        kinds = json.loads((self.run_dir / "kinds.json").read_text())
        first, count, rate = command["first"], command["count"], command["rate"]
        commit_first = command.get("commit_first")
        state = {"acked": commit_first or 0, "started": commit_first or 0}
        records, commit_records = [], []
        offsets = workloads.arrival_offsets(count, rate)
        t0 = time.perf_counter() + 0.01
        last_send = t0 + offsets[-1]

        async def query(index, due, sent, acked_before):
            row = np.array(queries[index])
            kind = kinds[index]
            answer = None
            try:
                if kind == "topk":
                    result = await self.server.topk(row, k=workloads.TOPK)
                else:
                    result = await getattr(self.server, kind)(row)
                status = "ok"
                answer = jsonable_result(kind, result)
            except ServerOverloaded:
                status = "rejected"
            except ServerTimeout:
                status = "timeout"
            except ServerClosed:
                status = "closed"
            except Exception as exc:  # reported, counted as failed
                status = f"error: {type(exc).__name__}: {exc}"
            # atomic values only (the answer as JSON text), so the
            # collector untracks the record and the generator's own
            # bookkeeping does not trigger the store's full collections
            records.append({
                "index": index, "kind": kind, "due": due, "sent": sent,
                "end": time.perf_counter(), "status": status,
                "answer": json.dumps(answer), "acked_before": acked_before,
                "started_by_end": state["started"],
            })

        async def generate():
            pending = set()  # finished tasks are dropped as they complete
            for j in range(count):
                due = t0 + offsets[j]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                task = asyncio.create_task(
                    query(first + j, due, time.perf_counter(), state["acked"]))
                pending.add(task)
                task.add_done_callback(pending.discard)
            while pending:
                await asyncio.gather(*list(pending))

        async def write():
            if commit_first is None:
                return
            await asyncio.sleep(max(0.0, t0 - time.perf_counter()))
            index = commit_first
            while time.perf_counter() < last_send:
                op, labels, vectors = workloads.commit_batch(self.workload, self.seed, index)
                before = dict(self._io.counts, bytes=self._io.bytes_written)
                state["started"] += 1
                call = time.perf_counter()
                try:
                    if op == "delete":
                        await self.server.delete(labels)
                    else:
                        await self.server.upsert(labels, vectors)
                    status = "ok"
                except Exception as exc:  # reported, counted as failed
                    status = f"error: {type(exc).__name__}: {exc}"
                ack = time.perf_counter()
                state["acked"] += 1
                index += 1
                after = dict(self._io.counts, bytes=self._io.bytes_written)
                commit_records.append({
                    "op": op, "rows": len(labels), "call": call, "ack": ack,
                    "status": status,
                    "io": {key: after[key] - before[key] for key in after},
                })

        await asyncio.gather(generate(), write())
        return {"records": records, "commits": commit_records,
                "window_end": last_send}

    async def cmd_quit(self, command):
        if self.http is not None:
            await self.http.stop()
        elif self.server is not None:
            await self.server.stop()
        if self.store is not None:
            self.store.memory.close()
        spans = self.run_dir / "host_spans.json"
        spans.write_text(json.dumps(self.tracer.spans))
        return {"peak_rss_mb": peak_rss_kb() / 1024.0, "spans": str(spans)}


def peak_rss_kb():
    """Peak resident memory of this process image, in KiB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


async def serve_commands(host, out):
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            return  # the benchmark process went away
        command = json.loads(line)
        try:
            reply = await host.handle(command)
        except Exception:  # the run fails on the benchmark side
            reply = {"error": traceback.format_exc()}
        out.write(json.dumps(reply) + "\n")
        out.flush()
        if command["cmd"] == "quit" or "error" in reply:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)
    out, sys.stdout = sys.stdout, sys.stderr  # stdout carries replies only
    host = Host(workloads.WORKLOADS[args.workload], args.seed, args.run_dir)
    asyncio.run(serve_commands(host, out))


if __name__ == "__main__":
    main()
