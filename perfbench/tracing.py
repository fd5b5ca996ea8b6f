"""Spans around calls into each store layer, kept in memory.

The benchmark records spans only from its own files: :func:`instrument`
wraps the public entry point of each layer for the traced phase of a
run and :func:`instrument`'s undo callable restores the originals. The
layers, outermost first:

==============  =========================================================
span name       wrapped call
==============  =========================================================
``http``        one ``JSONHTTPClient.request`` round trip (load generator)
``serving``     ``StoreServer.cleanup`` / ``topk`` / ``similarities``
``serving.mutation``  ``StoreServer.delete`` / ``upsert``
``planner``     ``AssociativeStore.cleanup_batch`` / ``topk_batch`` /
                ``similarities_batch`` — one serving wave
``planner.mutation``  ``AssociativeStore.delete`` / ``upsert``
``planner.compact``   ``AssociativeStore.compact`` (auto-compaction)
``sharded``     ``ShardedItemMemory.cleanup_batch`` / ``topk_batch`` /
                ``similarities_batch``
``parallel``    ``ShardExecutor.map``
``backend``     ``PackedBackend.hamming_topk``
``persistence`` the planner's calls into ``persistence.upsert_rows`` /
                ``delete_rows`` / ``append_rows`` / ``save_store``
``io``          every commit-path operation of the ``faults.StoreIO`` seam
==============  =========================================================

A span is ``{"id", "name", "start", "end", "parent", "rid", ...}`` with
``time.perf_counter`` seconds, which is the same monotonic clock in every
process on the machine, so spans of the load generator and of the store
process can be compared. Parents are assigned after the run by
containment (:func:`link_parents`): serving waves run one at a time, so
the innermost containing span of the parent layer is the caller. A
serving request is tied to the wave that answered it by its query row
(:func:`link_requests`). A layer's self time is its span minus the union
of its children's spans (:func:`self_time`).
"""

import bisect
import functools
import itertools
import os
import time
import zlib

import numpy as np

from repro.hdc.backend import PackedBackend
from repro.hdc.store import ShardExecutor, ShardedItemMemory, StoreIO, install_io
from repro.hdc.store import planner as planner_module

#: child layer -> the layers its caller can belong to
PARENT_LAYERS = {
    "sharded": ("planner",),
    "parallel": ("sharded",),
    "backend": ("parallel",),
    "persistence": ("planner.mutation", "planner.compact"),
    "planner.compact": ("planner.mutation",),
    "io": ("persistence",),
}


def row_key(row):
    """Identity of a query row, equal for the int8 and the JSON-decoded form
    and in every process (unlike ``hash``, which is salted per process)."""
    return zlib.crc32(np.asarray(row, dtype=np.int8).tobytes())


class Tracer:
    """Append-only span list; safe to add to from any thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()

    def add(self, name, start, end, rid=None, parent=None, **attrs):
        span = {"id": next(self._ids), "name": name, "start": start,
                "end": end, "parent": parent, "rid": rid}
        span.update(attrs)
        self.spans.append(span)
        return span["id"]


class MeteredIO(StoreIO):
    """The persistence I/O seam with exact operation and byte counts.

    Counts every write, fsync, replace and unlink and the bytes each
    write put on disk; with a tracer it also records one ``io`` span per
    operation.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.counts = dict.fromkeys(("write", "fsync", "replace", "unlink"), 0)
        self.bytes_written = 0

    def _timed(self, op, path, call, size=None):
        start = time.perf_counter()
        call()
        end = time.perf_counter()
        if size is None and op == "write":
            size = os.path.getsize(path)
        self.counts[op] += 1
        self.bytes_written += size or 0
        if self.tracer is not None:
            self.tracer.add("io", start, end, op=op, bytes=size or 0)

    def write_bytes(self, path, data):
        self._timed("write", path,
                    lambda: super(MeteredIO, self).write_bytes(path, data),
                    size=len(data))

    def save_array(self, path, array):
        self._timed("write", path,
                    lambda: super(MeteredIO, self).save_array(path, array))

    def fsync(self, path):
        self._timed("fsync", path, lambda: super(MeteredIO, self).fsync(path))

    def replace(self, src, dst):
        self._timed("replace", dst,
                    lambda: super(MeteredIO, self).replace(src, dst))

    def unlink(self, path):
        self._timed("unlink", path, lambda: super(MeteredIO, self).unlink(path))


def _wrap_sync(tracer, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            extra = attrs(*args, **kwargs) if attrs else {}
            tracer.add(name, start, end, **extra)
    return wrapper


def _wrap_async(tracer, name, fn, attrs=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            extra = attrs(*args, **kwargs) if attrs else {}
            tracer.add(name, start, end, **extra)
    return wrapper


def _rows(queries):
    return np.atleast_2d(np.asarray(queries))


def instrument(tracer, store, server=None):
    """Wrap every layer's entry point; returns the callable that undoes it.

    ``store`` is the :class:`AssociativeStore` being served and
    ``server`` its :class:`StoreServer` (instance methods are wrapped on
    these two objects only); the inner layers are wrapped on their
    classes for the whole process.
    """
    undo = []

    def on_instance(obj, attr, wrapper):
        setattr(obj, attr, wrapper)
        undo.append(lambda: delattr(obj, attr))

    def on_owner(owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        undo.append(lambda: setattr(owner, attr, original))

    if server is not None:
        for kind in ("cleanup", "topk", "similarities"):
            on_instance(server, kind, _wrap_async(
                tracer, "serving", getattr(server, kind),
                lambda query, *a, kind=kind, **k: {"kind": kind,
                                                   "key": row_key(query)}))
        for kind in ("delete", "upsert"):
            on_instance(server, kind, _wrap_async(
                tracer, "serving.mutation", getattr(server, kind),
                lambda *a, kind=kind, **k: {"kind": kind}))
    for kind in ("cleanup_batch", "topk_batch", "similarities_batch"):
        on_instance(store, kind, _wrap_sync(
            tracer, "planner", getattr(store, kind),
            lambda queries, *a, kind=kind, **k: {
                "kind": kind, "keys": [row_key(row) for row in _rows(queries)]}))
    for kind in ("delete", "upsert"):
        on_instance(store, kind, _wrap_sync(
            tracer, "planner.mutation", getattr(store, kind),
            lambda labels, *a, kind=kind, **k: {"kind": kind,
                                                "rows": len(labels)}))
    on_instance(store, "compact",
                _wrap_sync(tracer, "planner.compact", store.compact))
    for kind in ("cleanup_batch", "topk_batch", "similarities_batch"):
        on_owner(ShardedItemMemory, kind, _wrap_sync(
            tracer, "sharded", getattr(ShardedItemMemory, kind)))
    on_owner(ShardExecutor, "map", _traced_map(tracer, ShardExecutor.map))
    on_owner(PackedBackend, "hamming_topk", _wrap_sync(
        tracer, "backend", PackedBackend.hamming_topk,
        lambda self, queries, rows, k, bounds=None: {
            "compares": _rows(queries).shape[0] * np.shape(rows)[0],
            "bytes_in": int(np.asarray(queries).nbytes + np.asarray(rows).nbytes),
        }))
    for name in ("append_rows", "delete_rows", "upsert_rows", "save_store"):
        on_owner(planner_module, name, _wrap_sync(
            tracer, "persistence", getattr(planner_module, name),
            lambda *a, name=name, **k: {"op": name}))
    seam = MeteredIO(tracer)
    previous = install_io(seam)
    undo.append(lambda: install_io(previous))

    def restore():
        while undo:
            undo.pop()()
    restore.io = seam
    return restore


def _traced_map(tracer, original):
    @functools.wraps(original)
    def wrapper(self, fn, items):
        items = list(items)
        start = time.perf_counter()
        try:
            return original(self, fn, items)
        finally:
            tracer.add("parallel", start, time.perf_counter(),
                       tasks=len(items), workers=self.workers)
    return wrapper


# -- analysis ------------------------------------------------------------------ #

def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals
        if min(end, e) > max(start, s)
    )
    total, reach = 0.0, start
    for s, e in clipped:
        if e <= reach:
            continue
        total += e - max(s, reach)
        reach = e
    return total


def self_time(span, children):
    """Span duration minus the part of it its children cover."""
    return (span["end"] - span["start"]) - covered(
        span["start"], span["end"], [(c["start"], c["end"]) for c in children])


def link_parents(spans, parent_layers=PARENT_LAYERS):
    """Set ``parent`` of each span to the innermost containing span of its
    parent layers (spans already linked keep their parent)."""
    by_layer = {}
    for span in spans:
        by_layer.setdefault(span["name"], []).append(span)
    for layer in by_layer.values():
        layer.sort(key=lambda s: s["start"])
    for name, parents in parent_layers.items():
        candidates = sorted(
            (s for p in parents for s in by_layer.get(p, ())),
            key=lambda s: s["start"])
        starts = [s["start"] for s in candidates]
        for span in by_layer.get(name, ()):
            if span["parent"] is not None:
                continue
            index = bisect.bisect_right(starts, span["start"]) - 1
            while index >= 0:
                candidate = candidates[index]
                if candidate["end"] >= span["end"]:
                    span["parent"] = candidate["id"]
                    break
                index -= 1


def link_requests(requests, waves):
    """Tie each request to the wave that answered it by its query key.

    A request is answered by the first wave, in start order, that starts
    after it, ends before it and carries its key; requests with equal
    keys are matched first come, first served. Sets ``request["wave"]``
    to the wave's id (``None`` when no wave matches).
    """
    pending = {}
    for request in sorted(requests, key=lambda r: r["start"]):
        request["wave"] = None
        pending.setdefault(request["key"], []).append(request)
    for wave in sorted(waves, key=lambda w: w["start"]):
        for key in wave["keys"]:
            queue = pending.get(key, ())
            for index, request in enumerate(queue):
                if request["start"] <= wave["start"] and request["end"] >= wave["end"]:
                    request["wave"] = wave["id"]
                    del queue[index]
                    break
