"""Workload definitions and their seeded generators.

Every input of a run — stored items, query rows, request kinds, commit
batches — is a pure function of the workload and the ``--seed``
argument; the store only ever sees the generated arrays. Each workload
records why it exists and which layers it loads or bypasses, beside its
definition.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from repro.hdc import random_bipolar

#: hypervector dimension (16 uint64 words per packed row)
D = 1024
SHARDS = 8
#: independent set-ups per run: at least SETUP_REPEATS, and more (up to
#: SETUP_MAX) until they took SETUP_MIN_S, so a cheap set-up is sampled
#: often enough for a steady median; ``setup_s`` is their median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 15
#: serving deadline for every query; a request past it fails
REQUEST_TIMEOUT_MS = 5000.0
#: latency limit of ``max_qps_at_slo``, on the supported tail percentile
SLO_MS = 50.0
TOPK = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: which layers the workload loads, and what it predicts
    rationale: str
    items: int
    data: str  # "uniform" | "clustered"
    routing: str
    #: request mix: (kind, share); kind is "cleanup" / "topk" / "similarities"
    mix: tuple
    #: bits flipped in a query relative to the row it is a noisy copy of
    noise_bits: int
    #: open-loop offered rate (queries/s); ``None`` for the closed loop
    rate: float = None
    #: offered-rate ladder of ``max_qps_at_slo`` (queries/s)
    ladder: tuple = ()
    ladder_seconds: float = 0.0
    #: distinct query rows of the closed loop's pool (0: every query fresh)
    pool: int = 0
    #: share of fresh queries from a class no stored item belongs to (a
    #: uniformly random row, near no prototype); placed one per
    #: ``1 / unseen_share`` consecutive queries
    unseen_share: float = 0.0
    #: commit_mix: rows per commit and the compaction policy
    commit_rows: int = 0
    auto_compact_segments: int = None


WIRE_SMALL = Workload(
    name="wire_small",
    rationale=(
        "A persisted 10k-item uniform store (8 shards, D=1024, 1.3 MB, fits "
        "in cache) behind StoreHTTPServer in its own process, driven by a "
        "closed loop over nproc keep-alive JSONHTTPClient connections from "
        "the benchmark process. Mostly /v1/cleanup, some /v1/topk (k=10) and "
        "a small share of /v1/similarities (10k floats per response). Queries "
        "come from a 64-row pool, so most requests repeat an earlier one. "
        "The kernel scan is small, so HTTP framing, JSON decode/encode and "
        "the serving layer's max_wait_ms deadline dominate; with nproc "
        "requests in flight batching and pruning can do nothing. Loads: "
        "http, serving. Bypasses: pruning (uniform data). Prediction: a "
        "kernel change barely moves it, a wire or cache change does."),
    items=10_000, data="uniform", routing="hash",
    mix=(("cleanup", 0.80), ("topk", 0.15), ("similarities", 0.05)),
    noise_bits=D // 8, pool=64,
)

SERVE_CLUSTERED = Workload(
    name="serve_clustered",
    rationale=(
        "A persisted 100k-item store (12.8 MB packed, larger than the "
        "per-core L2) with one random prototype per shard and noisy members "
        "placed shard-pure (round-robin routing), the pruning_unbanded "
        "generator of benchmarks/bench_store.py. Single cleanup/topk "
        "requests arrive open loop at 120/s on a fixed schedule through the "
        "in-process StoreServer API (about a third of the measured "
        "capacity, so a slow spell of a shared machine does not tip the "
        "queue, and 120/s gives a 25 s run three windows of 1000 queries "
        "for p99); fresh queries "
        "draw their cluster with Zipf popularity and never repeat, and one "
        "in every 20 is from an unseen class (a random row), the zero-shot "
        "case, which pruning cannot cut, so it scans most shards: about 5x "
        "the work of a clustered query. These set query_p99_ms, so the tail "
        "reads the unpruned kernel scan rather than how often a shared "
        "machine stalls. Kernel, micro-batching and "
        "centroid pruning do nearly all the work and conflict: a shard is "
        "skipped only when every query of a wave can skip it, so bigger "
        "waves skip less. Loads: serving, planner, sharded (pruning), "
        "parallel, backend. Bypasses: http, persistence commits. Any "
        "batching, pruning or kernel change shows here. (The store is "
        "100k, not 250k items, because setup runs three times a run.)"),
    items=100_000, data="clustered", routing="round_robin",
    mix=(("cleanup", 0.70), ("topk", 0.30)),
    noise_bits=D // 16, rate=120.0, unseen_share=0.05,
    ladder=(300.0, 400.0, 500.0, 600.0, 800.0), ladder_seconds=1.5,
)

COMMIT_MIX = Workload(
    name="commit_mix",
    rationale=(
        "A persisted 50k-item uniform store opened with "
        "auto_compact_segments=16. One writer commits back to back through "
        "StoreServer, a fixed cycle of 64-row commits: upsert of new labels "
        "(an append), delete, upsert of existing labels; compaction fires "
        "about every five commits, dozens of times a run. Beside it single "
        "queries arrive open loop at 40/s on a fixed schedule; "
        "each waits at the mutation barrier for the commit in progress, so "
        "query latency is what a commit costs readers, averaged over "
        "hundreds of commits (the tail: compaction commits). Segment and "
        "delta writes, fsyncs, the manifest swap, tombstone replay and "
        "compaction do the work. Loads: persistence, planner, serving's "
        "mutation barrier. Bypasses: http and pruning (uniform data). "
        "(50k, not 100k items, and a closed-loop writer: with a 100k store "
        "or commits on a timer, a run saw only three or four ~0.5 s "
        "compactions and the query tail did not repeat from run to run.)"),
    items=50_000, data="uniform", routing="hash",
    mix=(("cleanup", 0.70), ("topk", 0.30)),
    noise_bits=D // 8, rate=40.0,
    commit_rows=64, auto_compact_segments=16,
)

WORKLOADS = {w.name: w for w in (WIRE_SMALL, SERVE_CLUSTERED, COMMIT_MIX)}

#: the commit cycle of commit_mix
COMMIT_CYCLE = ("append", "delete", "upsert")


def more_setups(durations):
    """Whether a run makes another set-up after those that took ``durations``."""
    done = len(durations)
    return done < SETUP_MAX and (done < SETUP_REPEATS or sum(durations) < SETUP_MIN_S)


def cores():
    """CPUs this process may run on (the store's worker count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _flip(rows, bits, rng):
    """Flip ``bits`` random components (with repeats) of each row in place."""
    columns = rng.integers(0, rows.shape[1], size=(rows.shape[0], bits))
    rows[np.repeat(np.arange(rows.shape[0]), bits), columns.ravel()] *= -1
    return rows


def item_labels(workload):
    return [f"item{i:07d}" for i in range(workload.items)]


def prototypes(seed):
    """One random prototype per shard (clustered data)."""
    return random_bipolar(SHARDS, D, _rng(seed, 1))


def items(workload, seed):
    """The ``(items, D)`` int8 bipolar rows the store is built from."""
    rng = _rng(seed, 2)
    if workload.data == "uniform":
        return random_bipolar(workload.items, D, rng)
    # cluster i % SHARDS, so round-robin routing keeps every shard pure
    rows = prototypes(seed)[np.arange(workload.items) % SHARDS]
    return _flip(rows, workload.noise_bits, rng)


def request_kinds(workload, seed, count, stream=3):
    """``count`` request kinds drawn from the workload's mix."""
    names = [kind for kind, _ in workload.mix]
    shares = np.array([share for _, share in workload.mix])
    picks = _rng(seed, stream).choice(len(names), size=count, p=shares / shares.sum())
    return [names[i] for i in picks]


def pool_queries(workload, seed, rows):
    """The closed loop's query pool: noisy copies of random stored rows."""
    rng = _rng(seed, 4)
    picked = rows[rng.choice(len(rows), size=workload.pool, replace=False)]
    return _flip(picked.copy(), workload.noise_bits, rng)


def pool_sequence(workload, seed, connection, count):
    """Request ``(kind, pool index)`` sequence of one closed-loop connection."""
    kinds = request_kinds(workload, seed, count, stream=100 + connection)
    picks = _rng(seed, 200 + connection).integers(0, workload.pool, size=count)
    return list(zip(kinds, picks.tolist()))


def arrival_offsets(count, rate):
    """Send times (seconds from the phase start) of ``count`` open-loop
    requests on a fixed schedule: one every ``1 / rate`` seconds.

    Random (Poisson) bursts would form mixed-cluster waves on
    serve_clustered that lose their pruning and queue the next requests
    behind them; a run's tail would then hold only a few such cascades and
    vary from seed to seed. Waves still form here once a request takes
    longer than ``1 / rate``, as on the rungs of the ladder and behind a
    commit.
    """
    return np.arange(count) / float(rate)


def cluster_weights():
    """Zipf popularity of the clusters: cluster ``c`` has weight ``1/(c+1)``."""
    weights = 1.0 / np.arange(1, SHARDS + 1)
    return weights / weights.sum()


def fresh_queries(workload, seed, count, rows=None):
    """``count`` never-repeating query rows.

    Clustered data: a prototype drawn by :func:`cluster_weights`, noised.
    Uniform data: a noisy copy of a random row of ``rows``. With an
    ``unseen_share``, one query at a seeded place in every ``1 /
    unseen_share`` consecutive ones is a random row instead.
    """
    rng = _rng(seed, 5)
    if workload.data == "clustered":
        clusters = rng.choice(SHARDS, size=count, p=cluster_weights())
        picked = prototypes(seed)[clusters]
    else:
        picked = rows[rng.integers(0, len(rows), size=count)]
    queries = _flip(picked.copy(), workload.noise_bits, rng)
    if workload.unseen_share:
        period = round(1 / workload.unseen_share)
        starts = np.arange(0, count, period)
        unseen = starts + _rng(seed, 8).integers(0, period, size=len(starts))
        unseen = unseen[unseen < count]
        queries[unseen] = random_bipolar(len(unseen), D, _rng(seed, 9))
    return queries


@functools.lru_cache(maxsize=4)
def _label_order(seed, items):
    return _rng(seed, 6).permutation(items)


def commit_batch(workload, seed, index):
    """The ``index``-th commit of commit_mix: ``(op, labels, vectors)``.

    The cycle is :data:`COMMIT_CYCLE`. Appends enroll new labels. Deletes
    walk one half of a seeded permutation of the initial labels and, once
    that half is used up, the batches appended that many turns earlier;
    upserts cycle through the other half. So no label is deleted twice or
    upserted after its deletion, however long the run. ``vectors`` is
    ``None`` for a delete.
    """
    op = COMMIT_CYCLE[index % len(COMMIT_CYCLE)]
    turn = index // len(COMMIT_CYCLE)
    rows = workload.commit_rows
    half = workload.items // 2
    turns = half // rows  # batches in one half of the initial labels
    if op == "append" or (op == "delete" and turn >= turns):
        batch = turn if op == "append" else turn - turns
        labels = [f"new{batch:05d}.{j:03d}" for j in range(rows)]
    else:
        order = _label_order(seed, workload.items)
        base = turn * rows if op == "delete" else half + (turn % turns) * rows
        labels = [f"item{i:07d}" for i in order[base : base + rows]]
    vectors = None
    if op != "delete":
        vectors = random_bipolar(rows, D, _rng(seed, 1000 + index))
    return op, labels, vectors
