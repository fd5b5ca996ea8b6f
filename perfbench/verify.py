"""The correctness gate: every answer against a direct store call.

Answers are compared in their wire form (:func:`jsonable_result`), which
is exact: similarity doubles survive JSON unchanged, so an HTTP answer,
an in-process served answer and a direct call agree bit for bit or the
request counts as failed.
"""

import numpy as np

from repro.hdc.store import AssociativeStore, jsonable_result

from . import workloads

BLOCK = 256


def direct_answers(store, queries, kinds, group=None):
    """Expected wire-form answer of each query row from direct batch calls.

    ``group`` optionally gives each row a sort key; rows with equal keys
    are batched together (on clustered data, one cluster per batch lets
    pruning skip most shards, which keeps the check fast).
    """
    answers = [None] * len(kinds)
    for kind in sorted(set(kinds)):
        rows = [i for i, k in enumerate(kinds) if k == kind]
        if group is not None:
            rows.sort(key=lambda i: group[i])
        for start in range(0, len(rows), BLOCK):
            block = rows[start : start + BLOCK]
            batch = np.asarray(queries[block])
            if kind == "cleanup":
                labels, sims = store.cleanup_batch(batch)
                results = [(label, float(sim)) for label, sim in zip(labels, sims)]
            elif kind == "topk":
                results = store.topk_batch(batch, k=workloads.TOPK)
            else:
                results = list(store.similarities_batch(batch))
            for index, result in zip(block, results):
                answers[index] = jsonable_result(kind, result)
    return answers


def mark_wrong(records, queries, kinds, store, group=None):
    """Set ``record["wrong"]`` from direct answers on ``store``."""
    indices = sorted({r["index"] for r in records})
    position = {index: i for i, index in enumerate(indices)}
    answers = direct_answers(
        store, np.asarray(queries[indices]), [kinds[i] for i in indices],
        None if group is None else [group[i] for i in indices])
    for record in records:
        record["wrong"] = (record["status"] == "ok"
                           and record["answer"] != answers[position[record["index"]]])


def apply_commit(store, op, labels, vectors):
    if op == "delete":
        store.delete(labels)
    else:
        store.upsert(labels, vectors)


def replay_commit_history(reference, workload, seed, commits, records, queries):
    """Check commit_mix answers against the serial history.

    ``reference`` is an in-memory store holding the initial items; the
    acknowledged commits are applied to it in order. A query that was
    sent after ``acked_before`` commits were acknowledged and answered
    before commit ``started_by_end`` started must equal the reference at
    one of the generations in between: the serving barrier lets every
    query see exactly one snapshot. Sets ``record["wrong"]``;
    ``reference`` ends at the final generation.
    """
    for record in records:
        record["wrong"] = record["status"] == "ok"
    for generation in range(len(commits) + 1):
        due = [r for r in records if r["wrong"]
               and r["acked_before"] <= generation <= r["started_by_end"]]
        if due:
            answers = direct_answers(
                reference, np.asarray(queries[[r["index"] for r in due]]),
                [r["kind"] for r in due])
            for record, answer in zip(due, answers):
                if record["answer"] == answer:
                    record["wrong"] = False
        if generation < len(commits) and commits[generation]["status"] == "ok":
            op, labels, vectors = workloads.commit_batch(workload, seed, generation)
            apply_commit(reference, op, labels, vectors)


def durable_mismatches(path, reference, probes):
    """Reopen the committed store and compare it with the serial history.

    Every acknowledged commit must be present: the reopened store must
    hold the reference's labels in the reference's insertion order and
    give the same similarities, cleanups and top-k lists on ``probes``.
    Returns the list of differences found (empty when durable).
    """
    reopened = AssociativeStore.open(path)
    try:
        problems = []
        if list(reopened.labels) != list(reference.labels):
            problems.append("labels or their order differ")
        if not np.array_equal(reopened.similarities_batch(probes),
                              reference.similarities_batch(probes)):
            problems.append("similarities differ")
        kinds = ["cleanup", "topk"] * len(probes)
        rows = np.repeat(probes, 2, axis=0)
        if direct_answers(reopened, rows, kinds) != direct_answers(reference, rows, kinds):
            problems.append("cleanup or top-k answers differ")
        return problems
    finally:
        reopened.memory.close()
