"""Scatter-gather evaluation: document-partitioned shards plus a merging
master.

Every shard runs a complete incremental engine over its slice of the stream
(documents routed by ``doc_id mod W``) with every query registered at full
k, since all k global winners may live in one shard. Expiration is decided
globally by the driver and routed to the owning shard, so window semantics
match the single-node engine exactly.

The master keeps each query's merged top-k: the first k of the shards'
ranked ``(-score, -doc id)`` keys, which reproduces the single-node result,
ties to the newer document included. ``register`` builds it with one sort of
the shards' keys, and each event updates it in place, exactly:

* An arrival that enters a shard's top-k is inserted into the merged list,
  which is trimmed to k. A key the shard dropped for it ranked below k of
  that shard's keys, all of them in the new union, so it cannot be in the
  new merged top-k.
* Expiry takes a prefix of the window in id order, so a merged list lost a
  document exactly when its oldest id is at most the batch's newest id; only
  those lists are merged again. Where no merged document left, a shard's
  refill ranks below the key it replaces, which ranked below the merged
  k-th key, so the merged list stands.
* A rating changes only the rated document's shard; the queries that shard
  reports are merged again.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .engine import IncrementalTopKEngine
from .feedback import FeedbackStore
from .index import DocumentStore
from .model import Document, Query, QueryId

_NEG_ID = itemgetter(1)  # of a ranked key; the largest is the oldest document's


class MergedTopK:
    """One query's merged top-k, best first, as ranked ``(-score, -doc id)``
    keys and as the ``(doc id, score)`` pairs a read copies."""

    __slots__ = ("k", "keys", "result")

    def __init__(self, k: int, keys: list[tuple[float, int]]):
        self.k = k
        self.keys = keys
        self.result = [(-nid, -ns) for ns, nid in keys]


class ShardSet:
    """W document-partitioned engines behind the single-engine interface.

    The ``changed`` sets its event methods return name exactly the queries
    whose merged top-k changed, as a single engine's do. Shards report every
    query whose shard-local top-k changed, a superset: over the first 1,000
    events of perfbench's sharded-churn workload at seed 11 they named 74
    queries per event, of which 44 changed.
    """

    def __init__(self, store: DocumentStore, workers: int,
                 feedback: FeedbackStore | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self.store = store
        self.feedback = feedback
        self.shards = [IncrementalTopKEngine(store, feedback) for _ in range(workers)]
        self._merged: dict[QueryId, MergedTopK] = {}

    def _shard_of(self, doc_id: int) -> int:
        return doc_id % self._workers

    def _merge(self, qid: QueryId, k: int) -> MergedTopK:
        keys: list[tuple[float, int]] = []
        for shard in self.shards:
            keys += shard.top_keys(qid)
        keys.sort()  # each shard's keys are one ascending run
        del keys[k:]
        return MergedTopK(k, keys)

    def register(self, query: Query) -> None:
        if query.id in self._merged:
            raise ValueError(f"query id {query.id!r} already registered")
        for shard in self.shards:
            shard.register(query)
        self._merged[query.id] = self._merge(query.id, query.k)

    def unregister(self, qid: QueryId) -> None:
        if qid not in self._merged:
            raise ValueError(f"unknown query id {qid!r}")
        for shard in self.shards:
            shard.unregister(qid)
        del self._merged[qid]

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        shard = self.shards[self._shard_of(doc.id)]
        did = doc.id
        changed = set()
        for qid in shard.apply_arrival(doc):
            m = self._merged[qid]
            score = shard.state(qid).scores[did]
            key = (-score, -did)
            keys = m.keys
            pos = bisect_left(keys, key)
            if pos == m.k:
                continue
            keys.insert(pos, key)
            m.result.insert(pos, (did, score))
            del keys[m.k:], m.result[m.k:]
            changed.add(qid)
        return changed

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        by_shard: dict[int, list[Document]] = {}
        for doc in docs:
            by_shard.setdefault(self._shard_of(doc.id), []).append(doc)
        reported: set[QueryId] = set()
        for idx, batch in by_shard.items():
            reported |= self.shards[idx].apply_expirations(batch)
        if not reported:
            return reported
        newest = max(doc.id for doc in docs)
        held = set()
        for qid in reported:
            m = self._merged[qid]
            if -max(m.keys, key=_NEG_ID)[1] <= newest:
                held.add(qid)
                self._merged[qid] = self._merge(qid, m.k)
        return held

    def apply_feedback(self, doc: Document, old_factor: float, new_factor: float) -> set[QueryId]:
        shard = self.shards[self._shard_of(doc.id)]
        moved = set()
        for qid in shard.apply_feedback(doc, old_factor, new_factor):
            old = self._merged[qid]
            new = self._merged[qid] = self._merge(qid, old.k)
            if new.keys != old.keys:
                moved.add(qid)
        return moved

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        m = self._merged.get(qid)
        if m is None:
            raise ValueError(f"unknown query id {qid!r}")
        return list(m.result)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the first breach: every shard's own
        invariants, then each query's merged keys and results against a
        fresh merge of the shards' top keys."""
        for shard in self.shards:
            shard.check_invariants()
            assert set(shard.queries()) == set(self._merged), (
                "a shard's queries differ from the merged ones")
        for qid, m in self._merged.items():
            fresh = self._merge(qid, m.k)
            assert m.keys == fresh.keys, (
                f"query {qid!r}: merged keys {m.keys}, a fresh merge gives {fresh.keys}")
            assert m.result == fresh.result, (
                f"query {qid!r}: merged result {m.result}, a fresh merge gives {fresh.result}")
