"""Query-partitioned evaluation: W engines over one window, each owning a
disjoint slice of the queries.

Every shard indexes every ranked document and sees every arrival, expiry
batch and rating, so each query is searched by its owner exactly as one
engine searches it: the summed search counts and every result equal a
single engine's. No result is merged. A query is registered on the shard
with the fewest queries (the lowest index on a tie) and read from there.
Since the slices are disjoint, the union of the shards' ``changed`` sets
names exactly the queries whose result changed.

All shards share the one :class:`FeedbackStore`, so they read the same
boost factors.
"""

from __future__ import annotations

from .engine import IncrementalTopKEngine
from .feedback import FeedbackStore
from .index import DocumentStore, TermIndex
from .model import Document, Query, QueryId


class ShardSet:
    """W query-partitioned engines behind the single-engine interface."""

    def __init__(self, store: DocumentStore, workers: int,
                 feedback: FeedbackStore | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.feedback = feedback if feedback is not None else FeedbackStore()
        self.shards = [IncrementalTopKEngine(store, self.feedback) for _ in range(workers)]
        self._owner: dict[QueryId, IncrementalTopKEngine] = {}

    def register(self, query: Query) -> None:
        if query.id in self._owner:
            raise ValueError(f"query id {query.id!r} already registered")
        shard = min(self.shards, key=lambda s: len(s.queries()))
        shard.register(query)
        self._owner[query.id] = shard

    def unregister(self, qid: QueryId) -> None:
        shard = self._owner.pop(qid, None)
        if shard is None:
            raise ValueError(f"unknown query id {qid!r}")
        shard.unregister(qid)

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        changed: set[QueryId] = set()
        for shard in self.shards:
            changed |= shard.apply_arrival(doc)
        return changed

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        changed: set[QueryId] = set()
        for shard in self.shards:
            changed |= shard.apply_expirations(docs)
        return changed

    def apply_feedback(self, doc: Document, old_factor: float, new_factor: float) -> set[QueryId]:
        changed: set[QueryId] = set()
        for shard in self.shards:
            changed |= shard.apply_feedback(doc, old_factor, new_factor)
        return changed

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        shard = self._owner.get(qid)
        if shard is None:
            raise ValueError(f"unknown query id {qid!r}")
        return shard.current_result(qid)

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the first breach: every shard's own
        invariants; each registered query held by exactly one shard, its
        owner; and every shard's inverted lists holding the same runs."""
        held: dict[QueryId, IncrementalTopKEngine] = {}
        for shard in self.shards:
            shard.check_invariants()
            for qid in shard.queries():
                assert qid not in held, f"query {qid!r} is registered on two shards"
                held[qid] = shard
        assert held == self._owner, "the owner map disagrees with the shards' queries"
        first, *rest = indexes = [shard.index for shard in self.shards]
        for tid in set().union(*(index.terms() for index in indexes)):
            want = _runs(first, tid)
            for index in rest:
                assert _runs(index, tid) == want, f"term {tid}: shards index different postings"


def _runs(index: TermIndex, tid: int) -> tuple | None:
    lst = index.list_for(tid)
    return (lst.weights, lst.runs) if lst else None
