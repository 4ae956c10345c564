"""Full-rescan evaluation: the correctness oracle and benchmark comparator.

``naive_top_k`` scores every windowed non-duplicate document from scratch;
as the oracle it applies the duplicate rule itself instead of trusting the
driver's screening. :class:`FullRescanEngine`, the baseline the incremental
engine is measured against, does that for all queries once per event.
"""

from __future__ import annotations

from heapq import nlargest

from .feedback import FeedbackStore
from .index import DocumentStore
from .model import Document, Query, QueryId, ScoredDoc


def _window(store: DocumentStore) -> list[tuple[int, dict[int, float]]]:
    """(id, term weights) of every windowed non-duplicate document."""
    return [(d.id, d.composition.weights) for d in store.documents()
            if d.duplicate_of is None]


def _rescan(items: tuple[tuple[int, float], ...], k: int,
            window: list[tuple[int, dict[int, float]]],
            feedback: FeedbackStore | None) -> list[tuple[int, float]]:
    """The top k of ``window`` for one query as (doc id, score), best first."""
    factors = feedback.factors if feedback else None
    best: list[tuple[float, int]] = []
    for did, weights in window:
        # dot_score's sum, inlined: this loop is the naive engine's whole cost
        s = 0.0
        for tid, wq in items:
            w = weights.get(tid)
            if w is not None:
                s += wq * w
        if s <= 0.0:
            continue
        if factors:
            f = factors.get(did)
            if f is not None:
                s *= f
        best.append((s, did))
    return [(did, s) for s, did in nlargest(k, best)]


def naive_top_k(query: Query, store: DocumentStore,
                feedback: FeedbackStore | None = None) -> list[ScoredDoc]:
    """Exact top-k by scoring the entire window.

    Duplicates and zero-score documents are never results; ties break toward
    the newer document.
    """
    top = _rescan(query.items, query.k, _window(store), feedback)
    return [ScoredDoc(did, s) for did, s in top]


class FullRescanEngine:
    """Recomputes every query's result from the whole window in
    :meth:`finalize_event`. The ``apply_*`` methods do nothing, so results go
    stale unless the caller runs ``finalize_event()`` after each event, as
    ``streamtopk.bench`` does and ``StreamDriver.process`` does not."""

    def __init__(self, store: DocumentStore, feedback: FeedbackStore | None = None):
        self.store = store
        self.feedback = feedback
        self._queries: dict[QueryId, Query] = {}
        self._results: dict[QueryId, list[tuple[int, float]]] = {}

    def register(self, query: Query) -> None:
        if query.id in self._queries:
            raise ValueError(f"query id {query.id!r} already registered")
        self._queries[query.id] = query
        self._results[query.id] = _rescan(query.items, query.k, _window(self.store),
                                          self.feedback)

    def unregister(self, qid: QueryId) -> None:
        if qid not in self._queries:
            raise ValueError(f"unknown query id {qid!r}")
        del self._queries[qid]
        del self._results[qid]

    def check_invariants(self) -> None:
        """Nothing to check: a rescan baseline states no invariant beyond its
        results, which the oracle checks."""

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        return set()

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        return set()

    def apply_feedback(self, doc: Document, old_factor: float, new_factor: float) -> set[QueryId]:
        return set()

    def finalize_event(self) -> set[QueryId]:
        """The per-event full rescan; this is the measured cost of this engine."""
        window = _window(self.store)
        changed: set[QueryId] = set()
        for qid, query in self._queries.items():
            result = _rescan(query.items, query.k, window, self.feedback)
            if result != self._results[qid]:
                changed.add(qid)
            self._results[qid] = result
        return changed

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        if qid not in self._results:
            raise ValueError(f"unknown query id {qid!r}")
        return list(self._results[qid])
