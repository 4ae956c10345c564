"""Full-rescan evaluation: the correctness oracle and benchmark comparator.

``naive_top_k`` scores every windowed non-duplicate document from scratch.
:class:`FullRescanEngine` does that for all queries after every event.
:class:`BufferedRescanEngine` keeps a per-query buffer of the top ``k_max``
documents (``k_max = c * k``) so most events touch only the buffer and a
full rescan runs only when a buffer can no longer certify k exact results.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import nlargest

from .feedback import FeedbackStore
from .index import DocumentStore
from .model import Document, Query, QueryId, ScoredDoc, dot_score


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
                feedback: FeedbackStore | None = None,
                k: int | None = None) -> list[ScoredDoc]:
    """Exact top-k by scoring the entire window.

    Duplicates and zero-score documents are never results; ties break toward
    the newer document.
    """
    top = _rescan(query.items, query.k if k is None else k, _window(store), feedback)
    return [ScoredDoc(did, s, True) for did, s in top]


class FullRescanEngine:
    """Recomputes every query's result from the whole window on each event."""

    def __init__(self, store: DocumentStore, feedback: FeedbackStore | None = None):
        self.store = store
        self.feedback = feedback
        self._queries: dict[QueryId, Query] = {}
        self._results: dict[QueryId, list[tuple[int, float]]] = {}
        self.rescan_count = 0

    def register(self, query: Query) -> None:
        if query.id in self._queries:
            raise ValueError(f"query id {query.id!r} already registered")
        self._queries[query.id] = query
        self._results[query.id] = self._compute(query, _window(self.store))

    def unregister(self, qid: QueryId) -> None:
        if qid not in self._queries:
            raise ValueError(f"unknown query id {qid!r}")
        del self._queries[qid]
        del self._results[qid]

    def _compute(self, query: Query,
                 window: list[tuple[int, dict[int, float]]]) -> list[tuple[int, float]]:
        self.rescan_count += 1
        return _rescan(query.items, query.k, window, self.feedback)

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
            result = self._compute(query, window)
            if result != self._results[qid]:
                changed.add(qid)
            self._results[qid] = result
        return changed

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        if qid not in self._results:
            raise ValueError(f"unknown query id {qid!r}")
        return list(self._results[qid])


class KmaxBuffer:
    """Exact top-e buffer for one query, e <= k_max.

    ``complete`` marks that the buffer holds every matching windowed
    document, in which case any prefix is exact regardless of length.
    Otherwise the buffer is exactly the window's top ``len(buffer)`` and an
    arrival may only be inserted when it lands strictly inside that prefix;
    anything landing at the end cannot be certified and is dropped.
    """

    __slots__ = ("k", "k_max", "keys", "scores", "complete")

    def __init__(self, k: int, k_max: int):
        self.k = k
        self.k_max = k_max
        self.keys: list[tuple[float, int]] = []  # (-score, -doc_id)
        self.scores: dict[int, float] = {}
        self.complete = True

    def __len__(self) -> int:
        return len(self.keys)

    def insert(self, doc_id: int, score: float) -> None:
        key = (-score, -doc_id)
        pos = bisect_left(self.keys, key)
        if not self.complete and pos >= len(self.keys):
            return  # cannot certify a rank past the exact prefix
        self.keys.insert(pos, key)
        self.scores[doc_id] = score
        if len(self.keys) > self.k_max:
            ns, nid = self.keys.pop()
            del self.scores[int(-nid)]
            self.complete = False

    def remove(self, doc_id: int) -> bool:
        s = self.scores.pop(doc_id, None)
        if s is None:
            return False
        key = (-s, -doc_id)
        del self.keys[bisect_left(self.keys, key)]
        return True

    def needs_rescan(self) -> bool:
        return len(self.keys) < self.k and not self.complete

    def top_k(self) -> list[tuple[int, float]]:
        return [(int(-nid), -ns) for ns, nid in self.keys[: self.k]]


class BufferedRescanEngine:
    """Full-rescan baseline with k_max result buffering.

    Buffers absorb arrivals and expirations; a query is recomputed from
    scratch (refilling the buffer to k_max) only when its buffer drops below
    k certified entries.
    """

    def __init__(self, store: DocumentStore, feedback: FeedbackStore | None = None,
                 k_mult: int = 2):
        if k_mult < 1:
            raise ValueError("k_mult must be >= 1")
        self.store = store
        self.feedback = feedback
        self.k_mult = k_mult
        self._queries: dict[QueryId, Query] = {}
        self._buffers: dict[QueryId, KmaxBuffer] = {}
        self.rescan_count = 0

    def register(self, query: Query) -> None:
        if query.id in self._queries:
            raise ValueError(f"query id {query.id!r} already registered")
        self._queries[query.id] = query
        buf = KmaxBuffer(query.k, query.k * self.k_mult)
        self._buffers[query.id] = buf
        self._rescan(query, buf)

    def unregister(self, qid: QueryId) -> None:
        if qid not in self._queries:
            raise ValueError(f"unknown query id {qid!r}")
        del self._queries[qid]
        del self._buffers[qid]

    def _rescan(self, query: Query, buf: KmaxBuffer) -> None:
        self.rescan_count += 1
        top = naive_top_k(query, self.store, self.feedback, k=buf.k_max)
        buf.keys = [(-sd.score, -sd.doc_id) for sd in top]
        buf.scores = {sd.doc_id: sd.score for sd in top}
        buf.complete = len(buf.keys) < buf.k_max

    def _score(self, query: Query, doc: Document) -> float:
        s = dot_score(query.items, doc.composition.weights)
        if s > 0.0 and self.feedback:
            s *= self.feedback.factor(doc.id)
        return s

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        if doc.is_duplicate:
            return set()
        changed: set[QueryId] = set()
        for qid, query in self._queries.items():
            s = self._score(query, doc)
            if s <= 0.0:
                continue
            buf = self._buffers[qid]
            before = buf.top_k()
            buf.insert(doc.id, s)
            if buf.top_k() != before:
                changed.add(qid)
        return changed

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        changed: set[QueryId] = set()
        for qid, buf in self._buffers.items():
            touched = False
            for doc in docs:
                if not doc.is_duplicate and buf.remove(doc.id):
                    touched = True
            if touched:
                changed.add(qid)
                if buf.needs_rescan():
                    self._rescan(self._queries[qid], buf)
        return changed

    def apply_feedback(self, doc: Document, old_factor: float, new_factor: float) -> set[QueryId]:
        if doc.is_duplicate or new_factor == old_factor:
            return set()
        changed: set[QueryId] = set()
        for qid, query in self._queries.items():
            buf = self._buffers[qid]
            before = buf.top_k()
            present = buf.remove(doc.id)
            s = self._score(query, doc)
            if s > 0.0:
                if present:
                    # boosted score only rises, so the slot stays certified
                    key = (-s, -doc.id)
                    buf.keys.insert(bisect_left(buf.keys, key), key)
                    buf.scores[doc.id] = s
                else:
                    buf.insert(doc.id, s)
            if buf.top_k() != before:
                changed.add(qid)
        return changed

    def finalize_event(self) -> set[QueryId]:
        return set()

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        buf = self._buffers.get(qid)
        if buf is None:
            raise ValueError(f"unknown query id {qid!r}")
        return buf.top_k()
