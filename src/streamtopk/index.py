"""Sliding-window document store, impact-ordered inverted lists, and
per-term threshold registries.

An inverted list is stored as the unit the top-k search pops: one run of
document ids per distinct impact weight, runs heaviest first, ids ascending
within a run. An arrival appends to its run and a FIFO expiry removes a
run's head; only a feedback re-weight moves an id in the middle of a run.
``bisect`` on the short list of distinct weights finds a run. Threshold
trees are sorted parallel arrays probed with ``bisect`` as well.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass
from operator import neg
from typing import Iterable, Iterator

from .model import Document, QueryId

COUNT_BASED = "count"
TIME_BASED = "time"


@dataclass(frozen=True)
class WindowPolicy:
    """Window validity rule: the N most recent documents (count) or the
    documents younger than N ticks (time)."""

    kind: str
    capacity: int

    def __post_init__(self) -> None:
        if self.kind not in (COUNT_BASED, TIME_BASED):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.capacity < 1:
            raise ValueError("window capacity must be >= 1")

    @classmethod
    def count_based(cls, n: int) -> "WindowPolicy":
        return cls(COUNT_BASED, n)

    @classmethod
    def time_based(cls, n: int) -> "WindowPolicy":
        return cls(TIME_BASED, n)


class DocumentStore:
    """FIFO store of the currently valid documents.

    Documents enter at the tail in strictly increasing id order, with
    arrival times that never decrease, and leave from the head when the
    window policy expires them.
    """

    def __init__(self, policy: WindowPolicy):
        self.policy = policy
        self._docs: deque[Document] = deque()
        self._by_id: dict[int, Document] = {}

    def insert(self, doc: Document) -> None:
        if self._docs:
            last = self._docs[-1]
            if doc.id <= last.id:
                raise ValueError(f"out-of-order document id {doc.id} after {last.id}")
            if doc.arrival_time < last.arrival_time:
                raise ValueError(f"arrival time {doc.arrival_time} of document {doc.id} "
                                 f"is below {last.arrival_time} of document {last.id}")
        self._docs.append(doc)
        self._by_id[doc.id] = doc

    def evict_due(self, now: int) -> list[Document]:
        """Remove and return all head documents the policy invalidates.

        For count-based windows the head is trimmed while the store exceeds
        capacity; for time-based windows while the head's age reaches it.
        Returned documents are in ascending id order.
        """
        expired: list[Document] = []
        docs = self._docs
        if self.policy.kind == COUNT_BASED:
            cap = self.policy.capacity
            while len(docs) > cap:
                expired.append(docs.popleft())
        else:
            cap = self.policy.capacity
            while docs and now - docs[0].arrival_time >= cap:
                expired.append(docs.popleft())
        for d in expired:
            del self._by_id[d.id]
        return expired

    def get(self, doc_id: int) -> Document | None:
        return self._by_id.get(doc_id)

    def documents(self) -> Iterator[Document]:
        return iter(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._by_id


class InvertedList:
    """Impact entries for one term, grouped into equal-weight runs.

    ``weights`` holds the term's distinct weights, heaviest first, and
    ``runs[i]`` the ids of the documents indexed at ``weights[i]``, in
    ascending id order. No run is empty.
    """

    __slots__ = ("weights", "runs")

    def __init__(self) -> None:
        self.weights: list[float] = []
        self.runs: list[list[int]] = []

    def run_at_or_below(self, weight: float) -> int:
        """Index of the first run whose weight is <= ``weight`` (the resume
        position for a stored threshold); ``len(weights)`` if none is."""
        return bisect_left(self.weights, -weight, key=neg)

    def insert(self, doc_id: int, weight: float) -> None:
        if weight <= 0:
            raise ValueError("impact weights must be positive")
        i = self.run_at_or_below(weight)
        if i < len(self.weights) and self.weights[i] == weight:
            insort(self.runs[i], doc_id)  # an arrival's id is the largest: appends
        else:
            self.weights.insert(i, weight)
            self.runs.insert(i, [doc_id])

    def remove(self, doc_id: int, weight: float) -> None:
        i = self.run_at_or_below(weight)
        if i < len(self.weights) and self.weights[i] == weight:
            run = self.runs[i]
            j = bisect_left(run, doc_id)  # an expiring id is the smallest: j == 0
            if j < len(run) and run[j] == doc_id:
                del run[j]
                if not run:
                    del self.weights[i]
                    del self.runs[i]
                return
        raise KeyError(f"no impact entry ({doc_id}, {weight}) in list")

    def __len__(self) -> int:
        return sum(map(len, self.runs))

    def __bool__(self) -> bool:
        return bool(self.weights)

    def next_weight_above(self, weight: float) -> float | None:
        """Smallest entry weight strictly greater than ``weight``, if any."""
        i = self.run_at_or_below(weight)
        return self.weights[i - 1] if i else None

    def entries(self) -> list[tuple[int, float]]:
        """(doc_id, weight) pairs by weight desc, doc id desc; mainly for tests."""
        return [(did, w) for w, run in zip(self.weights, self.runs) for did in reversed(run)]


class ThresholdTree:
    """Per-term registry of (local threshold, query id), ordered by threshold.

    Probing at weight w returns every query whose threshold is <= w, walking
    from the low end. Query ids can be of mixed types, so thresholds and ids
    live in parallel arrays and bisect runs on the thresholds only.
    """

    __slots__ = ("_thresholds", "_qids")

    def __init__(self) -> None:
        self._thresholds: list[float] = []
        self._qids: list[QueryId] = []

    def _locate(self, qid: QueryId, threshold: float) -> int:
        pos = bisect_left(self._thresholds, threshold)
        while pos < len(self._thresholds) and self._thresholds[pos] == threshold:
            if self._qids[pos] == qid:
                return pos
            pos += 1
        raise KeyError(f"query {qid!r} has no threshold entry at {threshold}")

    def insert(self, qid: QueryId, threshold: float) -> None:
        pos = bisect_right(self._thresholds, threshold)
        self._thresholds.insert(pos, threshold)
        self._qids.insert(pos, qid)

    def update(self, qid: QueryId, old: float, new: float) -> None:
        if old == new:
            return
        pos = self._locate(qid, old)
        del self._thresholds[pos]
        del self._qids[pos]
        self.insert(qid, new)

    def remove(self, qid: QueryId, threshold: float) -> None:
        pos = self._locate(qid, threshold)
        del self._thresholds[pos]
        del self._qids[pos]

    def probe(self, weight: float) -> list[QueryId]:
        """Query ids whose local threshold is <= ``weight`` (inclusive)."""
        pos = bisect_right(self._thresholds, weight)
        return self._qids[:pos]

    def entries(self) -> list[tuple[float, QueryId]]:
        return list(zip(self._thresholds, self._qids))

    def __len__(self) -> int:
        return len(self._thresholds)

    def __bool__(self) -> bool:
        return bool(self._thresholds)


class _TermEntry:
    __slots__ = ("postings", "tree")

    def __init__(self) -> None:
        self.postings = InvertedList()
        self.tree = ThresholdTree()


class TermIndex:
    """The term dictionary: term id -> (inverted list, threshold tree).

    A term is present only while some windowed non-duplicate document or
    registered query still refers to it; entries that go empty on both sides
    are dropped to bound memory.
    """

    def __init__(self) -> None:
        self._terms: dict[int, _TermEntry] = {}

    def entry(self, tid: int) -> _TermEntry | None:
        return self._terms.get(tid)

    def ensure(self, tid: int) -> _TermEntry:
        ent = self._terms.get(tid)
        if ent is None:
            ent = self._terms[tid] = _TermEntry()
        return ent

    def gc(self, tid: int) -> None:
        ent = self._terms.get(tid)
        if ent is not None and not ent.postings and not ent.tree:
            del self._terms[tid]

    def list_for(self, tid: int) -> InvertedList | None:
        ent = self._terms.get(tid)
        return ent.postings if ent is not None else None

    def add_document(self, doc: Document, factor: float = 1.0) -> None:
        """Index one impact entry per composition term. Duplicates get none."""
        if doc.is_duplicate:
            return
        for tid, w in doc.composition.pairs:
            self.ensure(tid).postings.insert(doc.id, w * factor)

    def remove_document(self, doc: Document, factor: float = 1.0) -> None:
        if doc.is_duplicate:
            return
        for tid, w in doc.composition.pairs:
            ent = self._terms[tid]
            ent.postings.remove(doc.id, w * factor)
            self.gc(tid)

    def reindex_document(self, doc: Document, old_factor: float, new_factor: float) -> None:
        """Rewrite a document's impact entries after its boost factor changed."""
        if doc.is_duplicate or old_factor == new_factor:
            return
        for tid, w in doc.composition.pairs:
            postings = self._terms[tid].postings
            postings.remove(doc.id, w * old_factor)
            postings.insert(doc.id, w * new_factor)

    def terms(self) -> Iterable[int]:
        return self._terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, tid: int) -> bool:
        return tid in self._terms
