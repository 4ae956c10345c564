"""Near-duplicate detection for arriving documents.

An arrival whose best cosine similarity to a windowed non-duplicate document
reaches the configured threshold is flagged as a duplicate of that document.
The driver screens flagged documents out: they hold a window slot but never
reach an engine, which keeps them out of every result list. The threshold
lies in (0, 1]; a driver without a :class:`DedupConfig` runs no detection.

Detection is exact: :class:`DuplicateIndex` finds every windowed document at
cosine >= t with a prefix filter (AllPairs, Bayardo, Ma & Srikant, WWW 2007)
while indexing only a short tail of each document. The full window scan,
:func:`scan_duplicate`, gives the same flags and serves as the reference the
index is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .index import DocumentStore
from .model import CompositionList, Document

# Splits and prunes use the threshold scaled down by this factor, so float
# rounding can only add candidates to verify, never drop a true match.
_SLACK = 1.0 - 1e-9


@dataclass(frozen=True)
class DedupConfig:
    similarity_threshold: float = 0.95
    # Ignored. Detection no longer limits candidates to the arrival's heaviest
    # terms; the field stays so positional ``DedupConfig(t, c)`` calls work.
    candidate_terms: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.similarity_threshold <= 1.0:  # NaN fails too
            raise ValueError("similarity threshold must lie in (0, 1]")


def cosine(a: CompositionList, b: CompositionList) -> float:
    """Cosine similarity of two weight vectors over their term union."""
    if not a.pairs or not b.pairs:
        raise ValueError("cosine of an empty composition is undefined")
    if len(a.pairs) > len(b.pairs):
        a, b = b, a
    bw = b.weights
    dot = 0.0
    for tid, w in a.pairs:
        w2 = bw.get(tid)
        if w2 is not None:
            dot += w * w2
    if dot == 0.0:
        return 0.0
    return dot / (a.norm * b.norm)


class DuplicateIndex:
    """Prefix-filter index over the windowed non-duplicate documents.

    Terms are ordered by ascending id. Each indexed document ``y`` posts only
    its shortest tail of highest-id terms whose complement, the head, has
    ``|y_head| < t*|y|``. A ``y`` sharing no tail term with an arrival ``x``
    has ``x.y <= |x|*|y_head| < t*|x|*|y|``, so probing the arrival's terms
    finds every document at cosine >= t. Posting lists hold doc ids in
    arrival order; the window expires documents oldest first, so removal
    takes them from the list heads.
    """

    __slots__ = ("threshold", "_split", "_postings", "_docs")

    def __init__(self, threshold: float, docs: Iterable[Document] = ()):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("duplicate index threshold must lie in (0, 1]")
        self.threshold = threshold
        self._split = threshold * _SLACK
        self._postings: dict[int, list[int]] = {}
        # doc id -> (composition, first tail term id, |head|)
        self._docs: dict[int, tuple[CompositionList, int, float]] = {}
        for doc in docs:
            self.add(doc)

    def __len__(self) -> int:
        return len(self._docs)

    def add(self, doc: Document) -> None:
        """Index a windowed arrival; duplicates and empty documents are skipped."""
        comp = doc.composition
        if doc.is_duplicate or not comp.pairs:
            return
        pairs = comp.pairs
        limit = (self._split * comp.norm) ** 2
        head_sq = 0.0
        start = 0
        for tid, w in pairs:
            sq = head_sq + w * w
            if sq >= limit:
                break
            head_sq = sq
            start += 1
        self._docs[doc.id] = (comp, pairs[start][0], head_sq ** 0.5)
        postings = self._postings
        for tid, _w in pairs[start:]:
            ids = postings.get(tid)
            if ids is None:
                postings[tid] = [doc.id]
            else:
                ids.append(doc.id)

    def remove(self, docs: Iterable[Document]) -> None:
        """Drop expired documents; unindexed ones are ignored."""
        postings = self._postings
        for doc in docs:
            entry = self._docs.pop(doc.id, None)
            if entry is None:
                continue
            comp, start, _head = entry
            for tid, _w in comp.pairs[bisect_left(comp.pairs, (start,)):]:
                ids = postings[tid]
                ids.remove(doc.id)  # found at the head under FIFO expiry
                if not ids:
                    del postings[tid]

    def best_match(self, comp: CompositionList) -> int | None:
        """Id of the indexed document most similar to ``comp`` at cosine >=
        the threshold, ties going to the newest; None if there is none."""
        docs = self._docs
        postings = self._postings
        acc: dict[int, float] = {}
        for tid, w in comp.pairs:
            ids = postings.get(tid)
            if ids is not None:
                for did in ids:
                    acc[did] = acc.get(did, 0.0) + w * docs[did][0].weights[tid]
        if not acc:
            return None
        # below[i] = |comp restricted to its first i terms|
        tids = [tid for tid, _w in comp.pairs]
        below = [0.0]
        sq = 0.0
        for _tid, w in comp.pairs:
            sq += w * w
            below.append(sq ** 0.5)
        need = self._split * comp.norm
        t = self.threshold
        best_id: int | None = None
        best_cos = 0.0
        for did, dot in acc.items():
            y, start, head = docs[did]
            if dot + below[bisect_left(tids, start)] * head < need * y.norm:
                continue
            c = cosine(comp, y)
            if c >= t and (best_id is None or c > best_cos
                           or (c == best_cos and did > best_id)):
                best_cos, best_id = c, did
        return best_id


def check_duplicate(doc: Document, index: DuplicateIndex) -> int | None:
    """Return the id of the windowed document ``doc`` duplicates, if any: the
    best match at or above the index threshold, ties going to the newest."""
    return index.best_match(doc.composition)


def scan_duplicate(doc: Document, store: DocumentStore, threshold: float) -> int | None:
    """:func:`check_duplicate` by a scan of the whole window, which gives the
    same answer; the reference the index is tested against."""
    if not doc.composition.pairs:
        return None
    best_cos = 0.0
    best_id: int | None = None
    for cand in store.documents():
        if cand.is_duplicate or cand.id == doc.id or not cand.composition.pairs:
            continue
        c = cosine(doc.composition, cand.composition)
        if c > best_cos or (c == best_cos and best_id is not None and cand.id > best_id):
            best_cos, best_id = c, cand.id
    if best_id is not None and best_cos >= threshold:
        return best_id
    return None
