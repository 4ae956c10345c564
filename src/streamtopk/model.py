"""Core domain types: terms, documents, queries, and similarity scoring.

Documents and queries are plain immutable value objects; all mutation lives
in the index and engine layers. Term ids are dense integers handed out by a
:class:`Vocabulary`, stable for the lifetime of a run.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

_TOKEN_RE = re.compile(r"[0-9a-z]+")

QueryId = int | str


class Vocabulary:
    """Token <-> dense term-id registry.

    Ids are assigned in first-seen order and never change or get reused
    within a run.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []

    def intern(self, token: str) -> int:
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def get(self, token: str) -> int | None:
        return self._ids.get(token)

    def token(self, tid: int) -> str:
        return self._tokens[tid]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids


class CompositionList:
    """A document's (term id, weight) pairs.

    Terms are pairwise distinct, weights finite and strictly positive, and
    pairs are kept in canonical ascending-term-id order. The weight dict and
    the L2 norm are precomputed because scoring and cosine similarity are
    hot paths; the norm of a non-empty list must be finite and positive,
    as near-duplicate bounds and cosine rely on it.
    """

    __slots__ = ("pairs", "weights", "norm")

    def __init__(self, pairs: Iterable[tuple[int, float]]):
        canon = sorted(pairs)
        weights: dict[int, float] = {}
        for tid, w in canon:
            if not 0 < w < math.inf:
                raise ValueError(f"weight {w!r} for term {tid} is not finite and positive")
            if tid in weights:
                raise ValueError(f"duplicate term {tid} in composition")
            weights[tid] = w
        self.pairs: tuple[tuple[int, float], ...] = tuple(canon)
        self.weights = weights
        self.norm = math.sqrt(sum(w * w for w in weights.values()))
        if weights and not 0 < self.norm < math.inf:
            raise ValueError("weights out of range: the composition norm over- or underflows")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(self.pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompositionList) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{w:g}" for t, w in self.pairs)
        return f"CompositionList({inner})"


EMPTY_COMPOSITION = CompositionList(())


@dataclass(frozen=True)
class Document:
    """One stream element.

    id         -- unique, strictly increasing with arrival order
    arrival_time -- non-negative logical tick count
    composition  -- per-term weights (raw term frequency at ingest time)
    text         -- optional raw string the composition was derived from
    duplicate_of -- id of an earlier near-identical document, if detected
    """

    id: int
    arrival_time: int
    composition: CompositionList
    text: str | None = None
    duplicate_of: int | None = None

    def __post_init__(self) -> None:
        if self.id < 0 or self.arrival_time < 0:
            raise ValueError("document id and arrival_time must be non-negative")
        if self.duplicate_of is not None and self.duplicate_of >= self.id:
            raise ValueError("duplicate_of must reference an earlier document")

    @property
    def is_duplicate(self) -> bool:
        return self.duplicate_of is not None


@dataclass(frozen=True)
class Query:
    """A continuous text query: weighted terms plus the requested result size k."""

    id: QueryId
    term_weights: dict[int, float]
    k: int
    # (term id, weight) pairs sorted by term id; precomputed for scoring loops
    items: tuple[tuple[int, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.term_weights:
            raise ValueError("query needs at least one term")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not all(0 < w < math.inf for w in self.term_weights.values()):
            raise ValueError("query term weights must be finite and positive")
        object.__setattr__(self, "items", tuple(sorted(self.term_weights.items())))

    @property
    def n(self) -> int:
        return len(self.term_weights)


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: int
    score: float

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("scores are non-negative")


def tokenize(text: str, stopwords: frozenset[str] | set[str], vocab: Vocabulary) -> CompositionList:
    """Turn raw text into a composition list.

    Lowercases, splits on non-alphanumeric characters, drops stopwords, and
    weights each surviving term by its raw frequency. Degenerate inputs give
    an empty list.
    """
    counts: Counter[str] = Counter(
        tok for tok in _TOKEN_RE.findall(text.lower()) if tok not in stopwords
    )
    if not counts:
        return EMPTY_COMPOSITION
    return CompositionList((vocab.intern(tok), float(c)) for tok, c in counts.items())


def dot_score(items: tuple[tuple[int, float], ...], weights: dict[int, float]) -> float:
    """Inner product of query (term, weight) items with a document weight dict."""
    s = 0.0
    for tid, wq in items:
        w = weights.get(tid)
        if w is not None:
            s += wq * w
    return s


def load_stopwords(path: str | None) -> frozenset[str]:
    """Load a one-word-per-line stopword file; no path means the empty set.
    A path that cannot be read raises ``OSError``."""
    if path is None:
        return frozenset()
    with open(path, encoding="utf-8") as fh:
        return frozenset(line.strip().lower() for line in fh if line.strip())
