"""Shared fixtures and oracle utilities for the test suite."""

from __future__ import annotations

import random

from streamtopk import (DedupConfig, Document, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, Query, StreamDriver, WindowPolicy,
                        naive_top_k)
from streamtopk.driver import Arrival
from streamtopk.model import CompositionList

TOL = 1e-9


def comp(pairs) -> CompositionList:
    if isinstance(pairs, dict):
        pairs = pairs.items()
    return CompositionList((int(t), float(w)) for t, w in pairs)


def mkdoc(doc_id: int, pairs, t: int | None = None, dup: int | None = None) -> Document:
    return Document(id=doc_id, arrival_time=doc_id if t is None else t,
                    composition=comp(pairs), duplicate_of=dup)


def mkquery(qid, weights, k: int = 10) -> Query:
    if isinstance(weights, (list, tuple, set)):
        weights = {t: 1.0 for t in weights}
    return Query(id=qid, term_weights={int(t): float(w) for t, w in weights.items()}, k=k)


def results_equal(expected, actual, tol: float = TOL) -> bool:
    if len(expected) != len(actual):
        return False
    return all(e[0] == a[0] and abs(e[1] - a[1]) <= tol
               for e, a in zip(expected, actual))


def oracle(query, store, feedback=None):
    return [(sd.doc_id, sd.score) for sd in naive_top_k(query, store, feedback)]


def random_events(rng: random.Random, n_docs: int, vocab: int,
                  max_len: int = 6, first_id: int = 1):
    """Hand-rolled random arrivals, independent of the stream generator."""
    events = []
    for i in range(n_docs):
        length = rng.randint(1, max_len)
        pairs: dict[int, float] = {}
        for _ in range(length):
            t = rng.randrange(vocab)
            pairs[t] = pairs.get(t, 0.0) + 1.0
        events.append(Arrival(mkdoc(first_id + i, pairs)))
    return events


def run_against_oracle(events, queries, policy: WindowPolicy, *,
                       alpha: float = 0.2, dedup: DedupConfig | None = None,
                       check_every: int = 1):
    """Replay events through the incremental engine, asserting oracle
    equality after every ``check_every``-th event. Returns the engine."""
    store = DocumentStore(policy)
    fb = FeedbackStore(alpha)
    engine = IncrementalTopKEngine(store, fb)
    driver = StreamDriver(store, engine, fb, dedup)
    for q in queries:
        engine.register(q)
    for i, ev in enumerate(events):
        driver.process(ev)
        if i % check_every:
            continue
        for q in queries:
            expected = oracle(q, store, fb)
            actual = engine.current_result(q.id)
            assert results_equal(expected, actual), (
                f"event {i}, query {q.id}: expected {expected}, got {actual}")
    return engine
