import random

import pytest

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, ShardSet, StreamDriver, WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery, oracle, random_events, results_equal


def _setup(n=10, alpha=0.2, dedup=None):
    store = DocumentStore(WindowPolicy.count_based(n))
    fb = FeedbackStore(alpha)
    eng = IncrementalTopKEngine(store, fb)
    return store, fb, eng, StreamDriver(store, eng, fb, dedup)


def test_boost_rewrites_indexed_weight():
    store, fb, eng, driver = _setup()
    driver.process(Arrival(mkdoc(1, {7: 5})))
    eng.register(mkquery("Q", {7: 1.0}, k=1))
    driver.process(Feedback(1, 1.0))
    assert eng.index.list_for(7).entries() == [(1, 6.0)]  # 5 * (1 + 0.2)
    assert eng.current_result("Q") == [(1, 6.0)]


def test_zero_rating_is_identity():
    store, fb, eng, driver = _setup()
    driver.process(Arrival(mkdoc(1, {7: 5})))
    eng.register(mkquery("Q", {7: 1.0}, k=1))
    out = driver.process(Feedback(1, 0.0))
    assert out.changed == set()
    assert eng.index.list_for(7).entries() == [(1, 5.0)]


def test_feedback_on_expired_doc_is_an_error():
    store, fb, eng, driver = _setup(n=1)
    driver.process(Arrival(mkdoc(1, {7: 5})))
    driver.process(Arrival(mkdoc(2, {7: 5})))
    with pytest.raises(ValueError):
        driver.process(Feedback(1, 1.0))


def test_feedback_on_duplicate_is_an_error():
    store, fb, eng, driver = _setup(dedup=DedupConfig(0.9))
    driver.process(Arrival(mkdoc(1, {7: 5})))
    driver.process(Arrival(mkdoc(2, {7: 5})))  # flagged duplicate of 1
    assert store.get(2).is_duplicate
    with pytest.raises(ValueError):
        driver.process(Feedback(2, 1.0))


def test_driver_refuses_an_engine_over_other_stores():
    """Over another feedback store, the engine's postings follow the
    driver's factors while its expiry looks them up at its own: doc 1, rated
    1.0, was indexed at 2.4 and then sought at 2.0, a KeyError raised after
    the store had already evicted it. Such a pair is refused when built."""
    store = DocumentStore(WindowPolicy.count_based(2))
    with pytest.raises(ValueError, match="feedback store"):
        StreamDriver(store, IncrementalTopKEngine(store), FeedbackStore())
    with pytest.raises(ValueError, match="feedback store"):
        StreamDriver(store, ShardSet(store, 2), FeedbackStore())
    with pytest.raises(ValueError, match="document store"):
        StreamDriver(store, IncrementalTopKEngine(DocumentStore(store.policy)))
    fb = FeedbackStore()
    eng = IncrementalTopKEngine(store, fb)
    driver = StreamDriver(store, eng, fb)
    eng.register(mkquery("Q", {1: 1.0}, k=1))
    driver.process(Arrival(mkdoc(1, {1: 2})))
    driver.process(Feedback(1, 1.0))
    driver.process(Arrival(mkdoc(2, {1: 2})))
    driver.process(Arrival(mkdoc(3, {1: 2})))  # doc 1 expires
    assert eng.current_result("Q") == [(3, 2.0)]


def test_feedback_rescores_a_holder_the_probe_misses():
    """Doc 1's boost lifts the k-th score, and with it the threshold, to
    1.004; doc 2, already held at weight 1, then gets a smaller boost whose
    1.002 misses the probe. It must be rescored all the same, so that it
    ranks with its boosted score once doc 1 expires."""
    store, fb, eng, driver = _setup(n=2)
    q = mkquery("Q", {7: 1.0}, k=1)
    eng.register(q)
    driver.process(Arrival(mkdoc(1, {7: 1})))
    driver.process(Arrival(mkdoc(2, {7: 1})))
    driver.process(Feedback(1, 0.02))
    assert eng.state("Q").thresholds == {7: 1.004}
    driver.process(Feedback(2, 0.01))
    driver.process(Arrival(mkdoc(3, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == oracle(q, store, fb) == [(2, 1.002)]


def test_ratings_aggregate_by_max():
    store, fb, eng, driver = _setup()
    driver.process(Arrival(mkdoc(1, {7: 5})))
    driver.process(Feedback(1, 0.5))
    w_after_half = eng.index.list_for(7).entries()[0][1]
    out = driver.process(Feedback(1, 0.3))  # lower rating: no-op
    assert out.changed == set()
    assert eng.index.list_for(7).entries()[0][1] == w_after_half
    driver.process(Feedback(1, 0.5))  # repeat: idempotent
    assert eng.index.list_for(7).entries()[0][1] == w_after_half


def test_alpha_zero_never_changes_results():
    store, fb, eng, driver = _setup(alpha=0.0)
    driver.process(Arrival(mkdoc(1, {7: 5})))
    driver.process(Arrival(mkdoc(2, {7: 4})))
    q = mkquery("Q", {7: 1.0}, k=2)
    eng.register(q)
    before = eng.current_result("Q")
    driver.process(Feedback(2, 1.0))
    assert eng.current_result("Q") == before == [(1, 5.0), (2, 4.0)]


def test_boost_preserves_oracle_equivalence():
    rng = random.Random(31)
    store, fb, eng, driver = _setup(n=15)
    queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(6), 2)}, k=3)
               for i in range(5)]
    for q in queries:
        eng.register(q)
    events = random_events(rng, 200, vocab=6)
    windowed: list[int] = []
    for i, ev in enumerate(events):
        driver.process(ev)
        windowed.append(ev.doc.id)
        windowed = [d for d in windowed if d in store]
        if rng.random() < 0.3 and windowed:
            driver.process(Feedback(rng.choice(windowed), rng.random()))
        for q in queries:
            assert results_equal(oracle(q, store, fb), eng.current_result(q.id))


def test_rank_monotonicity_under_boost():
    """Raising one document's rating never lowers its rank for any query."""
    rng = random.Random(13)
    for trial in range(25):
        store, fb, eng, driver = _setup(n=12)
        queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(5), 2)}, k=4)
                   for i in range(4)]
        for q in queries:
            eng.register(q)
        for ev in random_events(rng, 14, vocab=5, first_id=trial * 100 + 1):
            driver.process(ev)
        target = rng.choice([d.id for d in store.documents()])

        def rank_of(qid):
            ids = [d for d, _ in eng.current_result(qid)]
            return ids.index(target) if target in ids else len(ids) + 1

        before = {q.id: rank_of(q.id) for q in queries}
        driver.process(Feedback(target, 1.0))
        for q in queries:
            assert rank_of(q.id) <= before[q.id]
