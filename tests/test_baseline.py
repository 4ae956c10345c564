import random

from streamtopk import (DocumentStore, IncrementalTopKEngine, StreamDriver,
                        WindowPolicy, naive_top_k)

from helpers import mkdoc, mkquery, random_events, results_equal


def _store(docs, n=50):
    store = DocumentStore(WindowPolicy.count_based(n))
    for d in docs:
        store.insert(d)
    return store


def test_naive_empty_window():
    assert naive_top_k(mkquery("q", {1: 1.0}, k=3), _store([])) == []


def test_naive_excludes_zero_scores_and_duplicates():
    store = _store([mkdoc(1, {9: 4}), mkdoc(2, {1: 2}), mkdoc(3, {1: 5}, dup=2)])
    top = naive_top_k(mkquery("q", {1: 1.0}, k=5), store)
    assert [(sd.doc_id, sd.score) for sd in top] == [(2, 2.0)]
    assert all(sd.score > 0 for sd in top)


def test_naive_matches_initial_incremental_search():
    rng = random.Random(41)
    for _ in range(30):
        store = DocumentStore(WindowPolicy.count_based(30))
        eng = IncrementalTopKEngine(store)
        driver = StreamDriver(store, eng)
        for ev in random_events(rng, 12, vocab=5):
            driver.process(ev)
        q = mkquery("Q", {t: 1.0 for t in rng.sample(range(5), 2)}, k=3)
        eng.register(q)
        expected = [(sd.doc_id, sd.score) for sd in naive_top_k(q, store)]
        assert results_equal(expected, eng.current_result("Q"))
