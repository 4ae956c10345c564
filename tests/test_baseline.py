import random

from streamtopk import (DocumentStore, FeedbackStore, IncrementalTopKEngine,
                        StreamDriver, WindowPolicy, naive_top_k)
from streamtopk.baseline import BufferedRescanEngine, FullRescanEngine
from streamtopk.driver import Arrival

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


def test_kmax_buffer_size_is_configured_multiple():
    store = _store([])
    eng = BufferedRescanEngine(store)
    eng.register(mkquery("q", {1: 1.0}, k=10))
    assert eng._buffers["q"].k_max == 20


def test_rescan_triggered_when_buffer_drops_below_k():
    store = DocumentStore(WindowPolicy.count_based(4))
    eng = BufferedRescanEngine(store)
    driver = StreamDriver(store, eng)
    # window: 4 matching docs, k=2, k_max=4 -> buffer holds all four
    for i, w in [(1, 5), (2, 4), (3, 3), (4, 2)]:
        driver.process(Arrival(mkdoc(i, {1: w})))
    eng.register(mkquery("q", {1: 1.0}, k=2))
    base = eng.rescan_count
    # each arrival expires one buffered doc; buffer stays >= k, no rescan
    driver.process(Arrival(mkdoc(5, {1: 1})))
    driver.process(Arrival(mkdoc(6, {9: 1})))
    assert eng.rescan_count == base
    # two more expirations of buffered docs push it below k
    driver.process(Arrival(mkdoc(7, {9: 1})))
    driver.process(Arrival(mkdoc(8, {9: 1})))
    assert eng.rescan_count > base


def test_expiration_outside_buffer_is_free():
    store = DocumentStore(WindowPolicy.count_based(2))
    eng = BufferedRescanEngine(store)
    driver = StreamDriver(store, eng)
    driver.process(Arrival(mkdoc(1, {9: 1})))   # never matches
    driver.process(Arrival(mkdoc(2, {1: 3})))
    eng.register(mkquery("q", {1: 1.0}, k=1))
    base = eng.rescan_count
    before = eng.current_result("q")
    out = driver.process(Arrival(mkdoc(3, {8: 1})))  # expires doc 1
    assert eng.rescan_count == base
    assert eng.current_result("q") == before


def test_kmax_reports_exact_topk_after_every_event():
    rng = random.Random(51)
    for seed in range(4):
        store = DocumentStore(WindowPolicy.count_based(12))
        fb = FeedbackStore()
        eng = BufferedRescanEngine(store, fb)
        driver = StreamDriver(store, eng, fb)
        queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(6), 2)}, k=3)
                   for i in range(5)]
        for q in queries:
            eng.register(q)
        for ev in random_events(random.Random(seed), 220, vocab=6):
            driver.process(ev)
            for q in queries:
                expected = [(sd.doc_id, sd.score) for sd in naive_top_k(q, store, fb)]
                assert results_equal(expected, eng.current_result(q.id))


def test_kmax_rescans_no_more_than_plain_naive():
    rng = random.Random(61)
    store_a = DocumentStore(WindowPolicy.count_based(10))
    store_b = DocumentStore(WindowPolicy.count_based(10))
    kmax = BufferedRescanEngine(store_a)
    naive = FullRescanEngine(store_b)
    qs = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(5), 2)}, k=2)
          for i in range(3)]
    for q in qs:
        kmax.register(q)
        naive.register(q)
    drv_a = StreamDriver(store_a, kmax)
    drv_b = StreamDriver(store_b, naive)
    for ev in random_events(rng, 150, vocab=5):
        drv_a.process(ev)
        drv_b.process(ev)
        naive.finalize_event()
        assert kmax.rescan_count <= naive.rescan_count
