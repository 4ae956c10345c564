import random

import pytest
from hypothesis import given, settings, strategies as st

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, ShardSet, StreamConfig, StreamDriver,
                        Vocabulary, WindowPolicy, generate_stream)
from streamtopk.dedup import DuplicateIndex, check_duplicate, cosine, scan_duplicate
from streamtopk.driver import Arrival, Feedback

from helpers import comp, mkdoc, mkquery


def test_cosine_identical_lists():
    a = comp({1: 2, 5: 3})
    assert cosine(a, a) == pytest.approx(1.0)


def test_cosine_disjoint_terms():
    assert cosine(comp({1: 2}), comp({2: 2})) == 0.0


def test_cosine_half_overlap():
    # {a:1,b:1} vs {a:1,c:1} -> 1 / (sqrt(2)*sqrt(2)) = 0.5
    assert cosine(comp({1: 1, 2: 1}), comp({1: 1, 3: 1})) == pytest.approx(0.5)


def test_cosine_empty_is_an_error():
    with pytest.raises(ValueError):
        cosine(comp({}), comp({1: 1}))


def _window(docs, threshold=0.95, n=50):
    store = DocumentStore(WindowPolicy.count_based(n))
    for d in docs:
        store.insert(d)
    return store, DuplicateIndex(threshold, docs)


def test_exact_repost_is_flagged():
    _, index = _window([mkdoc(1, {1: 2, 2: 1})])
    d = mkdoc(9, {1: 2, 2: 1})
    assert check_duplicate(d, index) == 1


def test_no_shared_terms_is_clean():
    _, index = _window([mkdoc(1, {1: 2})])
    d = mkdoc(9, {5: 2})
    assert check_duplicate(d, index) is None


def test_highest_cosine_candidate_wins():
    # candidate 2 matches slightly better than candidate 1
    _, index = _window([
        mkdoc(1, {1: 10, 2: 1, 3: 1}),
        mkdoc(2, {1: 10, 2: 1, 4: 1}),
    ], threshold=0.95)
    d = mkdoc(9, {1: 10, 2: 1, 4: 2})
    c1 = cosine(d.composition, comp({1: 10, 2: 1, 3: 1}))
    c2 = cosine(d.composition, comp({1: 10, 2: 1, 4: 1}))
    assert c2 > c1 >= 0.95
    assert check_duplicate(d, index) == 2


def test_equal_cosine_prefers_newest():
    _, index = _window([mkdoc(1, {1: 3}), mkdoc(2, {1: 3})])
    d = mkdoc(9, {1: 3})
    assert check_duplicate(d, index) == 2


def test_threshold_outside_unit_interval_is_rejected():
    for bad in (0.0, -0.5, 1.0 + 1e-9, 1.5, float("nan")):
        with pytest.raises(ValueError):
            DedupConfig(bad)
    _, index = _window([mkdoc(1, {1: 2})], threshold=1.0)
    assert check_duplicate(mkdoc(9, {1: 2}), index) == 1
    # no config is the one way to switch detection off
    store = DocumentStore(WindowPolicy.count_based(5))
    driver = StreamDriver(store, IncrementalTopKEngine(store))
    driver.process(Arrival(mkdoc(1, {1: 2})))
    assert driver.process(Arrival(mkdoc(2, {1: 2}))).duplicate_of is None


def test_duplicates_of_duplicates_resolve_to_originals():
    """A flagged duplicate is unindexed, so later copies match the original."""
    store, index = _window([])
    d1 = mkdoc(1, {1: 2, 2: 1})
    assert check_duplicate(d1, index) is None
    store.insert(d1)
    index.add(d1)
    d2 = mkdoc(2, {1: 2, 2: 1})
    dup = check_duplicate(d2, index)
    assert dup == 1
    d2 = mkdoc(2, {1: 2, 2: 1}, dup=dup)
    store.insert(d2)
    index.add(d2)
    d3 = mkdoc(3, {1: 2, 2: 1})
    assert check_duplicate(d3, index) == 1
    assert scan_duplicate(d3, store, 0.95) == 1


def test_pruned_candidates_match_bruteforce_when_heavy_terms_shared():
    rng = random.Random(4)
    for _ in range(50):
        base_pairs = {rng.randrange(10): float(rng.randint(2, 6)) for _ in range(4)}
        docs = [mkdoc(1, base_pairs)]
        # distractors share the light tail only
        for i in range(2, 6):
            docs.append(mkdoc(i, {10 + rng.randrange(5): 1.0}))
        store, index = _window(docs, threshold=0.9)
        probe_pairs = dict(base_pairs)
        probe_pairs[30] = 1.0  # light perturbation
        d = mkdoc(99, probe_pairs)
        assert check_duplicate(d, index) == scan_duplicate(d, store, 0.9)


def test_result_lists_never_contain_near_duplicate_pairs():
    rng = random.Random(8)
    store = DocumentStore(WindowPolicy.count_based(20))
    eng = IncrementalTopKEngine(store, FeedbackStore())
    cfg = DedupConfig(similarity_threshold=0.9)
    driver = StreamDriver(store, eng, eng.feedback, cfg)
    queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(5), 2)}, k=4)
               for i in range(4)]
    for q in queries:
        eng.register(q)
    recent = []
    for i in range(1, 200):
        if recent and rng.random() < 0.3:
            pairs = dict(rng.choice(recent))
        else:
            pairs = {rng.randrange(5): float(rng.randint(1, 4))
                     for _ in range(rng.randint(1, 3))}
        recent.append(pairs)
        recent = recent[-20:]
        driver.process(Arrival(mkdoc(i, pairs)))
        for q in queries:
            docs = [store.get(d) for d, _ in eng.current_result(q.id)]
            for x in range(len(docs)):
                for y in range(x + 1, len(docs)):
                    assert cosine(docs[x].composition, docs[y].composition) < 0.9


# -- the indexed check against the full-scan oracle ---------------------------

def _replay_against_full_scan(events, driver, rng, feedback_every=4):
    """Feed arrivals (plus a rating every few events) through ``driver``,
    asserting that each arrival's flag equals the full window scan."""
    store, threshold = driver.store, driver.duplicates.threshold
    flags = []
    for i, ev in enumerate(events):
        expected = scan_duplicate(ev.doc, store, threshold)
        out = driver.process(ev)
        assert out.duplicate_of == expected, f"doc {ev.doc.id}"
        flags.append(out.duplicate_of)
        if i % feedback_every == 0:
            live = [d.id for d in store.documents() if not d.is_duplicate]
            driver.process(Feedback(rng.choice(live), rng.random()))
    return flags


@pytest.mark.parametrize("policy", [WindowPolicy.count_based(150),
                                    WindowPolicy.time_based(750_000)],
                         ids=["count", "time"])
@pytest.mark.parametrize("threshold", [0.8, 0.95])
def test_indexed_flags_equal_full_scan_on_generated_streams(policy, threshold):
    vocab = Vocabulary()
    events = generate_stream(StreamConfig(rate=200, vocab_size=300, doc_length=(1, 40),
                                          seed=21, n_docs=1200, dup_rate=0.25,
                                          dup_backlook=150, dup_perturb=0.7), vocab)
    store = DocumentStore(policy)
    fb = FeedbackStore()
    driver = StreamDriver(store, IncrementalTopKEngine(store, fb), fb,
                          DedupConfig(threshold))
    flags = _replay_against_full_scan(events, driver, random.Random(22))
    assert sum(f is not None for f in flags) > 0.1 * len(events)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 12), st.sampled_from([1.0, 2.0, 3.0, 0.5]),
                                min_size=1, max_size=6),
                min_size=1, max_size=30),
       st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0]),
       st.integers(1, 8))
def test_indexed_flags_equal_full_scan_on_small_vocabularies(comps, threshold, n):
    store = DocumentStore(WindowPolicy.count_based(n))
    driver = StreamDriver(store, IncrementalTopKEngine(store), dedup=DedupConfig(threshold))
    for i, pairs in enumerate(comps, start=1):
        doc = mkdoc(i, pairs)
        expected = scan_duplicate(doc, store, threshold)
        assert driver.process(Arrival(doc)).duplicate_of == expected


# -- adversarial cases --------------------------------------------------------

def _driver(threshold=0.95, n=50, engine=None, config=None):
    store = DocumentStore(WindowPolicy.count_based(n))
    return StreamDriver(store, engine(store) if engine else IncrementalTopKEngine(store),
                        dedup=config or DedupConfig(threshold))


def _flags(driver, docs):
    return [driver.process(Arrival(d)).duplicate_of for d in docs]


def test_match_missing_the_lowest_id_terms_is_flagged():
    """100 unit terms against a windowed copy lacking the 5 lowest-id ones:
    cosine 0.975, though the arrival's heaviest-looking terms are absent."""
    older = mkdoc(1, {t: 1 for t in range(5, 100)})
    arrival = mkdoc(2, {t: 1 for t in range(100)})
    assert cosine(arrival.composition, older.composition) > 0.97
    assert _flags(_driver(), [older, arrival]) == [None, 1]


def test_pairs_at_exactly_the_threshold():
    # cosine 1/(1*2) == 0.5 exactly in floats: flagged
    assert _flags(_driver(0.5), [mkdoc(1, {1: 1, 2: 1, 3: 1, 4: 1}),
                                 mkdoc(2, {1: 1})]) == [None, 1]
    # 9/(3*5) == 0.6 exactly, with the shared term alone carrying |y|*t
    assert _flags(_driver(0.6), [mkdoc(1, {1: 3, 2: 4}), mkdoc(2, {1: 3})]) == [None, 1]
    # 1/(sqrt2*sqrt2) rounds just below 0.5; the index agrees with the scan
    driver = _driver(0.5)
    _flags(driver, [mkdoc(1, {1: 1, 2: 1})])
    d = mkdoc(2, {1: 1, 3: 1})
    assert (driver.process(Arrival(d)).duplicate_of
            == scan_duplicate(d, driver.store, 0.5)
            == (1 if cosine(d.composition, comp({1: 1, 2: 1})) >= 0.5 else None))


def test_match_sharing_only_the_arrivals_lowest_id_terms():
    older = mkdoc(1, {1: 10, 2: 10})
    arrival = mkdoc(2, {1: 10, 2: 10, 90: 1, 91: 1})
    assert _flags(_driver(), [older, arrival]) == [None, 1]


def test_duplicate_chains_across_expiry():
    """Copies of a copy match the original while it is windowed (a check
    sees the window before the arrival evicts anything); once it expires,
    the flagged copies are not candidates and the next copy is new."""
    base = {1: 2, 2: 1, 3: 1}
    driver = _driver(n=3)
    docs = [mkdoc(i, base) for i in range(1, 7)]
    assert _flags(driver, docs) == [None, 1, 1, 1, None, 5]
    assert len(driver.duplicates) == 1


def test_driver_indexes_a_prefilled_store():
    store = DocumentStore(WindowPolicy.count_based(10))
    store.insert(mkdoc(1, {4: 2, 5: 1}))
    driver = StreamDriver(store, IncrementalTopKEngine(store), dedup=DedupConfig())
    assert driver.process(Arrival(mkdoc(2, {4: 2, 5: 1}))).duplicate_of == 1


def test_empty_windowed_documents_are_never_candidates():
    store = DocumentStore(WindowPolicy.count_based(10))
    driver = StreamDriver(store, IncrementalTopKEngine(store), dedup=DedupConfig())
    _flags(driver, [mkdoc(1, {})])
    d = mkdoc(2, {1: 1})
    assert scan_duplicate(d, store, 0.95) is None
    assert driver.process(Arrival(d)).duplicate_of is None


def test_candidate_terms_field_is_accepted_and_ignored():
    driver = _driver(config=DedupConfig(0.95, 1))
    older = mkdoc(1, {t: 1 for t in range(5, 100)})
    assert _flags(driver, [older, mkdoc(2, {t: 1 for t in range(100)})]) == [None, 1]


def test_sharded_and_single_engine_flag_the_same_arrivals():
    vocab = Vocabulary()
    events = generate_stream(StreamConfig(rate=200, vocab_size=200, doc_length=(1, 30),
                                          seed=31, n_docs=600, dup_rate=0.3,
                                          dup_backlook=80), vocab)
    now = events[-1].doc.arrival_time
    adversarial = [Arrival(mkdoc(701, {t: 1 for t in range(5, 100)}, t=now)),
                   Arrival(mkdoc(702, {t: 1 for t in range(100)}, t=now))]
    runs = []
    for engine in (IncrementalTopKEngine, lambda s: ShardSet(s, 2)):
        driver = _driver(n=100, engine=engine)
        runs.append([driver.process(ev).duplicate_of for ev in events + adversarial])
    assert runs[0] == runs[1]
    assert runs[0][-1] == 701
