import random

import pytest

from streamtopk import (DocumentStore, FeedbackStore, IncrementalTopKEngine,
                        StreamDriver, WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery, oracle, random_events, results_equal, run_against_oracle

RED, ROSE = 20, 11


def _engine(n=100, kind="count", alpha=0.2):
    policy = (WindowPolicy.count_based(n) if kind == "count"
              else WindowPolicy.time_based(n))
    store = DocumentStore(policy)
    eng = IncrementalTopKEngine(store, FeedbackStore(alpha))
    return store, eng, StreamDriver(store, eng, eng.feedback)


def _fill(driver, docs):
    for d in docs:
        driver.process(Arrival(d))


def _bound(st):
    """The influence threshold: the weighted sum of the local thresholds."""
    return sum(wq * st.thresholds[t] for t, wq in st.items)


# -- initial search ---------------------------------------------------------

def test_initial_search_pops_largest_candidate_list_first():
    """Two-term query: the 'red' list head contributes the larger weighted
    candidate value, so the search pops it first, scores document 6 and can
    stop there at k=1 (its 3.0 ties the frontier sum 1 + 2 and outranks
    every unseen id). Popping the rose list first would score document 7."""
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(5, {RED: 1, ROSE: 1}),
                   mkdoc(6, {RED: 3}),
                   mkdoc(7, {ROSE: 2})])
    eng.register(mkquery("Q1", {RED: 1.0, ROSE: 1.0}, k=1))
    assert eng.state("Q1").scores == {6: 3.0}
    assert eng.stats["pops"] == 1


def test_single_candidate_window():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {RED: 2}), mkdoc(2, {99: 1})])
    eng.register(mkquery("Q", {RED: 1.0}, k=1))
    assert eng.current_result("Q") == [(1, 2.0)]


def test_initial_result_equals_naive_on_random_instances():
    rng = random.Random(3)
    for trial in range(40):
        store, eng, driver = _engine()
        _fill(driver, [mkdoc(i, {rng.randrange(2): float(rng.randint(1, 4))
                                 for _ in range(rng.randint(1, 2))})
                       for i in range(1, 5)])
        q = mkquery("Q", {0: 1.0, 1: 1.0}, k=rng.randint(1, 3))
        eng.register(q)
        assert results_equal(oracle(q, store), eng.current_result("Q"))
        eng.unregister("Q")


# -- threshold roll-up ------------------------------------------------------

def test_rollup_tightens_to_kth_score():
    """Single-term list with weights 5,4,3,2 at k=2: thresholds roll up from
    the stopping frontier (3) to the k-th score (4)."""
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(i, {7: w}) for i, w in [(1, 5), (2, 4), (3, 3), (4, 2)]])
    st = eng.register(mkquery("Q", {7: 1.0}, k=2))
    assert st.s_k == 4.0
    assert st.thresholds == {7: 4.0}
    assert _bound(st) == 4.0


def test_rollup_stops_when_raise_would_overshoot():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 9}), mkdoc(2, {1: 2}), mkdoc(3, {2: 5})])
    st = eng.register(mkquery("Q", {1: 1.0, 2: 1.0}, k=1))
    # top doc scores 9; raising theta_1 from frontier 2 to 9 would push the
    # bound past 9 once theta_2 is at 5, so the greedy raise settles below
    assert st.s_k == 9.0
    assert _bound(st) <= 9.0
    assert st.thresholds == {1: 2.0, 2: 5.0}


def test_fewer_matches_than_k_keeps_zero_thresholds():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {7: 5})])
    st = eng.register(mkquery("Q", {7: 1.0}, k=3))
    assert [d for d, _ in eng.current_result("Q")] == [1]
    assert _bound(st) == 0.0
    assert set(st.thresholds.values()) == {0.0}


def test_threshold_bound_invariant():
    """Whenever k results are verified, the weighted threshold sum stays at
    or below the k-th score."""
    rng = random.Random(5)
    events = random_events(rng, 200, vocab=8)
    queries = [mkquery(f"q{i}", {rng.randrange(8): 1.0, (rng.randrange(8) + 1) % 8: 1.0},
                       k=rng.randint(1, 4)) for i in range(5)]
    store = DocumentStore(WindowPolicy.count_based(20))
    eng = IncrementalTopKEngine(store)
    driver = StreamDriver(store, eng)
    for q in queries:
        eng.register(q)
    for ev in events:
        driver.process(ev)
        for q in queries:
            st = eng.state(q.id)
            if st.s_k is not None:
                assert _bound(st) <= st.s_k + 1e-9


# -- arrivals ---------------------------------------------------------------

def test_arrival_without_query_terms_changes_nothing():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {RED: 2})])
    eng.register(mkquery("Q", {RED: 1.0}, k=1))
    before = eng.current_result("Q")
    out = driver.process(Arrival(mkdoc(2, {555: 3})))
    assert out.changed == set()
    assert eng.current_result("Q") == before


def test_arrival_beating_kth_updates_verified_set():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {RED: 1}), mkdoc(2, {RED: 2})])
    q = mkquery("Q", {RED: 1.0}, k=2)
    eng.register(q)
    out = driver.process(Arrival(mkdoc(3, {RED: 5})))
    assert "Q" in out.changed
    assert results_equal(oracle(q, store), eng.current_result("Q"))


def test_duplicate_arrival_changes_no_results():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {RED: 2})])
    eng.register(mkquery("Q", {RED: 1.0}, k=1))
    before = eng.current_result("Q")
    out = driver.process(Arrival(mkdoc(2, {RED: 9}, dup=1)))
    assert out.changed == set()
    assert eng.current_result("Q") == before


def test_single_consideration_per_arrival():
    """A document sharing several terms with a query is scored once."""
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 1, 2: 1, 3: 1})])
    eng.register(mkquery("Q", {1: 1.0, 2: 1.0, 3: 1.0}, k=5))
    before = eng.stats["score_computations"]
    driver.process(Arrival(mkdoc(2, {1: 2, 2: 2, 3: 2})))
    assert eng.stats["score_computations"] - before == 1
    assert eng.last_scored == {"Q": 1}


# -- expirations ------------------------------------------------------------

def test_expiration_of_nonresult_doc_is_quiet():
    store, eng, driver = _engine(n=2)
    _fill(driver, [mkdoc(1, {77: 1}), mkdoc(2, {RED: 3})])
    eng.register(mkquery("Q", {RED: 1.0}, k=1))
    out = driver.process(Arrival(mkdoc(3, {RED: 1})))  # expires doc 1
    assert [d.id for d in out.expired] == [1]
    assert out.changed == set()


def test_expiration_of_verified_doc_refills_from_thresholds():
    store, eng, driver = _engine(n=3)
    _fill(driver, [mkdoc(1, {RED: 5}), mkdoc(2, {RED: 4}), mkdoc(3, {RED: 3})])
    q = mkquery("Q", {RED: 1.0}, k=2)
    eng.register(q)
    assert [d for d, _ in eng.current_result("Q")] == [1, 2]
    out = driver.process(Arrival(mkdoc(4, {999: 1})))  # expires doc 1
    assert "Q" in out.changed
    assert results_equal(oracle(q, store), eng.current_result("Q"))
    assert [d for d, _ in eng.current_result("Q")] == [2, 3]


def test_refill_recovers_candidate_that_scored_below_tau():
    """A probed arrival whose score sits under the influence threshold must
    still surface once the documents above it expire."""
    store, eng, driver = _engine(n=2)
    _fill(driver, [mkdoc(1, {1: 2, 2: 2})])
    q = mkquery("Q", {1: 1.0, 2: 1.0}, k=1)
    st = eng.register(q)
    assert _bound(st) == 4.0
    driver.process(Arrival(mkdoc(2, {1: 3})))  # probed: 3 >= theta_1, scores 3 < tau
    assert eng.current_result("Q") == [(1, 4.0)]
    driver.process(Arrival(mkdoc(3, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == [(2, 3.0)]


def test_refill_rediscovers_unprobed_subthreshold_arrival():
    """An arrival pruned by the local thresholds must be found again by the
    resumed search when expirations lower them."""
    store, eng, driver = _engine(n=2)
    _fill(driver, [mkdoc(1, {1: 5})])
    q = mkquery("Q", {1: 1.0}, k=1)
    st = eng.register(q)
    assert st.thresholds == {1: 5.0}
    out = driver.process(Arrival(mkdoc(2, {1: 3})))  # 3 < theta: never scored
    assert out.changed == set()
    assert 2 not in eng.state("Q").scores
    driver.process(Arrival(mkdoc(3, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == [(2, 3.0)]


def test_window_shrinking_below_k():
    store, eng, driver = _engine(n=2)
    _fill(driver, [mkdoc(1, {RED: 5}), mkdoc(2, {RED: 4})])
    q = mkquery("Q", {RED: 1.0}, k=2)
    eng.register(q)
    driver.process(Arrival(mkdoc(3, {555: 1})))  # doc 1 leaves, no replacement
    assert [d for d, _ in eng.current_result("Q")] == [2]


# -- k-skyband -----------------------------------------------------------------

def test_dominated_candidate_leaves_the_list_but_stays_scored():
    store, eng, driver = _engine()
    st = eng.register(mkquery("Q", {RED: 1.0}, k=1))
    _fill(driver, [mkdoc(1, {RED: 2}), mkdoc(2, {RED: 3})])
    assert st.scores == {2: 3.0}  # doc 2 is newer and ranks above doc 1
    assert [s.query.id for s in eng._scorers(eng._rev[1])] == ["Q"]
    eng.check_invariants()


def test_candidate_with_only_older_documents_above_is_kept():
    """Doc 2 ranks below doc 1 but is newer, so it must stay: once doc 1
    expires, the refill resumes above doc 2's weight and never pops it."""
    store, eng, driver = _engine(n=2)
    st = eng.register(mkquery("Q", {RED: 1.0, ROSE: 1.0}, k=1))
    _fill(driver, [mkdoc(1, {RED: 5, ROSE: 5}), mkdoc(2, {RED: 6})])
    assert st.scores == {1: 10.0, 2: 6.0}
    driver.process(Arrival(mkdoc(3, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == [(2, 6.0)]


def test_dropped_candidates_do_not_change_the_refill_after_the_top_expires():
    """The initial search scores a run of four equal documents under doc 1.
    At k=2, docs 2 and 3 have two newer candidates above them and go; doc 4
    has one and stays. When doc 1 expires, the refill re-pops the run but
    scores nothing, and the result is docs 5 and 4."""
    store, eng, driver = _engine(n=5)
    _fill(driver, [mkdoc(1, {RED: 5})] + [mkdoc(i, {RED: 2}) for i in range(2, 6)])
    q = mkquery("Q", {RED: 1.0}, k=2)
    st = eng.register(q)
    assert sorted(st.scores) == [1, 4, 5]
    computed = eng.stats["score_computations"]
    driver.process(Arrival(mkdoc(6, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == [(5, 2.0), (4, 2.0)]
    assert results_equal(oracle(q, store), eng.current_result("Q"))
    assert eng.stats["score_computations"] == computed
    eng.check_invariants()


def test_dropped_document_boosted_by_feedback_returns_to_the_top():
    store, eng, driver = _engine(alpha=1.0)
    q = mkquery("Q", {RED: 1.0}, k=1)
    st = eng.register(q)
    _fill(driver, [mkdoc(1, {RED: 2}), mkdoc(2, {RED: 3})])
    assert 1 not in st.scores
    out = driver.process(Feedback(1, 1.0))  # factor 2: doc 1 now scores 4
    assert out.changed == {"Q"}
    assert eng.current_result("Q") == [(1, 4.0)]
    assert results_equal(oracle(q, store, eng.feedback), eng.current_result("Q"))
    eng.check_invariants()


def test_rating_below_every_threshold_still_rescores_a_dropped_document():
    """Doc 2 is dropped under docs 3-6. Rating doc 1 makes it the top and
    lifts both thresholds to 3; rating doc 2 then lifts it to 2.8, above
    doc 3 but below the thresholds, so no probe reaches it and only the
    record that the query scored it brings it back. Once doc 1 expires,
    doc 2 is the top."""
    store, eng, driver = _engine(n=6, alpha=1.0)
    q = mkquery("Q", {RED: 1.0, ROSE: 1.0}, k=1)
    st = eng.register(q)
    _fill(driver, [mkdoc(1, {RED: 1.5, ROSE: 1.5}), mkdoc(2, {RED: 2}), mkdoc(3, {RED: 2.5}),
                   mkdoc(4, {RED: 2.2}), mkdoc(5, {ROSE: 2.1}), mkdoc(6, {ROSE: 2.05})])
    assert sorted(st.scores) == [1, 3, 4, 5, 6]
    driver.process(Feedback(1, 1.0))
    assert st.thresholds == {RED: 3.0, ROSE: 3.0}
    driver.process(Feedback(2, 0.4))
    assert 2 in st.scores
    driver.process(Arrival(mkdoc(7, {9: 1})))  # doc 1 expires
    assert eng.current_result("Q") == oracle(q, store, eng.feedback) == [(2, 2.8)]
    eng.check_invariants()


def test_equal_arrival_times_leave_together_in_a_time_window():
    """Docs 2-5 arrive at tick 5; docs 4 and 5 dominate docs 2 and 3 at
    k=2. Doc 1 expires alone at tick 10, then the four leave together at
    tick 15, after which doc 7 is the only match."""
    store, eng, driver = _engine(n=10, kind="time")
    _fill(driver, [mkdoc(1, {RED: 5}, t=0)]
          + [mkdoc(i, {RED: 2}, t=5) for i in range(2, 6)])
    q = mkquery("Q", {RED: 1.0}, k=2)
    st = eng.register(q)
    assert sorted(st.scores) == [1, 4, 5]
    for doc, want in [(mkdoc(6, {9: 1}, t=10), [(5, 2.0), (4, 2.0)]),
                      (mkdoc(7, {RED: 1}, t=12), [(5, 2.0), (4, 2.0)]),
                      (mkdoc(8, {9: 1}, t=15), [(7, 1.0)])]:
        driver.process(Arrival(doc))
        assert eng.current_result("Q") == want
        assert results_equal(oracle(q, store), want)
        eng.check_invariants()


def test_reregistered_id_scores_what_the_old_query_dropped():
    store, eng, driver = _engine()
    st = eng.register(mkquery("Q", {RED: 1.0}, k=1))
    _fill(driver, [mkdoc(1, {RED: 2}), mkdoc(2, {RED: 3})])
    assert 1 not in st.scores
    eng.unregister("Q")
    eng.check_invariants()
    q = mkquery("Q", {RED: 1.0}, k=2)
    eng.register(q)
    assert eng.current_result("Q") == [(2, 3.0), (1, 2.0)]
    eng.check_invariants()


# -- skipped rollups ----------------------------------------------------------

def test_arrival_above_a_threshold_lowers_raise_at():
    """At k=2 over weights 4 and 2 the threshold rolls up to 2, and the next
    raise (to 4) needs a k-th score of 4. Doc 3 inserts weight 3, so a k-th
    score of 3 already raises the threshold to 3; a rollup skipped on the
    stale raise_at would leave it at 2."""
    store, eng, driver = _engine()
    st = eng.register(mkquery("Q", {RED: 1.0}, k=2))
    _fill(driver, [mkdoc(1, {RED: 2}), mkdoc(2, {RED: 4})])
    assert st.thresholds == {RED: 2.0}
    assert st.raise_at == 4.0
    driver.process(Arrival(mkdoc(3, {RED: 3})))
    assert st.s_k == 3.0
    assert st.thresholds == {RED: 3.0}
    eng.check_invariants()


def test_rollups_that_cannot_raise_are_skipped():
    """Arrivals that land in the top k but below the cheapest raise leave
    the thresholds as they are, without a rollup."""
    store, eng, driver = _engine()
    st = eng.register(mkquery("Q", {RED: 1.0, ROSE: 1.0}, k=1))
    _fill(driver, [mkdoc(1, {RED: 3, ROSE: 3})])
    assert st.thresholds == {RED: 3.0, ROSE: 3.0}
    assert st.raise_at == float("inf")  # no posting lies above either threshold
    retunes = eng.stats["retunes"]
    _fill(driver, [mkdoc(2, {RED: 3, ROSE: 3})])  # ties doc 1 and wins as newer
    assert eng.current_result("Q") == [(2, 6.0)]
    assert eng.stats["retunes"] == retunes


# -- registration contract --------------------------------------------------

def test_register_duplicate_id_rejected():
    store, eng, driver = _engine()
    eng.register(mkquery("Q", {1: 1.0}, k=1))
    with pytest.raises(ValueError):
        eng.register(mkquery("Q", {2: 1.0}, k=1))


def test_unregister_removes_every_trace():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 2, 2: 1})])
    eng.register(mkquery("Q", {1: 1.0, 2: 1.0}, k=1))
    eng.unregister("Q")
    for tid in (1, 2):
        ent = eng.index.entry(tid)
        if ent is not None:
            assert all(qid != "Q" for _t, qid in ent.tree.entries())
    with pytest.raises(ValueError):
        eng.unregister("Q")
    with pytest.raises(ValueError):
        eng.current_result("Q")


def test_register_with_k_beyond_window():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 1}), mkdoc(2, {1: 3}), mkdoc(3, {9: 1})])
    eng.register(mkquery("Q", {1: 1.0}, k=50))
    assert [d for d, _ in eng.current_result("Q")] == [2, 1]


def test_current_result_empty_window():
    store, eng, driver = _engine()
    eng.register(mkquery("Q", {1: 1.0}, k=3))
    assert eng.current_result("Q") == []


def test_returned_result_is_the_callers_copy():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 2}), mkdoc(2, {1: 3})])
    eng.register(mkquery("Q", {1: 1.0}, k=2))
    got = eng.current_result("Q")
    got.pop()
    got.append((99, 9.0))
    got.reverse()
    assert eng.current_result("Q") == [(2, 3.0), (1, 2.0)]
    eng.check_invariants()


def test_equal_scores_rank_newer_first():
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 2}), mkdoc(2, {1: 2})])
    eng.register(mkquery("Q", {1: 1.0}, k=2))
    assert [d for d, _ in eng.current_result("Q")] == [2, 1]


# -- safety and economy -----------------------------------------------------

def test_threshold_safety_exhaustive_small():
    """Docs below every local threshold score strictly below the k-th."""
    rng = random.Random(11)
    events = random_events(rng, 150, vocab=6)
    queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(6), 2)}, k=2)
               for i in range(4)]
    store = DocumentStore(WindowPolicy.count_based(12))
    eng = IncrementalTopKEngine(store)
    driver = StreamDriver(store, eng)
    for q in queries:
        eng.register(q)
    for ev in events:
        driver.process(ev)
        for q in queries:
            st = eng.state(q.id)
            if st.s_k is None:
                continue
            result_ids = {d for d, _ in eng.current_result(q.id)}
            for doc in store.documents():
                if doc.id in result_ids or doc.is_duplicate:
                    continue
                w = doc.composition.weights
                if all(w.get(t, 0.0) < st.thresholds[t] for t, _ in q.items):
                    s = sum(wq * w.get(t, 0.0) for t, wq in q.items)
                    assert s < st.s_k


def test_initial_search_scores_at_most_the_matching_candidates():
    rng = random.Random(17)
    for _ in range(30):
        store, eng, driver = _engine()
        docs = [mkdoc(i, {rng.randrange(4): float(rng.randint(1, 5))
                          for _ in range(rng.randint(1, 3))})
                for i in range(1, 12)]
        _fill(driver, docs)
        q = mkquery("Q", {t: 1.0 for t in rng.sample(range(4), 2)}, k=2)
        before = eng.stats["score_computations"]
        eng.register(q)
        scored = eng.stats["score_computations"] - before
        matching = sum(1 for d in docs
                       if any(t in d.composition.weights for t, _ in q.items))
        assert scored <= matching
        eng.unregister("Q")


def test_skewed_list_needs_single_probe_for_k1():
    """With the weight mass concentrated at one list head, the initial
    search scores strictly fewer documents than a full rescan would."""
    store, eng, driver = _engine()
    _fill(driver, [mkdoc(1, {1: 1}), mkdoc(2, {1: 1}), mkdoc(3, {1: 1}),
                   mkdoc(4, {1: 50})])
    before = eng.stats["score_computations"]
    eng.register(mkquery("Q", {1: 1.0}, k=1))
    assert eng.stats["score_computations"] - before == 1 < 4


# -- end-to-end oracle equivalence -------------------------------------------

def test_oracle_equivalence_randomized_streams():
    rng = random.Random(23)
    for seed in range(4):
        events = random_events(random.Random(seed), 250, vocab=7)
        queries = [mkquery(f"q{i}",
                           {t: 1.0 for t in random.Random(seed + i).sample(range(7), 2)},
                           k=random.Random(seed * 7 + i).randint(1, 4))
                   for i in range(6)]
        run_against_oracle(events, queries, WindowPolicy.count_based(15))


def test_oracle_equivalence_time_window():
    """Arrivals one tick apart, then four to a tick, which leave together."""
    events = random_events(random.Random(2), 250, vocab=7)
    queries = [mkquery("a", {0: 1.0, 1: 1.0}, k=3), mkquery("b", {2: 2.0, 3: 0.5}, k=2)]
    run_against_oracle(events, queries, WindowPolicy.time_based(12))
    grouped = [Arrival(mkdoc(ev.doc.id, ev.doc.composition.pairs, t=ev.doc.id // 4))
               for ev in random_events(random.Random(8), 250, vocab=5)]
    eng = run_against_oracle(grouped, queries + [mkquery("c", {4: 1.0}, k=1)],
                             WindowPolicy.time_based(5))
    eng.check_invariants()
