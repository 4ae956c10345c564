import random

import pytest

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, ShardSet, StreamDriver,
                        WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery, random_events, results_equal


def test_single_worker_matches_plain_engine():
    events = random_events(random.Random(1), 120, vocab=5)
    q = mkquery("q", {0: 1.0, 1: 1.0}, k=3)

    store_a = DocumentStore(WindowPolicy.count_based(10))
    solo = IncrementalTopKEngine(store_a)
    solo.register(q)
    drv_a = StreamDriver(store_a, solo)

    store_b = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store_b, workers=1)
    shards.register(q)
    drv_b = StreamDriver(store_b, shards)

    for ev in events:
        drv_a.process(ev)
        drv_b.process(ev)
        assert shards.current_result("q") == solo.current_result("q")


def test_merge_takes_global_best():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(2, {1: 1})))
    driver.process(Arrival(mkdoc(4, {1: 7})))
    driver.process(Arrival(mkdoc(9, {1: 5})))
    assert shards.current_result("q") == [(4, 7.0), (9, 5.0)]


def test_merge_breaks_score_ties_by_newer_id():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(2, {1: 3})))
    driver.process(Arrival(mkdoc(3, {1: 3})))
    assert [d for d, _ in shards.current_result("q")] == [3, 2]


def test_expiration_routed_to_owning_shard():
    store = DocumentStore(WindowPolicy.count_based(2))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(1, {1: 5})))
    driver.process(Arrival(mkdoc(2, {1: 4})))
    out = driver.process(Arrival(mkdoc(4, {1: 3})))  # expires doc 1
    assert [d.id for d in out.expired] == [1]
    assert not any(did == 1 for did, _ in shards.current_result("q"))
    assert shards.current_result("q") == [(2, 4.0), (4, 3.0)]


def _owners(shards):
    """Query id -> the index of every shard that holds it."""
    owners = {}
    for i, shard in enumerate(shards.shards):
        for qid in shard.queries():
            owners.setdefault(qid, []).append(i)
    return owners


def test_each_query_has_one_owner():
    shards = ShardSet(DocumentStore(WindowPolicy.count_based(10)), workers=3)
    for i in range(5):
        shards.register(mkquery(f"q{i}", {i: 1.0}, k=7))
    assert _owners(shards) == {"q0": [0], "q1": [1], "q2": [2], "q3": [0], "q4": [1]}
    assert shards.shards[0].state("q3").k == 7
    with pytest.raises(ValueError):
        shards.register(mkquery("q0", {2: 1.0}, k=1))
    shards.unregister("q0")
    with pytest.raises(ValueError):
        shards.unregister("q0")
    with pytest.raises(ValueError):
        shards.current_result("q0")
    shards.check_invariants()


def test_assignment_takes_the_emptiest_shard_under_churn():
    """A query goes to the shard with the fewest queries, the lowest index
    on a tie. A freed id re-registered goes by the same rule, not back to
    its old shard, and its result matches one engine's."""
    store = DocumentStore(WindowPolicy.count_based(10))
    solo = IncrementalTopKEngine(DocumentStore(store.policy))
    shards = ShardSet(store, workers=3)
    drivers = [StreamDriver(solo.store, solo), StreamDriver(store, shards)]
    for qid in "abcd":
        for eng in (solo, shards):
            eng.register(mkquery(qid, {1: 1.0}, k=2))
    for did, w in ((1, 3), (2, 1), (3, 2)):
        for drv in drivers:
            drv.process(Arrival(mkdoc(did, {1: w, 2: 1})))
    assert _owners(shards) == {"a": [0], "b": [1], "c": [2], "d": [0]}
    shards.unregister("b")
    shards.register(mkquery("e", {2: 1.0}, k=1))
    assert _owners(shards)["e"] == [1]
    for qid in "ac":
        shards.unregister(qid)
        solo.unregister(qid)
    assert [len(s.queries()) for s in shards.shards] == [1, 1, 0]
    for eng in (solo, shards):
        eng.register(mkquery("a", {2: 1.0, 1: 0.5}, k=2))
    assert _owners(shards) == {"d": [0], "e": [1], "a": [2]}
    shards.check_invariants()
    for did in (4, 5):
        for drv in drivers:
            drv.process(Arrival(mkdoc(did, {2: did})))
    assert shards.current_result("a") == solo.current_result("a") == [(5, 5.0), (4, 4.0)]
    assert shards.current_result("d") == solo.current_result("d")
    shards.check_invariants()


def test_a_shard_without_queries_indexes_every_ranked_document():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=3)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards, dedup=DedupConfig(0.9))
    driver.process(Arrival(mkdoc(1, {1: 2, 2: 1})))
    assert driver.process(Arrival(mkdoc(2, {1: 2, 2: 1}))).duplicate_of == 1
    driver.process(Arrival(mkdoc(3, {2: 5})))
    for shard in shards.shards:
        assert shard.index.list_for(1).entries() == [(1, 2.0)]
        assert shard.index.list_for(2).entries() == [(3, 5.0), (1, 1.0)]
    assert [len(s.queries()) for s in shards.shards] == [1, 0, 0]
    shards.check_invariants()


def test_changed_is_exact_when_several_shards_report():
    """One arrival changes a query on each of two shards and leaves a third
    query, beside one of them, alone. A later arrival changes the third
    while the expiry it causes changes the other two."""
    stores = [DocumentStore(WindowPolicy.count_based(2)) for _ in range(2)]
    solo = IncrementalTopKEngine(stores[0])
    shards = ShardSet(stores[1], workers=2)
    drivers = [StreamDriver(stores[0], solo), StreamDriver(stores[1], shards)]
    for qid, terms in (("x", {1: 1.0}), ("y", {1: 1.0, 2: 1.0}), ("z", {3: 1.0})):
        for eng in (solo, shards):
            eng.register(mkquery(qid, terms, k=1))
    assert _owners(shards) == {"x": [0], "y": [1], "z": [0]}
    outs = [drv.process(Arrival(mkdoc(1, {1: 1, 2: 1}))) for drv in drivers]
    assert outs[1].changed == outs[0].changed == {"x", "y"}
    outs = [drv.process(Arrival(mkdoc(2, {3: 1}))) for drv in drivers]
    assert outs[1].changed == outs[0].changed == {"z"}
    outs = [drv.process(Arrival(mkdoc(3, {3: 2}))) for drv in drivers]
    assert [d.id for d in outs[1].expired] == [1]
    assert outs[1].changed == outs[0].changed == {"x", "y", "z"}
    for qid in "xyz":
        assert shards.current_result(qid) == solo.current_result(qid)
    shards.check_invariants()


def test_shards_share_one_feedback_store():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=3)
    assert isinstance(shards.feedback, FeedbackStore)
    assert all(shard.feedback is shards.feedback for shard in shards.shards)
    given = FeedbackStore()
    assert all(shard.feedback is given for shard in ShardSet(store, 2, given).shards)


def test_sharded_results_equal_single_node_any_worker_count():
    """At k=20 the 14-document window leaves every shard fewer than k keys,
    and unit weights make score ties common. The merged result must match
    one engine's, and ``changed`` must name exactly the queries whose merged
    result changed."""
    for workers in (1, 2, 4):
        rng = random.Random(71)
        events = []
        for ev in random_events(rng, 300, vocab=6):
            events.append(ev)
        queries = [mkquery(f"q{i}", {t: 1.0 for t in rng.sample(range(6), 2)},
                           k=(1, 3, 20)[i % 3])
                   for i in range(5)]

        store_a = DocumentStore(WindowPolicy.count_based(14))
        fb_a = FeedbackStore()
        solo = IncrementalTopKEngine(store_a, fb_a)
        drv_a = StreamDriver(store_a, solo, fb_a, DedupConfig(0.9))

        store_b = DocumentStore(WindowPolicy.count_based(14))
        fb_b = FeedbackStore()
        shards = ShardSet(store_b, workers, fb_b)
        drv_b = StreamDriver(store_b, shards, fb_b, DedupConfig(0.9))

        for q in queries:
            solo.register(q)
            shards.register(q)

        def process(event):
            before = {q.id: shards.current_result(q.id) for q in queries}
            drv_a.process(event)
            changed = drv_b.process(event).changed
            moved = {qid for qid, res in before.items()
                     if shards.current_result(qid) != res}
            assert moved == changed, f"changed {changed}, but {moved} moved"

        for i, ev in enumerate(events):
            process(ev)
            if i % 10 == 0 and len(store_a):
                target = next(iter(store_a.documents())).id
                doc = store_a.get(target)
                if doc is not None and not doc.is_duplicate:
                    process(Feedback(target, 0.7))
            for q in queries:
                assert results_equal(solo.current_result(q.id),
                                     shards.current_result(q.id))
