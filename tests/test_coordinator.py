import random

import pytest

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, ShardSet, StreamDriver,
                        WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery, random_events, results_equal


def test_document_partitioning_by_modulo():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=4)
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(7, {1: 1})))
    driver.process(Arrival(mkdoc(8, {2: 1})))
    owners = {tid: [i for i, s in enumerate(shards.shards) if s.index.list_for(tid)]
              for tid in (1, 2)}
    assert owners == {1: [3], 2: [0]}


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
    # shard 1 gets doc 9 (score 5); shard 0 gets docs 4 and 2 (scores 7, 1)
    driver.process(Arrival(mkdoc(2, {1: 1})))
    driver.process(Arrival(mkdoc(4, {1: 7})))
    driver.process(Arrival(mkdoc(9, {1: 5})))
    assert shards.current_result("q") == [(4, 7.0), (9, 5.0)]


def test_merge_breaks_score_ties_by_newer_id():
    store = DocumentStore(WindowPolicy.count_based(10))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(2, {1: 3})))  # shard 0
    driver.process(Arrival(mkdoc(3, {1: 3})))  # shard 1
    assert [d for d, _ in shards.current_result("q")] == [3, 2]


def test_expiration_routed_to_owning_shard():
    store = DocumentStore(WindowPolicy.count_based(2))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    driver.process(Arrival(mkdoc(1, {1: 5})))  # shard 1
    driver.process(Arrival(mkdoc(2, {1: 4})))  # shard 0
    out = driver.process(Arrival(mkdoc(4, {1: 3})))  # expires doc 1 from shard 1
    assert [d.id for d in out.expired] == [1]
    assert not any(did == 1 for did, _ in shards.current_result("q"))
    assert shards.current_result("q") == [(2, 4.0), (4, 3.0)]


def test_arrival_pushing_out_a_merged_shard_key():
    """Doc 6 enters shard 0's top-2 and pushes out doc 4, shard 0's k-th
    key, which sits in the merged top-2. The merged list must drop it as
    one engine does."""
    stores = [DocumentStore(WindowPolicy.count_based(10)) for _ in range(2)]
    solo = IncrementalTopKEngine(stores[0])
    shards = ShardSet(stores[1], workers=2)
    drivers = [StreamDriver(stores[0], solo), StreamDriver(stores[1], shards)]
    for engine in (solo, shards):
        engine.register(mkquery("q", {1: 1.0}, k=2))
    for did, w in ((1, 1), (2, 5), (4, 4)):
        for drv in drivers:
            drv.process(Arrival(mkdoc(did, {1: w})))
    assert shards.current_result("q") == [(2, 5.0), (4, 4.0)]
    assert shards.shards[0].top_keys("q")[-1] == (-4.0, -4)
    outs = [drv.process(Arrival(mkdoc(6, {1: 6}))) for drv in drivers]
    assert shards.current_result("q") == solo.current_result("q") == [(6, 6.0), (2, 5.0)]
    assert outs[1].changed == outs[0].changed == {"q"}
    shards.check_invariants()


def test_expiry_refill_below_merged_kth_is_not_reported():
    """Doc 2 leaves shard 0's top-2 and doc 4 refills it, but shard 1 holds
    the merged top-2: the query's result does not move and is not
    reported, although shard 0's top-k changed."""
    store = DocumentStore(WindowPolicy.count_based(5))
    shards = ShardSet(store, workers=2)
    shards.register(mkquery("q", {1: 1.0}, k=2))
    driver = StreamDriver(store, shards)
    for did, w in ((2, 2), (3, 9), (4, 1), (5, 8), (6, 1.5)):
        driver.process(Arrival(mkdoc(did, {1: w})))
    before = shards.current_result("q")
    shard_before = shards.shards[0].top_keys("q")
    assert before == [(3, 9.0), (5, 8.0)]
    out = driver.process(Arrival(mkdoc(7, {2: 1})))  # expires doc 2
    assert [d.id for d in out.expired] == [2]
    assert shards.shards[0].top_keys("q") != shard_before
    assert shards.current_result("q") == before
    assert out.changed == set()
    shards.check_invariants()


def test_every_shard_registers_full_k():
    shards = ShardSet(DocumentStore(WindowPolicy.count_based(10)), workers=3)
    shards.register(mkquery("q", {1: 1.0}, k=7))
    for shard in shards.shards:
        assert shard.state("q").k == 7
    with pytest.raises(ValueError):
        shards.register(mkquery("q", {2: 1.0}, k=1))
    shards.unregister("q")
    with pytest.raises(ValueError):
        shards.unregister("q")


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
