"""Wide slot masks and recycled slots.

The engine records who scored what as one mask of query slots per document.
Here 120 live queries push the masks past four 30-bit CPython digits; a
spread of them is unregistered and new queries, some under freed ids, take
the freed slots smallest first. Every step is checked against the
full-rescan oracle and ``check_invariants()``, and a query registered into
a recycled slot must search exactly as it would on a fresh engine over the
same window: it inherits nothing its slot's last holder scored.
"""

import random

from streamtopk import DocumentStore, IncrementalTopKEngine, StreamDriver, WindowPolicy
from streamtopk.driver import Arrival

from helpers import mkdoc, mkquery, oracle, results_equal

SEED = 17
VOCAB = 12
WINDOW = 40
N_QUERIES = 120


def _doc(rng, did):
    return mkdoc(did, {t: rng.choice((1, 2, 3)) for t in rng.sample(range(VOCAB), rng.randint(1, 4))})


def _query(rng, qid):
    weights = {t: rng.choice((0.5, 1.0, 2.0)) for t in rng.sample(range(VOCAB), rng.randint(1, 3))}
    return mkquery(qid, weights, k=rng.randint(1, 4))


def test_wide_masks_and_recycled_slots():
    rng = random.Random(SEED)
    store = DocumentStore(WindowPolicy.count_based(WINDOW))
    eng = IncrementalTopKEngine(store)
    driver = StreamDriver(store, eng)
    live = {}
    next_doc = 1

    def check():
        eng.check_invariants()
        for q in live.values():
            assert results_equal(oracle(q, store), eng.current_result(q.id)), q.id

    def arrive():
        nonlocal next_doc
        driver.process(Arrival(_doc(rng, next_doc)))
        next_doc += 1
        check()

    def register_recycled(q):
        """Register ``q`` and compare its search with a fresh engine's."""
        fresh_store = DocumentStore(WindowPolicy.count_based(WINDOW))
        fresh = IncrementalTopKEngine(fresh_store)
        fresh_driver = StreamDriver(fresh_store, fresh)
        for d in store.documents():
            fresh_driver.process(Arrival(d))
        before = dict(eng.stats)
        st = eng.register(q)
        fresh_st = fresh.register(q)
        assert {key: eng.stats[key] - n for key, n in before.items()} == fresh.stats
        assert st.scores == fresh_st.scores
        assert st.thresholds == fresh_st.thresholds
        live[q.id] = q
        check()
        return st

    for _ in range(WINDOW // 2):
        arrive()
    for i in range(N_QUERIES):
        q = _query(rng, f"q{i}")
        assert driver.register(q).slot == i
        live[q.id] = q
        if i % 10 == 9:
            arrive()
    for _ in range(WINDOW):
        arrive()
    widest = max(mask.bit_length() for mask in eng._rev.values())
    assert widest > 90, f"masks reach only bit {widest - 1}"

    # a spread of slots, the highest included, and their ids
    freed = list(range(N_QUERIES - 1, 0, -7))
    for slot in freed:
        driver.unregister(f"q{slot}")
        del live[f"q{slot}"]
        check()
    arrive()

    # refill the freed slots smallest first, every other one under its old id
    for n, slot in enumerate(sorted(freed)):
        qid = f"q{slot}" if n % 2 == 0 else f"new{n}"
        assert register_recycled(_query(rng, qid)).slot == slot
        arrive()
    assert eng._free == []

    # churn: one slot freed and refilled at a time, arrivals in between
    for n in range(20):
        qid = rng.choice(sorted(live))
        slot = eng.state(qid).slot
        driver.unregister(qid)
        del live[qid]
        check()
        arrive()
        reuse = qid if n % 3 == 0 else f"churn{n}"
        assert register_recycled(_query(rng, reuse)).slot == slot
        arrive()
