import random

import pytest
from hypothesis import given, settings, strategies as st

from streamtopk import DocumentStore, WindowPolicy
from streamtopk.index import InvertedList, TermIndex, ThresholdTree

from helpers import mkdoc


# -- document store ---------------------------------------------------------

def test_count_window_caps_size():
    store = DocumentStore(WindowPolicy.count_based(3))
    for i in range(1, 5):
        store.insert(mkdoc(i, {1: 1}))
    gone = store.evict_due(4)
    assert [d.id for d in gone] == [1]
    assert len(store) == 3


def test_decreasing_timestamp_rejected_before_any_change():
    store = DocumentStore(WindowPolicy.time_based(10))
    store.insert(mkdoc(1, {1: 1}, t=100))
    with pytest.raises(ValueError):
        store.insert(mkdoc(2, {1: 1}, t=5))
    assert [d.id for d in store.documents()] == [1] and 2 not in store
    store.insert(mkdoc(3, {1: 1}, t=108))
    store.insert(mkdoc(4, {1: 1}, t=108))  # equal timestamps are fine
    assert store.evict_due(108) == []
    assert [d.id for d in store.evict_due(110)] == [1]


def test_count_window_fifo_single_slot():
    store = DocumentStore(WindowPolicy.count_based(1))
    store.insert(mkdoc(1, {1: 1}))
    assert store.evict_due(1) == []
    store.insert(mkdoc(2, {1: 1}))
    assert [d.id for d in store.evict_due(2)] == [1]


def test_time_window_expires_by_age():
    store = DocumentStore(WindowPolicy.time_based(10))
    store.insert(mkdoc(1, {1: 1}, t=0))
    store.insert(mkdoc(2, {1: 1}, t=5))
    assert [d.id for d in store.evict_due(11)] == [1]
    assert 2 in store and 1 not in store


def test_no_eviction_when_within_capacity():
    store = DocumentStore(WindowPolicy.count_based(3))
    for i in range(1, 4):
        store.insert(mkdoc(i, {1: 1}))
    assert store.evict_due(3) == []


def test_rejects_out_of_order_ids():
    store = DocumentStore(WindowPolicy.count_based(5))
    store.insert(mkdoc(5, {1: 1}))
    with pytest.raises(ValueError):
        store.insert(mkdoc(4, {1: 1}))


def test_eviction_returns_ascending_ids():
    store = DocumentStore(WindowPolicy.time_based(1))
    for i in range(1, 6):
        store.insert(mkdoc(i, {1: 1}, t=0))
    assert [d.id for d in store.evict_due(100)] == [1, 2, 3, 4, 5]


# -- inverted lists ---------------------------------------------------------

def test_inverted_list_order_weight_desc_then_id_desc():
    lst = InvertedList()
    lst.insert(1, 2.0)
    lst.insert(2, 3.0)
    lst.insert(3, 2.0)
    assert lst.entries() == [(2, 3.0), (3, 2.0), (1, 2.0)]


def test_inverted_list_remove_exact():
    lst = InvertedList()
    lst.insert(1, 2.0)
    lst.insert(2, 2.0)
    lst.remove(1, 2.0)
    assert lst.entries() == [(2, 2.0)]
    with pytest.raises(KeyError):
        lst.remove(1, 2.0)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 9)),
                min_size=1, max_size=40, unique_by=lambda p: p[0]))
def test_inverted_list_sorted_under_random_ops(pairs):
    lst = InvertedList()
    rng = random.Random(42)
    live = []
    for did, w in pairs:
        lst.insert(did, float(w))
        live.append((did, float(w)))
        if rng.random() < 0.3 and live:
            gone = live.pop(rng.randrange(len(live)))
            lst.remove(*gone)
        entries = lst.entries()
        assert entries == sorted(entries, key=lambda e: (-e[1], -e[0]))
        assert sorted(e[0] for e in entries) == sorted(d for d, _ in live)


def test_run_end_and_weight_navigation():
    lst = InvertedList()
    for did, w in [(1, 5.0), (2, 4.0), (3, 4.0), (4, 2.0)]:
        lst.insert(did, w)
    assert lst.run_end(0) == 1          # the lone 5.0
    assert lst.run_end(1) == 3          # both 4.0 entries
    assert lst.pos_weight_below(4.0) == 1
    assert lst.pos_weight_below(1.0) == 4
    assert lst.next_weight_above(2.0) == 4.0
    assert lst.next_weight_above(5.0) is None


# -- threshold trees --------------------------------------------------------

def test_probe_returns_thresholds_at_or_below_weight():
    tree = ThresholdTree()
    tree.insert("Q1", 0.5)
    tree.insert("Q2", 0.8)
    assert set(tree.probe(0.6)) == {"Q1"}
    assert set(tree.probe(0.8)) == {"Q1", "Q2"}
    assert set(tree.probe(0.1)) == set()


def test_set_local_threshold_moves_query():
    tree = ThresholdTree()
    tree.insert("Q1", 0.5)
    tree.update("Q1", 0.5, 0.9)
    assert set(tree.probe(0.6)) == set()
    assert set(tree.probe(0.9)) == {"Q1"}


def test_set_identical_threshold_is_noop():
    tree = ThresholdTree()
    tree.insert("Q1", 0.5)
    before = tree.entries()
    tree.update("Q1", 0.5, 0.5)
    assert tree.entries() == before


def test_zero_threshold_matches_every_positive_weight():
    tree = ThresholdTree()
    tree.insert("Q1", 0.0)
    assert set(tree.probe(1e-12)) == {"Q1"}


def test_unknown_query_threshold_update_fails():
    tree = ThresholdTree()
    tree.insert("Q1", 0.5)
    with pytest.raises(KeyError):
        tree.update("Q9", 0.5, 0.7)


# -- index consistency ------------------------------------------------------

def _check_index_consistency(store, index):
    """Each windowed non-duplicate doc has exactly one entry per distinct
    term and nothing else; every entry's doc is windowed."""
    expected: dict[int, set[int]] = {}
    for d in store.documents():
        if d.duplicate_of is None:
            for tid, _w in d.composition.pairs:
                expected.setdefault(tid, set()).add(d.id)
    seen: dict[int, list[int]] = {}
    for tid in list(index.terms()):
        postings = index.list_for(tid)
        if postings is None or not postings:
            continue
        ids = [did for did, _ in postings.entries()]
        assert len(ids) == len(set(ids))
        seen[tid] = ids
        for did in ids:
            assert did in store
    assert {t: set(v) for t, v in seen.items()} == expected


def _insert(store, index, doc):
    store.insert(doc)
    index.add_document(doc)


def _evict(store, index, now):
    expired = store.evict_due(now)
    for doc in expired:
        index.remove_document(doc)
    return expired


def test_insert_document_indexes_each_distinct_term():
    store = DocumentStore(WindowPolicy.count_based(10))
    index = TermIndex()
    _insert(store, index, mkdoc(1, {3: 2, 7: 1}))
    assert len(index.list_for(3)) == 1
    assert len(index.list_for(7)) == 1
    _check_index_consistency(store, index)


def test_duplicate_gets_window_slot_but_no_entries():
    store = DocumentStore(WindowPolicy.count_based(10))
    index = TermIndex()
    _insert(store, index, mkdoc(7, {3: 2}))
    _insert(store, index, mkdoc(8, {3: 2}, dup=7))
    assert len(store) == 2
    assert len(index.list_for(3)) == 1
    _check_index_consistency(store, index)


def test_evict_expired_deindexes():
    store = DocumentStore(WindowPolicy.time_based(10))
    index = TermIndex()
    _insert(store, index, mkdoc(1, {3: 2}, t=0))
    gone = _evict(store, index, now=11)
    assert [d.id for d in gone] == [1]
    assert index.list_for(3) is None  # term entry garbage-collected
    _check_index_consistency(store, index)


def test_index_consistent_under_random_interleaving():
    rng = random.Random(9)
    store = DocumentStore(WindowPolicy.count_based(8))
    index = TermIndex()
    for i in range(1, 120):
        pairs = {rng.randrange(6): float(rng.randint(1, 4))
                 for _ in range(rng.randint(1, 4))}
        dup = None
        if rng.random() < 0.2 and len(store):
            cand = rng.choice([d.id for d in store.documents()])
            dup = cand if cand < i else None
        _insert(store, index, mkdoc(i, pairs, dup=dup))
        _evict(store, index, now=i)
        _check_index_consistency(store, index)
