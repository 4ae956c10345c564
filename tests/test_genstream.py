import io
import math

import pytest

from streamtopk import StreamConfig, Vocabulary, generate_stream
from streamtopk.genstream import QueryConfig, generate_queries
from streamtopk.fileio import write_stream


def test_same_seed_is_bitwise_identical():
    cfg = StreamConfig(rate=100, duration=2.0, vocab_size=50, seed=7)
    out = []
    for _ in range(2):
        vocab = Vocabulary()
        events = generate_stream(cfg, vocab)
        buf = io.StringIO()
        write_stream(buf, events, vocab)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_different_seeds_differ():
    a = generate_stream(StreamConfig(rate=100, duration=1.0, seed=1))
    b = generate_stream(StreamConfig(rate=100, duration=1.0, seed=2))
    assert [e.doc.composition for e in a] != [e.doc.composition for e in b]


def test_zero_duration_is_empty():
    assert generate_stream(StreamConfig(rate=100, duration=0.0)) == []


@pytest.mark.parametrize("rate", [0.0, -5.0, math.nan])
def test_rate_must_be_positive(rate):
    with pytest.raises(ValueError):
        StreamConfig(rate=rate, duration=1.0)


def test_arrival_count_near_poisson_mean():
    lam, dur = 100, 4.0
    n = len(generate_stream(StreamConfig(rate=lam, duration=dur, seed=3)))
    mean = lam * dur
    assert abs(n - mean) <= 3 * math.sqrt(mean)


def test_ids_and_times_strictly_ordered():
    events = generate_stream(StreamConfig(rate=500, duration=1.0, seed=5))
    ids = [e.doc.id for e in events]
    times = [e.doc.arrival_time for e in events]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    assert times == sorted(times)
    assert all(t >= 0 for t in times)


def test_doc_lengths_respect_bounds():
    events = generate_stream(StreamConfig(rate=200, duration=1.0,
                                          doc_length=(3, 7), seed=11))
    for ev in events:
        total = sum(int(w) for _t, w in ev.doc.composition.pairs)
        assert 3 <= total <= 7


def test_zipf_skew_favors_low_ranks():
    vocab = Vocabulary()
    events = generate_stream(StreamConfig(rate=2000, duration=1.0, vocab_size=100,
                                          zipf_s=1.0, seed=13), vocab)
    mass: dict[str, float] = {}
    for ev in events:
        for tid, w in ev.doc.composition.pairs:
            tok = vocab.token(tid)
            mass[tok] = mass.get(tok, 0.0) + w
    assert mass["t0"] > mass.get("t50", 0.0) > mass.get("t99", 0.0) * 0.999


def test_exact_doc_count_mode():
    events = generate_stream(StreamConfig(rate=100, duration=0.5, n_docs=42, seed=1))
    assert len(events) == 42


def test_duplicate_injection_produces_copies():
    events = generate_stream(StreamConfig(rate=200, duration=2.0, vocab_size=30,
                                          dup_rate=0.5, dup_backlook=20,
                                          dup_perturb=0.0, seed=17))
    comps = [e.doc.composition for e in events]
    copies = sum(1 for i, c in enumerate(comps) if c in comps[max(0, i - 20):i])
    assert copies >= 0.3 * len(events)


def test_query_generation_shape():
    qs = generate_queries(QueryConfig(count=50, terms=4, k=10, seed=2), 100)
    assert len(qs) == 50
    for q in qs:
        assert q.n == 4 and q.k == 10
        assert all(w == 1.0 for _t, w in q.items)


def test_query_generation_empty():
    assert generate_queries(QueryConfig(count=0, terms=3, k=1), 10) == []


def test_query_terms_cover_whole_vocabulary_at_boundary():
    qs = generate_queries(QueryConfig(count=3, terms=5, k=1, seed=4), 5)
    for q in qs:
        assert q.n == 5


def test_query_terms_beyond_vocabulary_rejected():
    with pytest.raises(ValueError):
        generate_queries(QueryConfig(count=1, terms=11, k=1), 10)


def test_query_generation_deterministic():
    a = generate_queries(QueryConfig(count=20, terms=3, k=5, seed=9), 50)
    b = generate_queries(QueryConfig(count=20, terms=3, k=5, seed=9), 50)
    assert [q.items for q in a] == [q.items for q in b]
