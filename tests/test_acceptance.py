"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured figures (run with ``pytest -s`` to see them).

The heavier scenarios replay tens of thousands of query evaluations, so
this module dominates the suite's runtime; every tolerance asserted here is
part of the package contract.
"""

import math
import random
import time

import pytest

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, Query, ShardSet, StreamConfig,
                        StreamDriver, Vocabulary, WindowPolicy, generate_stream,
                        naive_top_k)
from streamtopk.bench import run_benchmark, sweep
from streamtopk.dedup import cosine
from streamtopk.driver import Feedback
from streamtopk.fileio import write_stream
from streamtopk.genstream import QueryConfig, generate_queries, token_for

from helpers import results_equal

pytestmark = pytest.mark.slow


def _mixed_length_queries(rng, count, n_range, k, vocab_size, vocab):
    queries = []
    for i in range(count):
        n = rng.randint(*n_range)
        ranks = rng.sample(range(vocab_size), n)
        queries.append(Query(id=f"q{i}",
                             term_weights={vocab.intern(token_for(r)): 1.0 for r in ranks},
                             k=k))
    return queries


def _spearman(xs, ys):
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for idx in order[i:j + 1]:
                out[idx] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return num / (dx * dy)


def test_criterion_1_oracle_equivalence_every_event():
    """Incremental results equal a full-window rescan after every event."""
    t0 = time.perf_counter()
    vocab = Vocabulary()
    stream = generate_stream(StreamConfig(rate=200, vocab_size=500,
                                          doc_length=(10, 50), zipf_s=1.0,
                                          seed=101, n_docs=5000), vocab)
    rng = random.Random(102)
    queries = _mixed_length_queries(rng, 50, (4, 10), 10, 500, vocab)

    store = DocumentStore(WindowPolicy.count_based(500))
    engine = IncrementalTopKEngine(store)
    driver = StreamDriver(store, engine)
    for q in queries:
        engine.register(q)

    checked = 0
    for ev in stream:
        driver.process(ev)
        for q in queries:
            expected = [(sd.doc_id, sd.score) for sd in naive_top_k(q, store)]
            actual = engine.current_result(q.id)
            assert results_equal(expected, actual, tol=1e-9), (
                f"divergence at doc {ev.doc.id}, query {q.id}:\n"
                f"  oracle {expected}\n  engine {actual}")
            checked += 1
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 1: oracle equivalence over {len(stream)} events x "
          f"{len(queries)} queries ({checked} comparisons, 0 mismatches, "
          f"{elapsed:.0f}s)")


def test_criterion_2_incremental_beats_naive_by_3x():
    """Mean per-event time ratio naive/incremental >= 3 at N=1000, q=1000, n=4."""
    t0 = time.perf_counter()
    vocab = Vocabulary()
    window_n, measured = 1000, 100
    stream = generate_stream(StreamConfig(rate=200, vocab_size=5000,
                                          doc_length=(10, 100), seed=201,
                                          n_docs=window_n + measured), vocab)
    queries = generate_queries(QueryConfig(count=1000, terms=4, k=10, seed=202),
                               5000, vocab)
    policy = WindowPolicy.count_based(window_n)
    ita = run_benchmark("ita", stream, queries, policy, prefill=window_n)
    naive = run_benchmark("naive", stream, queries, policy, prefill=window_n)
    ratio = naive.mean_micros / ita.mean_micros
    elapsed = time.perf_counter() - t0
    assert ratio >= 3.0, f"naive/ita ratio {ratio:.1f} below 3"
    print(f"\nPASS criterion 2: naive {naive.mean_micros/1e3:.2f} ms/event vs "
          f"ita {ita.mean_micros/1e3:.3f} ms/event -> ratio {ratio:.0f}x "
          f"(>= 3 required, {elapsed:.0f}s)")


def test_criterion_3_query_length_trend():
    """Mean time rank-correlates with query length for both engines, and the
    incremental engine wins at every length."""
    values = [3, 8, 13, 18, 23]
    points = sweep("n", values,
                   stream=StreamConfig(rate=200, vocab_size=1000,
                                       doc_length=(10, 50), seed=301),
                   query=QueryConfig(count=50, terms=4, k=10, seed=302),
                   window_n=500, engines=["ita", "naive"], measured_events=150)
    by_engine: dict[str, list[float]] = {"ita": [], "naive": []}
    for p in points:
        by_engine[p.engine].append(p.mean_micros)
    rho_ita = _spearman(values, by_engine["ita"])
    rho_naive = _spearman(values, by_engine["naive"])
    assert rho_ita >= 0.9, f"ita Spearman {rho_ita:.2f} < 0.9: {by_engine['ita']}"
    assert rho_naive >= 0.9, f"naive Spearman {rho_naive:.2f} < 0.9: {by_engine['naive']}"
    for n, t_ita, t_naive in zip(values, by_engine["ita"], by_engine["naive"]):
        assert t_ita < t_naive, f"ita not faster at n={n}"
    print(f"\nPASS criterion 3: query-length sweep n={values}; "
          f"ita means {[f'{v/1e3:.2f}ms' for v in by_engine['ita']]}, "
          f"naive means {[f'{v/1e3:.2f}ms' for v in by_engine['naive']]}, "
          f"Spearman ita {rho_ita:.2f} naive {rho_naive:.2f}")


def test_criterion_4_window_size_trend():
    """Naive cost grows with the window by 5x or more from N=10 to N=10000,
    and the naive/incremental ratio widens across that range."""
    values = [10, 100, 1000, 10000]
    points = sweep("N", values,
                   stream=StreamConfig(rate=200, vocab_size=1000,
                                       doc_length=(10, 50), seed=401),
                   query=QueryConfig(count=50, terms=10, k=10, seed=402),
                   window_n=0, engines=["ita", "naive"], measured_events=30)
    means = {(p.value, p.engine): p.mean_micros for p in points}
    naive_growth = means[(10000, "naive")] / means[(10, "naive")]
    ratio_small = means[(10, "naive")] / means[(10, "ita")]
    ratio_large = means[(10000, "naive")] / means[(10000, "ita")]
    assert naive_growth >= 5.0, f"naive grew only {naive_growth:.1f}x"
    assert ratio_large > ratio_small, (
        f"speedup did not widen: {ratio_small:.1f}x at N=10 vs "
        f"{ratio_large:.1f}x at N=10000")
    print(f"\nPASS criterion 4: window sweep N={values}; naive grew "
          f"{naive_growth:.0f}x, naive/ita ratio {ratio_small:.0f}x at N=10 -> "
          f"{ratio_large:.0f}x at N=10000")


def test_criterion_5_duplicate_suppression():
    """With 20% duplicate arrivals, no reported result ever holds two
    documents at or above the duplicate-cosine threshold."""
    theta = 0.95
    vocab = Vocabulary()
    window_n = 200
    stream = generate_stream(StreamConfig(rate=200, vocab_size=300,
                                          doc_length=(10, 50), seed=501,
                                          n_docs=1500, dup_rate=0.2,
                                          dup_backlook=window_n, dup_perturb=0.5),
                             vocab)
    rng = random.Random(502)
    queries = _mixed_length_queries(rng, 10, (4, 6), 10, 300, vocab)
    store = DocumentStore(WindowPolicy.count_based(window_n))
    engine = IncrementalTopKEngine(store)
    driver = StreamDriver(store, engine, dedup=DedupConfig(theta))
    for q in queries:
        engine.register(q)

    flagged = 0
    pair_cos: dict[tuple[int, int], float] = {}
    for ev in stream:
        out = driver.process(ev)
        flagged += out.duplicate_of is not None
        for q in queries:
            ids = [d for d, _ in engine.current_result(q.id)]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    pair = (ids[j], ids[i])
                    c = pair_cos.get(pair)
                    if c is None:
                        c = cosine(store.get(pair[0]).composition,
                                   store.get(pair[1]).composition)
                        pair_cos[pair] = c
                    assert c < theta, f"near-duplicates {pair} in result of {q.id}"
    assert flagged > 0.1 * len(stream), "dup injection did not exercise the detector"
    print(f"\nPASS criterion 5: {flagged} of {len(stream)} arrivals flagged as "
          f"duplicates; every reported pair stayed below cosine {theta}")


def test_criterion_6_shard_merge_equivalence():
    """Merged scatter-gather results equal the single-node engine exactly."""
    vocab = Vocabulary()
    stream = generate_stream(StreamConfig(rate=200, vocab_size=300,
                                          doc_length=(10, 30), seed=601,
                                          n_docs=2000, dup_rate=0.1,
                                          dup_backlook=100), vocab)
    rng = random.Random(602)
    queries = _mixed_length_queries(rng, 20, (4, 6), 10, 300, vocab)
    policy = WindowPolicy.count_based(250)

    store_solo = DocumentStore(policy)
    solo = IncrementalTopKEngine(store_solo)
    driver_solo = StreamDriver(store_solo, solo, dedup=DedupConfig(0.95))
    for q in queries:
        solo.register(q)

    for workers in (1, 2, 4):
        store_w = DocumentStore(policy)
        shards = ShardSet(store_w, workers)
        driver_w = StreamDriver(store_w, shards, dedup=DedupConfig(0.95))
        for q in queries:
            shards.register(q)
        store_solo_2 = DocumentStore(policy)
        solo_2 = IncrementalTopKEngine(store_solo_2)
        driver_solo_2 = StreamDriver(store_solo_2, solo_2, dedup=DedupConfig(0.95))
        for q in queries:
            solo_2.register(q)
        for ev in stream:
            driver_w.process(ev)
            driver_solo_2.process(ev)
            for q in queries:
                assert shards.current_result(q.id) == solo_2.current_result(q.id), (
                    f"W={workers} diverged on query {q.id} at doc {ev.doc.id}")
    print(f"\nPASS criterion 6: shard merge identical to single node for "
          f"W in (1, 2, 4) over {len(stream)} events x {len(queries)} queries")


def test_criterion_7_feedback_monotonicity():
    """Boosting one document never lowers its rank, and results still match
    the oracle after the feedback event."""
    fixtures = 100
    for trial in range(fixtures):
        rng = random.Random(700 + trial)
        vocab = Vocabulary()
        stream = generate_stream(StreamConfig(rate=200, vocab_size=30,
                                              doc_length=(3, 10), seed=700 + trial,
                                              n_docs=30), vocab)
        queries = _mixed_length_queries(rng, 5, (2, 3), 4, 30, vocab)
        store = DocumentStore(WindowPolicy.count_based(20))
        fb = FeedbackStore(alpha=0.2)
        engine = IncrementalTopKEngine(store, fb)
        driver = StreamDriver(store, engine, fb)
        for q in queries:
            engine.register(q)
        for ev in stream:
            driver.process(ev)
        target = rng.choice([d.id for d in store.documents()])

        def rank(qid):
            ids = [d for d, _ in engine.current_result(qid)]
            return ids.index(target) if target in ids else len(ids) + 1

        before = {q.id: rank(q.id) for q in queries}
        driver.process(Feedback(target, 1.0))
        for q in queries:
            assert rank(q.id) <= before[q.id], (
                f"trial {trial}: boost lowered doc {target} for {q.id}")
            expected = [(sd.doc_id, sd.score) for sd in naive_top_k(q, store, fb)]
            assert results_equal(expected, engine.current_result(q.id), tol=1e-9)
    print(f"\nPASS criterion 7: feedback monotonicity and oracle equivalence "
          f"held on {fixtures} randomized fixtures")


def test_criterion_8_generator_statistics():
    """Poisson arrivals: 20-seed mean within 5% of rate*duration, every run
    within 3 standard deviations, and seed-identical bytes."""
    lam, dur = 200, 10.0
    expected = lam * dur
    counts = []
    for seed in range(20):
        stream = generate_stream(StreamConfig(rate=lam, duration=dur, seed=seed,
                                              vocab_size=200, doc_length=(5, 20)))
        counts.append(len(stream))
        assert abs(len(stream) - expected) <= 3 * math.sqrt(expected), (
            f"seed {seed}: count {len(stream)} outside 3 sigma")
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) <= 0.05 * expected

    blobs = []
    for _ in range(2):
        vocab = Vocabulary()
        events = generate_stream(StreamConfig(rate=lam, duration=dur, seed=7,
                                              vocab_size=200, doc_length=(5, 20)),
                                 vocab)
        import io
        buf = io.StringIO()
        write_stream(buf, events, vocab)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1]
    print(f"\nPASS criterion 8: 20-seed arrival counts mean {mean:.0f} "
          f"(target {expected:.0f} +/- 5%), all within 3 sigma; "
          f"seed-identical output verified")
