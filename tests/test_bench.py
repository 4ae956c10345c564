import gc
from dataclasses import replace

import pytest

import streamtopk.bench as bench_mod
from streamtopk import (IncrementalTopKEngine, StreamConfig, Vocabulary,
                        WindowPolicy, generate_stream)
from streamtopk.bench import VerificationError, run_benchmark, sweep
from streamtopk.genstream import QueryConfig, generate_queries


def _workload(n_docs=80, n_queries=4, vocab=30, seed=1):
    v = Vocabulary()
    events = generate_stream(StreamConfig(rate=100, vocab_size=vocab, seed=seed,
                                          n_docs=n_docs, doc_length=(3, 10)), v)
    queries = generate_queries(QueryConfig(count=n_queries, terms=3, k=3,
                                           seed=seed + 1), vocab, v)
    return events, queries


def test_one_record_per_event():
    events, queries = _workload()
    res = run_benchmark("ita", events, queries, WindowPolicy.count_based(20))
    assert len(res.records) == len(events)
    assert all(r.micros >= 0 for r in res.records)


def test_zero_queries_still_times_index_maintenance():
    events, _ = _workload()
    res = run_benchmark("ita", events, [], WindowPolicy.count_based(20))
    assert len(res.records) == len(events)
    assert all(r.queries_updated == 0 for r in res.records)
    assert res.mean_micros > 0


def test_prefill_events_are_not_measured():
    events, queries = _workload(n_docs=60)
    res = run_benchmark("ita", events, queries, WindowPolicy.count_based(20),
                        prefill=40)
    assert len(res.records) == 20


def test_event_kinds_reflect_expiration_pairing():
    events, queries = _workload(n_docs=50)
    res = run_benchmark("ita", events, queries, WindowPolicy.count_based(10))
    kinds = [r.kind for r in res.records]
    assert kinds[:10] == ["arrival"] * 10
    assert set(kinds[10:]) == {"arrival+expire"}


def test_verification_passes_for_honest_engines():
    events, queries = _workload()
    for engine in ("ita", "naive", "naive-kmax"):
        res = run_benchmark(engine, events, queries, WindowPolicy.count_based(15),
                            verify_every=7)
        assert res.events_verified > 0


def test_verification_catches_injected_bug(monkeypatch):
    """An engine that silently drops its last result entry must be caught."""
    class Sabotaged(IncrementalTopKEngine):
        def current_result(self, qid):
            return super().current_result(qid)[:-1]

    real = bench_mod.build_engine

    def sabotage(name, store, feedback):
        assert name == "ita"
        return Sabotaged(store, feedback)

    monkeypatch.setattr(bench_mod, "build_engine", sabotage)
    events, queries = _workload()
    with pytest.raises(VerificationError):
        run_benchmark("ita", events, queries, WindowPolicy.count_based(15),
                      verify_every=5)
    monkeypatch.setattr(bench_mod, "build_engine", real)


def test_sweep_emits_one_point_per_value_and_engine():
    points = sweep("n", [2, 3], stream=StreamConfig(rate=100, vocab_size=30,
                                                    seed=3, doc_length=(3, 8)),
                   query=QueryConfig(count=3, terms=2, k=2, seed=4),
                   window_n=15, engines=["ita", "naive"], measured_events=20)
    assert [(p.value, p.engine) for p in points] == [
        (2, "ita"), (2, "naive"), (3, "ita"), (3, "naive")]
    assert all(p.mean_micros > 0 for p in points)


def test_sweep_single_value_equals_plain_run():
    points = sweep("N", [12], stream=StreamConfig(rate=100, vocab_size=30, seed=3,
                                                  doc_length=(3, 8)),
                   query=QueryConfig(count=3, terms=2, k=2, seed=4),
                   window_n=99, engines=["ita"], measured_events=25)
    assert len(points) == 1
    assert len(points[0].result.records) == 25


def test_interleaved_sweep_equals_separate_runs():
    scfg = StreamConfig(rate=100, vocab_size=30, seed=3, doc_length=(3, 8))
    qcfg = QueryConfig(count=3, terms=2, k=2, seed=4)
    points = sweep("N", [5, 12], stream=scfg, query=qcfg, window_n=0,
                   engines=["ita", "naive"], measured_events=25, verify_every=4)
    assert gc.isenabled()
    for p in points:
        v = Vocabulary()
        events = generate_stream(replace(scfg, n_docs=p.value + 25), v)
        queries = generate_queries(qcfg, scfg.vocab_size, v)
        alone = run_benchmark(p.engine, events, queries,
                              WindowPolicy.count_based(p.value), prefill=p.value)
        assert p.result.final_results == alone.final_results
        assert ([(r.kind, r.queries_updated) for r in p.result.records]
                == [(r.kind, r.queries_updated) for r in alone.records])
        assert p.result.events_verified > 0


def test_gc_restored_when_an_event_raises(monkeypatch):
    events, queries = _workload()

    def boom(self, ev):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench_mod.StreamDriver, "process", boom)
    with pytest.raises(RuntimeError):
        run_benchmark("ita", events, queries, WindowPolicy.count_based(20))
    assert gc.isenabled()


def test_sweep_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sweep("x", [1], stream=StreamConfig(), query=QueryConfig(),
              window_n=10, engines=["ita"], measured_events=5)
    with pytest.raises(ValueError):
        sweep("n", [3, 2], stream=StreamConfig(), query=QueryConfig(),
              window_n=10, engines=["ita"], measured_events=5)
