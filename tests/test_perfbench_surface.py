"""The program surface that the benchmark of record (``perfbench/run.py``)
builds on and instruments.

perfbench reaches the program only through ``streamtopk``'s root names, the
``driver`` and ``fileio`` modules, and a fixed set of attributes that it
reads or wraps on live objects. This test builds the program the same way,
replays a short stream with duplicates, feedback and query churn, and
touches every one of those names, so a cut that would break the benchmark
fails here first. It does not import perfbench itself.
"""

import io
import random
from itertools import islice

import pytest

import streamtopk as stk
from streamtopk import driver as driver_mod, fileio
from streamtopk.driver import Feedback

STATS_KEYS = ("pops", "score_computations", "expansions")


def _inputs(seed, n_docs=160, n_queries=30):
    """Stream and query files as perfbench writes them: generated arrivals
    with near-copies, a rating after every 4th arrival (sent twice, so the
    second is a no-op), ``t<rank>`` queries."""
    rng = random.Random(seed)
    vocab = stk.Vocabulary()
    arrivals = stk.generate_stream(
        stk.StreamConfig(n_docs=n_docs, dup_rate=0.2, seed=seed, vocab_size=60,
                         doc_length=(3, 12)), vocab)
    events = []
    for ev in arrivals:
        events.append(ev)
        if ev.doc.id % 4 == 0:
            rating = Feedback(ev.doc.id - rng.randrange(10), round(rng.random(), 2))
            events += [rating, rating]
    stream = io.StringIO()
    fileio.write_stream(stream, events, vocab)
    queries = "".join(
        f"q{i}\t{rng.choice((1, 3, 10))}\t"
        + ",".join(f"t{r}:{rng.choice((1, 2, 3))}" for r in rng.sample(range(60), rng.randint(2, 5)))
        + "\n" for i in range(n_queries))
    stream.seek(0)
    return stream, io.StringIO(queries)


class _Counter:
    """Wraps ``obj.attr`` on the instance, as perfbench's tracer does."""

    def __init__(self, obj, attr):
        self.calls = 0
        self.results = []
        fn = getattr(obj, attr)

        def counted(*args, **kwargs):
            self.calls += 1
            out = fn(*args, **kwargs)
            self.results.append(out)
            return out

        setattr(obj, attr, counted)


@pytest.mark.parametrize("workers", [1, 2])
def test_perfbench_build_replay_and_instrumentation(workers, monkeypatch):
    stream, qfile = _inputs(seed=5 + workers)
    vocab = stk.Vocabulary()
    prefill = fileio.read_stream(islice(stream, 40), vocab)
    queries = fileio.read_queries(qfile, vocab)
    policy = (stk.WindowPolicy.count_based(50) if workers == 1
              else stk.WindowPolicy.time_based(250_000))
    store = stk.DocumentStore(policy)
    feedback = stk.FeedbackStore()
    if workers > 1:
        engine = stk.ShardSet(store, workers, feedback)
        engines = engine.shards
    else:
        engine = stk.IncrementalTopKEngine(store, feedback)
        engines = [engine]
    assert len(engines) == workers
    drv = stk.StreamDriver(store, engine, feedback, stk.DedupConfig(0.95, 5))

    def rateable(ev):  # perfbench rates only windowed originals
        target = store.get(ev.doc_id)
        return target is not None and not target.is_duplicate

    for ev in prefill:
        if not isinstance(ev, Feedback) or rateable(ev):
            drv.process(ev)
    live, pool = queries[:20], queries[20:]
    for q in live:
        drv.register(q)

    monkeypatch.setattr(driver_mod, "check_duplicate", driver_mod.check_duplicate)
    checks = _Counter(driver_mod, "check_duplicate")
    inserts = _Counter(store, "insert")
    evictions = _Counter(store, "evict_due")
    records = _Counter(feedback, "record")
    adds, removes, arrivals, expires = [], [], [], []
    for eng in engines:
        assert set(STATS_KEYS) <= set(eng.stats)
        adds.append(_Counter(eng.index, "add_document"))
        removes.append(_Counter(eng.index, "remove_document"))
        arrivals.append(_Counter(eng, "apply_arrival"))
        expires.append(_Counter(eng, "apply_expirations"))

    n_arrivals = n_ranked = n_expired = 0
    rest = []
    while True:
        chunk = fileio.read_stream(islice(stream, 32), vocab)
        if not chunk:
            break
        rest.extend(chunk)
    for i, ev in enumerate(rest):
        if isinstance(ev, Feedback) and not rateable(ev):
            continue
        out = drv.process(ev)
        for qid in out.changed:
            drv.current_result(qid)
        n_expired += len(out.expired)
        if not isinstance(ev, Feedback):
            n_arrivals += 1
            n_ranked += out.duplicate_of is None  # only these reach an engine
            assert all(isinstance(eng.last_scored, dict) for eng in engines)
        if i % 10 == 9 and pool:
            drv.unregister(live.pop(0).id)
            live.append(pool.pop(0))
            drv.register(live[-1])
            drv.current_result(live[-1].id)

    assert checks.calls == n_arrivals > 0
    assert any(dup is not None for dup in checks.results)
    assert inserts.calls == evictions.calls == n_arrivals
    assert sum(len(gone) for gone in evictions.results) == n_expired > 0
    assert records.calls > 0
    assert all(isinstance(r, tuple) and len(r) == 2 for r in records.results)
    assert any(old == new for old, new in records.results)
    assert any(old != new for old, new in records.results)
    assert n_ranked < n_arrivals
    assert all(c.calls == n_ranked for c in arrivals + adds)  # every engine sees each
    assert sum(c.calls for c in expires) > 0
    assert sum(c.calls for c in removes) > 0

    states = [eng.state(q) for eng in engines for q in eng.queries()]
    assert len(states) == len(live)  # each query on one engine
    assert all(isinstance(st.cand_keys, list) for st in states)
    for eng in engines:
        for key in STATS_KEYS:
            assert isinstance(eng.stats[key], int)
        assert eng.stats["expansions"] > 0
        ix = eng.index
        assert sum(len(ix.list_for(t)) for t in ix.terms()) > 0
        assert sum(len(ix.entry(t).tree) for t in ix.terms()) > 0
    for q in live:
        want = [(sd.doc_id, sd.score) for sd in stk.naive_top_k(q, store, feedback)]
        got = drv.current_result(q.id)
        assert [d for d, _ in got] == [d for d, _ in want]
        assert all(abs(a - b) <= 1e-9 for (_, a), (_, b) in zip(got, want))
