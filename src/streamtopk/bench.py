"""Replay harness: per-event processing-time measurement, oracle spot
checks, and parameter sweeps.

Each stream record is one event; for count-based windows at capacity an
arrival also carries exactly one expiration, and both are timed together
with every query update they trigger. An event's time is the process CPU
time it takes, with the cyclic garbage collector held off (as ``timeit``
does), so neither the host descheduling the process nor a collection of
garbage left by other runs lands on a single event. The first tenth of
measured events is treated as warm-up and excluded from summaries.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

from .baseline import FullRescanEngine, naive_top_k
from .dedup import DedupConfig
from .driver import Feedback, StreamDriver, StreamEvent
from .engine import IncrementalTopKEngine
from .feedback import FeedbackStore
from .genstream import QueryConfig, StreamConfig, generate_queries, generate_stream
from .index import DocumentStore, WindowPolicy
from .model import Query, Vocabulary

ENGINE_NAMES = ("ita", "naive")

SCORE_TOLERANCE = 1e-9

WARMUP_FRAC = 0.1


class VerificationError(AssertionError):
    def __init__(self, event: int, qid, expected, actual):
        super().__init__(
            f"event {event}: query {qid!r} diverged from the full-rescan oracle\n"
            f"  expected: {expected}\n  actual:   {actual}"
        )
        self.event = event
        self.qid = qid


class InvariantBreach(VerificationError):
    """An engine's ``check_invariants()`` failed at a verified event."""

    def __init__(self, event: int, breach: AssertionError):
        AssertionError.__init__(self, f"event {event}: engine invariant breached: {breach}")
        self.event = event
        self.qid = None


@dataclass
class MetricsRecord:
    event: int
    kind: str
    micros: float
    queries_updated: int


@dataclass
class BenchResult:
    engine: str
    records: list[MetricsRecord]
    mean_micros: float
    p95_micros: float
    events_verified: int = 0
    final_results: dict = field(default_factory=dict)


def build_engine(name: str, store: DocumentStore, feedback: FeedbackStore):
    if name not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {name!r}; choose from {ENGINE_NAMES}")
    if name == "ita":
        return IncrementalTopKEngine(store, feedback)
    return FullRescanEngine(store, feedback)


def results_match(expected, actual) -> bool:
    if len(expected) != len(actual):
        return False
    for (eid, es), (aid, ascore) in zip(expected, actual):
        if eid != aid or abs(es - ascore) > SCORE_TOLERANCE:
            return False
    return True


class _Replay:
    """One engine's replay of ``events``: untimed set-up and prefill on
    construction, then one timed event per :meth:`step`."""

    def __init__(self, engine_name: str, events: list[StreamEvent],
                 queries: list[Query], policy: WindowPolicy, *, alpha: float,
                 dedup: DedupConfig | None, prefill: int, verify_every: int):
        self.engine_name = engine_name
        self.queries = queries
        self.verify_every = verify_every
        self.store = DocumentStore(policy)
        self.feedback = FeedbackStore(alpha)
        self.engine = build_engine(engine_name, self.store, self.feedback)
        self.driver = StreamDriver(self.store, self.engine, self.feedback, dedup)
        for q in queries:
            self.engine.register(q)
        for ev in events[:prefill]:
            self.driver.process(ev)
        if prefill:
            self.engine.finalize_event()
        self.pending = events[prefill:]
        self.records: list[MetricsRecord] = []
        self.verified = 0

    def done(self) -> bool:
        return len(self.records) == len(self.pending)

    def step(self) -> None:
        i = len(self.records)
        ev = self.pending[i]
        engine = self.engine
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            t0 = time.process_time()
            outcome = self.driver.process(ev)
            changed = engine.finalize_event()
            elapsed = (time.process_time() - t0) * 1e6
        finally:
            if gc_was_on:
                gc.enable()
        changed |= outcome.changed
        kind = "feedback" if isinstance(ev, Feedback) else (
            "arrival+expire" if outcome.expired else "arrival")
        self.records.append(MetricsRecord(i, kind, elapsed, len(changed)))
        if self.verify_every and i % self.verify_every == 0:
            self.verified += 1
            for q in self.queries:
                oracle = [(sd.doc_id, sd.score)
                          for sd in naive_top_k(q, self.store, self.feedback)]
                actual = engine.current_result(q.id)
                if not results_match(oracle, actual):
                    raise VerificationError(i, q.id, oracle, actual)
            try:
                engine.check_invariants()
            except AssertionError as exc:
                raise InvariantBreach(i, exc) from exc

    def result(self) -> BenchResult:
        records = self.records
        timed = records[int(len(records) * WARMUP_FRAC):]
        if timed:
            micros = sorted(r.micros for r in timed)
            mean = sum(micros) / len(micros)
            p95 = micros[min(len(micros) - 1, int(0.95 * (len(micros) - 1)))]
        else:
            mean = p95 = 0.0
        final = {str(q.id): self.engine.current_result(q.id) for q in self.queries}
        return BenchResult(self.engine_name, records, mean, p95, self.verified, final)


def run_benchmark(engine_name: str, events: list[StreamEvent], queries: list[Query],
                  policy: WindowPolicy, *, alpha: float = 0.2,
                  dedup: DedupConfig | None = None, prefill: int = 0,
                  verify_every: int = 0) -> BenchResult:
    """Replay ``events`` through one engine, timing every post-prefill event.

    ``prefill`` events populate the window untimed. With ``verify_every`` set,
    every M-th measured event cross-checks all current results against a
    fresh full-window rescan and runs the engine's ``check_invariants()``,
    and raises :class:`VerificationError` on any mismatch or breach.
    """
    replay = _Replay(engine_name, events, queries, policy, alpha=alpha,
                     dedup=dedup, prefill=prefill, verify_every=verify_every)
    while not replay.done():
        replay.step()
    return replay.result()


@dataclass
class SweepPoint:
    value: int
    engine: str
    mean_micros: float
    p95_micros: float
    result: BenchResult | None = field(repr=False, default=None)


def sweep(param: str, values: list[int], *, stream: StreamConfig,
          query: QueryConfig, window_n: int, engines: list[str],
          measured_events: int, alpha: float = 0.2,
          dedup: DedupConfig | None = None,
          verify_every: int = 0) -> list[SweepPoint]:
    """One benchmark run per parameter value, shared seeds across engines.

    ``param`` is either ``n`` (query length) or ``N`` (window size); all
    other settings stay fixed. The first ``N`` stream events prefill the
    window, the next ``measured_events`` are timed. Per engine, the runs of
    all values are set up first and their timed events then interleave one
    at a time, so a slow spell of the host lands on every value alike
    instead of bending the trend. Points come out value-major.
    """
    if param not in ("n", "N"):
        raise ValueError("sweep parameter must be 'n' or 'N'")
    if not values or sorted(values) != list(values):
        raise ValueError("sweep values must be non-empty and ascending")
    if measured_events < 1:
        raise ValueError("measured_events must be >= 1")
    inputs = []
    for value in values:
        n_window = value if param == "N" else window_n
        qcfg = replace(query, terms=value) if param == "n" else query
        scfg = replace(stream, n_docs=n_window + measured_events)
        vocab = Vocabulary()
        events = generate_stream(scfg, vocab)
        queries = generate_queries(qcfg, scfg.vocab_size, vocab)
        inputs.append((events, queries, n_window))
    results: dict[tuple[int, str], BenchResult] = {}
    for engine_name in engines:
        replays = [
            _Replay(engine_name, events, queries, WindowPolicy.count_based(n_window),
                    alpha=alpha, dedup=dedup, prefill=n_window,
                    verify_every=verify_every)
            for events, queries, n_window in inputs]
        while not all(r.done() for r in replays):
            for r in replays:
                if not r.done():
                    r.step()
        for value, r in zip(values, replays):
            results[(value, engine_name)] = r.result()
    points: list[SweepPoint] = []
    for value in values:
        for engine_name in engines:
            res = results[(value, engine_name)]
            points.append(SweepPoint(value, engine_name, res.mean_micros,
                                     res.p95_micros, res))
    return points
