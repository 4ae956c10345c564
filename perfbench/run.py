"""The streamtopk benchmark: replays one seeded workload through the public
API and prints every metric named in BENCHMARK.json.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run

* checks that the workload's small canary input set still hashes to its
  digest in ``pins.json``, then writes the stream and query files for the
  seed under ``.perfbench_work/`` from a child process (``workloads.py``);
* sets the program up three times (parse the queries and the prefill with
  ``streamtopk.fileio``, build the engine, prefill the window, register the
  queries) and reports the median as ``setup_s``; the rest of the stream is
  parsed in small chunks between events, outside every timed region, so the
  process never holds more of the input than the next few events;
* with ``--trace 0`` replays the stream in a closed loop (one caller that
  sends the next event once every changed query's result has been read
  back) and then, from a fresh set-up, in an open loop at the workload's
  fixed offered rate, each event timed from when it was due;
* with ``--trace 1`` replays the closed loop twice, untraced and then with
  spans around the calls into ``driver``, ``dedup``, ``index``, ``engine``,
  ``feedback`` and ``coordinator``, and reports per-layer metrics plus the
  tracing overhead;
* compares every live query's result with ``naive_top_k`` at sampled events
  and at the end of each phase, outside any timed region, and checks that
  both phases give identical ``engine.stats`` counts and result digests over
  the first ``FIXED_EVENTS`` events.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from itertools import islice
from pathlib import Path

from spans import Tracer
from workloads import (CANARY_SEED, PINS, WORKLOADS, Workload, canary, digest,
                       generate, write_inputs)

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
SETUPS = 3                         # setup_s is their median
RATE_BLOCK = 100                   # events per block of the throughput median
ORACLE_AT = (100, 2000)            # closed-loop events followed by an oracle check
FIXED_EVENTS = 200                 # prefix over which exact counts are compared
READ_CHUNK = 32                    # stream lines parsed at a time during replay
SCORE_TOLERANCE = 1e-9
CALIBRATION_LOOPS = 2_000_000
MIN_CLOSED_EVENTS = 1000           # so p99 has at least ten samples above it
CLOSED_SHARE = 0.5                 # of --seconds, at least; the open loop gets the rest
perf = time.perf_counter


def import_program():
    """Import streamtopk from the checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import streamtopk
        from streamtopk import driver, fileio
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import streamtopk from {src}: {exc}")
    if src.resolve() not in Path(streamtopk.__file__).resolve().parents:
        sys.exit(f"perfbench: streamtopk imported from {streamtopk.__file__}, not {src}")
    return streamtopk, driver, fileio


def cpu_loop_ms() -> float:
    """A fixed pure-Python loop, timed to record how fast the host ran."""
    t0 = perf()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i & 7
    return (perf() - t0) * 1e3


def results_digest(driver, qids) -> str:
    return hashlib.sha256(repr([(q, driver.current_result(q)) for q in qids]).encode()).hexdigest()


def throughput(lat: list[float]) -> float:
    """Events per second of service time, as the median over consecutive
    blocks of ``RATE_BLOCK`` events, so a burst of host noise moves it less."""
    blocks = [RATE_BLOCK / sum(lat[j:j + RATE_BLOCK])
              for j in range(0, len(lat) - RATE_BLOCK + 1, RATE_BLOCK)]
    return statistics.median(blocks)


def percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Replay:
    """One set-up of the program plus the replay of its timed events."""

    def __init__(self, w: Workload, files: tuple[Path, Path], program):
        stk, _, fileio = program
        self.w = w
        self.stk = stk
        self.fileio = fileio
        t0 = perf()
        self.vocab = stk.Vocabulary()
        self.stream = open(files[0], encoding="utf-8")
        prefill = fileio.read_stream(islice(self.stream, w.prefill), self.vocab)
        with open(files[1], encoding="utf-8") as fh:
            queries = fileio.read_queries(fh, self.vocab)
        self.parse_s = perf() - t0
        policy = (stk.WindowPolicy.count_based(w.window_size) if w.window == "count"
                  else stk.WindowPolicy.time_based(w.window_size))
        self.store = stk.DocumentStore(policy)
        self.feedback = stk.FeedbackStore()
        if w.workers > 1:
            self.engine = stk.ShardSet(self.store, w.workers, self.feedback)
            self.engines = self.engine.shards
        else:
            self.engine = stk.IncrementalTopKEngine(self.store, self.feedback)
            self.engines = [self.engine]
        dedup = stk.DedupConfig(0.95, 5) if w.dup_rate > 0 else None
        self.driver = stk.StreamDriver(self.store, self.engine, self.feedback, dedup)
        for ev in prefill:
            self.driver.process(ev)
        live = queries[:w.queries]
        for q in live:
            self.driver.register(q)
        self.setup_s = perf() - t0
        self.buffer: deque = deque()
        self.event = None
        self.live = deque(live)
        self.pool = queries[w.queries:]
        self.attempted = self.failed = self.expired = 0
        self.errors: list[str] = []
        self.fixed: tuple | None = None

    def prepare(self) -> bool:
        """Make the next stream event ready to serve, parsing the next chunk of
        the stream file when the buffer is empty; False at the end."""
        if not self.buffer:
            self.buffer.extend(self.fileio.read_stream(islice(self.stream, READ_CHUNK),
                                                       self.vocab))
        self.event = self.buffer.popleft() if self.buffer else None
        return self.event is not None

    def close(self) -> None:
        self.stream.close()

    def serve(self, i: int) -> None:
        """Process the prepared event, the ``i``-th replayed, and read back
        every changed result; every ``churn_every`` events also swap the
        oldest query for a new one."""
        drv = self.driver
        self.attempted += 1
        try:
            out = drv.process(self.event)
            for qid in out.changed:
                drv.current_result(qid)
            self.expired += len(out.expired)
        except Exception:
            self._fail(f"event {i}")
        every = self.w.churn_every
        if every and i % every == every - 1:
            self.attempted += 2
            try:
                drv.unregister(self.live.popleft().id)
                new = self.pool[i // every]
                drv.register(new)
                self.live.append(new)
                drv.current_result(new.id)
            except Exception:
                self._fail(f"query churn after event {i}")

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {traceback.format_exc()}")

    def stats(self) -> dict[str, int]:
        total = {"pops": 0, "score_computations": 0, "expansions": 0}
        for e in self.engines:
            for key in total:
                total[key] += e.stats[key]
        return total

    def after_event(self, done: int, base: dict[str, int]) -> None:
        """Snapshot exact counts and the result digest after the fixed prefix."""
        if done == FIXED_EVENTS:
            now = self.stats()
            self.fixed = (tuple((k, now[k] - base[k]) for k in sorted(now)),
                          results_digest(self.driver, [q.id for q in self.live]))

    def oracle_check(self) -> int:
        """Compare every live query with a full rescan; returns mismatches."""
        bad = 0
        for q in self.live:
            want = [(sd.doc_id, sd.score)
                    for sd in self.stk.naive_top_k(q, self.store, self.feedback)]
            got = self.driver.current_result(q.id)
            self.attempted += 1
            if len(want) != len(got) or any(
                    a[0] != b[0] or abs(a[1] - b[1]) > SCORE_TOLERANCE
                    for a, b in zip(want, got)):
                bad += 1
                if len(self.errors) < 5:
                    self.errors.append(f"query {q.id!r}: oracle {want} != engine {got}")
        self.failed += bad
        return bad


def closed_loop(rep: Replay, seconds: float, tracer: Tracer | None = None,
                events: int | None = None) -> dict:
    """Single caller: serve events back to back until ``seconds`` have passed
    and at least ``MIN_CLOSED_EVENTS`` were served, or exactly ``events``
    events when given. Returns service times (s) and busy wall time."""
    lat: list[float] = []
    base = rep.stats()
    paused = 0.0
    least = max(FIXED_EVENTS, MIN_CLOSED_EVENTS)
    t_start = perf()
    i = 0
    while (events is None or i < events) and rep.prepare():
        spent = perf() - t_start - paused
        if events is None and (spent >= 2 * seconds or (spent >= seconds and i >= least)):
            break
        if tracer is not None:
            tracer.begin_event(i)
        t0 = perf()
        rep.serve(i)
        lat.append(perf() - t0)
        if tracer is not None:
            tracer.end_event()
        i += 1
        if i == FIXED_EVENTS or i in ORACLE_AT:
            p0 = perf()
            if tracer is not None:
                tracer.active = False
            rep.after_event(i, base)
            if i in ORACLE_AT:
                rep.oracle_check()
            if tracer is not None:
                tracer.active = True
            paused += perf() - p0
    busy = perf() - t_start - paused
    return {"lat": lat, "busy": busy, "events": i, "stats": rep.stats(), "base": base}


def open_loop(rep: Replay, seconds: float, rate: float) -> dict:
    """Events due at a fixed rate regardless of progress; lag runs from the
    due time to the last emitted result."""
    gap = 1.0 / rate
    lag: list[float] = []
    send_late: list[float] = []
    base = rep.stats()
    start = perf()
    paused = 0.0
    i = 0
    while rep.prepare():
        due = start + paused + i * gap
        if due - start - paused >= seconds and i >= FIXED_EVENTS:
            break
        now = perf()
        if now < due - 0.002:
            time.sleep(due - now - 0.002)
        while perf() < due:
            pass
        send_late.append(perf() - due)
        rep.serve(i)
        lag.append(perf() - due)
        i += 1
        if i == FIXED_EVENTS:
            p0 = perf()
            rep.after_event(i, base)
            paused += perf() - p0
    backlog = max(0, int((perf() - start - paused) / gap) + 1 - i)
    return {"lag": lag, "send_late": send_late, "events": i, "backlog": backlog}


def layer_metrics(tracer: Tracer, rep: Replay, loop: dict, counters: dict) -> dict:
    """Per-layer figures from the spans of a traced closed loop."""
    events = loop["events"]
    self_t = tracer.self_times()
    by_name: dict[str, float] = {}
    busy = [0.0] * len(rep.engines)
    tags, parents = tracer.tag, tracer.parent
    for i, own in enumerate(self_t):
        by_name[tracer.name[i]] = by_name.get(tracer.name[i], 0.0) + own
        tag = tags[i]
        if tag >= 0 and (parents[i] < 0 or tags[parents[i]] != tag):
            busy[tag] += tracer.end[i] - tracer.start[i]

    def per_event_us(*names: str) -> float:
        return sum(by_name.get(nm, 0.0) for nm in names) / events * 1e6

    delta = {k: loop["stats"][k] - loop["base"][k] for k in loop["base"]}
    states = [e.state(q) for e in rep.engines for q in e.queries()]
    indexes = [e.index for e in rep.engines]
    mean_busy = sum(busy) / len(busy)
    return {
        "engine.arrival_us": per_event_us("engine.arrival"),
        "engine.scored_per_arrival": counters["scored"] / max(counters["arrivals"], 1),
        "engine.arrival_hit_ratio": counters["hits"] / max(counters["scored"], 1),
        "engine.expire_us": per_event_us("engine.expire"),
        "engine.expansions_per_event": delta["expansions"] / events,
        "engine.pops_per_expansion": delta["pops"] / max(delta["expansions"], 1),
        "engine.register_us": per_event_us("engine.register"),
        "engine.emit_us": per_event_us("engine.emit"),
        "engine.candidates_per_query": sum(len(s.cand_keys) for s in states) / max(len(states), 1),
        "model.score_computations_per_event": delta["score_computations"] / events,
        "index.add_us": per_event_us("index.add"),
        "index.remove_us": per_event_us("index.remove"),
        "index.store_us": per_event_us("index.store"),
        "index.expired_per_event": rep.expired / events,
        "index.postings_total": sum(len(ix.list_for(t)) for ix in indexes for t in ix.terms()),
        "index.threshold_entries": sum(len(ix.entry(t).tree) for ix in indexes for t in ix.terms()),
        "dedup.check_us": per_event_us("dedup.check"),
        "dedup.flagged_ratio": counters["flagged"] / max(counters["checks"], 1),
        "feedback.apply_us": per_event_us("feedback.record", "feedback.apply"),
        "feedback.noop_ratio": counters["noops"] / max(counters["ratings"], 1),
        "coordinator.self_us": per_event_us("coordinator.route"),
        "coordinator.merge_us": per_event_us("coordinator.merge"),
        "coordinator.shard_busy_skew": max(busy) / mean_busy if mean_busy else 1.0,
        "driver.self_us": per_event_us("driver.process", "driver.emit",
                                       "driver.register", "driver.unregister"),
    }


def instrument(tracer: Tracer, rep: Replay, driver_module) -> dict:
    """Wrap every layer boundary of one set-up; returns the live counters."""
    c = dict.fromkeys(("scored", "hits", "arrivals", "checks", "flagged",
                       "ratings", "noops"), 0)

    def on_check(dup):
        c["checks"] += 1
        c["flagged"] += dup is not None

    def on_record(factors):
        c["ratings"] += 1
        c["noops"] += factors[0] == factors[1]

    drv = rep.driver
    for attr in ("process", "register", "unregister"):
        tracer.wrap(drv, attr, "driver." + attr)
    tracer.wrap(drv, "current_result", "driver.emit")
    tracer.wrap(driver_module, "check_duplicate", "dedup.check", after=on_check)
    tracer.wrap(rep.store, "insert", "index.store")
    tracer.wrap(rep.store, "evict_due", "index.store")
    tracer.wrap(rep.feedback, "record", "feedback.record", after=on_record)
    if rep.engine is not rep.engines[0]:
        for attr in ("apply_arrival", "apply_expirations", "apply_feedback",
                     "register", "unregister"):
            tracer.wrap(rep.engine, attr, "coordinator.route")
        tracer.wrap(rep.engine, "current_result", "coordinator.merge")
    for tag, eng in enumerate(rep.engines):
        def on_arrival(changed, eng=eng):
            c["arrivals"] += 1
            c["scored"] += len(eng.last_scored)
            c["hits"] += len(changed)

        tracer.wrap(eng, "apply_arrival", "engine.arrival", tag, after=on_arrival)
        tracer.wrap(eng, "apply_expirations", "engine.expire", tag)
        tracer.wrap(eng, "apply_feedback", "feedback.apply", tag)
        tracer.wrap(eng, "register", "engine.register", tag)
        tracer.wrap(eng, "unregister", "engine.register", tag)
        tracer.wrap(eng, "current_result", "engine.emit", tag)
        tracer.wrap(eng.index, "add_document", "index.add", tag)
        tracer.wrap(eng.index, "remove_document", "index.remove", tag)
    return c


def check_canary(w: Workload, out: Path) -> list[str]:
    """Input pinning: the workload's small canary input set must hash to the
    digest recorded in ``pins.json`` (``workloads.py --write-pins``)."""
    write_inputs(canary(w), CANARY_SEED, out)
    got = digest(out)
    want = json.loads(PINS.read_text())[w.name]
    return [] if got == want else [f"canary inputs of {w.name} hash to {got}, pinned {want}"]


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    program = import_program()
    units = declared_units(args.trace)
    w = WORKLOADS[args.workload]
    calib = cpu_loop_ms()
    print(f"host: fixed {CALIBRATION_LOOPS}-iteration CPU loop took {calib:.1f} ms")

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        problems = check_canary(w, run_dir / "canary")
        digest = generate(w, args.seed, run_dir)
        files = (run_dir / "stream.tsv", run_dir / "queries.tsv")
        run = measure(w, args, files, program, problems)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = run["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} are not both "
                        "measured and declared in BENCHMARK.json")

    run["record"].update(workload=w.name, seed=args.seed, trace=args.trace,
                         inputs_sha256=digest, cpu_loop_ms=calib, metrics=metrics)
    (WORK / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run["record"], indent=1, sort_keys=True) + "\n")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.4f} {units.get(name, '?')}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"{'error_rate':40s} {failed / attempted:14.6f} failed/attempted "
          f"({failed} of {attempted})")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def measure(w: Workload, args, files, program, problems: list[str]) -> dict:
    setups: list[tuple[float, float]] = []
    record: dict = {}

    def fresh() -> Replay:
        gc.collect()
        rep = Replay(w, files, program)
        setups.append((rep.setup_s, rep.parse_s))
        return rep

    def finish(rep: Replay, label: str) -> None:
        rep.close()
        bad = rep.oracle_check()
        print(f"{label}: {rep.attempted} operations, {rep.failed} failed, "
              f"{bad} oracle mismatches at the end")
        for e in rep.errors:
            print(e, file=sys.stderr)

    rep = fresh()
    first = closed_loop(rep, args.seconds * CLOSED_SHARE)
    finish(rep, "closed loop")
    fixed = [rep.fixed]
    attempted, failed = rep.attempted, rep.failed
    del rep
    eps = throughput(first["lat"])
    lat = sorted(first["lat"])
    print(f"closed loop: {len(lat)} events in {first['busy']:.2f} s, "
          f"{len(lat) - int(0.99 * len(lat))} samples above p99")

    rep = fresh()
    if args.trace == 0:
        second = open_loop(rep, max(args.seconds - first["busy"], 1.0), w.offered_eps)
        finish(rep, "open loop")
        lag = sorted(second["lag"])
        print(f"open loop: {second['events']} events offered at {w.offered_eps:g}/s, "
              f"lag p95 {percentile(lag, 0.95) * 1e3:.3f} ms, "
              f"p99 {percentile(lag, 0.99) * 1e3:.3f} ms "
              f"({len(lag) - int(0.99 * len(lag))} samples above p99), "
              f"sender late by up to {max(second['send_late']) * 1e3:.3f} ms, "
              f"backlog at end {second['backlog']}")
    else:
        tracer = Tracer()
        counters = instrument(tracer, rep, program[1])
        tracer.active = True
        second = closed_loop(rep, 0.0, tracer, events=first["events"])
        tracer.restore()
        layers = layer_metrics(tracer, rep, second, counters)
        tracer.dump(WORK / f"spans-{w.name}-seed{args.seed}.jsonl")
        traced_eps = throughput(second["lat"])
        del tracer
        finish(rep, "traced closed loop")
    fixed.append(rep.fixed)
    attempted += rep.attempted
    failed += rep.failed
    del rep
    while len(setups) < SETUPS:
        fresh().close()
    setup_s = statistics.median(s for s, _ in setups)
    print(f"setup: median of {len(setups)} set-ups, each "
          + ", ".join(f"{s:.3f}" for s, _ in setups) + " s")

    if None in fixed or fixed[0] != fixed[1]:
        problems.append(f"exact counts over the first {FIXED_EVENTS} events missing or "
                        f"different between phases: {fixed}")
        counts: tuple = ()
    else:
        counts, res_digest = fixed[0]
        print(f"exact counts over the first {FIXED_EVENTS} events: "
              + ", ".join(f"{k}={v}" for k, v in counts) + f"; results sha256 {res_digest}")
        record.update(fixed_counts=dict(counts), results_sha256=res_digest)
    record.update(closed_events=len(lat), setups_s=[s for s, _ in setups])

    if args.trace == 0:
        metrics = {
            "throughput_eps": eps,
            "event_p50_us": percentile(lat, 0.5) * 1e6,
            "event_p99_us": percentile(lat, 0.99) * 1e6,
            "lag_p50_ms": percentile(lag, 0.5) * 1e3,
            "setup_s": setup_s,
            # inputs are generated in a child and parsed a chunk at a time, so
            # this is the interpreter plus the program's own working set
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = dict(layers)
        metrics["fileio.parse_s"] = statistics.median(p for _, p in setups)
        metrics["trace.untraced_eps"] = eps
        metrics["trace.traced_eps"] = traced_eps
        metrics["trace.overhead_pct"] = (1 - traced_eps / eps) * 100
        for k, v in counts:
            metrics[f"prefix.{k}"] = v
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "record": record}


if __name__ == "__main__":
    sys.exit(main())
