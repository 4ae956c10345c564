"""Seeded workload inputs for the streamtopk benchmark.

Each workload is delivered to the program the way a user would feed it: a
stream file and a query file in the formats of ``streamtopk.fileio``.
Arrivals come from ``streamtopk.genstream.generate_stream`` (Poisson arrivals
at 200 per second, documents of 10-100 tokens drawn from a Zipf(1.0) law over
1,000 terms, optional near-copy injection); this module adds only the
feedback events and the queries. ``pins.json`` holds the SHA-256 of a small
canary input set per workload, so a change to the generator that alters what
the benchmark replays fails every run.

Run as a script, it writes one input set and exits, so the generator's
memory never counts in the benchmark process's peak RSS:

    python3 perfbench/workloads.py --workload steady --seed 1 --out DIR
    python3 perfbench/workloads.py --write-pins    # regenerate pins.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
CANARY_SEED = 0
VOCAB_SIZE = 1000
TICKS_PER_SECOND = 1_000_000
FEEDBACK_LOOKBACK = 900          # targets stay well inside a 1000-doc window


@dataclass(frozen=True)
class Workload:
    name: str
    window: str                  # "count" or "time"
    window_size: int             # documents, or ticks for a time window
    queries: int                 # registered before the stream starts
    workers: int                 # ShardSet width; 1 means a single engine
    prefill: int                 # untimed events that fill the window
    events: int                  # replayable events after the prefill
    offered_eps: float           # open-loop offered rate, events per second
    query_terms: tuple[int, int] = (4, 4)
    query_weights: tuple[float, ...] = (1.0,)
    query_ks: tuple[int, ...] = (10,)
    dup_rate: float = 0.0        # near-copies injected; suppression is on when > 0
    feedback_every: int = 0      # one rating per this many arrivals
    churn_every: int = 0         # unregister + register every this many events


# Offered rates are about 30% of the closed-loop throughput measured on a
# shared 2-vCPU VM, so the open loop stays under half load, and its lag mostly
# service time, even when the host runs a third slower than usual.
WORKLOADS = {
    w.name: w for w in (
        Workload("steady", "count", 1000, queries=1000, workers=1,
                 prefill=1000, events=8000, offered_eps=70.0),
        Workload("dedup-feedback", "count", 1000, queries=1000, workers=1,
                 prefill=1250, events=4000, offered_eps=23.0,
                 dup_rate=0.2, feedback_every=4),
        Workload("sharded-churn", "time", 5 * TICKS_PER_SECOND, queries=1000,
                 workers=2, prefill=1000, events=3500, offered_eps=24.0,
                 query_terms=(2, 12), query_weights=(1.0, 2.0, 3.0),
                 query_ks=(1, 10, 50), churn_every=10),
    )
}


def canary(w: Workload) -> Workload:
    return replace(w, prefill=40, events=60, queries=20)


def _is_copy(weights: dict[int, float], total: float, recent) -> bool:
    """True when ``weights`` is one of the recent compositions with at most
    one token occurrence moved, which is how the generator makes near-copies."""
    for other, other_total in recent:
        if other_total == total and sum(
                abs(weights.get(t, 0.0) - other.get(t, 0.0))
                for t in weights.keys() | other.keys()) <= 2:
            return True
    return False


def _stream_events(w: Workload, seed: int, rng: random.Random, stk, vocab) -> list:
    """Generated arrivals, with one rating after every ``feedback_every``-th
    arrival aimed at a windowed document that is not a near-copy."""
    from streamtopk.driver import Feedback

    total = w.prefill + w.events
    arrivals = stk.generate_stream(
        stk.StreamConfig(n_docs=total, dup_rate=w.dup_rate, seed=seed), vocab)
    if not w.feedback_every:
        return arrivals
    events: list = []
    recent: list = []
    originals: list[int] = []
    for ev in arrivals:
        doc = ev.doc
        weights = doc.composition.weights
        entry = (weights, sum(weights.values()))
        if not _is_copy(*entry, recent):
            originals.append(doc.id)
        recent = recent[-99:] + [entry]
        events.append(ev)
        if doc.id % w.feedback_every == 0:
            pool = [d for d in originals[-FEEDBACK_LOOKBACK:] if d > doc.id - FEEDBACK_LOOKBACK]
            events.append(Feedback(rng.choice(pool), round(rng.random(), 2)))
        if len(events) >= total:
            break
    return events[:total]


class _Deck:
    """Draws from a shuffled deck of ``items``, reshuffled when it runs out.

    Every item is drawn equally often over a whole deck, so the mix of query
    terms, lengths and k -- and with it the cost of a query set -- varies far
    less between seeds than with independent draws, while which items go
    together stays random.
    """

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.cards: list = []

    def draw(self):
        if not self.cards:
            self.cards = self.rng.sample(self.items, len(self.items))
        return self.cards.pop()


def _query_lines(w: Workload, rng: random.Random, count: int) -> list[str]:
    terms = _Deck(rng, range(VOCAB_SIZE))
    lengths = _Deck(rng, range(w.query_terms[0], w.query_terms[1] + 1))
    weights = _Deck(rng, w.query_weights)
    ks = _Deck(rng, w.query_ks)
    lines = []
    for i in range(count):
        n = lengths.draw()
        picked: dict[int, float] = {}
        while len(picked) < n:
            picked.setdefault(terms.draw(), weights.draw())
        body = ",".join(f"t{r}:{wt:g}" for r, wt in picked.items())
        lines.append(f"q{i}\t{ks.draw()}\t{body}\n")
    return lines


def write_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write ``stream.tsv`` and ``queries.tsv`` for one workload and seed.

    For churn workloads the query file carries, after the live set, one pool
    query for every ``churn_every`` replayable events.
    """
    import streamtopk as stk
    from streamtopk import fileio

    rng = random.Random(f"{w.name}/{seed}")
    vocab = stk.Vocabulary()
    events = _stream_events(w, seed, rng, stk, vocab)
    pool = w.events // w.churn_every + 1 if w.churn_every else 0
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stream.tsv", "w", encoding="utf-8") as fh:
        fileio.write_stream(fh, events, vocab)
    (out / "queries.tsv").write_text("".join(_query_lines(w, rng, w.queries + pool)),
                                     encoding="utf-8")


def digest(out: Path) -> str:
    h = hashlib.sha256()
    h.update((out / "stream.tsv").read_bytes())
    h.update(b"\0")
    h.update((out / "queries.tsv").read_bytes())
    return h.hexdigest()


def generate(w: Workload, seed: int, out: Path) -> str:
    """Write one input set from a child process; returns its digest."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", w.name,
                    "--seed", str(seed), "--out", str(out)], check=True)
    return digest(out)


def main() -> int:
    ap = argparse.ArgumentParser(description="Write one workload input set.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--write-pins", action="store_true",
                    help="record every workload's canary digest in pins.json")
    args = ap.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    if args.write_pins:
        pins = {}
        for name, w in WORKLOADS.items():
            out = Path.cwd() / ".perfbench_work" / f"pins-{name}"
            write_inputs(canary(w), CANARY_SEED, out)
            pins[name] = digest(out)
            shutil.rmtree(out)
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None or args.out is None:
        ap.error("--workload and --out are required")
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
