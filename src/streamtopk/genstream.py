"""Synthetic workload generation: Poisson document streams over a
Zipf-skewed vocabulary, plus random term queries.

Everything is driven by explicit seeds; the same configuration always
produces the same stream, token for token. Timestamps are integer
microsecond ticks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .driver import Arrival, StreamEvent
from .model import CompositionList, Document, Query, Vocabulary

TICKS_PER_SECOND = 1_000_000


@dataclass(frozen=True)
class StreamConfig:
    rate: float = 200.0              # mean arrivals per second
    duration: float = 10.0           # seconds; ignored when n_docs is set
    vocab_size: int = 1000
    doc_length: tuple[int, int] = (10, 100)
    zipf_s: float = 1.0
    seed: int = 0
    n_docs: int | None = None        # exact document count instead of duration
    # near-duplicate injection (off by default): each arrival is, with
    # probability dup_rate, a copy of one of the last dup_backlook documents,
    # perturbed in a single token with probability dup_perturb.
    dup_rate: float = 0.0
    dup_backlook: int = 100
    dup_perturb: float = 0.5

    def __post_init__(self) -> None:
        if not self.rate > 0:  # NaN fails too
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        lo, hi = self.doc_length
        if not (1 <= lo <= hi):
            raise ValueError("doc_length must satisfy 1 <= min <= max")
        if not 0.0 <= self.dup_rate <= 1.0:
            raise ValueError("dup_rate must lie in [0, 1]")


@dataclass(frozen=True)
class QueryConfig:
    count: int = 100
    terms: int = 4
    k: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("query count must be >= 0")
        if self.terms < 1 or self.k < 1:
            raise ValueError("terms and k must be >= 1")


def _zipf_cumulative(vocab_size: int, s: float) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(1, vocab_size + 1):
        total += 1.0 / rank ** s
        cum.append(total)
    return cum


def token_for(rank: int) -> str:
    """Canonical token for synthetic vocabulary rank (0-based)."""
    return f"t{rank}"


def generate_stream(config: StreamConfig, vocab: Vocabulary | None = None) -> list[StreamEvent]:
    """Draw a document stream: exponential inter-arrival gaps at the
    configured rate, document lengths uniform in ``doc_length``, and tokens
    sampled from a Zipf(s) distribution over the vocabulary."""
    if vocab is None:
        vocab = Vocabulary()
    rng = random.Random(config.seed)
    cum = _zipf_cumulative(config.vocab_size, config.zipf_s)
    ranks = range(config.vocab_size)
    lo, hi = config.doc_length
    horizon = config.duration * TICKS_PER_SECOND

    events: list[StreamEvent] = []
    recent: list[CompositionList] = []
    t = 0.0
    doc_id = 1
    while True:
        t += rng.expovariate(config.rate) * TICKS_PER_SECOND
        if config.n_docs is None:
            if t >= horizon:
                break
        elif len(events) >= config.n_docs:
            break

        composition: CompositionList | None = None
        if config.dup_rate > 0 and recent and rng.random() < config.dup_rate:
            source = rng.choice(recent[-config.dup_backlook:])
            composition = source
            if rng.random() < config.dup_perturb:
                composition = _perturb(source, rng, ranks, cum, vocab)
        if composition is None:
            length = rng.randint(lo, hi)
            tokens = rng.choices(ranks, cum_weights=cum, k=length)
            counts: dict[int, int] = {}
            for r in tokens:
                counts[r] = counts.get(r, 0) + 1
            composition = CompositionList(
                (vocab.intern(token_for(r)), float(c)) for r, c in counts.items()
            )
        doc = Document(id=doc_id, arrival_time=int(t), composition=composition)
        events.append(Arrival(doc))
        recent.append(composition)
        if len(recent) > config.dup_backlook:
            del recent[0]
        doc_id += 1
    return events


def _perturb(source: CompositionList, rng: random.Random, ranks, cum,
             vocab: Vocabulary) -> CompositionList:
    """Shift one token occurrence of ``source`` to a random vocabulary term."""
    pairs = dict(source.pairs)
    victim = rng.choice(list(pairs))
    if pairs[victim] > 1:
        pairs[victim] -= 1
    else:
        del pairs[victim]
    newcomer = vocab.intern(token_for(rng.choices(ranks, cum_weights=cum, k=1)[0]))
    pairs[newcomer] = pairs.get(newcomer, 0) + 1
    return CompositionList((t, float(w)) for t, w in pairs.items())


def generate_queries(config: QueryConfig, vocab_size: int,
                     vocab: Vocabulary | None = None) -> list[Query]:
    """Draw queries of ``terms`` distinct terms sampled uniformly from the
    vocabulary, all with unit weights and the configured k."""
    if config.terms > vocab_size:
        raise ValueError(f"queries need {config.terms} terms but vocabulary has {vocab_size}")
    if vocab is None:
        vocab = Vocabulary()
    rng = random.Random(config.seed)
    queries = []
    for qid in range(1, config.count + 1):
        picked = rng.sample(range(vocab_size), config.terms)
        weights = {vocab.intern(token_for(r)): 1.0 for r in picked}
        queries.append(Query(id=qid, term_weights=weights, k=config.k))
    return queries
