"""Exact search counts on two small seeded replays.

The incremental search is deterministic: the same stream and queries give
the same expansions, pops, score computations and threshold rollups
(``retunes``), and the same results after every event. A change that keeps the algorithm (a new index layout,
say) must leave every value pinned here unchanged. A change that alters the
search must update them and say how they moved.
"""

import hashlib
import random

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore,
                        IncrementalTopKEngine, Query, ShardSet, StreamConfig,
                        StreamDriver, Vocabulary, WindowPolicy, generate_stream)
from streamtopk.driver import Feedback
from streamtopk.genstream import QueryConfig, generate_queries, token_for

VOCAB = 80


def _replay(policy, *, workers=1, dedup=None, feedback_every=0, churn_every=0, seed=0):
    """Replay 400 generated arrivals with near-copies against 40 queries.

    Every ``feedback_every``-th arrival is followed by a rating for a random
    windowed non-duplicate document. Every ``churn_every``-th arrival swaps
    one registered query for a new one with mixed weights and k. With
    ``workers`` above 1 a :class:`ShardSet` of that many engines serves the
    queries. Returns the engine's stats (summed over the shards of a
    ShardSet) and the sha256 of every query's result after every event.
    """
    rng = random.Random(seed)
    vocab = Vocabulary()
    events = generate_stream(StreamConfig(n_docs=400, vocab_size=VOCAB, doc_length=(3, 15),
                                          dup_rate=0.2, seed=seed), vocab)
    queries = generate_queries(QueryConfig(count=40, terms=3, k=5, seed=seed), VOCAB, vocab)
    store = DocumentStore(policy)
    fb = FeedbackStore()
    engine = (IncrementalTopKEngine(store, fb) if workers == 1
              else ShardSet(store, workers, fb))
    driver = StreamDriver(store, engine, fb, dedup)
    live = {q.id: q for q in queries}
    for q in queries:
        engine.register(q)
    digest = hashlib.sha256()
    next_qid = 1000
    for i, ev in enumerate(events, 1):
        driver.process(ev)
        if feedback_every and i % feedback_every == 0:
            rated = [d.id for d in store.documents() if not d.is_duplicate]
            driver.process(Feedback(rng.choice(rated), round(rng.random(), 2)))
        if churn_every and i % churn_every == 0:
            gone = rng.choice(sorted(live))
            engine.unregister(gone)
            del live[gone]
            q = Query(id=next_qid, k=rng.choice((1, 5, 10)), term_weights={
                vocab.intern(token_for(r)): rng.choice((0.5, 1.0, 2.0))
                for r in rng.sample(range(VOCAB), rng.randint(2, 6))})
            next_qid += 1
            live[q.id] = q
            engine.register(q)
        for qid in sorted(live):
            digest.update(repr((qid, engine.current_result(qid))).encode())
    shards = engine.shards if workers > 1 else [engine]
    return ({key: sum(s.stats[key] for s in shards) for key in shards[0].stats},
            digest.hexdigest())


def test_count_window_with_dedup_and_feedback():
    stats, digest = _replay(WindowPolicy.count_based(60), dedup=DedupConfig(0.9),
                            feedback_every=4, seed=3)
    assert stats == {"pops": 2854, "score_computations": 3435, "expansions": 882,
                     "retunes": 1244}
    assert digest == "01821a91526fae0cba1dbcbe9a11bcb5069421bae263892c33298a0b566585c0"


def test_time_window_with_query_churn():
    # generated arrivals come about 5,000 ticks apart, so about 40 are windowed
    stats, digest = _replay(WindowPolicy.time_based(200_000), churn_every=10, seed=4)
    assert stats == {"pops": 2027, "score_computations": 3730, "expansions": 807,
                     "retunes": 1080}
    assert digest == "db382f041ad3ebca0505d1f8a9c09119082b904775668e73d86f6deddb758781"


def test_time_window_two_shards_match_one_engine():
    # each query is searched on its one shard as on one engine, so the same
    # stream and query swaps give the counts and digest pinned above for W=1
    stats, digest = _replay(WindowPolicy.time_based(200_000), workers=2, churn_every=10, seed=4)
    assert stats == {"pops": 2027, "score_computations": 3730, "expansions": 807,
                     "retunes": 1080}
    assert digest == "db382f041ad3ebca0505d1f8a9c09119082b904775668e73d86f6deddb758781"
