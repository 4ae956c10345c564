"""Stateful oracle test: random interleavings of arrivals, time jumps,
feedback, and query registration and unregistration (a fresh query may reuse
the id of one just unregistered), checked against the full-rescan oracle and
the engine's ``check_invariants()`` after every step. The engine is one
:class:`IncrementalTopKEngine` or a :class:`ShardSet` of 2 or 3 of them.
Each arrival and rating must report as ``changed`` exactly the queries whose
result it changed. Bad input the driver must reject is interleaved too, and
must leave the state as it was.

Windows and vocabularies are small (3-12 documents or ticks, 5 terms, term
weights 1 or 2), so results turn over, scores tie, thresholds move and
feedback lands on held candidates often.

Shrinking is left out: a failure reports the example as generated, in
bounded time and memory, rather than searching for a smaller one.
"""

from collections import Counter

import pytest
from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from streamtopk import (DedupConfig, DocumentStore, FeedbackStore, IncrementalTopKEngine,
                        ShardSet, StreamDriver, WindowPolicy)
from streamtopk.driver import Arrival, Feedback

from helpers import mkdoc, mkquery, oracle, results_equal

VOCAB = 5
MAX_QUERIES = 3

# a composition as a base-3 number: digit t is term t's weight (0 = absent)
compositions = st.integers(1, 3 ** VOCAB - 1).map(
    lambda code: {t: code // 3 ** t % 3 for t in range(VOCAB) if code // 3 ** t % 3})
query_weights = st.dictionaries(st.integers(0, VOCAB - 1),
                                st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.75)),
                                min_size=1, max_size=3)
ks = st.integers(1, 3)
ratings = st.integers(0, 100).map(lambda r: r / 100)  # 2 decimals, as perfbench draws them


class EngineMachine(RuleBasedStateMachine):
    @initialize(kind=st.sampled_from(("count", "time")), n=st.integers(3, 12),
                dedup=st.booleans(), workers=st.sampled_from((1, 2, 3)),
                first=st.lists(st.tuples(query_weights, ks), min_size=1, max_size=2))
    def setup(self, kind, n, dedup, workers, first):
        policy = WindowPolicy.count_based(n) if kind == "count" else WindowPolicy.time_based(n)
        self.store = DocumentStore(policy)
        self.feedback = FeedbackStore()
        if workers > 1:
            self.engine = ShardSet(self.store, workers, self.feedback)
            self.shards = self.engine.shards
        else:
            self.engine = IncrementalTopKEngine(self.store, self.feedback)
            self.shards = [self.engine]
        self.driver = StreamDriver(self.store, self.engine, self.feedback,
                                   DedupConfig(0.9) if dedup else None)
        self.queries = {}
        self.gone: list[str] = []  # unregistered ids, most recent last
        self.rated: set[int] = set()
        self.next_id = 1
        self.next_qid = 0
        self.now = 0
        for weights, k in first:
            self.register(weights, k)

    def process(self, event):
        """Apply ``event``: its ``changed`` must name exactly the queries
        whose result it changed, since readers read back only those."""
        eng = self.engine
        before = {qid: eng.current_result(qid) for qid in self.queries}
        out = self.driver.process(event)
        moved = {qid for qid, res in before.items() if eng.current_result(qid) != res}
        assert out.changed == moved, f"changed {out.changed}, but {moved} moved"

    @rule(pairs=compositions)
    def arrive(self, pairs):
        self.process(Arrival(mkdoc(self.next_id, pairs, t=self.now)))
        self.next_id += 1
        self.now += 1

    # the window only moves when a document arrives, so a time jump is drawn
    # together with the arrival that lands after it
    @rule(jump=st.integers(1, 4), pairs=compositions)
    def arrive_after_time_jump(self, jump, pairs):
        self.now += jump
        self.arrive(pairs)

    @rule(pick=st.integers(0, 10**6), rated_first=st.booleans(), rating=ratings)
    def rate(self, pick, rated_first, rating):
        originals = [d.id for d in self.store.documents() if not d.is_duplicate]
        rated = [did for did in originals if did in self.rated]
        pool = rated if rated_first and rated else originals
        if not pool:
            return
        did = pool[pick % len(pool)]
        self.process(Feedback(did, rating))
        self.rated.add(did)

    @rule(bad=st.sampled_from(("unseen rating", "expired rating", "duplicate rating",
                               "old id", "old time")),
          back=st.integers(1, 3), pairs=compositions)
    def reject_bad_input(self, bad, back, pairs):
        """A rating for an id outside the window or for a flagged duplicate,
        and an arrival breaking id or time order, raise and change nothing."""
        windowed = list(self.store.documents())
        if bad == "unseen rating":
            event = Feedback(self.next_id, 0.5)
        elif bad == "expired rating":
            gone = [i for i in range(1, self.next_id) if i not in self.store]
            if not gone:
                return
            event = Feedback(gone[-back % len(gone)], 0.5)
        elif bad == "duplicate rating":
            flagged = [d.id for d in windowed if d.is_duplicate]
            if not flagged:
                return
            event = Feedback(flagged[-back % len(flagged)], 0.5)
        elif not windowed:
            return
        elif bad == "old id":
            event = Arrival(mkdoc(max(self.next_id - back, 0), pairs, t=self.now))
        else:
            last = windowed[-1]
            if last.arrival_time < back:
                return
            event = Arrival(mkdoc(self.next_id, pairs, t=last.arrival_time - back))
        before = self.snapshot()
        with pytest.raises(ValueError):
            self.driver.process(event)
        assert self.snapshot() == before

    def snapshot(self):
        eng = self.engine
        return ([d.id for d in self.store.documents()], dict(self.feedback.factors),
                {qid: eng.current_result(qid) for qid in self.queries},
                [{qid: dict(shard.state(qid).thresholds) for qid in shard.queries()}
                 for shard in self.shards],
                [Counter((tid, theta, qid) for tid in shard.index.terms()
                         for theta, qid in shard.index.entry(tid).tree.entries())
                 for shard in self.shards])

    @precondition(lambda self: len(self.queries) < MAX_QUERIES)
    @rule(weights=query_weights, k=ks)
    def register(self, weights, k):
        q = mkquery(f"q{self.next_qid}", weights, k=k)
        self.next_qid += 1
        self.driver.register(q)
        self.queries[q.id] = q

    # queries live long enough for their state to age: unregister only at the cap
    @precondition(lambda self: len(self.queries) == MAX_QUERIES)
    @rule(pick=st.integers(0, MAX_QUERIES - 1))
    def unregister(self, pick):
        qid = sorted(self.queries)[pick]
        self.driver.unregister(qid)
        del self.queries[qid]
        self.gone.append(qid)

    @precondition(lambda self: len(self.queries) < MAX_QUERIES and self.gone)
    @rule(weights=query_weights, k=ks)
    def reregister(self, weights, k):
        """A fresh query under the id unregistered last must not inherit what
        the old one scored."""
        q = mkquery(self.gone.pop(), weights, k=k)
        self.driver.register(q)
        self.queries[q.id] = q

    @invariant()
    def exact_and_consistent(self):
        eng = self.engine
        # one invariant, oracle first, so a wrong result reports as a mismatch
        for q in self.queries.values():
            expected = oracle(q, self.store, self.feedback)
            actual = eng.current_result(q.id)
            assert results_equal(expected, actual), (
                f"query {q.id}: expected {expected}, got {actual}")
        eng.check_invariants()


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = settings(max_examples=200, stateful_step_count=80,
                                      deadline=None,
                                      phases=[p for p in Phase if p is not Phase.shrink])
