"""Incremental top-k maintenance with per-term local thresholds.

Each registered query keeps, besides its result candidates, one local
threshold per query term. The thresholds serve two purposes:

* arriving documents are only evaluated against a query when some term
  weight reaches that term's local threshold (the threshold-tree probe), and
* they mark how deep the last top-k search descended into each inverted
  list, so a search can resume from the stopping frontier instead of from
  scratch when an expiration empties a verified slot.

The governing invariant is that every impact entry strictly above a query's
local threshold belongs to a document the query has scored (``_rev``); a
scored document missing from the query's candidates has k newer candidates
ranked above it. Searches therefore descend inverted lists one equal-weight
run at a time (so thresholds always sit on run boundaries), score only the
documents the query has not scored, and may stop only once no unscored
document could still displace the current k-th result -- including
displacement by the newer-document tie-break on equal scores. Each inverted
list is stored as exactly these runs (distinct weights heaviest first, ids
ascending within a run): a search resumes at a stored threshold by bisecting
the list's weights, pops a run whole, and reads the run's newest document,
the one the tie-break bound needs, from its last id.

A query keeps only the k-skyband of what it scored over (rank, expiry), as
SMA does (Mouratidis, Bakiras & Papadias, SIGMOD 2006): a candidate leaves
once k newer candidates rank above it. It can never return to the top k
while they remain. Being newer, they expire no earlier (documents with equal
arrival times leave a time window at the same event), and ratings aggregate
by max, so no score falls. Its own score rises only through feedback, which
rescores every query that scored the document. The k best of its dominators
are never dropped themselves, so the stored top k is the top k of all
scored documents, and a refill picks the same candidates it would if none
were dropped. The sweep runs once a list has doubled since the last one
(plus k), never in the middle of a search.

A rollup (``_retune``) after a rescore changes no threshold unless the k-th
score reaches the cheapest single raise. Each query keeps that sum as
``raise_at``: ``_retune`` sets it, and since only an arrival or a re-weight
can insert a posting above a threshold, and both probe the trees at the
inserted weights, ``_rescore`` lowers it for every hit. Expiry only removes
postings, which can leave it low but never high, so a skipped rollup is
always one that would have changed nothing.

A candidate enters a query's state only through ``_admit`` and leaves only
through ``_drop``. Arrival and feedback share one rescore step: probe the
threshold trees with the document's boosted weights, then score each hit
(and, for feedback, each query already holding the document) once. Every
weight is boosted by the :class:`FeedbackStore` factor; an engine built
without a store makes an empty one, whose factors are all 1. A fresh
arrival is not yet rated, so it enters at its raw weights.

The engine sees only documents it ranks: the :class:`StreamDriver` screens
out flagged duplicates, on arrival and on expiry alike, and rejects ratings
for them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from heapq import heappop, heappush, heapreplace
from math import inf
from typing import Iterable

from .feedback import FeedbackStore
from .index import DocumentStore, TermIndex
from .model import Document, Query, QueryId, dot_score


class QueryState:
    """Mutable per-query bookkeeping owned by the engine.

    ``cand_keys`` holds ``(-score, -doc_id)`` keys in ascending order, i.e.
    candidates sorted by (score desc, doc id desc); the first k entries are
    the verified result. Candidates are the k-skyband of the scored
    documents: ones with k newer candidates ranked above them are dropped
    once the list grows past ``prune_at`` entries. ``thresholds`` maps each
    query term to its current local threshold, which doubles as the
    value-based resume position of the last search (the run to resume from
    is recovered by bisecting for it). ``raise_at`` is the k-th score from
    which a rollup can raise some threshold (``-inf`` below k candidates,
    ``inf`` when no threshold can rise), or less.
    """

    __slots__ = ("query", "k", "items", "cand_keys", "scores", "thresholds",
                 "raise_at", "prune_at")

    def __init__(self, query: Query):
        self.query = query
        self.k = query.k
        self.items = query.items
        self.cand_keys: list[tuple[float, int]] = []
        self.scores: dict[int, float] = {}
        self.thresholds: dict[int, float] = {}
        self.raise_at = -inf
        self.prune_at = query.k

    @property
    def s_k(self) -> float | None:
        """Score of the k-th verified document, when k matches exist."""
        if len(self.cand_keys) < self.k:
            return None
        return -self.cand_keys[self.k - 1][0]

    def verified(self) -> list[tuple[int, float]]:
        return [(-nid, -ns) for ns, nid in self.cand_keys[: self.k]]


class IncrementalTopKEngine:
    """Maintains exact top-k results for every registered query under
    document arrivals, expirations, and feedback re-weighting.

    The engine shares a :class:`DocumentStore` with its driver: the driver
    mutates the window, the engine mirrors those mutations into its inverted
    lists and query states.
    """

    def __init__(self, store: DocumentStore, feedback: FeedbackStore | None = None):
        self.store = store
        self.feedback = feedback if feedback is not None else FeedbackStore()
        self.index = TermIndex()
        self._states: dict[QueryId, QueryState] = {}
        # windowed doc id -> the queries that scored it, candidate or dropped
        self._rev: dict[int, set[QueryId]] = {}
        self.stats = {"pops": 0, "score_computations": 0, "expansions": 0, "retunes": 0}
        self.last_scored: dict[QueryId, int] = {}

    # -- query registry ----------------------------------------------------

    def register(self, query: Query) -> QueryState:
        if query.id in self._states:
            raise ValueError(f"query id {query.id!r} already registered")
        st = QueryState(query)
        self._states[query.id] = st
        self._expand(st)
        return st

    def unregister(self, qid: QueryId) -> None:
        st = self._states.pop(qid, None)
        if st is None:
            raise ValueError(f"unknown query id {qid!r}")
        for tid, theta in st.thresholds.items():
            ent = self.index.entry(tid)
            if ent is not None:
                ent.tree.remove(qid, theta)
                self.index.gc(tid)
        # dropped candidates are in ``_rev`` too, so sweep all of it: a query
        # registered later under this id must not skip what this one scored
        emptied = []
        for did, holders in self._rev.items():
            holders.discard(qid)
            if not holders:
                emptied.append(did)
        for did in emptied:
            del self._rev[did]

    def queries(self) -> Iterable[QueryId]:
        return self._states.keys()

    def state(self, qid: QueryId) -> QueryState:
        st = self._states.get(qid)
        if st is None:
            raise ValueError(f"unknown query id {qid!r}")
        return st

    # -- event handling ----------------------------------------------------

    def apply_arrival(self, doc: Document) -> set[QueryId]:
        """Index an arriving document and fold it into affected results.

        Returns the ids of queries whose verified top-k changed. The caller
        has already inserted the document into the shared store.
        """
        self.index.add_document(doc)
        return self._rescore(doc, 1.0, set())

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        """Handle a batch of expirations from the window head.

        All documents are de-indexed before any result is repaired, so a
        refill search can never pop an entry of a document that just left
        the window; each affected query is then refilled exactly once.
        """
        for doc in docs:
            self.index.remove_document(doc, self.feedback.factor(doc.id))
        refill: dict[QueryId, QueryState] = {}
        for doc in docs:
            for qid in self._rev.pop(doc.id, ()):
                st = self._states[qid]
                if doc.id in st.scores and self._drop(st, doc.id) < st.k:
                    refill[qid] = st
        for st in refill.values():
            self._expand(st)
        return set(refill)

    def apply_feedback(self, doc: Document, old_factor: float,
                       new_factor: float) -> set[QueryId]:
        """Re-index a document whose boost factor rose and refresh its scores.

        The rescore step covers every query that has scored the document,
        dropped or not, as well as those whose thresholds the boosted weights
        now reach. A score can only rise, so a result changes only where the
        document now ranks within the top k.
        """
        self.index.reindex_document(doc, old_factor, new_factor)
        return self._rescore(doc, new_factor, set(self._rev.get(doc.id, ())))

    def finalize_event(self) -> set[QueryId]:
        """Results are maintained inline; nothing to do per event."""
        return set()

    # -- result access -----------------------------------------------------

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        """The verified top-k as (doc id, score), best first; ties favour the
        newer document."""
        return self.state(qid).verified()

    def top_keys(self, qid: QueryId) -> list[tuple[float, int]]:
        """The verified top-k as ranked ``(-score, -doc id)`` keys, best
        first: the form in which a merge compares results."""
        st = self.state(qid)
        return st.cand_keys[: st.k]

    # -- search internals ----------------------------------------------------

    def _admit(self, st: QueryState, did: int, score: float, neg_did: int) -> int:
        """Make ``did`` a candidate of ``st`` at ``score``; returns its rank.

        ``neg_did`` is ``-did``, negated once by the caller so that the keys
        one document gets in many queries share one int object.
        """
        self.stats["score_computations"] += 1
        key = (-score, neg_did)
        pos = bisect_left(st.cand_keys, key)
        st.cand_keys.insert(pos, key)
        st.scores[did] = score
        holders = self._rev.get(did)
        if holders is None:
            holders = self._rev[did] = set()
        holders.add(st.query.id)
        return pos

    def _drop(self, st: QueryState, did: int) -> int:
        """Remove candidate ``did`` from ``st``; returns the rank it held.
        The caller keeps ``_rev`` in step."""
        pos = bisect_left(st.cand_keys, (-st.scores.pop(did), -did))
        del st.cand_keys[pos]
        return pos

    def _prune(self, st: QueryState) -> None:
        """Drop every candidate that k newer candidates outrank, in one
        sweep in rank order over a min-heap of the k largest ids seen. The
        dropped stay in ``_rev``: the query has scored them."""
        k = st.k
        scores = st.scores
        newest: list[int] = []
        kept = []
        for key in st.cand_keys:
            did = -key[1]
            if len(newest) < k:
                heappush(newest, did)
            elif did > newest[0]:
                heapreplace(newest, did)
            else:
                del scores[did]
                continue
            kept.append(key)
        st.cand_keys = kept
        st.prune_at = 2 * len(kept) + k

    def _rescore(self, doc: Document, factor: float, affected: set[QueryId]) -> set[QueryId]:
        """Score ``doc`` once for every query in ``affected`` or reached by a
        threshold probe at its weights times ``factor``, replacing any older
        score; returns the queries whose top-k changed.

        Each query's probe outcome depends only on its own thresholds, so
        probing every term before any rescore (which may retune the scored
        query) hits the same queries as interleaving the two. The document's
        postings now sit at those weights, so a weight above a hit query's
        threshold lowers its ``raise_at`` to the sum that raise would reach.
        The same pass over the query's terms adds up its raw score, in
        ``dot_score``'s order, before the factor scales it.
        """
        for tid, w_raw in doc.composition.pairs:
            ent = self.index.entry(tid)
            if ent is not None and ent.tree:
                affected.update(ent.tree.probe(w_raw * factor))
        changed: set[QueryId] = set()
        weights = doc.composition.weights
        did = doc.id
        neg_did = -did
        for qid in affected:
            st = self._states[qid]
            thresholds = st.thresholds
            r = 0.0
            cheapest = inf
            s = 0.0  # dot_score's sum, added up in the same order
            for tid, wq in st.items:
                theta = thresholds[tid]
                r += wq * theta
                w = weights.get(tid)
                if w is not None:
                    s += wq * w
                    w *= factor  # the weight of the posting just inserted
                    if w > theta and wq * (w - theta) < cheapest:
                        cheapest = wq * (w - theta)
            if r + cheapest < st.raise_at:
                st.raise_at = r + cheapest
            if did in st.scores:
                self._drop(st, did)
            k = st.k
            if self._admit(st, did, s * factor, neg_did) < k:
                changed.add(qid)
                if len(st.cand_keys) >= k and -st.cand_keys[k - 1][0] >= st.raise_at:
                    # the k-th score rose far enough to tighten a threshold
                    self._retune(st, dict(thresholds))
            if len(st.cand_keys) > st.prune_at:
                self._prune(st)
        self.last_scored = dict.fromkeys(affected, 1)
        return changed

    def _expand(self, st: QueryState) -> None:
        """Resume (or start) the top-k search until the verified result is
        provably exact, then re-derive thresholds from the stopping frontier.

        Descends the query's inverted lists run by run, always popping the
        list whose next entry contributes the largest weighted candidate
        value, and scores the popped documents the query has not scored yet.
        Stopping is allowed once the k-th candidate strictly beats the sum of
        frontier contributions, or ties it while outranking every possible
        unseen tying document's id, or all lists are exhausted.
        """
        self.stats["expansions"] += 1
        index = self.index
        store = self.store
        feedback = self.feedback
        rev = self._rev
        qid = st.query.id
        k = st.k
        cand_keys = st.cand_keys

        tids = [tid for tid, _ in st.items]
        wqs = [wq for _, wq in st.items]
        weights: list = []  # per term: the list's distinct weights, heaviest first
        runs: list = []     # per term: the id runs at those weights
        at: list[int] = []  # per term: index of the next run to pop
        thresholds = st.thresholds  # empty until the first search
        for tid in tids:
            lst = index.list_for(tid)
            weights.append(lst.weights if lst else ())
            runs.append(lst.runs if lst else ())
            at.append(lst.run_at_or_below(thresholds[tid]) if lst and thresholds else 0)

        nterms = len(tids)
        while True:
            tau_g = 0.0
            min_fid = None
            best = -1
            best_c = 0.0
            for i in range(nterms):
                r = at[i]
                if r >= len(weights[i]):
                    continue
                c = wqs[i] * weights[i][r]
                tau_g += c
                fid = runs[i][r][-1]  # the run's newest document
                if min_fid is None or fid < min_fid:
                    min_fid = fid
                if c > best_c:
                    best_c = c
                    best = i
            if best < 0:
                break  # every list exhausted
            if len(cand_keys) >= k:
                kth = cand_keys[k - 1]
                s_k = -kth[0]
                if s_k > tau_g or (s_k == tau_g and -kth[1] > min_fid):
                    break
            # pop the whole equal-weight run at the chosen frontier
            run = runs[best][at[best]]
            at[best] += 1
            self.stats["pops"] += len(run)
            for did in run:
                if qid not in rev.get(did, ()):
                    s = dot_score(st.items, store.get(did).composition.weights)
                    self._admit(st, did, s * feedback.factor(did), -did)

        frontier = {}
        for i in range(nterms):
            frontier[tids[i]] = weights[i][at[i]] if at[i] < len(weights[i]) else 0.0
        self._retune(st, frontier)
        if len(cand_keys) > st.prune_at:
            self._prune(st)

    def _retune(self, st: QueryState, base: dict[int, float]) -> None:
        """Roll local thresholds up from ``base`` while their weighted sum
        stays within the k-th score, then install them and the ``raise_at``
        they leave.

        Queries with fewer than k matches keep zero thresholds so every
        relevant arrival is evaluated.
        """
        self.stats["retunes"] += 1
        k = st.k
        if len(st.cand_keys) < k:
            new = dict.fromkeys(base, 0.0)
            st.raise_at = -inf
        else:
            s_k = -st.cand_keys[k - 1][0]
            new = base
            r = 0.0
            heap: list[tuple[float, int, float]] = []
            for tid, wq in st.items:
                theta = new[tid]
                r += wq * theta
                lst = self.index.list_for(tid)
                if lst is None:
                    continue
                nxt = lst.next_weight_above(theta)
                if nxt is not None:
                    heappush(heap, (wq * (nxt - theta), tid, nxt))
            tw = st.query.term_weights
            while heap:
                delta, tid, target = heappop(heap)
                if r + delta > s_k:
                    break  # cheapest raise overshoots; all others would too
                r += delta
                new[tid] = target
                nxt = self.index.list_for(tid).next_weight_above(target)
                if nxt is not None:
                    heappush(heap, (tw[tid] * (nxt - target), tid, nxt))
            st.raise_at = self._raise_at(st, new)

        qid = st.query.id
        old = st.thresholds
        for tid, theta in new.items():
            prev = old.get(tid)
            if prev is None:
                self.index.ensure(tid).tree.insert(qid, theta)
            elif prev != theta:
                self.index.entry(tid).tree.update(qid, prev, theta)
        st.thresholds = new

    def _raise_at(self, st: QueryState, thresholds: dict[int, float]) -> float:
        """The k-th score from which a rollup from ``thresholds`` raises one:
        their weighted sum, added up in term order as ``_retune`` adds it,
        plus the cheapest single raise (``inf`` when none is possible)."""
        r = 0.0
        cheapest = inf
        for tid, wq in st.items:
            theta = thresholds[tid]
            r += wq * theta
            lst = self.index.list_for(tid)
            nxt = lst.next_weight_above(theta) if lst is not None else None
            if nxt is not None and wq * (nxt - theta) < cheapest:
                cheapest = wq * (nxt - theta)
        return r + cheapest

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on the first breach of the engine's
        invariants. A full check, meant for tests; ``python -O`` skips it.

        * ``_rev`` holds only windowed documents and registered queries, and
          covers every candidate; each candidate list is sorted and agrees
          with its scores.
        * Every posting strictly above a query's local threshold belongs to
          a document the query has scored.
        * Every scored document a query no longer holds has k newer
          candidates ranked above it at its current score.
        * The threshold trees hold exactly the queries' local thresholds.
        * ``raise_at`` does not exceed the cheapest single raise.
        """
        states, rev, index = self._states, self._rev, self.index
        for did, holders in rev.items():
            assert did in self.store, f"_rev holds document {did}, which left the window"
            assert holders, f"_rev holds an empty set for document {did}"
            for qid in holders:
                assert qid in states, f"_rev holds unregistered query {qid!r} for {did}"
        trees: Counter = Counter()
        for qid, st in states.items():
            assert st.cand_keys == sorted((-s, -did) for did, s in st.scores.items()), (
                f"query {qid!r}: candidate keys disagree with scores")
            for did in st.scores:
                assert qid in rev.get(did, ()), f"query {qid!r}: candidate {did} not in _rev"
            for tid, theta in st.thresholds.items():
                trees[(tid, theta, qid)] += 1
                lst = index.list_for(tid)
                for w, run in zip(lst.weights, lst.runs) if lst else ():
                    if w <= theta:
                        break
                    for did in run:
                        assert qid in rev.get(did, ()), (
                            f"query {qid!r}: posting ({did}, {w}) of term {tid} lies above "
                            f"threshold {theta} but was never scored")
            for did, holders in rev.items():
                if qid not in holders or did in st.scores:
                    continue
                score = (dot_score(st.items, self.store.get(did).composition.weights)
                         * self.feedback.factor(did))
                key = (-score, -did)
                above = sum(1 for ck in st.cand_keys if ck < key and -ck[1] > did)
                assert above >= st.k, (
                    f"query {qid!r}: dropped document {did} at {score} has only "
                    f"{above} newer candidates ranked above it")
            if len(st.cand_keys) >= st.k:
                fresh = self._raise_at(st, st.thresholds)
                assert st.raise_at <= fresh, (
                    f"query {qid!r}: raise_at {st.raise_at} exceeds the cheapest raise {fresh}")
        actual = Counter((tid, theta, qid) for tid in index.terms()
                         for theta, qid in index.entry(tid).tree.entries())
        assert actual == trees, "threshold trees disagree with the queries' thresholds"
