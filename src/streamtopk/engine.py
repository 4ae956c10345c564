"""Incremental top-k maintenance with per-term local thresholds.

Each registered query keeps, besides its result candidates, one local
threshold per query term. The thresholds serve two purposes:

* arriving documents are only evaluated against a query when some term
  weight reaches that term's local threshold (the threshold-tree probe), and
* they mark how deep the last top-k search descended into each inverted
  list, so a search can resume from the stopping frontier instead of from
  scratch when an expiration empties a verified slot.

The governing invariant is that every impact entry strictly above a query's
local threshold belongs to an already-scored candidate. Searches therefore
descend inverted lists one equal-weight run at a time (so thresholds always
sit on run boundaries), and a search may stop only once no unscored document
could still displace the current k-th result -- including displacement by
the newer-document tie-break on equal scores. Each inverted list is stored
as exactly these runs (distinct weights heaviest first, ids ascending within
a run): a search resumes at a stored threshold by bisecting the list's
weights, pops a run whole, and reads the run's newest document, the one the
tie-break bound needs, from its last id. Candidates are retained even
when they score below the influence threshold; dropping them would make
later refills inexact once thresholds descend again.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Iterable

from .feedback import FeedbackStore
from .index import DocumentStore, TermIndex
from .model import Document, Query, QueryId, dot_score


class QueryState:
    """Mutable per-query bookkeeping owned by the engine.

    ``cand_keys`` holds ``(-score, -doc_id)`` keys in ascending order, i.e.
    candidates sorted by (score desc, doc id desc); the first k entries are
    the verified result. ``thresholds`` maps each query term to its current
    local threshold, which doubles as the value-based resume position of the
    last search (the run to resume from is recovered by bisecting for it).
    """

    __slots__ = ("query", "k", "items", "cand_keys", "scores", "thresholds")

    def __init__(self, query: Query):
        self.query = query
        self.k = query.k
        self.items = query.items
        self.cand_keys: list[tuple[float, int]] = []
        self.scores: dict[int, float] = {}
        self.thresholds: dict[int, float] = {}

    @property
    def s_k(self) -> float | None:
        """Score of the k-th verified document, when k matches exist."""
        if len(self.cand_keys) < self.k:
            return None
        return -self.cand_keys[self.k - 1][0]

    def verified(self) -> list[tuple[int, float]]:
        return [(int(-nid), -ns) for ns, nid in self.cand_keys[: self.k]]


class IncrementalTopKEngine:
    """Maintains exact top-k results for every registered query under
    document arrivals, expirations, and feedback re-weighting.

    The engine shares a :class:`DocumentStore` with its driver: the driver
    mutates the window, the engine mirrors those mutations into its inverted
    lists and query states.
    """

    def __init__(self, store: DocumentStore, feedback: FeedbackStore | None = None):
        self.store = store
        self.feedback = feedback
        self.index = TermIndex()
        self._states: dict[QueryId, QueryState] = {}
        self._rev: dict[int, set[QueryId]] = {}
        self.stats = {"pops": 0, "score_computations": 0, "expansions": 0}
        self.trace_pops = False
        self.pop_log: list[tuple[int, int]] = []
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
        for did in st.scores:
            holders = self._rev.get(did)
            if holders is not None:
                holders.discard(qid)
                if not holders:
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
        has already resolved duplicate detection and inserted the document
        into the shared store.
        """
        factor = self.feedback.factor(doc.id) if self.feedback else 1.0
        self.index.add_document(doc, factor)
        scored: dict[QueryId, int] = {}
        changed: set[QueryId] = set()
        if doc.is_duplicate:
            self.last_scored = scored
            return changed

        weights = doc.composition.weights
        neg_id = -doc.id
        for tid, w_raw in doc.composition.pairs:
            ent = self.index.entry(tid)
            if ent is None or not ent.tree:
                continue
            hits = ent.tree.probe(w_raw * factor)
            for qid in hits:
                if qid in scored:
                    continue
                scored[qid] = 1
                st = self._states[qid]
                s = dot_score(st.items, weights) * factor
                self.stats["score_computations"] += 1
                key = (-s, neg_id)
                pos = bisect_left(st.cand_keys, key)
                st.cand_keys.insert(pos, key)
                st.scores[doc.id] = s
                holders = self._rev.get(doc.id)
                if holders is None:
                    holders = self._rev[doc.id] = set()
                holders.add(qid)
                if pos < st.k:
                    changed.add(qid)
                    if len(st.cand_keys) >= st.k:
                        # the k-th score rose: tighten thresholds
                        self._retune(st, dict(st.thresholds))
        self.last_scored = scored
        return changed

    def apply_expirations(self, docs: list[Document]) -> set[QueryId]:
        """Handle a batch of expirations from the window head.

        All documents are de-indexed before any result is repaired, so a
        refill search can never pop an entry of a document that just left
        the window; each affected query is then refilled exactly once.
        """
        for doc in docs:
            if not doc.is_duplicate:
                factor = self.feedback.factor(doc.id) if self.feedback else 1.0
                self.index.remove_document(doc, factor)
        changed: set[QueryId] = set()
        needs_refill: list[QueryState] = []
        for doc in docs:
            for qid in self._rev.pop(doc.id, ()):
                st = self._states[qid]
                s = st.scores.pop(doc.id)
                key = (-s, -doc.id)
                pos = bisect_left(st.cand_keys, key)
                del st.cand_keys[pos]
                if pos < st.k:
                    if qid not in changed:
                        needs_refill.append(st)
                    changed.add(qid)
        for st in needs_refill:
            self._expand(st)
        return changed

    def apply_feedback(self, doc: Document, old_factor: float,
                       new_factor: float) -> set[QueryId]:
        """Re-index a document whose boost factor rose and refresh its scores.

        Every query already holding the document is rescored; queries whose
        thresholds the boosted weights now reach evaluate it for the first
        time.
        """
        if doc.is_duplicate:
            raise ValueError("duplicates carry no feedback")
        if new_factor == old_factor:
            return set()
        self.index.reindex_document(doc, old_factor, new_factor)
        affected = set(self._rev.get(doc.id, ()))
        for tid, w_raw in doc.composition.pairs:
            ent = self.index.entry(tid)
            if ent is None or not ent.tree:
                continue
            for qid in ent.tree.probe(w_raw * new_factor):
                affected.add(qid)

        changed: set[QueryId] = set()
        weights = doc.composition.weights
        for qid in affected:
            st = self._states[qid]
            s_new = dot_score(st.items, weights) * new_factor
            self.stats["score_computations"] += 1
            old = st.scores.get(doc.id)
            pos_old = None
            if old is not None:
                old_key = (-old, -doc.id)
                pos_old = bisect_left(st.cand_keys, old_key)
                del st.cand_keys[pos_old]
            else:
                self._rev.setdefault(doc.id, set()).add(qid)
            key = (-s_new, -doc.id)
            pos_new = bisect_left(st.cand_keys, key)
            st.cand_keys.insert(pos_new, key)
            st.scores[doc.id] = s_new
            if pos_new < st.k or (pos_old is not None and pos_old < st.k):
                changed.add(qid)
                if pos_new < st.k and len(st.cand_keys) >= st.k:
                    self._retune(st, dict(st.thresholds))
        return changed

    def finalize_event(self) -> set[QueryId]:
        """Results are maintained inline; nothing to do per event."""
        return set()

    # -- result access -----------------------------------------------------

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        """The verified top-k as (doc id, score), best first; ties favour the
        newer document."""
        return self.state(qid).verified()

    # -- search internals ----------------------------------------------------

    def _expand(self, st: QueryState) -> None:
        """Resume (or start) the top-k search until the verified result is
        provably exact, then re-derive thresholds from the stopping frontier.

        Descends the query's inverted lists run by run, always popping the
        list whose next entry contributes the largest weighted candidate
        value. Stopping is allowed once the k-th candidate strictly beats the
        sum of frontier contributions, or ties it while outranking every
        possible unseen tying document's id, or all lists are exhausted.
        """
        self.stats["expansions"] += 1
        index = self.index
        store = self.store
        feedback = self.feedback
        k = st.k
        cand_keys = st.cand_keys
        scores = st.scores
        qid = st.query.id

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
                if self.trace_pops:
                    self.pop_log.append((tids[best], did))
                if did in scores:
                    continue
                doc = store.get(did)
                f = feedback.factor(did) if feedback else 1.0
                s = dot_score(st.items, doc.composition.weights) * f
                self.stats["score_computations"] += 1
                key = (-s, -did)
                cand_keys.insert(bisect_left(cand_keys, key), key)
                scores[did] = s
                holders = self._rev.get(did)
                if holders is None:
                    holders = self._rev[did] = set()
                holders.add(qid)

        frontier = {}
        for i in range(nterms):
            frontier[tids[i]] = weights[i][at[i]] if at[i] < len(weights[i]) else 0.0
        self._retune(st, frontier)

    def _retune(self, st: QueryState, base: dict[int, float]) -> None:
        """Roll local thresholds up from ``base`` while their weighted sum
        stays within the k-th score, then install them.

        Queries with fewer than k matches keep zero thresholds so every
        relevant arrival is evaluated.
        """
        k = st.k
        if len(st.cand_keys) < k:
            new = dict.fromkeys(base, 0.0)
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

        qid = st.query.id
        old = st.thresholds
        for tid, theta in new.items():
            prev = old.get(tid)
            if prev is None:
                self.index.ensure(tid).tree.insert(qid, theta)
            elif prev != theta:
                self.index.entry(tid).tree.update(qid, prev, theta)
        st.thresholds = new
