"""Event loop glue: one global window, duplicate screening, and feedback
routing in front of any engine.

The driver owns the :class:`DocumentStore` and the window policy. Engines
never decide expiration themselves; the driver tells them which documents
arrive and which expire, so single-node engines and sharded engines see
identical window semantics. The driver also owns the duplicate rule: a
flagged document holds a window slot, but its arrival and its expiry never
reach the engine, the :class:`DuplicateIndex` or the feedback store, and a
rating for it is rejected. Engines see only the documents they rank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dedup import DedupConfig, DuplicateIndex, check_duplicate
from .feedback import FeedbackStore
from .index import DocumentStore
from .model import Document, Query, QueryId


@dataclass(frozen=True)
class Arrival:
    doc: Document
    lineno: int | None = None


@dataclass(frozen=True)
class Feedback:
    doc_id: int
    rating: float
    lineno: int | None = None


StreamEvent = Arrival | Feedback


@dataclass
class EventOutcome:
    changed: set[QueryId]
    expired: list[Document]
    duplicate_of: int | None = None


class StreamDriver:
    def __init__(self, store: DocumentStore, engine,
                 feedback: FeedbackStore | None = None,
                 dedup: DedupConfig | None = None):
        if engine.store is not store:
            raise ValueError("the engine is built over a different document store")
        if feedback is not None and engine.feedback is not feedback:
            raise ValueError("the engine is built over a different feedback store")
        self.store = store
        self.engine = engine
        self.feedback = feedback
        self.duplicates = (DuplicateIndex(dedup.similarity_threshold, store.documents())
                           if dedup is not None else None)

    def register(self, query: Query):
        return self.engine.register(query)

    def unregister(self, qid: QueryId) -> None:
        self.engine.unregister(qid)

    def process(self, event: StreamEvent) -> EventOutcome:
        """Apply one event. A data error names the event's stream line, if
        it has one."""
        try:
            if isinstance(event, Feedback):
                return self._process_feedback(event)
            return self._process_arrival(event)
        except ValueError as exc:
            if event.lineno is None:
                raise
            raise ValueError(f"line {event.lineno}: {exc}") from exc

    def _process_arrival(self, event: Arrival) -> EventOutcome:
        doc = event.doc
        dup = None
        if self.duplicates is not None:
            dup = check_duplicate(doc, self.duplicates)
            if dup is not None:
                doc = replace(doc, duplicate_of=dup)
        self.store.insert(doc)
        changed: set[QueryId] = set()
        if not doc.is_duplicate:
            if self.duplicates is not None:
                self.duplicates.add(doc)
            changed |= self.engine.apply_arrival(doc)
        expired = self.store.evict_due(doc.arrival_time)
        ranked = [gone for gone in expired if not gone.is_duplicate]
        if ranked:
            if self.duplicates is not None:
                self.duplicates.remove(ranked)
            changed |= self.engine.apply_expirations(ranked)
            if self.feedback is not None:
                for gone in ranked:
                    self.feedback.drop(gone.id)
        return EventOutcome(changed, expired, dup)

    def _process_feedback(self, event: Feedback) -> EventOutcome:
        if self.feedback is None:
            raise ValueError("no feedback store configured")
        doc = self.store.get(event.doc_id)
        if doc is None:
            raise ValueError(f"feedback for unknown or expired document {event.doc_id}")
        if doc.is_duplicate:
            raise ValueError(f"document {event.doc_id} is a duplicate; feedback rejected")
        old_factor, new_factor = self.feedback.record(event.doc_id, event.rating)
        if new_factor == old_factor:
            return EventOutcome(set(), [])
        changed = set(self.engine.apply_feedback(doc, old_factor, new_factor))
        return EventOutcome(changed, [])

    def current_result(self, qid: QueryId) -> list[tuple[int, float]]:
        return self.engine.current_result(qid)
