"""Relevance feedback: per-document boost factors folded into indexed weights.

A rating r in [0, 1] lifts every indexed weight of the document to
``w * (1 + alpha * f)`` where f is the document's highest rating so far.
Ratings aggregate by max, so repeated feedback is idempotent and the factor
never decreases. Feedback does not outlive the document's window slot.
"""

from __future__ import annotations


class FeedbackStore:
    def __init__(self, alpha: float = 0.2):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.alpha = alpha
        self._ratings: dict[int, float] = {}
        self._factors: dict[int, float] = {}

    def factor(self, doc_id: int) -> float:
        return self._factors.get(doc_id, 1.0)

    @property
    def factors(self) -> dict[int, float]:
        """Live view of non-unit boost factors, keyed by doc id."""
        return self._factors

    def record(self, doc_id: int, rating: float) -> tuple[float, float]:
        """Apply a rating; returns (old_factor, new_factor).

        Equal factors mean the event was a no-op (rating not above the
        current maximum, or alpha is zero).
        """
        if not 0.0 <= rating <= 1.0:
            raise ValueError("rating must lie in [0, 1]")
        old_rating = self._ratings.get(doc_id, 0.0)
        new_rating = max(old_rating, rating)
        old_factor = self.factor(doc_id)
        new_factor = 1.0 + self.alpha * new_rating
        self._ratings[doc_id] = new_rating
        if new_factor != 1.0:
            self._factors[doc_id] = new_factor
        return old_factor, new_factor

    def drop(self, doc_id: int) -> None:
        self._ratings.pop(doc_id, None)
        self._factors.pop(doc_id, None)
