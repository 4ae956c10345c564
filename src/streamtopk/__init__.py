"""streamtopk: continuous top-k text query monitoring over sliding windows.

An in-memory engine that keeps, for every registered text query, the k
documents of the current window most similar to the query's weighted terms,
updating results incrementally on every arrival and expiration. Ships with
full-rescan baselines (plain and k_max-buffered) in ``streamtopk.baseline``,
near-duplicate suppression, relevance-feedback boosting, and a replay
harness. ``ShardSet`` (engines that each index the whole window and own a
slice of the queries) remains only as the fixture of the sharded benchmark
workload.

The package root exports what the README and the benchmark use; everything
else is imported from its submodule.
"""

from .baseline import naive_top_k
from .coordinator import ShardSet
from .dedup import DedupConfig
from .driver import StreamDriver
from .engine import IncrementalTopKEngine
from .feedback import FeedbackStore
from .genstream import StreamConfig, generate_stream
from .index import DocumentStore, WindowPolicy
from .model import Document, Query, Vocabulary, tokenize

__version__ = "0.1.0"

__all__ = [
    "DedupConfig", "Document", "DocumentStore", "FeedbackStore",
    "IncrementalTopKEngine", "Query", "ShardSet", "StreamConfig",
    "StreamDriver", "Vocabulary", "WindowPolicy", "generate_stream",
    "naive_top_k", "tokenize",
]
