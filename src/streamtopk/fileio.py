"""Line-based stream and query file formats, plus result/metrics CSV output.

Stream files hold one event per line:

    id<TAB>timestamp<TAB>text                       raw text document
    id<TAB>timestamp<TAB>@<TAB>term:w,term:w,...    pre-tokenized document
    !feedback<TAB>doc_id<TAB>rating                 feedback event

Query files hold one query per line:

    query_id<TAB>k<TAB>term[:weight],term[:weight],...

Weights default to 1. Document ids must increase and timestamps must not
decrease from one arrival to the next; ratings lie in [0, 1]. Parsers
report the offending line number on error.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable

from .driver import Arrival, Feedback, StreamEvent
from .model import CompositionList, Document, Query, Vocabulary, tokenize


class StreamFormatError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _fmt_weight(w: float) -> str:
    return f"{w:g}"


def write_stream(fh: IO[str], events: Iterable[StreamEvent],
                 vocab: Vocabulary) -> int:
    """Write events in replay order; returns the number of lines written."""
    n = 0
    for ev in events:
        if isinstance(ev, Feedback):
            fh.write(f"!feedback\t{ev.doc_id}\t{_fmt_weight(ev.rating)}\n")
        else:
            doc = ev.doc
            if doc.text is not None:
                fh.write(f"{doc.id}\t{doc.arrival_time}\t{doc.text}\n")
            else:
                body = ",".join(
                    f"{vocab.token(tid)}:{_fmt_weight(w)}" for tid, w in doc.composition.pairs
                )
                fh.write(f"{doc.id}\t{doc.arrival_time}\t@\t{body}\n")
        n += 1
    return n


def _parse_pairs(body: str, vocab: Vocabulary, lineno: int) -> CompositionList:
    pairs: list[tuple[int, float]] = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        token, _, wtxt = chunk.partition(":")
        token = token.strip().lower()
        if not token:
            raise StreamFormatError(lineno, f"empty term in {chunk!r}")
        try:
            w = float(wtxt) if wtxt else 1.0
        except ValueError:
            raise StreamFormatError(lineno, f"bad weight {wtxt!r}") from None
        pairs.append((vocab.intern(token), w))
    try:
        return CompositionList(pairs)
    except ValueError as exc:
        raise StreamFormatError(lineno, str(exc)) from None


def read_stream(fh: IO[str], vocab: Vocabulary,
                stopwords: frozenset[str] = frozenset()) -> list[StreamEvent]:
    events: list[StreamEvent] = []
    last: Document | None = None
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "!feedback":
            if len(fields) != 3:
                raise StreamFormatError(lineno, "feedback needs doc_id and rating")
            try:
                doc_id = int(fields[1])
                rating = float(fields[2])
            except ValueError:
                raise StreamFormatError(lineno, "bad feedback fields") from None
            if not 0.0 <= rating <= 1.0:  # NaN fails too
                raise StreamFormatError(lineno, f"rating {fields[2]!r} must lie in [0, 1]")
            events.append(Feedback(doc_id, rating, lineno))
            continue
        if len(fields) < 3:
            raise StreamFormatError(lineno, "expected id, timestamp, and content")
        try:
            doc_id = int(fields[0])
            ts = int(fields[1])
        except ValueError:
            raise StreamFormatError(lineno, "bad id or timestamp") from None
        if ts < 0 or doc_id < 0:
            raise StreamFormatError(lineno, "id and timestamp must be non-negative")
        if last is not None and doc_id <= last.id:
            raise StreamFormatError(lineno, f"document id {doc_id} does not follow {last.id}")
        if last is not None and ts < last.arrival_time:
            raise StreamFormatError(
                lineno, f"timestamp {ts} is below the previous arrival's {last.arrival_time}")
        if fields[2] == "@":
            if len(fields) != 4:
                raise StreamFormatError(lineno, "pre-tokenized record needs a term list")
            comp = _parse_pairs(fields[3], vocab, lineno)
            doc = Document(id=doc_id, arrival_time=ts, composition=comp)
        else:
            text = "\t".join(fields[2:])
            comp = tokenize(text, stopwords, vocab)
            doc = Document(id=doc_id, arrival_time=ts, composition=comp, text=text)
        events.append(Arrival(doc, lineno))
        last = doc
    return events


def write_queries(fh: IO[str], queries: Iterable[Query], vocab: Vocabulary) -> int:
    n = 0
    for q in queries:
        body = ",".join(
            f"{vocab.token(tid)}" if w == 1.0 else f"{vocab.token(tid)}:{_fmt_weight(w)}"
            for tid, w in q.items
        )
        fh.write(f"{q.id}\t{q.k}\t{body}\n")
        n += 1
    return n


def read_queries(fh: IO[str], vocab: Vocabulary) -> list[Query]:
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise StreamFormatError(lineno, "expected query_id, k, and term list")
        qid = fields[0]
        if qid in seen:
            raise StreamFormatError(lineno, f"duplicate query id {qid!r}")
        seen.add(qid)
        try:
            k = int(fields[1])
        except ValueError:
            raise StreamFormatError(lineno, f"bad k {fields[1]!r}") from None
        comp = _parse_pairs(fields[2], vocab, lineno)
        if not comp.pairs:
            raise StreamFormatError(lineno, "query has no terms")
        try:
            queries.append(Query(id=qid, term_weights=dict(comp.pairs), k=k))
        except ValueError as exc:
            raise StreamFormatError(lineno, str(exc)) from None
    return queries


def write_results(fh: IO[str], results: dict[str, list[tuple[int, float]]]) -> None:
    """Final per-query results: query_id, rank, doc_id, score."""
    writer = csv.writer(fh)
    writer.writerow(["query_id", "rank", "doc_id", "score"])
    for qid, rows in results.items():
        for rank, (did, s) in enumerate(rows, start=1):
            writer.writerow([qid, rank, did, f"{s:.9g}"])


def write_metrics(fh: IO[str], records) -> None:
    """Per-event timings: event, kind, micros, queries_updated."""
    writer = csv.writer(fh)
    writer.writerow(["event", "kind", "micros", "queries_updated"])
    for rec in records:
        writer.writerow([rec.event, rec.kind, f"{rec.micros:.3f}", rec.queries_updated])


def write_summary(fh: IO[str], rows) -> None:
    """Sweep summary: param, engine, mean_micros, p95_micros."""
    writer = csv.writer(fh)
    writer.writerow(["param", "engine", "mean_micros", "p95_micros"])
    for param, engine, mean, p95 in rows:
        writer.writerow([param, engine, f"{mean:.3f}", f"{p95:.3f}"])
