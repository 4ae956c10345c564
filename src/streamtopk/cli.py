"""Command-line entry point.

Subcommands:

    gen     write a synthetic stream file and query file
    ingest  replay a stream file against registered queries
    bench   run parameter sweeps and emit summary CSVs

Exit codes: 0 success, 1 configuration error, 2 data/parse error,
3 oracle verification mismatch or engine invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from dataclasses import replace

from .bench import (ENGINE_NAMES, VerificationError, run_benchmark, sweep)
from .dedup import DedupConfig
from .fileio import (StreamFormatError, read_queries, read_stream, write_metrics,
                     write_queries, write_results, write_stream, write_summary)
from .genstream import QueryConfig, StreamConfig, generate_queries, generate_stream
from .index import WindowPolicy
from .model import Vocabulary, load_stopwords

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are configuration errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _doc_len(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(",")
    return int(lo), int(hi or lo)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_replay_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dedup-threshold", type=float, default=None, metavar="T",
                   help="cosine threshold in (0, 1] for duplicate suppression "
                        "(default off)")
    p.add_argument("--alpha", type=float, default=0.2,
                   help="feedback boost coefficient (default 0.2)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check results against a full rescan, and run the "
                        "engine's invariant check, while replaying")
    p.add_argument("--verify-every", type=_positive_int, default=100, metavar="M",
                   help="verify every M-th event (default 100)")


def _add_gen_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab", type=int, default=1000, help="vocabulary size")
    p.add_argument("--doc-len", type=_doc_len, default=(10, 100), metavar="MIN,MAX")
    p.add_argument("--zipf", type=float, default=1.0, help="term popularity skew")
    p.add_argument("--dup-rate", type=float, default=0.0,
                   help="fraction of arrivals copying a recent document")
    p.add_argument("--dup-backlook", type=int, default=100)
    p.add_argument("--queries", type=int, default=100, dest="n_queries")
    p.add_argument("--query-terms", type=int, default=4)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="streamtopk")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate stream and query files")
    _add_gen_config_flags(g)
    g.add_argument("--rate", type=float, default=200.0, help="mean arrivals/second")
    g.add_argument("--duration", type=float, default=10.0, help="stream length in seconds")
    g.add_argument("--docs", type=int, default=None,
                   help="exact document count (overrides --duration)")
    g.add_argument("--stream-out", required=True)
    g.add_argument("--queries-out", required=True)

    i = sub.add_parser("ingest", help="replay a stream file")
    i.add_argument("--stream", required=True)
    i.add_argument("--queries", required=True)
    i.add_argument("--stopwords", default=None)
    i.add_argument("--window", choices=("count", "time"), default="count",
                   help="window policy (default count-based)")
    i.add_argument("--n", type=int, default=1000, metavar="N",
                   help="window capacity: documents or ticks (default 1000)")
    i.add_argument("--engine", choices=ENGINE_NAMES, default="ita")
    _add_replay_flags(i)
    i.add_argument("--out", default=None, help="final per-query results CSV")
    i.add_argument("--metrics", default=None, help="per-event metrics CSV")

    b = sub.add_parser("bench", help="benchmark engines over parameter sweeps")
    _add_gen_config_flags(b)
    b.add_argument("--n", type=int, default=1000, metavar="N",
                   help="count-window capacity in documents (default 1000); each "
                        "run generates N prefill plus --events measured documents")
    b.add_argument("--engines", default="ita,naive",
                   help="comma-separated engine list (default ita,naive)")
    _add_replay_flags(b)
    b.add_argument("--events", type=_positive_int, default=200,
                   help="measured events per point (default 200)")
    b.add_argument("--sweep", default=None, metavar="PARAM=V1,V2,...",
                   help="sweep n (query terms) or N (window size)")
    b.add_argument("--summary", default=None, help="summary CSV path (default stdout)")
    b.add_argument("--metrics", default=None,
                   help="per-event metrics CSV (single engine and value only)")
    return parser


def _dedup_config(args) -> DedupConfig | None:
    if args.dedup_threshold is None:
        return None
    return DedupConfig(args.dedup_threshold)


def _open_outputs(outputs: ExitStack, *paths: str | None) -> list | None:
    """Open each given path for writing (None where none is given) before
    any work starts, so an unwritable path fails before a long replay rather
    than after it. Prints the error and returns None when one cannot be
    opened."""
    try:
        return [outputs.enter_context(open(p, "w", newline="", encoding="utf-8"))
                if p else None for p in paths]
    except OSError as exc:
        print(f"streamtopk: cannot write output: {exc}", file=sys.stderr)
        return None


def _cmd_gen(args) -> int:
    try:
        stream_cfg = StreamConfig(
            rate=args.rate, duration=args.duration, vocab_size=args.vocab,
            doc_length=args.doc_len, zipf_s=args.zipf, seed=args.seed,
            n_docs=args.docs, dup_rate=args.dup_rate, dup_backlook=args.dup_backlook)
        query_cfg = QueryConfig(count=args.n_queries, terms=args.query_terms,
                                k=args.k, seed=args.seed)
        vocab = Vocabulary()
        events = generate_stream(stream_cfg, vocab)
        queries = generate_queries(query_cfg, args.vocab, vocab)
    except ValueError as exc:
        print(f"streamtopk: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.stream_out, "w", encoding="utf-8") as fh:
            write_stream(fh, events, vocab)
        with open(args.queries_out, "w", encoding="utf-8") as fh:
            write_queries(fh, queries, vocab)
    except OSError as exc:
        print(f"streamtopk: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {len(events)} events to {args.stream_out}, "
          f"{len(queries)} queries to {args.queries_out}")
    return EXIT_OK


def _cmd_ingest(args, outputs: ExitStack) -> int:
    vocab = Vocabulary()
    try:
        stopwords = load_stopwords(args.stopwords)
        with open(args.stream, encoding="utf-8") as fh:
            events = read_stream(fh, vocab, stopwords)
        with open(args.queries, encoding="utf-8") as fh:
            queries = read_queries(fh, vocab)
    except OSError as exc:
        print(f"streamtopk: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamFormatError as exc:
        print(f"streamtopk: {args.stream}: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        policy = (WindowPolicy.count_based(args.n) if args.window == "count"
                  else WindowPolicy.time_based(args.n))
        dedup = _dedup_config(args)
    except ValueError as exc:
        print(f"streamtopk: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    files = _open_outputs(outputs, args.out, args.metrics)
    if files is None:
        return EXIT_CONFIG
    out_fh, metrics_fh = files

    try:
        result = run_benchmark(
            args.engine, events, queries, policy, alpha=args.alpha, dedup=dedup,
            verify_every=args.verify_every if args.verify else 0)
    except VerificationError as exc:
        print(f"streamtopk: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"streamtopk: {args.stream}: {exc}", file=sys.stderr)
        return EXIT_DATA

    if out_fh:
        write_results(out_fh, result.final_results)
    if metrics_fh:
        write_metrics(metrics_fh, result.records)
    print(f"processed {len(events)} events; mean {result.mean_micros:.1f} us/event, "
          f"p95 {result.p95_micros:.1f} us")
    return EXIT_OK


def _parse_sweep(text: str | None, default_n: int) -> tuple[str, list[int]]:
    if text is None:
        return "N", [default_n]
    param, _, body = text.partition("=")
    param = param.strip()
    if param not in ("n", "N") or not body:
        raise ValueError(f"bad sweep spec {text!r}; expected n=... or N=...")
    values = [int(v) for v in body.split(",") if v.strip()]
    if not values or sorted(values) != values:
        raise ValueError("sweep values must be ascending")
    return param, values


def _cmd_bench(args, outputs: ExitStack) -> int:
    try:
        param, values = _parse_sweep(args.sweep, args.n)
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        for e in engines:
            if e not in ENGINE_NAMES:
                raise ValueError(f"unknown engine {e!r}")
        stream_cfg = StreamConfig(
            vocab_size=args.vocab, doc_length=args.doc_len, zipf_s=args.zipf, seed=args.seed,
            dup_rate=args.dup_rate, dup_backlook=args.dup_backlook)
        query_cfg = QueryConfig(count=args.n_queries, terms=args.query_terms,
                                k=args.k, seed=args.seed)
        for value in values:  # each run's settings, checked before any run
            WindowPolicy.count_based(value if param == "N" else args.n)
            if param == "n":
                replace(query_cfg, terms=value)
        dedup = _dedup_config(args)
        if args.metrics and (len(engines) > 1 or len(values) > 1):
            raise ValueError("--metrics needs a single engine and sweep value")
    except ValueError as exc:
        print(f"streamtopk: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    files = _open_outputs(outputs, args.summary, args.metrics)
    if files is None:
        return EXIT_CONFIG
    summary_fh, metrics_fh = files

    try:
        points = sweep(param, values, stream=stream_cfg, query=query_cfg,
                       window_n=args.n, engines=engines,
                       measured_events=args.events, alpha=args.alpha,
                       dedup=dedup,
                       verify_every=args.verify_every if args.verify else 0)
    except VerificationError as exc:
        print(f"streamtopk: verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY

    rows = [(p.value, p.engine, p.mean_micros, p.p95_micros) for p in points]
    write_summary(summary_fh or sys.stdout, rows)
    if metrics_fh:
        write_metrics(metrics_fh, points[0].result.records)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    with ExitStack() as outputs:
        if args.command == "ingest":
            return _cmd_ingest(args, outputs)
        return _cmd_bench(args, outputs)


if __name__ == "__main__":
    sys.exit(main())
