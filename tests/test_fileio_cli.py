import io

import pytest

from streamtopk import StreamConfig, Vocabulary, generate_stream
from streamtopk.cli import main
from streamtopk.driver import Arrival, Feedback
from streamtopk.fileio import (StreamFormatError, read_queries, read_stream,
                               write_queries, write_stream)


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse-level configuration errors
        return exc.code


# -- file formats -------------------------------------------------------------

def test_stream_roundtrip_pretokenized():
    vocab = Vocabulary()
    events = generate_stream(StreamConfig(rate=100, duration=1.0, vocab_size=20,
                                          seed=3), vocab)
    buf = io.StringIO()
    write_stream(buf, events, vocab)
    buf.seek(0)
    vocab2 = Vocabulary()
    parsed = read_stream(buf, vocab2)
    assert len(parsed) == len(events)
    for a, b in zip(events, parsed):
        assert a.doc.id == b.doc.id
        assert a.doc.arrival_time == b.doc.arrival_time
        pa = {vocab.token(t): w for t, w in a.doc.composition.pairs}
        pb = {vocab2.token(t): w for t, w in b.doc.composition.pairs}
        assert pa == pb


def test_text_records_are_tokenized():
    vocab = Vocabulary()
    events = read_stream(io.StringIO("1\t0\tRed rose red\n"), vocab)
    doc = events[0].doc
    assert doc.text == "Red rose red"
    assert {vocab.token(t): w for t, w in doc.composition.pairs} == {"red": 2.0, "rose": 1.0}


def test_feedback_lines_parse_in_order():
    vocab = Vocabulary()
    events = read_stream(io.StringIO("1\t0\t@\ta:1\n!feedback\t1\t0.5\n"), vocab)
    assert isinstance(events[0], Arrival)
    assert isinstance(events[1], Feedback)
    assert events[1].doc_id == 1 and events[1].rating == 0.5


def test_parse_error_reports_line_number():
    bad = "\n".join(f"{i}\t{i}\t@\ta:1" for i in range(1, 17)) + "\nnot a record\n"
    with pytest.raises(StreamFormatError) as err:
        read_stream(io.StringIO(bad), Vocabulary())
    assert "line 17" in str(err.value)
    assert err.value.lineno == 17


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_non_finite_weights_are_rejected_with_their_line(weight):
    stream = f"1\t0\t@\ta:1\n2\t1\t@\tt1:{weight},b:2\n"
    with pytest.raises(StreamFormatError) as err:
        read_stream(io.StringIO(stream), Vocabulary())
    assert err.value.lineno == 2
    queries = f"q1\t1\ta\nq2\t1\tb,t1:{weight}\n"
    with pytest.raises(StreamFormatError) as err:
        read_queries(io.StringIO(queries), Vocabulary())
    assert err.value.lineno == 2


@pytest.mark.parametrize("rating", ["nan", "1.5", "-0.1"])
def test_bad_feedback_ratings_are_rejected_with_their_line(rating, tmp_path, capsys):
    text = f"1\t0\t@\ta:1\n!feedback\t1\t{rating}\n"
    with pytest.raises(StreamFormatError) as err:
        read_stream(io.StringIO(text), Vocabulary())
    assert err.value.lineno == 2
    assert _ingest(tmp_path, text) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("second", ["2\t5\t@\ta:1", "1\t108\t@\ta:1"],
                         ids=["decreasing-timestamp", "repeated-id"])
def test_out_of_order_arrivals_are_rejected_with_their_line(second, tmp_path, capsys):
    # a decreasing timestamp (100, 5) or a repeated id, each on line 2
    text = f"1\t100\t@\ta:1\n{second}\n3\t108\t@\ta:1\n"
    with pytest.raises(StreamFormatError) as err:
        read_stream(io.StringIO(text), Vocabulary())
    assert err.value.lineno == 2
    assert _ingest(tmp_path, text, "--window", "time", "--n", "10") == 2
    assert "line 2" in capsys.readouterr().err


def test_equal_timestamps_are_accepted():
    events = read_stream(io.StringIO("1\t7\t@\ta:1\n2\t7\t@\ta:1\n"), Vocabulary())
    assert [ev.doc.arrival_time for ev in events] == [7, 7]


def test_query_file_roundtrip_with_weights():
    vocab = Vocabulary()
    text = "q1\t2\tred,rose:2.5\nq2\t1\tthorn\n"
    queries = read_queries(io.StringIO(text), vocab)
    assert queries[0].k == 2
    assert queries[0].term_weights[vocab.get("rose")] == 2.5
    assert queries[1].term_weights[vocab.get("thorn")] == 1.0
    buf = io.StringIO()
    write_queries(buf, queries, vocab)
    again = read_queries(io.StringIO(buf.getvalue()), Vocabulary())
    assert [q.k for q in again] == [2, 1]


def test_query_file_rejects_duplicates_and_bad_k():
    with pytest.raises(StreamFormatError):
        read_queries(io.StringIO("q1\t1\ta\nq1\t1\tb\n"), Vocabulary())
    with pytest.raises(StreamFormatError):
        read_queries(io.StringIO("q1\tx\ta\n"), Vocabulary())


# -- CLI ----------------------------------------------------------------------

def _ingest(tmp_path, stream_text, *flags):
    stream = tmp_path / "s.tsv"
    stream.write_text(stream_text)
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\ta\n")
    return run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile), *flags])


def test_gen_ingest_roundtrip(tmp_path):
    stream = tmp_path / "stream.tsv"
    queries = tmp_path / "queries.tsv"
    out = tmp_path / "results.csv"
    metrics = tmp_path / "metrics.csv"
    assert run_cli(["gen", "--rate", "100", "--duration", "1", "--vocab", "50",
                    "--queries", "5", "--query-terms", "3", "--seed", "4",
                    "--stream-out", str(stream), "--queries-out", str(queries)]) == 0
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(queries),
                    "--n", "20", "--verify", "--verify-every", "10",
                    "--out", str(out), "--metrics", str(metrics)]) == 0
    header, *rows = metrics.read_text().strip().splitlines()
    assert header == "event,kind,micros,queries_updated"
    assert len(rows) == len(stream.read_text().strip().splitlines())
    assert out.read_text().startswith("query_id,rank,doc_id,score")


def test_gen_deterministic_files(tmp_path):
    args = ["gen", "--rate", "50", "--duration", "1", "--seed", "9",
            "--queries", "3"]
    a_s, a_q = tmp_path / "a.tsv", tmp_path / "aq.tsv"
    b_s, b_q = tmp_path / "b.tsv", tmp_path / "bq.tsv"
    assert run_cli(args + ["--stream-out", str(a_s), "--queries-out", str(a_q)]) == 0
    assert run_cli(args + ["--stream-out", str(b_s), "--queries-out", str(b_q)]) == 0
    assert a_s.read_bytes() == b_s.read_bytes()
    assert a_q.read_bytes() == b_q.read_bytes()


def test_ingest_hand_computed_fixture(tmp_path):
    stream = tmp_path / "s.tsv"
    stream.write_text("1\t0\tred rose red\n"
                      "2\t1\tthorn bush\n"
                      "3\t2\t@\trose:2,red:1\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t2\tred,rose\n")
    out = tmp_path / "r.csv"
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile),
                    "--n", "10", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    # doc1 and doc3 both score 3.0; the newer document ranks first
    assert rows[1].startswith("q1,1,3,3") and rows[2].startswith("q1,2,1,3")


def test_ingest_empty_stream(tmp_path):
    stream = tmp_path / "s.tsv"
    stream.write_text("")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t2\tred\n")
    out = tmp_path / "r.csv"
    metrics = tmp_path / "m.csv"
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile),
                    "--out", str(out), "--metrics", str(metrics)]) == 0
    assert len(metrics.read_text().strip().splitlines()) == 1  # header only


def test_ingest_reports_data_error_with_line(tmp_path, capsys):
    stream = tmp_path / "s.tsv"
    lines = [f"{i}\t{i}\t@\ta:1" for i in range(1, 17)]
    lines.append("17\tnot_a_timestamp\ttext")
    stream.write_text("\n".join(lines) + "\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\ta\n")
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile)]) == 2
    assert "line 17" in capsys.readouterr().err


@pytest.mark.parametrize("stream, flags, message", [
    ("1\t0\t@\ta:1\n!feedback\t5\t0.5\n", (),
     "line 2: feedback for unknown or expired document 5"),
    ("1\t0\t@\ta:1\n2\t1\t@\ta:1\n!feedback\t2\t0.5\n", ("--dedup-threshold", "0.9"),
     "line 3: document 2 is a duplicate; feedback rejected"),
], ids=["unknown-document", "duplicate"])
def test_ingest_names_the_line_of_a_replay_error(stream, flags, message, tmp_path, capsys):
    assert _ingest(tmp_path, stream, *flags) == 2
    assert message in capsys.readouterr().err


def test_config_errors_exit_one(tmp_path):
    stream = tmp_path / "s.tsv"
    stream.write_text("1\t0\t@\ta:1\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\ta\n")
    base = ["ingest", "--stream", str(stream), "--queries", str(qfile)]
    assert run_cli(base + ["--n", "0"]) == 1
    assert run_cli(base + ["--engine", "naive", "--workers", "2"]) == 1
    assert run_cli(base + ["--workers", "2"]) == 1  # no such flag
    assert run_cli(base + ["--dedup-threshold", "1.5"]) == 1
    assert run_cli(base + ["--dedup-threshold", "nan"]) == 1
    assert run_cli(base + ["--engine", "bogus"]) == 1  # argparse choice
    # bench always generates N + --events documents into a count window of N
    bench = ["bench", "--engines", "ita", "--events", "5", "--n", "10"]
    for flag in (["--window", "time"], ["--docs", "5"], ["--duration", "0.001"],
                 ["--rate", "5"]):
        assert run_cli(bench + flag) == 1
    gen = ["gen", "--duration", "1", "--stream-out", str(tmp_path / "g.tsv"),
           "--queries-out", str(tmp_path / "gq.tsv")]
    for rate in ("0", "-1", "nan"):
        assert run_cli(gen + ["--rate", rate]) == 1
    assert not (tmp_path / "g.tsv").exists()


def test_verification_mismatch_exits_three(tmp_path, monkeypatch):
    import streamtopk.cli as cli_mod
    from streamtopk.bench import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError(3, "q1", [(1, 1.0)], [])

    monkeypatch.setattr(cli_mod, "run_benchmark", boom)
    stream = tmp_path / "s.tsv"
    stream.write_text("1\t0\t@\ta:1\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\ta\n")
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile),
                    "--verify"]) == 3


def test_invariant_breach_exits_three(tmp_path, monkeypatch, capsys):
    """An engine whose results stay right but whose ``_rev`` loses each
    arrival is caught by ``check_invariants()`` at the first verified event."""
    import streamtopk.bench as bench_mod
    from streamtopk import IncrementalTopKEngine

    class Corrupted(IncrementalTopKEngine):
        def apply_arrival(self, doc):
            changed = super().apply_arrival(doc)
            self._rev.pop(doc.id, None)
            return changed

    monkeypatch.setattr(bench_mod, "build_engine",
                        lambda name, store, feedback: Corrupted(store, feedback))
    stream = tmp_path / "s.tsv"
    stream.write_text("1\t0\t@\ta:1\n2\t1\t@\ta:2\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\ta\n")
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile),
                    "--verify", "--verify-every", "1"]) == 3
    err = capsys.readouterr().err
    assert "verification failed: event 0: engine invariant breached" in err
    assert "candidate 1 not in _rev" in err


def test_bench_sweep_summary(tmp_path):
    summary = tmp_path / "summary.csv"
    assert run_cli(["bench", "--sweep", "n=2,3", "--engines", "ita,naive-kmax",
                    "--events", "15", "--n", "10", "--vocab", "30",
                    "--queries", "3", "--doc-len", "3,8", "--k", "2",
                    "--summary", str(summary)]) == 0
    rows = summary.read_text().strip().splitlines()
    assert rows[0] == "param,engine,mean_micros,p95_micros"
    assert len(rows) == 5  # 2 values x 2 engines


def test_bench_single_engine_metrics(tmp_path):
    summary = tmp_path / "summary.csv"
    metrics = tmp_path / "metrics.csv"
    assert run_cli(["bench", "--engines", "ita", "--events", "10", "--n", "8",
                    "--vocab", "20", "--queries", "2", "--doc-len", "3,6",
                    "--summary", str(summary), "--metrics", str(metrics)]) == 0
    assert len(metrics.read_text().strip().splitlines()) == 11


def test_stopwords_applied_at_ingest(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_text("the\n")
    stream = tmp_path / "s.tsv"
    stream.write_text("1\t0\tthe rose\n")
    qfile = tmp_path / "q.tsv"
    qfile.write_text("q1\t1\tthe\n")
    out = tmp_path / "r.csv"
    assert run_cli(["ingest", "--stream", str(stream), "--queries", str(qfile),
                    "--stopwords", str(stop), "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == ["query_id,rank,doc_id,score"]


def test_missing_stopwords_file_is_a_config_error(tmp_path, capsys):
    assert _ingest(tmp_path, "1\t0\tthe rose\n",
                   "--stopwords", str(tmp_path / "typo.txt")) == 1
    assert "typo.txt" in capsys.readouterr().err


@pytest.mark.parametrize("command, replay", [
    (["ingest", "--out", "{bad}", "--metrics", "{ok}"], "run_benchmark"),
    (["ingest", "--metrics", "{bad}"], "run_benchmark"),
    (["bench", "--summary", "{bad}"], "sweep"),
    (["bench", "--engines", "ita", "--summary", "{ok}", "--metrics", "{bad}"], "sweep"),
], ids=["ingest-out", "ingest-metrics", "bench-summary", "bench-metrics"])
def test_unwritable_output_fails_before_the_replay(command, replay, tmp_path,
                                                   monkeypatch, capsys):
    import streamtopk.cli as cli_mod

    def no_replay(*args, **kwargs):
        raise AssertionError("replayed before opening the outputs")

    monkeypatch.setattr(cli_mod, replay, no_replay)
    paths = {"bad": str(tmp_path / "missing" / "x.csv"), "ok": str(tmp_path / "ok.csv")}
    args = [a.format(**paths) for a in command]
    if args[0] == "ingest":
        stream = tmp_path / "s.tsv"
        stream.write_text("1\t0\t@\ta:1\n")
        qfile = tmp_path / "q.tsv"
        qfile.write_text("q1\t1\ta\n")
        args += ["--stream", str(stream), "--queries", str(qfile)]
    assert run_cli(args) == 1
    assert "streamtopk: cannot write output:" in capsys.readouterr().err
