import pytest
from hypothesis import given, strategies as st

from streamtopk import Document, Query, Vocabulary, tokenize
from streamtopk.model import CompositionList, dot_score, load_stopwords

from helpers import comp, mkdoc, mkquery


def test_tokenize_counts_term_frequency():
    vocab = Vocabulary()
    c = tokenize("red rose red", frozenset(), vocab)
    assert {vocab.token(t): w for t, w in c.pairs} == {"red": 2.0, "rose": 1.0}


def test_tokenize_empty_text():
    assert tokenize("", frozenset(), Vocabulary()).pairs == ()


def test_tokenize_all_stopwords():
    assert tokenize("the the the", frozenset({"the"}), Vocabulary()).pairs == ()


def test_tokenize_lowercases_and_splits_on_non_alnum():
    vocab = Vocabulary()
    c = tokenize("Red-ROSE, red!", frozenset(), vocab)
    assert {vocab.token(t): w for t, w in c.pairs} == {"red": 2.0, "rose": 1.0}


def test_tokenize_canonical_order():
    vocab = Vocabulary()
    c = tokenize("zebra apple zebra mango", frozenset(), vocab)
    assert list(c.pairs) == sorted(c.pairs)


def test_score_inner_product():
    q = mkquery("q", {1: 1.0, 2: 1.0})
    d = mkdoc(1, {1: 2, 3: 1})
    assert dot_score(q.items, d.composition.weights) == 2.0


def test_score_no_overlap():
    q = mkquery("q", {1: 1.0})
    d = mkdoc(1, {9: 4})
    assert dot_score(q.items, d.composition.weights) == 0.0


def test_score_weighted():
    q = mkquery("q", {7: 2.0})
    d = mkdoc(1, {7: 3})
    assert dot_score(q.items, d.composition.weights) == 6.0


@given(st.dictionaries(st.integers(0, 20), st.integers(1, 5), min_size=1, max_size=8),
       st.dictionaries(st.integers(0, 20), st.floats(0.1, 4.0), min_size=1, max_size=6))
def test_score_matches_bruteforce_intersection(doc_pairs, query_weights):
    d = mkdoc(1, doc_pairs)
    q = mkquery("q", query_weights)
    expected = sum(w * doc_pairs[t] for t, w in query_weights.items() if t in doc_pairs)
    assert dot_score(q.items, d.composition.weights) == pytest.approx(expected, abs=1e-12)


@given(st.dictionaries(st.integers(0, 20), st.integers(1, 5), min_size=1, max_size=8),
       st.dictionaries(st.integers(0, 20), st.floats(0.1, 4.0), min_size=1, max_size=6))
def test_score_linear_in_query_weights(doc_pairs, query_weights):
    d = mkdoc(1, doc_pairs)
    q1 = mkquery("q", query_weights)
    q2 = mkquery("q", {t: 2 * w for t, w in query_weights.items()})
    w = d.composition.weights
    assert dot_score(q2.items, w) == pytest.approx(2 * dot_score(q1.items, w), rel=1e-12)


@given(st.dictionaries(st.text("abcdef", min_size=1, max_size=4),
                       st.integers(1, 4), min_size=1, max_size=6))
def test_tokenize_roundtrips_its_own_rendering(counts):
    """Expanding a composition back to a token multiset and re-tokenizing
    reproduces it."""
    vocab = Vocabulary()
    text = " ".join(tok for tok, c in sorted(counts.items()) for _ in range(c))
    first = tokenize(text, frozenset(), vocab)
    again = tokenize(" ".join(
        vocab.token(t) for t, w in first.pairs for _ in range(int(w))
    ), frozenset(), vocab)
    assert again == first


def test_composition_rejects_duplicates_and_nonpositive():
    with pytest.raises(ValueError):
        CompositionList([(1, 1.0), (1, 2.0)])
    with pytest.raises(ValueError):
        CompositionList([(1, 0.0)])


@pytest.mark.parametrize("w", [float("nan"), float("inf"), 1e200, 1e-200])
def test_composition_rejects_non_finite_weights_and_norms(w):
    with pytest.raises(ValueError):
        CompositionList([(1, w)])


def test_document_validation():
    with pytest.raises(ValueError):
        Document(id=5, arrival_time=0, composition=comp({1: 1}), duplicate_of=7)
    d = Document(id=8, arrival_time=0, composition=comp({1: 1}), duplicate_of=7)
    assert d.is_duplicate


def test_query_validation():
    with pytest.raises(ValueError):
        Query(id="q", term_weights={}, k=1)
    with pytest.raises(ValueError):
        Query(id="q", term_weights={1: 1.0}, k=0)
    with pytest.raises(ValueError):
        Query(id="q", term_weights={1: -1.0}, k=1)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Query(id="q", term_weights={1: 1.0, 2: bad}, k=1)
    q = Query(id="q", term_weights={3: 1.0, 1: 2.0}, k=2)
    assert q.items == ((1, 2.0), (3, 1.0))
    assert q.n == 2


def test_vocabulary_ids_stable():
    vocab = Vocabulary()
    a = vocab.intern("alpha")
    b = vocab.intern("beta")
    assert vocab.intern("alpha") == a
    assert vocab.token(b) == "beta"
    assert len(vocab) == 2


def test_load_stopwords_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_stopwords(str(tmp_path / "nope.txt"))
    assert load_stopwords(None) == frozenset()
    p = tmp_path / "stop.txt"
    p.write_text("The\nand\n\n")
    assert load_stopwords(str(p)) == {"the", "and"}
