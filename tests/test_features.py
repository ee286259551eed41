from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genscope.analysis
from genscope.analysis import ModelScorer
from genscope.classifier import (
    EMOJI_TOKEN,
    URL_TOKEN,
    BagOfWordsVectorizer,
    CsrMatrix,
    GenericityClassifier,
    GenericityModel,
    Vocabulary,
    build_vocab,
    csr_from_columns,
    features,
    loss_and_gradient,
    predict_score,
    save_model,
    tokenize,
    vectorize_bow,
)
from genscope.errors import InputError
from genscope.synth import generate_training_texts
from oracles import stack_features_oracle, two_pass_bow_oracle


class TestTokenize:
    def test_basic_words(self):
        assert tokenize("Liberals are the real homophobes!") == [
            "liberals", "are", "the", "real", "homophobes",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_emoji_class(self):
        assert tokenize("🤔🤔") == [EMOJI_TOKEN, EMOJI_TOKEN]

    def test_url_class(self):
        assert tokenize("look https://example.com/x?y=1 now") == ["look", URL_TOKEN, "now"]

    def test_hashtag_stripped(self):
        assert tokenize("#Democrats lead") == ["democrats", "lead"]

    def test_contraction_kept_whole(self):
        assert tokenize("don't DON'T don’t") == ["don't", "don't", "don't"]

    def test_deterministic(self):
        text = "Men in white coats 🤒 http://t.co/abc"
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def test_min_count_one(self):
        vocab = build_vocab([["a", "b"], ["a"]], min_count=1)
        assert vocab.index == {"a": 0, "b": 1}

    def test_min_count_two(self):
        vocab = build_vocab([["a", "b"], ["a"]], min_count=2)
        assert vocab.index == {"a": 0}

    def test_empty_vocab_error(self):
        with pytest.raises(InputError):
            build_vocab([["a", "b"], ["a"]], min_count=3)

    def test_frequency_then_lexicographic(self):
        vocab = build_vocab([["z", "z", "m", "a"]], min_count=1)
        assert vocab.index == {"z": 0, "a": 1, "m": 2}


class TestBagOfWords:
    def test_counts(self):
        vocab = build_vocab([["a", "b"]], min_count=1)
        assert vectorize_bow(["a", "a", "b"], vocab) == [(0, 2), (1, 1)]

    def test_oov_dropped(self):
        vocab = build_vocab([["a", "b"]], min_count=1)
        assert vectorize_bow(["c"], vocab) == []

    def test_order_invariance(self):
        vocab = build_vocab([["a", "b", "c"]], min_count=1)
        assert vectorize_bow(["a", "b", "c", "a"], vocab) == vectorize_bow(
            ["c", "a", "a", "b"], vocab
        )

    def test_vectorizer_estimator_api(self):
        v = BagOfWordsVectorizer(min_count=1)
        x = v.fit_transform(["a b", "b b"])
        assert x.shape == (2, 2)

    def test_transform_rows_are_vectorize_bow(self):
        texts = ["b a b", "zzz", "a c", ""]
        v = BagOfWordsVectorizer(min_count=1).fit(texts)
        x = v.transform(texts)
        assert x.shape == (4, v.vocabulary_.size)
        for i, text in enumerate(texts):
            row = slice(x.indptr[i], x.indptr[i + 1])
            pairs = list(zip(x.indices[row].tolist(), x.data[row].tolist()))
            assert pairs == vectorize_bow(tokenize(text), v.vocabulary_)


# texts from a few repeating words, class tokens and separators, plus
# empty and token-less texts and arbitrary short text
WORDS = ["a", "b", "cat", "Cat", "dog", "don't", "https://t.co/x", "🤔"]
TEXTS = (
    st.lists(st.sampled_from(WORDS + [" ", "!", ", "]), max_size=12).map(" ".join)
    | st.text(alphabet=" .,!?-_", max_size=4)
    | st.text(max_size=8)
)


class TestOnePass:
    """``fit_transform`` counts in one pass what the two-pass vectorizer
    counted in two: the same vocabulary and, bit for bit, the same CSR."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        texts=st.lists(TEXTS, max_size=12),
        min_count=st.integers(1, 3),
        rows_per_block=st.integers(1, 13),
    )
    def test_matches_two_pass_oracle(self, texts, min_count, rows_per_block):
        vocab, expected = two_pass_bow_oracle(map(tokenize, texts), min_count)
        v = BagOfWordsVectorizer(min_count=min_count)
        with mock.patch.object(features, "ROWS_PER_BLOCK", rows_per_block):
            if vocab is None:
                message = f"empty vocabulary: no token reached min_count={min_count}"
                with pytest.raises(InputError, match=message):
                    v.fit_transform(texts)
                return
            x = v.fit_transform(texts)
        assert list(v.vocabulary_.index.items()) == list(vocab.items())
        assert build_vocab(map(tokenize, texts), min_count).index == vocab
        assert x.shape == (len(texts), len(vocab))
        assert (x.indptr.dtype, x.indices.dtype, x.data.dtype) == (np.intp, np.intp, float)
        assert (x.indptr.tolist(), x.indices.tolist(), x.data.tolist()) == expected
        # transform maps the tokens through the fitted vocabulary; the two must agree
        again = v.transform(texts)
        for name in ("indptr", "indices", "data", "rows"):
            assert getattr(again, name).tolist() == getattr(x, name).tolist()

    def test_classifier_fit_tokenizes_each_text_once(self, monkeypatch):
        seen = []

        def counting_tokenize(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(features, "tokenize", counting_tokenize)
        texts, labels = generate_training_texts(n=60, seed=3)
        GenericityClassifier(min_count=1, epochs=2).fit(texts, labels)
        assert sorted(seen) == sorted(texts)

    def test_min_count_below_one_rejected_before_tokenizing(self):
        def texts():
            raise AssertionError("a text was read")
            yield

        for call in (
            lambda: BagOfWordsVectorizer(min_count=0).fit_transform(texts()),
            lambda: build_vocab(texts(), min_count=0),
        ):
            with pytest.raises(InputError, match="min_count must be >= 1"):
                call()

# a vocabulary of four tokens; "x" and "y" are out of it
BUILDER_VOCAB = Vocabulary(index={"b": 0, "a": 1, "d": 2, "c": 3}, min_count=1)
BUILDER_ROWS = st.lists(st.sampled_from(["a", "b", "c", "d", "x", "y"]), max_size=9)


def _same_csr(got, expected):
    for name in ("indptr", "indices", "data", "rows"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a.dtype, a.tolist()) == (b.dtype, b.tolist()), name
    assert got.shape == expected.shape


def _columns(token_lists, vocab):
    columns, ends = array("q"), array("q")
    for tokens in token_lists:
        columns.extend(vocab.index.get(t, -1) for t in tokens)
        ends.append(len(columns))
    return columns, ends


class TestCsrFromColumns:
    """The one CSR builder behind ``fit_transform``, ``transform`` and the
    model scorer gives, row for row, the CSR that ``stack_features_oracle``
    makes of ``vectorize_bow``'s per-text (column, count) pairs."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(rows=st.lists(BUILDER_ROWS, max_size=20), rows_per_block=st.integers(1, 7))
    def test_matches_vectorize_bow_rows(self, rows, rows_per_block):
        # empty rows, rows of out-of-vocabulary tokens only, repeated
        # tokens, and block boundaries anywhere among them
        expected = stack_features_oracle((vectorize_bow(r, BUILDER_VOCAB) for r in rows), 4)
        with mock.patch.object(features, "ROWS_PER_BLOCK", rows_per_block):
            _same_csr(csr_from_columns(*_columns(rows, BUILDER_VOCAB), 4), expected)

    def test_rows_across_whole_blocks(self):
        # three full blocks and a partial one; the five-row pattern puts a
        # different kind of row (empty, all out of vocabulary, repeated
        # tokens) on each side of each block boundary
        rows = [["a", "c", "a"], [], ["x", "y"], ["d", "b", "d", "x"], ["c"]] * 700
        expected = stack_features_oracle((vectorize_bow(r, BUILDER_VOCAB) for r in rows), 4)
        _same_csr(csr_from_columns(*_columns(rows, BUILDER_VOCAB), 4), expected)

    def test_no_rows(self):
        x = csr_from_columns(array("q"), array("q"), 4)
        _same_csr(x, stack_features_oracle([], 4))

    def test_transform_uses_it(self, monkeypatch):
        calls = []

        def builder(*args):
            calls.append(args)
            return csr_from_columns(*args)

        monkeypatch.setattr(features, "csr_from_columns", builder)
        v = BagOfWordsVectorizer(min_count=1)
        v.fit_transform(["a b", "b"])
        v.transform(["b c", ""])
        assert len(calls) == 2

    def test_model_scorer_across_chunks(self, tmp_path, monkeypatch):
        model = GenericityModel(
            weights=np.array([0.5, -1.25, 2.0, 0.1]), bias=-0.3, vocab=BUILDER_VOCAB
        )
        save_model(model, tmp_path / "model.txt")
        rows = [["a", "a", "b"], [], ["y"], ["c", "d", "x", "c"], ["b"]] * 3
        stacked = stack_features_oracle((vectorize_bow(r, BUILDER_VOCAB) for r in rows), 4)
        expected = CsrMatrix(stacked.indptr, stacked.indices, stacked.data, 4)
        want = predict_score(model, expected).tolist()
        for chunk in (1, 4, 5, len(rows), len(rows) + 1):
            monkeypatch.setattr(genscope.analysis, "CHUNK", chunk)
            scorer = ModelScorer(tmp_path / "model.txt")
            scores = []
            for r in rows:
                scorer.add(r, scores.append)
            scorer.flush()
            assert scores == want


def _csr(dense):
    """Reference CSR built row by row from a dense matrix."""
    indptr, indices, data = [0], [], []
    for row in dense:
        nonzero = np.flatnonzero(row)
        indices.extend(nonzero)
        data.extend(row[nonzero])
        indptr.append(len(indices))
    return CsrMatrix(indptr, indices, data, dense.shape[1])


def _random_sparse(seed, n=30, d=12):
    """Sparse rows with empty rows (one trailing) and all-zero columns
    (one of them the last)."""
    rng = np.random.RandomState(seed)
    dense = rng.randn(n, d) * (rng.rand(n, d) < 0.25)
    dense[[0, 7, n - 2, n - 1]] = 0.0
    dense[:, [3, d - 1]] = 0.0
    return rng, dense


class TestCsrMatrix:
    @pytest.mark.parametrize("seed", range(5))
    def test_products_match_dense(self, seed):
        rng, dense = _random_sparse(seed)
        x = _csr(dense)
        w = rng.randn(dense.shape[1])
        r = rng.randn(dense.shape[0])
        assert x.shape == dense.shape
        np.testing.assert_allclose(x @ w, dense @ w, rtol=0, atol=1e-12)
        # r is an ndarray: r @ x must reach CsrMatrix.__rmatmul__
        np.testing.assert_allclose(r @ x, dense.T @ r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_and_gradient_match_dense(self, seed):
        rng, dense = _random_sparse(seed)
        y = (rng.rand(dense.shape[0]) > 0.5).astype(float)
        w = rng.randn(dense.shape[1])
        for l2 in (0.0, 1e-2):
            sparse = loss_and_gradient(w, 0.3, _csr(dense), y, l2)
            reference = loss_and_gradient(w, 0.3, dense, y, l2)
            assert sparse[0] == pytest.approx(reference[0], rel=0, abs=1e-12)
            np.testing.assert_allclose(sparse[1], reference[1], rtol=0, atol=1e-12)
            assert sparse[2] == pytest.approx(reference[2], rel=0, abs=1e-12)

    def test_nbytes_counts_nonzeros_not_cells(self):
        x = CsrMatrix([0, 1, 1], [5], [2.0], 1_000_000)
        assert x.nbytes < 100

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            CsrMatrix([0, 2], [0, 1], [1.0, bad], 2)

    @pytest.mark.parametrize(
        "indptr, indices, data",
        [
            ([0, 1], [2], [1.0]),  # column out of range
            ([0, 1], [-1], [1.0]),
            ([1, 1], [0], [1.0]),  # indptr must start at 0
            ([0, 2, 1], [0, 1], [1.0, 1.0]),  # decreasing indptr
            ([0, 2], [0], [1.0]),  # indptr past the nonzeros
            ([], [], []),
        ],
    )
    def test_malformed_structure_rejected(self, indptr, indices, data):
        with pytest.raises(InputError):
            CsrMatrix(indptr, indices, data, 2)

