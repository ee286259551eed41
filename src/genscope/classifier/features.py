"""Tokenization and bag-of-words features in a compressed sparse row matrix."""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..base import check_fitted
from ..errors import InputError

URL_TOKEN = "URL"
EMOJI_TOKEN = "EMOJI"

# pictographs, emoticons, transport, supplemental symbols, dingbats,
# misc symbols, geometric shapes (media-player glyphs appear in tweets)
_EMOJI = (
    "["
    "\U0001F000-\U0001FAFF"
    "☀-➿"
    "⬀-⯿"
    "■-◿"
    "\U0001F1E6-\U0001F1FF"
    "]"
)
_EMOJI_RE = re.compile(_EMOJI)

# The one grammar: each kind's pattern, in priority order (at each position
# the first alternative that matches wins; characters no alternative
# matches are skipped).
_KINDS = (
    ("url", r"(?i:https?://\S+|www\.\S+)"),
    ("emoji", _EMOJI),
    ("blank", r"_{2,}"),
    ("word", r"[^\W_]+(?:['’][^\W_]+)*"),
    ("brk", r"[.!?;\n]"),
    # a dash run that breaks a clause: one led by an em or en dash, or one
    # with whitespace or a text edge on both sides
    ("dash", r"[—–][-—–]*|(?<!\S)-[-—–]*(?!\S)"),
    ("punct", r"[:=,\"“”']"),
    # any other dash run, taken whole so that no dash inside it starts a
    # breaking run; it makes no token and no mark
    ("hyphen", r"[-—–]+"),
)
# Kinds that make a token; the others only end a clause or mark a blank.
_TOKEN_KINDS = ("url", "emoji", "word")

# Every kind, for the annotator's ``normalize``: one group holds every kind
# but ``hyphen``, so ``findall`` gives each match's surface, or "" for a
# hyphen run. No alternative starts with whitespace other than a newline,
# so the leading guard skips a space in one test instead of eight failed
# alternatives, where ``token_spans`` scans a whole text.
LEXER_RE = re.compile(
    r"(?=\S|\n)(?:("
    + "|".join(p for kind, p in _KINDS if kind != "hyphen")
    + ")|"
    + dict(_KINDS)["hyphen"]
    + ")"
)
# The token kinds only, for ``tokenize``, which scans whitespace-free
# chunks. The kinds left out consume only characters that cannot start a
# token kind (``_``, clause breaks, dashes, punctuation), so both patterns
# find the same tokens.
TOKEN_RE = re.compile("|".join(p for kind, p in _KINDS if kind in _TOKEN_KINDS))


# ``tokenize``'s cache: each whitespace-free chunk it has scanned maps to
# its tokens. An entry depends on its chunk alone, so every caller in a
# process shares the one dict, as ``re`` shares its compiled patterns. It
# keeps the first ``MAX_CHUNKS`` chunks met, and never one holding a URL,
# since real tweet URLs are unique; a chunk it lacks is scanned again.
MAX_CHUNKS = 1 << 14
_CHUNKS: dict[str, tuple[str, ...]] = {}


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with URLs and emoji mapped to class tokens.
    The annotator's ``normalize`` gives the same list from the walk that
    also builds its clauses.

    The text is split on whitespace, and each chunk's tokens come from
    the module's chunk cache: ``TOKEN_RE.findall`` runs only on a chunk
    the cache lacks. No match holds whitespace, and the one rule that
    reads context, the breaking dash's, takes whitespace and a string edge
    alike as a boundary, so the tokens are those of one scan of the whole
    text.

    A URL is the only token that can hold ``.`` or ``:``, and an emoji is
    one character of the emoji class (a word that starts with one loses to
    the emoji alternative)."""
    chunks = _CHUNKS
    tokens: list[str] = []
    for chunk in (text or "").split():
        run = chunks.get(chunk)
        if run is None:
            run = tuple([
                URL_TOKEN if "." in t or ":" in t
                else EMOJI_TOKEN if len(t) == 1 and _EMOJI_RE.match(t)
                else t.lower().replace("’", "'")
                for t in TOKEN_RE.findall(chunk)
            ])
            # no word folds to upper case
            if URL_TOKEN not in run and len(chunks) < MAX_CHUNKS:
                chunks[chunk] = run
        tokens += run
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index map with contiguous indices 0..size-1."""

    index: dict[str, int]
    min_count: int

    @property
    def size(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def tokens_by_index(self) -> list[str]:
        out = [""] * self.size
        for token, i in self.index.items():
            out[i] = token
        return out


def check_min_count(min_count) -> None:
    if min_count < 1:
        raise InputError("min_count must be >= 1")


@dataclass
class TokenIds:
    """Token lists counted into ids in the order their tokens were first
    seen: ``tokens`` holds each distinct token at its id, ``ids`` the id of
    every token in order and ``ends`` the end offset of each list in
    ``ids``. One part of a corpus, such as one byte range of a file, for
    ``_count_vocab`` to merge with the others in order."""

    tokens: list[str]
    ids: array
    ends: array

    def __len__(self) -> int:
        return len(self.ends)


def token_ids(texts) -> TokenIds:
    """Tokenize each text once and count its tokens into first-seen ids."""
    return _first_seen_ids(map(tokenize, texts))


def _first_seen_ids(token_lists) -> TokenIds:
    """Count the token lists into first-seen ids; no token list is kept."""
    ids: dict[str, int] = {}
    flat, ends = array("i"), array("q")
    for tokens in token_lists:
        for token in tokens:
            flat.append(ids.setdefault(token, len(ids)))
        ends.append(len(flat))
    return TokenIds(list(ids), flat, ends)


def _count_vocab(parts, min_count: int):
    """The vocabulary of the ``TokenIds`` parts of a corpus, in order, the
    vocabulary column of every token in order (-1 for a token that did not
    make it) and the end offset of each list in that sequence.

    Each part's ids are mapped into the first-seen ids of the parts as one
    corpus, and every token is counted with one ``np.bincount``; tokens seen
    at least min_count times are then ranked by descending count, ties
    broken lexicographically, so the mapping is deterministic.
    """
    check_min_count(min_count)
    ids: dict[str, int] = {}
    flats, ends, offset = [], [], 0
    for part in parts:
        merged = np.array([ids.setdefault(t, len(ids)) for t in part.tokens], dtype=np.intc)
        flats.append(merged[np.frombuffer(part.ids, dtype=np.intc)])
        ends.append(np.frombuffer(part.ends, dtype=np.int64) + offset)
        offset += len(part.ids)
    flat = np.concatenate(flats)
    counts = np.bincount(flat, minlength=len(ids)).tolist()
    kept = sorted((-c, t) for t, c in zip(ids, counts) if c >= min_count)
    if not kept:
        raise InputError(
            f"empty vocabulary: no token reached min_count={min_count}"
        )
    vocab = Vocabulary(
        index={t: i for i, (_, t) in enumerate(kept)}, min_count=min_count
    )
    columns = np.array([vocab.index.get(t, -1) for t in ids], dtype=np.intc)
    return vocab, columns[flat], np.concatenate(ends)


def build_vocab(token_lists, min_count: int = 1) -> Vocabulary:
    """Vocabulary of tokens seen at least min_count times.

    Indices are assigned by descending frequency, ties broken
    lexicographically, so the mapping is deterministic.
    """
    check_min_count(min_count)  # before any token is read
    return _count_vocab([_first_seen_ids(token_lists)], min_count)[0]


def vectorize_bow(tokens, vocab: Vocabulary) -> list[tuple[int, int]]:
    """Sorted (index, count) pairs of the in-vocabulary tokens;
    out-of-vocabulary tokens are dropped. One text's row as
    ``csr_from_columns`` builds it, counted in Python."""
    counts: dict[int, int] = {}
    for token in tokens:
        idx = vocab.index.get(token)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    return sorted(counts.items())


class CsrMatrix:
    """Compressed sparse row matrix of float features.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``; ``rows`` is the row of each
    nonzero, so both products are one ``np.bincount``. (``np.add.reduceat``
    would give an empty row the value of the next nonzero.) The structure
    and the finiteness of ``data`` are checked once, here, so products do
    not check again. Memory is O(nnz), not O(rows x columns).
    """

    # ndarray @ CsrMatrix must defer to __rmatmul__, not broadcast over it
    __array_ufunc__ = None

    def __init__(self, indptr, indices, data, n_cols: int):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        row_lengths = np.diff(self.indptr)
        if (
            self.indptr.ndim != 1
            or self.indptr.size == 0
            or self.indptr[0] != 0
            or np.any(row_lengths < 0)
            or self.indices.shape != (self.indptr[-1],)
            or self.data.shape != self.indices.shape
        ):
            raise InputError("malformed CSR structure")
        if self.indices.size and not (
            0 <= self.indices.min() and self.indices.max() < n_cols
        ):
            raise InputError("column index out of range")
        if not np.all(np.isfinite(self.data)):
            raise InputError("features contain non-finite values")
        self.shape = (row_lengths.size, int(n_cols))
        self.rows = np.repeat(np.arange(row_lengths.size), row_lengths)

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.indptr, self.indices, self.data, self.rows))

    def __matmul__(self, w) -> np.ndarray:
        """x @ w: one value per row."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.shape[1],):
            raise InputError(f"cannot multiply {self.shape} matrix by {w.shape} vector")
        return np.bincount(
            self.rows, weights=self.data * w[self.indices], minlength=self.shape[0]
        )

    def __rmatmul__(self, r) -> np.ndarray:
        """r @ x (that is, x.T @ r): one value per column."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.shape[0],):
            raise InputError(f"cannot multiply {r.shape} vector by {self.shape} matrix")
        return np.bincount(
            self.indices, weights=self.data * r[self.rows], minlength=self.shape[1]
        )


# rows per block when csr_from_columns turns column ids into CSR rows
ROWS_PER_BLOCK = 1024


def csr_from_columns(columns, ends, size: int) -> CsrMatrix:
    """The bag-of-words CSR matrix of token column ids: ``columns`` holds
    every token's vocabulary column in order (-1 for one out of the
    vocabulary) and ``ends`` the end offset of each row in it. Each row's
    nonzeros are its distinct columns in ascending order with their counts,
    as ``vectorize_bow`` gives them."""
    columns, ends = np.asarray(columns), np.asarray(ends)
    # room for every kept token; a row that repeats a token leaves the
    # tail unused
    indices = np.empty(np.count_nonzero(columns >= 0), dtype=np.intp)
    data = np.empty(indices.size)
    indptr = np.zeros(ends.size + 1, dtype=np.intp)
    nnz = 0
    # rows go in blocks, so the temporary keys stay small
    for lo in range(0, ends.size, ROWS_PER_BLOCK):
        block_ends = ends[lo : lo + ROWS_PER_BLOCK]
        first = ends[lo - 1] if lo else 0
        block = columns[first : block_ends[-1]]
        # one key row * size + column per token, dropped tokens left out;
        # the sorted unique keys are each row's sorted (column, count) pairs
        keys = np.repeat(
            np.arange(block_ends.size) * size, np.diff(block_ends, prepend=first)
        )
        keys += block
        keys, counts = np.unique(keys[block >= 0], return_counts=True)
        indptr[lo + 1 : lo + 1 + block_ends.size] = nnz + np.searchsorted(
            keys, np.arange(1, block_ends.size + 1) * size
        )
        indices[nnz : nnz + keys.size] = keys % size
        data[nnz : nnz + keys.size] = counts
        nnz += keys.size
    return CsrMatrix(indptr, indices[:nnz], data[:nnz], size)


def bow_matrix(token_lists, vocab: Vocabulary) -> CsrMatrix:
    """The bag-of-words CSR matrix of token lists, one row per list: the
    vocabulary column of each token (-1 out of the vocabulary) goes to one
    flat typed array and each list's end offset to another, so a row is
    no Python object until ``csr_from_columns`` builds them all."""
    columns, ends = array("q"), array("q")
    for tokens in token_lists:
        columns.extend(map(vocab.index.get, tokens, repeat(-1)))
        ends.append(len(columns))
    return csr_from_columns(columns, ends, vocab.size)


class BagOfWordsVectorizer:
    """fit/transform wrapper over tokenize + build_vocab + bow_matrix.

    ``fit_transform`` tokenizes each text once: it counts token ids, ranks
    the vocabulary, then maps the ids to columns, as scikit-learn's
    ``CountVectorizer`` does; its matrix equals ``fit`` then ``transform``.
    It is the one-part case of ``fit_transform_ids``, which takes a corpus
    already counted in parts.
    """

    def __init__(self, min_count: int = 2):
        self.min_count = min_count

    def fit(self, texts):
        self.vocabulary_ = build_vocab(map(tokenize, texts), self.min_count)
        return self

    def transform(self, texts) -> CsrMatrix:
        check_fitted(self, "vocabulary_")
        return bow_matrix(map(tokenize, texts), self.vocabulary_)

    def fit_transform(self, texts) -> CsrMatrix:
        check_min_count(self.min_count)  # before any text is read
        return self.fit_transform_ids([token_ids(texts)])

    def fit_transform_ids(self, parts) -> CsrMatrix:
        """``fit_transform`` of the texts that ``token_ids`` counted into
        ``parts``, one row per text, in order."""
        self.vocabulary_, columns, ends = _count_vocab(parts, self.min_count)
        return csr_from_columns(columns, ends, self.vocabulary_.size)
