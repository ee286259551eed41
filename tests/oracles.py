"""Independent reference oracles used by the test suite.

Everything here is deliberately written from first principles, separate
from the library code paths it checks:

* a high-precision regularized incomplete gamma (Decimal power series),
* brute-force pair enumeration for Mann-Whitney U and ROC AUC,
* central finite differences for gradient checks,
* the character-by-character lexers that ``tokenize`` and ``normalize``
  replaced with one compiled regex,
* the rule annotator's per-occurrence token predicates that its
  per-word-type flag table replaced,
* the per-value midrank loop and the ``bisect`` score histogram that
  one ``np.unique`` and one ``np.searchsorted`` replaced,
* the two-pass bag-of-words vectorizer (count a vocabulary, then count
  each text's columns) that one counting pass replaced, and the per-row
  CSR stacking that ``csr_from_columns`` is checked against, and
* the external-label loader that kept a dict of every label, which the
  id table of ``load_external_labels`` replaced.

Keep this module free of imports from ``genscope`` so the oracles cannot
accidentally share code with the implementations under test.
"""

from __future__ import annotations

import bisect
import re
from decimal import Decimal, getcontext
from types import SimpleNamespace

import numpy as np

# 85 digits of pi; enough for 60-digit working precision below.
_PI = Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592307816406286208998628"
)

getcontext().prec = 60


def _gamma_half_integer(two_a: int) -> Decimal:
    """Gamma(a) for a = two_a/2 with two_a a positive integer."""
    if two_a <= 0:
        raise ValueError("need a > 0")
    if two_a % 2 == 0:
        # integer a: (a-1)!
        value = Decimal(1)
        for k in range(1, two_a // 2):
            value *= k
        return value
    # half-integer a: Gamma(1/2) = sqrt(pi), then recurrence
    value = _PI.sqrt()
    a = Decimal(1) / 2
    while a < Decimal(two_a) / 2:
        value *= a
        a += 1
    return value


def gamma_q_oracle(two_a: int, x: float, terms: int = 200_000) -> Decimal:
    """Regularized upper incomplete gamma Q(a, x), a = two_a/2.

    Uses the absolutely convergent lower series
    P(a, x) = x^a e^-x / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    in 60-digit Decimal arithmetic and returns Q = 1 - P.
    """
    a = Decimal(two_a) / 2
    xd = Decimal(repr(x))
    if xd < 0:
        raise ValueError("x must be >= 0")
    if xd == 0:
        return Decimal(1)

    term = Decimal(1) / a
    total = term
    denom = a
    for n in range(1, terms):
        denom += 1
        term *= xd / denom
        total += term
        if term < Decimal("1e-55") * total:
            break
    else:
        raise RuntimeError("series did not converge; raise `terms`")

    log_front = a * xd.ln() - xd - _gamma_half_integer(two_a).ln()
    p = (log_front + total.ln()).exp()
    q = 1 - p
    if q < 0:
        q = Decimal(0)
    return q


def normal_sf_oracle(z: float) -> Decimal:
    """Upper-tail standard normal probability via Q(1/2, z^2/2)."""
    if z < 0:
        return 1 - normal_sf_oracle(-z)
    if z == 0:
        return Decimal("0.5")
    return gamma_q_oracle(1, z * z / 2.0) / 2


def mann_whitney_u_bruteforce(sample_a, sample_b) -> float:
    """U1 counted pair by pair: wins for A plus half-credit for ties."""
    u = 0.0
    for a in sample_a:
        for b in sample_b:
            if a > b:
                u += 1.0
            elif a == b:
                u += 0.5
    return u


def auc_bruteforce(scores, labels) -> float:
    """P(score of random positive > random negative) + half ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("need at least one positive and one negative")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def central_difference(f, theta, step=1e-5):
    """Central finite-difference gradient of scalar f at vector theta."""
    grad = []
    theta = list(theta)
    for i in range(len(theta)):
        hi = list(theta)
        lo = list(theta)
        hi[i] += step
        lo[i] -= step
        grad.append((f(hi) - f(lo)) / (2.0 * step))
    return grad


_URL_RE = re.compile(r"https?://\S+|www\.\S+", re.IGNORECASE)
_EMOJI_RE = re.compile(
    "["
    "\U0001F000-\U0001FAFF"
    "☀-➿"
    "⬀-⯿"
    "■-◿"
    "\U0001F1E6-\U0001F1FF"
    "]"
)
_WORD_RE = re.compile(r"[^\W_]+(?:['’][^\W_]+)*", re.UNICODE)
_BLANK_RE = re.compile(r"_{2,}")


def tokenize_oracle(text):
    """Word tokens, URL and EMOJI, by trying each pattern at each position."""
    tokens = []
    pos = 0
    text = text or ""
    while pos < len(text):
        url = _URL_RE.match(text, pos)
        if url:
            tokens.append("URL")
            pos = url.end()
            continue
        if _EMOJI_RE.match(text, pos):
            tokens.append("EMOJI")
            pos += 1
            continue
        word = _WORD_RE.match(text, pos)
        if word:
            tokens.append(word.group(0).lower().replace("’", "'"))
            pos = word.end()
            continue
        pos += 1
    return tokens


def normalize_oracle(text, abbreviations):
    """Clauses of ``(norm, kind, start, end)`` tuples, one character at a time."""
    clauses = []
    current = []

    def break_clause():
        nonlocal current
        if current:
            clauses.append(current)
            current = []

    pos = 0
    n = len(text or "")
    while pos < n:
        ch = text[pos]
        url = _URL_RE.match(text, pos)
        if url:
            current.append(("URL", "URL", pos, url.end()))
            pos = url.end()
            continue
        if _EMOJI_RE.match(text, pos):
            current.append(("EMOJI", "EMOJI", pos, pos + 1))
            pos += 1
            continue
        blank = _BLANK_RE.match(text, pos)
        if blank:
            current.append(("BLANK", "BLANK", pos, blank.end()))
            pos = blank.end()
            continue
        word = _WORD_RE.match(text, pos)
        if word:
            surface = word.group(0).lower().replace("’", "'")
            for part in abbreviations.get(surface, surface).split():
                current.append((part, "word", pos, word.end()))
            pos = word.end()
            continue
        if ch in ".!?;\n":
            if ch == "?" and current:
                current.append(("?", "?", pos, pos + 1))
            break_clause()
            pos += 1
            continue
        if ch in "-—–":
            run_end = pos
            while run_end < n and text[run_end] in "-—–":
                run_end += 1
            before_space = pos == 0 or text[pos - 1].isspace()
            after_space = run_end >= n or text[run_end].isspace()
            if ch != "-" or (before_space and after_space):
                break_clause()
            pos = run_end
            continue
        if ch in ":=,":
            current.append((ch, ch, pos, pos + 1))
            pos += 1
            continue
        if ch in '"“”\'':
            current.append(('"', '"', pos, pos + 1))
            pos += 1
            continue
        pos += 1
    break_clause()
    return clauses


# The rule annotator's token predicates, as it computed them on every
# occurrence before it classified each word type once. ``w`` is any object
# with these word sets as attributes: the lexicon lists ``verbs``,
# ``irregular_pasts``, ``quantifiers``, ``interjections``, ``group_nouns``
# and ``group_modifiers``, and the closed classes ``present_copulas``,
# ``contracted_copulas``, ``do_support``, ``past_aux``, ``hedge_modals``,
# ``bare_modals``, ``non_gerund_ing``, ``pronouns``, ``determiners``,
# ``prepositions``, ``conjunctions``, ``skip_joiners``, ``adverbs`` and
# ``negations``.


def is_present_verb_oracle(t, w):
    if t in w.present_copulas or t in w.contracted_copulas or t in w.do_support:
        return True
    if t.endswith("'re") or t.endswith("'ve") or t.endswith("'ll"):
        return True
    if t in w.verbs:
        return True
    if t.endswith("ies") and t[:-3] + "y" in w.verbs:
        return True
    if t.endswith("es") and t[:-2] in w.verbs:
        return True
    if t.endswith("s") and t[:-1] in w.verbs:
        return True
    if len(t) > 5 and t.endswith(("ize", "izes", "ise", "ify", "ifies")):
        return True
    return False


def is_past_verb_oracle(t, w):
    if t in w.past_aux:
        return True
    if t in w.irregular_pasts and t not in w.verbs:
        return True
    return len(t) > 3 and t.endswith("ed") and t not in w.verbs


def is_modal_oracle(t, w):
    return t in w.hedge_modals or t in w.bare_modals


def is_gerund_oracle(t, w):
    return len(t) >= 5 and t.endswith("ing") and t not in w.non_gerund_ing


def is_quantifier_oracle(t, w):
    return t in w.quantifiers or t.isdigit()


def _is_laughter(t):
    if len(t) < 3:
        return False
    letters = set(t)
    return letters <= {"a", "h"} or letters <= {"l", "o"} or (
        t.startswith("lma") and letters <= {"l", "m", "a", "o"}
    )


def is_interjection_oracle(t, w):
    return t in w.interjections or _is_laughter(t)


def is_group_noun_oracle(t, w):
    return t in w.group_nouns or (t.endswith("'s") and t[:-2] + "s" in w.group_nouns)


def is_group_modifier_oracle(t, w):
    return t in w.group_modifiers


def is_absorbable_oracle(t, w):
    if t in w.group_modifiers:
        return True
    if (
        t in w.pronouns
        or t in w.determiners
        or t in w.prepositions
        or t in w.conjunctions
        or t in w.skip_joiners
        or t in w.adverbs
        or t in w.negations
        or t in w.quantifiers
        or t in w.interjections
        or t == "to"
    ):
        return False
    finite = is_present_verb_oracle(t, w) or is_past_verb_oracle(t, w) or is_modal_oracle(t, w)
    return not (finite or is_gerund_oracle(t, w))


# Ranks and histograms, as computed one value at a time.

def midranks_oracle(values):
    """Midranks 1..N and the tie term sum(t^3 - t) over tie groups of size
    t, by walking the stably sorted values one at a time: positions i..j
    (0-based) of one tie group share the midrank (i + j) / 2 + 1."""
    arr = np.asarray(values, dtype=float).ravel()
    order = np.argsort(arr, kind="stable")
    sorted_vals = arr[order]
    ranks = np.empty(arr.size, dtype=float)
    ties = 0
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        t = j - i + 1
        ties += t**3 - t
        i = j + 1
    return ranks, ties


def histogram_oracle(scores, bin_width):
    """(bin left edge, count) rows over [0, 1], each score placed by
    ``bisect`` against the rounded edges; the last bin includes 1.0."""
    n_bins = int(round(1.0 / bin_width))
    edges = [round(i * bin_width, 10) for i in range(n_bins)]
    counts = [0] * n_bins
    for s in scores:
        counts[max(bisect.bisect_right(edges, s) - 1, 0)] += 1
    return [[edge, count] for edge, count in zip(edges, counts)]


# Bag-of-words features, as counted in two passes over the token lists.

def two_pass_bow_oracle(token_lists, min_count):
    """The vocabulary {token: column} of tokens seen at least min_count
    times, ranked by descending count then token, and the CSR lists
    (indptr, indices, data) of each list's sorted (column, count) pairs;
    None for both when no token reaches min_count."""
    token_lists = [list(tokens) for tokens in token_lists]
    counts = {}
    for tokens in token_lists:
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
    kept = sorted((-c, t) for t, c in counts.items() if c >= min_count)
    if not kept:
        return None, None
    vocab = {t: i for i, (_, t) in enumerate(kept)}
    indptr, indices, data = [0], [], []
    for tokens in token_lists:
        row = {}
        for token in tokens:
            if token in vocab:
                row[vocab[token]] = row.get(vocab[token], 0) + 1
        for column, count in sorted(row.items()):
            indices.append(column)
            data.append(float(count))
        indptr.append(len(indices))
    return vocab, (indptr, indices, data)


def stack_features_oracle(rows, n_cols):
    """The CSR matrix of rows of (column, count) pairs, as the arrays a
    ``CsrMatrix`` keeps, with their dtypes: ``indptr``, ``indices``,
    ``data`` and ``rows`` (each nonzero's row), and its ``shape``."""
    indptr, indices, data, row_of = [0], [], [], []
    for row, pairs in enumerate(rows):
        for column, count in pairs:
            indices.append(column)
            data.append(float(count))
            row_of.append(row)
        indptr.append(len(indices))
    return SimpleNamespace(
        indptr=np.array(indptr, dtype=np.intp),
        indices=np.array(indices, dtype=np.intp),
        data=np.array(data, dtype=float),
        rows=np.array(row_of, dtype=np.intp),
        shape=(len(indptr) - 1, n_cols),
    )


def external_labels_oracle(numbered_lines, parse):
    """The external labels of ``(line number, line)`` pairs, a dict of id
    to sentiment in file order, and the rejected ``(line number, reason)``
    pairs in line order; ``parse`` turns a line into its JSON value or
    raises a ValueError that reads as a reason."""
    labels, rejected = {}, []
    for number, line in numbered_lines:
        try:
            obj = parse(line)
        except ValueError as exc:
            rejected.append((number, str(exc)))
            continue
        if not isinstance(obj, dict):
            rejected.append((number, "record must be a JSON object"))
            continue
        tweet_id, sentiment = obj.get("id"), obj.get("sentiment")
        if not isinstance(tweet_id, str) or not tweet_id:
            rejected.append((number, "missing id"))
        elif sentiment not in ("negative", "neutral", "positive"):
            rejected.append((number, f"unknown sentiment {sentiment!r}"))
        elif tweet_id in labels:
            rejected.append((number, "duplicate id"))
        else:
            labels[tweet_id] = sentiment
    return labels, rejected
