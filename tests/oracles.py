"""Independent reference oracles used by the test suite.

Everything here is deliberately written from first principles, separate
from the library code paths it checks:

* a high-precision regularized incomplete gamma (Decimal power series),
* brute-force pair enumeration for Mann-Whitney U and ROC AUC,
* central finite differences for gradient checks,
* the character-by-character lexers that ``tokenize`` and ``normalize``
  replaced with one compiled regex.

Keep this module free of imports from ``genscope`` so the oracles cannot
accidentally share code with the implementations under test.
"""

from __future__ import annotations

import re
from decimal import Decimal, getcontext

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
