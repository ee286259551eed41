"""Parser for the boolean search-query grammar.

A query is one line: a parenthesized OR-disjunction of keywords and
parenthesized multi-word phrases, followed by optional filter directives
(each negatable with a leading ``-``) and an optional ``lang:`` tag:

    (trans OR cis OR (white men)) -is:retweet lang:en

Terms are normalized to lowercase; rendering a parsed query and parsing
it again is a fixed point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import QuerySyntaxError, naming_decode_errors

DIRECTIVES = ("has:links", "has:mentions", "is:retweet", "is:reply", "is:nullcast")

_WORD_RE = re.compile(r"[^\s()]+")


@dataclass(frozen=True)
class Directive:
    name: str  # one of DIRECTIVES
    negated: bool = False

    def render(self) -> str:
        return ("-" if self.negated else "") + self.name


@dataclass(frozen=True)
class QueryAst:
    """Disjuncts are token tuples: length 1 for keywords, >= 2 for phrases."""

    disjuncts: tuple[tuple[str, ...], ...]
    operators: tuple[Directive, ...] = ()
    lang: str | None = None

    def term_texts(self) -> list[str]:
        return [" ".join(term) for term in self.disjuncts]

    def render(self) -> str:
        parts = []
        for term in self.disjuncts:
            parts.append(term[0] if len(term) == 1 else "(" + " ".join(term) + ")")
        out = "(" + " OR ".join(parts) + ")"
        for op in self.operators:
            out += " " + op.render()
        if self.lang:
            out += f" lang:{self.lang}"
        return out


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def parse_query(text: str) -> QueryAst:
    """Parse one query line; raises QuerySyntaxError with a byte offset."""
    if "\n" in text.strip():
        raise QuerySyntaxError("query must be a single line", _byte_offset(text, text.index("\n")))
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos >= n or text[pos] != "(":
        raise QuerySyntaxError("query must start with '('", _byte_offset(text, pos))
    open_pos = pos
    pos += 1

    disjuncts: list[tuple[str, ...]] = []
    expecting_term = True

    while True:
        pos = skip_ws(pos)
        if pos >= n:
            raise QuerySyntaxError("unbalanced '('", _byte_offset(text, open_pos))
        ch = text[pos]
        if ch == ")":
            if expecting_term:
                raise QuerySyntaxError("empty disjunct", _byte_offset(text, pos))
            pos += 1
            break
        if not expecting_term:
            m = _WORD_RE.match(text, pos)
            if m is None or m.group(0).upper() != "OR":
                raise QuerySyntaxError(
                    "expected OR between terms", _byte_offset(text, pos)
                )
            expecting_term = True
            pos = m.end()
            continue
        if ch == "(":
            # parenthesized phrase
            phrase_open = pos
            pos += 1
            phrase: list[str] = []
            while True:
                pos = skip_ws(pos)
                if pos >= n:
                    raise QuerySyntaxError("unbalanced '('", _byte_offset(text, phrase_open))
                if text[pos] == ")":
                    pos += 1
                    break
                if text[pos] == "(":
                    raise QuerySyntaxError("nested '(' inside phrase", _byte_offset(text, pos))
                m = _WORD_RE.match(text, pos)
                phrase.append(m.group(0).lower())
                pos = m.end()
            if len(phrase) < 2:
                raise QuerySyntaxError(
                    "phrase needs at least 2 tokens", _byte_offset(text, phrase_open)
                )
            disjuncts.append(tuple(phrase))
            expecting_term = False
            continue
        m = _WORD_RE.match(text, pos)
        word = m.group(0)
        if word.upper() == "OR":
            raise QuerySyntaxError("empty disjunct", _byte_offset(text, pos))
        disjuncts.append((word.lower(),))
        expecting_term = False
        pos = m.end()

    # tail: directives and an optional lang tag
    operators: list[Directive] = []
    lang: str | None = None
    while True:
        pos = skip_ws(pos)
        if pos >= n:
            break
        if text[pos] in "()":
            raise QuerySyntaxError("unexpected parenthesis after query body", _byte_offset(text, pos))
        m = _WORD_RE.match(text, pos)
        word = m.group(0)
        lowered = word.lower()
        if lowered.startswith("lang:"):
            if lang is not None:
                raise QuerySyntaxError("duplicate lang tag", _byte_offset(text, pos))
            lang = lowered[len("lang:"):]
            if not lang:
                raise QuerySyntaxError("empty lang tag", _byte_offset(text, pos))
        else:
            negated = lowered.startswith("-")
            name = lowered[1:] if negated else lowered
            if name not in DIRECTIVES:
                raise QuerySyntaxError(
                    f"unknown directive {word!r}", _byte_offset(text, pos)
                )
            operators.append(Directive(name=name, negated=negated))
        pos = m.end()

    # duplicate disjuncts collapse on render/parse; keep first occurrence
    seen = set()
    unique = []
    for term in disjuncts:
        if term not in seen:
            seen.add(term)
            unique.append(term)
    return QueryAst(disjuncts=tuple(unique), operators=tuple(operators), lang=lang)


def load_query(path) -> QueryAst:
    """The query in file ``path``; a syntax error names the file and the
    query's line, with the byte offset into the query."""
    with naming_decode_errors(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_query(text.strip())
    except QuerySyntaxError as exc:
        line = text[: len(text) - len(text.lstrip())].count("\n") + 1
        raise QuerySyntaxError(f"{path}:{line}: {exc.message}", exc.offset) from None
