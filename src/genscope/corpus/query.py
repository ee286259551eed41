"""Parser for the boolean search-query grammar.

A query is one line of tokens. A token is ``(``, ``)`` or a word, a
maximal run of characters that are neither whitespace nor parentheses:

    query := "(" term (OR term)* ")" tail*
    term  := keyword | "(" word word+ ")"
    tail  := lang:TAG | directive | -directive

    (trans OR cis OR (white men)) -is:retweet lang:en

OR, ``lang:`` and the directives (``DIRECTIVES``) match in any case. A
keyword is any word but OR; a phrase word may be OR. A query has at most
one ``lang:`` tag, and it is not empty. Terms are lowercased, and a term
repeated is kept once, where it first appears. Rendering a parsed query
and parsing it again is a fixed point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import Lines, QuerySyntaxError

DIRECTIVES = ("has:links", "has:mentions", "is:retweet", "is:reply", "is:nullcast")

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")


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


def parse_query(text: str) -> QueryAst:
    """Parse one query line; raises QuerySyntaxError with a byte offset."""

    def error(message: str, pos: int) -> QuerySyntaxError:
        return QuerySyntaxError(message, len(text[:pos].encode("utf-8")))

    if "\n" in text.strip():  # the first newline after the leading whitespace
        raise error("query must be a single line", text.index("\n", len(text) - len(text.lstrip())))
    found = list(_TOKEN_RE.finditer(text))
    # the tokens and their starts; an empty token marks the end of the text
    words = [m.group() for m in found] + [""]
    starts = [m.start() for m in found] + [len(text)]
    if words[0] != "(":
        raise error("query must start with '('", starts[0])
    disjuncts: list[tuple[str, ...]] = []
    i = 1
    while True:  # a term, then OR or the closing ')'
        if not words[i]:
            raise error("unbalanced '('", starts[0])
        if words[i] == ")" or words[i].upper() == "OR":
            raise error("empty disjunct", starts[i])
        if words[i] == "(":  # a phrase: the words up to the next parenthesis
            end = next(j for j in range(i + 1, len(words)) if words[j] in ("(", ")", ""))
            if words[end] == "(":
                raise error("nested '(' inside phrase", starts[end])
            if not words[end]:
                raise error("unbalanced '('", starts[i])
            if end - i < 3:
                raise error("phrase needs at least 2 tokens", starts[i])
            disjuncts.append(tuple(word.lower() for word in words[i + 1:end]))
            i = end
        else:
            disjuncts.append((words[i].lower(),))
        i += 1
        if words[i] == ")":
            break
        if not words[i]:
            raise error("unbalanced '('", starts[0])
        if words[i].upper() != "OR":
            raise error("expected OR between terms", starts[i])
        i += 1

    operators: list[Directive] = []
    lang: str | None = None
    for word, start in zip(words[i + 1:-1], starts[i + 1:]):  # directives and a lang tag
        lowered = word.lower()
        if word in "()":
            raise error("unexpected parenthesis after query body", start)
        if lowered.startswith("lang:"):
            if lang is not None:
                raise error("duplicate lang tag", start)
            lang = lowered[len("lang:"):]
            if not lang:
                raise error("empty lang tag", start)
        else:
            name = lowered.removeprefix("-")
            if name not in DIRECTIVES:
                raise error(f"unknown directive {word!r}", start)
            operators.append(Directive(name, negated=name != lowered))
    return QueryAst(tuple(dict.fromkeys(disjuncts)), tuple(operators), lang)


def load_query(path) -> QueryAst:
    """The query in file ``path``; a syntax error names the file and the
    query's line, with the byte offset into the query."""
    text = Lines(path).text()
    try:
        return parse_query(text.strip())
    except QuerySyntaxError as exc:
        line = text[: len(text) - len(text.lstrip())].count("\n") + 1
        raise QuerySyntaxError(f"{path}:{line}: {exc.message}", exc.offset) from None
