import hashlib
import random

import pytest

from genscope.corpus import Directive, parse_query
from genscope.errors import QuerySyntaxError


class TestParse:
    def test_keywords_phrase_directive_lang(self):
        ast = parse_query("(trans OR cis OR (white men)) -is:retweet lang:en")
        assert ast.disjuncts == (("trans",), ("cis",), ("white", "men"))
        assert ast.operators == (Directive("is:retweet", negated=True),)
        assert ast.lang == "en"

    def test_minimal_query(self):
        ast = parse_query("(democrats)")
        assert ast.disjuncts == (("democrats",),)
        assert ast.operators == ()
        assert ast.lang is None

    def test_full_directive_tail(self):
        ast = parse_query(
            "(a OR b) -has:links -has:mentions -is:retweet -is:reply -is:nullcast lang:en"
        )
        assert len(ast.operators) == 5
        assert all(op.negated for op in ast.operators)

    def test_positive_directive(self):
        ast = parse_query("(a OR b) is:reply")
        assert ast.operators == (Directive("is:reply", negated=False),)

    def test_terms_lowercased(self):
        ast = parse_query("(Trans OR (White MEN))")
        assert ast.disjuncts == (("trans",), ("white", "men"))

    def test_duplicate_terms_collapse(self):
        ast = parse_query("(a OR b OR a)")
        assert ast.disjuncts == (("a",), ("b",))


class TestErrors:
    def test_unbalanced_paren_offset(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("(a OR (b c")
        assert exc.value.offset == 6

    def test_unbalanced_outer_paren(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("(a OR b")
        assert exc.value.offset == 0

    def test_empty_disjunct(self):
        with pytest.raises(QuerySyntaxError, match="empty disjunct"):
            parse_query("(a OR )")
        with pytest.raises(QuerySyntaxError, match="empty disjunct"):
            parse_query("()")

    def test_unknown_directive(self):
        with pytest.raises(QuerySyntaxError, match="unknown directive"):
            parse_query("(a) -is:quote")

    def test_missing_or_between_terms(self):
        with pytest.raises(QuerySyntaxError, match="expected OR"):
            parse_query("(a b)")

    def test_single_token_phrase(self):
        with pytest.raises(QuerySyntaxError, match="at least 2"):
            parse_query("((white))")

    def test_must_start_with_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("democrats")


class TestErrorTable:
    """Each place the parser raises, with its message and byte offset. A
    character before the error that is more than one byte long (``é``,
    U+3000, U+00A0, an emoji) makes the byte offset differ from the
    character offset."""

    @pytest.mark.parametrize(
        ("query", "message", "offset"),
        [
            ("(a OR\nb)", "query must be a single line", 5),
            ("\n(a\nb)", "query must be a single line", 3),
            ("(\u00e9 OR\nb)", "query must be a single line", 6),
            ("democrats", "query must start with '('", 0),
            ("", "query must start with '('", 0),
            ("\u3000\u00e9", "query must start with '('", 3),
            ("(a OR b", "unbalanced '('", 0),
            (" (\u00e9 OR", "unbalanced '('", 1),
            ("(\u00e9 OR (b c", "unbalanced '('", 7),
            ("(\u00e9 OR )", "empty disjunct", 7),
            ("()", "empty disjunct", 1),
            ("(OR a)", "empty disjunct", 1),
            ("(a OR or b)", "empty disjunct", 6),
            ("(a b)", "expected OR between terms", 3),
            ("(\u00e9 (b c))", "expected OR between terms", 4),
            ("((a (b)))", "nested '(' inside phrase", 4),
            ("((white))", "phrase needs at least 2 tokens", 1),
            ("(\u00e9 OR ())", "phrase needs at least 2 tokens", 7),
            ("(a) )", "unexpected parenthesis after query body", 4),
            ("(a) lang:en (", "unexpected parenthesis after query body", 12),
            ("(a) -is:quote", "unknown directive '-is:quote'", 4),
            ("(\U0001f642) -x", "unknown directive '-x'", 7),
            ("(a) lang:en LANG:fr", "duplicate lang tag", 12),
            ("(\u00e9)\u00a0lang:en lang:", "duplicate lang tag", 14),
            ("(a) lang:", "empty lang tag", 4),
            ("(a)lang:", "empty lang tag", 3),
        ],
    )
    def test_message_and_byte_offset(self, query, message, offset):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query(query)
        assert (exc.value.message, exc.value.offset) == (message, offset)


class TestRandomQueries:
    """The parse of seeded random queries, pinned by one hash over a line
    per query: the rendered query, or the error's ``message@offset``."""

    # the sha256 of ``outcomes()``. A change that means to move a parse or
    # an error updates it.
    OUTCOMES_SHA256 = "3eeea75e9893f46852376a55675826ed2558fadbe9bbf1c746623e7de55c62d9"

    WORDS = ["a", "Trans", "\u00e9t\u00e9", "\U0001f642"]
    TAIL = ["lang:en", "-is:retweet", "has:links"]
    ODD = ["OR", "or", "(", ")", "lang:", "-x"]
    SPACES = ["", "\t", "\r", "\n", "\x0b", "\x0c", "\x1c", "\u00a0", "\u3000"]

    @classmethod
    def query(cls, rng):
        """A query built by the grammar, then up to two of its tokens
        dropped, replaced or followed by another, each token after a
        space or, one time in ten, after other whitespace or none."""
        tokens = ["("]
        for i in range(rng.randint(1, 4)):
            if i:
                tokens.append(rng.choice(["OR", "or"]))
            if rng.random() < 0.3:
                tokens += ["(", *rng.choices(cls.WORDS + ["OR"], k=rng.randint(1, 3)), ")"]
            else:
                tokens.append(rng.choice(cls.WORDS))
        tokens += [")", *rng.choices(cls.TAIL, k=rng.randint(0, 3))]
        for _ in range(rng.choice([0, 0, 1, 2])):
            i = rng.randrange(len(tokens) + 1)
            new = rng.choice(cls.WORDS + cls.TAIL + cls.ODD)
            tokens[i:i + rng.randint(0, 1)] = rng.choice([[], [new]])
        return "".join(
            (" " if rng.random() < 0.9 else rng.choice(cls.SPACES)) + token for token in tokens
        )

    @classmethod
    def outcomes(cls):
        rng = random.Random(25)
        lines = []
        for _ in range(20_000):
            try:
                lines.append(parse_query(cls.query(rng)).render())
            except QuerySyntaxError as exc:
                lines.append(f"{exc.message}@{exc.offset}")
        return lines

    def test_outcomes_match_hash(self):
        digest = hashlib.sha256("\n".join(self.outcomes()).encode("utf-8")).hexdigest()
        assert digest == self.OUTCOMES_SHA256

    def test_every_message_and_a_parse_are_reached(self):
        outcomes = self.outcomes()
        messages = {line.rpartition("@")[0] for line in outcomes if "@" in line}
        messages = {m.split(" '")[0] if m.startswith("unknown") else m for m in messages}
        assert messages == {
            "query must be a single line", "query must start with '('", "unbalanced '('",
            "empty disjunct", "expected OR between terms", "nested '(' inside phrase",
            "phrase needs at least 2 tokens", "unexpected parenthesis after query body",
            "unknown directive", "duplicate lang tag", "empty lang tag",
        }
        assert sum("@" not in line for line in outcomes) > len(outcomes) // 4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "query",
        [
            "(trans OR cis OR (white men)) -is:retweet lang:en",
            "(democrats)",
            "(a OR (b c) OR d) -has:links is:reply lang:en-us",
        ],
    )
    def test_render_parse_fixed_point(self, query):
        once = parse_query(query)
        twice = parse_query(once.render())
        assert once == twice
        assert once.render() == twice.render()
