"""Rule-engine behavior: normalization, verdicts, screens, and properties."""

import hashlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genscope.annotator import (
    AnnotatorVerdict,
    RuleAnnotator,
    normalize,
)
from genscope.annotator import rules
from genscope.annotator.lexicons import RuleLexicons
from genscope.annotator.normalize import WORD, WordTable, token_spans
from genscope.errors import InputError
from genscope.synth import generate_corpus

GOLD = Path(__file__).parent / "data" / "annotator_gold"


def gold_lines(name):
    return [
        line
        for line in (GOLD / name).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


@pytest.fixture(scope="module")
def annotator():
    return RuleAnnotator()


def _decorate(text: str, seed: int) -> str:
    """``text`` with one to four tweet marks put in at places drawn from
    ``seed``: URLs, emoji, @mentions, #hashtags, dashes, quotes, ``?``,
    colons and commas."""
    rng = random.Random(seed)
    words = text.split()
    for _ in range(rng.randint(1, 4)):
        at = rng.randint(0, len(words))
        mark = rng.randrange(9)
        if mark == 0:
            words.insert(at, rng.choice(["https://t.co/x1", "HTTP://a.b/c?d=1", "www.x.com"]))
        elif mark == 1:
            words.insert(at, rng.choice(["😂", "🤔", "🔥🔥", "🙄"]))
        elif mark == 2:
            words.insert(at, f"@user{rng.randrange(100)}")
        elif mark == 3 and at < len(words):
            words[at] = "#" + words[at]
        elif mark == 3:
            words.insert(0, "#politics")
        elif mark == 4:
            words.insert(at, rng.choice(["-", "—", "--", "–"]))
        elif mark == 5 and at < len(words):
            words[at] = words[at] + rng.choice(["-", "—"]) + rng.choice(["ish", "like"])
        elif mark == 6:
            end = rng.randint(at, len(words))
            open_, close = rng.choice([('"', '"'), ("“", "”"), ("'", "'")])
            words[at:end] = [open_ + " ".join(words[at:end]) + close]
        elif mark == 7:
            words.insert(at, rng.choice(["?", "??", "what?"]))
        else:
            words.insert(at, rng.choice([":", ",", "=", "..."]))
    return " ".join(words)


class TestVerdictGolden:
    """Every verdict field, pinned over the gold corpora and over synthetic
    tweets with and without tweet marks put in."""

    # sha256 over one line per text: label, kind, exclusion reason, matched
    # rule and subject span. A change that means to move a verdict
    # updates it.
    GOLDEN_VERDICTS_SHA256 = "5ffb27da441f0b4bb0b9748da4ba4b14c8a8a2c9465d3d60058f84df824ba605"

    @staticmethod
    def texts():
        texts = [line for path in sorted(GOLD.iterdir()) for line in gold_lines(path.name)]
        synthetic = [r["text"] for r in generate_corpus(n=2000, seed=11)]
        texts += synthetic
        texts += [_decorate(text, i) for i, text in enumerate(synthetic)]
        return texts

    def test_verdicts_match_golden_hash(self, annotator):
        digest = hashlib.sha256()
        for text in self.texts():
            v = annotator.annotate(text)
            line = f"{v.label}\t{v.kind}\t{v.exclusion_reason}\t{v.matched_rule}\t{v.subject_span}\n"
            digest.update(line.encode())
        assert digest.hexdigest() == self.GOLDEN_VERDICTS_SHA256


def flat_norms(text, table=None):
    return [norm for clause in normalize(text, table)[1] for norm in clause.norms]


class TestNormalize:
    def test_abbreviations_and_blank(self, annotator):
        assert flat_norms("White ppl be like __", annotator.words) == [
            "white", "people", "be", "like", "BLANK"
        ]

    def test_emoji_class(self, annotator):
        assert flat_norms("Men in white coats 🤒", annotator.words) == [
            "men", "in", "white", "coats", "EMOJI"
        ]

    def test_clause_split_on_punctuation(self):
        _, clauses = normalize("Damn right! Liberals are loud.")
        assert len(clauses) == 2
        assert clauses[1].norms == ["liberals", "are", "loud"]

    def test_url_token(self):
        assert flat_norms("look https://t.co/x now") == ["look", "URL", "now"]

    def test_spans_point_into_source(self):
        text = "Old Liberals party"
        table = WordTable()
        clause = normalize(text, table)[1][0]
        start, end = token_spans(text, table)[clause.start + 1]
        assert text[start:end] == "Liberals"


class TestGoldCorpora:
    @pytest.mark.parametrize("text", gold_lines("generic_tweets.txt"))
    def test_generic_tweets(self, annotator, text):
        assert annotator.annotate(text).is_generic

    @pytest.mark.parametrize("text", gold_lines("excluded_tweets.txt"))
    def test_excluded_tweets(self, annotator, text):
        assert not annotator.annotate(text).is_generic

    def test_included_structures_hit_rate(self, annotator):
        lines = gold_lines("included_structures.txt")
        known_misses = set(gold_lines("known_misses.txt"))
        misses = [t for t in lines if not annotator.annotate(t).is_generic]
        assert len(lines) - len(misses) >= 0.9 * len(lines)
        assert set(misses) <= known_misses, f"unexpected misses: {misses}"


class TestVerdicts:
    @pytest.mark.parametrize(
        "text, kind",
        [
            ("Democrats glorify the killing of the unborn.", "bare"),
            ("Asians are more anti-Black than white people.", "bare"),
            ("Democrats the party of moochers", "elliptical"),
            ("Democrats Should Be Less Boring", "bare"),
            ("Liberals usually favor equality", "hedged"),
            ("Men can cook", "hedged"),
            ("Most people think that democrats lie", "framed"),
            ("White ppl be like __", "elliptical"),
            # a PP postmodifier must not hide the real predicate
            ("men in white coats are scary", "bare"),
            ("people from this city never agree on anything", "bare"),
        ],
    )
    def test_generic_kinds(self, annotator, text, kind):
        verdict = annotator.annotate(text)
        assert verdict.is_generic
        assert verdict.kind == kind

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("i hate white people so much", "no_feature_ascription"),
            ("If white racists people are afraid of becoming the minority", "conditional"),
            ("Most liberals favor equality", "quantified_subject"),
            ("Democrats blocked the bill", "past_tense_only"),
            ("trans kids, hold on.", "shoutout"),
            ("Will Trudeau's Liberals choose transparency or cover up Emergencies Act ...", "question"),
            ("Are democrats the problem?", "question"),
            ("hello world, nothing here", "no_group_subject"),
            ("The Conservatives are about whether", "no_feature_ascription"),
        ],
    )
    def test_exclusion_reasons(self, annotator, text, reason):
        verdict = annotator.annotate(text)
        assert not verdict.is_generic
        assert verdict.exclusion_reason == reason

    def test_subject_span_points_at_noun_phrase(self, annotator):
        text = "Damn right! Liberals are the real homophobes!"
        verdict = annotator.annotate(text)
        start, end = verdict.subject_span
        assert text[start:end] == "Liberals"

    def test_subject_span_needs_a_source(self):
        verdict = AnnotatorVerdict(label="generic", kind="bare", subject_tokens=(0, 0))
        with pytest.raises(InputError, match="source"):
            verdict.subject_span
        no_subject = AnnotatorVerdict(label="non_generic", exclusion_reason="question")
        assert no_subject.subject_span is None

    def test_empty_text_rejected(self, annotator):
        with pytest.raises(InputError):
            annotator.annotate("   ")


class TestProperties:
    def test_determinism(self, annotator):
        texts = gold_lines("generic_tweets.txt") + gold_lines("excluded_tweets.txt")
        for text in texts:
            a = annotator.annotate(text)
            b = annotator.annotate(text)
            assert (a.label, a.kind, a.exclusion_reason, a.matched_rule) == (
                b.label, b.kind, b.exclusion_reason, b.matched_rule
            )

    def test_exclusion_precedence_over_patterns(self, annotator):
        # a conditional opener wins even over a clear bare generic body
        verdict = annotator.annotate("If democrats glorify the killing, we lose")
        assert verdict.exclusion_reason == "conditional"
        verdict = annotator.annotate("Do democrats glorify the killing?")
        assert verdict.exclusion_reason == "question"

    def test_past_tense_minimal_pair(self, annotator):
        past = annotator.annotate("Democrats blocked the bill")
        present = annotator.annotate("Democrats block the bill")
        assert past.exclusion_reason == "past_tense_only"
        assert present.is_generic and present.kind == "bare"

    def test_quantifier_flip_on_bare_generics(self, annotator):
        texts = [
            "Democrats glorify the killing of the unborn.",
            "Black people are the best at everything.",
            "Men need extra special healthcare.",
        ]
        for text in texts:
            assert annotator.annotate(text).is_generic
            flipped = annotator.annotate("some " + text)
            assert not flipped.is_generic
            assert flipped.exclusion_reason == "quantified_subject"

    def test_verdict_shape_invariant(self, annotator):
        texts = (
            gold_lines("generic_tweets.txt")
            + gold_lines("excluded_tweets.txt")
            + gold_lines("included_structures.txt")
        )
        for text in texts:
            v = annotator.annotate(text)
            if v.is_generic:
                assert v.kind is not None and v.exclusion_reason is None
            else:
                assert v.kind is None and v.exclusion_reason is not None

    def test_verdict_invariant_enforced_at_construction(self):
        with pytest.raises(InputError):
            AnnotatorVerdict(label="generic", kind=None)
        with pytest.raises(InputError):
            AnnotatorVerdict(label="generic", kind="bare", exclusion_reason="question")
        with pytest.raises(InputError):
            AnnotatorVerdict(label="non_generic", exclusion_reason=None)


class TestRobustness:
    def test_any_nonempty_text_gets_a_verdict(self, annotator):
        import random

        rng = random.Random(77)
        pieces = [
            "democrats", "white", "people", "🤔", "😂", ":", "=", "__", '"',
            "'", "(", ")", "-", "—", "?", "!", ".", ",", "be", "like", "are",
            "blocked", "most", "if", "they", "URL", "https://t.co/x", "\n",
            "ALLCAPS", "mixedCase", "naïve", "中文", "99", "75%",
        ]
        for _ in range(300):
            text = " ".join(rng.choices(pieces, k=rng.randint(1, 25)))
            if not text.strip():
                continue
            verdict = annotator.annotate(text)
            assert verdict.label in ("generic", "non_generic")

    def test_long_text(self, annotator):
        text = "democrats are loud. " * 500
        assert annotator.annotate(text).is_generic

    def test_concurrent_annotation_matches_serial(self, annotator):
        from concurrent.futures import ThreadPoolExecutor

        texts = (
            gold_lines("generic_tweets.txt")
            + gold_lines("excluded_tweets.txt")
            + gold_lines("included_structures.txt")
        ) * 4
        serial = [annotator.annotate(t) for t in texts]
        # the threads share one annotator whose word table starts empty
        shared = RuleAnnotator(annotator.lexicons)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(shared.annotate, texts, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert {n: annotator.words.flags[n] for n in shared.words.flags} == shared.words.flags


class TestLexicons:
    def test_default_loads(self):
        lex = RuleLexicons.default()
        assert "people" in lex.group_nouns
        assert "usually" in lex.hedge_adverbs
        assert lex.abbreviations["ppl"] == "people"

    def test_quantifier_hedge_disjoint_enforced(self):
        lex = RuleLexicons.default()
        with pytest.raises(Exception):
            RuleLexicons(
                quantifiers=lex.quantifiers | {"usually"},
                group_nouns=lex.group_nouns,
                group_modifiers=lex.group_modifiers,
                hedge_adverbs=lex.hedge_adverbs,
                verbs=lex.verbs,
                irregular_pasts=lex.irregular_pasts,
                interjections=lex.interjections,
            )


def word_sets(lexicons):
    """The word sets the predicate oracles read, from ``lexicons`` and the
    rule module's closed classes."""
    closed = (
        "present_copulas contracted_copulas do_support past_aux hedge_modals "
        "bare_modals non_gerund_ing pronouns determiners prepositions "
        "conjunctions skip_joiners adverbs negations"
    ).split()
    listed = (
        "verbs irregular_pasts quantifiers interjections group_nouns "
        "group_modifiers hedge_adverbs"
    ).split()
    return SimpleNamespace(
        **{name: getattr(rules, name.upper()) for name in closed},
        **{name: getattr(lexicons, name) for name in listed},
    )


# each flag bit of the word table and the predicate it stands for
BIT_ORACLES = {
    rules.PRESENT: oracles.is_present_verb_oracle,
    rules.PAST: oracles.is_past_verb_oracle,
    rules.MODAL: oracles.is_modal_oracle,
    rules.GERUND: oracles.is_gerund_oracle,
    rules.QUANTIFIER: oracles.is_quantifier_oracle,
    rules.INTERJECTION: oracles.is_interjection_oracle,
    rules.ABSORBABLE: oracles.is_absorbable_oracle,
    rules.GROUP_NOUN: oracles.is_group_noun_oracle,
    rules.GROUP_MODIFIER: oracles.is_group_modifier_oracle,
}
SUFFIXES = ["s", "es", "ies", "ed", "ing", "'s"]


class TestWordTable:
    """Every flag bit of the per-word-type table equals the predicate it
    replaced, on every word the table can see."""

    annotator = RuleAnnotator()
    w = word_sets(annotator.lexicons)

    def check(self, words):
        every_bit = sum(BIT_ORACLES)
        for t in words:
            flags = self.annotator.words.word_flags(t)
            assert flags & ~every_bit == 0, t
            for bit, oracle in BIT_ORACLES.items():
                assert bool(flags & bit) == oracle(t, self.w), (t, oracle.__name__)

    def bundled_words(self):
        words = set().union(*vars(self.w).values())
        for expansion in self.annotator.lexicons.abbreviations.values():
            words.update(expansion.split())
        return words

    def test_bundled_words(self):
        self.check(sorted(self.bundled_words()))

    def test_inflected_variants(self):
        words = set()
        for word in self.bundled_words():
            words.update(word + suffix for suffix in SUFFIXES)
            if word.endswith("y"):
                words.add(word[:-1] + "ies")
        self.check(sorted(words))

    def test_gold_corpus_norms(self):
        norms = set()
        for path in sorted(GOLD.iterdir()):
            for line in gold_lines(path.name):
                for clause in normalize(line, self.annotator.words)[1]:
                    norms.update(n for n, f in zip(clause.norms, clause.flags) if f & WORD)
        self.check(sorted(norms))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        stem=st.text(alphabet="abcdefghijklmnopqrstuvwxyz'0123456789", min_size=1, max_size=10),
        suffix=st.sampled_from(["", "ize", "ifies", "ise", "ify", "'re", "'ll"] + SUFFIXES),
    )
    def test_generated_words(self, stem, suffix):
        self.check([stem + suffix])
