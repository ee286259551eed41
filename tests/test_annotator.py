"""Rule-engine behavior: normalization, verdicts, screens, and properties."""

from pathlib import Path

import pytest

from genscope.annotator import (
    AnnotatorVerdict,
    RuleAnnotator,
    normalize,
)
from genscope.annotator.lexicons import RuleLexicons
from genscope.errors import InputError

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


class TestNormalize:
    def test_abbreviations_and_blank(self, annotator):
        norm = normalize("White ppl be like __", annotator.lexicons.abbreviations)
        assert norm.token_texts == ["white", "people", "be", "like", "BLANK"]

    def test_emoji_class(self, annotator):
        norm = normalize("Men in white coats 🤒", annotator.lexicons.abbreviations)
        assert norm.token_texts == ["men", "in", "white", "coats", "EMOJI"]

    def test_clause_split_on_punctuation(self):
        norm = normalize("Damn right! Liberals are loud.")
        assert len(norm.clauses) == 2
        assert [t.norm for t in norm.clauses[1]] == ["liberals", "are", "loud"]

    def test_url_token(self):
        norm = normalize("look https://t.co/x now")
        assert norm.token_texts == ["look", "URL", "now"]

    def test_spans_point_into_source(self):
        text = "Old Liberals party"
        norm = normalize(text)
        token = norm.tokens[1]
        assert text[token.start : token.end] == "Liberals"


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
        serial = [annotator.annotate(t).label for t in texts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = [v.label for v in pool.map(annotator.annotate, texts)]
        assert threaded == serial


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
