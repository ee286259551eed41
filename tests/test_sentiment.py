import pytest

from genscope.classifier import tokenize
from genscope.errors import InputError, SchemaError
from genscope.sentiment import (
    LABELS,
    SentimentLabel,
    SentimentProvider,
    ValenceLexicon,
    lexicon_score,
    load_external_labels,
    load_valence_lexicon,
)


@pytest.fixture
def lexicon():
    return ValenceLexicon(
        valences={"great": 0.8, "wonderful": 0.8, "awful": -0.7, "fine": 0.03},
        negations=frozenset({"not", "never"}),
    )


class TestLexiconScore:
    def test_positive(self, lexicon):
        assert lexicon_score(tokenize("great wonderful"), lexicon).value == "positive"

    def test_negation_flips_within_window(self, lexicon):
        assert lexicon_score(tokenize("not great"), lexicon).value == "negative"

    def test_negation_window_expires(self, lexicon):
        # "great" sits more than 3 tokens after the negation
        label = lexicon_score(tokenize("not that it was so great"), lexicon)
        assert label.value == "positive"

    def test_no_lexicon_tokens_is_neutral(self, lexicon):
        assert lexicon_score(tokenize("completely unrelated words"), lexicon).value == "neutral"

    def test_empty_text_is_neutral(self, lexicon):
        assert lexicon_score(tokenize(""), lexicon).value == "neutral"

    def test_within_band_is_neutral(self, lexicon):
        assert lexicon_score(tokenize("fine"), lexicon).value == "neutral"

    def test_duplication_invariance(self, lexicon):
        for text in ("great wonderful", "awful stuff", "nothing matching"):
            once = lexicon_score(tokenize(text), lexicon).value
            twice = lexicon_score(tokenize(text + " " + text), lexicon).value
            assert once == twice

    def test_source_marked_lexicon(self, lexicon):
        assert lexicon_score(tokenize("great"), lexicon).source == "lexicon"

    def test_labels_are_the_shared_constants(self, lexicon):
        for text, value in (("great", "positive"), ("awful", "negative"), ("", "neutral")):
            assert lexicon_score(tokenize(text), lexicon) is LABELS[value, "lexicon"]


def _labels(tmp_path, text):
    path = tmp_path / "labels.jsonl"
    path.write_text(text, encoding="utf-8")
    return load_external_labels(path)


class TestExternalLabels:
    def test_load_valid(self, tmp_path):
        report = _labels(tmp_path, '{"id": "1", "sentiment": "negative"}\n')
        assert report.labels["1"] == SentimentLabel("negative", "external")
        assert report.rejected == []

    def test_labels_are_the_shared_constants(self, tmp_path):
        report = _labels(tmp_path, "".join(
            f'{{"id": "{i}", "sentiment": "{s}"}}\n'
            for i, s in enumerate(["negative", "positive", "negative", "neutral"])
        ))
        assert len(report.labels) == 4
        assert all(label is LABELS[label.value, "external"] for label in report.labels.values())

    def test_unknown_sentiment_rejected(self, tmp_path):
        report = _labels(tmp_path, '{"id": "1", "sentiment": "angry"}\n')
        assert report.labels == {}
        assert "angry" in report.rejected[0][1]

    def test_duplicate_id_rejected(self, tmp_path):
        report = _labels(
            tmp_path,
            '{"id": "1", "sentiment": "negative"}\n{"id": "1", "sentiment": "positive"}\n',
        )
        assert report.labels["1"].value == "negative"
        assert report.rejected[0][1] == "duplicate id"

    def test_empty_file(self, tmp_path):
        report = _labels(tmp_path, "")
        assert report.labels == {}

    def test_non_object_line_rejected(self, tmp_path):
        report = _labels(tmp_path, '[1, 2]\n"x"\n{"id": "1", "sentiment": "negative"}\n')
        assert list(report.labels) == ["1"]
        assert report.rejected == [
            (1, "record must be a JSON object"), (2, "record must be a JSON object"),
        ]

    def test_integers_past_the_digit_limit_share_one_reason(self, tmp_path):
        lines = [f'{{"id": "{i}", "sentiment": "negative", "n": {"9" * digits}}}\n'
                 for i, digits in ((1, 4301), (2, 5001))]
        report = _labels(tmp_path, "".join(lines) + '{"id": "3", "sentiment": "neutral"}\n')
        assert list(report.labels) == ["3"]
        assert report.rejected == [(1, "integer of over 4300 digits"),
                                   (2, "integer of over 4300 digits")]


class TestProvider:
    def test_external_precedence(self, lexicon):
        provider = SentimentProvider(
            external={"1": SentimentLabel("positive", "external")}, lexicon=lexicon
        )
        label = provider.label("1", tokenize("awful awful awful"))
        assert label.value == "positive"
        assert label.source == "external"

    def test_lexicon_fallback(self, lexicon):
        provider = SentimentProvider(external={}, lexicon=lexicon)
        label = provider.label("2", tokenize("awful"))
        assert label.value == "negative"
        assert label.source == "lexicon"

    def test_every_tweet_gets_exactly_one_label(self, lexicon):
        provider = SentimentProvider(
            external={"1": SentimentLabel("neutral", "external")}, lexicon=lexicon
        )
        labels = [provider.label(str(i), tokenize("great")) for i in range(5)]
        assert len(labels) == 5
        assert all(isinstance(l, SentimentLabel) for l in labels)


class TestValidation:
    def test_bundled_lexicon_loads(self):
        lex = load_valence_lexicon()
        assert lex.valences["great"] == 0.8
        assert "not" in lex.negations

    def test_valence_range_enforced(self):
        with pytest.raises(SchemaError):
            ValenceLexicon(valences={"x": 2.0}, negations=frozenset())

    def test_label_enums_closed(self):
        with pytest.raises(InputError):
            SentimentLabel("angry", "lexicon")
        with pytest.raises(InputError):
            SentimentLabel("negative", "model")
