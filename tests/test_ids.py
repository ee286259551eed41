"""The id table behind ``ingest``'s duplicate check and the external
sentiment labels (``corpus/ids.py``). It must be exact whatever its
digest, so these tests make the digest a 4-bit function, under which most
ids collide, and shrink the table's batches so that its runs fold and
merge within a few ids."""

import json
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings, strategies as st

import genscope.corpus.ids
import genscope.corpus.records
from genscope.corpus.ids import IdTable
from genscope.corpus.query import parse_query
from genscope.corpus.records import PartRecords, _Admission, _in_blocks, parse_json_line
from genscope.errors import Lines
from genscope.sentiment import SENTIMENTS, SentimentProvider, ValenceLexicon, load_external_labels

from oracles import external_labels_oracle

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# ids that repeat often: empty, ASCII, non-ASCII, astral and lone surrogates
IDS = st.text(alphabet=st.sampled_from(["a", "b", "é", "\U0001f600", "\ud800", "\udfff"]),
              max_size=3)


def _colliding(key: str) -> int:
    return hash(key) & 15


@contextmanager
def _small_table():
    """A 4-bit digest, two keys per chunk, runs of at most eight entries,
    blocks of three records and a fold at every second accepted id."""
    with mock.patch.object(genscope.corpus.ids, "digest", _colliding), \
            mock.patch.object(genscope.corpus.ids, "CHUNK", 2), \
            mock.patch.object(genscope.corpus.ids, "RUN_CAP", 8), \
            mock.patch.object(genscope.corpus.records, "BLOCK", 3), \
            mock.patch.object(genscope.corpus.records, "FOLD", 2):
        yield


class TestIdTable:
    @derandomized
    @given(batches=st.lists(st.lists(IDS, max_size=12), max_size=8),
           probes=st.lists(IDS, max_size=12))
    def test_agrees_with_a_dict(self, batches, probes):
        table, positions = IdTable(), {}  # the oracle: each id's position
        with _small_table():
            for batch in batches:
                new = [key for key in batch if key not in positions]
                earlier = set()
                repeats = []
                for key in new:
                    repeats.append(key in earlier)
                    earlier.add(key)
                assert table.extend(iter(new)).tolist() == repeats
                for key in new:
                    positions.setdefault(key, len(positions))
            assert len(table) == len(positions)
            assert list(table) == list(positions)
            keys = probes + list(positions)
            assert table.find(keys).tolist() == [positions.get(key, -1) for key in keys]


class TestAdmission:
    QUERY = parse_query("(democrats) -is:retweet")

    @derandomized
    @given(stream=st.lists(st.tuples(IDS, st.booleans()), max_size=60),
           cut=st.integers(0, 60))
    def test_agrees_with_a_set(self, stream, cut):
        # each record's id, and whether the query's directive rejects it;
        # the records from ``cut`` on come from a later range
        records = [(key, 0 if rejected else -1, 0) for key, rejected in stream]
        here, later = records[:cut], records[cut:]
        part = PartRecords(ids="".join(key for key, _, _ in later))
        for key, verdict, lacked in later:
            part.id_ends.append((part.id_ends[-1] if part.id_ends else 0) + len(key))
            part.verdicts.append(verdict)
            part.lacked.append(lacked)
        admission = _Admission(self.QUERY)
        with _small_table():
            accepted = [ok for block in _in_blocks(iter(here)) for ok in admission.admitted(block)]
            admission.replay(part)

        seen, want, repeats = set(), [], 0
        for key, rejected in stream:
            repeats += key in seen
            want.append(key not in seen and not rejected)
            if want[-1]:
                seen.add(key)
        assert accepted == want[:cut]
        # a later range keeps only the records no directive rejects
        assert list(part.kept) == [ok for ok, (_, verdict, _) in zip(want[cut:], later)
                                   if verdict < 0]
        assert admission.report.accepted_count == len(seen)
        assert admission.report.rejected["duplicate id"] == repeats


# a label line: valid, of an unknown sentiment, without an id, or not one
LABEL_LINES = st.one_of(
    st.builds(lambda key, sentiment: json.dumps({"id": key, "sentiment": sentiment}),
              IDS, st.sampled_from([*SENTIMENTS, "angry"])),
    st.builds(lambda sentiment: json.dumps({"sentiment": sentiment}), st.sampled_from(SENTIMENTS)),
    st.sampled_from(["not json", "[1, 2]", '{"id": 5, "sentiment": "neutral"}', "", "  "]),
)


class TestExternalLabels:
    @derandomized
    @given(lines=st.lists(LABEL_LINES, max_size=40), probes=st.lists(IDS, max_size=8))
    def test_agrees_with_the_dict_loader(self, tmp_path_factory, lines, probes):
        path = tmp_path_factory.mktemp("labels") / "labels.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        labels, rejected = external_labels_oracle(Lines(path).numbered(), parse_json_line)
        with _small_table():
            report = load_external_labels(path)
            assert [(key, label.value) for key, label in report.labels.items()] == list(
                labels.items()
            )
            assert report.rejected == rejected
            # one block lookup, and one lookup per id, of labelled and other ids
            keys = probes + list(labels)
            neutral = SENTIMENTS.index("neutral")  # the lexicon's label of no words
            provider = SentimentProvider(report.labels, ValenceLexicon({}, frozenset()))
            assert provider.codes(keys, [[] for _ in keys]) == [
                SENTIMENTS.index(labels[key]) if key in labels else neutral for key in keys
            ]
            assert [provider.label(key, []).source for key in keys] == [
                "external" if key in labels else "lexicon" for key in keys
            ]
