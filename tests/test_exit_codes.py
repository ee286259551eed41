"""Property: on a malformed corpus, labeled, report, model or tables file,
the CLI exits 0, 1, 2 or 3.

``ingest``, ``annotate``, ``classify`` and ``analyze`` get small corpora
mixing valid records, records with one field replaced or deleted, and
lines of random text; all but ``ingest`` must also write the same bytes
when run twice. ``train --labeled`` gets valid labeled records with at
most one line damaged the same way, and must write the same model file
when run twice. ``report --report`` gets
JSON reports with random values under the report blocks, ``eval --model``
gets model files with one line replaced and the checksum recomputed, so
the damage reaches the parser, and ``reproduce --tables`` gets the bundled
tables with one line replaced. ``analyze``'s query, group lexicon,
config and external-sentiment files get one line (for the one-line query,
one word) damaged, and so do its valence lexicon and model file, whose
damaged line may also be raw bytes that are not UTF-8; the error of a
side input names its path, and for bytes that are not UTF-8 its line. A
run that exits 0 must write the same report.json when run again. ``main`` runs in-process; any exception other than
``SystemExit`` fails the test. A Ctrl-C outside a ``label`` prompt exits
130 on one line of stderr.
"""

import copy
import importlib
import io
import json
import os
import random
import shutil
import zlib
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from genscope.annotator import load_abbreviations, load_wordlist
from genscope.classifier import GenericityClassifier, dumps_model, save_model
import genscope.parts
from genscope.cli import main
from genscope.errors import SchemaError
from genscope.parts import byte_ranges
from genscope.reporting import REPORT_BLOCKS
from genscope.synth import generate_corpus, generate_training_texts

from corpora import write_jsonl

EXIT_CODES = {0, 1, 2, 3}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)

HEADS = [
    "feature_kind", "dimension", "threshold", "lambda", "seed", "learning_rate",
    "epochs", "bias", "good", "thing", "0", "1", "-1", "[vocab]", "[weights]", "",
]
VALUES = (
    st.sampled_from([
        "abc", "nan", "inf", "-inf", "-1", "0", "1", "2", "1e308", "-1e308",
        "0.5", "1.5", "bow", "embedding", "", "1 2", "99999999999",
    ])
    | st.integers(-5, 10**4).map(str)
    | st.floats().map(repr)
    | st.text(max_size=6)
)
LINES = st.text(max_size=20) | st.builds("{} {}".format, st.sampled_from(HEADS), VALUES)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def quiet_exit_code(argv):
    """``exit_code`` with the CLI's output captured; no traceback may reach stderr."""
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        code = exit_code(argv)
    assert "Traceback" not in stderr.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("exit_codes")


RECORDS = generate_corpus(n=60, seed=11)
RECORD_KEYS = ["id", "text", "like_count", "retweet_count", "lang", "possibly_sensitive"]


@st.composite
def corpus_lines(draw):
    """Up to 12 lines: valid records (ids may repeat), records with one
    field replaced by random JSON or deleted, and random text."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record", "damaged", "text"]))
        if kind == "text":
            lines.append(draw(st.text(max_size=20)))
            continue
        record = dict(draw(st.sampled_from(RECORDS)))
        if kind == "damaged":
            key = draw(st.sampled_from(RECORD_KEYS))
            if draw(st.booleans()):
                record[key] = draw(JSON)
            else:
                del record[key]
        lines.append(json.dumps(record))
    return lines


def write_corpus(workdir, lines):
    path = workdir / "corpus_random.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(lines=corpus_lines())
def test_ingest_exit_code(workdir, lines):
    path = write_corpus(workdir, lines)
    argv = ["ingest", "--corpus", str(path), "--out", str(workdir / "ingested")]
    assert quiet_exit_code(argv) in EXIT_CODES


@pytest.fixture(scope="module")
def model_file(workdir):
    texts, labels = generate_training_texts(n=200, seed=5)
    path = workdir / "good_model.txt"
    save_model(GenericityClassifier(min_count=1, epochs=20).fit(texts, labels).model_, path)
    return path


def streamed_argv(command, corpus, out, model):
    """The argv of ``ingest --out``, ``annotate`` or ``classify``, which
    write one row per accepted tweet, a block at a time as it is read."""
    argv = [command, "--corpus", str(corpus), "--out", str(out)]
    return argv + ["--model", str(model)] if command == "classify" else argv


@pytest.mark.parametrize("command", ["annotate", "classify"])
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(lines=corpus_lines())
def test_streamed_exit_code_and_determinism(workdir, model_file, command, lines):
    path = write_corpus(workdir, lines)
    runs = []
    for name in ("first", "second"):
        out = workdir / command / name
        shutil.rmtree(out, ignore_errors=True)
        code = quiet_exit_code(streamed_argv(command, path, out, model_file))
        assert code in EXIT_CODES
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        runs.append((code, files))
    assert runs[0] == runs[1]


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(lines=corpus_lines())
def test_analyze_exit_code_and_determinism(workdir, lines):
    path = write_corpus(workdir, lines)
    runs = []
    for name in ("first", "second"):
        out = workdir / "analyzed" / name
        shutil.rmtree(out, ignore_errors=True)
        code = quiet_exit_code(["analyze", "--corpus", str(path), "--out", str(out)])
        assert code in EXIT_CODES
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        runs.append((code, files))
    assert runs[0] == runs[1]


DATA = resources.files("genscope.data")
SIDE_CORPUS = RECORDS[:30]
# analyze's side inputs, each as (its flag, its units, how they join); the
# default query is one line, so its unit is a word of that line
SIDE_INPUTS = {
    "query": ("--query", (DATA / "default_query.txt").read_text().split(" "), " "),
    "group-lexicon": (
        "--group-lexicon", (DATA / "group_lexicon.tsv").read_text().splitlines(), "\n",
    ),
    "config": (
        "--config",
        ["corpus = {corpus}", "threshold = 0.5", "alpha = 0.05", "seed = 7",
         "format = markdown", "histogram_bin_width = 0.02"],
        "\n",
    ),
    "external-sentiment": (
        "--external-sentiment",
        [json.dumps({"id": r["id"], "sentiment": s})
         for r, s in zip(SIDE_CORPUS, ["positive", "neutral", "negative"] * 10)],
        "\n",
    ),
    "valence-lexicon": (
        "--valence-lexicon", (DATA / "valence_lexicon.tsv").read_text().splitlines(), "\n",
    ),
    "model": (
        "--model",
        dumps_model(
            GenericityClassifier(min_count=1, epochs=5).fit(*generate_training_texts(40, 9)).model_
        ).splitlines(),
        "\n",
    ),
}
# unit -> a strategy for its damaged form, which may keep part of it
SIDE_DAMAGE = {
    "query": lambda word: st.lists(
        st.sampled_from([word, "(", ")", "OR", "-", "lang:", "lang:xx", "democrats", "(white",
                         "men)", "-has:links", "is:bogus", '"', "unmapped", "AND"]),
        max_size=3,
    ).map(" ".join),
    "group-lexicon": lambda line: st.builds(
        "{}\t{}".format,
        st.sampled_from([line.split("\t")[0], "democrats", "new term", "", "#"]),
        st.sampled_from(["political", "gender", "ethnic", "political,gender", "",
                         "bogus", ","]),
    ),
    "config": lambda line: st.builds(
        "{} = {}".format,
        st.sampled_from([line.split(" = ")[0], "model", "valence_lexicon", "bogus", ""]),
        st.sampled_from(["0", "1", "0.5", "0.02", "0.3", "1e-300", "nan", "inf", "-1",
                         "1e308", "abc", "csv", "markdown", ""]),
    ),
    "external-sentiment": lambda line: st.builds(
        lambda key, value: json.dumps({**json.loads(line), key: value}),
        st.sampled_from(["id", "sentiment", "extra"]),
        JSON | st.sampled_from(["positive", "neutral", "negative", SIDE_CORPUS[0]["id"]]),
    ),
    "valence-lexicon": lambda line: st.builds(
        "{}{}{}".format,
        st.sampled_from([line.split("\t")[0], "great", "!", "#", ""]),
        st.sampled_from(["\t", " ", ""]),
        st.sampled_from(["0.5", "-1", "1.5", "x", "nan", "inf", "1e400", "-0", ""]),
    ) | st.binary(min_size=1, max_size=8),
    "model": lambda line: st.text(max_size=20) | st.binary(min_size=1, max_size=20),
}


@pytest.fixture(scope="module")
def side_corpus(workdir):
    path = workdir / "side_corpus.jsonl"
    write_jsonl(SIDE_CORPUS, path)
    return path


@pytest.mark.parametrize("kind", list(SIDE_INPUTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_analyze_side_input_exit_code_and_determinism(workdir, side_corpus, kind, data):
    flag, units, sep = SIDE_INPUTS[kind]
    units = [unit.replace("{corpus}", str(side_corpus)) for unit in units]
    i = data.draw(st.integers(0, len(units) - 1))
    units[i] = data.draw(st.text(max_size=20) | SIDE_DAMAGE[kind](units[i]))
    path = workdir / f"side_{kind}"
    # a damaged unit may be raw bytes, which need not be UTF-8
    units = [unit if isinstance(unit, bytes) else unit.encode() for unit in units]
    path.write_bytes(sep.encode().join(units) + b"\n")
    argv = ["analyze", flag, str(path)]
    if kind != "config":  # the config names the corpus
        argv += ["--corpus", str(side_corpus)]
    reports = []
    for name in ("first", "second"):
        out = workdir / "side" / name
        shutil.rmtree(out, ignore_errors=True)
        code = quiet_exit_code(argv + ["--out", str(out)])
        assert code in EXIT_CODES
        if code != 0:
            return
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


LABELED = [
    {"text": text, "label": label}
    for text, label in zip(*generate_training_texts(n=40, seed=9))
]


@st.composite
def labeled_lines(draw):
    """Up to 12 labeled records; in two examples of three, one line is
    then replaced by random text or by its record with the text or label
    replaced by random JSON or deleted."""
    records = draw(st.lists(st.sampled_from(LABELED), max_size=12))
    lines = [json.dumps(record) for record in records]
    damage = draw(st.sampled_from(["none", "field", "text"]))
    if lines and damage != "none":
        i = draw(st.integers(0, len(lines) - 1))
        if damage == "text":
            lines[i] = draw(st.text(max_size=20))
        else:
            record = dict(records[i])
            key = draw(st.sampled_from(["text", "label"]))
            if draw(st.booleans()):
                record[key] = draw(JSON)
            else:
                del record[key]
            lines[i] = json.dumps(record)
    return lines


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(lines=labeled_lines(), min_count=st.integers(1, 2))
def test_train_exit_code_and_determinism(workdir, lines, min_count):
    path = workdir / "labeled_random.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    runs = []
    for name in ("first", "second"):
        model = workdir / f"trained_{name}.txt"
        model.unlink(missing_ok=True)
        argv = ["train", "--labeled", str(path), "--model-out", str(model),
                "--epochs", "5", "--min-count", str(min_count)]
        code = quiet_exit_code(argv)
        assert code in EXIT_CODES
        runs.append((code, model.read_bytes() if model.exists() else None))
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def base_report(workdir):
    corpus = workdir / "corpus.jsonl"
    write_jsonl(generate_corpus(n=120, seed=3), corpus)
    assert main(["analyze", "--corpus", str(corpus), "--out", str(workdir / "base")]) == 0
    return json.loads((workdir / "base" / "report.json").read_text())


def _paths(node, prefix=()):
    """The key path of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def damaged_reports(draw, base):
    """``base`` with one to three values replaced by random JSON or deleted."""
    report = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(REPORT_BLOCKS))
        paths = [p for p in _paths(report) if p[0] == block]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent = report
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON)
        else:
            del parent[path[-1]]
    return report


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data(), fmt=st.sampled_from(["markdown", "csv"]))
def test_report_exit_code(workdir, base_report, data, fmt):
    report = data.draw(
        damaged_reports(base_report) | st.dictionaries(st.sampled_from(REPORT_BLOCKS), JSON)
    )
    path = workdir / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    argv = ["report", "--report", str(path), "--format", fmt, "--out", str(workdir / "out")]
    assert exit_code(argv) in EXIT_CODES


@pytest.mark.parametrize(
    "path, value",
    [
        (("h3", "group_generic_counts", "political", "generic"), 10**30),
        (("h4", "sentiment_by_group", "cells", 0, 0), 10**30),
        (("descriptives", "generic_count"), 10**30),
        (("h5", "generic", "likes", "group_sizes"), [1, 0, 0]),
        (("h2", "likes", "z"), float("inf")),
        (("h5", "generic", "likes", "h"), float("nan")),
        (("provenance", "histogram_bin_width"), 1e-300),
        (("descriptives", "analyzed_tweets"), 1e300),
    ],
    ids=["h3-count-overflows", "h4-count-overflows", "negative-non-generic",
         "one-tweet-in-h5", "infinite-z", "nan-h", "tiny-bin-width", "square-overflows"],
)
def test_report_exit_code_on_hostile_numbers(workdir, base_report, path, value):
    # the consistency check meets these before anything is written
    report = copy.deepcopy(base_report)
    parent = report
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad, out = workdir / "hostile.json", workdir / "hostile_out"
    bad.write_text(json.dumps(report), encoding="utf-8")
    assert quiet_exit_code(["report", "--report", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def base_model(workdir):
    texts = ["good thing here", "good stuff here", "bad thing there", "bad stuff there"]
    labels = [1, 1, 0, 0]
    write_jsonl(
        ({"text": t, "label": l} for t, l in zip(texts, labels)), workdir / "labeled.jsonl"
    )
    clf = GenericityClassifier(min_count=1, epochs=20).fit(texts, labels)
    return dumps_model(clf.model_).splitlines()[:-1]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data(), line=LINES)
def test_eval_model_exit_code(workdir, base_model, data, line):
    lines = list(base_model)
    lines[data.draw(st.integers(0, len(lines) - 1))] = line
    body = "\n".join(lines) + "\n"
    path = workdir / "model.txt"
    path.write_text(
        body + f"checksum {zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n", encoding="utf-8"
    )
    argv = ["eval", "--labeled", str(workdir / "labeled.jsonl"), "--model", str(path)]
    assert exit_code(argv) in EXIT_CODES


TABLES = (resources.files("genscope.data") / "published_tables.csv").read_text().splitlines()
TABLE_VALUES = (
    st.sampled_from([
        "abc", "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "31846.7", "31846.0",
        "1e9", "1000000001", "1e308", "-1e308", "", "1,2",
    ])
    | st.integers(-5, 10**6).map(str)
    | st.floats().map(repr)
    | st.text(max_size=6)
)
TABLE_LINES = st.text(max_size=20) | st.builds(
    "{},{}".format, st.sampled_from([line.split(",")[0] for line in TABLES]), TABLE_VALUES
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data(), line=TABLE_LINES)
def test_reproduce_tables_exit_code(workdir, data, line):
    lines = list(TABLES)
    lines[data.draw(st.integers(0, len(lines) - 1))] = line
    path = workdir / "tables.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert exit_code(["reproduce", "--tables", str(path)]) in EXIT_CODES


@pytest.fixture(scope="module")
def latin1_corpus(workdir):
    """Twenty good records, then a last line that is not UTF-8."""
    path = workdir / "corpus_latin1.jsonl"
    lines = [json.dumps(record) for record in RECORDS[:20]]
    path.write_bytes("\n".join(lines).encode("utf-8") + b'\n{"id": "z", "text": "caf\xe9"}\n')
    return path


def test_analyze_non_utf8_last_line(workdir, latin1_corpus):
    out = workdir / "latin1_out"
    assert quiet_exit_code(["analyze", "--corpus", str(latin1_corpus), "--out", str(out)]) == 2
    assert not out.exists()


STREAMED = {"ingest": "accepted.jsonl", "annotate": "annotations.jsonl", "classify": "scores.jsonl"}


@pytest.mark.parametrize("command", list(STREAMED))
def test_streamed_non_utf8_last_line(workdir, latin1_corpus, model_file, command):
    out = workdir / "latin1_streamed" / command
    assert quiet_exit_code(streamed_argv(command, latin1_corpus, out, model_file)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", list(STREAMED))
def test_failed_rerun_keeps_the_earlier_output(workdir, latin1_corpus, model_file, command):
    corpus = workdir / "corpus_good.jsonl"
    write_jsonl(RECORDS[:20], corpus)
    out = workdir / "rerun" / command
    assert quiet_exit_code(streamed_argv(command, corpus, out, model_file)) == 0
    written = (out / STREAMED[command]).read_bytes()
    assert written
    assert quiet_exit_code(streamed_argv(command, latin1_corpus, out, model_file)) == 2
    assert [p.name for p in out.iterdir()] == [STREAMED[command]]
    assert (out / STREAMED[command]).read_bytes() == written


def test_analyze_rejects_a_count_a_float_cannot_hold(workdir):
    # 10**400 is valid JSON but overflows a float
    records = [dict(record) for record in RECORDS[:30]]
    reports = []
    for name, count in (("small", 1), ("huge", 10**400)):
        records[0]["like_count"] = count
        corpus, out = workdir / f"corpus_{name}.jsonl", workdir / f"count_{name}"
        write_jsonl(records, corpus)
        assert quiet_exit_code(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text())["ingest"])
    small, huge = reports
    assert huge == {"accepted": small["accepted"] - 1, "rejected": small["rejected"] + 1}


@pytest.fixture
def corpus_never_read(monkeypatch):
    """A valid corpus path whose reading fails the test: side inputs are
    checked before it."""
    def ingest(*args, **kwargs):
        raise AssertionError("the corpus was read before a bad side input failed")

    monkeypatch.setattr("genscope.analysis.ingest", ingest)
    monkeypatch.setattr("genscope.cli.ingest", ingest)
    return str(resources.files("genscope.data") / "synthetic_corpus.jsonl")


DIRECTORY = "a directory"  # a side input path that names a directory


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--model", "feature_kind bow\ndimension 1\nchecksum 00000000\n"),
        ("--external-sentiment", None),
        ("--external-sentiment", b'{"id": "1", "sentiment": "caf\xe9"}\n'),
        ("--valence-lexicon", None),
        ("--valence-lexicon", b"great\tvery\n"),
        ("--valence-lexicon", "great\tnan\n"),
        ("--valence-lexicon", "great\t1e400\n"),
        ("--valence-lexicon", "great 0.5\n"),
        ("--valence-lexicon", b"great\t0.5\ncaf\xe9\t0.1\n"),
        ("--valence-lexicon", DIRECTORY),
        ("--model", "garbage text\n"),
        ("--model", random.Random(7).randbytes(64)),
        ("--group-lexicon", b"democrats\tpolitical\ncaf\xe9\tgender\n"),
        ("--query", b"\n(democrats OR caf\xe9)\n"),
        ("--config", b"seed = 1\n# caf\xe9\n"),
    ],
    ids=["corrupt-model", "missing-labels", "labels-not-utf8", "missing-lexicon", "bad-valence",
         "nan-valence", "overflowing-valence", "lexicon-line-without-tab", "lexicon-not-utf8",
         "lexicon-directory", "garbage-model", "random-bytes-model", "group-lexicon-not-utf8",
         "query-not-utf8", "config-not-utf8"],
)
def test_bad_side_input_fails_before_the_corpus(tmp_path, corpus_never_read, flag, content):
    path = tmp_path / "side_input"
    if content == DIRECTORY:
        path.mkdir()
    elif isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "side_out"
    argv = ["analyze", "--corpus", corpus_never_read, flag, str(path), "--out", str(out)]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert exit_code(argv) == 2
    assert "Traceback" not in stderr.getvalue()
    assert str(path) in stderr.getvalue()
    if isinstance(content, bytes) and b"caf\xe9" in content:
        line = content[: content.index(b"\xe9")].count(b"\n") + 1
        assert stderr.getvalue() == (
            f"error: {path}:{line}: not UTF-8: invalid continuation byte (byte 0xe9)\n"
        )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--valence-lexicon", "good\t0.5\nbad\tx\n", ":2: bad valence 'x'"),
        ("--valence-lexicon", "good\t0.5\nbad 1\n", ":2: expected 'token<TAB>valence'"),
        ("--valence-lexicon", "good\tnan\n", ": valences outside [-1, 1]: ['good']"),
        ("--group-lexicon", "democrats\tpolitical\nbad line\n",
         ":2: expected 'term<TAB>groups'"),
        ("--group-lexicon", "democrats\tbogus\n",
         ": term 'democrats' maps to unknown groups ['bogus']"),
        ("--query", "\n((a (b c)))\n", ":2: nested '(' inside phrase (at byte offset 4)"),
    ],
    ids=["bad-valence", "valence-line-without-tab", "nan-valence", "group-line-without-tab",
         "unknown-group", "nested-phrase"],
)
def test_side_input_load_error_names_the_file(tmp_path, corpus_never_read, flag, content,
                                              message):
    path = tmp_path / "side_input"
    path.write_text(content, encoding="utf-8")
    argv = ["analyze", "--corpus", corpus_never_read, flag, str(path),
            "--out", str(tmp_path / "out")]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert exit_code(argv) == 2
    assert stderr.getvalue() == f"error: {path}{message}\n"


# characters at which str.splitlines ends a line and a file's reader does not
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=lambda sep: f"U+{ord(sep):04X}")
@pytest.mark.parametrize("loader", ["valence-lexicon", "group-lexicon", "config", "tables"])
def test_side_input_line_numbers_count_only_line_ends(tmp_path, corpus_never_read, loader, sep):
    path, out = tmp_path / "side_input", str(tmp_path / "out")
    content, argv, message = {
        "valence-lexicon": (
            f"go{sep}od\t0.5\nbad\tzz\n",
            ["analyze", "--corpus", corpus_never_read, "--valence-lexicon", str(path), "--out", out],
            f"{path}:2: bad valence 'zz'",
        ),
        "group-lexicon": (
            f"demo{sep}crats\tpolitical\nbad line\n",
            ["analyze", "--corpus", corpus_never_read, "--group-lexicon", str(path), "--out", out],
            f"{path}:2: expected 'term<TAB>groups'",
        ),
        "config": (
            f"seed = 4{sep}2\n",
            ["analyze", "--config", str(path), "--corpus", corpus_never_read, "--out", out],
            f"config line 1: seed must be an integer, not {f'4{sep}2'!r}",
        ),
        "tables": (
            f"h1.generic,1{sep}0\n",
            ["reproduce", "--tables", str(path)],
            f"tables line 1: h1.generic: {f'1{sep}0'!r} is not a number",
        ),
    }[loader]
    path.write_text(content, encoding="utf-8")
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert exit_code(argv) == 2
    assert stderr.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_rule_word_lists_keep_each_line_whole(tmp_path, sep):
    path = tmp_path / "words.txt"
    path.write_text(f"a{sep}b\r\nc\rd\n", encoding="utf-8", newline="")
    assert load_wordlist(path) == {f"a{sep}b", "c", "d"}
    path.write_text(f"x{sep}y\tex{sep}pand\nz\tzed\n", encoding="utf-8")
    assert load_abbreviations(path) == {f"x{sep}y": f"ex{sep}pand", "z": "zed"}


@pytest.mark.parametrize(
    "line", ["lol", "lol\t", "\tlaughing out loud", "lol \t  # a comment"],
    ids=["no-tab", "no-expansion", "no-token", "blank-expansion"],
)
def test_abbreviation_line_without_both_sides_is_rejected(tmp_path, line):
    path = tmp_path / "abbreviations.tsv"
    path.write_text(f"# abbreviations\nimo\tin my opinion\n{line}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_abbreviations(path)
    assert str(caught.value) == f"{path}:3: expected 'token<TAB>expansion'"


@pytest.mark.parametrize("line", ["white men", "white\tmen"], ids=["space", "tab"])
def test_word_list_line_of_two_words_is_rejected(tmp_path, line):
    path = tmp_path / "words.txt"
    path.write_text(f"# words\nmen\n\n{line}  # two\n", encoding="utf-8")
    with pytest.raises(SchemaError) as caught:
        load_wordlist(path)
    assert str(caught.value) == f"{path}:4: expected one word, not {line!r}"


@pytest.mark.parametrize(
    "content",
    ["feature_kind bow\ndimension 1\nchecksum 00000000\n", None],
    ids=["corrupt-model", "missing-model"],
)
def test_classify_bad_model_fails_before_the_corpus(workdir, corpus_never_read, content):
    path = workdir / "classify_model"
    path.unlink(missing_ok=True)
    if content is not None:
        path.write_text(content, encoding="utf-8")
    out = workdir / "classify_side_out"
    argv = ["classify", "--corpus", corpus_never_read, "--model", str(path), "--out", str(out)]
    assert quiet_exit_code(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "train", "analyze"])
def test_integer_of_over_4300_digits(workdir, command):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it;
    # a corpus line with one is rejected, a labeled line is a data error
    huge = "1" + "0" * 5000
    bad = json.dumps(dict(RECORDS[1], like_count=0))
    bad = bad.replace('"like_count": 0', f'"like_count": {huge}')
    corpus, side = workdir / "corpus_digits.jsonl", workdir / "side_digits.jsonl"
    corpus.write_text(json.dumps(RECORDS[0]) + "\n" + bad + "\n", encoding="utf-8")
    out = workdir / f"digits_{command}"
    if command == "ingest":
        argv, code = ["ingest", "--corpus", str(corpus), "--out", str(out)], 0
    elif command == "train":
        side.write_text(f'{{"text": "a", "label": {huge}}}\n', encoding="utf-8")
        argv, code = ["train", "--labeled", str(side), "--model-out", str(out)], 2
    else:
        side.write_text(f'{{"id": "1", "sentiment": "negative", "n": {huge}}}\n', encoding="utf-8")
        argv = ["analyze", "--corpus", str(corpus), "--external-sentiment", str(side),
                "--out", str(out)]
        code = 0
    assert quiet_exit_code(argv) == code
    if command == "ingest":
        assert len((out / "accepted.jsonl").read_text().splitlines()) == 1


@pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
@pytest.mark.parametrize("command", ["ingest", "train", "eval", "analyze"])
def test_line_numbers_count_every_line_end(workdir, model_file, command, newline):
    # the readers split lines at \r\n, \r and \n alike, and so does the
    # line number of a byte that is not UTF-8, or of JSON that is invalid
    labeled = json.dumps({"text": "democrats are loud", "label": 1})
    reads_labels = command in ("train", "eval")
    good = [labeled] * 2 if reads_labels else [json.dumps(r) for r in RECORDS[:2]]
    path, out = workdir / f"newlines_{command}.jsonl", workdir / f"newlines_{command}_out"
    argv = {
        "ingest": ["ingest", "--corpus", str(path), "--out", str(out)],
        "train": ["train", "--labeled", str(path), "--model-out", str(out / "model.txt")],
        "eval": ["eval", "--labeled", str(path), "--model", str(model_file)],
        "analyze": ["analyze", "--corpus", str(path), "--out", str(out)],
    }[command]
    for third, message in ((b'{"id": "z", "text": "\xff"}', "not UTF-8: invalid start byte (byte 0xff)"),
                           (b"{", "invalid JSON: Expecting property name enclosed in double quotes")):
        if not reads_labels and third == b"{":
            continue  # a corpus line of invalid JSON is counted, not an error
        lines = [line.encode() for line in good] + [third, b"[]"]
        path.write_bytes(newline.encode().join(lines) + newline.encode())
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            assert exit_code(argv) == 2
        assert stderr.getvalue().splitlines()[-1] == f"error: {path}:3: {message}"


# command -> (module, stage) that a Ctrl-C interrupts, and the stage calls
# that run first: in analyze the corpus is cut in two ranges and a block
# fills first, in classify a block of 256 tweets is written first, ingest
# writes (label keeps) a few tweets, and train cuts its labeled file in two
# ranges and tokenizes a few texts of the first
INTERRUPTED = {
    "analyze": ("genscope.analysis", "partition", 5),
    "classify": ("genscope.classifier.logistic", "predict_score", 1),
    "ingest": ("genscope.corpus.records", "_parse_record", 5),
    "label": ("genscope.corpus.records", "_parse_record", 5),
    "train": ("genscope.classifier.features", "tokenize", 5),
}


@pytest.mark.parametrize("command", list(INTERRUPTED))
def test_ctrl_c_exits_130_on_one_line(workdir, model_file, monkeypatch, command):
    out = workdir / "interrupted" / command
    if command == "train":
        path = workdir / "labeled_interrupted.jsonl"
        texts, labels = generate_training_texts(n=600, seed=11)
        write_jsonl(({"text": t, "label": l} for t, l in zip(texts, labels)), path)
        argv = ["train", "--labeled", str(path), "--model-out", str(out)]
    else:
        path = workdir / "corpus_interrupted.jsonl"
        write_jsonl(generate_corpus(n=600, seed=11), path)
        argv = [command, "--corpus", str(path), "--out", str(out)]
    module, name, runs = INTERRUPTED[command]
    module = importlib.import_module(module)
    stage, calls = getattr(module, name), []

    def interrupted(*args):
        calls.append(args)
        if len(calls) > runs:
            raise KeyboardInterrupt
        return stage(*args)

    monkeypatch.setattr(module, name, interrupted)
    monkeypatch.setattr(genscope.parts, "usable_cpus", lambda: 2)
    monkeypatch.setattr(genscope.parts, "ANALYZE_FLOOR", 1)
    monkeypatch.setattr(genscope.parts, "TRAIN_FLOOR", 1)
    assert len(byte_ranges(path, 1)) == 2
    if command == "classify":
        argv += ["--model", str(model_file)]
    stderr = io.StringIO()
    with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
        assert main(argv) == 130
    assert len(calls) == runs + 1
    assert stderr.getvalue() == "error: interrupted\n"
    assert not out.exists()  # no output, and no .partial file
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
