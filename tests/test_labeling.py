import io
import json
import sys

from genscope.cli import main
from genscope.corpus import Tweet, write_jsonl
from genscope.labeling import label_session


def _tweets(*texts):
    return [
        Tweet(id=f"t{i}", text=t, like_count=0, retweet_count=0, lang="en")
        for i, t in enumerate(texts)
    ]


def _read(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_accept_all_suggestions(tmp_path):
    tweets = _tweets(
        "Democrats block the bill",  # suggestion: generic
        "Democrats blocked the bill",  # suggestion: non-generic
    )
    out = tmp_path / "labels.jsonl"
    result = label_session(
        tweets, out, input_stream=io.StringIO("\n\n"), output_stream=io.StringIO()
    )
    assert result.labeled == 2
    rows = _read(out)
    assert [r["label"] for r in rows] == [1, 0]
    assert all(r["source"] == "human" for r in rows)


def test_override_suggestion(tmp_path):
    tweets = _tweets("Democrats block the bill")
    out = tmp_path / "labels.jsonl"
    label_session(
        tweets, out, input_stream=io.StringIO("n\n"), output_stream=io.StringIO()
    )
    assert _read(out)[0]["label"] == 0


def test_resume_skips_labeled_ids(tmp_path):
    tweets = _tweets("Democrats block the bill", "Men can cook")
    out = tmp_path / "labels.jsonl"
    label_session(
        tweets, out, input_stream=io.StringIO("\nq\n"), output_stream=io.StringIO()
    )
    assert len(_read(out)) == 1
    # second run: the first id resumes, only the second prompts
    result = label_session(
        tweets, out, input_stream=io.StringIO("g\n"), output_stream=io.StringIO()
    )
    assert result.resumed == 1
    assert result.labeled == 1
    rows = _read(out)
    assert [r["id"] for r in rows] == ["t0", "t1"]

    # third run: nothing left to prompt
    result = label_session(
        tweets, out, input_stream=io.StringIO(""), output_stream=io.StringIO()
    )
    assert result.resumed == 2
    assert result.labeled == 0


def test_quit_leaves_valid_partial_file(tmp_path):
    tweets = _tweets("Democrats block the bill", "Men can cook", "Liberals are loud")
    out = tmp_path / "labels.jsonl"
    result = label_session(
        tweets, out, input_stream=io.StringIO("\nq\n"), output_stream=io.StringIO()
    )
    assert result.labeled == 1
    rows = _read(out)  # parses cleanly
    assert rows[0]["id"] == "t0"


def test_skip_writes_nothing(tmp_path):
    tweets = _tweets("Democrats block the bill")
    out = tmp_path / "labels.jsonl"
    result = label_session(
        tweets, out, input_stream=io.StringIO("s\n"), output_stream=io.StringIO()
    )
    assert result.skipped == 1
    assert not _read(out)


def test_eof_ends_session(tmp_path):
    tweets = _tweets("Democrats block the bill")
    out = tmp_path / "labels.jsonl"
    result = label_session(
        tweets, out, input_stream=io.StringIO(""), output_stream=io.StringIO()
    )
    assert result.labeled == 0


def test_resume_skips_lines_without_a_string_id(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(
        ({"id": f"t{i}", "text": text, "like_count": 0, "retweet_count": 0, "lang": "en"}
         for i, text in enumerate(["Democrats block the bill", "Men can cook", "Cats purr"])),
        corpus,
    )
    out = tmp_path / "out"
    out.mkdir()
    done = {"id": "t0", "text": "Democrats block the bill", "label": 1, "source": "human"}
    (out / "labeled.jsonl").write_text(
        "[1, 2]\n"
        f'{{"id": "x", "n": {"9" * 5001}}}\n'
        '{"id": 5}\n'
        '"t1"\n'
        f"{json.dumps(done)}\n"
        '{"id": "t1", "te',
        encoding="utf-8",
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO("g\n"))
    code = main(["label", "--corpus", str(corpus), "--out", str(out), "--limit", "2"])
    stdout, stderr = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in stderr
    assert "labeled 1 tweets (skipped 0, already done 1)" in stdout
    assert "[t0]" not in stdout and "[t1]" in stdout


def test_resume_file_not_utf8_names_its_line(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(
        [{"id": "t0", "text": "Men can cook", "like_count": 0, "retweet_count": 0, "lang": "en"}],
        corpus,
    )
    out = tmp_path / "out"
    out.mkdir()
    (out / "labeled.jsonl").write_bytes(b'{"id": "t9", "label": 1}\n{"id": "caf\xe9"}\n')
    monkeypatch.setattr(sys, "stdin", io.StringIO("g\n"))
    assert main(["label", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {out / 'labeled.jsonl'}:2: not UTF-8: invalid continuation byte (byte 0xe9)\n"
    )
