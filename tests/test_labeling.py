import io
import json
import os
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path

import genscope

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


class _Interrupted(io.StringIO):
    """Its text's lines, then what Ctrl-C at the prompt raises."""

    def readline(self, *args):
        line = super().readline(*args)
        if not line:
            raise KeyboardInterrupt
        return line


def test_ctrl_c_ends_the_session_as_q_does(tmp_path):
    tweets = _tweets("Democrats block the bill", "Men can cook", "Liberals are loud")
    out = tmp_path / "labels.jsonl"
    result = label_session(
        tweets, out, input_stream=_Interrupted("\ns\n"), output_stream=io.StringIO()
    )
    assert (result.labeled, result.skipped, result.resumed) == (1, 1, 0)
    assert [r["id"] for r in _read(out)] == ["t0"]


def test_sigint_at_the_prompt_exits_0_with_the_summary(tmp_path):
    # buffered streams and no PYTHONUNBUFFERED, as most shells run it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(genscope.__file__).parents[1])
    corpus = resources.files("genscope.data") / "synthetic_corpus.jsonl"
    out = tmp_path / "lbl"
    process = subprocess.Popen(
        [sys.executable, "-m", "genscope", "label", "--corpus", str(corpus), "--out", str(out)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        process.stdin.write(b"g\n")
        process.stdin.flush()
        # the second prompt: the first answer is written
        seen = b""
        while seen.count(b"q=quit > ") < 2:
            chunk = os.read(process.stdout.fileno(), 4096)
            assert chunk, seen[-500:]
            seen += chunk
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        process.kill()
        process.wait()
    assert process.returncode == 0, stderr.decode()
    assert b"Traceback" not in stderr
    summary = (seen + stdout).decode().splitlines()[-1]
    assert summary == f"labeled 1 tweets (skipped 0, already done 0) -> {out / 'labeled.jsonl'}"
    assert len(_read(out / "labeled.jsonl")) == 1


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


def test_resume_after_line_torn_inside_a_character(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(
        ({"id": f"t{i}", "text": text, "like_count": 0, "retweet_count": 0, "lang": "en"}
         for i, text in enumerate(["Democrats block the bill", "Men can cook"])),
        corpus,
    )
    out = tmp_path / "out"
    out.mkdir()
    labeled = out / "labeled.jsonl"
    done = {"id": "t0", "text": "Democrats block the bill", "label": 1, "source": "human"}
    labeled.write_bytes(json.dumps(done).encode() + b'\n{"id": "t1", "text": "caf\xc3')
    for answers, expected in (("g\n", "labeled 1 tweets (skipped 0, already done 1)"),
                              ("", "labeled 0 tweets (skipped 0, already done 2)")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(answers))
        code = main(["label", "--corpus", str(corpus), "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert (code, stderr) == (0, "")
        assert expected in stdout
    lines = labeled.read_bytes().split(b"\n")
    assert lines[1] == b'{"id": "t1", "text": "caf\xc3'
    assert json.loads(lines[2])["id"] == "t1"
    assert lines[3:] == [b""]


def test_resume_ends_a_torn_line_before_appending(tmp_path):
    tweets = _tweets("Democrats block the bill", "Men can cook", "Cats purr")
    out = tmp_path / "labels.jsonl"
    done = {"id": "t0", "text": "Democrats block the bill", "label": 1, "source": "human"}
    out.write_text(json.dumps(done) + '\n{"id": "t1", "te', encoding="utf-8")
    result = label_session(
        tweets, out, input_stream=io.StringIO("n\nq\n"), output_stream=io.StringIO()
    )
    assert (result.resumed, result.labeled) == (1, 1)
    assert out.read_text(encoding="utf-8").split("\n")[1:] == [
        '{"id": "t1", "te',
        json.dumps({"id": "t1", "label": 0, "source": "human", "text": "Men can cook"}),
        "",
    ]
    # the next session reads t1's label and adds no second newline
    result = label_session(
        tweets, out, input_stream=io.StringIO("g\n"), output_stream=io.StringIO()
    )
    assert (result.resumed, result.labeled) == (2, 1)
    assert [r["id"] for r in _read_complete(out)] == ["t0", "t1", "t2"]


def test_resume_reads_a_label_holding_a_line_separator(tmp_path):
    # json.dumps(ensure_ascii=False) writes U+2028 raw; it ends no line here
    tweets = _tweets("Men can cook")
    out = tmp_path / "labels.jsonl"
    label_session(tweets, out, input_stream=io.StringIO("g\n"), output_stream=io.StringIO())
    result = label_session(
        tweets, out, input_stream=io.StringIO("g\n"), output_stream=io.StringIO()
    )
    assert (result.resumed, result.labeled) == (1, 0)


def _read_complete(path):
    rows = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        try:
            rows.append(json.loads(line))
        except ValueError:
            pass
    return rows
