"""Subcommand flows and exit codes, driven through main(argv)."""

import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
import zlib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import genscope
import genscope.analysis
import genscope.corpus.records
import genscope.labeling
from genscope.analysis import load_published_tables
from genscope.classifier import (
    GenericityModel,
    Vocabulary,
    dumps_model,
    predict_score,
    save_model,
    sigmoid,
)
from genscope.cli import build_parser, main
from genscope.labeling import LabelSessionResult
from genscope.reporting import REPORT_BLOCKS
from genscope.synth import generate_corpus, generate_training_texts

from corpora import write_jsonl

BUNDLED_CORPUS = str(resources.files("genscope.data") / "synthetic_corpus.jsonl")


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_corpus(n=120, seed=3), path)
    return path


@pytest.fixture
def labeled_file(tmp_path):
    texts, labels = generate_training_texts(n=200, seed=5)
    path = tmp_path / "labeled.jsonl"
    write_jsonl(
        ({"text": t, "label": l} for t, l in zip(texts, labels)), path
    )
    return path


# subcommand -> (its required arguments, the shared flags it reads, one it does not)
SUBCOMMAND_FLAGS = {
    "ingest": (["--corpus", "c.jsonl"], ["--out"], "--seed"),
    "annotate": (["--corpus", "c.jsonl"], ["--out"], "--threshold"),
    "train": (["--labeled", "l.jsonl", "--model-out", "m.txt"], ["--seed", "--threshold"], "--out"),
    "eval": (["--labeled", "l.jsonl", "--model", "m.txt"], ["--threshold"], "--format"),
    "classify": (["--corpus", "c.jsonl", "--model", "m.txt"], ["--threshold", "--out"], "--config"),
    "analyze": ([], ["--config", "--seed", "--threshold", "--format", "--out"], "--tables"),
    "report": (["--report", "r.json"], ["--format", "--out"], "--seed"),
    "label": (["--corpus", "c.jsonl"], ["--out"], "--format"),
    "reproduce": ([], [], "--out"),
}
FLAG_VALUES = {
    "--config": "run.cfg", "--seed": "7", "--threshold": "0.6", "--format": "csv",
    "--out": "o", "--tables": "t.csv",
}


class TestFlags:
    """Each subcommand takes exactly the shared flags it reads."""

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_reads_its_flags(self, command):
        required, reads, _ = SUBCOMMAND_FLAGS[command]
        argv = [command, *required]
        for flag in reads:
            argv += [flag, FLAG_VALUES[flag]]
        args = build_parser().parse_args(argv)
        for flag in reads:
            assert str(getattr(args, flag[2:])) == FLAG_VALUES[flag]

    @pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
    def test_rejects_a_flag_it_does_not_read(self, command, capsys):
        required, _, unread = SUBCOMMAND_FLAGS[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *required, unread, FLAG_VALUES[unread]])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {unread}" in capsys.readouterr().err


class TestIngest:
    def test_counts_and_exit_code(self, small_corpus, capsys):
        assert main(["ingest", "--corpus", str(small_corpus)]) == 0
        out = capsys.readouterr().out
        assert "accepted: 120" in out

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", "--corpus", str(tmp_path / "nope.jsonl")]) == 2

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest"])  # --corpus missing
        assert exc.value.code == 1

    def test_out_writes_accepted(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["ingest", "--corpus", str(small_corpus), "--out", str(out)]) == 0
        assert (out / "accepted.jsonl").exists()


class TestAnnotate:
    def test_writes_annotations(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["annotate", "--corpus", str(small_corpus), "--out", str(out)]) == 0
        rows = [
            json.loads(l)
            for l in (out / "annotations.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 120
        assert {"id", "label", "kind", "reason", "rule"} <= set(rows[0])

    def test_prints_verdict_counts(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        texts = [
            "Democrats glorify the killing of the unborn.",
            "Men can cook",
            "Democrats blocked the bill",
        ]
        records = list(generate_corpus(n=3, seed=1))
        for record, text in zip(records, texts):
            record["text"] = text
        write_jsonl(records, corpus)
        argv = ["annotate", "--corpus", str(corpus), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines[0] == "kinds:"
        assert sorted(lines[1:3]) == ["       1  bare", "       1  hedged"]
        assert lines[3:] == ["exclusion reasons:", "       1  past_tense_only"]


class TestTrainEvalClassify:
    def test_full_model_lifecycle(self, labeled_file, small_corpus, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        assert main([
            "train", "--labeled", str(labeled_file),
            "--model-out", str(model_path), "--epochs", "200",
        ]) == 0
        assert model_path.exists()

        assert main(["eval", "--labeled", str(labeled_file), "--model", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

        scores_dir = tmp_path / "scores"
        assert main([
            "classify", "--corpus", str(small_corpus),
            "--model", str(model_path), "--out", str(scores_dir),
        ]) == 0
        rows = [
            json.loads(l)
            for l in (scores_dir / "scores.jsonl").read_text().splitlines()
        ]
        assert len(rows) == 120
        assert all(0.0 <= r["score"] <= 1.0 for r in rows)
        assert all(r["label"] in ("generic", "non_generic") for r in rows)

    def test_train_rejects_bad_labels(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        for line in ('{"text": "x", "label": 2}', '["x", 1]'):
            bad.write_text(line + "\n")
            assert main(["train", "--labeled", str(bad), "--model-out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--epochs", "0", "learning_rate must be > 0 and epochs >= 1"),
            ("--min-count", "0", "min_count must be >= 1"),
            ("--l2", "nan", "l2 penalty must be finite; got nan"),
            ("--l2", "-1", "l2 penalty must be >= 0"),
            ("--learning-rate", "inf", "learning_rate must be finite; got inf"),
            ("--threshold", "1.5", "threshold must be in (0, 1); got 1.5"),
            # at learning rate 0.1 training reaches eta = 0.1 / 2**37, and an
            # l2 of 2 / eta = 2.749e12 or more cannot shrink the weights
            ("--l2", "2.8e12", "l2 penalty must be < 2748779069440.0 at learning_rate 0.1, "
             "or the penalty cannot shrink the weights; lower --l2"),
            ("--l2", "2.7e12", "[Errno 2] No such file or directory: '{labeled}'"),
        ],
    )
    def test_train_checks_flags_before_reading_labeled(
        self, flag, value, message, tmp_path, capsys
    ):
        labeled = tmp_path / "missing.jsonl"
        message = message.format(labeled=labeled)
        argv = ["train", "--labeled", str(labeled),
                "--model-out", str(tmp_path / "m.txt"), flag, value]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "m.txt").exists()

    def test_train_overflow_is_one_error_line(self, labeled_file, tmp_path, capsys):
        argv = ["train", "--labeled", str(labeled_file), "--model-out", str(tmp_path / "m.txt"),
                "--learning-rate", "1e308"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss") and err.count("\n") == 1

    # sha256 of train's and eval's stdout and of the model file, training on
    # generate_training_texts(n=400, seed=7) for 60 epochs: the vocabulary,
    # every weight and every printed metric, to the byte.
    GOLDEN_TRAIN_SHA256 = {
        "train": "19501e52f352c367949765b6fd297b9124bda3fe26637d8402db52c41b439138",
        "eval": "c3fadfdc5436df2aa41afeccb546718627bac510f996272415657710891c0e1a",
        "model": "9bfe30ca8d68f31594d83641ef2f250005e6ed0fc482a33365d14ff65c738087",
    }

    def test_train_and_eval_match_golden_hashes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # train prints the model path
        texts, labels = generate_training_texts(n=400, seed=7)
        write_jsonl(({"text": t, "label": l} for t, l in zip(texts, labels)), "labeled.jsonl")
        digests = {}
        for name, argv in (
            ("train", ["train", "--labeled", "labeled.jsonl", "--model-out", "model.txt",
                       "--epochs", "60"]),
            ("eval", ["eval", "--labeled", "labeled.jsonl", "--model", "model.txt"]),
        ):
            assert main(argv) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        digests["model"] = hashlib.sha256(Path("model.txt").read_bytes()).hexdigest()
        assert digests == self.GOLDEN_TRAIN_SHA256

    # sha256 of model mode's outputs on the bundled corpus: analyze --model's
    # report.json and classify's scores.jsonl, with a model trained on
    # generate_training_texts(n=300, seed=5); every score, to the byte.
    GOLDEN_MODEL_MODE_SHA256 = {
        "model": "2b06790cd834572445c23d2c166533e59b3179ce1f6b2dd23b0ef08e0d4d2779",
        "report": "b9d2dcead1cc3b4b999f5eb931a4bc831bb96c488915096a8d20f35b48c8c7f9",
        "scores": "959ab62b362b27a3cd1856066e9acd2b839788ab1a75d9e6af9ebf01047a4956",
    }

    def test_model_mode_matches_golden_hashes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # report.json names the corpus path
        Path("corpus.jsonl").write_bytes(Path(BUNDLED_CORPUS).read_bytes())
        texts, labels = generate_training_texts(n=300, seed=5)
        write_jsonl(({"text": t, "label": l} for t, l in zip(texts, labels)), "labeled.jsonl")
        for argv in (
            ["train", "--labeled", "labeled.jsonl", "--model-out", "model.txt", "--epochs", "40"],
            ["analyze", "--corpus", "corpus.jsonl", "--model", "model.txt", "--out", "a"],
            ["classify", "--corpus", "corpus.jsonl", "--model", "model.txt", "--out", "c"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in (
                ("model", "model.txt"), ("report", "a/report.json"), ("scores", "c/scores.jsonl"),
            )
        }
        assert digests == self.GOLDEN_MODEL_MODE_SHA256

    def _one_word_model(self, tmp_path):
        """Weight 3.0 on "zebra", bias 0.7: texts without "zebra" score sigmoid(0.7)."""
        model = GenericityModel(
            weights=np.array([3.0]),
            bias=0.7,
            vocab=Vocabulary(index={"zebra": 0}, min_count=1),
        )
        path = tmp_path / "model.txt"
        save_model(model, path)
        return path

    # the out-of-vocabulary texts come last, so they are trailing empty rows
    OOV_TEXTS = ["zebra", "cats and dogs", "nothing known here"]

    def test_eval_scores_oov_text_at_sigmoid_bias(self, tmp_path, capsys):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(
            ({"text": t, "label": l} for t, l in zip(self.OOV_TEXTS, [1, 0, 1])), labeled
        )
        model = self._one_word_model(tmp_path)
        # sigmoid(0.7) = 0.668 >= 0.6 > 0.5: both OOV texts are called generic
        # only if their score includes the bias
        argv = ["eval", "--labeled", str(labeled), "--model", str(model), "--threshold", "0.6"]
        assert main(argv) == 0
        assert "confusion: TP=2 FP=1 TN=0 FN=0" in capsys.readouterr().out

    def test_classify_scores_oov_text_at_sigmoid_bias(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = list(generate_corpus(n=3, seed=1))
        for record, text in zip(records, self.OOV_TEXTS):
            record["text"] = text
        write_jsonl(records, corpus)
        out = tmp_path / "scores"
        model = self._one_word_model(tmp_path)
        argv = ["classify", "--corpus", str(corpus), "--model", str(model), "--out", str(out)]
        assert main(argv) == 0
        rows = [json.loads(l) for l in (out / "scores.jsonl").read_text().splitlines()]
        expected = sigmoid(np.array([3.7, 0.7, 0.7])).tolist()
        assert [r["score"] for r in rows] == expected

    def test_classify_score_at_threshold_is_generic(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = list(generate_corpus(n=1, seed=1))
        records[0]["text"] = "cats and dogs"  # out of vocabulary: sigmoid(0.7)
        write_jsonl(records, corpus)
        model = self._one_word_model(tmp_path)
        score = sigmoid(np.array([0.7])).tolist()[0]
        labels = []
        for tau in (score, np.nextafter(score, 1.0)):
            out = tmp_path / "scores"
            argv = ["classify", "--corpus", str(corpus), "--model", str(model),
                    "--out", str(out), "--threshold", repr(float(tau))]
            assert main(argv) == 0
            (row,) = [json.loads(l) for l in (out / "scores.jsonl").read_text().splitlines()]
            assert row["score"] == score
            labels.append(row["label"])
        assert labels == ["generic", "non_generic"]

    def test_classify_scores_each_block_in_one_call(
        self, labeled_file, tmp_path, monkeypatch, capsys
    ):
        model = tmp_path / "model.txt"
        assert main(["train", "--labeled", str(labeled_file), "--model-out", str(model)]) == 0
        outputs = []
        for block in (1, 3, 256):
            monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
            rows = []

            def scoring(model, features):
                rows.append(len(features))
                return predict_score(model, features)

            monkeypatch.setattr(genscope.analysis, "predict_score", scoring)
            out = tmp_path / f"out{block}"
            argv = ["classify", "--corpus", BUNDLED_CORPUS, "--model", str(model),
                    "--out", str(out)]
            assert main(argv) == 0
            # the 2,000 bundled tweets, all accepted, one call per block
            full, rest = divmod(2000, block)
            assert rows == [block] * full + [rest] * (rest > 0)
            outputs.append((out / "scores.jsonl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count(b"\n") == 2000

    def _no_vocab_model(self, tmp_path):
        """A CRC-valid bag-of-words model whose [vocab] section is empty."""
        model = GenericityModel(weights=np.array([3.0]), bias=0.7)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert "[vocab]\n[weights]\n" in path.read_text()
        return path

    def test_eval_rejects_model_without_vocab(self, labeled_file, tmp_path, capsys):
        model = self._no_vocab_model(tmp_path)
        assert main(["eval", "--labeled", str(labeled_file), "--model", str(model)]) == 2
        assert "need a bag-of-words model with a [vocab] section" in capsys.readouterr().err

    def test_classify_rejects_model_without_vocab(self, small_corpus, tmp_path, capsys):
        model = self._no_vocab_model(tmp_path)
        for command in ("classify", "analyze"):  # analyze --model loads it the same way
            out = tmp_path / command
            argv = [command, "--corpus", str(small_corpus), "--model", str(model),
                    "--out", str(out)]
            assert main(argv) == 2
            assert "need a bag-of-words model with a [vocab] section" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("tau", ["0", "1", "7", "nan"])
    @pytest.mark.parametrize("command", ["eval", "classify"])
    def test_threshold_outside_unit_interval_rejected(
        self, command, tau, small_corpus, labeled_file, tmp_path, capsys
    ):
        model = self._one_word_model(tmp_path)
        out = tmp_path / "scores"
        if command == "eval":
            argv = ["eval", "--labeled", str(labeled_file), "--model", str(model)]
        else:
            argv = ["classify", "--corpus", str(small_corpus), "--model", str(model),
                    "--out", str(out)]
        assert main(argv + ["--threshold", tau]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: threshold must be in (0, 1); got {float(tau)!r}\n"
        assert not out.exists()


class TestMalformedJson:
    """Malformed JSON in an input file exits 2 with one error line."""

    @pytest.mark.parametrize(
        "argv, content",
        [
            (["train", "--labeled", "{bad}", "--model-out", "m"],
             '{"text": "fine", "label": 1}\n{"text": oops}\n'),
            (["eval", "--labeled", "{bad}", "--model", "m"],
             '{"text": "fine", "label": 1}\n{"text": oops}\n'),
            (["report", "--report", "{bad}", "--out", "o"], '{\n  "h1": ,\n}\n'),
        ],
        ids=["train", "eval", "report"],
    )
    def test_exit_2_without_traceback(self, argv, content, tmp_path):
        bad = tmp_path / "bad.json"
        stderr = self._run_exit_2(argv, bad, content, tmp_path)
        assert stderr.startswith(f"error: {bad}:2: invalid JSON: ")

    @pytest.mark.parametrize(
        "content, fmt",
        [
            (content, fmt)
            for fmt in ("markdown", "csv")
            for content in ["[]\n", "{}\n", json.dumps({block: {} for block in REPORT_BLOCKS})]
        ],
        ids=[
            "list", "empty", "blocks-without-keys",
            "list-csv", "empty-csv", "blocks-without-keys-csv",
        ],
    )
    def test_report_that_is_not_a_report(self, content, fmt, tmp_path):
        bad = tmp_path / "bad.json"
        argv = ["report", "--report", "{bad}", "--format", fmt, "--out", "o"]
        stderr = self._run_exit_2(argv, bad, content, tmp_path)
        assert stderr.startswith(f"error: {bad}: not a genscope report")
        assert not (tmp_path / "o").exists()

    def test_report_with_long_histogram_name(self, small_corpus, tmp_path, capsys):
        # genericity_hist_<name>.csv would be over the 255-byte file-name limit
        assert main(["analyze", "--corpus", str(small_corpus), "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        hists = report["descriptives"]["score_histograms"]
        hists["x" * 300] = hists["overall"]
        bad = tmp_path / "bad.json"
        argv = ["report", "--report", "{bad}", "--out", "o"]
        stderr = self._run_exit_2(argv, bad, json.dumps(report), tmp_path)
        assert stderr.startswith(f"error: {bad}: not a genscope report")
        assert not (tmp_path / "o").exists()

    def test_report_with_an_edited_number(self, small_corpus, tmp_path, capsys):
        assert main(["analyze", "--corpus", str(small_corpus), "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        report["h3"]["political_vs_gender"]["chi_square"]["p"] += 1
        bad = tmp_path / "bad.json"
        argv = ["report", "--report", "{bad}", "--out", "o"]
        stderr = self._run_exit_2(argv, bad, json.dumps(report), tmp_path)
        assert stderr.startswith(
            f"error: {bad}: inconsistent report: h3.political_vs_gender.chi_square.p: "
        )
        assert not (tmp_path / "o").exists()

    def test_model_with_malformed_field(self, labeled_file, tmp_path):
        model = GenericityModel(weights=np.array([3.0]), bias=0.7)
        text = dumps_model(model).replace("\ndimension 1\n", "\ndimension abc\n")
        body = text[: text.rindex("checksum ")]
        content = body + f"checksum {zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n"
        bad = tmp_path / "model.txt"
        argv = ["eval", "--labeled", str(labeled_file), "--model", "{bad}"]
        stderr = self._run_exit_2(argv, bad, content, tmp_path)
        assert stderr.startswith(f"error: {bad}: dimension: 'abc'")

    @staticmethod
    def _run_exit_2(argv, bad, content, tmp_path):
        """Run the CLI on ``bad``; it must exit 2 with one error line."""
        bad.write_text(content)
        argv = [str(bad) if a == "{bad}" else a for a in argv]
        env = dict(os.environ, PYTHONPATH=str(Path(genscope.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "genscope", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        return proc.stderr


class TestMalformedText:
    """A bad value or a non-UTF-8 byte in a text input exits 2 with one
    error line (analyze may log directive warnings before it)."""

    @staticmethod
    def _run(argv, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(genscope.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "genscope", *map(str, argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in proc.stderr
        return proc

    def _error_line(self, argv, tmp_path):
        proc = self._run(argv, tmp_path)
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error: ")]
        assert errors == [proc.stderr.splitlines()[-1]]
        return errors[0]

    def test_config_value_not_a_number(self, small_corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {small_corpus}\nseed = 1.5\n")
        line = self._error_line(["analyze", "--config", cfg], tmp_path)
        assert line == "error: config line 2: seed must be an integer, not '1.5'"

    def test_tables_value_not_a_number(self, tmp_path):
        tables = tmp_path / "tables.csv"
        text = (resources.files("genscope.data") / "published_tables.csv").read_text()
        tables.write_text(text.replace("h3.gender.generic,31846", "h3.gender.generic,abc"))
        line = self._error_line(["reproduce", "--tables", tables], tmp_path)
        assert line == "error: tables line 6: h3.gender.generic: 'abc' is not a number"

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--corpus", b'{"id": "1", "text": "caf\xe9"}\n'),
            ("--query", b"(trump OR caf\xe9)\n"),
            ("--group-lexicon", b"political\tcaf\xe9\n"),
            ("--valence-lexicon", b"caf\xe9\t0.5\n"),
            ("--config", b"corpus = corpus.jsonl\n# caf\xe9\n"),
            ("--tables", b"key,value\n# caf\xe9\n"),
        ],
        ids=["corpus", "query", "group-lexicon", "valence-lexicon", "config", "tables"],
    )
    def test_input_not_utf8(self, small_corpus, flag, content, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(content)
        if flag == "--corpus":
            argv = ["ingest", "--corpus", bad]
        elif flag == "--tables":
            argv = ["reproduce", "--tables", bad]
        else:
            argv = ["analyze", "--corpus", small_corpus, flag, bad, "--out", "o"]
        line = self._error_line(argv, tmp_path)
        number = content[: content.index(b"\xe9")].count(b"\n") + 1
        assert line == f"error: {bad}:{number}: not UTF-8: invalid continuation byte (byte 0xe9)"

    def test_external_sentiment_line_not_an_object(self, small_corpus, tmp_path):
        labels = tmp_path / "labels.jsonl"
        labels.write_text('[1, 2]\n"x"\n{"id": "1", "sentiment": "negative"}\n')
        argv = ["analyze", "--corpus", small_corpus, "--external-sentiment", labels,
                "--out", "o"]
        assert self._run(argv, tmp_path).returncode == 0
        assert (tmp_path / "o" / "report.json").exists()

    def test_external_sentiment_rejected_line_is_logged(self, small_corpus, tmp_path):
        labels = tmp_path / "labels.jsonl"
        labels.write_text('[1, 2]\n{"id": "1", "sentiment": "negative"}\n')
        argv = ["analyze", "--corpus", small_corpus, "--external-sentiment", labels,
                "--out", "o"]
        proc = self._run(argv, tmp_path)
        assert proc.returncode == 0
        assert f"{labels}: 1 rejected line(s) skipped: record must be a JSON object (1)" \
            in proc.stderr.splitlines()

    def test_train_l2_that_overflows_names_l2(self, labeled_file, tmp_path):
        # the penalty 0.5 * l2 * w.w could only grow until it overflowed, so
        # the l2 is rejected before training, not blamed on the features
        argv = ["train", "--labeled", labeled_file, "--model-out", "m.txt", "--l2", "1e308"]
        line = self._error_line(argv, tmp_path)
        assert line.startswith("error: l2 penalty must be < ")
        assert line.endswith("; lower --l2")
        assert "feature scaling" not in line
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("width", ["1e-300", "0.3"])
    def test_histogram_width_must_divide_one(self, small_corpus, tmp_path, width):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {small_corpus}\nhistogram_bin_width = {width}\n")
        line = self._error_line(["analyze", "--config", cfg], tmp_path)
        assert line == (
            "error: histogram_bin_width must be in [0.001, 0.5] and divide 1 "
            f"into whole bins, not {float(width)!r}"
        )


class TestAnalyze:
    def test_annotator_mode(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main([
            "analyze", "--corpus", str(small_corpus), "--out", str(out),
            "--format", "markdown",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        for block in ("h1", "h2", "h3", "h4", "h5"):
            assert block in report
        assert (out / "report.md").exists()

    def test_model_mode(self, small_corpus, labeled_file, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        main(["train", "--labeled", str(labeled_file), "--model-out", str(model_path),
              "--epochs", "200"])
        out = tmp_path / "rep"
        assert main([
            "analyze", "--corpus", str(small_corpus), "--model", str(model_path),
            "--out", str(out), "--format", "csv",
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["provenance"]["mode"] == "model"
        assert (out / "report.csv").exists()

    def test_config_file_drives_run(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "rep"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus = {small_corpus}\nout_dir = {out}\nformat = csv\n")
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (out / "report.csv").exists()

    def test_missing_corpus_argument(self, capsys):
        assert main(["analyze"]) == 2


class TestReportCommand:
    def test_reemits_tables(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["analyze", "--corpus", str(small_corpus), "--out", str(out)])
        again = tmp_path / "again"
        assert main([
            "report", "--report", str(out / "report.json"),
            "--format", "csv", "--out", str(again),
        ]) == 0
        assert (again / "report.csv").exists()

    def test_unreadable_report_is_data_error(self, tmp_path, capsys):
        assert main(["report", "--report", str(tmp_path)]) == 2  # a directory

    def test_json_round_trip_is_exact(self, small_corpus, tmp_path, capsys):
        # re-emitting from report.json must reproduce it byte for byte:
        # float serialization round-trips exactly
        out = tmp_path / "rep"
        main(["analyze", "--corpus", str(small_corpus), "--out", str(out)])
        again = tmp_path / "again"
        main(["report", "--report", str(out / "report.json"), "--out", str(again)])
        assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()


class TestLabelCommand:
    def test_accept_suggestions(self, small_corpus, tmp_path, capsys, monkeypatch):
        out = tmp_path / "labels"
        monkeypatch.setattr("sys.stdin", io.StringIO("\n\n\nq\n"))
        assert main([
            "label", "--corpus", str(small_corpus), "--out", str(out), "--limit", "3",
        ]) == 0
        rows = (out / "labeled.jsonl").read_text().splitlines()
        assert len(rows) == 3


    @pytest.mark.parametrize("limit", ["0", "-3", "2.5", "x"])
    def test_limit_below_one_is_a_usage_error(self, small_corpus, tmp_path, capsys, limit):
        out = tmp_path / "labels"
        with pytest.raises(SystemExit) as exc:
            main(["label", "--corpus", str(small_corpus), "--out", str(out), "--limit", limit])
        assert exc.value.code == 1
        assert f"--limit: need an integer of at least 1, not '{limit}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_keeps_the_first_limit_tweets(self, small_corpus, tmp_path, monkeypatch, block):
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
        sessions = []

        def session(tweets, path):
            sessions.append([t.id for t in tweets])
            return LabelSessionResult(0, 0, 0, path)

        monkeypatch.setattr(genscope.labeling, "label_session", session)
        ids = [json.loads(line)["id"] for line in small_corpus.read_text().splitlines()]
        for limit in ("1", "5", "119", "120", "500", None):
            argv = ["label", "--corpus", str(small_corpus), "--out", str(tmp_path / "o")]
            assert main(argv + (["--limit", limit] if limit else [])) == 0
        assert sessions == [ids[:1], ids[:5], ids[:119], ids, ids, ids]


class TestBlasThreads:
    """Importing genscope starts numpy with one OpenBLAS thread unless the
    caller chose a count, and leaves the caller's environment as it was."""

    # run in a fresh process: prints OpenBLAS's own thread count, read
    # through the library numpy loaded (whose symbols carry a build-specific
    # prefix and suffix), and whether the environment stayed as it was
    PROBE = (
        "import ctypes, glob, os\n"
        "before = dict(os.environ)\n"
        "import genscope, numpy\n"
        "libs = os.path.dirname(numpy.__file__) + '.libs'\n"
        "blas = ctypes.CDLL(glob.glob(os.path.join(libs, '*openblas*'))[0])\n"
        "names = [p + 'openblas_get_num_threads' + s\n"
        "         for p in ('', 'scipy_') for s in ('', '64_')]\n"
        "get = next(getattr(blas, n) for n in names if hasattr(blas, n))\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "print(get(), dict(os.environ) == before)\n"
    )

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_openblas_threads_default(self, preset, expected):
        env = dict(os.environ, PYTHONPATH=str(Path(genscope.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            env=env, capture_output=True, text=True, check=True,
        )
        threads, unchanged = proc.stdout.split()
        assert threads == str(min(int(expected), os.cpu_count()))
        assert unchanged == "True"


class TestNoMaskedArrays:
    """No command imports ``numpy.ma`` (about 11 ms a process): np.median and a
    bare np.unique would, to test for a masked array."""

    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        texts, labels = generate_training_texts(n=300, seed=5)
        write_jsonl(({"text": t, "label": l} for t, l in zip(texts, labels)),
                    tmp_path / "labeled.jsonl")
        probe = (
            "import sys\n"
            "from genscope.cli import main\n"
            f"corpus = {BUNDLED_CORPUS!r}\n"
            "for argv in (\n"
            "    ['train', '--labeled', 'labeled.jsonl', '--model-out', 'model.txt',\n"
            "     '--epochs', '5'],\n"
            "    ['eval', '--labeled', 'labeled.jsonl', '--model', 'model.txt'],\n"
            "    ['analyze', '--corpus', corpus, '--out', 'a'],\n"
            "    ['analyze', '--corpus', corpus, '--model', 'model.txt', '--out', 'm'],\n"
            "):\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(genscope.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stderr.splitlines()[-1] == "False"


class TestReproduce:
    def test_bundled_passes(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "all 24 checks passed" in out

    def test_perturbed_cell_exits_3(self, tmp_path, capsys):
        tables = load_published_tables()
        tables["h1.generic"] += 1000
        path = tmp_path / "tables.csv"
        path.write_text(
            "key,value\n" + "\n".join(f"{k},{v}" for k, v in tables.items()) + "\n"
        )
        assert main(["reproduce", "--tables", str(path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_zero_marginal_fails_its_checks(self, tmp_path, capsys):
        # no generic gender tweets: the H4 omnibus and both gender pairs are
        # skipped, so their checks read nan and fail; the rest still pass
        tables = load_published_tables()
        for sentiment in ("positive", "neutral", "negative"):
            tables[f"h4.{sentiment}.gender"] = 0
        path = tmp_path / "tables.csv"
        path.write_text(
            "key,value\n" + "\n".join(f"{k},{v}" for k, v in tables.items()) + "\n"
        )
        assert main(["reproduce", "--tables", str(path)]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line.split(":")[0] for line in lines if line.startswith("[FAIL]")]
        assert failed == [
            "[FAIL] h4 omnibus chi2", "[FAIL] h4 omnibus V",
            "[FAIL] h4 political-gender chi2", "[FAIL] h4 political-gender phi",
            "[FAIL] h4 political-gender OR", "[FAIL] h4 political-gender CI low",
            "[FAIL] h4 political-gender CI high",
            "[FAIL] h4 gender-ethnic chi2", "[FAIL] h4 gender-ethnic OR",
        ]
        assert all(": computed nan," in line for line in lines if line.startswith("[FAIL]"))
        assert lines[-1] == "9 of 24 checks FAILED"

    def test_unreadable_tables_is_data_error(self, tmp_path):
        assert main(["reproduce", "--tables", str(tmp_path / "nope.csv")]) == 2
