"""genscope benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload analyze-annotator --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Set-up writes seeded input files
under ``.perfbench_work/`` and the program receives only those files.

``--trace 0`` times the real CLI (``python -m genscope ...``): one fresh
subprocess per call, one call at a time, in a closed loop with a single
client, every output checked after each call. Timed seconds are calibrated
against ``reference.py``, run before and after each operation and set-up,
because the host's speed drifts (see ``Calibration``). ``--trace 1`` instead calls
``genscope.cli.main`` in-process, alternating untraced calls with calls
under the layer tracer (``tracer.py``), and reports per-layer numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--record FILE``
also appends the full result, with every sample, to a JSON Lines file
that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gen import CORPUS, EXTERNAL, HOLDOUT, LABELED, MODEL

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TRAIN_EPOCHS = 20
MODEL_EPOCHS = 10
EVAL_ACCURACY_FLOOR = 0.85
SETUP_REPEATS = 3
MIN_TIMED_OPS = 3
# Seconds that reference.py takes on the nominal host; timed-run metrics are
# scaled to it (see Calibration).
REFERENCE_S = 1.0

WORKLOADS = ("analyze-annotator", "analyze-model", "train")


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, seed: int, where: Path) -> int:
    """Write the workload's inputs into ``where`` (the CLI's working
    directory) in a child process; returns the number of texts one
    operation gives the program."""
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("gen.py")),
         "--workload", workload, "--seed", str(seed), "--dir", str(where)],
        check=True,
    )
    if workload == "analyze-model":
        call = run_cli(
            ["train", "--labeled", LABELED, "--model-out", MODEL,
             "--epochs", str(MODEL_EPOCHS)],
            where,
        )
        if call.exit_code != 0:
            raise RuntimeError(f"set-up training failed: {call.stderr[-500:]}")
    inputs = [LABELED, HOLDOUT] if workload == "train" else [CORPUS]
    return sum(count_lines(where / name) for name in inputs)


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def input_digest(where: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(where.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# calibrating the host


def run_reference(cwd: Path) -> float:
    """Wall seconds of one fresh ``reference.py`` process."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True,
    )
    return time.perf_counter() - start


class Calibration:
    """Scales measured seconds to the nominal host.

    The host's speed drifts by tens of percent over minutes, so raw seconds
    of two runs made at different times do not compare. Each measured piece
    of work is bracketed by runs of the fixed reference program; its
    seconds, times ``REFERENCE_S`` over the mean of the two reference times
    around it, are the seconds it would take on a host where the reference
    takes ``REFERENCE_S``. The program under test does not change the
    reference, so a faster program still reads faster.
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.reference_s: list[float] = []

    def start(self) -> None:
        """Run the reference before the next measured piece of work."""
        self.reference_s.append(run_reference(self.cwd))

    def around(self) -> float:
        """Mean reference seconds around the work done since the last
        reference run; the closing run also opens the next piece."""
        self.reference_s.append(run_reference(self.cwd))
        return sum(self.reference_s[-2:]) / 2


# ---------------------------------------------------------------------------
# calling the program


@dataclass
class Call:
    exit_code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_cli(argv: list[str], cwd: Path) -> Call:
    """One fresh ``python -m genscope`` process; waits for it to end."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd.parent / "stdout.txt", "w+b") as out, open(cwd.parent / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "genscope", *argv],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Call(
            proc.returncode, wall, usage.ru_maxrss,
            out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"),
        )


@contextlib.contextmanager
def working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_inprocess(argv: list[str], cwd: Path, tracer=None) -> Call:
    """``genscope.cli.main(argv)`` in this process, optionally traced."""
    from genscope.cli import main

    out, err = io.StringIO(), io.StringIO()
    with working_directory(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.call(main, argv) if tracer is not None else main(argv)
        except SystemExit as exc:  # usage errors, as the CLI would exit
            code = exc.code
        except Exception:  # a crash fails this operation, not the run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return Call(code, wall, 0, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# operations and their output checks


def analyze_argv(workload: str) -> list[str]:
    argv = ["analyze", "--corpus", CORPUS, "--out", "out"]
    if workload == "analyze-model":
        argv += ["--model", MODEL, "--external-sentiment", EXTERNAL]
    return argv


def check_analyze(call: Call, cwd: Path, lines: int) -> tuple[list[str], str | None]:
    """Problems with one ``analyze`` call, and the sha256 of its report."""
    if call.exit_code != 0:
        return [f"analyze exited {call.exit_code}: {call.stderr[-300:]}"], None
    try:
        raw = (cwd / "out" / "report.json").read_bytes()
        report = json.loads(raw)
        ingest, parts = report["ingest"], report["partition"]
        analyzed = report["descriptives"]["analyzed_tweets"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report.json: {exc!r}"], None
    problems = []
    if ingest["accepted"] + ingest["rejected"] != lines:
        problems.append(f"ingest {ingest} does not cover {lines} lines")
    if sum(parts.values()) != ingest["accepted"]:
        problems.append(f"partition {parts} does not sum to accepted")
    if analyzed != parts["political"] + parts["gender"] + parts["ethnic"]:
        problems.append(f"analyzed_tweets {analyzed} != single-group buckets")
    return problems, hashlib.sha256(raw).hexdigest()


_ACCURACY_RE = re.compile(r"accuracy = ([0-9.]+)")


def check_train(call: Call, cwd: Path) -> tuple[list[str], str | None]:
    if call.exit_code != 0:
        return [f"train exited {call.exit_code}: {call.stderr[-300:]}"], None
    from genscope.classifier import load_model
    from genscope.errors import GenscopeError

    try:
        model = load_model(cwd / MODEL)  # verifies version and CRC-32
    except (OSError, GenscopeError) as exc:
        return [f"model file does not load: {exc}"], None
    problems = [] if model.vocab is not None else ["model has no vocabulary"]
    return problems, hashlib.sha256((cwd / MODEL).read_bytes()).hexdigest()


def check_eval(call: Call) -> list[str]:
    if call.exit_code != 0:
        return [f"eval exited {call.exit_code}: {call.stderr[-300:]}"]
    match = _ACCURACY_RE.search(call.stdout)
    if match is None:
        return ["eval printed no accuracy"]
    if float(match.group(1)) < EVAL_ACCURACY_FLOOR:
        return [f"eval accuracy {match.group(1)} below {EVAL_ACCURACY_FLOOR}"]
    return []


@dataclass
class Run:
    """Operations attempted in one run, with their checks."""

    workload: str
    cwd: Path
    texts: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: set[str] = field(default_factory=set)

    def _record(self, problems: list[str], digest: str | None) -> None:
        self.attempted += 1
        if digest is not None:
            self.digests.add(digest)
            if len(self.digests) > 1:
                problems = problems + ["output differs from an earlier call"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def op(self, call_fn) -> list[Call]:
        """One timed unit: ``analyze``, or ``train`` then ``eval``."""
        if self.workload == "train":
            train = call_fn(
                ["train", "--labeled", LABELED, "--model-out", MODEL,
                 "--epochs", str(TRAIN_EPOCHS)],
                self.cwd,
            )
            self._record(*check_train(train, self.cwd))
            evaluation = call_fn(["eval", "--labeled", HOLDOUT, "--model", MODEL], self.cwd)
            self._record(check_eval(evaluation), None)
            return [train, evaluation]
        call = call_fn(analyze_argv(self.workload), self.cwd)
        self._record(*check_analyze(call, self.cwd, self.texts))
        return [call]


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(run: Run, seconds: float, calibration: Calibration) -> tuple[dict, dict]:
    run_cli(["reproduce"], run.cwd)  # compile bytecode, warm the file cache
    calibration.start()
    raw, around, rss = [], [], []
    start = time.perf_counter()
    while len(raw) < MIN_TIMED_OPS or time.perf_counter() - start < seconds:
        calls = run.op(run_cli)
        raw.append(sum(c.wall_s for c in calls))
        around.append(calibration.around())
        rss.extend(c.maxrss_kb for c in calls)
    # Total calibrated time over operations: steadier than the median of
    # per-operation ratios, as one slow reference run weighs less.
    wall = REFERENCE_S * sum(raw) / sum(around)
    metrics = {
        "wall_s": (wall, "s"),
        "texts_per_s": (run.texts / wall, "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }
    return metrics, {"raw_wall_s": raw, "reference_around_s": around, "maxrss_kb": rss}


def traced_run(run: Run, seconds: float) -> tuple[dict, dict]:
    from tracer import ROOT_SPAN, Tracer

    run_inprocess(["reproduce"], run.cwd)  # load every module before timing
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(sum(c.wall_s for c in run.op(run_inprocess)))
        with Tracer() as tracer:
            run.op(lambda argv, cwd: run_inprocess(argv, cwd, tracer))
        traced.append((tracer.total_s[ROOT_SPAN], tracer))
    # Report the traced operation of median wall time whole, so that its
    # self times and trace.unattributed_s add up to its trace.wall_s.
    wall, tracer = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer, run.texts)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (wall / statistics.median(plain) - 1.0, "ratio")
    samples = {"untraced_wall_s": plain, "traced_wall_s": [t[0] for t in traced],
               "trace": tracer.summary()}
    return metrics, samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, texts: int) -> dict:
    """Per-layer metrics of one traced operation."""
    from tracer import ROOT_SPAN, SPANS

    out = {f"{name}.self_s": (tracer.self_s[name], "s") for name in SPANS}
    counts = tracer.counts
    out.update({
        "corpus.ingest.rejected_ratio": (
            _ratio(tracer.ingest_rejected, tracer.ingest_lines), "ratio"),
        "corpus.match_groups.calls": (counts["match_groups"], "count"),
        "classifier.tokenize.calls_per_text": (
            counts["tokenize"] / texts, "calls/text"),
        "annotator.annotate.calls": (counts["annotate"], "count"),
        "classifier.predict_score.calls": (counts["predict_score"], "count"),
        "classifier.loss_and_gradient.calls": (
            counts["loss_and_gradient"], "count"),
        "classifier.step_accept_ratio": (
            _ratio(tracer.epochs, counts["loss_and_gradient"]), "ratio"),
        "classifier.feature_matrix_mb": (tracer.feature_matrix_bytes / 2**20, "MB"),
        "sentiment.external_share": (
            _ratio(tracer.external_labels, counts["label"]), "ratio"),
        "trace.unattributed_s": (tracer.self_s[ROOT_SPAN], "s"),
    })
    return out


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", type=Path, help="append the full result to this JSON Lines file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "genscope" / "__init__.py").is_file():
        print(f"error: no genscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    calibration = Calibration(base)
    try:
        try:
            setups, digests = [], set()
            calibration.start()
            for i in range(1 if args.trace else SETUP_REPEATS):
                where = base / f"setup{i}"
                start = time.perf_counter()
                texts = set_up(args.workload, args.seed, where)
                setups.append(REFERENCE_S * (time.perf_counter() - start) / calibration.around())
                digests.add(input_digest(where))
        except (subprocess.CalledProcessError, RuntimeError, OSError) as exc:
            # A set-up that fails is a failed operation, not a crash.
            print(f"check failed: set-up: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1

        run = Run(args.workload, base / "setup0", texts)
        if len(digests) > 1:
            run.problems.append("set-up is not deterministic for one seed")
        if args.trace:
            metrics, samples = traced_run(run, args.seconds)
        else:
            metrics, samples = timed_run(run, args.seconds, calibration)
            metrics["setup_s"] = (statistics.median(setups), "s")
        samples["setup_s"] = setups
        samples["reference_s"] = calibration.reference_s
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    digest = ",".join(sorted(run.digests)) or None
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"{'raw wall_s (unscaled)':40s} {statistics.median(samples['raw_wall_s']):14.6f} s")
    print(f"{'reference_s':40s} {statistics.median(calibration.reference_s):14.6f} s")
    print(f"{'output_sha256':40s} {digest}")
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "output_sha256": digest,
                  "samples": samples, **result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
