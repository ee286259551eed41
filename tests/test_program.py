"""The program around ``cli.main``: which layers each command loads, the
packages' re-exports that load on first use, and the one program entry of
both launchers, which freezes the heap before the interpreter exits."""

import ast
import gc
import importlib
import itertools
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import genscope
import genscope.cli
import genscope.parts
from genscope.cli import main
from genscope.synth import generate_corpus, generate_training_texts

from corpora import write_jsonl

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(genscope.__file__).parent
# buffered standard streams, as most shells give them, so that a lost flush shows
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = str(PACKAGE.parent)
BUNDLED_CORPUS = str(resources.files("genscope.data") / "synthetic_corpus.jsonl")
BUNDLED_QUERY = str(resources.files("genscope.data") / "default_query.txt")
# the modules that only analyze, report and reproduce run
ANALYSIS_STACK = (
    "genscope.analysis", "genscope.corpus.groups", "genscope.corpus.query",
    "genscope.reporting", "genscope.sentiment",
    "genscope.stats.contingency", "genscope.stats.rank_tests", "genscope.stats.special",
)
LAZY_LAYERS = (*ANALYSIS_STACK, "genscope.parts", "genscope.annotator", "genscope.labeling",
               "_hashlib")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A corpus, labeled texts, a model trained on them, a report and a
    published-tables file that fails one check, all as absolute paths."""
    where = tmp_path_factory.mktemp("program")
    corpus, labeled = where / "corpus.jsonl", where / "labeled.jsonl"
    write_jsonl(generate_corpus(n=120, seed=3), corpus)
    texts, labels = generate_training_texts(n=300, seed=5)
    write_jsonl(({"text": t, "label": l} for t, l in zip(texts, labels)), labeled)
    model = where / "model.txt"
    assert main(["train", "--labeled", str(labeled), "--model-out", str(model),
                 "--epochs", "5"]) == 0
    assert main(["analyze", "--corpus", str(corpus), "--out", str(where / "report")]) == 0
    tables = where / "tables.csv"
    bundled = resources.files("genscope.data") / "published_tables.csv"
    tables.write_text(bundled.read_text(encoding="utf-8").replace(
        "h1.generic,239677", "h1.generic,240677"), encoding="utf-8")
    return {
        "corpus": str(corpus), "labeled": str(labeled), "model": str(model),
        "report": str(where / "report" / "report.json"), "tables": str(tables),
    }


def run_python(code: str, *args: str, cwd, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=ENV,
                          input=stdin, capture_output=True, text=True)


class TestLayersPerCommand:
    """A command loads only the layers it runs: the analysis stack is
    compiled by analyze, report and reproduce alone (report and reproduce
    without the query parser, which ``ingest --query`` also loads),
    ``parts`` by the two commands that cut their file into byte ranges,
    analyze and train, the rule annotator by annotate, label and
    annotator-mode analyze, the labeling session by label, and OpenSSL's
    ``_hashlib`` by the commands that read a corpus, for its sha256."""

    LOADS = {
        "ingest": ["_hashlib"],
        "ingest --query": ["genscope.corpus.query", "_hashlib"],
        "annotate": ["genscope.annotator", "_hashlib"],
        "train": ["genscope.parts"],
        "eval": [],
        "classify": ["_hashlib"],
        "analyze": [*ANALYSIS_STACK, "genscope.parts", "genscope.annotator", "_hashlib"],
        "analyze --model": [*ANALYSIS_STACK, "genscope.parts", "_hashlib"],
        "report": [m for m in ANALYSIS_STACK if m != "genscope.corpus.query"],
        "reproduce": [m for m in ANALYSIS_STACK
                      if m not in ("genscope.corpus.query", "genscope.reporting")],
        "label": ["genscope.annotator", "genscope.labeling", "_hashlib"],
    }

    def test_commands_load_the_annotator_only_where_it_runs(self, tmp_path, inputs):
        i = inputs
        runs = {
            "ingest": ["ingest", "--corpus", i["corpus"]],
            "ingest --query": ["ingest", "--corpus", i["corpus"], "--query", BUNDLED_QUERY],
            "annotate": ["annotate", "--corpus", i["corpus"], "--out", "n"],
            "train": ["train", "--labeled", i["labeled"], "--model-out", "m.txt",
                      "--epochs", "5"],
            "eval": ["eval", "--labeled", i["labeled"], "--model", i["model"]],
            "classify": ["classify", "--corpus", i["corpus"], "--model", i["model"],
                         "--out", "c"],
            "analyze": ["analyze", "--corpus", i["corpus"], "--out", "a"],
            "analyze --model": ["analyze", "--corpus", i["corpus"], "--model", i["model"],
                                "--out", "am"],
            "report": ["report", "--report", i["report"], "--out", "r"],
            "reproduce": ["reproduce"],
            "label": ["label", "--corpus", i["corpus"], "--out", "l", "--limit", "1"],
        }
        probe = (
            "import json, sys\n"
            "from genscope.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            f"print(json.dumps([m for m in {LAZY_LAYERS!r} if m in sys.modules]))\n"
        )
        loaded = {}
        for name, argv in runs.items():  # one fresh process per command
            proc = run_python(probe, *argv, cwd=tmp_path, stdin="q\n")
            assert proc.returncode == 0, proc.stderr
            loaded[name] = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == self.LOADS

    @pytest.mark.parametrize("command, calls", [
        ("analyze", {"run_analysis": 1, "recompute_check": 1, "emit_report": 1}),
        ("report", {"run_analysis": 0, "recompute_check": 1, "emit_report": 1}),
    ], ids=["analyze", "report"])
    def test_the_traced_names_are_looked_up_in_cli_when_called(
        self, tmp_path, inputs, monkeypatch, capsys, command, calls
    ):
        # the benchmark tracer wraps these names in genscope.cli, so a command
        # that imported its own copy would run outside the tracer's spans
        counted = dict.fromkeys(calls, 0)
        for name in calls:
            def counting(*args, name=name, real=getattr(genscope.cli, name)):
                counted[name] += 1
                return real(*args)

            monkeypatch.setattr(genscope.cli, name, counting)
        argv = {
            "analyze": ["analyze", "--corpus", inputs["corpus"], "--out", str(tmp_path / "a")],
            "report": ["report", "--report", inputs["report"], "--out", str(tmp_path / "r")],
        }[command]
        assert main(argv) == 0
        assert counted == calls


class TestPackageExports:
    """Importing ``genscope`` loads numpy and no layer, and importing
    ``genscope.corpus`` or ``genscope.stats`` loads none of its submodules;
    each re-export imports its submodule when first read, by attribute or
    by ``import *``."""

    PACKAGES = ("genscope", "genscope.corpus", "genscope.stats")
    READS = {
        "attribute": "got = {name: getattr(package, name) for name in package.__all__}",
        "star-import": "got = {}\nexec(f'from {package.__name__} import *', got)",
    }
    RESOLVE = (
        "import importlib, json, sys\n"
        "package = importlib.import_module({package!r})\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('genscope'))\n"
        "{read}\n"
        "wrong = []\n"
        "for name, where in package._EXPORTS.items():\n"
        "    module = importlib.import_module(package.__name__ + '.' + where)\n"
        "    want = module if name == where else getattr(module, name)\n"
        "    if got[name] is not want:\n"
        "        wrong.append(name)\n"
        "print(json.dumps([loaded, wrong]))\n"
    )

    @pytest.mark.parametrize("package, read", [
        pytest.param(package, read, id=read if package == "genscope" else f"{package}-{read}")
        for package, read in itertools.product(PACKAGES, READS)
    ])
    def test_every_name_resolves_to_its_submodules_object(self, tmp_path, package, read):
        code = self.RESOLVE.format(package=package, read=self.READS[read])
        proc = run_python(code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [sorted({"genscope", package}), []]

    def test_the_table_names_every_export(self):
        for package in self.PACKAGES:
            module = importlib.import_module(package)
            version = ["__version__"] if package == "genscope" else []
            assert module.__all__ == [*version, *module._EXPORTS]
            assert set(module.__all__) <= set(dir(module))
            with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
                module.no_such_name
    def test_readme_library_sketch_runs(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
        texts, labels = generate_training_texts(n=200, seed=5)
        namespace = {
            "texts": texts, "labels": labels, "new_texts": texts[:5],
            "likes_generic": [3, 8, 1, 9, 4], "likes_other": [0, 2, 1, 5],
            "a": [1, 2, 3], "b": [4, 5, 6], "c": [2, 7, 9],
        }
        exec(compile(sketch.split("```", 1)[0], "README.md", "exec"), namespace)
        assert (namespace["verdict"].label, namespace["verdict"].kind) == ("generic", "bare")
        assert len(namespace["scores"]) == 5
        assert 0 <= namespace["res"].p <= 1 and 0 <= namespace["kw"].p <= 1


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
class TestExitPath:
    """``main`` never freezes the heap, and leaves no file open: with the
    heap frozen at exit, a file left to the garbage collector would never
    be closed."""

    @pytest.fixture
    def piped_stdin(self, monkeypatch):
        read, write = os.pipe()
        os.write(write, b"g\nn\n\n")
        os.close(write)
        stdin = open(read, encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        yield
        stdin.close()

    @pytest.fixture
    def two_ranges(self, monkeypatch):
        """``analyze`` and ``train`` cut their input file into two ranges
        and fork a child."""

        def halves(path, floor):
            data = Path(path).read_bytes()
            cut = data.index(b"\n", len(data) // 2) + 1
            return [(0, cut), (cut, None)]

        monkeypatch.setattr(genscope.parts, "byte_ranges", halves)

    @pytest.mark.parametrize("command", [
        "ingest", "annotate", "classify", "train", "eval", "label", "analyze",
        "analyze --model", "report", "reproduce",
    ])
    def test_main_freezes_nothing_and_leaves_no_file_open(self, tmp_path, inputs, command,
                                                          piped_stdin, two_ranges, capsys):
        i, out = inputs, str(tmp_path / "out")
        argv = {
            "ingest": ["ingest", "--corpus", i["corpus"], "--out", out],
            "annotate": ["annotate", "--corpus", i["corpus"], "--out", out],
            "classify": ["classify", "--corpus", i["corpus"], "--model", i["model"],
                         "--out", out],
            "train": ["train", "--labeled", i["labeled"], "--model-out", out + ".txt",
                      "--epochs", "5"],
            "eval": ["eval", "--labeled", i["labeled"], "--model", i["model"]],
            "label": ["label", "--corpus", i["corpus"], "--out", out, "--limit", "5"],
            "analyze": ["analyze", "--corpus", i["corpus"], "--out", out],
            "analyze --model": ["analyze", "--corpus", i["corpus"], "--model", i["model"],
                                "--out", out],
            "report": ["report", "--report", i["report"], "--out", out],
            "reproduce": ["reproduce"],
        }[command]
        before = open_fds()
        assert main(argv) == 0
        assert gc.get_freeze_count() == 0
        assert open_fds() == before
        if command == "label":
            assert len(Path(out, "labeled.jsonl").read_text().splitlines()) == 3

    def test_entry_freezes_the_heap_before_exit(self, tmp_path):
        probe = (
            "import atexit, gc, sys\n"
            "from genscope.cli import entry\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['genscope', 'reproduce']\n"
            "sys.exit(entry())\n"
        )
        proc = run_python(probe, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["all 24 checks passed", "frozen True"]


def launch(argv, cwd, stdin=""):
    """``python -m genscope argv`` and a process that runs ``main(argv)``
    with no entry around it, each in its own copy of ``cwd``, at once."""
    runs = {}
    for name, program in (("-m", ["-m", "genscope"]),
                          ("main", ["-c", "import sys; from genscope.cli import main; "
                                          "sys.exit(main(sys.argv[1:]))"])):
        where = cwd / name
        where.mkdir()
        runs[name] = where, subprocess.Popen(
            [sys.executable, *program, *argv], cwd=where, env=ENV, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
    results = {}
    for name, (where, proc) in runs.items():
        stdout, stderr = proc.communicate(stdin.encode())
        files = {str(p.relative_to(where)): p.read_bytes()
                 for p in sorted(where.rglob("*")) if p.is_file()}
        results[name] = proc.returncode, stdout, stderr, files
    return results["-m"], results["main"]


class TestLaunchers:
    @pytest.mark.parametrize("case", [
        "ingest", "train", "analyze", "analyze --model", "label", "failed-check",
        "usage-error", "data-error",
    ])
    def test_dash_m_matches_main_byte_for_byte(self, tmp_path, inputs, case):
        # the freeze at exit must lose no output: every stream and file,
        # and the exit code, are those of main run without it
        i = inputs
        argv, code = {
            "ingest": (["ingest", "--corpus", i["corpus"], "--out", "o"], 0),
            "train": (["train", "--labeled", i["labeled"], "--model-out", "m.txt",
                       "--epochs", "5"], 0),
            "analyze": (["analyze", "--corpus", BUNDLED_CORPUS, "--out", "o"], 0),
            "analyze --model": (["analyze", "--corpus", i["corpus"], "--model", i["model"],
                                 "--format", "csv", "--out", "o"], 0),
            "label": (["label", "--corpus", i["corpus"], "--out", "o", "--limit", "4"], 0),
            "failed-check": (["reproduce", "--tables", i["tables"]], 3),
            "usage-error": (["eval", "--labeled", i["labeled"], "--model", i["model"],
                             "--format", "csv"], 1),
            "data-error": (["classify", "--corpus", i["corpus"], "--model", i["corpus"]], 2),
        }[case]
        dash_m, plain = launch(argv, tmp_path, stdin="g\nn\n\ns\n")
        assert dash_m[0] == code, dash_m[2]
        assert dash_m == plain
        assert dash_m[1] or dash_m[2]


def test_console_script_and_dash_m_run_one_entry():
    # so that neither launcher can lose the exit freeze or the start-up
    # interrupt handler: the script calls __main__.main, which -m runs, and
    # main calls cli.entry
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    script = pyproject["project"]["scripts"]["genscope"]
    tree = ast.parse((PACKAGE / "__main__.py").read_text(encoding="utf-8"))
    launcher = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    imported = {
        alias.asname or alias.name: f"genscope.{node.module}:{alias.name}"
        for node in ast.walk(launcher)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    called = [imported[node.func.id] for node in ast.walk(launcher)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in imported]
    assert script == "genscope.__main__:main"
    assert called == ["genscope.cli:entry"]
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert "main" in [node.func.id for node in ast.walk(guard)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]


def test_ctrl_c_while_parsing_exits_130(monkeypatch, capsys):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr("genscope.cli.build_parser", interrupted)
    assert main(["reproduce"]) == 130
    assert capsys.readouterr().err == "error: interrupted\n"


# pip's console-script wrapper, as the genscope script runs it
CONSOLE_SCRIPT = (
    "import sys\n"
    "from genscope.__main__ import main\n"
    "if __name__ == '__main__':\n"
    "    sys.exit(main())\n"
)

# a sitecustomize whose import hook raises KeyboardInterrupt, as a Ctrl-C
# would, when the named module is first imported
INTERRUPTING_SITE = """\
import sys

class Interrupt:
    def find_spec(self, name, path=None, target=None):
        if name == {module!r}:
            sys.meta_path.remove(self)
            {raise_}

sys.meta_path.insert(0, Interrupt())
"""


@pytest.mark.parametrize("launcher", ["-m", "script"])
@pytest.mark.parametrize("raise_", ["raise KeyboardInterrupt", 'exec("raise KeyboardInterrupt")'])
@pytest.mark.parametrize("module", ["genscope.cli", "genscope.analysis", "genscope.annotator"])
def test_ctrl_c_while_modules_load_exits_130(tmp_path, launcher, raise_, module):
    # an interrupt that leaves an exec of a string, as @dataclass runs one,
    # is marked unhandled by CPython, which under -m would end the process
    # by SIGINT at exit even though it was caught
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        INTERRUPTING_SITE.format(module=module, raise_=raise_), encoding="utf-8")
    (tmp_path / "genscope_script.py").write_text(CONSOLE_SCRIPT, encoding="utf-8")
    program = ["-m", "genscope"] if launcher == "-m" else [str(tmp_path / "genscope_script.py")]
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(site), ENV["PYTHONPATH"]]))
    proc = subprocess.run(
        [sys.executable, *program, "analyze", "--corpus", BUNDLED_CORPUS, "--out", "o"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (130, "error: interrupted\n")
    assert not (tmp_path / "o").exists()
