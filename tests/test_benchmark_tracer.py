"""The benchmark's traced run wraps genscope names where they are looked up
(``perfbench/tracer.py``, ``WRAPS``). A refactor that drops one of those
names crashes that run, so each must still resolve."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only import
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer.WRAPS
        if attr not in vars(tracer._resolve(owner))
    ]
    assert missing == []
