"""The traced benchmark run patches rstokes at fixed names; keep them resolvable."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("cli", "harness", "fem", "oracle", "stepper", "linalg", "cq", "mesh")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    snap = {}
    for name in MODULES:
        mod = importlib.import_module(f"rstokes.{name}")
        for attr, value in vars(mod).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    snap[(name, attr, member)] = inner
    return snap


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_span_recorder_installs_and_restores():
    # install() looks up every patched name, so a renamed one raises here
    spans = _load_spans()
    before = _snapshot()
    rec = spans.Recorder()
    try:
        rec.install()
        during = _snapshot()
    finally:
        rec.restore()
    assert not _same(before, during)
    assert _same(before, _snapshot())
