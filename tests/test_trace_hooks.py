"""The traced benchmark run patches rstokes at fixed names; keep them resolvable."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rstokes.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
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


@pytest.mark.parametrize("argv", [
    ["--example", "b", "--scheme", "sbd", "--study", "blowup", "--k", "3", "--N", "20", "--t", "1e-3"],
    ["--example", "d", "--scheme", "be", "--study", "temporal", "--k", "2", "--N", "2,4", "--t", "0.1"],
])
def test_traced_study_reports_every_layer_metric(tmp_path, argv):
    # the traced benchmark reads each per-layer metric of BENCHMARK.json from
    # the combined summary of a workload's studies; a name missing there
    # (for example a count that was never incremented) stops the run
    spans = _load_spans()
    rec = spans.Recorder()
    rec.install()
    try:
        code = rec.call(spans.ROOT_SPAN, main, [*argv, "--out", str(tmp_path / "rows.csv")])
    finally:
        rec.restore()
    assert code == 0
    rec.dump(str(tmp_path / "trace.json"))
    summary = spans.combine([spans.summarize(json.loads((tmp_path / "trace.json").read_text()))])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]} - {"harness.trace_overhead_s"}
    assert names <= summary.keys(), sorted(names - summary.keys())


def test_benchmark_selftest_passes():
    # the benchmark's own checks: repeatable counts, patches restored, self
    # times and the recorded-row gate.  It writes only under .bench_build/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
