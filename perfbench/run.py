"""Layered study benchmark for rstokes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed sample runs every study of the workload (see workloads.py) as a
cold `rstokes` CLI process, one at a time (closed loop, one client), writing
`--out <tmp>.csv --format csv`.  A set-up probe runs before every sample.
Probes and samples repeat until S seconds have passed; at least one of each
always runs.  OpenBLAS keeps its default thread count.

--trace 0 reports the end-to-end metrics:
  study_s      wall seconds of one sample (all the workload's studies), median
  peak_rss_mb  peak resident memory of the largest study process, median
  setup_s      fresh interpreter until rstokes.cli is imported and its parser
               built, median of the probes
and prints fail_frac (failed rows / attempted rows) by name.
--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of BENCHMARK.json from the traced ones (spans.py).

Every row of every study is checked against the rows recorded in expected/
(see REL_TOL).  The last stdout line is the JSON result; the line before it,
`record {...}`, holds provenance, per-sample values and layer shares.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
RUN_LIMIT_S = 170.0     # a run must end within 180 s; children are killed past this

# Relative tolerance per error column.  Tightening the reference 100x
# (oracle_tol 1e-6 -> 1e-8; both references lie within oracle_tol of the
# exact solution) moves the recorded L2 errors by at most 1.7e-5 and the H1
# errors by at most 3.0e-2 (T3 SBD, alpha=0.5, tau=1.25e-3, where reference
# truncation dominates the H1 error); 2D and blowup rows do not move (the
# mode cap binds).  The tolerances pass such a change with margin and still
# fail a wrong order, mesh, step count at N <= 20, datum or alpha.
REL_TOL = {"l2_error": 1e-3, "h1_error": 5e-2}
KEY_COLUMNS = ("example", "scheme", "alpha", "h", "tau", "t")

LAYER_SHARES = {
    "oracle.eval": ("oracle.eval_s",),
    "oracle.factors": ("oracle.factors_s",),
    "oracle.build": ("oracle.build_s",),
    "fem.error": ("fem.error_s",),
    "fem.assemble+project": ("fem.assemble_s", "fem.project_s"),
    "linalg": ("linalg.factor_s", "linalg.solve_s", "linalg.cg_s"),
    "stepper": ("stepper.self_s",),
    "cq+mesh": ("cq.weights_s", "mesh.build_s"),
    "harness+cli": ("harness.self_s", "cli.emit_s"),
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], workdir: Path, tag: str, limit_s: float = RUN_LIMIT_S) -> dict:
    """Run perfbench/study.py with args; wall time, exit code, peak RSS, output.

    The child is killed after limit_s seconds and then counts as failed.
    """
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "study.py"), *args],
                                cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
        watchdog.start()
        try:
            # wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_text(errors="replace"),
        "stderr": err_path.read_text(errors="replace"),
    }


# ---------------------------------------------------------------------------
# row correctness gate

def read_rows(path: Path) -> dict[tuple, tuple[float, float]]:
    with open(path, newline="") as fh:
        return {
            tuple(rec[k] for k in KEY_COLUMNS): (float(rec["l2_error"]), float(rec["h1_error"]))
            for rec in csv.DictReader(fh)
        }


def check_rows(study_id: str, csv_path: Path | None) -> tuple[int, int, float]:
    """Attempted rows, failed rows and the largest relative deviation.

    csv_path is None when the study exited nonzero: every row fails.
    """
    expected = read_rows(EXPECTED / f"{study_id}.csv")
    actual = read_rows(csv_path) if csv_path is not None else {}
    failed = len(set(actual) - set(expected))
    worst = 0.0
    for key, want in expected.items():
        got = actual.get(key)
        if got is None:
            failed += 1
            continue
        devs = [abs(g - w) / abs(w) for g, w in zip(got, want)]
        worst = max(worst, *devs)
        if not all(d <= REL_TOL[col] for d, col in zip(devs, ("l2_error", "h1_error"))):
            failed += 1
    return len(expected) + len(set(actual) - set(expected)), failed, worst


# ---------------------------------------------------------------------------
# samples

def run_sample(plan, workdir: Path, index: int, traced: bool, deadline: float) -> dict:
    sample = {"traced": traced, "study_s": 0.0, "peak_rss_mb": 0.0, "attempted": 0, "failed": 0,
              "max_rel_dev": 0.0, "studies": {}}
    layer_parts = []
    for study in plan:
        tag = f"{study.id}-{index}"
        csv_path = workdir / f"{tag}.csv"
        trace_path = workdir / f"{tag}.trace.json"
        args = (["--trace-out", str(trace_path)] if traced else []) + ["--", *study.argv,
                "--out", str(csv_path), "--format", "csv"]
        child = run_child(args, workdir, tag, deadline - time.perf_counter())
        ok = child["code"] == 0
        if not ok:
            print(f"study {study.id} exited {child['code']}: {child['stderr'].strip()[-500:]}", file=sys.stderr)
        attempted, failed, worst = check_rows(study.id, csv_path if ok else None)
        sample["study_s"] += child["wall_s"]
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], child["rss_mb"])
        sample["attempted"] += attempted
        sample["failed"] += failed
        sample["max_rel_dev"] = max(sample["max_rel_dev"], worst)
        sample["studies"][study.id] = {"wall_s": child["wall_s"], "rss_mb": child["rss_mb"], "code": child["code"]}
        if traced and ok:
            with open(trace_path) as fh:
                layer_parts.append(spans.summarize(json.load(fh)))
        for path in (csv_path, trace_path):
            path.unlink(missing_ok=True)
    if traced:
        sample["layers"] = spans.combine(layer_parts) if len(layer_parts) == len(plan) else None
    return sample


def measure_setup(workdir: Path, index: int) -> float:
    child = run_child(["--setup"], workdir, f"setup-{index}")
    if child["code"] != 0:
        raise BenchError(f"set-up probe failed: {child['stderr'].strip()[-500:]}")
    return child["wall_s"]


# ---------------------------------------------------------------------------
# provenance

def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workdir: Path, workload: str, plan) -> dict:
    # the first child also compiles src/ to bytecode, so it is never timed
    child = run_child(["--provenance"], workdir, "provenance")
    if child["code"] != 0:
        raise BenchError(f"cannot import rstokes from {ROOT / 'src'}: {child['stderr'].strip()[-500:]}")
    libs = json.loads(child["stdout"])
    if not Path(libs["rstokes_file"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"rstokes imported from {libs['rstokes_file']}, not from {ROOT / 'src'}")
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        **{k: v for k, v in libs.items() if k != "rstokes_file"},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": os.getloadavg(),
        "workload": workload,
        "argv": {study.id: ["rstokes", *study.argv, "--out", "<tmp>.csv", "--format", "csv"] for study in plan},
    }


# ---------------------------------------------------------------------------
# report

def end_to_end(samples: list[dict], setup: list[float]) -> dict[str, tuple[float, str]]:
    timed = [s for s in samples if not s["traced"]]
    return {
        "study_s": (statistics.median([s["study_s"] for s in timed]), "s"),
        "peak_rss_mb": (statistics.median([s["peak_rss_mb"] for s in timed]), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(samples: list[dict], specs: list[dict]) -> tuple[dict[str, tuple[float, str]], bool]:
    """Per-layer metrics from the traced samples; False when counts did not repeat."""
    traced = [s["layers"] for s in samples if s["traced"]]
    if not traced or any(t is None for t in traced):
        return {}, False
    # both sides are parent-measured sample walls, interpreter start included
    overhead = (statistics.median([s["study_s"] for s in samples if s["traced"]])
                - statistics.median([s["study_s"] for s in samples if not s["traced"]]))
    out, repeat = {}, True
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name == "harness.trace_overhead_s":
            value = overhead
        elif unit == "s":
            value = statistics.median([t[name] for t in traced])
        else:
            values = {t[name] for t in traced}
            repeat &= len(values) == 1
            value = traced[0][name]
        out[name] = (value, unit)
    return out, repeat


def layer_shares(layers: dict[str, tuple[float, str]]) -> dict[str, float]:
    wall = layers["trace.wall_s"][0]
    return {group: 100.0 * sum(layers[m][0] for m in members) / wall for group, members in LAYER_SHARES.items()}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "rstokes" / "cli.py").is_file():
        print(f"perfbench: no rstokes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = workloads.plan(args.workload, args.seed)
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    try:
        deadline = time.perf_counter() + RUN_LIMIT_S
        prov = provenance(workdir, args.workload, plan)
        setup, samples = [], []
        start = time.perf_counter()
        while True:
            # probes interleave with samples, so both see the same host load
            setup.append(measure_setup(workdir, len(setup)))
            samples.append(run_sample(plan, workdir, len(samples), False, deadline))
            if args.trace:
                samples.append(run_sample(plan, workdir, len(samples), True, deadline))
            if time.perf_counter() - start >= args.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov["loadavg_end"] = os.getloadavg()

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = failed == 0
    n_timed = sum(not s["traced"] for s in samples)
    e2e = end_to_end(samples, setup)
    record = {"provenance": prov, "rel_tol": REL_TOL, "setup_probes_s": setup, "samples": samples}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"untraced samples {n_timed}  studies per sample {len(plan)}")
    print(f"study_s      {e2e['study_s'][0]:.4f} s   (median of {n_timed} samples)")
    print(f"peak_rss_mb  {e2e['peak_rss_mb'][0]:.1f} MB  (median of {n_timed} samples)")
    print(f"setup_s      {e2e['setup_s'][0]:.4f} s   (median of {len(setup)} probes)")
    print(f"fail_frac    {failed / attempted:.4g}  ({failed}/{attempted} rows; rel tol {REL_TOL})")

    if args.trace:
        layers, repeat = per_layer(samples, spec["per_layer"])
        if not repeat:
            print("perfbench: traced counts differ between samples or a traced study failed", file=sys.stderr)
            correct = False
        if layers:
            shares = layer_shares(layers)
            record["layer_shares_pct"] = shares
            print("layer shares of traced wall time: " +
                  ", ".join(f"{k} {v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
            for name, (value, unit) in layers.items():
                print(f"  {name:28s} {value:.6g} {unit}")
        metrics = layers
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
