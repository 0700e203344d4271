"""Self-tests of the benchmark's tracing and row gate.

    python3 perfbench/selftest.py [WORKLOAD]

1. Counts repeat: two traced runs of the same studies give identical
   observed and computed counts (default studies: three small ones that
   reach every traced layer; with WORKLOAD, that workload's studies).
2. An untraced run leaves every attribute of the rstokes modules and their
   classes untouched; a traced run restores every attribute it patched.
3. Self time: summarize() subtracts exactly the time of the child spans.
4. Row gate: the recorded rows pass; a change beyond REL_TOL, a missing row
   or a failed study fails.
Exits nonzero if any check fails.
"""

from __future__ import annotations

import csv
import importlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import spans
import study
import workloads

SMALL = (
    ("--example", "b", "--scheme", "sbd", "--study", "temporal", "--alpha", "0.5", "--k", "6", "--N", "5,10", "--t", "0.1"),
    ("--example", "a", "--scheme", "be", "--study", "spatial", "--alpha", "0.3", "--k", "3,4", "--N", "20", "--t", "0.1"),
    ("--example", "d", "--scheme", "be", "--study", "temporal", "--alpha", "0.5", "--k", "3", "--N", "4,8", "--t", "0.1"),
)
MODULES = ("cli", "harness", "fem", "oracle", "stepper", "linalg", "cq", "mesh")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def traced_counts(argvs, workdir: Path, round_: int) -> tuple[dict, set]:
    parts, names = [], set()
    for i, argv in enumerate(argvs):
        trace = workdir / f"counts-{round_}-{i}.json"
        child = run.run_child(["--trace-out", str(trace), "--", *argv, "--out", str(workdir / "c.csv")],
                              workdir, f"counts-{round_}-{i}")
        if child["code"] != 0:
            raise RuntimeError(f"traced study failed: {child['stderr'][-500:]}")
        dump = json.loads(trace.read_text())
        names |= {s[0] for s in dump["spans"]}
        parts.append(spans.summarize(dump))
    total = spans.combine(parts)
    return {k: v for k, v in total.items() if not k.endswith("_s")}, names


def snapshot() -> dict:
    snap = {}
    for name in MODULES:
        mod = importlib.import_module(f"rstokes.{name}")
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for member, inner in vars(value).items():
                    snap[(mod.__name__, attr, member)] = inner
    return snap


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_counts(workdir: Path, argvs) -> None:
    first, names = traced_counts(argvs, workdir, 0)
    second, _ = traced_counts(argvs, workdir, 1)
    check(first == second, f"{len(first)} counts repeat exactly across two traced runs")
    check(all(first[k] > 0 for k in ("oracle.eval_calls", "linalg.solve_calls", "stepper.history_madds",
                                     "oracle.factor_evals", "harness.rows")), "key counts are nonzero")
    if argvs is SMALL:
        missing = set(spans.SELF_TIME_METRICS) | {spans.ROOT_SPAN}
        check(not (missing - names), f"every traced layer records spans (missing: {sorted(missing - names)})")


def test_patching(workdir: Path) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    argv = [*SMALL[0], "--out", str(workdir / "p.csv")]
    before = snapshot()
    rec = spans.Recorder()
    rec.install()
    during = snapshot()
    rec.restore()
    check(not same(before, during) and same(before, snapshot()), "the snapshot sees installed wrappers")
    code = study.run(argv)
    after = snapshot()
    check(code == 0 and same(before, after), "untraced run leaves rstokes attributes unpatched")
    check(not any(hasattr(v, spans.WRAPPED) for v in after.values()), "no wrapper is left on any rstokes attribute")
    code = study.run(argv, str(workdir / "p.trace.json"))
    check(code == 0 and same(before, snapshot()), "traced run restores every patched attribute")


def test_self_time() -> None:
    dump = {"spans": [
        ["cli.main", 0.0, 10.0, -1],
        ["harness", 1.0, 9.0, 0],
        ["stepper", 2.0, 6.0, 1],
        ["linalg.solve", 3.0, 4.0, 2],
        ["linalg.solve", 4.0, 5.0, 2],
        ["fem.error", 6.0, 8.0, 1],
        ["oracle.eval", 6.5, 7.5, 5],
    ], "counts": {}}
    got = spans.summarize(dump)
    want = {"trace.wall_s": 10.0, "harness.self_s": 2.0, "stepper.self_s": 2.0, "linalg.solve_s": 2.0,
            "fem.error_s": 1.0, "oracle.eval_s": 1.0}
    check(all(got[k] == v for k, v in want.items()), "self time = span time minus child span time")


def test_gate(workdir: Path) -> None:
    study_id = "t3_sbd"
    with open(run.EXPECTED / f"{study_id}.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    l2, h1 = header.index("l2_error"), header.index("h1_error")

    def gate(edit) -> int:
        body = [list(r) for r in rows]
        edit(body)
        path = workdir / "gate.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *body])
        return run.check_rows(study_id, path)[1]

    def scale(col, factor):
        def edit(body):
            body[-1][col] = repr(float(body[-1][col]) * factor)
        return edit

    check(gate(lambda body: None) == 0, "recorded rows pass the gate")
    check(gate(scale(l2, 1 + 0.5 * run.REL_TOL["l2_error"])) == 0, "an L2 change inside REL_TOL passes")
    check(gate(scale(l2, 1 + 2 * run.REL_TOL["l2_error"])) == 1, "an L2 change beyond REL_TOL fails one row")
    check(gate(scale(h1, 1 + 0.5 * run.REL_TOL["h1_error"])) == 0, "an H1 change inside REL_TOL passes")
    check(gate(scale(h1, 1 + 2 * run.REL_TOL["h1_error"])) == 1, "an H1 change beyond REL_TOL fails one row")
    check(gate(lambda body: body.pop()) == 1, "a missing row fails")
    check(run.check_rows(study_id, None)[1] == len(rows), "a failed study fails every row")


def main(argv: list[str]) -> int:
    argvs = SMALL if not argv else tuple(s.argv for s in workloads.WORKLOADS[argv[0]])
    build_dir = run.ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=build_dir))
    try:
        test_counts(workdir, argvs)
        test_patching(workdir)
        test_self_time()
        test_gate(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
