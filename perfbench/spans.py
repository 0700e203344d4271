"""In-memory span and count recorder for the traced benchmark run.

`Recorder.install` wraps each layer's public entry points at the names where
their callers look them up (for example `rstokes.harness.run_scheme`, not
`rstokes.stepper.run_scheme`), so every call opens a span with a name, start,
end and parent span.  Counts are recorded at the same boundaries.  Spans
and counts stay in memory until `dump`; `restore` puts every patched
attribute back, so untraced runs execute the program unchanged.

`summarize` turns a dump into per-layer self times (span time minus the time
of its child spans) and counts.  It is also imported by the parent
benchmark process, so this module imports rstokes only inside `install`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

WRAPPED = "__perfbench_span__"

# span name -> per-layer metric for its summed self time
SELF_TIME_METRICS = {
    "oracle.eval": "oracle.eval_s",
    "oracle.factors": "oracle.factors_s",
    "oracle.build": "oracle.build_s",
    "fem.error": "fem.error_s",
    "fem.assemble": "fem.assemble_s",
    "fem.project": "fem.project_s",
    "linalg.factor": "linalg.factor_s",
    "linalg.solve": "linalg.solve_s",
    "linalg.cg": "linalg.cg_s",
    "stepper": "stepper.self_s",
    "cq.weights": "cq.weights_s",
    "mesh.build": "mesh.build_s",
    "harness": "harness.self_s",
    "cli.emit": "cli.emit_s",
}
ROOT_SPAN = "cli.main"
# counts kept as the maximum over calls rather than the sum
MAX_COUNTS = {"stepper.history_bytes"}


def history_madds(scheme: str, n_steps: int, n_dof: int, include_origin: bool) -> int:
    """Multiply-adds of the direct fractional history sum over one run (computed).

    BE step n sums n-1 stored stiffness products (n with the origin term);
    SBD step n >= 2 sums n-1 products plus the half-weighted initial one.
    """
    N = n_steps
    if scheme == "be":
        terms = N * (N + 1) // 2 if include_origin else N * (N - 1) // 2
    else:
        terms = N * (N + 1) // 2 - 1
    return terms * n_dof


class Recorder:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._factor_keys: dict[int, tuple[object, set]] = {}

    # -- spans -------------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if key in MAX_COUNTS:
            self.counts[key] = max(self.counts[key], n)
        else:
            self.counts[key] += n

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # the span is inlined rather than going through call(): some layers
        # are entered ~10^5 times per study and each extra call adds overhead
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = original(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(out, *args, **kwargs)
            return out

        setattr(wrapper, WRAPPED, name)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh, separators=(",", ":"))

    # -- layer boundaries ----------------------------------------------------
    def install(self) -> None:
        from rstokes import cli, fem, harness, oracle, stepper

        self.patch(cli, "run_experiment", "harness")
        self.patch(cli, "emit_report", "cli.emit", lambda out, report, *a, **k: self.count("harness.rows", len(report.rows)))
        self.patch(harness, "build_interval_mesh", "mesh.build")
        self.patch(harness, "build_square_mesh", "mesh.build")
        self.patch(harness, "assemble", "fem.assemble")
        self.patch(harness, "l2_project", "fem.project")
        self.patch(harness, "ritz_project", "fem.project")
        self.patch(fem, "solve_spd", "linalg.cg")
        self.patch(harness, "build_modal_solution", "oracle.build", lambda ms, *a, **k: self.count("oracle.modes", len(ms.modes)))
        self.patch(harness, "run_scheme", "stepper", self._count_steps)
        self.patch(harness, "error_norms", "fem.error", lambda *a, **k: self.count("fem.error_calls"))
        self.patch(stepper, "weights", "cq.weights", lambda *a, **k: self.count("cq.weights_calls"))
        self.patch(oracle.ModalSolution, "factors", "oracle.factors", self._count_factors)
        self.patch(oracle.ModalSolution, "eval_points", "oracle.eval", self._count_eval_points)
        self.patch(oracle.ModalSolution, "eval_grid", "oracle.eval", self._count_eval_grid)

        base = stepper.SpdFactorization
        rec = self

        class TracedSpdFactorization(base):
            def __init__(self, A):
                rec.call("linalg.factor", super().__init__, A)
                rec.count("linalg.factor_calls")

            def solve(self, b):
                rec.count("linalg.solve_calls")
                return rec.call("linalg.solve", super().solve, b)

        setattr(TracedSpdFactorization, WRAPPED, "linalg")
        stepper.SpdFactorization = TracedSpdFactorization
        self._patches.append((stepper, "SpdFactorization", base))

    def _count_steps(self, traj, space, cfg, v, f=None) -> None:
        n_dof = space.n_dof
        self.count("stepper.steps", cfg.n_steps)
        self.count("stepper.history_madds", history_madds(cfg.scheme, cfg.n_steps, n_dof, cfg.include_history_origin))
        # solution snapshots plus stored stiffness products, (N+1) x dof each
        self.count("stepper.history_bytes", 2 * (cfg.n_steps + 1) * n_dof * 8)

    def _count_factors(self, out, ms, t) -> None:
        counts = self.counts
        counts["oracle.factor_calls"] += 1
        # the solution object is kept referenced so its id cannot be reused
        _, seen = self._factor_keys.setdefault(id(ms), (ms, set()))
        if t in seen:
            counts["oracle.factor_hits"] += 1
        else:
            seen.add(t)
            counts["oracle.factor_evals"] += len(ms.modes)

    def _count_eval(self, ms, points: int) -> None:
        counts = self.counts
        counts["oracle.eval_calls"] += 1
        counts["oracle.eval_points"] += points
        counts["oracle.eval_mode_points"] += points * len(ms.modes)

    def _count_eval_points(self, out, ms, x, t) -> None:
        self._count_eval(ms, len(x))

    def _count_eval_grid(self, out, ms, xs, ys, t) -> None:
        self._count_eval(ms, len(xs) * len(ys))


def summarize(dump: dict) -> dict[str, float]:
    """Per-layer self times and counts of one traced study."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    out["trace.wall_s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if name == ROOT_SPAN:
            out["trace.wall_s"] += end - start
        else:
            out[SELF_TIME_METRICS[name]] += (end - start) - child_time[i]
    out.update(dump["counts"])
    return out


def combine(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum the summaries of a workload's studies (maximum for MAX_COUNTS)."""
    total: dict[str, float] = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            total[key] = max(total[key], value) if key in MAX_COUNTS else total[key] + value
    calls = total.get("oracle.factor_calls", 0)
    total["oracle.factor_hit_ratio"] = total.get("oracle.factor_hits", 0) / calls if calls else 0.0
    return dict(total)
