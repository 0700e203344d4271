"""Experiment driver: sweeps over (h, tau, alpha, t), empirical rates, reports.

A study is one of
  temporal: fixed mesh, sweep the step count N at each observation time,
  spatial:  fixed step count, sweep the mesh over K = 2^k (or explicit K),
  blowup:   fixed mesh and N with tau = t/N, sweep t toward zero.

Errors are measured against the spectral solution; reported values are
normalized by ||v||_L2 except for Dirac data, whose errors are absolute.
The points of a family are stepped first, and one pass of the error
quadrature per mesh and time then serves every step count of a temporal
family.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fem import InitialDatum, assemble, error_norms, l2_project, ritz_project
from .mesh import build_interval_mesh, build_square_mesh
from .oracle import ModalSolution, build_modal_solution
from .stepper import SchemeConfig, run_scheme

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "Family",
    "ErrorReport",
    "ExperimentError",
    "run_experiment",
    "emit_report",
    "pair_rates",
    "fitted_rate",
    "loglog_slope",
]

_CSV_HEADER = ["example", "scheme", "alpha", "h", "tau", "t", "l2_error", "h1_error", "rate"]


class ExperimentError(RuntimeError):
    def __init__(self, point: dict, cause: Exception):
        where = ", ".join(f"{k}={v}" for k, v in point.items())
        super().__init__(f"grid point ({where}) failed: {cause}")
        self.point = point


@dataclass(frozen=True)
class ExperimentConfig:
    example: str
    scheme: str = "sbd"
    study: str = "temporal"
    alphas: tuple[float, ...] = (0.5,)
    gamma: float = 1.0
    ks: tuple[int, ...] = ()
    Ks: tuple[int, ...] = ()
    Ns: tuple[int, ...] = ()
    ts: tuple[float, ...] = ()
    projection: str = "l2"
    include_history_origin: bool = False
    oracle_tol: float = 1e-6
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if self.example not in ("a", "b", "c", "d"):
            raise ValueError(f"example must be one of a,b,c,d, got {self.example!r}")
        if self.scheme not in ("be", "sbd"):
            raise ValueError(f"scheme must be be or sbd, got {self.scheme!r}")
        if self.study not in ("temporal", "spatial", "blowup"):
            raise ValueError(f"unknown study {self.study!r}")
        if not self.alphas:
            raise ValueError("alpha list must be nonempty")
        for name, values in (("t", self.ts), ("gamma", (self.gamma,)), ("oracle_tol", (self.oracle_tol,))):
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise ValueError(f"{name} must be finite and positive, got {values}")
        if any(N < 1 for N in self.Ns):
            raise ValueError(f"step counts must be at least 1, got N list {self.Ns}")
        # a repeated sweep value gives a zero log-ratio in the rate formula
        meshes = _mesh_list(self)
        lists = {"alpha": self.alphas, "k": self.ks, "K": self.Ks, "N": self.Ns, "t": self.ts,
                 "mesh (k and K together)": meshes}
        for name, values in lists.items():
            if len(set(values)) != len(values):
                raise ValueError(f"{name} list repeats a value: {tuple(values)}")
        # the axes a study does not sweep hold one value each
        if self.study != "spatial" and len(meshes) > 1:
            raise ValueError(f"{self.study} study holds the mesh fixed; "
                             f"got mesh (k and K together) list {tuple(meshes)}")
        if self.study != "temporal" and len(self.Ns) > 1:
            raise ValueError(f"{self.study} study holds N fixed; got N list {self.Ns}")
        if self.projection not in ("l2", "ritz"):
            raise ValueError(f"projection must be l2 or ritz, got {self.projection!r}")
        if self.projection == "ritz" and self.example != "a":
            raise ValueError(f"example ({self.example}) has no H1 datum; Ritz projection unavailable")
        if self.fmt not in ("csv", "text"):
            raise ValueError(f"format must be csv or text, got {self.fmt!r}")


def _with_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    ks, Ns, ts = cfg.ks, cfg.Ns, cfg.ts
    if not ks and not cfg.Ks:
        square = _DATA[cfg.example].dim == 2
        if cfg.study == "temporal":
            ks = (6,) if square else (11,)
        elif cfg.study == "spatial":
            ks = (3, 4, 5, 6) if square else (3, 4, 5, 6, 7)
        else:
            ks = (6,)
    if not Ns:
        if cfg.study == "temporal":
            Ns = (5, 10, 20, 40, 80)
        elif cfg.study == "spatial":
            defaults = {"a": 2000, "d": 200}
            Ns = (defaults.get(cfg.example, 1000),)
        else:
            Ns = (1000,)
    if not ts:
        ts = tuple(10.0 ** (-e) for e in range(3, 9)) if cfg.study == "blowup" else (0.1,)
    return replace(cfg, ks=ks, Ns=Ns, ts=ts)


@dataclass(frozen=True)
class ReportRow:
    example: str
    scheme: str
    alpha: float
    h: float
    tau: float
    t: float
    l2_error: float
    h1_error: float
    rate: float | None
    family: str
    normalized: bool


@dataclass(frozen=True)
class Family:
    key: str
    x_name: str                 # sweep variable: tau, h, or t
    xs: tuple[float, ...]
    l2_errors: tuple[float, ...]
    h1_errors: tuple[float, ...]
    l2_rate: float
    h1_rate: float


@dataclass
class ErrorReport:
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    families: list[Family] = field(default_factory=list)


def pair_rates(xs, errors) -> list[float | None]:
    """Per-pair empirical rates log(e_i-1/e_i) / log(x_i-1/x_i); None for row 0."""
    out: list[float | None] = [None]
    for i in range(1, len(xs)):
        out.append(math.log(errors[i - 1] / errors[i]) / math.log(xs[i - 1] / xs[i]))
    return out

def fitted_rate(xs, errors) -> float:
    """Family rate: mean of successive-pair rates, dropping the preasymptotic
    first pair when three or more pairs are available."""
    pr = [r for r in pair_rates(xs, errors) if r is not None]
    if not pr:
        return float("nan")
    if len(pr) >= 3:
        pr = pr[1:]
    return float(np.mean(pr))

def loglog_slope(xs, errors) -> float:
    """Least-squares slope of log e against log x (blowup studies); nan below two points."""
    if len(xs) < 2:
        return float("nan")
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(errors)), 1)[0])


_DATA = {
    "a": InitialDatum("smooth_sine", frequency=2),
    "b": InitialDatum("step", location=0.5),
    "c": InitialDatum("dirac", location=0.5),
    "d": InitialDatum("step2d", location=0.5),
}


def _mesh_list(cfg: ExperimentConfig) -> list[int]:
    return [2**k for k in cfg.ks] + list(cfg.Ks)


class _Runner:
    """Caches meshes, projections and modal solutions across grid points."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.datum = _DATA[cfg.example]
        self._spaces: dict[int, object] = {}
        self._initial: dict[int, np.ndarray] = {}
        self._oracles: dict[float, ModalSolution] = {}
        self.t_min = min(cfg.ts)

    def space(self, K: int):
        if K not in self._spaces:
            mesh = build_square_mesh(K) if self.datum.dim == 2 else build_interval_mesh(K)
            self._spaces[K] = assemble(mesh)
        return self._spaces[K]

    def initial(self, K: int) -> np.ndarray:
        if K not in self._initial:
            project = ritz_project if self.cfg.projection == "ritz" else l2_project
            self._initial[K] = project(self.space(K), self.datum)
        return self._initial[K]

    def oracle(self, alpha: float) -> ModalSolution:
        if alpha not in self._oracles:
            ms = build_modal_solution(
                self.datum, alpha, self.cfg.gamma, tol=self.cfg.oracle_tol, t_min=self.t_min
            )
            if ms.tail_bound > self.cfg.oracle_tol:
                print(f"rstokes: warning: reference for alpha={alpha:g} at t_min={self.t_min:g} keeps "
                      f"{len(ms.modes)} modes; its tail bound {ms.tail_bound:.3g} exceeds oracle_tol "
                      f"{self.cfg.oracle_tol:g}", file=sys.stderr)
            self._oracles[alpha] = ms
        return self._oracles[alpha]

    def final_state(self, alpha: float, K: int, N: int, t: float) -> np.ndarray:
        """U^N of one grid point; a copy, so the snapshots are freed on return."""
        scfg = SchemeConfig(
            scheme=self.cfg.scheme,
            alpha=alpha,
            gamma=self.cfg.gamma,
            tau=t / N,
            n_steps=N,
            include_history_origin=self.cfg.include_history_origin,
        )
        return run_scheme(self.space(K), scfg, self.initial(K))[-1].copy()


def _study_families(cfg: ExperimentConfig):
    """Yield (key, x name, alpha, [(K, N, t, x), ...]) for each study family."""
    meshes = _mesh_list(cfg)
    for alpha in cfg.alphas:
        head = f"{cfg.example}/{cfg.scheme}/alpha={alpha:g}"
        if cfg.study == "blowup":
            K, N = meshes[0], cfg.Ns[0]
            yield f"{head}/blowup", "t", alpha, [(K, N, t, t) for t in sorted(cfg.ts, reverse=True)]
            continue
        for t in cfg.ts:
            key = f"{head}/t={t:g}/{cfg.study}"
            if cfg.study == "temporal":
                yield key, "tau", alpha, [(meshes[0], N, t, t / N) for N in cfg.Ns]
            else:
                yield key, "h", alpha, [(K, cfg.Ns[0], t, 1.0 / K) for K in meshes]


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    """Sweep the configured grid; one row per (alpha, mesh, step count, time).

    Every point of a family is stepped first, keeping only its final state.
    Then each run of consecutive points on the same mesh and time has its
    errors measured by one `error_norms` call on the stack of their final
    states: one reference pass serves every step count of a temporal family,
    while spatial and blowup families make one call per point.
    """
    cfg = _with_defaults(cfg)
    if cfg.study == "blowup" and cfg.scheme != "sbd":
        raise ValueError("blowup study requires the second-order scheme (sbd)")
    fit = loglog_slope if cfg.study == "blowup" else fitted_rate
    runner = _Runner(cfg)
    report = ErrorReport(config=cfg)
    for key, x_name, alpha, points in _study_families(cfg):
        finals = []
        for K, N, t, _ in points:
            try:
                finals.append(runner.final_state(alpha, K, N, t))
            except Exception as exc:
                raise ExperimentError(
                    {"example": cfg.example, "alpha": alpha, "K": K, "N": N, "t": t}, exc
                ) from exc
        parts = []
        for (K, t), group in itertools.groupby(zip(points, finals), key=lambda pair: (pair[0][0], pair[0][2])):
            group = list(group)
            try:
                parts.append(error_norms(runner.space(K), np.stack([U for _, U in group]), runner.oracle(alpha), t))
            except Exception as exc:
                Ns = tuple(N for (_, N, _, _), _ in group)
                raise ExperimentError(
                    {"example": cfg.example, "alpha": alpha, "K": K, "N": Ns, "t": t}, exc
                ) from exc
        norms = np.concatenate(parts, axis=1)
        # a datum outside L2 (Dirac) has no norm, and its errors stay absolute
        datum_norm = runner.oracle(alpha).datum_norm
        normed = datum_norm is not None
        if normed:
            norms /= datum_norm
        l2s, h1s = norms.tolist()
        xs = [x for *_, x in points]
        for (K, N, t, _), l2, h1, rate in zip(points, l2s, h1s, pair_rates(xs, l2s)):
            report.rows.append(
                ReportRow(cfg.example, cfg.scheme, alpha, 1.0 / K, t / N, t, l2, h1, rate, key, normed)
            )
        report.families.append(
            Family(key, x_name, tuple(xs), tuple(l2s), tuple(h1s), fit(xs, l2s), fit(xs, h1s))
        )
    return report


# ---------------------------------------------------------------------------
# report emission

def _fmt(x: float) -> str:
    return format(x, ".17g")


def _emit_csv(report: ErrorReport, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in report.rows:
        writer.writerow(
            [
                r.example,
                r.scheme,
                _fmt(r.alpha),
                _fmt(r.h),
                _fmt(r.tau),
                _fmt(r.t),
                _fmt(r.l2_error),
                _fmt(r.h1_error),
                "" if r.rate is None else _fmt(r.rate),
            ]
        )


def _emit_text(report: ErrorReport, stream) -> None:
    by_family: dict[str, list[ReportRow]] = {}
    for r in report.rows:
        by_family.setdefault(r.family, []).append(r)
    fams = {f.key: f for f in report.families}
    for key, rows in by_family.items():
        fam = fams[key]
        label = "absolute" if not rows[0].normalized else "normalized"
        stream.write(f"# {key}  ({label} errors)\n")
        stream.write(f"{fam.x_name:>12s} {'l2_error':>14s} {'h1_error':>14s} {'rate':>8s}\n")
        for x, r in zip(fam.xs, rows):
            rate = "" if r.rate is None else f"{r.rate:8.3f}"
            stream.write(f"{x:12.6g} {r.l2_error:14.6e} {r.h1_error:14.6e} {rate:>8s}\n")
        stream.write(f"fitted: l2 rate {fam.l2_rate:.3f}, h1 rate {fam.h1_rate:.3f}\n\n")


def emit_report(report: ErrorReport, fmt: str | None = None, path: str | None = None) -> str:
    """Write the report; returns the emitted text (also written to path if given)."""
    fmt = fmt or report.config.fmt
    if fmt not in ("csv", "text"):
        raise ValueError(f"format must be csv or text, got {fmt!r}")
    buf = io.StringIO()
    (_emit_csv if fmt == "csv" else _emit_text)(report, buf)
    text = buf.getvalue()
    target = path or report.config.out
    if target:
        Path(target).write_text(text)
    return text
