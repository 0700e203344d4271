"""Experiment driver: sweeps over (h, tau, alpha, t), empirical rates, reports.

A study is one of
  temporal: fixed mesh, sweep the step count N at each observation time,
  spatial:  fixed step count, sweep the mesh over K = 2^k (or explicit K),
  blowup:   fixed mesh and N with tau = t/N, sweep t toward zero.

`ExperimentConfig` decides a study's settings in one place: it fills the
grid lists a study omits from one table of study defaults (`_DEFAULTS`),
checks each named setting against the one source of its allowed values
(`_DATA`, `cq.DELTA`, `_DEFAULTS`) and rejects a bad value (an alpha outside
(0, 1), a mesh of fewer than two cells, a mesh on which the 2D step's cut
lies on no mesh line, a blowup study without sbd, an output path that names
a directory or lies in a missing one, ...) before any mesh is built;
`meshes` lists the subdivision counts it resolves to.

Errors are measured against the spectral solution.  A report's errors are
normalized by the datum's `InitialDatum.l2_norm`, except for Dirac data,
whose errors are absolute (`ErrorReport.normalized`).  A family is its
passes: a pass is one mesh and one time with the step counts stepped on
them, and one error quadrature measures their final states before the next
pass is stepped.  A temporal family is one pass; a spatial family makes one
per mesh and a blowup family one per t.  A report is its families: each
`Family` owns its rows, and `ErrorReport.rows` joins them in order.  A
`ReportRow` holds only its own values, among them the family's sweep
variable; a CSV row is the example and the scheme, then the `ReportRow`
fields in order, so `_CSV_HEADER` and the writer read the columns from the
one dataclass.  `emit_report` takes the example, the scheme, the format and
the output path from the report's config.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cq import DELTA
from .fem import InitialDatum, assemble, error_norms, l2_project, mesh_line, ritz_project
from .mesh import build_interval_mesh, build_square_mesh
from .oracle import build_modal_solution
from .stepper import SchemeConfig, run_scheme, snapshot_bytes

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


class ExperimentError(RuntimeError):
    def __init__(self, point: dict, cause: Exception):
        where = ", ".join(f"{k}={v}" for k, v in point.items())
        super().__init__(f"grid point ({where}) failed: {cause}")
        self.point = point


# the host's physical memory: a pass whose snapshots would need more is
# refused before its first march, naming its grid point, rather than killed
# while its lazily reserved zero pages fill
_MEMORY_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

# study -> the defaults of its omitted grid lists: (k on the interval, k on
# the square, N, t); the spatial study's N, left empty here, is per example
_DEFAULTS = {
    "temporal": ((11,), (6,), (5, 10, 20, 40, 80), (0.1,)),
    "spatial": ((3, 4, 5, 6, 7), (3, 4, 5, 6), (), (0.1,)),
    "blowup": ((6,), (6,), (1000,), tuple(10.0 ** (-e) for e in range(3, 9))),
}


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
    oracle_tol: float = 1e-6
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        for key, value, allowed in (("example", self.example, _DATA), ("scheme", self.scheme, DELTA),
                                    ("study", self.study, _DEFAULTS), ("projection", self.projection, ("l2", "ritz")),
                                    ("format", self.fmt, ("csv", "text"))):
            if value not in allowed:
                raise ValueError(f"{key} must be one of {', '.join(allowed)}, got {value!r}")
        # omitted grid lists take the defaults of the study, then the
        # resolved settings are checked
        datum = _DATA[self.example]
        line_ks, square_ks, Ns, ts = _DEFAULTS[self.study]
        ks = () if self.Ks else square_ks if datum.dim == 2 else line_ks
        Ns = Ns or ({"a": 2000, "d": 200}.get(self.example, 1000),)
        for name, value in (("ks", ks), ("Ns", Ns), ("ts", ts)):
            if not getattr(self, name):
                object.__setattr__(self, name, value)
        if self.study == "blowup" and self.scheme != "sbd":
            raise ValueError("blowup study requires the second-order scheme (sbd)")
        if not self.alphas:
            raise ValueError("alpha list must be nonempty")
        if not all(0.0 < alpha < 1.0 for alpha in self.alphas):
            raise ValueError(f"alpha must lie in (0,1), got alpha list {self.alphas}")
        for name, values in (("t", self.ts), ("gamma", (self.gamma,)), ("oracle_tol", (self.oracle_tol,))):
            if not all(math.isfinite(v) and v > 0 for v in values):
                raise ValueError(f"{name} must be finite and positive, got {values}")
        for what, name, values, least in (("step counts", "N", self.Ns, 1), ("mesh exponents", "k", self.ks, 1),
                                          ("subdivision counts", "K", self.Ks, 2)):
            if any(v < least for v in values):
                raise ValueError(f"{what} must be at least {least}, got {name} list {values}")
        # a repeated sweep value gives a zero log-ratio in the rate formula
        lists = {"alpha": self.alphas, "k": self.ks, "K": self.Ks, "N": self.Ns, "t": self.ts,
                 "mesh (k and K together)": self.meshes}
        for name, values in lists.items():
            if len(set(values)) != len(values):
                raise ValueError(f"{name} list repeats a value: {tuple(values)}")
        # the axes a study does not sweep hold one value each
        if self.study != "spatial" and len(self.meshes) > 1:
            raise ValueError(f"{self.study} study holds the mesh fixed; "
                             f"got mesh (k and K together) list {self.meshes}")
        if self.study != "temporal" and len(self.Ns) > 1:
            raise ValueError(f"{self.study} study holds N fixed; got N list {self.Ns}")
        if datum.kind == "step2d" and any(mesh_line(datum.location, K) is None for K in self.meshes):
            raise ValueError(f"the 2D step cut x = {datum.location:g} must lie on a mesh line; "
                             f"got mesh (k and K together) list {self.meshes}")
        if self.projection == "ritz" and self.example != "a":
            raise ValueError(f"example ({self.example}) has no H1 datum; Ritz projection unavailable")
        if self.out and (self.out.endswith(("/", os.sep)) or Path(self.out).is_dir()):
            raise ValueError(f"out: {self.out!r} names a directory, not a file")
        if self.out and not Path(self.out).parent.is_dir():
            raise ValueError(f"out: the directory of {self.out!r} does not exist")

    @property
    def meshes(self) -> tuple[int, ...]:
        """Subdivision counts of the study's meshes: 2^k for each k, then each K."""
        return tuple(2**k for k in self.ks) + tuple(self.Ks)


@dataclass(frozen=True)
class ReportRow:
    alpha: float
    h: float
    tau: float
    t: float
    l2_error: float
    h1_error: float
    rate: float | None


# a CSV row is the report's example and scheme, then the row's fields in order
_CSV_HEADER = ["example", "scheme", *(f.name for f in fields(ReportRow))]


@dataclass(frozen=True)
class Family:
    key: str
    x_name: str                 # sweep variable, a field of its rows: tau, h, or t
    rows: tuple[ReportRow, ...]
    l2_rate: float
    h1_rate: float


@dataclass
class ErrorReport:
    config: ExperimentConfig
    families: list[Family] = field(default_factory=list)

    @property
    def rows(self) -> tuple[ReportRow, ...]:
        """The families' rows, joined in family order."""
        return tuple(r for fam in self.families for r in fam.rows)

    @property
    def normalized(self) -> bool:
        """Whether the errors are divided by ||v||_L2; Dirac data have no such norm."""
        return _DATA[self.config.example].l2_norm is not None


def pair_rates(xs, errors) -> list[float | None]:
    """Per-pair empirical rates log(e_i-1/e_i) / log(x_i-1/x_i); None for row 0,
    nan for a pair with a zero error."""
    out: list[float | None] = [None]
    for i in range(1, len(xs)):
        if min(errors[i - 1], errors[i]) > 0.0:
            out.append(math.log(errors[i - 1] / errors[i]) / math.log(xs[i - 1] / xs[i]))
        else:
            out.append(math.nan)
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
    """Least-squares slope of log e against log x (blowup studies); nan below
    two points or with a zero error."""
    if len(xs) < 2 or min(errors) == 0.0:
        return float("nan")
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(errors)), 1)[0])


_DATA = {
    "a": InitialDatum("smooth_sine", frequency=2),
    "b": InitialDatum("step", location=0.5),
    "c": InitialDatum("dirac", location=0.5),
    "d": InitialDatum("step2d", location=0.5),
}


def _study_families(cfg: ExperimentConfig, alpha: float):
    """Yield (key, x name, passes) for each study family at alpha.  A pass
    (K, t, Ns) is one mesh and one time with the step counts stepped on them:
    a temporal family is one pass with every N, a spatial family one pass
    per mesh and a blowup family one per t, each with the study's one N."""
    head = f"{cfg.example}/{cfg.scheme}/alpha={alpha:g}"
    if cfg.study == "blowup":
        yield f"{head}/blowup", "t", [(cfg.meshes[0], t, cfg.Ns) for t in sorted(cfg.ts, reverse=True)]
        return
    for t in cfg.ts:
        # a temporal study holds the mesh fixed, so its family is one pass
        yield (f"{head}/t={t:g}/{cfg.study}", "tau" if cfg.study == "temporal" else "h",
               [(K, t, cfg.Ns) for K in cfg.meshes])


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    """Sweep the configured grid; one row per (alpha, mesh, step count, time).

    A family is its passes, each one mesh and one time, and the passes run
    in order.  Each mesh is built, assembled and given its projected initial
    vector once, at its first pass.  A pass steps each of its step counts,
    keeping only a copy of the final state, so the snapshots are freed at
    once; then one `error_norms` call measures the stack of those final
    states.  So one reference pass serves every step count of a temporal
    family, while spatial and blowup families make one call per row.  Each
    alpha's reference is built at its first error pass, for the study's
    smallest time, after the first march.

    A pass is one failure record: its grid point names the mesh, the time
    and the step count being marched, and every step count while the pass
    is measured, and any failure inside the pass raises `ExperimentError`
    with that point.  A failed mesh build or projection names the pass's
    first N, and a failed error pass, or one that overflows or returns a
    non-finite norm, every N.  Before its first march a pass whose
    snapshots at its largest N (`stepper.snapshot_bytes`) exceed the host's
    physical memory is refused with a `MemoryError` naming that N.
    """
    fit = loglog_slope if cfg.study == "blowup" else fitted_rate
    datum = _DATA[cfg.example]
    project = ritz_project if cfg.projection == "ritz" else l2_project
    t_min = min(cfg.ts)
    spaces: dict[int, tuple] = {}   # K -> (space, initial vector)
    report = ErrorReport(config=cfg)
    for alpha in cfg.alphas:
        reference = None
        for key, x_name, passes in _study_families(cfg, alpha):
            rows = []
            for K, t, Ns in passes:
                # the pass's grid point; its N is the first step count at the
                # mesh lookup, the largest at the memory check, the one being
                # marched, then every step count while the pass is measured
                point = {"example": cfg.example, "alpha": alpha, "K": K, "N": Ns[0], "t": t}
                try:
                    if K not in spaces:
                        space = assemble(build_square_mesh(K) if datum.dim == 2 else build_interval_mesh(K))
                        spaces[K] = space, project(space, datum)
                    space, v = spaces[K]
                    point["N"] = max(Ns)
                    need = snapshot_bytes(space, point["N"], v)
                    if need > _MEMORY_BYTES:
                        raise MemoryError(f"its snapshots need {need} bytes, more than the "
                                          f"{_MEMORY_BYTES} bytes of physical memory")
                    finals = []
                    for N in Ns:
                        point["N"] = N
                        scfg = SchemeConfig(scheme=cfg.scheme, alpha=alpha, gamma=cfg.gamma, tau=t / N, n_steps=N)
                        finals.append(run_scheme(space, scfg, v)[-1].copy())
                    point["N"] = Ns
                    if reference is None:
                        reference = build_modal_solution(datum, alpha, cfg.gamma, tol=cfg.oracle_tol, t_min=t_min)
                        if reference.tail_bound > cfg.oracle_tol:
                            print(f"rstokes: warning: reference for alpha={alpha:g} at t_min={t_min:g} keeps "
                                  f"{len(reference.modes)} modes; its tail bound {reference.tail_bound:.3g} exceeds "
                                  f"oracle_tol {cfg.oracle_tol:g}", file=sys.stderr)
                    with np.errstate(over="raise", invalid="raise"):
                        norms = error_norms(space, np.stack(finals), reference, t)
                    if not np.all(np.isfinite(norms)):
                        raise FloatingPointError(f"error norms are not finite: {norms.tolist()}")
                except Exception as exc:
                    raise ExperimentError(point, exc) from exc
                # a datum outside L2 (Dirac) has no norm, and its errors stay absolute
                if report.normalized:
                    norms /= datum.l2_norm
                rows += (ReportRow(alpha, 1.0 / K, t / N, t, l2, h1, None)
                         for N, (l2, h1) in zip(Ns, norms.T.tolist()))
            xs = [getattr(r, x_name) for r in rows]
            l2s, h1s = [r.l2_error for r in rows], [r.h1_error for r in rows]
            rows = tuple(replace(r, rate=rate) for r, rate in zip(rows, pair_rates(xs, l2s)))
            report.families.append(Family(key, x_name, rows, fit(xs, l2s), fit(xs, h1s)))
    return report


# ---------------------------------------------------------------------------
# report emission

def _emit_csv(report: ErrorReport, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in report.rows:
        # .17g round-trips every float, and None writes a blank cell
        values = (getattr(r, f.name) for f in fields(r))
        writer.writerow([report.config.example, report.config.scheme,
                         *("" if v is None else format(v, ".17g") for v in values)])


def _emit_text(report: ErrorReport, stream) -> None:
    label = "normalized" if report.normalized else "absolute"
    for fam in report.families:
        stream.write(f"# {fam.key}  ({label} errors)\n")
        stream.write(f"{fam.x_name:>12s} {'l2_error':>14s} {'h1_error':>14s} {'rate':>8s}\n")
        for r in fam.rows:
            rate = "" if r.rate is None else f"{r.rate:8.3f}"
            stream.write(f"{getattr(r, fam.x_name):12.6g} {r.l2_error:14.6e} {r.h1_error:14.6e} {rate:>8s}\n")
        stream.write(f"fitted: l2 rate {fam.l2_rate:.3f}, h1 rate {fam.h1_rate:.3f}\n\n")


def emit_report(report: ErrorReport) -> str:
    """Write the report in its config's format; returns the text, also written to config.out if set."""
    buf = io.StringIO()
    (_emit_csv if report.config.fmt == "csv" else _emit_text)(report, buf)
    text = buf.getvalue()
    if report.config.out:
        Path(report.config.out).write_text(text)
    return text
