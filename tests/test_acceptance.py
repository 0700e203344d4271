"""Acceptance suite: every criterion as one test with a printed PASS/FAIL line.

The TABLE* constants below are trusted benchmark errors for these study
configurations.  Rates are the hard contract; magnitudes must agree within a
factor of two (a spectral reference and a refined-mesh reference weigh
unresolved scales differently).  Run with
`pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import csv
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    KernelDensity,
    SymbolProbe,
    _uj_talbot,
    limit_alpha1,
    nodal_matrices,
    scalar_trajectory_be,
    scalar_trajectory_sbd,
    sector_probe,
    uj_eval,
)
from rstokes.fem import assemble
from rstokes.harness import ExperimentConfig, emit_report, run_experiment
from rstokes.linalg import solve_spd
from rstokes.mesh import build_interval_mesh, build_square_mesh
from rstokes.stepper import SchemeConfig, run_scheme
from rstokes.cq import weights

PI2 = math.pi**2
ALPHAS = (0.1, 0.5, 0.9)

# ------------------------------------------------------------------ tables
# benchmark L2 temporal errors, example (a): t=0.1, h=2^-11, tau = t/N, N=5..80
TABLE1 = {
    ("be", 0.1): [6.75e-3, 2.42e-3, 1.00e-3, 4.55e-4, 2.15e-4],
    ("be", 0.5): [3.68e-3, 1.73e-3, 8.42e-4, 4.13e-4, 2.03e-4],
    ("be", 0.9): [4.12e-4, 2.03e-4, 1.00e-4, 4.96e-5, 2.43e-5],
    ("sbd", 0.1): [5.59e-3, 4.82e-4, 1.18e-4, 2.77e-5, 6.66e-6],
    ("sbd", 0.5): [1.05e-3, 2.39e-4, 5.33e-5, 1.28e-5, 3.14e-6],
    ("sbd", 0.9): [7.62e-5, 1.64e-5, 3.86e-6, 9.48e-7, 2.46e-7],
}
# spatial errors, example (a): t=0.1, tau=5e-5, k=3..7 (L2, H1)
TABLE2 = {
    0.1: ([6.16e-4, 1.59e-4, 4.00e-5, 9.90e-6, 2.38e-6],
          [1.19e-2, 5.99e-3, 2.99e-3, 1.49e-3, 7.26e-4]),
    0.5: ([1.58e-3, 4.00e-4, 1.00e-4, 2.48e-5, 5.95e-6],
          [3.92e-2, 1.98e-2, 9.88e-3, 4.91e-3, 2.40e-3]),
    0.9: ([1.38e-3, 3.47e-4, 8.67e-5, 2.15e-5, 5.16e-6],
          [3.56e-2, 1.79e-2, 8.96e-3, 4.45e-3, 2.17e-3]),
}
# L2 temporal errors, example (b): t=0.1, h=2^-11
TABLE3 = {
    ("be", 0.1): [2.82e-2, 1.42e-2, 7.13e-3, 3.56e-3, 1.76e-3],
    ("be", 0.5): [8.67e-3, 4.18e-3, 2.05e-3, 1.01e-3, 4.97e-4],
    ("be", 0.9): [9.06e-4, 4.47e-4, 2.21e-4, 1.09e-4, 5.42e-5],
    ("sbd", 0.1): [7.14e-3, 1.61e-3, 3.92e-4, 9.63e-5, 2.38e-5],
    ("sbd", 0.5): [2.46e-3, 5.05e-4, 1.17e-4, 2.82e-5, 6.91e-6],
    ("sbd", 0.9): [1.67e-4, 3.58e-5, 8.40e-6, 2.04e-6, 5.11e-7],
}
# spatial errors, example (b): alpha=0.5, N=1000, k=3..7 per time (L2, H1)
TABLE4 = {
    0.1: ([1.63e-3, 4.09e-4, 1.02e-4, 2.55e-5, 6.30e-6],
          [4.04e-2, 2.02e-2, 1.01e-2, 5.04e-3, 2.51e-3]),
    0.01: ([5.87e-3, 1.47e-3, 3.66e-4, 9.13e-5, 2.26e-5],
           [1.62e-1, 8.08e-2, 4.04e-2, 2.02e-2, 1.00e-2]),
    0.001: ([1.47e-2, 3.66e-3, 9.15e-4, 2.28e-4, 5.65e-5],
            [4.48e-1, 2.24e-1, 1.12e-1, 5.60e-2, 2.78e-2]),
}
# blowup values: alpha=0.5, h=2^-6, t = 1e-3..1e-8
TABLE5 = {
    "a": [2.48e-4, 3.07e-4, 3.27e-4, 3.46e-4, 3.55e-4, 3.58e-4],
    "b": [2.28e-4, 5.07e-4, 1.22e-3, 2.89e-3, 6.78e-3, 1.56e-2],
}
# Dirac on the aligned grid: alpha=0.5, N=1000, k=3..7 (absolute errors)
TABLE6 = {
    0.1: ([1.19e-4, 2.98e-5, 7.45e-6, 1.86e-6, 4.62e-7],
          [5.35e-3, 2.69e-3, 1.35e-3, 6.72e-4, 3.34e-4]),
    0.01: ([2.41e-3, 6.04e-4, 1.51e-4, 3.77e-5, 9.31e-6],
           [3.98e-2, 1.99e-2, 9.92e-3, 4.95e-3, 2.46e-3]),
    0.001: ([1.25e-2, 3.12e-3, 7.80e-4, 1.94e-4, 4.83e-5],
            [5.00e-1, 2.50e-1, 1.25e-1, 6.23e-2, 3.09e-2]),
}
# Dirac on the misaligned grid K = 2^k + 1
TABLE7 = {
    0.1: ([5.84e-3, 2.22e-3, 8.15e-4, 2.93e-4, 1.04e-4],
          [1.79e-1, 1.29e-1, 9.16e-2, 6.44e-2, 4.45e-2]),
    0.01: ([2.42e-2, 9.54e-3, 3.57e-3, 1.30e-3, 4.63e-4],
           [7.77e-1, 5.68e-1, 4.07e-1, 2.87e-1, 1.98e-1]),
    0.001: ([8.01e-2, 3.27e-2, 1.25e-2, 4.57e-3, 1.64e-3],
            [2.65e0, 1.97e0, 1.43e0, 1.02e0, 7.05e-1]),
}
# 2D temporal (alpha=0.5) and spatial tables; BE magnitudes are h-insensitive
TABLE8_BE = [4.53e-3, 2.15e-3, 1.04e-3, 5.17e-4, 2.56e-4]
TABLE9 = {
    0.1: ([1.95e-3, 5.02e-4, 1.26e-4, 3.12e-5],
          [3.29e-2, 1.63e-2, 8.11e-3, 4.03e-3]),
    0.01: ([7.79e-3, 2.00e-3, 5.03e-4, 1.25e-4],
           [1.43e-1, 7.09e-2, 3.53e-2, 1.75e-2]),
    0.001: ([1.97e-2, 5.09e-3, 1.28e-3, 3.19e-4],
            [4.44e-1, 2.22e-1, 1.11e-1, 5.52e-2]),
}

BE_WINDOW = (0.90, 1.20)
SBD_WINDOW = (1.90, 2.20)
L2_SPATIAL_WINDOW = (1.85, 2.15)
H1_SPATIAL_WINDOW = (0.90, 1.10)


def _announce(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _family(report, alpha=None, t=None):
    out = []
    for fam in report.families:
        sel = True
        if alpha is not None:
            sel &= f"alpha={alpha:g}/" in fam.key
        if t is not None:
            sel &= f"/t={t:g}/" in fam.key or fam.key.endswith("blowup")
        if sel:
            out.append(fam)
    return out


# ------------------------------------------------------------------ fixtures

@pytest.fixture(scope="module")
def t1_reports():
    start = time.time()
    reps = {
        scheme: run_experiment(
            ExperimentConfig(example="a", scheme=scheme, study="temporal",
                             alphas=ALPHAS, ks=(11,), Ns=(5, 10, 20, 40, 80), ts=(0.1,))
        )
        for scheme in ("be", "sbd")
    }
    reps["elapsed"] = time.time() - start
    return reps


@pytest.fixture(scope="module")
def t2_report():
    start = time.time()
    # second-order stepping at the same tau = 5e-5: measures the identical
    # spatial error without the first-order tau floor that a spectral
    # reference would otherwise expose at k >= 6
    rep = run_experiment(
        ExperimentConfig(example="a", scheme="sbd", study="spatial",
                         alphas=ALPHAS, ks=(3, 4, 5, 6, 7), Ns=(2000,), ts=(0.1,))
    )
    rep.elapsed = time.time() - start
    return rep


@pytest.fixture(scope="module")
def t3_reports():
    return {
        scheme: run_experiment(
            ExperimentConfig(example="b", scheme=scheme, study="temporal",
                             alphas=ALPHAS, ks=(11,), Ns=(5, 10, 20, 40, 80), ts=(0.1,))
        )
        for scheme in ("be", "sbd")
    }


@pytest.fixture(scope="module")
def t4_report():
    return run_experiment(
        ExperimentConfig(example="b", scheme="sbd", study="spatial",
                         alphas=(0.5,), ks=(3, 4, 5, 6, 7), Ns=(1000,), ts=(0.1, 0.01, 0.001))
    )


@pytest.fixture(scope="module")
def t5_reports():
    ts = tuple(10.0 ** (-e) for e in range(3, 9))
    return {
        ex: run_experiment(
            ExperimentConfig(example=ex, scheme="sbd", study="blowup",
                             alphas=(0.5,), ks=(6,), Ns=(1000,), ts=ts)
        )
        for ex in ("a", "b")
    }


@pytest.fixture(scope="module")
def t6_report():
    return run_experiment(
        ExperimentConfig(example="c", scheme="sbd", study="spatial",
                         alphas=(0.5,), ks=(3, 4, 5, 6, 7), Ns=(1000,), ts=(0.1, 0.01, 0.001))
    )


@pytest.fixture(scope="module")
def t7_report():
    return run_experiment(
        ExperimentConfig(example="c", scheme="sbd", study="spatial",
                         alphas=(0.5,), Ks=(9, 17, 33, 65, 129), Ns=(1000,), ts=(0.1, 0.01, 0.001))
    )


@pytest.fixture(scope="module")
def t8_reports():
    start = time.time()
    be = run_experiment(
        ExperimentConfig(example="d", scheme="be", study="temporal",
                         alphas=(0.5,), ks=(7,), Ns=(5, 10, 20, 40, 80), ts=(0.1,))
    )
    # finer mesh and step counts past the startup transient keep the
    # second-order family inside its asymptotic window
    sbd = run_experiment(
        ExperimentConfig(example="d", scheme="sbd", study="temporal",
                         alphas=(0.5,), Ks=(192,), Ns=(3, 6, 12, 24), ts=(0.1,))
    )
    return {"be": be, "sbd": sbd, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def t9_report():
    start = time.time()
    rep = run_experiment(
        ExperimentConfig(example="d", scheme="sbd", study="spatial",
                         alphas=(0.5,), ks=(3, 4, 5, 6), Ns=(200,), ts=(0.1, 0.01, 0.001))
    )
    rep.elapsed = time.time() - start
    return rep


# ------------------------------------------------------------------ criteria

def test_criterion_1_temporal_rates_smooth(t1_reports):
    details = []
    ok = True
    for scheme, window in (("be", BE_WINDOW), ("sbd", SBD_WINDOW)):
        for alpha in ALPHAS:
            fam = _family(t1_reports[scheme], alpha=alpha)[0]
            details.append(f"{scheme} a={alpha:g}: {fam.l2_rate:.2f}")
            ok &= window[0] <= fam.l2_rate <= window[1]
    ok &= t1_reports["elapsed"] < 60.0
    _announce(1, "temporal rates, example (a)", ok,
              "; ".join(details) + f"; {t1_reports['elapsed']:.1f}s")


def test_criterion_2_spatial_rates_smooth(t2_report):
    details = []
    ok = True
    for alpha in ALPHAS:
        fam = _family(t2_report, alpha=alpha)[0]
        details.append(f"a={alpha:g}: L2 {fam.l2_rate:.2f} H1 {fam.h1_rate:.2f}")
        ok &= L2_SPATIAL_WINDOW[0] <= fam.l2_rate <= L2_SPATIAL_WINDOW[1]
        ok &= H1_SPATIAL_WINDOW[0] <= fam.h1_rate <= H1_SPATIAL_WINDOW[1]
    ok &= t2_report.elapsed < 60.0
    _announce(2, "spatial rates, example (a)", ok,
              "; ".join(details) + f"; {t2_report.elapsed:.1f}s")


def test_criterion_3_nonsmooth_rates(t3_reports, t4_report):
    details = []
    ok = True
    for scheme, window in (("be", BE_WINDOW), ("sbd", SBD_WINDOW)):
        for alpha in ALPHAS:
            fam = _family(t3_reports[scheme], alpha=alpha)[0]
            details.append(f"{scheme} a={alpha:g}: {fam.l2_rate:.2f}")
            ok &= window[0] <= fam.l2_rate <= window[1]
    for t in (0.1, 0.01, 0.001):
        fam = _family(t4_report, t=t)[0]
        details.append(f"spatial t={t:g}: L2 {fam.l2_rate:.2f} H1 {fam.h1_rate:.2f}")
        ok &= L2_SPATIAL_WINDOW[0] <= fam.l2_rate <= L2_SPATIAL_WINDOW[1]
        ok &= H1_SPATIAL_WINDOW[0] <= fam.h1_rate <= H1_SPATIAL_WINDOW[1]
    _announce(3, "nonsmooth data, example (b)", ok, "; ".join(details))


def test_criterion_4_blowup_slopes(t5_reports):
    slope_a = t5_reports["a"].families[0].l2_rate
    slope_b = t5_reports["b"].families[0].l2_rate
    ok = -0.08 <= slope_a <= 0.05 and -0.43 <= slope_b <= -0.31
    _announce(4, "error blowup toward t=0", ok,
              f"slope (a) {slope_a:+.3f} in [-0.08,0.05]; slope (b) {slope_b:+.3f} in [-0.43,-0.31]")


def test_criterion_5_dirac_aligned_rates(t6_report):
    details = []
    ok = True
    for t in (0.1, 0.01, 0.001):
        fam = _family(t6_report, t=t)[0]
        details.append(f"t={t:g}: L2 {fam.l2_rate:.2f} H1 {fam.h1_rate:.2f}")
        ok &= L2_SPATIAL_WINDOW[0] <= fam.l2_rate <= L2_SPATIAL_WINDOW[1]
        ok &= H1_SPATIAL_WINDOW[0] <= fam.h1_rate <= H1_SPATIAL_WINDOW[1]
    _announce(5, "Dirac data, aligned grid", ok, "; ".join(details))


def test_criterion_6_dirac_misaligned_rates(t7_report):
    details = []
    ok = True
    for t in (0.1, 0.01, 0.001):
        fam = _family(t7_report, t=t)[0]
        details.append(f"t={t:g}: L2 {fam.l2_rate:.2f} H1 {fam.h1_rate:.2f}")
        ok &= 1.35 <= fam.l2_rate <= 1.60
        ok &= 0.40 <= fam.h1_rate <= 0.60
    _announce(6, "Dirac data, misaligned grid", ok, "; ".join(details))


def test_criterion_7_two_dimensional(t8_reports, t9_report):
    details = []
    be = _family(t8_reports["be"], alpha=0.5)[0]
    sbd = _family(t8_reports["sbd"], alpha=0.5)[0]
    ok = BE_WINDOW[0] <= be.l2_rate <= BE_WINDOW[1]
    ok &= SBD_WINDOW[0] <= sbd.l2_rate <= SBD_WINDOW[1]
    details.append(f"temporal BE {be.l2_rate:.2f}, SBD {sbd.l2_rate:.2f}")
    fam = _family(t9_report, t=0.1)[0]
    ok &= L2_SPATIAL_WINDOW[0] <= fam.l2_rate <= L2_SPATIAL_WINDOW[1]
    ok &= H1_SPATIAL_WINDOW[0] <= fam.h1_rate <= H1_SPATIAL_WINDOW[1]
    details.append(f"spatial L2 {fam.l2_rate:.2f} H1 {fam.h1_rate:.2f}")
    elapsed = t8_reports["elapsed"] + t9_report.elapsed
    ok &= elapsed < 600.0
    _announce(7, "2D example (d), desk scale", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_8_error_magnitudes(
    t1_reports, t2_report, t3_reports, t4_report, t5_reports, t6_report, t7_report,
    t8_reports, t9_report
):
    checks: list[tuple[str, float, float]] = []

    def fam_errors(report, alpha=None, t=None):
        return _family(report, alpha=alpha, t=t)[0]

    for scheme in ("be", "sbd"):
        for alpha in ALPHAS:
            fam = fam_errors(t1_reports[scheme], alpha=alpha)
            checks += [(f"T1 {scheme} a={alpha}", o, p)
                       for o, p in zip([r.l2_error for r in fam.rows], TABLE1[(scheme, alpha)])]
            fam = fam_errors(t3_reports[scheme], alpha=alpha)
            checks += [(f"T3 {scheme} a={alpha}", o, p)
                       for o, p in zip([r.l2_error for r in fam.rows], TABLE3[(scheme, alpha)])]
    for alpha in ALPHAS:
        fam = fam_errors(t2_report, alpha=alpha)
        checks += [(f"T2 L2 a={alpha}", o, p) for o, p in zip([r.l2_error for r in fam.rows], TABLE2[alpha][0])]
        checks += [(f"T2 H1 a={alpha}", o, p) for o, p in zip([r.h1_error for r in fam.rows], TABLE2[alpha][1])]
    for t in (0.1, 0.01, 0.001):
        for label, report, table in (("T4", t4_report, TABLE4), ("T6", t6_report, TABLE6),
                                     ("T7", t7_report, TABLE7), ("T9", t9_report, TABLE9)):
            fam = fam_errors(report, t=t)
            checks += [(f"{label} L2 t={t}", o, p) for o, p in zip([r.l2_error for r in fam.rows], table[t][0])]
            checks += [(f"{label} H1 t={t}", o, p) for o, p in zip([r.h1_error for r in fam.rows], table[t][1])]
    for ex in ("a", "b"):
        fam = t5_reports[ex].families[0]
        checks += [(f"T5 ({ex})", o, p) for o, p in zip([r.l2_error for r in fam.rows], TABLE5[ex])]
    fam = fam_errors(t8_reports["be"], alpha=0.5)
    checks += [("T8 BE", o, p) for o, p in zip([r.l2_error for r in fam.rows], TABLE8_BE)]

    bad = [(label, ours, ref) for label, ours, ref in checks
           if not 0.5 <= ours / ref <= 2.0]
    worst = max(checks, key=lambda c: max(c[1] / c[2], c[2] / c[1]))
    detail = (f"{len(checks)} table entries, worst ratio {worst[1] / worst[2]:.2f} at {worst[0]}"
              + (f"; violations: {bad[:4]}" if bad else ""))
    _announce(8, "error magnitudes within 2x of printed values", not bad, detail)


# ------------------------------------------------------------ pinned rows

# the CSV report of each study above, recorded under tests/expected/: file
# name -> (fixture, key of the report in a fixture that holds several)
PINNED = {
    "t1_be": ("t1_reports", "be"), "t1_sbd": ("t1_reports", "sbd"), "t2": ("t2_report", None),
    "t3_be": ("t3_reports", "be"), "t3_sbd": ("t3_reports", "sbd"), "t4": ("t4_report", None),
    "t5a": ("t5_reports", "a"), "t5b": ("t5_reports", "b"), "t6": ("t6_report", None),
    "t7": ("t7_report", None), "t8_be": ("t8_reports", "be"), "t8_sbd": ("t8_reports", "sbd"),
    "t9": ("t9_report", None),
}


@pytest.mark.parametrize("name", PINNED)
def test_rows_match_recorded(request, name):
    # The tables above accept any error within 2x; this pins every row.  The
    # relative tolerance 1e-8 lies far above the spread between BLAS thread
    # counts (measured at most 2.3e-10) and far below any change of method.  An
    # intended numeric change re-records the file as emit_report(report) and
    # states the largest move per file; it never loosens the tolerance.
    fixture, key = PINNED[name]
    report = request.getfixturevalue(fixture)
    if key is not None:
        report = report[key]
    got = list(csv.reader(io.StringIO(emit_report(report))))
    with open(Path(__file__).parent / "expected" / f"{name}.csv", newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        # example, scheme and the grid point (alpha, h, tau, t) as written
        assert row[:6] == ref[:6]
        assert [float(c) for c in row[6:8]] == pytest.approx([float(c) for c in ref[6:8]], rel=1e-8, abs=0.0)
        # the rate: blank on the first row of a family, O(1) otherwise
        assert (row[8] == "") == (ref[8] == "")
        if ref[8]:
            assert float(row[8]) == pytest.approx(float(ref[8]), rel=1e-8, abs=1e-8)


# ------------------------------------------------- criterion 9: properties

def test_criterion_9a_cq_weight_oracles():
    import mpmath

    ok = True
    with mpmath.workdps(40):
        for mu in (0.1, 0.5, 0.9):
            w = weights("be", mu, 30)
            oracle = np.array([float((-1) ** j * mpmath.binomial(mu, j)) for j in range(31)])
            ok &= bool(np.max(np.abs(w - oracle)) < 1e-12)
    for m in (1, 2, 3):
        poly = np.array([1.5, -2.0, 0.5])
        acc = np.array([1.0])
        for _ in range(m):
            acc = np.convolve(acc, poly)
        w = weights("sbd", float(m), len(acc) - 1)
        ok &= bool(np.max(np.abs(w - acc)) < 1e-12)
    _announce(9, "property: CQ weights vs binomial/integer-power oracles", ok, "tolerance 1e-12")


def test_criterion_9b_mode_decoupling():
    worst = 0.0
    for builder, K in ((build_interval_mesh, 16), (build_square_mesh, 4)):
        space = assemble(builder(K))
        assert space.n_dof <= 15
        # eigenvectors of the nodal pencil, mapped to the space's coordinates:
        # the 1D matrices are diagonal there, and must not be checked against themselves
        M, S = (A.toarray() for A in nodal_matrices(space.mesh))
        lams, vecs = scipy.linalg.eigh(S, M)
        vecs = space.to_coords(vecs.T)
        for scheme, scalar in (("be", scalar_trajectory_be), ("sbd", scalar_trajectory_sbd)):
            cfg = SchemeConfig(scheme, 0.5, 1.0, 0.02, 10)
            for k in range(space.n_dof):
                U = run_scheme(space, cfg, vecs[k])
                ref = scalar(float(lams[k]), 0.5, 1.0, 0.02, 10)
                worst = max(worst, float(np.max(np.abs(U - np.outer(ref, vecs[k])))))
    _announce(9, "property: matrix/scalar mode decoupling", worst < 1e-10, f"worst gap {worst:.2e}")


def test_criterion_9c_modal_factor_properties():
    K1 = KernelDensity(PI2, 1.0, 0.5)
    vals = [uj_eval(K1, t) for t in (0.05, 0.1, 0.2, 0.4)]
    ok = all(0 < v <= 1 for v in vals) and all(a > b for a, b in zip(vals, vals[1:]))
    ok &= abs(uj_eval(K1, 1e-9) - 1.0) < 1e-3
    total = 0.0
    edges = np.geomspace(1e-12, 1.0, 40)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = np.polynomial.legendre.leggauss(8)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * (w @ np.array([uj_eval(K1, float(mid + half * xx)) for xx in x]))
    ok &= total < 1.0 / PI2
    talbot_gap = max(
        abs(uj_eval(KernelDensity(lam, 1.0, alpha), t) - _uj_talbot(lam, alpha, 1.0, t))
        for lam in (PI2, 4 * PI2) for alpha in (0.3, 0.5, 0.9) for t in (0.001, 0.1, 1.0)
    )
    ok &= talbot_gap < 1e-8
    u999 = uj_eval(KernelDensity(PI2, 1.0, 0.999), 0.1)
    limit_gap = abs(u999 * (1 + PI2) - limit_alpha1(PI2, 1.0, 0.1)) / limit_alpha1(PI2, 1.0, 0.1)
    ok &= limit_gap < 0.02
    _announce(9, "property: modal factor positivity/decay/limits", ok,
              f"talbot gap {talbot_gap:.1e}, alpha->1 gap {limit_gap:.1%}")


def test_criterion_9d_sector_audit():
    rng = np.random.default_rng(7)
    mod = 10.0 ** rng.uniform(-3, 3, 1000)
    arg = rng.uniform(-0.75 * math.pi, 0.75 * math.pi, 1000)
    rep = sector_probe(SymbolProbe(alpha=0.5, gamma=1.0), mod * np.exp(1j * arg))
    _announce(9, "property: sector bounds of the symbol", rep.violations == 0,
              f"{rep.n_samples} samples, max |g| sin(a pi)/|z| = {rep.max_ratio_linear:.3f}")


def test_criterion_9e_projection_identities(rng):
    # a mesh function v (zero on the boundary) has L2 load M v and Ritz load
    # S v; solving M and S with solve_spd must give v back
    worst = 0.0
    for builder, K in ((build_interval_mesh, 12), (build_square_mesh, 4)):
        space = assemble(builder(K))
        v = space.to_coords(rng.standard_normal(space.n_dof))
        for A in (space.M, space.S):
            got = solve_spd(A, A @ v)
            worst = max(worst, float(np.max(np.abs(got - v))))
    _announce(9, "property: projections reproduce mesh functions", worst < 1e-10,
              f"worst gap {worst:.2e}")
