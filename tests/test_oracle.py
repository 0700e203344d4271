import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    KernelDensity,
    SymbolProbe,
    _uj_talbot,
    direct_bromwich,
    direct_eval_points,
    gauss_panels,
    limit_alpha1,
    sector_probe,
    uj_eval,
)
from rstokes.fem import InitialDatum
from rstokes.oracle import (
    ModalSolution,
    _BROMWICH_BLOCK,
    _ENVELOPE,
    _MODE_CAP,
    _bromwich,
    _inverse_laplacian,
    _residual_bound_coef,
    build_modal_solution,
    datum_coefficients,
    eigenbasis,
)

PI2 = math.pi**2


# ---------------------------------------------------------------- eigenbasis

def test_interval_eigenpairs():
    modes = eigenbasis("interval", 4)
    assert np.allclose(modes.lam, [(j * math.pi) ** 2 for j in range(1, 5)])
    # ||phi_1||_L2 = 1 by quadrature
    x, w = gauss_panels(0.0, 1.0, 32)
    assert abs(w @ (2.0 * np.sin(math.pi * x) ** 2) - 1.0) < 1e-12


def test_square_eigenvalues_sorted():
    modes = eigenbasis("square", 12)
    assert modes.lam[0] == pytest.approx(2 * PI2)
    assert np.all(np.diff(modes.lam) >= 0)
    assert modes.jx[0] == modes.jy[0] == 1


def test_eigenbasis_validation():
    with pytest.raises(ValueError):
        eigenbasis("interval", 0)
    with pytest.raises(ValueError):
        eigenbasis("disk", 4)


# ------------------------------------------------------- datum coefficients

def test_sine_datum_single_mode():
    modes = eigenbasis("interval", 6)
    c = datum_coefficients(InitialDatum("smooth_sine", frequency=2), modes)
    assert c[1] == pytest.approx(1.0 / math.sqrt(2.0))
    assert np.count_nonzero(c) == 1


def test_step_coefficients_analytic():
    modes = eigenbasis("interval", 8)
    c = datum_coefficients(InitialDatum("step", location=0.5), modes)
    assert c[0] == pytest.approx(math.sqrt(2.0) / math.pi)   # sqrt2 * int_0^1/2 sin(pi x)
    assert c[3] == pytest.approx(0.0, abs=1e-15)             # cos(2 pi) = 1


def test_dirac_coefficients():
    modes = eigenbasis("interval", 4)
    c = datum_coefficients(InitialDatum("dirac", location=0.5), modes)
    assert c[1] == pytest.approx(0.0, abs=1e-12)             # node of phi_2
    assert c[0] == pytest.approx(math.sqrt(2.0))


def test_step2d_tensor_coefficients():
    modes = eigenbasis("square", 40)
    c = datum_coefficients(InitialDatum("step2d", location=0.5), modes)
    i = np.flatnonzero((modes.jx == 1) & (modes.jy == 1))[0]
    assert c[i] == pytest.approx(4.0 / PI2)
    even_y = modes.jy % 2 == 0
    assert np.allclose(c[even_y], 0.0, atol=1e-15)


def test_custom_coefficients_kind_is_rejected():
    # the studies run four data; a nodal mesh function is not one of them
    with pytest.raises(ValueError, match="custom_coefficients"):
        InitialDatum("custom_coefficients")


@pytest.mark.parametrize("frequency", [-2, 0, 2.5, 2.0])
def test_sine_frequency_must_be_positive_integer(frequency):
    # f = -2 dropped the rho mode (c_j looked for j = -2), f = 0 gave nan and
    # f = 2.5 a w that is not zero at x = 1
    with pytest.raises(ValueError, match="frequency"):
        InitialDatum("smooth_sine", frequency=frequency)


@pytest.mark.parametrize("frequency", [_MODE_CAP + 1, 3 * _MODE_CAP])
def test_sine_frequency_above_mode_cap_has_no_reference(frequency):
    # beyond the cap the datum's one coefficient would not be among the modes
    with pytest.raises(ValueError, match="frequency"):
        build_modal_solution(InitialDatum("smooth_sine", frequency=frequency), 0.5, 1.0)


def test_sine_frequency_at_mode_cap_is_certified():
    # the one coefficient lies inside the cap, so tail_bound covers its dropped
    # residual; the plain factor adds about 3e-13 roundoff
    f, t = _MODE_CAP, 1e-3
    ms = build_modal_solution(InitialDatum("smooth_sine", frequency=f), 0.5, 1.0, tol=1e-8, t_min=t)
    assert ms.tail_bound <= 1e-8
    x = np.array([0.21, 0.5 + 0.25 / f, 0.77])
    exact = uj_eval(KernelDensity((f * math.pi) ** 2, 1.0, 0.5), t) * np.sin(f * math.pi * x)
    assert np.max(np.abs(ms.eval_points(x, t)[0] - exact)) <= ms.tail_bound + 1e-12


# ------------------------------------------------------------- modal factor

def test_kernel_density_positive():
    for alpha in (0.1, 0.5, 0.9):
        for lam in (PI2, 4 * PI2, 100.0):
            K = KernelDensity(lam, 1.0, alpha)
            r = np.logspace(-8, 8, 200)
            assert np.all(K(r) > 0)


def test_uj_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        uj_eval(KernelDensity(PI2, 1.0, 0.5), 0.0)


def test_uj_range_and_monotonicity():
    K = KernelDensity(PI2, 1.0, 0.5)
    vals = [uj_eval(K, t) for t in (0.1, 0.2, 0.4)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]


def test_uj_initial_limit():
    # 1 - u ~ gamma lam t^{1-alpha} / Gamma(2-alpha), so the gap at t=1e-8 is
    # about 1.11e-3 for lam=pi^2 and shrinks like sqrt(t)
    K = KernelDensity(PI2, 1.0, 0.5)
    gap8 = 1.0 - uj_eval(K, 1e-8)
    gap10 = 1.0 - uj_eval(K, 1e-10)
    assert 0.0 < gap8 < 2e-3
    assert gap10 < 1e-3
    assert gap10 < gap8 / 5.0


def test_uj_against_talbot_oracle():
    for alpha in (0.3, 0.5, 0.9):
        for lam in (PI2, 4 * PI2):
            for t in (0.001, 0.1, 1.0):
                q = uj_eval(KernelDensity(lam, 1.0, alpha), t)
                assert abs(q - _uj_talbot(lam, alpha, 1.0, t)) < 1e-8


def test_uj_integral_bounded_by_inverse_eigenvalue():
    alpha = 0.5
    for lam in (PI2, 4 * PI2, 100.0):
        K = KernelDensity(lam, 1.0, alpha)
        totals = []
        for T in (0.1, 1.0, 10.0):
            # graded panels toward t=0 where u has a t^{1-alpha} shoulder
            edges = np.geomspace(1e-12 * T, T, 40)
            total = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                x, w = gauss_panels(a, b, 1, order=8)
                total += w @ np.array([uj_eval(K, float(t)) for t in x])
            assert 0.0 < total < 1.0 / lam
            totals.append(total)
        # mass accumulates toward the 1/lam cap as T grows
        assert totals[0] < totals[1] < totals[2]
        assert totals[2] > 0.5 / lam


def test_uj_min_bound_single_constant():
    # |lam u(t)| <= c min(1/t, t^{alpha-1}) with one c across the grid
    alpha, gamma = 0.5, 1.0
    ratios = []
    for lam in (PI2, 4 * PI2, 100.0):
        K = KernelDensity(lam, gamma, alpha)
        for t in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
            u = uj_eval(K, t)
            ratios.append(lam * u / min(1.0 / t, t ** (alpha - 1.0)))
    c = max(ratios)
    assert 0.05 < c < 3.0


def test_uj_large_time_decay_regime():
    # at large t the product lam * u * t stays bounded
    K = KernelDensity(PI2, 1.0, 0.5)
    vals = [PI2 * uj_eval(K, t) * t for t in (10.0, 100.0, 1000.0)]
    assert vals[0] < 3.0
    assert vals[2] < vals[0]


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_uj_against_real_line_density_quadrature(alpha):
    # u(t) = int exp(-rt) K(r) dr in s = log r; the cut below r = e^-45 loses
    # < 1e-19 and exp(-rt) < 1e-26 beyond rt = 60
    worst = 0.0
    for lam in (PI2, 1e2 * PI2, 1e4 * PI2, 1e8 * PI2):
        K = KernelDensity(lam, 1.0, alpha)
        for t in (1e-6, 1e-3, 0.1, 1.0):
            s, w = gauss_panels(-45.0, math.log(60.0 / t), 3000)
            r = np.exp(s)
            ref = w @ (np.exp(-r * t) * K(r) * r)
            worst = max(worst, abs(uj_eval(K, t) - ref))
    assert worst <= 1e-11


def _mittag_leffler_beta1(alpha: float, gamma: float, t: float) -> float:
    # inverse transform of 1/(1 + gamma z^alpha): t^(a-1) E_{a,a}(-t^a/gamma) / gamma
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        x = -mpmath.mpf(t) ** a / gamma
        total, k = mpmath.mpf(0), 0
        while True:
            term = x**k / mpmath.gamma(a * k + a)
            total += term
            if k > 10 and abs(term) < mpmath.mpf(10) ** -35 * abs(total):
                break
            k += 1
        return float(mpmath.mpf(t) ** (a - 1) * total / gamma)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_beta1_against_mittag_leffler_series(alpha):
    ms = build_modal_solution(InitialDatum("dirac", location=0.5), alpha, 1.0)
    for t in (1e-8, 1e-6, 1e-3, 0.1, 1.0):
        ref = _mittag_leffler_beta1(alpha, 1.0, t)
        assert abs(ms.beta1(t) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("domain,variant,t", [("square", "plain", 0.1), ("square", "plain", 1e-3),
                                              ("interval", "residual", 1e-6), ("interval", "residual", 0.1)])
def test_blocked_bromwich_equals_one_product(domain, variant, t):
    # 10^4 eigenvalues, not a whole number of blocks: each block forms the
    # same node-weight products as one product over all of them.  Exact while
    # OpenBLAS splits the columns on multiples of 4, as on 1 or 2 threads
    lams = eigenbasis(domain, 10_000).lam
    assert len(lams) % _BROMWICH_BLOCK
    assert np.array_equal(_bromwich(lams, t, 1.0, 0.5, variant), direct_bromwich(lams, t, 1.0, 0.5, variant))


def test_factors_memory_is_bounded_by_the_block():
    # the 10^4-pair step2d reference: one product over all pairs held about
    # 10 MB of complex temporaries, a block of 1024 pairs about 1.3 MB
    ms = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    assert len(ms.modes) == _MODE_CAP
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ms.factors(0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_dirac_split_reconstructs_plain_factor(alpha):
    # beta1/lam_j + rho_j is the plain factor, inverted from a different
    # symbol; the split serves step and Dirac references alike
    for kind in ("step", "dirac"):
        ms = build_modal_solution(InitialDatum(kind, location=0.5), alpha, 1.0)
        assert ms.datum is not None
        for t in (1e-8, 1e-6, 1e-3, 0.1, 1.0):
            b1 = ms.beta1(t)
            split = b1 / ms.modes.lam + ms.factors(t)
            plain = np.array([uj_eval(KernelDensity(lam, 1.0, alpha), t) for lam in ms.modes.lam])
            assert np.max(np.abs(split - plain) * ms.modes.lam) <= 1e-10 * abs(b1)


def _residual_cut_density(r, lam, gamma, alpha):
    # (1/pi) Im of -F on the upper side of the cut z = -r, where
    # F = -z / (lam q (z + lam q)) and q = 1 + gamma z^alpha
    q = 1.0 + gamma * r**alpha * np.exp(1j * math.pi * alpha)
    return -(r / (lam * q * (lam * q - r))).imag / math.pi


def _residual_majorant(r, lam, gamma, alpha):
    # |F| on the cut with |q| >= gamma r^a sin(a pi) and |z + lam q| >= lam gamma r^a sin(a pi)
    return r ** (1.0 - 2.0 * alpha) / (math.pi * (lam * gamma * math.sin(alpha * math.pi)) ** 2)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_residual_certificate(alpha):
    # |rho_j(t)| lam_j^2 <= C(t) for j <= 2e4 over gamma and t; the worst
    # ratio seen on this grid is 0.51 (alpha = 0.5, gamma = 10, t = 10)
    lam = (np.arange(1, 20_001) * math.pi) ** 2
    for gamma in (0.1, 1.0, 10.0):
        for t in (1e-8, 1e-6, 1e-3, 0.1, 1.0, 10.0):
            C = _residual_bound_coef(alpha, gamma, t)
            rho = _bromwich(lam, t, gamma, alpha, "residual")
            assert np.max(np.abs(rho) * lam**2) <= C
    # the derivation, checked step by step at a few (lam, t): the cut density
    # lies under the majorant, the majorant integrates to C(t) / lam^2 (in
    # s = log r; the cut below r = e^-250 loses < e^-50 relative), and the
    # density integrates to the contour value of rho
    for gamma in (0.1, 1.0, 10.0):
        for lam1 in (PI2, 1e2 * PI2, 1e4 * PI2):
            for t in (1e-6, 1e-3, 1.0):
                s, w = gauss_panels(-250.0, math.log(60.0 / t), 6000)
                r = np.exp(s)
                dens = _residual_cut_density(r, lam1, gamma, alpha)
                major = _residual_majorant(r, lam1, gamma, alpha)
                assert np.all(np.abs(dens) <= major * (1.0 + 1e-12))
                C = _residual_bound_coef(alpha, gamma, t)
                assert w @ (np.exp(-r * t) * major * r) == pytest.approx(C / lam1**2, rel=1e-10)
                rho = _bromwich(np.array([lam1]), t, gamma, alpha, "residual")[0]
                assert abs(rho - w @ (np.exp(-r * t) * dens * r)) <= 1e-10 * C / lam1**2


def test_alpha_to_one_limit():
    # the fractional family approaches the classical alpha=1 solution scaled
    # by 1/(1+gamma lam): the fractional term acts as a singular perturbation
    # with an initial layer collapsing onto that factor
    lam, gamma, t = PI2, 1.0, 0.1
    u = uj_eval(KernelDensity(lam, gamma, 0.999), t)
    classical = limit_alpha1(lam, gamma, t)
    assert abs(u * (1.0 + gamma * lam) - classical) / classical < 0.02


def test_limit_alpha1_closed_form():
    assert limit_alpha1(PI2, 1.0, 0.0) == 1.0
    assert limit_alpha1(1e9, 2.0, 0.3) == pytest.approx(math.exp(-0.3 / 2.0), rel=1e-6)
    assert limit_alpha1(PI2, 1.0, 0.1) == pytest.approx(math.exp(-0.1 * PI2 / (1 + PI2)))


# ------------------------------------------------------------ sector probe

def test_sector_probe_real_point():
    sp = SymbolProbe(alpha=0.5, gamma=1.0)
    rep = sector_probe(sp, np.array([1.0 + 0.0j]))
    assert rep.ok
    assert abs(sp.g(np.array([1.0 + 0j]))[0] - 0.5) < 1e-15
    assert rep.max_ratio_linear <= 0.5 + 1e-12


def test_sector_probe_imaginary_point():
    rep = sector_probe(SymbolProbe(alpha=0.5, gamma=1.0), np.array([1.0j]))
    assert rep.ok


def test_sector_probe_random_audit(rng):
    for alpha in (0.25, 0.5, 0.75):
        for gamma in (0.5, 1.0, 2.0):
            mod = 10.0 ** rng.uniform(-3, 3, size=1000)
            arg = rng.uniform(-0.75 * math.pi, 0.75 * math.pi, size=1000)
            z = mod * np.exp(1j * arg)
            rep = sector_probe(SymbolProbe(alpha=alpha, gamma=gamma), z)
            assert rep.violations == 0


def test_sector_probe_rejects_cut():
    with pytest.raises(ValueError):
        sector_probe(SymbolProbe(0.5, 1.0), np.array([-1.0 + 0j]))


# --------------------------------------------------------- modal solutions

def test_single_mode_solution_exact():
    ms = build_modal_solution(InitialDatum("smooth_sine", frequency=2), 0.5, 1.0, t_min=0.1)
    assert ms.tail_bound == 0.0
    u2 = uj_eval(KernelDensity(4 * PI2, 1.0, 0.5), 0.1)
    x = np.array([0.21, 0.5, 0.77])
    vals, grads = ms.eval_points(x, 0.1)
    assert np.max(np.abs(vals - u2 * np.sin(2 * math.pi * x))) < 1e-10
    assert np.max(np.abs(grads - u2 * 2 * math.pi * np.cos(2 * math.pi * x))) < 1e-9
    with pytest.raises(ValueError, match="positive"):
        ms.eval_points(x, 0.0)


@pytest.mark.parametrize("name,value", [("gamma", math.nan), ("gamma", math.inf), ("tol", math.nan),
                                        ("tol", math.inf), ("tol", -1.0), ("t_min", math.nan),
                                        ("t_min", math.inf), ("t_min", -1.0), ("t_min", 0.0)])
def test_build_modal_solution_rejects_nonpositive_or_nonfinite(name, value):
    # accepted, a nan gamma or t_min would give a nan reference or tail
    # bound, a nan tol would keep the mode cap silently, and t_min = -1 would
    # record a negative "certified" tail bound
    kwargs = {"gamma": 1.0, "tol": 1e-8, "t_min": 1e-3, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        build_modal_solution(InitialDatum("step"), 0.5, **kwargs)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
def test_time_factors_reject_nonpositive_or_nonfinite_time(t):
    # accepted, nan and inf would give nan factors with numpy warnings, and
    # beta1 a finite value at t = -1
    ms = build_modal_solution(InitialDatum("step"), 0.5, 1.0)
    for call in (ms.factors, ms.beta1, lambda t: ms.eval_points(np.array([0.25]), t)):
        with pytest.raises(ValueError, match="time must be positive and finite"):
            call(t)


def test_dirac_value_finite_at_misaligned_time():
    tol = 1e-8
    ms = build_modal_solution(InitialDatum("dirac", location=0.5), 0.5, 1.0, tol=tol, t_min=0.01)
    assert isinstance(ms.tail_bound, float) and ms.tail_bound <= tol
    vals, _ = ms.eval_points(np.array([0.5]), 0.01)
    assert np.isfinite(vals[0]) and vals[0] > 0


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("t_min", [0.1, 1e-3, 1e-6, 1e-8])
def test_tail_bound_dominates_dropped_modes(alpha, t_min):
    # sup of the dropped modes at t_min is at most sum |c_j| sqrt(2) |rho_j(t_min)|,
    # summed here from the contour residuals over J < j <= 1e5, plus the
    # envelope |c_j| <= A j^-p (checked on the way) with the certified
    # |rho_j| <= C / lam_j^2 beyond
    tol, top = 1e-6, 100_000
    C = _residual_bound_coef(alpha, 1.0, t_min)
    for kind in ("step", "dirac"):
        A, p = _ENVELOPE[kind]
        datum = InitialDatum(kind, location=0.5)
        ms = build_modal_solution(datum, alpha, 1.0, tol=tol, t_min=t_min)
        J = len(ms.modes)
        direct = math.sqrt(2.0) * A * C / (math.pi**4 * (3.0 + p) * top ** (3.0 + p))
        for lo in range(J + 1, top + 1, 10_000):
            modes = eigenbasis("interval", min(lo + 9_999, top))
            lam = modes.lam[lo - 1:]
            c = datum_coefficients(datum, modes)[lo - 1:]
            assert np.all(np.abs(c) <= A * modes.jx[lo - 1:] ** -p * (1.0 + 1e-12))
            rho = _bromwich(lam, t_min, 1.0, alpha, "residual")
            direct += float(np.sum(np.abs(c) * math.sqrt(2.0) * np.abs(rho)))
        assert ms.tail_bound >= direct
        if J < 10_000:
            assert ms.tail_bound <= tol


# ||w||^2 = sum_j c_j^2 / lam_j^2 for w = (-d^2/dx^2)^-1 v, in closed form
_W_NORM_SQ = {
    "smooth_sine": lambda v: 1.0 / (2.0 * (v.frequency * math.pi) ** 4),
    "step": lambda v: v.location**4 * (5.0 * v.location**2 - 14.0 * v.location + 10.0) / 120.0,
    "dirac": lambda v: v.location**2 * (1.0 - v.location) ** 2 / 3.0,
}


def _l2_norm_sq(ms, t):
    """Parseval sum of the truncated split solution at time t.

    The beta1/lam_j part is summed over all modes through ||w||^2, so only
    the kept modes carry the residual factors rho_j."""
    a = ms.coeffs * ms.factors(t)
    b1 = ms.beta1(t)
    return float(a @ a) + 2.0 * b1 * float(a @ (ms.coeffs / ms.modes.lam)) + b1**2 * _W_NORM_SQ[ms.datum.kind](ms.datum)


_W_DATA = [InitialDatum("smooth_sine", frequency=3), InitialDatum("step", location=0.3),
           InitialDatum("step", location=0.5), InitialDatum("dirac", location=0.3),
           InitialDatum("dirac", location=0.5)]


@pytest.mark.parametrize("datum", _W_DATA, ids=lambda v: f"{v.kind}-{v.location}")
def test_inverse_laplacian_matches_series(datum):
    # w and w' against sum_j c_j phi_j / lam_j over J = 2e4 modes, each to the
    # series' own tail bound; the Dirac slope series converges conditionally,
    # so it is compared away from the pole with Abel's bound on sum sin(j th)/j
    J = 20_000
    modes = eigenbasis("interval", J)
    b = datum_coefficients(datum, modes) / modes.lam
    k = modes.jx * math.pi
    x = np.linspace(0.003, 0.997, 97)
    x = x[np.abs(x - datum.location) >= 0.05]
    phase = np.outer(x, k)
    w_sum = math.sqrt(2.0) * np.sin(phase) @ b
    dw_sum = math.sqrt(2.0) * np.cos(phase) @ (b * k)
    w, dw = _inverse_laplacian(datum, x)
    if datum.kind == "smooth_sine":
        w_tail = dw_tail = 1e-15
    elif datum.kind == "step":
        w_tail, dw_tail = 2.0 / (math.pi**3 * J**2), 4.0 / (math.pi**2 * J)
    else:
        w_tail = 2.0 / (math.pi**2 * J)
        half = 0.5 * math.pi * np.array([datum.location + x, datum.location - x])
        dw_tail = np.sum(1.0 / np.abs(np.sin(half)), axis=0) / (math.pi * (J + 1))
    assert np.all(np.abs(w - w_sum) <= w_tail)
    assert np.all(np.abs(dw - dw_sum) <= dw_tail)
    # w is defined on [0, 1] only: its one caller, eval_points, rejects points outside
    ms = build_modal_solution(datum, 0.5, 1.0, tol=1e-6, t_min=1e-3)
    for outside in (-x, x + 2.0):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            ms.eval_points(outside, 0.1)
    # Parseval: ||w||^2 against sum c_j^2 / lam_j^2, whose tail past J is < 1e-15
    assert _W_NORM_SQ[datum.kind](datum) == pytest.approx(float(b @ b), rel=1e-12)


def test_split_data_and_quadrature_breaks():
    sine = build_modal_solution(InitialDatum("smooth_sine"), 0.5, 1.0, t_min=0.1)
    step = build_modal_solution(InitialDatum("step", location=0.3), 0.5, 1.0, t_min=0.1)
    sq = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    assert sine.singular_breaks() == [] and step.singular_breaks() == [0.3]
    assert sq.datum is None and sq.singular_breaks() == []


def _dirac_l2_norm_sq_loop(ms, t):
    # the Parseval sum with the beta1/lam_j part beyond the kept modes summed
    # over 200,000 further modes, term by term
    b1 = ms.beta1(t)
    amp = ms.coeffs * (ms.factors(t) + b1 / ms.modes.lam)
    total = float(amp @ amp)
    j_last = int(ms.modes.jx[-1])
    jt = np.arange(j_last + 1, j_last + 200_001)
    cj2 = 2.0 * np.sin(jt * np.pi * ms.datum.location) ** 2
    return total + float(np.sum(cj2 * (b1 / (jt * np.pi) ** 2) ** 2))


@pytest.mark.parametrize("x0", [0.3, 0.5, 0.77])
def test_dirac_l2_norm_sq_closed_form_matches_loop(x0):
    ms = build_modal_solution(InitialDatum("dirac", location=x0), 0.5, 1.0, t_min=1e-3)
    for t in (1e-3, 1e-2, 0.1):
        assert _l2_norm_sq(ms, t) == pytest.approx(_dirac_l2_norm_sq_loop(ms, t), rel=1e-14, abs=0.0)


def test_parseval_matches_quadrature_for_step():
    ms = build_modal_solution(InitialDatum("step", location=0.5), 0.5, 1.0, t_min=0.1, tol=1e-9)
    t = 0.1
    x, w = gauss_panels(0.0, 1.0, 400)
    vals, _ = ms.eval_points(x, t)
    quad = w @ vals**2
    assert abs(quad - _l2_norm_sq(ms, t)) < 1e-8


def test_dirac_split_parseval_consistency():
    ms = build_modal_solution(InitialDatum("dirac", location=0.5), 0.5, 1.0, t_min=0.01)
    t = 0.01
    # pointwise reconstruction integrates to the Parseval sum (kink split at 1/2)
    total = 0.0
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        x, w = gauss_panels(a, b, 600)
        vals, _ = ms.eval_points(x, t)
        total += w @ vals**2
    assert abs(total - _l2_norm_sq(ms, t)) < 1e-6 * _l2_norm_sq(ms, t)


def test_dirac_residual_factors_decay():
    ms = build_modal_solution(InitialDatum("dirac", location=0.5), 0.5, 1.0, t_min=0.01)
    rho = ms.factors(0.01)
    scaled = np.abs(rho) * ms.modes.lam**2
    # lam^2-normalized residual stays bounded: the Green part removed the slow tail
    assert scaled[-1] < 10.0 * scaled[len(scaled) // 2]


def test_eval_grid_matches_bruteforce(rng):
    # random points with the ends 0 and 1, and the 768 x 128 grid of one Gauss
    # column of the 2D error quadrature at K = 128 (6 points per element),
    # against the direct sum over the modes, a block of rows at a time
    ms = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    t = 0.1
    amp = ms.coeffs * ms.factors(t)
    kx, ky = ms.modes.jx * math.pi, ms.modes.jy * math.pi
    h = 1.0 / 128
    g = 0.5 * (np.polynomial.legendre.leggauss(6)[0] + 1.0)
    grid = np.arange(128) * h
    ends = np.array([0.0, 1.0])
    for xs, ys in ((np.concatenate([ends, rng.uniform(0.05, 0.95, 3)]), np.concatenate([ends, rng.uniform(0.05, 0.95, 4)])),
                   (grid + h * g[2], (h * g[2] * g[:, None] + grid).ravel())):
        vals, gx, gy = ms.eval_grid(xs, ys, t)
        assert vals.shape == gx.shape == gy.shape == (len(ys), len(xs))
        sx, cx = 2.0 * np.sin(np.outer(xs, kx)), 2.0 * np.cos(np.outer(xs, kx)) * kx
        for lo in range(0, len(ys), 128):
            rows = slice(lo, lo + 128)
            sy = np.sin(np.outer(ys[rows], ky)) * amp
            cy = np.cos(np.outer(ys[rows], ky)) * (amp * ky)
            assert np.max(np.abs(vals[rows] - sy @ sx.T)) < 1e-12
            assert np.max(np.abs(gx[rows] - sy @ cx.T)) < 1e-11
            assert np.max(np.abs(gy[rows] - cy @ sx.T)) < 1e-11


def test_eval_grid_forms_each_side_once_per_run_of_points(monkeypatch, rng):
    # the 2D error pass calls eval_grid on blocks of cells with the same outer
    # points, first along x, then (mirrored) along y: a side is formed once for
    # a run of calls with the same points and time, and every grid equals,
    # bitwise, that of a fresh reference that formed both sides anew
    from rstokes import oracle

    datum = InitialDatum("step2d", location=0.5)
    ms = build_modal_solution(datum, 0.5, 1.0, t_min=0.1)
    tables = []
    phase_table = oracle._phase_table

    def spy(J, points):
        tables.append(len(points))
        return phase_table(J, points)

    monkeypatch.setattr(oracle, "_phase_table", spy)
    outer = np.arange(16) / 16 + 0.01
    inner = [rng.uniform(0.0, 1.0, n) for n in (40, 40, 37)]
    calls = [(outer, ys, 0.1) for ys in inner] + [(xs, outer, 0.1) for xs in inner] + [(outer, inner[0], 0.01)]
    formed = []
    for xs, ys, t in calls:
        before = len(tables)
        got = ms.eval_grid(xs, ys, t)
        formed.append(len(tables) - before)
        fresh = build_modal_solution(datum, 0.5, 1.0, t_min=0.1).eval_grid(xs, ys, t)
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
    # both sides on the first call of a run, then the inner side alone; a new
    # time forms both sides again
    assert formed == [2, 1, 1, 2, 1, 1, 2]


def test_eval_grid_of_all_zero_coefficients_is_zero():
    # every frequency is skipped as exactly zero, so the products run over
    # empty frequency sets and must still give zero grids of the right shape
    modes = eigenbasis("square", 12)
    ms = ModalSolution(0.5, 1.0, modes, np.zeros(len(modes)))
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)
    for out in ms.eval_grid(xs, ys, 0.1):
        assert out.shape == (3, 5)
        assert not np.any(out)


@pytest.mark.parametrize("kind,t_min,points", [
    ("step", 1e-6, np.linspace(0.013, 0.987, 7)),
    ("dirac", 0.1, np.concatenate([np.linspace(0.01, 0.49, 50), np.linspace(0.51, 0.99, 51)])),
    ("step", 1e-8, np.linspace(0.013, 0.987, 7)),
])
def test_eval_points_matches_bruteforce(kind, t_min, points):
    # the given points plus the edges of the eval_points FFT grid: x = 0 and 1,
    # grid nodes m/L (no shift) and midpoints (m + 1/2)/L (largest shift); at
    # alpha = 0.1 the step references keep 4,265 and 10^4 (the cap) modes
    ms = build_modal_solution(InitialDatum(kind, location=0.5), 0.1, 1.0, tol=1e-6, t_min=t_min)
    t = t_min
    if kind == "step":
        assert len(ms.modes) >= 4000
    if t_min == 1e-8:
        assert len(ms.modes) == 10_000
    L = 1 << (2 * ms.max_frequency[0] - 1).bit_length()
    m = np.arange(0, L, max(1, L // 256))
    points = np.concatenate([points, [0.0, 1.0], m / L, (m + 0.5) / L])
    # the split step residuals cancel against beta1 w at small t (their
    # amplitudes sum to 993 and 7.4e4), so the summation is checked to 1e-12 on
    # the unsplit step series over the same modes with the plain factors at
    # alpha = 0.5, whose high modes stay small enough for the direct sum's own
    # roundoff (sin of phases up to 3e4)
    ref = ModalSolution(0.5, 1.0, ms.modes, ms.coeffs) if kind == "step" else ms
    vals, grads = ref.eval_points(points, t)
    v_ref, g_ref = direct_eval_points(ref, points, t)
    assert vals == pytest.approx(v_ref, rel=1e-12, abs=1e-12)
    assert grads == pytest.approx(g_ref, rel=1e-12, abs=1e-12)
    # the split reference differs from the direct sum by its sine series alone
    vals, grads = ms.eval_points(points, t)
    v_ref, g_ref = direct_eval_points(ms, points, t)
    a = np.abs(ms.coeffs * ms.factors(t))
    assert np.max(np.abs(vals - v_ref)) <= 1e-13 * a.sum()
    assert np.max(np.abs(grads - g_ref)) <= 1e-13 * (a * ms.modes.jx * math.pi).sum()


@settings(max_examples=60, deadline=None)
@given(J=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200))
def test_eval_points_matches_direct_sum(J, seed, n):
    # at gamma = 1e-9 and t = 1e-12 every factor u_j(t) is near 1, so the
    # random coefficients reach the sum undamped up to the highest mode
    rng = np.random.default_rng(seed)
    modes = eigenbasis("interval", J)
    ms = ModalSolution(0.5, 1e-9, modes, rng.standard_normal(J))
    t = 1e-12
    assert ms.factors(t).min() > 0.99
    x = rng.uniform(0.0, 1.0, n)
    vals, grads = ms.eval_points(x, t)
    v_ref, g_ref = direct_eval_points(ms, x, t)
    a = np.abs(ms.coeffs * ms.factors(t))
    assert np.max(np.abs(vals - v_ref)) <= 1e-13 * a.sum()
    assert np.max(np.abs(grads - g_ref)) <= 1e-13 * (a * modes.jx * math.pi).sum()


def test_eval_points_outside_interval_and_nonfinite():
    # the solution lives on [0, 1]: a point outside it, nan or inf must not
    # return a value, while both ends are evaluated
    for kind in ("step", "dirac"):
        ms = build_modal_solution(InitialDatum(kind, location=0.5), 0.5, 1.0, tol=1e-6, t_min=1e-3)
        for bad in (-0.3, -1e-300, 1.0 + 2**-52, 1.7, 2.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
                ms.eval_points(np.array([0.25, bad]), 1e-3)
        vals, _ = ms.eval_points(np.array([0.0, 1.0]), 1e-3)
        assert vals == pytest.approx([0.0, 0.0], abs=1e-12)


def test_datum_norms():
    assert InitialDatum("smooth_sine").l2_norm == pytest.approx(2**-0.5)
    assert InitialDatum("step").l2_norm == pytest.approx(2**-0.5)
    assert InitialDatum("dirac").l2_norm is None


def test_mode_cap_binds_for_tiny_times():
    # the tail rule cannot reach tol at alpha = 0.1 and t = 1e-8, so the hard
    # cap binds and the recorded bound (2.55e-4) says so
    ms = build_modal_solution(InitialDatum("step", location=0.5), 0.1, 1.0,
                              t_min=1e-8, tol=1e-6)
    assert len(ms.modes) == 10_000
    assert ms.tail_bound > 1e-6
    ms2 = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    assert len(ms2.modes) == 10_000
    assert ms2.tail_bound > 1e-8


# ------------------------------------------------------ smoothing estimates
#
# For v in H^q the solution obeys ||u(t)||_p <= c t^(-(1-alpha)(p-q)/2) ||v||_q
# for 0 <= p - q <= 2, and ||u(t)|| <= ||v|| for p < q.  The step has
# q = 1/2 and the Dirac mass q = -1/2, each up to an epsilon.  The norms come
# from the plain factors of the reference, ||u(t)||_p^2 = sum lam_j^p c_j^2
# u_j(t)^2 over 10^5 interval modes, which gave the slopes of 2 * 10^6.

_SMOOTHING_MODES = eigenbasis("interval", 10**5)
_SMOOTHING_DATA = (("step", 0.5, (0, 1, 2)), ("dirac", -0.5, (0, 1)))


def _smoothing_norms(alpha, t):
    """{(datum, p): ||u(t)||_p} for both data, from one set of factors."""
    lam = _SMOOTHING_MODES.lam
    u = _bromwich(lam, t, 1.0, alpha)
    out = {}
    for kind, _, ps in _SMOOTHING_DATA:
        cu2 = (datum_coefficients(InitialDatum(kind), _SMOOTHING_MODES) * u) ** 2
        for p in ps:
            out[kind, p] = math.sqrt(np.sum(lam**p * cu2))
    return out


def _smoothing_exponent(alpha, p, q):
    return -(1.0 - alpha) * max(p - q, 0.0) / 2.0


@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_regularity_slopes_match_smoothing_exponents(alpha):
    # local slopes of log ||u(t)||_p from t = 1e-5 to 1e-6, measured
    # (p = 0, 1, 2):
    #   step,  alpha 0.5: -0.033, -0.126, -0.375; alpha 0.1: -0.005, -0.231, -0.693
    #   Dirac, alpha 0.5: -0.125, -0.376;         alpha 0.1: -0.231, -0.693
    # The data lie in H^(q - eps) only, so a slope is steeper than its
    # exponent, by up to 0.018 at alpha = 0.1; the step's L2 norm still
    # approaches ||v|| at 1e-6, which makes its slope -0.033 at alpha = 0.5
    coarse, fine = _smoothing_norms(alpha, 1e-5), _smoothing_norms(alpha, 1e-6)
    for kind, q, ps in _SMOOTHING_DATA:
        for p in ps:
            slope = math.log10(coarse[kind, p] / fine[kind, p])
            theory = _smoothing_exponent(alpha, p, q)
            lo = -0.04 if p < q else theory - 0.025
            assert lo <= slope <= theory + 0.005, (kind, p, slope, theory)


def test_regularity_constants_stay_bounded_at_alpha_09():
    # at alpha = 0.9 the slopes at 1e-6 are still pre-asymptotic (step:
    # -0.077, -0.080, -0.089 against 0, -0.025, -0.075), so only the scaled
    # norm C(t) = ||u(t)||_p t^((1-alpha) max(p-q, 0)/2) is checked.  Over
    # t = 1e-3..1e-6 its largest/smallest ratio measured 1.74, 1.50 and 1.11
    # for the step (p = 0, 1, 2) and 1.46 and 1.07 for the Dirac mass
    alpha, ts = 0.9, (1e-3, 1e-4, 1e-5, 1e-6)
    norms = [_smoothing_norms(alpha, t) for t in ts]
    for kind, q, ps in _SMOOTHING_DATA:
        for p in ps:
            C = [n[kind, p] * t ** -_smoothing_exponent(alpha, p, q) for n, t in zip(norms, ts)]
            assert max(C) / min(C) < 2.0, (kind, p, C)
