import gc
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    KernelDensity,
    _generating_function_factor,
    direct_run_scheme,
    generating_function_state,
    generating_function_state_2d,
    nodal_matrices,
    scalar_trajectory_be,
    scalar_trajectory_sbd,
    uj_eval,
)
from rstokes.fem import InitialDatum, assemble, l2_project
from rstokes.harness import ExperimentConfig, run_experiment
from rstokes.mesh import build_interval_mesh, build_square_mesh
from rstokes.oracle import _bromwich
from rstokes.stepper import _BLOCK, SchemeConfig, StepFailure, run_scheme, snapshot_bytes

PI2 = math.pi**2


def test_scalar_be_first_step_hand_value():
    # lam=1, gamma=1, alpha=0.5, tau=0.1 with the origin history term kept:
    # 10(U1 - 1) + sqrt(10)(U1 - 0.5) + U1 = 0
    u = scalar_trajectory_be(1.0, 0.5, 1.0, 0.1, 1, include_history_origin=True)
    expect = (10.0 + 0.5 * math.sqrt(10.0)) / (11.0 + math.sqrt(10.0))
    assert u[1] == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.817746, abs=5e-7)


def test_scalar_sbd_first_step_hand_value():
    # independent arithmetic for the corrected first step
    lam, alpha, gamma, tau = 2.0, 0.3, 1.5, 0.05
    w0 = 1.5**alpha
    frac = gamma * tau**-alpha
    lhs = 1.5 / tau + (1.0 + frac * w0) * lam
    rhs = (1.5 / tau - 0.5 * (1.0 + frac * w0) * lam) * 1.0
    u = scalar_trajectory_sbd(lam, alpha, gamma, tau, 1)
    assert u[1] == pytest.approx(rhs / lhs, rel=1e-14)


def test_zero_data_stays_zero():
    space = assemble(build_interval_mesh(8))
    for scheme in ("be", "sbd"):
        cfg = SchemeConfig(scheme, 0.5, 1.0, 0.01, 6)
        U = run_scheme(space, cfg, np.zeros(space.n_dof))
        assert np.max(np.abs(U)) == 0.0


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("cn", 0.5, 1.0, 0.1, 2)
    with pytest.raises(ValueError):
        SchemeConfig("be", 1.5, 1.0, 0.1, 2)
    with pytest.raises(ValueError):
        SchemeConfig("be", 0.5, -1.0, 0.1, 2)
    with pytest.raises(ValueError):
        SchemeConfig("be", 0.5, 1.0, 0.1, 0)


@pytest.mark.parametrize("gamma,tau", [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan),
                                       (-math.inf, 0.1), (1.0, -math.inf)])
def test_scheme_config_rejects_nonfinite_gamma_and_tau(gamma, tau):
    with pytest.raises(ValueError, match="finite"):
        SchemeConfig("be", 0.5, gamma, tau, 4)


def _generalized_modes(space):
    # eigenpairs of the nodal P1 pencil (S, M), the eigenvectors mapped to the
    # space's coordinates, so that a pencil diagonal there is not checked against itself
    M, S = (A.toarray() for A in nodal_matrices(space.mesh))
    lams, vecs = scipy.linalg.eigh(S, M)
    return lams, space.to_coords(vecs.T).T


@pytest.mark.parametrize("mesh_builder,K", [(build_interval_mesh, 16), (build_square_mesh, 4)])
def test_mode_decoupling_all_modes(mesh_builder, K):
    # matrix stepping on a discrete eigenvector equals the scalar recurrence
    space = assemble(mesh_builder(K))
    assert space.n_dof <= 15
    lams, vecs = _generalized_modes(space)
    for alpha in (0.3, 0.7):
        for scheme, scalar in (("be", scalar_trajectory_be), ("sbd", scalar_trajectory_sbd)):
            cfg = SchemeConfig(scheme, alpha, 1.0, 0.01, 12)
            for k in range(space.n_dof):
                v = vecs[:, k]
                U = run_scheme(space, cfg, v)
                ref = scalar(float(lams[k]), alpha, 1.0, 0.01, 12)
                diff = np.max(np.abs(U - np.outer(ref, v)))
                assert diff < 1e-10


@pytest.mark.parametrize("scheme,scalar", [("be", scalar_trajectory_be), ("sbd", scalar_trajectory_sbd)])
def test_fine_mesh_sine_mode_matches_scalar_recurrence(scheme, scalar):
    # fine_tau size: K = 2048, N = 500.  The unit DST-I vector e_k is the nodal
    # sine mode k, an exact discrete eigenvector with lambda_k = sigma_k / mu_k
    # (DST-I eigenvalues of S and M, written here without cancellation), for the
    # lowest, a middle and the highest modes.  Every snapshot keeps only its k-th
    # entry, which matches the scalar recurrence to 1e-13 relative to its own
    # size (measured: at most 2.7e-14) plus 5e-16 of the unit datum.  The
    # second term is for SBD at k >= K/2: there the rows, about 1e-8, are left
    # by the cancellation of O(1) terms, so both the stepper and the recurrence
    # lie up to 8e-17 (1.6e-9 of the row) from a long-double recurrence.
    K, N, tau = 2048, 500, 0.1 / 500
    space = assemble(build_interval_mesh(K))
    cfg = SchemeConfig(scheme, 0.5, 1.0, tau, N)
    for k in (1, 2, K // 2, K - 1):
        s2 = math.sin(math.pi * k / (2 * K)) ** 2
        lam_k = (4.0 * K * s2) / ((1.0 - (2.0 / 3.0) * s2) / K)
        v = np.zeros(space.n_dof)
        v[k - 1] = 1.0
        U = run_scheme(space, cfg, v)
        ref = scalar(lam_k, 0.5, 1.0, tau, N)
        assert not np.any(np.delete(U, k - 1, axis=1))
        assert np.all(np.abs(U[:, k - 1] - ref) <= 1e-13 * np.abs(ref) + 5e-16)


def test_trajectory_linearity(rng):
    space = assemble(build_interval_mesh(12))
    v1 = rng.standard_normal(space.n_dof)
    v2 = rng.standard_normal(space.n_dof)
    for scheme in ("be", "sbd"):
        cfg = SchemeConfig(scheme, 0.4, 1.0, 0.02, 8)
        t1 = run_scheme(space, cfg, v1)
        t2 = run_scheme(space, cfg, v2)
        t12 = run_scheme(space, cfg, v1 + 2.5 * v2)
        assert np.max(np.abs(t12 - t1 - 2.5 * t2)) < 1e-11


def test_scalar_be_positive_and_decreasing():
    u = scalar_trajectory_be(PI2, 0.5, 1.0, 0.01, 50)
    assert np.all(u > 0)
    assert np.all(np.diff(u) < 0)


def test_history_origin_variants_differ_in_rate():
    # dropping the origin term gives the first-order scheme; keeping it
    # degrades the rate to ~1/2, which is why run_scheme's BE history omits it
    lam = 4 * PI2
    exact = uj_eval(KernelDensity(lam, 1.0, 0.5), 0.1)
    errs = {flag: [] for flag in (False, True)}
    for N in (20, 40, 80):
        for flag in (False, True):
            u = scalar_trajectory_be(lam, 0.5, 1.0, 0.1 / N, N, include_history_origin=flag)
            errs[flag].append(abs(u[-1] - exact))
    rate_omit = np.mean([math.log2(errs[False][i] / errs[False][i + 1]) for i in range(2)])
    rate_keep = np.mean([math.log2(errs[True][i] / errs[True][i + 1]) for i in range(2)])
    assert 0.85 < rate_omit < 1.15
    assert 0.3 < rate_keep < 0.7
    assert errs[True][-1] > 10 * errs[False][-1]


def test_alpha_trend_of_temporal_error():
    # for the smooth single-mode datum the error at t=0.1 decreases in alpha
    lam = 4 * PI2
    errors = []
    for alpha in (0.1, 0.5, 0.9):
        exact = uj_eval(KernelDensity(lam, 1.0, alpha), 0.1)
        u = scalar_trajectory_be(lam, alpha, 1.0, 0.1 / 40, 40)
        errors.append(abs(u[-1] - exact))
    assert errors[0] > errors[1] > errors[2]


def test_solver_failure_carries_step_index(monkeypatch):
    space = assemble(build_interval_mesh(8))
    cfg = SchemeConfig("be", 0.5, 1.0, 0.02, 5)
    calls = {"n": 0}

    import rstokes.stepper as stepper_mod

    class FlakySolver:
        def __init__(self, A):
            self.n = A.n

        def solve(self, b):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("synthetic breakdown")
            return np.zeros_like(b)

    monkeypatch.setattr(stepper_mod, "SpdFactorization", FlakySolver)
    with pytest.raises(StepFailure) as err:
        run_scheme(space, cfg, np.ones(space.n_dof))
    assert err.value.step == 3


def test_solver_failure_past_the_direct_block_carries_step_index(monkeypatch):
    # step 200 lies in a later block of a 300-step run, after its far-history product
    space = assemble(build_interval_mesh(8))
    cfg = SchemeConfig("be", 0.5, 1.0, 0.1 / 300, 300)
    calls = {"n": 0}

    import rstokes.stepper as stepper_mod

    class FlakySolver:
        def __init__(self, A):
            self.n = A.n

        def solve(self, b):
            calls["n"] += 1
            if calls["n"] == 200:
                raise RuntimeError("synthetic breakdown")
            return np.zeros_like(b)

    monkeypatch.setattr(stepper_mod, "SpdFactorization", FlakySolver)
    with pytest.raises(StepFailure) as err:
        run_scheme(space, cfg, np.ones(space.n_dof))
    assert err.value.step == 200


_BLOCK_EDGES = sorted({1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 127, 128, 129, 200, 300, 1000})


@pytest.mark.parametrize("mesh_builder,K,N", [(build_interval_mesh, 64, N) for N in _BLOCK_EDGES]
                         + [(build_interval_mesh, 2, N) for N in (1, 300)]
                         + [(build_interval_mesh, 3, N) for N in (2, 300)]
                         + [(build_square_mesh, 8, N) for N in (40, _BLOCK + 1, 300)])
def test_blocked_history_matches_direct_sum(mesh_builder, K, N, rng):
    # the stepper adds each block's history from before the block by one
    # matrix product and the rest step by step, so it sums in another order
    # than the oracle; N covers the edges of the first two blocks.  The
    # oracle marches in long double, so the gap is the stepper's own
    # roundoff: at most 3.1e-14 per row up to N = 300 and 5.3e-14 at N = 1000.
    # Runs march in the space's coordinates (DST-I in 1D, the torus spectrum
    # in 2D) against the oracle's nodal march, so v goes in through to_coords
    # and the snapshots come out through to_nodal; K = 2 and 3 have 1 and 2
    # dofs.  K stays at 64: at K = 2048, N = 10 the stepper's
    # roundoff, which grows with the condition number of the system, reaches
    # 3.1e-13; test_fine_mesh_sine_mode_matches_scalar_recurrence covers
    # K = 2048 mode by mode.
    space = assemble(mesh_builder(K))
    v = rng.standard_normal(space.n_dof)
    for alpha in (0.3, 0.7):
        for scheme in ("be", "sbd"):
            cfg = SchemeConfig(scheme, alpha, 1.0, 0.1 / N, N)
            U = space.to_nodal(run_scheme(space, cfg, space.to_coords(v)))
            ref = direct_run_scheme(space, cfg, v)
            gap = np.max(np.abs(U - ref), axis=1) / np.max(np.abs(ref), axis=1)
            assert np.max(gap) < (3e-13 if N <= 128 else 1e-12)


@pytest.mark.parametrize("datum", ["step", "dirac", "random"])
@pytest.mark.parametrize("N", [40, 2 * _BLOCK + 1, 300])
def test_restricted_march_matches_direct_sum(datum, N, rng):
    # a 1D run marches only the modes where v is nonzero; against the
    # full-width nodal march of the oracle it keeps the gap bound of
    # test_blocked_history_matches_direct_sum, and the other modes are exactly
    # 0 at every step.  The L2 projections of the step and the Dirac datum at
    # 1/2 have exact zeros (a quarter and half of the DST-I modes); the random
    # vector has about a third of its entries zeroed.
    space = assemble(build_interval_mesh(64))
    if datum == "random":
        v = rng.standard_normal(space.n_coords)
        v[rng.random(space.n_coords) < 1.0 / 3.0] = 0.0
    else:
        v = l2_project(space, InitialDatum(datum))
    zero = v == 0.0
    assert 0 < np.count_nonzero(zero) < space.n_coords
    for alpha in (0.3, 0.7):
        for scheme in ("be", "sbd"):
            cfg = SchemeConfig(scheme, alpha, 1.0, 0.1 / N, N)
            U = run_scheme(space, cfg, v)
            assert U.shape == (N + 1, space.n_coords)
            assert np.all(U[:, zero] == 0.0)
            ref = direct_run_scheme(space, cfg, space.to_nodal(v))
            gap = np.max(np.abs(space.to_nodal(U) - ref), axis=1) / np.max(np.abs(ref), axis=1)
            assert np.max(gap) < (3e-13 if N <= 128 else 1e-12)


@pytest.mark.parametrize("scheme", ["be", "sbd"])
def test_all_zero_initial_vector_marches_no_mode(monkeypatch, scheme):
    # an empty support still makes one factorization and one solve per step,
    # each of no entries, and returns the full array of zeros
    import rstokes.stepper as stepper_mod

    sizes = []

    class CountingFactorization(stepper_mod.SpdFactorization):
        def solve(self, b):
            sizes.append(b.size)
            return super().solve(b)

    monkeypatch.setattr(stepper_mod, "SpdFactorization", CountingFactorization)
    space = assemble(build_interval_mesh(64))
    N = 2 * _BLOCK + 1
    U = run_scheme(space, SchemeConfig(scheme, 0.5, 1.0, 0.1 / N, N), np.zeros(space.n_coords))
    assert U.shape == (N + 1, space.n_coords)
    assert not np.any(U)
    assert sizes == [0] * N


def test_restricted_march_memory_is_bounded():
    # a 1D run on part of the modes marches them in an (N+1) x len(keep) array
    # and then writes it into the kept columns of a column-major zero snapshot
    # array.  tracemalloc counts that array's full size, though only the pages
    # of the kept columns become resident
    # (test_modes_off_the_support_take_no_memory).  At the T3 step-datum
    # runs' largest size, K = 2048 and N = 80, the marched array is 1 MB
    # (1,536 of 2,047 modes), and beyond the two the working memory bound of
    # test_stepper_working_memory_is_bounded holds
    space = assemble(build_interval_mesh(2048))
    v = l2_project(space, InitialDatum("step"))
    n_keep = np.count_nonzero(v)
    assert 0 < n_keep < space.n_coords
    N = 80
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.1 / N, N)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        U = run_scheme(space, cfg, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - U.nbytes - (N + 1) * n_keep * 8 < 1 << 20


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_modes_off_the_support_take_no_memory():
    # the sine datum marches one of 2,047 modes.  Its (N+1) x n_coords
    # snapshot array is 65.5 MB, above glibc's mmap threshold, so np.zeros
    # maps fresh zero pages, and only the pages that the scatter writes
    # become resident.  Column-major, that is the one kept column; row-major,
    # it would be a page of every row, about 62 MiB
    space = assemble(build_interval_mesh(2048))
    v = l2_project(space, InitialDatum("smooth_sine", frequency=2))
    assert np.count_nonzero(v) == 1
    N = 4000
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.1 / N, N)
    page = os.sysconf("SC_PAGE_SIZE")
    before = _resident_pages()
    U = run_scheme(space, cfg, v)
    grown = (_resident_pages() - before) * page
    assert U.shape == (N + 1, space.n_coords)
    assert grown < U.nbytes / 16


def _resident_pages():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1])


@pytest.mark.parametrize("scheme", ["be", "sbd"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("N", [5, 250])
def test_production_mesh_matches_generating_function(scheme, alpha, N, rng):
    # every mode of the 2047-dof interval of the studies against its closed
    # form, where direct_run_scheme stops at K = 64; measured gaps, relative
    # to max |U^N|: 4.0e-12 to 1.2e-11 at N = 5, 2.9e-11 to 1.6e-10 at N = 250
    space = assemble(build_interval_mesh(2048))
    v = rng.standard_normal(space.n_coords)
    cfg = SchemeConfig(scheme, alpha, 1.0, 0.1 / N, N)
    U = run_scheme(space, cfg, v)[-1]
    assert np.max(np.abs(U - generating_function_state(space, cfg, v))) <= 5e-9 * np.max(np.abs(U))


@pytest.mark.parametrize("scheme", ["be", "sbd"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("N", [5, 40])
@pytest.mark.parametrize("K", [4, 6, 8])
def test_square_matches_generating_function(scheme, alpha, N, K, rng):
    # every generalized eigenpair of the dense element matrices against its
    # closed form, so no symbol or capacitance solve of the stepper is shared;
    # measured gaps, relative to max |U^N|: 4.0e-12 to 7.8e-11 at N = 5,
    # 2.7e-11 to 5.5e-10 at N = 40
    space = assemble(build_square_mesh(K))
    v = space.to_coords(rng.standard_normal(space.n_dof))
    cfg = SchemeConfig(scheme, alpha, 1.0, 0.1 / N, N)
    U = space.to_nodal(run_scheme(space, cfg, v)[-1])
    assert np.max(np.abs(U - generating_function_state_2d(space, cfg, v))) <= 5e-9 * np.max(np.abs(U))


@pytest.mark.parametrize("scheme,window", [("be", (0.98, 1.04)), ("sbd", (2.0, 2.15))])
# the t = 0.1 cases keep the ids they had before t was a parameter
@pytest.mark.parametrize("alpha,t", [pytest.param(alpha, t, id=f"{alpha}" if t == 0.1 else f"{alpha}-t{t}")
                                     for t in (0.1, 0.01, 0.001) for alpha in (0.1, 0.5, 0.9)])
def test_nonsmooth_temporal_rate_is_uniform_in_lambda(scheme, window, alpha, t):
    # the paper's nonsmooth-data temporal estimate mode by mode: with mu = 1
    # and sigma = lambda, sup over lambda in [pi^2, 1e10] of |U^N - E(lambda)|
    # falls at the scheme's order, and every P1 eigenvalue is at least pi^2;
    # measured pair rates over N = 10..80: 0.990 to 1.025 (BE) and 2.022 to
    # 2.130 (SBD) at t = 0.1, 0.983 to 1.015 (BE) and 2.022 to 2.130 (SBD) at
    # t = 0.01 and 0.001.  The sup lies at lambda = pi^2 or inside the grid
    # (at lambda near 1.1e3 for t = 0.001, alpha = 0.1); at lambda = 1e10
    # the gap is at most 2e-6 of it, so the grid holds the sup and not a
    # cut-off tail.
    # t = 1 is left out: there BE is still pre-asymptotic at N = 10, its
    # first pair rate 1.16 at alpha = 0.1 and 1.056 at alpha = 0.5
    Ns = (10, 20, 40, 80)
    lam = np.logspace(math.log10(PI2), 10.0, 401)
    exact = _bromwich(lam, t, 1.0, alpha, "plain")
    sups = []
    for N in Ns:
        gap = np.abs(_generating_function_factor(SchemeConfig(scheme, alpha, 1.0, t / N, N), np.ones_like(lam), lam)
                     - exact)
        assert np.argmax(gap) < lam.size - 1 and gap[-1] < 1e-4 * gap.max()
        sups.append(gap.max())
    rates = np.log2(np.array(sups[:-1]) / np.array(sups[1:]))
    assert window[0] < rates.min() and rates.max() < window[1]


def _temporal_part(space, v, scheme, alpha, t, N):
    """L2 and H1 norms of U^N - u_h(t), with u_h(t) = E * v_h the
    semidiscrete solution, exact in DST-I coordinates."""
    mu, sigma = space.M.eigenvalues, space.S.eigenvalues
    semidiscrete = _bromwich(sigma / mu, t, 1.0, alpha, "plain") * v
    d = run_scheme(space, SchemeConfig(scheme, alpha, 1.0, t / N, N), v)[-1] - semidiscrete
    return math.sqrt(mu @ d**2), math.sqrt(sigma @ d**2)


@pytest.fixture(scope="module")
def t3_space():
    space = assemble(build_interval_mesh(2048))
    return space, l2_project(space, InitialDatum("step"))


@pytest.mark.parametrize("scheme,order", [("be", 1), ("sbd", 2)])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_temporal_part_has_the_scheme_order(t3_space, scheme, order, alpha):
    # T3's grid (step, K = 2048, t = 0.1, N = 5..80) against the semidiscrete
    # solution, so the mesh's error drops out.  Measured pair rates: BE L2
    # 0.985-1.050 and H1 1.000-1.056; SBD L2 2.012-2.288 and H1 2.016-2.267,
    # except the first H1 pair at alpha = 0.1 (2.48).  Later pairs are at most
    # 1.028 (BE) and 2.109 (SBD)
    space, v = t3_space
    e = np.array([_temporal_part(space, v, scheme, alpha, 0.1, N) for N in (5, 10, 20, 40, 80)])
    rates = np.log2(e[:-1] / e[1:])
    assert np.all(rates > order - 0.05), rates
    assert np.all(rates[0] < 1.25 * order) and np.all(rates[1:] < order + 0.15), rates


def test_blowup_temporal_part_is_a_small_share_and_falls_as_t_vanishes():
    # T5(b) (step, K = 64, SBD, N = 1000, t = 1e-3..1e-8) is a spatial study:
    # the temporal part of each reported L2 error measured at most 1.96e-4 of
    # it, and falling from 4.5e-8 to 7.3e-9 (normalized like the report)
    ts = tuple(10.0 ** (-k) for k in range(3, 9))
    rep = run_experiment(ExperimentConfig(example="b", scheme="sbd", study="blowup", alphas=(0.5,), ks=(6,),
                                          Ns=(1000,), ts=ts))
    datum = InitialDatum("step")
    space = assemble(build_interval_mesh(64))
    v = l2_project(space, datum)
    temporal = np.array([_temporal_part(space, v, "sbd", 0.5, t, 1000)[0] for t in ts]) / datum.l2_norm
    assert np.all(temporal <= 3e-4 * np.array([row.l2_error for row in rep.rows])), temporal
    assert np.all(np.diff(temporal) < 0.0), temporal


@pytest.mark.parametrize("case,K,marched,n_coords", [
    ("sine", 2048, 1, 2047),
    ("step", 16, 12, 15),
    ("dense", 16, 15, 15),
    ("square", 8, 80, 80),
])
def test_snapshot_bytes_counts_what_a_run_makes_resident(rng, case, K, marched, n_coords):
    # a full-support run keeps its (N+1) x n_coords snapshots; a partial 1D
    # support keeps the marched array and the kept columns of the
    # column-major result, 8 (N+1) 2 nnz(v) bytes.  The sine's closed form has
    # one nonzero DST-I mode and the step's L2 projection at K = 16 has 12 of
    # 15; a 2D run marches all 2K(K//2 + 1) torus spectra, zero or not
    space = assemble(build_square_mesh(K) if case == "square" else build_interval_mesh(K))
    if case == "dense":
        v = rng.standard_normal(space.n_coords)
    else:
        kind = {"sine": "smooth_sine", "step": "step", "square": "step2d"}[case]
        v = l2_project(space, InitialDatum(kind))
    N = 30
    U = run_scheme(space, SchemeConfig("sbd", 0.5, 1.0, 0.1 / N, N), v)
    assert space.n_coords == n_coords
    if case != "square":
        assert np.count_nonzero(v) == np.count_nonzero(U.any(axis=0)) == marched
    columns = n_coords if marched == n_coords else 2 * marched
    assert snapshot_bytes(space, N, v) == 8 * (N + 1) * columns
    if marched == n_coords:
        assert snapshot_bytes(space, N, v) == U.nbytes and U.flags.c_contiguous
    else:
        assert U.flags.f_contiguous


@pytest.mark.parametrize("scheme", ["be", "sbd"])
def test_1d_run_factors_once_and_solves_each_step_in_order(monkeypatch, scheme):
    # the traced benchmark counts linalg.factor_calls and linalg.solve_calls at
    # stepper.SpdFactorization, so a 1D run must build one and solve through it
    # once per step; the k-th solve returns U^k, in DST-I coordinates, on the
    # support of v (the step's L2 projection at K = 16 has 3 zero modes), and
    # U^k is exactly 0 off that support
    import rstokes.stepper as stepper_mod

    built, solved = [], []

    class CountingFactorization(stepper_mod.SpdFactorization):
        def __init__(self, A):
            built.append(A)
            super().__init__(A)

        def solve(self, b):
            x = super().solve(b)
            solved.append(x)
            return x

    monkeypatch.setattr(stepper_mod, "SpdFactorization", CountingFactorization)
    space = assemble(build_interval_mesh(16))
    v = l2_project(space, InitialDatum("step"))
    N = 300
    U = run_scheme(space, SchemeConfig(scheme, 0.5, 1.0, 0.1 / N, N), v)
    keep = v != 0.0
    assert 0 < np.count_nonzero(keep) < space.n_coords
    assert len(built) == 1
    assert len(solved) == N
    assert np.array_equal(np.array(solved), U[1:, keep])
    assert np.all(U[:, ~keep] == 0.0)


@pytest.mark.parametrize("N", [1, 100])
def test_2d_run_makes_no_2d_fft_per_step(monkeypatch, N):
    # a 2D run marches in torus-spectral coordinates: its set-up makes the one
    # 2D transform (the Green's function of the capacitance solve), and its
    # steps make none, however many there are
    space = assemble(build_square_mesh(16))
    v = l2_project(space, InitialDatum("step2d", location=0.5))
    calls = []
    for name in ("rfft2", "irfft2"):
        def counted(*args, _name=name, _fft=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    run_scheme(space, SchemeConfig("sbd", 0.5, 1.0, 0.1 / N, N), v)
    assert len(calls) <= 1


@pytest.mark.parametrize("mesh_builder,K", [(build_interval_mesh, 16), (build_square_mesh, 4)])
def test_run_leaves_no_reference_cycle(mesh_builder, K):
    # the snapshots are freed by reference counting alone, with no wait for the
    # garbage collector, after a run long enough to take the blocked history
    space = assemble(mesh_builder(K))
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.1 / 300, 300)
    gc.collect()
    gc.disable()
    try:
        U = run_scheme(space, cfg, space.to_coords(np.ones(space.n_dof)))
        snapshots = weakref.ref(U)
        del U
        assert snapshots() is None
    finally:
        gc.enable()


def test_trajectory_metadata():
    space = assemble(build_interval_mesh(8))
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.05, 4)
    v = l2_project(space, InitialDatum("smooth_sine", frequency=2))
    U = run_scheme(space, cfg, v)
    assert U.shape == (cfg.n_steps + 1, space.n_coords)
    assert np.allclose(U[0], v)
    assert np.all(np.isfinite(U))


@pytest.mark.parametrize("scheme", ["be", "sbd"])
def test_stepper_stores_one_history_array(scheme, rng):
    # the history is S applied to the weighted sum of stored states, so a run
    # keeps the (N+1) x dof snapshots and no second array of that size.  The
    # datum has every mode nonzero, so the 1D march is full width
    space = assemble(build_interval_mesh(512))
    v = _dense_datum(space, rng)
    cfg = SchemeConfig(scheme, 0.5, 1.0, 0.1 / 400, 400)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        U = run_scheme(space, cfg, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * U.nbytes


def test_stepper_memory_at_fine_tau_scale(rng):
    # K = 2^11, N = 2000: the far-history products are chunked, so the peak
    # stays within half the snapshot array above it.  The datum has every
    # mode nonzero, so the products run on all 2,047 columns
    space = assemble(build_interval_mesh(2048))
    v = _dense_datum(space, rng)
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.1 / 2000, 2000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        U = run_scheme(space, cfg, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * U.nbytes


@pytest.mark.parametrize("K,N", [(8, 4000), (64, 1000), (2048, 2000)])
def test_stepper_working_memory_is_bounded(K, N, rng):
    # beyond the snapshots a run keeps its weights and the chunks of one
    # far-history product, whatever N and the dof count (every mode of the
    # datum is nonzero, so the march is full width)
    space = assemble(build_interval_mesh(K))
    v = _dense_datum(space, rng)
    cfg = SchemeConfig("sbd", 0.5, 1.0, 0.1 / N, N)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        U = run_scheme(space, cfg, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - U.nbytes < 1 << 20


def _dense_datum(space, rng):
    v = rng.standard_normal(space.n_coords)
    assert np.all(v != 0.0)
    return v
