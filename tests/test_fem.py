import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    KernelDensity,
    direct_error_2d,
    direct_eval_points,
    element_matrices,
    element_step_load,
    gauss_panels,
    interval_matrices,
    nodal_form,
    square_nodes,
    stencil_array,
    uj_eval,
)
from rstokes import fem
from rstokes.fem import (
    InitialDatum,
    UnsupportedDatumError,
    _error_2d,
    _step2d_load,
    assemble,
    error_norms,
    l2_project,
    ritz_project,
)
from rstokes.harness import ExperimentConfig, run_experiment
from rstokes.linalg import solve_spd
from rstokes.mesh import build_interval_mesh, build_square_mesh
from rstokes.oracle import ModalSolution, build_modal_solution
from rstokes.stepper import SchemeConfig, run_scheme


def test_gauss01_matches_leggauss():
    # the Newton rule against numpy's companion-matrix rule, mapped to [0, 1]
    # (measured: at most 2.4e-15 for p <= 60); a rule of p points integrates
    # x^(2p-1) exactly
    for p in range(1, 61):
        x, w = np.polynomial.legendre.leggauss(p)
        g, gw = fem._gauss01(p)
        assert np.max(np.abs(g - 0.5 * (x + 1.0))) < 5e-15
        assert np.max(np.abs(gw - 0.5 * w)) < 5e-15
        assert np.all(np.diff(g) > 0.0)
        assert gw @ g ** (2 * p - 1) == pytest.approx(1.0 / (2 * p), rel=1e-13)


def test_interval_mass_stencil():
    space = assemble(build_interval_mesh(4))
    h = 0.25
    expect = (h / 6.0) * np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    assert np.array_equal(interval_matrices(4)[0].toarray(), expect)
    assert np.allclose(nodal_form(space.M), expect, atol=1e-15)


def test_interval_stiffness_stencil():
    space = assemble(build_interval_mesh(4))
    h = 0.25
    expect = (1.0 / h) * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.array_equal(interval_matrices(4)[1].toarray(), expect)
    assert np.allclose(nodal_form(space.S), expect, atol=1e-13)


def test_square_k2_interior_stiffness_diag():
    # hand assembly over the 6 incident triangles of the structured pattern
    space = assemble(build_square_mesh(2))
    assert space.n_dof == 1
    assert stencil_array(space.S)[0, 0] == pytest.approx(4.0)
    # interior mass diagonal equals the hexagon area h^2/2
    assert stencil_array(space.M)[0, 0] == pytest.approx(0.125)


def test_closed_form_2d_matches_element_oracle():
    # the Kronecker-form M and S and the step load of the square against the
    # element-by-element integrals of tests/oracles.py; odd K puts no mesh
    # line at 1/2, and the 1D entries are checked by the stencil tests above
    for K in (2, 3, 8, 17):
        space = assemble(build_square_mesh(K))
        M_full, S_full = element_matrices(K)
        # row sums of the full mass matrix are the hat integrals; they add up to 1
        assert abs(M_full.sum(axis=1).sum() - 1.0) < 1e-12
        interior = square_nodes(K)[1]
        inner = np.ix_(interior, interior)
        for got, full in ((space.M, M_full), (space.S, S_full)):
            expect = full[inner]
            assert np.max(np.abs(stencil_array(got) - expect)) <= 1e-15 * np.max(np.abs(expect))
        for cut in range(1, K):
            load = _step2d_load(space, cut / K)
            expect = element_step_load(K, cut / K)[interior]
            assert np.max(np.abs(load - expect)) <= 1e-15 * space.mesh.h**2


def test_matrices_positive_definite():
    # the nodal forms of the 1D matrices agree with the closed-form reference
    # as in the stencil tests above
    space = assemble(build_interval_mesh(16))
    for A, ref, atol in zip((space.M, space.S), interval_matrices(16), (1e-15, 1e-13)):
        nodal = nodal_form(A)
        assert np.allclose(nodal, ref.toarray(), atol=atol)
        np.linalg.cholesky(nodal)
    space = assemble(build_square_mesh(8))
    np.linalg.cholesky(stencil_array(space.M))
    np.linalg.cholesky(stencil_array(space.S))


def test_l2_projection_reproduces_mesh_functions(rng):
    # the L2 load of a mesh function v (zero on the boundary) is M v; l2_project
    # solves M, all in space coordinates, where a 2D product adds a boundary
    # leak that the solve drops
    for mesh in (build_interval_mesh(8), build_square_mesh(4)):
        space = assemble(mesh)
        v = space.to_coords(rng.standard_normal(space.n_dof))
        x = solve_spd(space.M, space.M @ v)
        assert np.max(np.abs(x - v)) < 1e-11


def test_ritz_projection_reproduces_mesh_functions(rng):
    # the Ritz load of a mesh function v (zero on the boundary) is S v, so solving S reproduces v
    for mesh in (build_interval_mesh(8), build_square_mesh(4)):
        space = assemble(mesh)
        v = space.to_coords(rng.standard_normal(space.n_dof))
        x = solve_spd(space.S, space.S @ v)
        assert np.max(np.abs(x - v)) < 1e-11


def test_dirac_duality_k2():
    space = assemble(build_interval_mesh(2))
    x = l2_project(space, InitialDatum("dirac", location=0.5))
    # load = [phi_mid(1/2)] = [1]; M = [[1/3]] so the coefficient is 3
    assert x[0] == pytest.approx(3.0)


def test_dirac_on_boundary_rejected():
    with pytest.raises(ValueError):
        InitialDatum("dirac", location=0.0)
    with pytest.raises(ValueError):
        InitialDatum("dirac", location=1.0)


def test_sine_projection_second_order():
    errs = []
    for K in (8, 16, 32):
        space = assemble(build_interval_mesh(K))
        datum = InitialDatum("smooth_sine", frequency=2)
        x = l2_project(space, datum)
        b = space.M @ x
        # ||v - P_h v||^2 = ||v||^2 - (P_h v, P_h v), all terms exact
        errs.append(math.sqrt(max(0.5 - x @ b, 0.0)))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 < r < 2.1 for r in rates)


def _sine_dst_route(space, m):
    # the sine's Ritz and L2 projections through the FFT of dst: the nodal
    # sine, and its load, mapped to coordinates, the load then solved by M.
    # The nodal phase m pi i / K is reduced mod 2 pi in integers: computed as
    # m pi x_i it is off by up to eps m pi, which moves the sine by up to 3e-12
    # at m = 2K + 2, K = 2048, above the 1e-13 of the comparison
    K, h = space.mesh.K, space.mesh.h
    nodal = np.sin(np.pi * (m * np.arange(1, K) % (2 * K)) / K)
    w = 4.0 * math.sin(m * math.pi * h / 2.0) ** 2 / (h * (m * math.pi) ** 2)
    return space.to_coords(nodal), solve_spd(space.M, space.to_coords(w * nodal))


@pytest.mark.parametrize("K", [8, 64, 2048])
@pytest.mark.parametrize("times,plus,sign,k", [
    pytest.param(0, 1, 1, 1, id="m=1"), pytest.param(0, 2, 1, 2, id="m=2"),
    pytest.param(1, -1, 1, -1, id="m=K-1"), pytest.param(1, 0, 0, 0, id="m=K"),
    pytest.param(1, 3, -1, -3, id="m=K+3"), pytest.param(2, 2, 1, 2, id="m=2K+2"),
])
def test_sine_coordinates_are_one_folded_mode(K, times, plus, sign, k):
    # sin(m pi x), m = times K + plus, has DST-I coordinates sign sqrt(K/2) e_k
    # with k = m folded mod 2K (k + K for a negative k below); none when K
    # divides m, and a fold past K, as for m = K + 3, flips the sign.  Both
    # projections keep that single entry and agree with the dst route.
    space = assemble(build_interval_mesh(K))
    datum = InitialDatum("smooth_sine", frequency=times * K + plus)
    ritz, l2 = ritz_project(space, datum), l2_project(space, datum)
    ritz_dst, l2_dst = _sine_dst_route(space, datum.frequency)
    if sign == 0:
        assert not np.any(ritz) and not np.any(l2)
        assert np.max(np.abs(ritz_dst)) <= 1e-13 * math.sqrt(K / 2.0)
        return
    index = (k if k > 0 else K + k) - 1
    assert np.flatnonzero(ritz).tolist() == [index] and np.flatnonzero(l2).tolist() == [index]
    assert ritz[index] == sign * math.sqrt(K / 2.0)
    assert np.sign(l2[index]) == sign
    for closed, route in ((ritz, ritz_dst), (l2, l2_dst)):
        assert np.max(np.abs(closed - route)) <= 1e-13 * np.max(np.abs(route))


def test_step_load_matches_quadrature():
    from rstokes.fem import _step_load_1d

    for K in (8, 9):   # aligned and cut-element cases
        space = assemble(build_interval_mesh(K))
        h = space.mesh.h
        got = _step_load_1d(space, 0.5)
        ref = np.zeros(space.n_dof)
        for idx, xi in enumerate(space.mesh.nodes[1:-1]):
            # integrate each linear piece of the tent, split at the cut point
            breaks = sorted({xi - h, xi, xi + h, 0.5})
            acc = 0.0
            for lo, hi in zip(breaks[:-1], breaks[1:]):
                lo, hi = max(lo, 0.0), min(hi, 0.5)
                if hi <= lo:
                    continue
                x, w = gauss_panels(lo, hi, 1, order=4)
                acc += w @ np.maximum(0.0, 1.0 - np.abs(x - xi) / h)
            ref[idx] = acc
        assert np.max(np.abs(got - ref)) < 1e-14


def test_step2d_alignment_required():
    space = assemble(build_square_mesh(5))
    with pytest.raises(UnsupportedDatumError):
        l2_project(space, InitialDatum("step2d", location=0.5))


def test_datum_dimension_checks():
    space1 = assemble(build_interval_mesh(4))
    space2 = assemble(build_square_mesh(4))
    with pytest.raises(UnsupportedDatumError):
        l2_project(space1, InitialDatum("step2d"))
    with pytest.raises(UnsupportedDatumError):
        l2_project(space2, InitialDatum("dirac"))
    with pytest.raises(UnsupportedDatumError):
        ritz_project(space1, InitialDatum("step"))
    with pytest.raises(UnsupportedDatumError):
        ritz_project(space1, InitialDatum("dirac"))


@pytest.mark.parametrize("m", [2, 19])   # 19: a frequency above K
def test_ritz_galerkin_orthogonality(m):
    space = assemble(build_interval_mesh(16))
    datum = InitialDatum("smooth_sine", frequency=m)
    x = ritz_project(space, datum)
    # residual of the gradient equation vanishes per basis function; the
    # projection's DST-I coefficients go back to nodal values for the nodal S
    nodes = space.mesh.nodes
    vv = np.sin(m * math.pi * nodes)
    c = (2.0 * vv[1:-1] - vv[:-2] - vv[2:]) / space.mesh.h
    residual = interval_matrices(16)[1] @ space.to_nodal(x) - c
    assert np.max(np.abs(residual)) < 1e-12


def test_ritz_l2_error_second_order():
    errs = []
    for K in (16, 32, 64):
        space = assemble(build_interval_mesh(K))
        x = ritz_project(space, InitialDatum("smooth_sine", frequency=2))
        xq, wq = gauss_panels(0.0, 1.0, 4 * K)
        uh = np.interp(xq, space.mesh.nodes, np.pad(space.to_nodal(x), 1))
        errs.append(math.sqrt(wq @ (uh - np.sin(2 * math.pi * xq)) ** 2))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 < r < 2.1 for r in rates)


def test_error_norms_of_interpolant():
    # elementwise interpolant of the exact solution: L2 error O(h^2), H1 O(h)
    ms = build_modal_solution(InitialDatum("smooth_sine", frequency=2), 0.5, 1.0, t_min=0.1)
    t = 0.1
    u2 = uj_eval(KernelDensity(4 * math.pi**2, 1.0, 0.5), t)
    res = {}
    for K in (8, 16):
        space = assemble(build_interval_mesh(K))
        nodes = space.mesh.nodes[1:-1]
        interp = u2 * np.sin(2 * math.pi * nodes)
        res[K] = error_norms(space, space.to_coords(interp)[None], ms, t)[:, 0]
    assert res[8][0] / res[16][0] == pytest.approx(4.0, rel=0.15)
    assert res[8][1] / res[16][1] == pytest.approx(2.0, rel=0.10)


def test_error_norms_validation():
    ms = build_modal_solution(InitialDatum("smooth_sine", frequency=2), 0.5, 1.0)
    space = assemble(build_interval_mesh(8))
    with pytest.raises(ValueError):
        error_norms(space, np.zeros((1, space.n_dof)), ms, 0.0)
    with pytest.raises(ValueError):
        error_norms(space, np.zeros(space.n_dof + 1), ms, 0.1)
    # a stack whose rows have the wrong length, and a 3-D array
    with pytest.raises(ValueError):
        error_norms(space, np.zeros((2, space.n_dof + 1)), ms, 0.1)
    with pytest.raises(ValueError):
        error_norms(space, np.zeros((1, 2, space.n_dof)), ms, 0.1)


def test_error_norms_rejects_a_single_vector():
    # one mesh function is a stack of one row; the error names that shape
    ms = build_modal_solution(InitialDatum("smooth_sine", frequency=2), 0.5, 1.0)
    space = assemble(build_interval_mesh(8))
    with pytest.raises(ValueError, match=r"expected an \(R, 7\) stack .* got shape \(7,\)"):
        error_norms(space, np.zeros(space.n_coords), ms, 0.1)


@pytest.mark.parametrize("datum,mesh", [
    (InitialDatum("step", location=0.3), build_interval_mesh(9)),    # edge inside an element
    (InitialDatum("dirac", location=0.5), build_interval_mesh(9)),
    (InitialDatum("step2d", location=0.5), build_square_mesh(8)),
], ids=["step", "dirac", "step2d"])
def test_error_norms_of_a_stack_equal_single_calls(datum, mesh):
    # the final states of a temporal family share one reference pass, and
    # each row must come out exactly as it does alone
    t = 0.1
    ms = build_modal_solution(datum, 0.5, 1.0, t_min=t)
    space = assemble(mesh)
    v = l2_project(space, datum)
    finals = np.stack([run_scheme(space, SchemeConfig("be", 0.5, 1.0, t / N, N), v)[-1] for N in (2, 4, 8)])
    stacked = error_norms(space, finals, ms, t)
    assert np.array_equal(stacked, np.hstack([error_norms(space, U[None], ms, t) for U in finals]))


class _ZeroOracle:
    """Zero reference: the quadrature then returns the mass/stiffness norms of U."""

    def __init__(self, max_frequency, breaks=()):
        self.max_frequency = max_frequency
        self.breaks = list(breaks)

    def eval_points(self, x, t):
        return np.zeros_like(x), np.zeros_like(x)

    def eval_grid(self, xs, ys, t):
        z = np.zeros((len(ys), len(xs)))
        return z, z.copy(), z.copy()

    def singular_breaks(self):
        return self.breaks


def _assert_mass_stiffness_norms(space, U, norms):
    # U expands by zeros on the boundary, so the interior matrices give its
    # norms, taken in space coordinates
    l2, h1 = norms
    assert l2 == pytest.approx(math.sqrt(U @ (space.M @ U)), rel=1e-12)
    assert h1 == pytest.approx(math.sqrt(U @ (space.S @ U)), rel=1e-12)


def _assert_stack_mass_stiffness_norms(space, oracle, rng):
    # a stack of one, and a stack of three whose rows each get their own norms
    U = space.to_coords(rng.standard_normal((3, space.n_dof)))
    _assert_mass_stiffness_norms(space, U[0], error_norms(space, U[:1], oracle, 0.1)[:, 0])
    stacked = error_norms(space, U, oracle, 0.1)
    assert stacked.shape == (2, 3)
    for row, norms in zip(U, stacked.T):
        _assert_mass_stiffness_norms(space, row, norms)


def test_error_norms_2d_quadrature_identity(rng):
    # with a zero oracle the quadrature returns exactly the mass/stiffness norms
    space = assemble(build_square_mesh(6))
    _assert_stack_mass_stiffness_norms(space, _ZeroOracle((6, 6)), rng)


class _P1Oracle:
    """Exact reference: the P1 function of the cut-cell grid with nodal values V.

    Cell (iy, ix) is cut along its (+1, +1) diagonal into the lower triangle
    (a, b, c), where x - x_a >= y - y_a, and the upper one (a, c, d).
    """

    def __init__(self, V):
        self.V = V                       # (K+1, K+1) nodal values [iy, ix]
        self.K = V.shape[0] - 1
        self.max_frequency = (self.K, self.K)

    def eval_grid(self, xs, ys, t):
        K, V = self.K, self.V
        h = 1.0 / K
        x, y = np.meshgrid(xs, ys)
        ix = np.minimum((x * K).astype(int), K - 1)
        iy = np.minimum((y * K).astype(int), K - 1)
        xi, eta = x - ix * h, y - iy * h
        Va, Vb, Vc, Vd = V[iy, ix], V[iy, ix + 1], V[iy + 1, ix + 1], V[iy + 1, ix]
        lower = xi >= eta
        gx = np.where(lower, Vb - Va, Vc - Vd) / h
        gy = np.where(lower, Vc - Vb, Vd - Va) / h
        return Va + gx * xi + gy * eta, gx, gy


@pytest.mark.parametrize("K", [2, 3, 8, 17])
def test_error_2d_of_an_exact_p1_reference_vanishes(rng, K):
    # a random P1 function, not symmetric in y = x, measured against itself:
    # the upper triangles' loads must land on their own nodes (the transposed
    # node arrays) with d/dx and d/dy swapped, or its errors stay O(1)
    space = assemble(build_square_mesh(K))
    U = rng.standard_normal(space.n_dof)
    oracle = _P1Oracle(np.pad(U.reshape(K - 1, K - 1), 1))
    y = space.to_coords(U)
    [(l2_sq, h1_sq)] = _error_2d(space, [y], oracle, 0.1)
    assert abs(l2_sq) <= 1e-13 * (y @ (space.M @ y))
    assert abs(h1_sq) <= 1e-13 * (y @ (space.S @ y))


@pytest.mark.parametrize("K", [2, 3, 8, 17, 64])
def test_error_2d_matches_direct_quadrature(rng, K):
    # the per-row form U^T M U - 2 U^T l + sum w u^2 (and its H1 twin) against
    # the direct pointwise squares of tests/oracles.py at the same points;
    # the gap is the cancellation of the expanded square, so it is bounded
    # relative to the two large terms; the zero row's errors are the sums
    # sum w u^2 and sum w |grad u|^2.  The rows are coordinates; the
    # reference squares their nodal values
    t = 0.1
    datum = InitialDatum("step2d", location=(K // 2) / K)
    ms = build_modal_solution(datum, 0.5, 1.0, t_min=t)
    space = assemble(build_square_mesh(K))
    v = l2_project(space, datum)
    rows = [run_scheme(space, SchemeConfig(scheme, 0.5, 1.0, t / N, N), v)[-1]
            for scheme in ("be", "sbd") for N in (5, 40, 200)]
    rows += [space.to_coords(rng.standard_normal(space.n_dof)), np.zeros(space.n_coords), v]
    got = _error_2d(space, rows, ms, t)
    ref = direct_error_2d(space, space.to_nodal(np.array(rows)), ms, t)
    u_sq, du_sq = ref[-2]
    for U, (l2_sq, h1_sq), (l2_ref, h1_ref) in zip(rows, got, ref):
        assert abs(l2_sq - l2_ref) <= 1e-13 * (U @ (space.M @ U) + u_sq)
        assert abs(h1_sq - h1_ref) <= 1e-13 * (U @ (space.S @ U) + du_sq)


@pytest.mark.parametrize("K,block_points", [(128, None), (24, 1200)])
def test_error_2d_cell_blocks_equal_one_block(monkeypatch, rng, K, block_points):
    # the pass evaluates the reference on blocks of cells along eta, here
    # three of 43, 43, 42 cells (K = 128, p = 6) and five of 5, 5, 5, 5, 4
    # (K = 24, p = 10); each per-cell Gauss sum keeps its order, so the
    # squares come out exactly as from one block of all K cells
    ms = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    space = assemble(build_square_mesh(K))
    rows = [space.to_coords(rng.standard_normal(space.n_dof)), l2_project(space, InitialDatum("step2d", location=0.5))]
    points = []
    evaluate = ModalSolution.eval_grid

    def spy(self, xs, ys, t):
        points.append(len(xs) * len(ys))
        return evaluate(self, xs, ys, t)

    monkeypatch.setattr(ModalSolution, "eval_grid", spy)
    if block_points is not None:
        monkeypatch.setattr(fem, "_GRID_BLOCK_POINTS", block_points)
    blocked = _error_2d(space, rows, ms, 0.1)
    blocked_points, points[:] = points[:], []
    monkeypatch.setattr(fem, "_GRID_BLOCK_POINTS", 1 << 40)
    assert blocked == _error_2d(space, rows, ms, 0.1)
    # several blocks per Gauss column, the last one shorter, over the same points
    assert len(blocked_points) > 2 * len(points) and len(set(blocked_points)) == 2
    assert sum(blocked_points) == sum(points)


def test_error_norms_2d_memory_is_bounded_by_the_cell_blocks(rng):
    # K = 128, a four-row stack, reference factors cached: one call per Gauss
    # column held about ten p K^2 temporaries (8.5 MB traced); a block of
    # cells keeps the pass near 2.9 MB
    ms = build_modal_solution(InitialDatum("step2d", location=0.5), 0.5, 1.0, t_min=0.1)
    ms.factors(0.1)
    space = assemble(build_square_mesh(128))
    U = space.to_coords(rng.standard_normal((4, space.n_dof)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        error_norms(space, U, ms, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("K,breaks", [(8, ()), (9, (0.3,))])
def test_error_norms_1d_quadrature_identity(rng, K, breaks):
    # a kink inside an element splits it in two pieces; both must use that
    # element's values and slope
    space = assemble(build_interval_mesh(K))
    _assert_stack_mass_stiffness_norms(space, _ZeroOracle((K, 0), breaks), rng)


class _DirectModalSolution(ModalSolution):
    """The same expansion, evaluated by the direct sin/cos sum."""

    def eval_points(self, x, t):
        return direct_eval_points(self, x, t)


@pytest.mark.parametrize("kind,K,t", [("step", 64, 1e-6), ("dirac", 9, 1e-3)])
def test_error_norms_fast_reference_matches_direct(kind, K, t):
    # T5(b) at t = 1e-6 (151 split modes) and Dirac data on a misaligned mesh,
    # SBD with N = 1000 as in the acceptance studies
    datum = InitialDatum(kind, location=0.5)
    ms = build_modal_solution(datum, 0.5, 1.0, tol=1e-6, t_min=t)
    if kind == "step":
        assert len(ms.modes) == 151
    direct = _DirectModalSolution(**{f.name: getattr(ms, f.name) for f in dataclasses.fields(ms)})
    space = assemble(build_interval_mesh(K))
    U = run_scheme(space, SchemeConfig("sbd", 0.5, 1.0, t / 1000, 1000), l2_project(space, datum))[-1:]
    fast_l2, fast_h1 = error_norms(space, U, ms, t)[:, 0]
    ref_l2, ref_h1 = error_norms(space, U, direct, t)[:, 0]
    assert fast_l2 == pytest.approx(ref_l2, rel=1e-12)
    assert fast_h1 == pytest.approx(ref_h1, rel=1e-12)


def test_normalization_fields():
    # error_norms returns absolute errors; the harness divides the rows of
    # the step datum by ||v||_L2 = 2^-1/2 (the reference at the study's oracle_tol)
    datum = InitialDatum("step", location=0.5)
    ms = build_modal_solution(datum, 0.5, 1.0, tol=1e-6, t_min=0.1)
    assert datum.l2_norm == pytest.approx(2**-0.5)
    space = assemble(build_interval_mesh(8))
    U = run_scheme(space, SchemeConfig("sbd", 0.5, 1.0, 0.1 / 20, 20), l2_project(space, datum))[-1:]
    l2, h1 = error_norms(space, U, ms, 0.1)[:, 0]
    rep = run_experiment(ExperimentConfig(example="b", study="spatial", ks=(3,), Ns=(20,), ts=(0.1,)))
    [row] = rep.rows
    assert rep.normalized
    assert row.l2_error == pytest.approx(l2 / (2**-0.5))
    assert row.h1_error == pytest.approx(h1 / (2**-0.5))
