import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from oracles import (
    bordered_matrix,
    diagonal_identity,
    element_interior_matrices,
    interval_matrices,
    nodal_form,
    stencil_array,
)
from rstokes.fem import assemble
from rstokes.linalg import (
    DiagonalMatrix,
    _mirror_blocks,
    SpdFactorization,
    SquareStencilMatrix,
    dst,
    solve_spd,
    torus_interior,
    torus_spectrum,
)
from rstokes.mesh import build_interval_mesh, build_square_mesh

# (mass, stiff): M, S and stepping systems from stiffness- to mass-dominated
_SQUARE_CASES = [(1.0, 0.0), (0.0, 1.0), (2.0, 21.0), (50.0, 21.0), (3e5, 51.0)]


def test_matvec_identity(rng):
    A = diagonal_identity(7)
    x = rng.standard_normal(7)
    assert np.array_equal(A @ x, x)


def test_matvec_single_interior_stiffness():
    # K=2 interval: one interior node, stiffness [[2/h]] with h = 1/2, in
    # DST-I coordinates as in nodal ones
    space = assemble(build_interval_mesh(2))
    assert interval_matrices(2)[1].toarray().tolist() == [[4.0]]
    assert nodal_form(space.S).tolist() == [[4.0]]
    assert (space.S @ np.array([1.0])).tolist() == [4.0]


def _square_nodal(A: SquareStencilMatrix, product):
    # Q^T product(Q x): a product or a solve of the square taken in
    # torus-spectral coordinates, read back at the interior nodes
    return lambda x: torus_interior(product(torus_spectrum(x, A.K)), A.K)


def test_matvec_against_dense_oracle(rng):
    # the 1D products, taken in DST-I coordinates, against the closed-form
    # nodal matrices, and the symbol products of the square, taken in
    # torus-spectral coordinates and restricted to the interior, against the
    # dense stencils
    space = assemble(build_interval_mesh(17))
    cases = [(lambda x, A=A: dst(A @ dst(x)), D.toarray())
             for A, D in zip((space.M, space.S), interval_matrices(17))]
    cases += [(_square_nodal(A, A.__matmul__), stencil_array(A))
              for A in (SquareStencilMatrix(K, mass, stiff) for K in (2, 3, 5, 17) for mass, stiff in _SQUARE_CASES)]
    for product, D in cases:
        x = rng.standard_normal(D.shape[0])
        assert np.max(np.abs(product(x) - D @ x)) <= 1e-14 * np.max(np.abs(D)) * np.max(np.abs(x))


def test_matvec_dimension_mismatch(rng):
    for A in (diagonal_identity(4), SquareStencilMatrix(4, 1.0, 0.0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            A @ rng.standard_normal(5)


def test_nonfinite_rejected():
    for eigenvalues in ([1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            DiagonalMatrix(eigenvalues)
    for mass, stiff in ((np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError):
            SquareStencilMatrix(4, mass, stiff)


def test_solve_identity(rng):
    b = rng.standard_normal(10)
    assert np.allclose(solve_spd(diagonal_identity(10), b), b)


def test_solve_zero_rhs():
    # both solvers give exact zeros, with no negative zero, for a zero rhs
    for space in (assemble(build_interval_mesh(16)), assemble(build_square_mesh(8))):
        for A in (space.M, space.S):
            x = solve_spd(A, np.zeros(space.n_coords))
            assert np.array_equal(x, np.zeros(space.n_coords)) and not np.signbit(x).any()


def test_solve_against_dense_cholesky():
    # K=4 interior stiffness, rhs = M * interpolant of sin(pi x), against a
    # dense solve of the nodal matrices
    space = assemble(build_interval_mesh(4))
    M, S = (A.toarray() for A in interval_matrices(4))
    nodes = space.mesh.nodes[1:-1]
    b = M @ np.sin(np.pi * nodes)
    x = space.to_nodal(solve_spd(space.S, space.to_coords(b)))
    expect = np.linalg.solve(S, b)
    assert np.max(np.abs(x - expect)) < 1e-10


def test_solve_spd_2d_is_direct():
    # a 2D matrix with 121 unknowns is solved by the same capacitance solve as
    # a stepping run; the residual is read at the interior nodes, where the
    # product's boundary leak is dropped
    space = assemble(build_square_mesh(12))
    rng = np.random.default_rng(3)
    b = space.to_coords(rng.standard_normal(space.n_dof))
    x = solve_spd(space.S, b)
    assert np.array_equal(x, SpdFactorization(space.S).solve(b))
    res = np.linalg.norm(space.to_nodal(space.S @ x - b)) / np.linalg.norm(b)
    assert res <= 1e-13


_COEFFICIENT = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40), _COEFFICIENT, _COEFFICIENT, st.integers(0, 2**31 - 1))
def test_solve_roundtrip_random_spd(K, mass, stiff, seed):
    assume(mass > 0.0 or stiff > 0.0)
    A = SquareStencilMatrix(K, mass, stiff)
    b = np.random.default_rng(seed).standard_normal((K - 1) ** 2)
    x = _square_nodal(A, partial(solve_spd, A))(b)
    residual = _square_nodal(A, A.__matmul__)(x) - b
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)


def _condition_bound(K: int, mass: float, stiff: float) -> float:
    # kappa(mass M + stiff S) from bounds on its extreme eigenvalues: the torus
    # symbols bound both ends (M's lies in [h^2/4, h^2], S's below 8) and S's
    # smallest Dirichlet eigenvalue is 8 sin^2(pi/2K)
    h2 = 1.0 / (K * K)
    return (mass * h2 + 8.0 * stiff) / (mass * h2 / 4.0 + 8.0 * stiff * np.sin(np.pi / (2 * K)) ** 2)


@pytest.mark.parametrize("K", [2, 3, 4, 8, 17, 64, 128, 192])
def test_factorization_matches_splu(K):
    # the capacitance solve against scipy's sparse LU of the element-assembled
    # system (and a dense solve up to K = 17); both are backward stable, so
    # they differ by at most a small multiple of kappa eps relative
    rng = np.random.default_rng(K)
    M, S = element_interior_matrices(K)
    for mass, stiff in _SQUARE_CASES:
        A = mass * M + stiff * S
        b = rng.standard_normal(A.shape[0])
        square = SquareStencilMatrix(K, mass, stiff)
        x = _square_nodal(square, SpdFactorization(square).solve)(b)
        assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)
        bound = 4.0 * _condition_bound(K, mass, stiff) * np.finfo(float).eps
        references = [splu(A).solve(b)]
        if K <= 17:
            references.append(np.linalg.solve(A.toarray(), b))
        for expect in references:
            assert np.max(np.abs(x - expect)) <= bound * np.max(np.abs(expect))


def _torus_fold(K: int) -> np.ndarray:
    # multiplicity of each rfft column in the full spectrum, written out here
    fold = np.full(K // 2 + 1, 2.0)
    fold[0] = 1.0
    if K % 2 == 0:
        fold[-1] = 1.0
    return fold


@pytest.mark.parametrize("K", [2, 3, 4, 8, 16, 17, 64])
def test_torus_coordinates_are_an_isometry(K):
    # Q keeps inner products and Q^T inverts it; the coordinates have the
    # length of the real view of rfft2, and the torus boundary is left out.
    # Through Q the symbol product is the nodal quadratic form:
    # (Q w) . (A Q u) = w^T A u, as Q^T A Q is the nodal matrix
    rng = np.random.default_rng(K)
    n = (K - 1) ** 2
    u, w = rng.standard_normal((2, n))
    qu, qw = torus_spectrum(np.stack((u, w)), K)
    assert qu.shape == (2 * K * (K // 2 + 1),)
    eps = np.finfo(float).eps
    assert np.max(np.abs(torus_interior(qu, K) - u)) <= 8 * eps * np.max(np.abs(u))
    assert abs(qu @ qw - u @ w) <= 8 * eps * np.linalg.norm(u) * np.linalg.norm(w)
    assert abs(qu @ qu - u @ u) <= 8 * eps * (u @ u)
    if K <= 17:
        for mass, stiff in _SQUARE_CASES:
            A = SquareStencilMatrix(K, mass, stiff)
            Au = stencil_array(A) @ u
            assert abs(qw @ (A @ qu) - w @ Au) <= 8 * eps * np.linalg.norm(w) * np.linalg.norm(Au)


@pytest.mark.parametrize("K", [3, 8, 17, 64])
def test_solve_ignores_a_boundary_leak(K):
    # the coordinates of any torus function on the boundary set B (row y = 0,
    # column x = 0) added to a right-hand side change only the boundary
    # unknowns of the bordered system, so the solve returns the same spectrum
    # up to roundoff, within the bound of test_factorization_matches_splu
    rng = np.random.default_rng(K + 5)
    for mass, stiff in _SQUARE_CASES:
        A = SquareStencilMatrix(K, mass, stiff)
        solve = SpdFactorization(A).solve
        b = torus_spectrum(rng.standard_normal((K - 1) ** 2), K)
        g = np.zeros((K, K))
        g[0] = rng.standard_normal(K)
        g[1:, 0] = rng.standard_normal(K - 1)
        leak = (np.fft.rfft2(g) * (np.sqrt(_torus_fold(K)) / K)).view(float).ravel()
        x = solve(b)
        bound = 4.0 * _condition_bound(K, mass, stiff) * np.finfo(float).eps
        assert np.max(np.abs(solve(b + leak) - x)) <= bound * np.max(np.abs(x))


@pytest.mark.parametrize("K", [2, 3, 8, 17, 128])
def test_bordered_matrix_equals_modulo_indexing(K):
    # the capacitance system read from g0 by slices holds bitwise the entries
    # g0[(b_i - b_j) mod K] over the boundary nodes b, listed as
    # (0, x) for x = 0..K-1, then (y, 0) for y = 1..K-1
    g0 = np.random.default_rng(K).standard_normal((K, K))
    by = np.concatenate((np.zeros(K, dtype=int), np.arange(1, K)))
    bx = np.concatenate((np.arange(K), np.zeros(K - 1, dtype=int)))
    nb = 2 * K - 1
    expect = np.empty((nb + 1, nb + 1))
    expect[:nb, :nb] = g0[(by[:, None] - by[None, :]) % K, (bx[:, None] - bx[None, :]) % K]
    expect[:nb, nb] = expect[nb, :nb] = 1.0
    expect[nb, nb] = -2.5
    assert np.array_equal(bordered_matrix(g0, -2.5), expect)


def _green(A: SquareStencilMatrix) -> np.ndarray:
    # g0, the torus Green's function of A's symbol with the constant mode dropped
    lam = A.symbol.copy()
    lam[0, 0] = 1.0
    green = 1.0 / lam
    green[0, 0] = 0.0
    return np.fft.irfft2(green, s=(A.K, A.K))


@pytest.mark.parametrize("K", [2, 3, 8, 17, 128])
def test_green_function_is_swap_symmetric(K):
    # the diagonal cut makes the symbol symmetric in theta_x and theta_y, and
    # it is even, so g0[y, x] = g0[x, y] and g0(-y, -x) = g0(y, x)
    for mass, stiff in _SQUARE_CASES:
        g0 = _green(SquareStencilMatrix(K, mass, stiff))
        scale = 4 * np.finfo(float).eps * np.max(np.abs(g0))
        assert np.max(np.abs(g0 - g0.T)) <= scale
        assert np.max(np.abs(g0 - np.roll(g0[::-1, ::-1], 1, axis=(0, 1)))) <= scale


def _mirror_basis(K: int) -> np.ndarray:
    # orthogonal Q over the bordered system's unknowns, ordered as in
    # bordered_matrix (the row (0, x) for x = 0..K-1, the column (y, 0) for
    # y = 1..K-1, the border): its first K+1 columns are the corner, the sums
    # of (0, x) and (x, 0) over sqrt 2 and the border, the other K-1 their
    # differences over sqrt 2
    nb = 2 * K - 1
    x = np.arange(1, K)
    Q = np.zeros((nb + 1, nb + 1))
    Q[0, 0] = Q[nb, K] = 1.0
    Q[x, x] = Q[K - 1 + x, x] = Q[x, K + x] = np.sqrt(0.5)
    Q[K - 1 + x, K + x] = -np.sqrt(0.5)
    return Q


@pytest.mark.parametrize("K", [2, 3, 8, 17, 128])
def test_mirror_blocks_split_the_bordered_matrix(K):
    # Q^T G Q of the whole bordered matrix G is block-diagonal, and its blocks
    # are the two that _mirror_blocks reads from g0 (K = 2 leaves a 1 x 1
    # antisymmetric block)
    Q = _mirror_basis(K)
    assert np.allclose(Q.T @ Q, np.eye(2 * K), rtol=0.0, atol=1e-15)
    for mass, stiff in _SQUARE_CASES:
        A = SquareStencilMatrix(K, mass, stiff)
        g0 = _green(A)
        corner = -K * K * A.symbol[0, 0]
        G = bordered_matrix(g0, corner)
        split = Q.T @ G @ Q
        sym, anti = _mirror_blocks(g0, corner)
        assert sym.shape == (K + 1, K + 1) and anti.shape == (K - 1, K - 1)
        scale = 4 * np.finfo(float).eps * np.max(np.abs(G))
        assert np.max(np.abs(split[: K + 1, K + 1 :])) <= scale
        assert np.max(np.abs(split[K + 1 :, : K + 1])) <= scale
        assert np.max(np.abs(split[: K + 1, : K + 1] - sym)) <= scale
        assert np.max(np.abs(split[K + 1 :, K + 1 :] - anti)) <= scale


def test_factorization_set_up_stays_below_one_megabyte():
    # the K = 128 stepping matrix of a T8 run (BE, tau = 1/40, alpha = 0.5):
    # two inverses of size about K, not one of size 2K (1.3 MB traced)
    K, tau = 128, 1.0 / 40
    A = SquareStencilMatrix(K, 1.0 / tau, 1.0 + tau**-0.5)
    tracemalloc.start()
    try:
        SpdFactorization(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("K", [3, 8, 128])
def test_capacitance_solves_return_fresh_spectra(K):
    # each solve returns a fresh spectrum, which a later solve of the same
    # factorization leaves alone, and solving the same b again gives the
    # same bits
    rng = np.random.default_rng(K)
    solve = SpdFactorization(SquareStencilMatrix(K, 2.0, 21.0)).solve
    b, c = (torus_spectrum(rng.standard_normal((K - 1) ** 2), K) for _ in range(2))
    x = solve(b)
    first = x.copy()
    y = solve(c)
    assert not np.shares_memory(x, y)
    assert np.array_equal(x, first)
    assert np.array_equal(solve(b), first)


@pytest.mark.parametrize("mass,stiff", [(-1.0, 1.0), (1.0, -1.0), (0.0, -1.0), (0.0, 0.0)])
def test_factorization_rejects_indefinite_square_matrix(mass, stiff):
    with pytest.raises(ValueError):
        SpdFactorization(SquareStencilMatrix(8, mass, stiff))


def _interval_systems(K):
    # interior M, S and the stepping matrix of SBD at tau = 2e-4, alpha = 0.5,
    # each with its nodal reference (scipy CSC)
    space = assemble(build_interval_mesh(K))
    d = 1.0 + (2e-4) ** -0.5 * 1.5**0.5
    M, S = interval_matrices(K)
    systems = (space.M, space.S, space.M.scaled_sum(1.5 / 2e-4, space.S, d))
    return space, zip(systems, (M, S, (1.5 / 2e-4) * M + d * S))


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_eigenvalues_match_dense(K):
    _, systems = _interval_systems(K)
    for A, nodal in systems:
        dense = np.linalg.eigvalsh(nodal.toarray())
        assert np.max(np.abs(np.sort(A.eigenvalues) - dense)) <= 1e-14 * dense.max()


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_is_an_involution(K):
    rng = np.random.default_rng(K)
    x = rng.standard_normal(K - 1)
    assert np.max(np.abs(dst(dst(x)) - x)) <= 8 * np.finfo(float).eps * np.max(np.abs(x))


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_diagonalises_interval_systems(K):
    # DST-I coordinates turn the nodal M, S and SBD system into their eigenvalues
    space, systems = _interval_systems(K)
    rng = np.random.default_rng(K + 1)
    x = rng.standard_normal(space.n_dof)
    for A, nodal in systems:
        got = dst(nodal @ dst(x))
        expect = A.eigenvalues * x
        scale = np.max(np.abs(A.eigenvalues)) * np.max(np.abs(x))
        assert np.max(np.abs(got - expect)) <= 16 * np.finfo(float).eps * scale


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_of_a_row_block_matches_rows(K):
    rng = np.random.default_rng(K + 2)
    X = rng.standard_normal((5, K - 1))
    block = dst(X)
    assert block.shape == X.shape
    for row, x in zip(block, X):
        assert np.array_equal(row, dst(x))


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_solve_matches_dense(K):
    # both solves are backward stable, so they differ by at most a small multiple
    # of kappa(A) eps relative; kappa comes from the exact eigenvalues (up to 1.7e6).
    # both divide DST-I coefficients, so a nodal rhs goes through dst both ways
    space, systems = _interval_systems(K)
    rng = np.random.default_rng(K)
    for A, nodal in systems:
        assert isinstance(A, DiagonalMatrix)
        b = rng.standard_normal(space.n_dof)
        expect = np.linalg.solve(nodal.toarray(), b)
        bound = 4.0 * (A.eigenvalues.max() / A.eigenvalues.min()) * np.finfo(float).eps
        for x in (dst(SpdFactorization(A).solve(dst(b))), dst(solve_spd(A, dst(b)))):
            assert np.max(np.abs(x - expect)) <= bound * np.max(np.abs(expect))
