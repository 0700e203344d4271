import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sparse_identity
from rstokes.fem import assemble, l2_project, InitialDatum
from rstokes.linalg import (
    SolverError,
    SparseSymMatrix,
    SpdFactorization,
    SymTridiagonalMatrix,
    dst,
    matvec,
    solve_spd,
)
from rstokes.mesh import build_interval_mesh, build_square_mesh


def _random_sym(n, rng, density=0.4):
    A = rng.standard_normal((n, n))
    A[rng.random((n, n)) > density] = 0.0
    A = 0.5 * (A + A.T)
    return A


def test_matvec_identity(rng):
    A = sparse_identity(7)
    x = rng.standard_normal(7)
    assert np.array_equal(matvec(A, x), x)


def test_matvec_single_interior_stiffness():
    # K=2 interval: one interior node, stiffness [[2/h]] with h = 1/2
    space = assemble(build_interval_mesh(2))
    assert space.S.toarray().tolist() == [[4.0]]
    assert matvec(space.S, np.array([1.0])).tolist() == [4.0]


def test_matvec_against_dense_oracle(rng):
    for n in (5, 17, 50):
        D = _random_sym(n, rng)
        A = SparseSymMatrix(sp.csr_matrix(D))
        x = rng.standard_normal(n)
        assert np.max(np.abs(matvec(A, x) - D @ x)) < 1e-13


def test_matvec_dimension_mismatch(rng):
    A = sparse_identity(4)
    with pytest.raises(ValueError):
        matvec(A, rng.standard_normal(5))


def test_symmetry_flag_validated():
    with pytest.raises(ValueError):
        SparseSymMatrix(sp.csr_matrix([[0.0, 1.0], [2.0, 0.0]]))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        SparseSymMatrix(sp.diags([1.0, np.inf], format="csr"))


def test_solve_identity(rng):
    b = rng.standard_normal(10)
    assert np.allclose(solve_spd(sparse_identity(10), b), b)


def test_solve_zero_rhs():
    space = assemble(build_interval_mesh(16))
    x = solve_spd(space.S, np.zeros(space.n_dof))
    assert np.array_equal(x, np.zeros(space.n_dof))


def test_solve_against_dense_cholesky():
    # K=4 interior stiffness, rhs = M * interpolant of sin(pi x)
    space = assemble(build_interval_mesh(4))
    nodes = space.mesh.nodes[space.interior_nodes]
    b = matvec(space.M, np.sin(np.pi * nodes))
    x = solve_spd(space.S, b)
    expect = np.linalg.solve(space.S.toarray(), b)
    assert np.max(np.abs(x - expect)) < 1e-10


def test_solve_large_uses_cg_path():
    # 1D solves are direct (DST-I); a 2D (CSR) matrix with 121 unknowns goes to Jacobi-PCG
    space = assemble(build_square_mesh(12))
    rng = np.random.default_rng(3)
    b = rng.standard_normal(space.n_dof)
    x = solve_spd(space.S, b)
    res = np.linalg.norm(matvec(space.S, x) - b) / np.linalg.norm(b)
    assert res < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(0, 2**31 - 1))
def test_solve_roundtrip_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    D = B @ B.T + n * np.eye(n)
    A = SparseSymMatrix(sp.csr_matrix(D))
    b = rng.standard_normal(n)
    x = solve_spd(A, b)
    assert np.linalg.norm(matvec(A, x) - b) <= 1e-10 * np.linalg.norm(b)


def test_solver_failure_reports_residual():
    # singular consistent-looking system: path-graph Laplacian with rhs
    # carrying a nullspace component never converges
    n = 80
    main = 2.0 * np.ones(n)
    main[0] = main[-1] = 1.0
    A = SparseSymMatrix(sp.diags([-np.ones(n - 1), main, -np.ones(n - 1)], [-1, 0, 1], format="csr"))
    b = np.zeros(n)
    b[0] = 1.0
    with pytest.raises(SolverError) as err:
        solve_spd(A, b)
    assert err.value.residual > 0.0


def test_factorization_matches_iterative():
    # sparse LU against CG on a 2D (CSR) matrix with 121 unknowns
    space = assemble(build_square_mesh(12))
    rng = np.random.default_rng(5)
    b = rng.standard_normal(space.n_dof)
    direct = SpdFactorization(space.M).solve(b)
    iterative = solve_spd(space.M, b)
    assert np.max(np.abs(direct - iterative)) < 1e-10


def _interval_systems(K):
    # interior M, S and the stepping matrix of SBD at tau = 2e-4, alpha = 0.5
    space = assemble(build_interval_mesh(K))
    d = 1.0 + (2e-4) ** -0.5 * 1.5**0.5
    return space, (space.M, space.S, space.M.scaled_sum(1.5 / 2e-4, space.S, d))


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_eigenvalues_match_dense(K):
    _, systems = _interval_systems(K)
    for A in systems:
        dense = np.linalg.eigvalsh(A.toarray())
        assert np.max(np.abs(np.sort(A.eigenvalues) - dense)) <= 1e-14 * dense.max()


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_is_an_involution(K):
    rng = np.random.default_rng(K)
    x = rng.standard_normal(K - 1)
    assert np.max(np.abs(dst(dst(x)) - x)) <= 8 * np.finfo(float).eps * np.max(np.abs(x))


@pytest.mark.parametrize("K", [2, 3, 64, 2048])
def test_dst_diagonalises_interval_systems(K):
    # DST-I coordinates turn M, S and the SBD system into their eigenvalues
    space, systems = _interval_systems(K)
    rng = np.random.default_rng(K + 1)
    x = rng.standard_normal(space.n_dof)
    for A in systems:
        got = dst(A.toarray() @ dst(x))
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
    # SpdFactorization divides DST-I coefficients; solve_spd takes a nodal rhs
    space, systems = _interval_systems(K)
    rng = np.random.default_rng(K)
    for A in systems:
        assert isinstance(A, SymTridiagonalMatrix)
        b = rng.standard_normal(space.n_dof)
        expect = np.linalg.solve(A.toarray(), b)
        bound = 4.0 * (A.eigenvalues.max() / A.eigenvalues.min()) * np.finfo(float).eps
        for x in (dst(SpdFactorization(A).solve(dst(b))), solve_spd(A, b)):
            assert np.max(np.abs(x - expect)) <= bound * np.max(np.abs(expect))
