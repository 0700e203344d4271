"""Symmetric sparse matrices and SPD solves for assembly, projections and stepping.

Storage and the sparse product are delegated to scipy's CSR format; the SPD
solve is a Jacobi-preconditioned conjugate gradient with an iteration cap and
a direct dense fallback for small systems.  Time steppers, which solve the
same matrix thousands of times, use :class:`SpdFactorization` instead so the
factorization is built once per run.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SparseSymMatrix", "SolverError", "matvec", "solve_spd", "SpdFactorization"]

_DENSE_FALLBACK_N = 64
_SYMMETRY_TOL = 1e-14
_SOLVE_TOL = 1e-13


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


class SparseSymMatrix:
    """Compressed-sparse-row symmetric matrix; symmetry is checked on construction."""

    def __init__(self, csr: sp.csr_matrix):
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {csr.shape}")
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix entries must be finite")
        scale = max(1.0, float(np.abs(csr.data).max(initial=0.0)))
        gap = abs(csr - csr.T)
        if gap.nnz and gap.data.max() > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric: A != A^T")
        self._csr = csr

    @classmethod
    def from_coo(cls, n: int, rows, cols, values) -> "SparseSymMatrix":
        coo = sp.coo_matrix((values, (rows, cols)), shape=(n, n))
        return cls(coo.tocsr())

    @classmethod
    def identity(cls, n: int) -> "SparseSymMatrix":
        return cls(sp.identity(n, format="csr"))

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    def tocsr(self) -> sp.csr_matrix:
        return self._csr

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def scaled_sum(self, a: float, other: "SparseSymMatrix", b: float) -> "SparseSymMatrix":
        """Return a*self + b*other as a new matrix."""
        return SparseSymMatrix((a * self._csr + b * other._csr).tocsr())

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)


def matvec(A: SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, vector has shape {x.shape}")
    return A.tocsr() @ x


def solve_spd(A: SparseSymMatrix, b: np.ndarray) -> np.ndarray:
    """Solve Ax=b for SPD A to a relative residual <= 1e-13.

    Jacobi-preconditioned CG capped at 10n iterations; systems with n <= 64
    are solved densely.  A zero right-hand side short-circuits to zero.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, rhs has shape {b.shape}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    if A.n <= _DENSE_FALLBACK_N:
        return np.linalg.solve(A.toarray(), b)

    csr = A.tocsr()
    inv_diag = 1.0 / csr.diagonal()
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    res = 1.0
    max_iter = 10 * A.n
    for _ in range(max_iter):
        Ap = csr @ p
        p_ap = p @ Ap
        if not np.isfinite(p_ap) or p_ap <= 0.0:
            raise SolverError("CG breakdown (matrix not positive definite?)", residual=res)
        alpha = rz / p_ap
        x += alpha * p
        r -= alpha * Ap
        res = np.linalg.norm(r) / bnorm
        if res <= _SOLVE_TOL:
            return x
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(f"CG did not converge within {max_iter} iterations", residual=res)


class SpdFactorization:
    """Sparse LU of an SPD matrix, reused across many solves of one stepping run."""

    def __init__(self, A: SparseSymMatrix):
        self._lu = spla.splu(A.tocsr().tocsc())
        self.n = A.n

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"dimension mismatch: system is {self.n}x{self.n}, rhs {b.shape}")
        return self._lu.solve(b)
