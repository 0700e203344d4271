"""Symmetric matrices and SPD solves for assembly, projections and stepping.

`SymTridiagonalMatrix` holds the P1 matrices of the uniform 1D mesh in numpy
alone.  The interior mass and stiffness matrices are tridiagonal Toeplitz, so
the orthonormal DST-I `dst` diagonalises both, and any linear combination of
them.  In those coordinates a 1D system is solved by one division by its
eigenvalues (`SpdFactorization`), and a nodal right-hand side by two sine
transforms around it (`solve_spd`).  `SparseSymMatrix` is scipy's CSR format,
used in 2D, with a Jacobi-preconditioned CG `solve_spd` and a sparse LU.
scipy is imported only where a CSR matrix is built or factored, so a 1D run
loads numpy alone.  Time steppers, which solve the same matrix thousands of
times, use `SpdFactorization` so the work per matrix is done once per run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SymTridiagonalMatrix",
    "SparseSymMatrix",
    "SolverError",
    "dst",
    "matvec",
    "solve_spd",
    "SpdFactorization",
]

_SYMMETRY_TOL = 1e-14
_SOLVE_TOL = 1e-13


class SolverError(RuntimeError):
    """Iterative solve failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (relative residual {residual:.3e})")
        self.residual = residual


class SymTridiagonalMatrix:
    """Symmetric tridiagonal matrix held as its diagonal and off-diagonal.

    `eigenvalues` are lambda_k (k = 1..n) of the matrix, which the DST-I
    vectors sin(pi j k / (n+1)) diagonalise, as they do every interior P1
    matrix of the uniform mesh.  `scaled_sum` combines the eigenvalues with
    the same coefficients as the entries, so they are never recomputed from
    entries in which large terms cancel.
    """

    def __init__(self, diag, off, eigenvalues):
        self.diag = np.asarray(diag, dtype=float)
        self.off = np.asarray(off, dtype=float)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.off))):
            raise ValueError("matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.diag.size

    def toarray(self) -> np.ndarray:
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)

    def scaled_sum(self, a: float, other: "SymTridiagonalMatrix", b: float) -> "SymTridiagonalMatrix":
        """Return a*self + b*other as a new matrix."""
        return SymTridiagonalMatrix(a * self.diag + b * other.diag, a * self.off + b * other.off,
                                    a * self.eigenvalues + b * other.eigenvalues)

    def _product(self, x: np.ndarray) -> np.ndarray:
        # row i summed left to right, as a CSR product would
        y = np.zeros_like(x)
        y[1:] = self.off * x[:-1]
        y += self.diag * x
        y[:-1] += self.off * x[1:]
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)


class SparseSymMatrix:
    """Compressed-sparse-row symmetric matrix; symmetry is checked on construction."""

    def __init__(self, csr):
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

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    def tocsr(self):
        return self._csr

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def scaled_sum(self, a: float, other: "SparseSymMatrix", b: float) -> "SparseSymMatrix":
        """Return a*self + b*other as a new matrix."""
        return SparseSymMatrix((a * self._csr + b * other._csr).tocsr())

    def _product(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)


def matvec(A: SymTridiagonalMatrix | SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, vector has shape {x.shape}")
    return A._product(x)


def solve_spd(A: SymTridiagonalMatrix | SparseSymMatrix, b: np.ndarray) -> np.ndarray:
    """Solve Ax=b for SPD A.

    A 1D matrix is solved exactly by a division in DST-I coordinates, between
    two sine transforms.
    A CSR matrix goes to Jacobi-preconditioned CG, run to a relative residual
    <= 1e-13 and capped at 10n iterations.  A zero right-hand side
    short-circuits to zero.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, rhs has shape {b.shape}")
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    if isinstance(A, SymTridiagonalMatrix):
        return dst(SpdFactorization(A).solve(dst(b)))

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


def dst(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I, sqrt(2/(n+1)) sum_j x_j sin(pi j k / (n+1)), k = 1..n.

    It acts along the last axis, so it takes a vector or a block of rows, and
    it is its own inverse.  It is the imaginary part of one real FFT of the
    odd extension of x, scaled.
    """
    n = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * n + 2,))
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    return np.fft.rfft(ext)[..., 1 : n + 1].imag * (-1.0 / np.sqrt(2.0 * (n + 1)))


class SpdFactorization:
    """Solver of one SPD matrix, set up once and reused across a stepping run.

    A `SymTridiagonalMatrix` is diagonal in orthonormal DST-I coordinates, so
    there `solve` takes and returns DST coefficients (`dst` of nodal vectors)
    and is one division by the eigenvalues.  A CSR matrix is factored once by
    scipy's sparse LU with a symmetric fill-reducing ordering, and `solve`
    acts on nodal vectors.
    """

    def __init__(self, A: SymTridiagonalMatrix | SparseSymMatrix):
        self.n = A.n
        if isinstance(A, SymTridiagonalMatrix):
            if not np.all(A.eigenvalues > 0.0):
                raise ValueError("matrix is not positive definite: a DST-I eigenvalue is <= 0")
            eigenvalues = A.eigenvalues
            self._solve = lambda b: b / eigenvalues
        else:
            from scipy.sparse.linalg import splu

            lu = splu(A.tocsr().tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
            self._solve = lu.solve

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"dimension mismatch: system is {self.n}x{self.n}, rhs {b.shape}")
        return self._solve(b)
