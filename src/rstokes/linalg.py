"""Symmetric matrices and SPD solves for assembly, projections and stepping.

Both uniform grids have closed-form interior P1 matrices, and both are solved
exactly with numpy alone.  Each matrix acts on the coordinates of its space
(`rstokes.fem.FemSpace.change_basis`).  On the interval those are orthonormal
DST-I coefficients (`dst`), in which every interior P1 matrix of the uniform
mesh, and any linear combination of them, is diagonal: `DiagonalMatrix`
holds its eigenvalues, and a solve is one division by them.

`SquareStencilMatrix` is mass M + stiff S on the square, applied to nodal
values as its 7-point stencil.  It is solved by the capacitance-matrix
method of Buzbee, Dorr, George and Golub (SIAM J. Numer. Anal. 8, 1971): the
interior grid is embedded in the periodic K x K grid, where a 2D real FFT
diagonalises the stencil, and a dense system on the 2K-1 boundary nodes of
that grid, inverted once, makes the periodic solution vanish there.  Time
steppers, which solve the same matrix thousands of times, use
`SpdFactorization` so the work per matrix is done once per run.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DiagonalMatrix",
    "SquareStencilMatrix",
    "dst",
    "matvec",
    "solve_spd",
    "SpdFactorization",
]


class DiagonalMatrix:
    """A 1D interior P1 matrix in orthonormal DST-I coordinates: its eigenvalues.

    `eigenvalues` are lambda_k (k = 1..n) of the matrix, which the DST-I
    vectors sin(pi j k / (n+1)) diagonalise.  `scaled_sum` combines the
    eigenvalues directly, so they are never recomputed from nodal entries in
    which large terms cancel.
    """

    def __init__(self, eigenvalues):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        if not np.all(np.isfinite(self.eigenvalues)):
            raise ValueError("matrix entries must be finite")

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def scaled_sum(self, a: float, other: "DiagonalMatrix", b: float) -> "DiagonalMatrix":
        """Return a*self + b*other as a new matrix."""
        return DiagonalMatrix(a * self.eigenvalues + b * other.eigenvalues)

    def _product(self, x: np.ndarray) -> np.ndarray:
        return self.eigenvalues * x

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)


class SquareStencilMatrix:
    """mass M + stiff S on the (y, x)-ordered interior grid of the uniform square.

    M and S are the interior P1 mass and stiffness matrices of the K x K
    grid whose cells are cut along their (+1, +1) diagonal.  With
    m = mass h^2/12 and d = stiff, row (y, x) is the 7-point stencil
    6m + 4d at the node, m - d at its four axis neighbours and m at
    (y-1, x-1) and (y+1, x+1).  `scaled_sum` combines the two coefficients,
    as the 1D matrix combines its eigenvalues.
    """

    def __init__(self, K: int, mass: float, stiff: float):
        if not (math.isfinite(mass) and math.isfinite(stiff)):
            raise ValueError("matrix entries must be finite")
        self.K = K
        self.mass = float(mass)
        self.stiff = float(stiff)
        m = self.mass / (12.0 * K * K)
        self._centre = 6.0 * m + 4.0 * self.stiff
        self._axis = m - self.stiff
        self._diagonal = m

    @property
    def n(self) -> int:
        return (self.K - 1) ** 2

    def scaled_sum(self, a: float, other: "SquareStencilMatrix", b: float) -> "SquareStencilMatrix":
        """Return a*self + b*other as a new matrix."""
        return SquareStencilMatrix(self.K, a * self.mass + b * other.mass, a * self.stiff + b * other.stiff)

    def _product(self, x: np.ndarray) -> np.ndarray:
        # neighbour sums by shifted in-place adds, in the order up, down, left,
        # right; a neighbour on the boundary is zero and is left out
        n = self.K - 1
        X = x.reshape(n, n)
        axis = np.zeros((n, n))
        axis[1:] += X[:-1]        # (y-1, x)
        axis[:-1] += X[1:]        # (y+1, x)
        axis[:, 1:] += X[:, :-1]  # (y, x-1)
        axis[:, :-1] += X[:, 1:]  # (y, x+1)
        diagonal = np.zeros((n, n))
        diagonal[1:, 1:] += X[:-1, :-1]
        diagonal[:-1, :-1] += X[1:, 1:]
        y = self._centre * X
        axis *= self._axis
        y += axis
        diagonal *= self._diagonal
        y += diagonal
        return y.ravel()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return matvec(self, x)


def matvec(A: DiagonalMatrix | SquareStencilMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, vector has shape {x.shape}")
    return A._product(x)


def solve_spd(A: DiagonalMatrix | SquareStencilMatrix, b: np.ndarray) -> np.ndarray:
    """Solve Ax=b for SPD A, exactly up to roundoff, in the space's coordinates.

    One `SpdFactorization` solve; a zero right-hand side short-circuits to zero.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n,):
        raise ValueError(f"dimension mismatch: matrix is {A.n}x{A.n}, rhs has shape {b.shape}")
    if not np.any(b):
        return np.zeros_like(b)
    return SpdFactorization(A).solve(b)


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


def _capacitance_solver(A: SquareStencilMatrix):
    """Set up the exact solve of A on nodal vectors; return it as a function.

    Extended periodically, the stencil is the operator L of the K x K torus,
    whose boundary set B, the row y = 0 and the column x = 0 (2K-1 nodes),
    holds every neighbour that an interior node has outside the interior.
    So u solves Au = b exactly when Lu = b + P_B mu for some mu on B and
    u = 0 on B.  L has the symbol lambda(theta_y, theta_x); with
    s = sin^2(theta/2) per axis and s_yx that of theta_y + theta_x,

        lambda = 4 d (s_x + s_y) + 4 m (3 - s_x - s_y - s_yx),

    which never subtracts large terms.  The constant mode, singular for
    m = 0, is split off: L0+ inverts L on mean-zero functions and drops the
    constant, so u = L0+ f + c with f = b + P_B mu and
    K^2 lambda(0) c = sum f.  With w = L0+ b and g0 the torus Green's
    function of L0+, mu and c solve the bordered system

        [[g0(b_i - b_j), 1], [1^T, -K^2 lambda(0)]] [mu; c] = [-w|_B; -sum b],

    inverted once here.  A solve is one rfft2 of b and one irfft2 of the
    spectrum of b + P_B mu: w|_B is read from the spectrum of w by 1D
    inverse transforms, and P_B mu, a row and a column, has the spectrum of
    the row along x plus that of the column along y.
    """
    K = A.K
    m, d = A._diagonal, A.stiff
    # rfft2 layout: axis 0 holds theta_y = 2 pi k / K for k = 0..K-1, axis 1 theta_x for k = 0..K/2
    sy = np.sin(np.pi * np.arange(K) / K)[:, None] ** 2
    sx = np.sin(np.pi * np.arange(K // 2 + 1) / K)[None, :] ** 2
    syx = np.sin(np.pi * (np.arange(K)[:, None] + np.arange(K // 2 + 1)[None, :]) / K) ** 2
    lam = 4.0 * d * (sx + sy) + 4.0 * m * (3.0 - sx - sy - syx)
    lam0 = lam[0, 0]
    lam[0, 0] = 1.0
    if lam0 < 0.0 or not np.all(lam > 0.0):
        raise ValueError("matrix is not positive definite: its torus symbol is negative, "
                         "or zero off the constant mode")
    green = 1.0 / lam
    green[0, 0] = 0.0
    g0 = np.fft.irfft2(green, s=(K, K))
    by = np.concatenate((np.zeros(K, dtype=int), np.arange(1, K)))
    bx = np.concatenate((np.arange(K), np.zeros(K - 1, dtype=int)))
    nb = 2 * K - 1
    bordered = np.empty((nb + 1, nb + 1))
    bordered[:nb, :nb] = g0[(by[:, None] - by[None, :]) % K, (bx[:, None] - bx[None, :]) % K]
    bordered[:nb, nb] = bordered[nb, :nb] = 1.0
    bordered[nb, nb] = -K * K * lam0
    inverse = np.linalg.inv(bordered)
    # irfft along x evaluated at x = 0: the half spectrum with its doubled middle terms
    fold = np.full(K // 2 + 1, 2.0)
    fold[0] = 1.0
    if K % 2 == 0:
        fold[-1] = 1.0

    def solve(b: np.ndarray) -> np.ndarray:
        f = np.zeros((K, K))
        f[1:, 1:] = b.reshape(K - 1, K - 1)
        spectrum = np.fft.rfft2(f)
        spectrum *= green
        rhs = np.empty(nb + 1)
        rhs[:K] = np.fft.irfft(spectrum.sum(axis=0), K) / K      # w on y = 0
        rhs[K:nb] = np.fft.ifft(spectrum @ fold)[1:].real / K     # w on x = 0, y > 0
        rhs[nb] = b.sum()
        sol = inverse @ -rhs
        col = np.zeros(K)
        col[1:] = sol[K:nb]
        spectrum += (np.fft.rfft(sol[:K])[None, :] + np.fft.fft(col)[:, None]) * green
        u = np.fft.irfft2(spectrum, s=(K, K))[1:, 1:]
        u += sol[nb]
        return u.ravel()

    return solve


class SpdFactorization:
    """Solver of one SPD matrix, set up once and reused across a stepping run.

    It takes and returns vectors in the coordinates the matrix acts on.  A
    `DiagonalMatrix` is solved by one division by its eigenvalues.  A
    `SquareStencilMatrix` is set up for the capacitance-matrix solve (see
    `_capacitance_solver`): one dense inverse of size 2K, after which `solve`
    is one 2D real FFT pair.  Either check rejects a matrix that is not
    positive definite.
    """

    def __init__(self, A: DiagonalMatrix | SquareStencilMatrix):
        self.n = A.n
        if isinstance(A, DiagonalMatrix):
            if not np.all(A.eigenvalues > 0.0):
                raise ValueError("matrix is not positive definite: a DST-I eigenvalue is <= 0")
            eigenvalues = A.eigenvalues
            self._solve = lambda b: b / eigenvalues
        else:
            self._solve = _capacitance_solver(A)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"dimension mismatch: system is {self.n}x{self.n}, rhs {b.shape}")
        return self._solve(b)
