"""Symmetric matrices and SPD solves for assembly, projections and stepping.

Both uniform grids have closed-form interior P1 matrices, and both are solved
exactly with numpy alone.  Each matrix acts on the coordinates of its space
(`rstokes.fem.FemSpace.to_coords`), in which it is diagonal.  On the
interval those are orthonormal DST-I coefficients (`dst`), in which every
interior P1 matrix of the uniform mesh, and any linear combination of them,
is diagonal: `DiagonalMatrix` holds its eigenvalues, and a solve is one
division by them.

On the square they are the scaled torus spectrum (`torus_spectrum`): the
interior grid is embedded, extended by zeros, in the periodic K x K grid,
where a 2D real FFT diagonalises the 7-point stencils, and
`SquareStencilMatrix`, mass M + stiff S, multiplies by its torus symbol.
That product leaks onto the boundary set of the torus, where the interior
grid's stencil has no rows.  The solve is the capacitance-matrix method of
Buzbee, Dorr, George and Golub (SIAM J. Numer. Anal. 8, 1971): a dense
system on the 2K-1 boundary nodes makes the periodic solution vanish there,
and the leak drops out of it.  The symbol is symmetric in theta_x and
theta_y, so that system splits into two halves, over the sums and over the
differences of the nodes the swap x <-> y exchanges, each inverted once.
So a solve takes a spectrum and returns one, with 1D transforms of the
boundary alone.  Time
steppers, which solve the same matrix thousands of times, use
`SpdFactorization` so the work per matrix is done once per run.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DiagonalMatrix",
    "SquareStencilMatrix",
    "dst",
    "torus_spectrum",
    "torus_interior",
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

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.n}x{self.n}, vector has shape {x.shape}")
        return self.eigenvalues * x


class SquareStencilMatrix:
    """mass M + stiff S on the square, acting on torus-spectral coordinates.

    M and S are the interior P1 mass and stiffness matrices of the K x K
    grid whose cells are cut along their (+1, +1) diagonal.  With
    m = mass h^2/12 and d = stiff, row (y, x) of the nodal matrix is the
    7-point stencil 6m + 4d at the node, m - d at its four axis neighbours
    and m at (y-1, x-1) and (y+1, x+1).  Extended periodically, the stencil
    is the operator L of the K x K torus, with the symbol

        lambda = 4 d (s_x + s_y) + 4 m (3 - s_x - s_y - s_yx),

    s = sin^2(theta/2) per axis and s_yx that of theta_y + theta_x, which
    never subtracts large terms (`symbol`, in the rfft2 layout).  A vector
    holds the coordinates Q u of interior nodal values u (`torus_spectrum`),
    and the product is one multiplication by the symbol: the coordinates of
    L applied to the zero extension of u.  That is the extension of the
    nodal product plus a leak on the boundary set B of the torus (the row
    y = 0 and the column x = 0); restricted to the interior
    (`torus_interior`), it is the nodal product, and the solve
    (`SpdFactorization`) ignores the leak.  `scaled_sum` combines the two
    coefficients, as the 1D matrix combines its eigenvalues.
    """

    def __init__(self, K: int, mass: float, stiff: float):
        if not (math.isfinite(mass) and math.isfinite(stiff)):
            raise ValueError("matrix entries must be finite")
        self.K = K
        self.mass = float(mass)
        self.stiff = float(stiff)
        m = self.mass / (12.0 * K * K)
        # rfft2 layout: axis 0 holds theta_y = 2 pi k / K for k = 0..K-1, axis 1 theta_x for k = 0..K/2
        sy = np.sin(np.pi * np.arange(K) / K)[:, None] ** 2
        sx = np.sin(np.pi * np.arange(K // 2 + 1) / K)[None, :] ** 2
        syx = np.sin(np.pi * (np.arange(K)[:, None] + np.arange(K // 2 + 1)[None, :]) / K) ** 2
        self.symbol = 4.0 * self.stiff * (sx + sy) + 4.0 * m * (3.0 - sx - sy - syx)

    @property
    def n(self) -> int:
        return 2 * self.symbol.size

    def scaled_sum(self, a: float, other: "SquareStencilMatrix", b: float) -> "SquareStencilMatrix":
        """Return a*self + b*other as a new matrix."""
        return SquareStencilMatrix(self.K, a * self.mass + b * other.mass, a * self.stiff + b * other.stiff)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"dimension mismatch: matrix is {self.n}x{self.n}, vector has shape {x.shape}")
        return (_spectrum(x, self.K) * self.symbol).view(float).ravel()


def solve_spd(A: DiagonalMatrix | SquareStencilMatrix, b: np.ndarray) -> np.ndarray:
    """Solve Ax=b for SPD A, exactly up to roundoff, in the space's coordinates.

    One `SpdFactorization` solve, which returns exact zeros for a zero right-hand side.
    """
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


def _fold(K: int) -> np.ndarray:
    """How often each rfft column theta_x appears in the full spectrum: once
    for theta_x = 0 (and pi for even K), twice for the others."""
    fold = np.full(K // 2 + 1, 2.0)
    fold[0] = 1.0
    if K % 2 == 0:
        fold[-1] = 1.0
    return fold


def _spectrum(y: np.ndarray, K: int) -> np.ndarray:
    """Torus-spectral coordinates along the last axis as the complex rfft2
    array of shape (K, K//2 + 1) that they are the real view of."""
    return np.ascontiguousarray(y, dtype=float).view(complex).reshape(y.shape[:-1] + (K, K // 2 + 1))


def torus_spectrum(u: np.ndarray, K: int) -> np.ndarray:
    """Q: interior nodal values of the square to torus-spectral coordinates.

    u, of (K-1)^2 values in (y, x) order along the last axis, is extended by
    zeros to the K x K torus, whose boundary set B (row y = 0, column x = 0)
    is then zero; its rfft2, scaled by sqrt(fold)/K per column (`_fold`), is
    returned as real and imaginary parts side by side, 2K(K//2 + 1) numbers.
    By Parseval Q is an isometry, so Q^T Q is the identity
    (`torus_interior`); its range has dimension (K-1)^2.
    """
    lead = u.shape[:-1]
    f = np.zeros(lead + (K, K))
    f[..., 1:, 1:] = u.reshape(lead + (K - 1, K - 1))
    spectrum = np.fft.rfft2(f)
    spectrum *= np.sqrt(_fold(K)) / K
    return spectrum.view(float).reshape(lead + (-1,))


def torus_interior(y: np.ndarray, K: int) -> np.ndarray:
    """Q^T: torus-spectral coordinates to interior nodal values, along the last axis.

    The adjoint of `torus_spectrum`: the torus function K irfft2(Y / sqrt(fold))
    restricted to the interior.  It inverts Q on its range and maps the
    coordinates of any torus function supported on B to zero.
    """
    f = np.fft.irfft2(_spectrum(y, K) / np.sqrt(_fold(K)), s=(K, K))
    return (K * f[..., 1:, 1:]).reshape(y.shape[:-1] + (-1,))


def _mirror_blocks(g0: np.ndarray, corner: float) -> tuple[np.ndarray, np.ndarray]:
    """The bordered capacitance system split by the swap (y, x) <-> (x, y).

    The boundary set B is the corner (0, 0), the row nodes (0, x) and the
    column nodes (x, 0), x = 1..K-1; the swap fixes the corner and exchanges
    (0, x) with (x, 0).  g0 is swap-symmetric, g0[y, x] = g0[x, y], and even,
    g0(-y, -x) = g0(y, x) (see `_capacitance_solver`), so with
    D[x, x'] = g0(0, x - x'), E[x, y] = g0(-y, x) and b = g0(0, 1..K-1) the
    system over the corner, the row, the column and the border is

        [[g0(0, 0), b^T, b^T, 1], [b, D, E, 1], [b, E, D, 1], [1, 1^T, 1^T, corner]],

    and in the sums and differences of swapped pairs, divided by sqrt 2, it
    splits into the symmetric block over the corner, the K-1 sums and the
    border,

        [[g0(0, 0), sqrt2 b^T, 1], [sqrt2 b, D + E, sqrt2], [1, sqrt2, corner]],

    of size K+1, and the antisymmetric block D - E of size K-1.  Both are
    read from g0 by slices: D from the circulant of the row g0[0] (row x is
    the reversed window of that row repeated twice), E from the rows g0[K-1:0:-1].
    """
    K = g0.shape[0]
    circulant = sliding_window_view(np.concatenate((g0[0], g0[0])), K)[2:, -2::-1]
    mirror = g0[K - 1 : 0 : -1, 1:].T
    root2 = math.sqrt(2.0)
    sym = np.empty((K + 1, K + 1))
    sym[0, 0] = g0[0, 0]
    sym[0, 1:K] = sym[1:K, 0] = root2 * g0[0, 1:]
    np.add(circulant, mirror, out=sym[1:K, 1:K])
    sym[1:K, K] = sym[K, 1:K] = root2
    sym[0, K] = sym[K, 0] = 1.0
    sym[K, K] = corner
    return sym, circulant - mirror


def _capacitance_solver(A: SquareStencilMatrix):
    """Set up the exact solve of A on torus-spectral coordinates; return it as a function.

    The boundary set B of the K x K torus, the row y = 0 and the column
    x = 0 (2K-1 nodes), holds every neighbour that an interior node has
    outside the interior.  So u solves Au = b exactly when Lu = b + P_B mu
    for some mu on B and u = 0 on B, with L the torus operator of A's
    symbol.  The constant mode, singular for m = 0, is split off: L0+
    inverts L on mean-zero functions and drops the constant, so
    u = L0+ f + c with f = b + P_B mu and K^2 lambda(0) c = sum f.  With
    w = L0+ b and g0 the torus Green's function of L0+, mu and c solve the
    bordered system

        [[g0(b_i - b_j), 1], [1^T, -K^2 lambda(0)]] [mu; c] = [-w|_B; -sum b].

    The mesh is cut along the (+1, +1) diagonal, so the symbol depends on
    theta_x and theta_y only through s_x + s_y and s_yx: it is symmetric in
    them, and even.  So is its inverse, and g0, its inverse transform,
    satisfies g0[y, x] = g0[x, y] and g0(-y, -x) = g0(y, x).  The swap
    (0, x) <-> (x, 0) maps B onto itself, and in the sums and differences
    of swapped pairs the bordered system splits into two independent
    blocks of sizes K+1 and K-1 (`_mirror_blocks`), inverted once here:
    a quarter of the flops of one inverse of size 2K, and half its storage.
    The scalings of the sums and differences and the sign of the right-hand
    side are folded into the two inverses.

    A solve takes the coordinates of b, reads w on the row and on the
    column from the spectrum of w by 1D inverse transforms and sum b from
    its constant mode, makes one product with each inverse, of the sums and
    of the differences of the two, and returns the coordinates of
    L0+ f + c: P_B mu, a row and a column, has the spectrum of the row
    along x plus that of the column along y.  No 2D transform is made.  A
    right-hand side from the products of `SquareStencilMatrix` is b + P_B l
    for some leak l on B; the same system then gives mu - l for the same c,
    so the solution is unchanged.
    """
    K = A.K
    lam = A.symbol.copy()
    lam0 = lam[0, 0]
    lam[0, 0] = 1.0
    if lam0 < 0.0 or not np.all(lam > 0.0):
        raise ValueError("matrix is not positive definite: its torus symbol is negative, "
                         "or zero off the constant mode")
    green = np.divide(1.0, lam, out=lam)
    green[0, 0] = 0.0
    sym, anti = _mirror_blocks(np.fft.irfft2(green, s=(K, K)), -K * K * lam0)
    # the product with sym_inverse takes [row + col, sum b / K] (the corner
    # appears twice in row + col) and returns [mu(0, 0) / 2, (mu on the row +
    # mu on the column) / 2, K c]; the one with anti_inverse takes row - col
    # and returns (mu on the row - mu on the column) / 2, with a zero row and
    # column for the corner.  So mu on the row is the sum of the two results
    # and mu on the column their difference, each with half of mu(0, 0).
    scale = np.full(K + 1, math.sqrt(0.5))
    scale[0] = 0.5
    scale[K] = K
    sym_inverse = np.linalg.inv(sym)
    sym_inverse *= scale[:, None]
    sym_inverse *= -scale
    anti_inverse = np.zeros((K, K))
    anti_inverse[1:, 1:] = np.linalg.inv(anti)
    anti_inverse *= -0.5
    # with the coordinates Y = sqrt(fold) F / K of a spectrum F: irfft along x
    # at x = 0 is the half spectrum with its doubled middle terms, F @ fold / K,
    # so w on x = 0 is ifft(Y_w @ sqrt(fold)), and w on y = 0 is
    # irfft(sum over theta_y of Y_w, divided by sqrt(fold))
    root = np.sqrt(_fold(K))
    boundary_green = green * (root / K)

    def solve(b: np.ndarray) -> np.ndarray:
        spectrum = _spectrum(b, K) * green
        row = np.fft.irfft(spectrum.sum(axis=0) / root, K)   # w on y = 0
        col = np.fft.ifft(spectrum @ root).real              # w on x = 0
        sums = np.empty(K + 1)
        np.add(row, col, out=sums[:K])
        sums[K] = b[0]                                       # Y[0, 0] = sum b / K
        half = sym_inverse @ sums
        diff = anti_inverse @ (row - col)
        mu = half[:K]
        boundary = np.fft.rfft(mu + diff)[None, :] + np.fft.fft(mu - diff)[:, None]
        boundary *= boundary_green
        spectrum += boundary
        spectrum[0, 0] += half[K]
        return spectrum.view(float).ravel()

    return solve


class SpdFactorization:
    """Solver of one SPD matrix, set up once and reused across a stepping run.

    It takes and returns vectors in the coordinates the matrix acts on.  A
    `DiagonalMatrix` is solved by one division by its eigenvalues.  A
    `SquareStencilMatrix` is set up for the capacitance-matrix solve (see
    `_capacitance_solver`): one 2D inverse FFT of the symbol and two dense
    inverses of sizes K+1 and K-1 in place of one of size 2K, as the
    symbol's symmetry in theta_x and theta_y splits the boundary system
    into the sums and the differences of mirrored boundary nodes.  `solve`
    then makes 1D FFTs of the boundary and one product with each inverse.
    Either check rejects a matrix that is not positive definite.
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
