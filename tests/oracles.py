"""Independent references that only the tests use.

The package keeps what a study runs; the checks it is held to live here.

Modal factor: along the branch cut the factor u_j(t) of `rstokes.oracle` has
the completely monotone representation

    u_j(t) = int_0^infty exp(-r t) K_j(r) dr

with a positive density K_j (`KernelDensity`).  `uj_eval` reads one factor
from the package's contour rule `rstokes.oracle._bromwich`, so the density
quadrature and the fixed Talbot rule (`_uj_talbot`) check that rule, and
`limit_alpha1` is the classical alpha = 1 factor.  `direct_bromwich` is the
same rule as one product over all eigenvalues, the reference for its blocks.
`sector_probe` audits the sector bounds of the symbol
g(z) = z / (1 + gamma z^alpha).

Stepping: `scalar_trajectory_be`/`_sbd` are the single-mode recurrences of
both schemes, written out independently of `rstokes.stepper.run_scheme`, and
`direct_run_scheme` is the plain nodal march that sums the whole fractional
history directly at every step, the reference for the stepper's blocked
history and its march in the space's coordinates.  It steps in long double
with the nodal matrices of `nodal_matrices` and scipy's sparse LU, so it
shares no code with `rstokes.linalg`.  `generating_function_state` reads the
final state of every mode of an interval run from the scheme's generating
function, a reference at any K; `generating_function_state_2d` does the same
on the square for the generalized eigenpairs of the element matrices, at
small K.

Interval: `interval_matrices` are the closed-form nodal P1 matrices
(h/6) tridiag(1, 4, 1) and (1/h) tridiag(-1, 2, -1), the reference for the
DST-I eigenvalues that `rstokes.fem` keeps in their place, and
`sine_matrix` is the orthonormal DST-I matrix written out entry by entry,
which `nodal_form` uses to turn a 1D matrix back into nodal form.

Square: `square_nodes` is the node table of Mesh(2, K), whose `nodes` are
the grid of one side, and `square_triangles` its diagonal split;
`element_matrices`/`element_step_load` integrate P1 element by element over
it, the reference for the closed-form 2D matrices and step load of
`rstokes.fem`; `element_interior_matrices` keeps the same integrals sparse,
for the sparse LU that the 2D solves are checked against.  `stencil_array`
writes a `SquareStencilMatrix` out densely as Kronecker products, and
`bordered_matrix` writes the whole (2K)x(2K) capacitance system out, the
reference for the two blocks `rstokes.linalg._mirror_blocks` splits it into.

Evaluation and quadrature: `direct_eval_points` is the direct sin/cos sum that
`ModalSolution.eval_points` is checked against, `direct_error_2d` squares
the error of each row point by point at the Gauss points of
`rstokes.fem._error_2d`, the reference for its expanded per-row form, and
`gauss_panels` gives composite Gauss-Legendre rules for test-side integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from rstokes.cq import DELTA, weights
from rstokes.fem import _gauss01
from rstokes.linalg import DiagonalMatrix, SquareStencilMatrix
from rstokes.mesh import Mesh
from rstokes.oracle import _bromwich, _inverse_laplacian
from rstokes.stepper import StepFailure


# ---------------------------------------------------------------------------
# modal time factor u_j(t): branch-cut density and fixed contour rules

@dataclass(frozen=True)
class KernelDensity:
    """Density K(r) with u(t) = int_0^infty exp(-rt) K(r) dr for one mode."""

    lam: float
    gamma: float
    alpha: float

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return _density(np.asarray(r, dtype=float), self.lam, self.gamma, self.alpha)


def _density(r: np.ndarray, lam: float, gamma: float, alpha: float) -> np.ndarray:
    s = math.sin(alpha * math.pi)
    c = math.cos(alpha * math.pi)
    ra = r**alpha
    num = (gamma / math.pi) * lam * ra * s
    den = (lam + lam * gamma * ra * c - r) ** 2 + (lam * gamma * ra * s) ** 2
    return num / den


def uj_eval(density: KernelDensity, t: float) -> float:
    """Modal factor u_j(t) in (0, 1]; u_j(0) = 1 is the analytic limit."""
    if t <= 0.0:
        raise ValueError(f"time must be positive, got t={t}")
    return float(_bromwich(np.array([density.lam]), t, density.gamma, density.alpha)[0])


def limit_alpha1(lam: float, gamma: float, t: float) -> float:
    """Closed-form modal factor exp(-lam t / (1 + gamma lam)) at alpha = 1."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got t={t}")
    return math.exp(-lam * t / (1.0 + gamma * lam))


def _uj_talbot(lam: float, alpha: float, gamma: float, t: float, M: int = 32) -> float:
    # Fixed Talbot rule (test oracle): midpoint sampling of the deformed
    # Bromwich contour z(theta) = r theta (cot theta + i), r = 2M/(5t).
    r = 2.0 * M / (5.0 * t)

    def F(z):
        return 1.0 / (z + gamma * lam * z**alpha + lam)

    total = 0.5 * F(complex(r, 0.0)).real * math.exp(r * t)
    for k in range(1, M):
        theta = k * math.pi / M
        cot = math.cos(theta) / math.sin(theta)
        z = r * theta * complex(cot, 1.0)
        sigma = theta + (theta * cot - 1.0) * cot
        total += (np.exp(z * t) * F(z) * complex(1.0, sigma)).real
    return (r / M) * total


def direct_bromwich(lams: np.ndarray, t: float, gamma: float, alpha: float, variant: str = "plain") -> np.ndarray:
    """Reference for the blocked `rstokes.oracle._bromwich`: the same contour
    rule as one node-weight product over all eigenvalues at once, which holds
    (n + 1) x len(lams) complex temporaries ('plain' or 'residual')."""
    n = 32
    h = 3.0 / n
    mu = math.pi * n / (12.0 * t)
    iu = 1j * h * np.arange(n + 1)
    z = mu * (1.0 + iu) ** 2
    w = (2.0 * h * mu / math.pi) * np.exp(z * t) * (1.0 + iu)
    w[0] *= 0.5
    q = 1.0 + gamma * z**alpha
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    den = z[:, None] + lams[None, :] * q[:, None]
    if variant == "plain":
        return (w @ (1.0 / den)).real
    return (w @ (-z[:, None] / (lams[None, :] * q[:, None] * den))).real


# ---------------------------------------------------------------------------
# sector diagnostics for g(z) = z / (1 + gamma z^alpha)

@dataclass(frozen=True)
class SymbolProbe:
    alpha: float
    gamma: float

    def g(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z / (1.0 + self.gamma * z**self.alpha)

    def H(self, z: np.ndarray, lam: float) -> np.ndarray:
        g = self.g(z)
        return g / (np.asarray(z, dtype=complex) * (g + lam))


@dataclass(frozen=True)
class SectorReport:
    n_samples: int
    violations: int
    max_ratio_linear: float      # |g(z)| sin(a pi) / |z|
    max_ratio_sublinear: float   # |g(z)| gamma sin(a pi) / |z|^(1-alpha)
    max_arg_excess: float        # max(|arg g| - |arg z|)

    @property
    def ok(self) -> bool:
        return self.violations == 0


def sector_probe(sp: SymbolProbe, samples: np.ndarray) -> SectorReport:
    """Check |g| <= |z|/sin(a pi), |g| <= |z|^(1-a)/(gamma sin(a pi)) and that
    g stays within the sector of its argument, over the given samples."""
    z = np.asarray(samples, dtype=complex)
    if np.any(z == 0) or np.any(np.isclose(np.abs(np.angle(z)), np.pi)):
        raise ValueError("samples must avoid the origin and the branch cut")
    g = sp.g(z)
    s = math.sin(sp.alpha * math.pi)
    ratio1 = np.abs(g) * s / np.abs(z)
    ratio2 = np.abs(g) * sp.gamma * s / np.abs(z) ** (1.0 - sp.alpha)
    arg_excess = np.abs(np.angle(g)) - np.abs(np.angle(z))
    bad = (ratio1 > 1.0 + 1e-12) | (ratio2 > 1.0 + 1e-12) | (arg_excess > 1e-12)
    return SectorReport(
        n_samples=len(z),
        violations=int(np.count_nonzero(bad)),
        max_ratio_linear=float(ratio1.max()),
        max_ratio_sublinear=float(ratio2.max()),
        max_arg_excess=float(arg_excess.max()),
    )


# ---------------------------------------------------------------------------
# scalar (single-mode) recurrences; independent oracles for mode decoupling

def scalar_trajectory_be(
    lam: float,
    alpha: float,
    gamma: float,
    tau: float,
    n_steps: int,
    u0: float = 1.0,
    include_history_origin: bool = False,
) -> np.ndarray:
    w = weights("be", alpha, n_steps)
    frac = gamma * tau ** (-alpha)
    u = np.empty(n_steps + 1)
    u[0] = u0
    j0 = 0 if include_history_origin else 1
    denom = 1.0 / tau + frac * w[0] * lam + lam
    for n in range(1, n_steps + 1):
        hist = float(w[n - j0 : 0 : -1] @ u[j0:n]) if n - 1 >= j0 else 0.0
        u[n] = (u[n - 1] / tau - frac * lam * hist) / denom
    return u


def scalar_trajectory_sbd(
    lam: float, alpha: float, gamma: float, tau: float, n_steps: int, u0: float = 1.0
) -> np.ndarray:
    w = weights("sbd", alpha, n_steps)
    frac = gamma * tau ** (-alpha)
    u = np.empty(n_steps + 1)
    u[0] = u0
    denom = 1.5 / tau + (1.0 + frac * w[0]) * lam
    u[1] = (1.5 / tau - 0.5 * (1.0 + frac * w[0]) * lam) * u0 / denom
    for n in range(2, n_steps + 1):
        hist = float(w[n - 1 : 0 : -1] @ u[1:n]) + 0.5 * w[n - 1] * u0
        u[n] = ((4.0 * u[n - 1] - u[n - 2]) / (2.0 * tau) - frac * lam * hist) / denom
    return u


def direct_run_scheme(space, cfg, v: np.ndarray) -> np.ndarray:
    """Snapshots U^0..U^N of `run_scheme`, each history summed directly, O(N^2 dof).

    The plain nodal march: v and the snapshots are interior nodal values (the
    stepper's snapshots mapped by `space.to_nodal`), and the products use
    `nodal_matrices`.  It runs in long double, and each step is solved by
    scipy's sparse LU in double, refined once against a long-double
    residual.  So its own roundoff, which a double march amplifies by the
    condition number of the system (to about 1e-12 relative at K = 64,
    N = 1000), stays far below the stepper's.
    """
    N, tau = cfg.n_steps, cfg.tau
    c = DELTA[cfg.scheme]
    w = weights(cfg.scheme, cfg.alpha, N)
    frac = cfg.gamma * tau ** (-cfg.alpha)
    diag = 1.0 + frac * w[0]
    M, S = (A.astype(np.longdouble) for A in nodal_matrices(space.mesh))
    A = (c[0] / tau) * M + diag * S
    lu = splu(A.astype(float))

    def solve(b):
        x = np.zeros_like(b)
        for _ in range(2):
            x += lu.solve((b - A @ x).astype(float))
        return x

    # theta[n]: weight of U^0 in the history of step n
    if cfg.scheme == "sbd":
        theta = np.concatenate(([0.0], 0.5 * w[:-1]))
    else:
        theta = np.zeros(N + 1)

    U = np.empty((N + 1, space.n_dof), dtype=np.longdouble)
    U[0] = v
    for n in range(1, N + 1):
        if cfg.scheme == "sbd" and n == 1:
            # corrected first step: half-weighted initial stiffness term
            rhs = (c[0] / tau) * (M @ U[0]) - 0.5 * diag * (S @ U[0])
        else:
            past = sum(c[k] * U[n - k] for k in range(1, len(c)))
            rhs = -(M @ past) / tau
            rhs -= frac * (S @ (w[n - 1 : 0 : -1] @ U[1:n] + theta[n] * U[0]))
        try:
            U[n] = solve(rhs)
        except Exception as exc:  # propagate with the failing step index
            raise StepFailure(n, exc) from exc
    return U


def _generating_function_factor(cfg, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """U^N / U^0 of the scheme's recurrence for each mode of mass mu and stiffness sigma.

    With W = delta(xi)^alpha, the generating function of the CQ weights, and
    frac = gamma tau^-alpha, the recurrence of a mode sums to
    U(xi) = sum_n U^n xi^n = U^0 num / den, with

        den = (mu/tau) delta + sigma (1 + frac W),
        BE:  num = mu/tau + sigma (1 + frac W),
        SBD: num = (mu/tau)(3/2 - xi/2) + sigma (1 + frac W - xi frac W / 2 - xi / 2),

    the numerators holding the U^0 terms: the multistep mass terms, SBD's
    corrected first step and the half-weighted U^0 of its history.  U^N is
    the Cauchy integral of U(xi) xi^(-N-1), read by the L = 4N + 16 point
    trapezoid rule on |xi| = rho with rho^N = eps^(1/5): its aliasing error,
    rho^L times the later U^(N+L), and the roundoff that rho^-N amplifies
    are both near eps^(4/5).  No weight, history sum or solve of the stepper
    is used.
    """
    N, tau = cfg.n_steps, cfg.tau
    frac = cfg.gamma * tau ** (-cfg.alpha)
    mass, stiff = mu / tau, sigma
    L = 4 * N + 16
    rho = np.finfo(float).eps ** (1.0 / (5 * N))
    total = np.zeros(len(mu), dtype=complex)
    for xi in rho * np.exp(2j * np.pi * np.arange(L) / L):
        delta = 1.0 - xi if cfg.scheme == "be" else 1.5 - 2.0 * xi + 0.5 * xi * xi
        fw = frac * delta**cfg.alpha
        den = mass * delta + stiff * (1.0 + fw)
        if cfg.scheme == "be":
            num = mass + stiff * (1.0 + fw)
        else:
            num = mass * (1.5 - 0.5 * xi) + stiff * (1.0 + fw - 0.5 * xi * fw - 0.5 * xi)
        total += num / den * xi ** (-N)
    return total.real / L


def generating_function_state(space, cfg, v: np.ndarray) -> np.ndarray:
    """U^N of `run_scheme` on the interval, every DST-I mode from its closed form.

    Mode k has the mass and stiffness eigenvalues mu and sigma of the space,
    and its U^N is v_k times `_generating_function_factor`.
    """
    return v * _generating_function_factor(cfg, space.M.eigenvalues, space.S.eigenvalues)


def generating_function_state_2d(space, cfg, v: np.ndarray) -> np.ndarray:
    """U^N of `run_scheme` on the square, as interior nodal values, every mode from its closed form.

    The modes are the generalized eigenpairs S phi = lambda M phi of the
    dense element matrices (`element_interior_matrices`), M-orthonormal, so
    each has mu = 1 and sigma = lambda; v's nodal values are split into them
    by the M inner product, and each amplitude is scaled by
    `_generating_function_factor`.  Nothing of `rstokes.linalg` (symbols,
    capacitance solves) is used, only the space's `to_nodal` for v.
    """
    M, S = (A.toarray() for A in element_interior_matrices(space.mesh.K))
    lam, phi = eigh(S, M)
    amplitudes = phi.T @ (M @ space.to_nodal(v))
    return phi @ (amplitudes * _generating_function_factor(cfg, np.ones_like(lam), lam))


# ---------------------------------------------------------------------------
# matrices, evaluation and quadrature

def diagonal_identity(n: int) -> DiagonalMatrix:
    """The n x n identity as a 1D matrix, whose eigenvalues are all 1."""
    return DiagonalMatrix(np.ones(n))


def interval_matrices(K: int):
    """Interior nodal P1 mass and stiffness matrices of Mesh(1, K), as scipy CSC.

    The closed forms (h/6) tridiag(1, 4, 1) and (1/h) tridiag(-1, 2, -1).
    """
    h = 1.0 / K
    ones = np.ones(K - 2)
    return tuple(sparse.diags([off * ones, np.full(K - 1, diag), off * ones], [-1, 0, 1], format="csc")
                 for diag, off in ((4.0 * h / 6.0, h / 6.0), (2.0 / h, -1.0 / h)))


def nodal_matrices(mesh: Mesh):
    """Interior nodal mass and stiffness matrices of either grid, as scipy CSC:
    `interval_matrices` in 1D, `element_interior_matrices` on the square."""
    return interval_matrices(mesh.K) if mesh.dim == 1 else element_interior_matrices(mesh.K)


def sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k / (n+1)), j, k = 1..n."""
    jk = np.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * jk / (n + 1))


def nodal_form(A: DiagonalMatrix) -> np.ndarray:
    """The nodal matrix Q diag(eigenvalues) Q of a 1D matrix, Q = `sine_matrix`."""
    Q = sine_matrix(A.n)
    return Q @ np.diag(A.eigenvalues) @ Q


def stencil_array(A: SquareStencilMatrix) -> np.ndarray:
    """The dense form of a square's stencil matrix: Kronecker products of
    n x n factors with n = K-1, I the identity, U the unit superdiagonal and
    E = U + U^T, weighted as the stencil of `SquareStencilMatrix`."""
    n = A.K - 1
    m = A.mass / (12.0 * A.K * A.K)
    I = np.eye(n)
    U = np.eye(n, k=1)
    E = U + U.T
    return ((6.0 * m + 4.0 * A.stiff) * np.kron(I, I) + (m - A.stiff) * (np.kron(I, E) + np.kron(E, I))
            + m * (np.kron(U, U) + np.kron(U.T, U.T)))


def bordered_matrix(g0: np.ndarray, corner: float) -> np.ndarray:
    """[[g0(b_i - b_j), 1], [1^T, corner]] over the 2K-1 nodes b of the
    square's torus boundary set B: the capacitance system written out whole.

    B lists (0, x) for x = 0..K-1, then (y, 0) for y = 1..K-1, so the
    blocks are the circulants of the row g0[0] and of the column g0[:, 0]
    (row i of the circulant of c is c[i], c[i-1], ..., the reversed window
    of c repeated twice), the rows g0[K-1:0:-1] transposed, and the rows
    g0[1:] with their columns x read at -x.  Every entry is g0 at the same
    index as g0[(b_i - b_j) mod K].  The package solves the system as the
    two blocks of `rstokes.linalg._mirror_blocks`; this is their dense
    reference.
    """
    K = g0.shape[0]
    nb = 2 * K - 1
    out = np.empty((nb + 1, nb + 1))
    out[:K, :K] = sliding_window_view(np.concatenate((g0[0], g0[0])), K)[1:, ::-1]
    out[K:nb, K:nb] = sliding_window_view(np.concatenate((g0[:, 0], g0[:, 0])), K)[2:, -2::-1]
    out[:K, K:nb] = g0[K - 1 : 0 : -1].T
    out[K:nb, :K] = np.roll(g0[1:, ::-1], 1, axis=1)
    out[:nb, nb] = out[nb, :nb] = 1.0
    out[nb, nb] = corner
    return out


def square_nodes(K: int) -> tuple[np.ndarray, np.ndarray]:
    """The ((K+1)^2, 2) node coordinates (x, y) of Mesh(2, K), ordered by
    (y, x) as `square_triangles` numbers them, and the indices of its
    (K-1)^2 interior nodes in that order.  Each coordinate is a node of the
    side grid `Mesh.nodes`.
    """
    side = Mesh(2, K).nodes
    xg, yg = np.meshgrid(side, side)   # row index = y, column index = x
    inner = np.arange(1, K)
    return np.column_stack([xg.ravel(), yg.ravel()]), (inner[:, None] * (K + 1) + inner[None, :]).ravel()


def square_triangles(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice points (ix, iy) of Mesh(2, K) in its node order, and its triangles.

    Node (ix, iy) lies at (ix h, iy h).  Cell (ix, iy) with corners
    a=(ix,iy), b=(ix+1,iy), c=(ix+1,iy+1), d=(ix,iy+1) becomes the
    counterclockwise triangles (a,b,c) and (a,c,d).
    """
    ix, iy = np.meshgrid(np.arange(K + 1), np.arange(K + 1))
    lattice = np.column_stack([ix.ravel(), iy.ravel()]).astype(float)
    a = (iy[:-1, :-1] * (K + 1) + ix[:-1, :-1]).ravel()
    b, c, d = a + 1, a + K + 2, a + K + 1
    return lattice, np.vstack([np.column_stack([a, b, c]), np.column_stack([a, c, d])])


def triangle_areas(lattice: np.ndarray, tri: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles in lattice units (multiply by h^2)."""
    p = lattice[tri]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _element_entries(K: int):
    """Row and column indices with the local mass and stiffness entries of all triangles.

    The node count of Mesh(2, K) comes last; summing duplicates assembles the
    full matrices.
    """
    lattice, tri = square_triangles(K)
    p = lattice[tri]                        # (ne, 3, 2)
    area = triangle_areas(lattice, tri)
    # gradients of barycentric functions: grad l_i = rot(edge opposite i) / (2 area)
    grads = np.empty((len(area), 3, 2))
    for i in range(3):
        e = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * area)[:, None, None]
    s_local = np.einsum("eid,ejd->eij", grads, grads) * area[:, None, None]
    m_local = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / (12.0 * K * K))[:, None, None]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return rows, cols, m_local.ravel(), s_local.ravel(), len(lattice)


def element_matrices(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense P1 mass and stiffness matrices over all nodes of Mesh(2, K).

    Summed element by element from the exact triangle integrals, before the
    boundary is eliminated: the reference for the closed forms of `assemble`.
    The geometry is in lattice units, where S is the same as on the mesh
    and M is h^-2 times its value, so no node roundoff enters the sums.
    """
    rows, cols, m_local, s_local, n = _element_entries(K)
    M, S = np.zeros((n, n)), np.zeros((n, n))
    np.add.at(M, (rows, cols), m_local)
    np.add.at(S, (rows, cols), s_local)
    return M, S


def element_interior_matrices(K: int):
    """The interior rows and columns of `element_matrices`, as scipy CSC matrices.

    Sparse, so any K of the studies fits: the reference that the 2D solves of
    `rstokes.linalg` are checked against by scipy's sparse LU.
    """
    rows, cols, m_local, s_local, n = _element_entries(K)
    inner = square_nodes(K)[1]
    return tuple(sparse.csr_matrix((local, (rows, cols)), shape=(n, n))[inner][:, inner].tocsc()
                 for local in (m_local, s_local))


def element_step_load(K: int, a: float) -> np.ndarray:
    """Load of the indicator of x < a on all nodes of Mesh(2, K), element by element.

    Exact when the cut x = a is a mesh line: each hat is linear on a triangle,
    so a triangle left of the cut adds a third of its area to its three nodes.
    """
    lattice, tri = square_triangles(K)
    inside = lattice[tri][:, :, 0].max(axis=1) <= a * K + 1e-9
    load = np.zeros(len(lattice))
    area = triangle_areas(lattice, tri[inside]) / (K * K)
    np.add.at(load, tri[inside].ravel(), np.repeat(area / 3.0, 3))
    return load


def gauss_panels(a: float, b: float, panels: int, order: int = 12):
    """Composite Gauss-Legendre nodes/weights on [a, b] for test-side integrals."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def direct_eval_points(ms, x, t):
    """Reference for `ModalSolution.eval_points`: the direct sin/cos sum.

    Points go in blocks of max(1, 2**14 // J) against all J modes, so a phase
    matrix holds at most max(2**14, J) entries.  A split expansion adds the
    same closed-form beta1(t) w as the fast path.
    """
    x = np.asarray(x, dtype=float)
    a = ms.coeffs * ms.factors(t)
    k = ms.modes.jx * np.pi
    vals = np.empty_like(x)
    grads = np.empty_like(x)
    block = max(1, 2**14 // len(k))
    for lo in range(0, len(x), block):
        phase = np.outer(x[lo : lo + block], k)
        vals[lo : lo + block] = np.sin(phase) @ a
        grads[lo : lo + block] = np.cos(phase) @ (a * k)
    vals *= np.sqrt(2.0)
    grads *= np.sqrt(2.0)
    if ms.datum is not None:
        b1 = ms.beta1(t)
        w, dw = _inverse_laplacian(ms.datum, x)
        vals += b1 * w
        grads += b1 * dw
    return vals, grads


def direct_error_2d(space, rows, exact, t):
    """Reference for `rstokes.fem._error_2d`: the squared L2 and H1 errors of
    each row, summed point by point over the same Gauss points.

    The nodal values of a row are zero-padded to the (K+1)^2 nodes; every
    chunk of points then evaluates u_h and its constant gradient on each
    triangle and squares the difference from the reference directly, so no
    mass or stiffness matrix enters and no large terms cancel.
    """
    K, h = space.mesh.K, space.mesh.h
    grid = np.arange(K) * h
    corners = []   # per row: the values at the corners a, b, c, d of every cell
    for numeric in rows:
        V = np.pad(np.reshape(numeric, (K - 1, K - 1)), 1)   # [iy, ix]
        corners.append((V[:-1, :-1], V[:-1, 1:], V[1:, 1:], V[1:, :-1]))

    fmax = max(exact.max_frequency)
    p = max(4, min(int(math.ceil(1.2 * fmax * h)) + 4, 60))
    g, gw = _gauss01(p)

    l2_sq = [0.0] * len(rows)
    h1_sq = [0.0] * len(rows)
    # lower triangles (a,b,c): eta <= xi; iterate outer Gauss index in x
    slopes = [(Va, (Vb - Va) / h, (Vc - Vb) / h) for Va, Vb, Vc, _ in corners]
    for i in range(p):
        xi = h * g[i]
        xs = grid + xi
        ys = (xi * g[:, None] + grid[None, :]).ravel()     # index j*K + n
        uv, ugx, ugy = exact.eval_grid(xs, ys, t)
        uv = uv.reshape(p, K, K)
        ugx = ugx.reshape(p, K, K)
        ugy = ugy.reshape(p, K, K)
        w = (h * gw[i]) * (xi * gw)[:, None, None]
        for r, (Va, dx_l, dy_l) in enumerate(slopes):
            uh = Va[None] + dx_l[None] * xi + dy_l[None] * (xi * g)[:, None, None]
            l2_sq[r] += float(np.sum(w * (uh - uv) ** 2))
            h1_sq[r] += float(np.sum(w * ((dx_l[None] - ugx) ** 2 + (dy_l[None] - ugy) ** 2)))
    # upper triangles (a,c,d): xi <= eta; outer Gauss index in y
    slopes = [(Va, (Vc - Vd) / h, (Vd - Va) / h) for Va, _, Vc, Vd in corners]
    for jq in range(p):
        eta = h * g[jq]
        ys = grid + eta
        xs = (eta * g[:, None] + grid[None, :]).ravel()    # index i*K + m
        uv, ugx, ugy = exact.eval_grid(xs, ys, t)
        uv = uv.reshape(K, p, K)
        ugx = ugx.reshape(K, p, K)
        ugy = ugy.reshape(K, p, K)
        w = (h * gw[jq]) * (eta * gw)[None, :, None]
        for r, (Va, dx_u, dy_u) in enumerate(slopes):
            uh = Va[:, None, :] + dx_u[:, None, :] * (eta * g)[None, :, None] + dy_u[:, None, :] * eta
            l2_sq[r] += float(np.sum(w * (uh - uv) ** 2))
            h1_sq[r] += float(np.sum(w * ((dx_u[:, None, :] - ugx) ** 2 + (dy_u[:, None, :] - ugy) ** 2)))
    return list(zip(l2_sq, h1_sq))
