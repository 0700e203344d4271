"""P1 Galerkin pieces: mass/stiffness matrices, projections, and error norms.

Dirichlet conditions leave only the interior unknowns, so a space keeps the
interior mass and stiffness matrices, which are symmetric positive definite
and written in closed form for both uniform grids, as the numpy-only matrices
of `rstokes.linalg`.  A space also fixes the coordinates of its vectors, in
which M, S and every stepping system are diagonal: `FemSpace.to_coords` (Q)
maps interior nodal values to them and `FemSpace.to_nodal` (Q^T) maps them
back.  On the interval both are the orthonormal DST-I.  On the square the
coordinates are the rfft2 of the zero-extended K x K torus array, scaled so
that Q is an isometry (`rstokes.linalg.torus_spectrum`), and Q^T restricts
the torus function to the interior.  A matrix product there leaks onto the
torus boundary, which the solves and the restriction drop.  Projections
return vectors in those coordinates, and `error_norms` takes a stack of
them and returns a plain (2, R) array of absolute L2 and H1 errors.  Load
vectors for the four initial data of the studies are integrated exactly
(closed forms for sine and step data, point evaluation for Dirac data),
which keeps quadrature error out of the convergence studies.  The sine's
load and its Ritz projection are written in DST-I coordinates directly,
one nonzero entry each (`_sine_coords`), so a 1D run of the sine marches one
mode (`rstokes.stepper.run_scheme`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DiagonalMatrix, SquareStencilMatrix, dst, solve_spd, torus_interior, torus_spectrum
from .mesh import Mesh

if TYPE_CHECKING:
    from .oracle import ModalSolution

__all__ = [
    "InitialDatum",
    "FemSpace",
    "UnsupportedDatumError",
    "assemble",
    "l2_project",
    "ritz_project",
    "error_norms",
    "mesh_line",
]


class UnsupportedDatumError(ValueError):
    pass


@dataclass(frozen=True)
class InitialDatum:
    """Initial condition of one of the study families.

    smooth_sine: sin(frequency * pi * x) for an integer frequency >= 1;
    step: indicator of (0, location]; dirac: point mass at location;
    step2d: indicator of (0, location] x (0,1), the only datum on the square.
    """

    kind: str
    frequency: int = 2
    location: float = 0.5

    def __post_init__(self):
        if self.kind not in ("smooth_sine", "step", "dirac", "step2d"):
            raise ValueError(f"unknown datum kind {self.kind!r}")
        integer = isinstance(self.frequency, numbers.Integral)
        if self.kind == "smooth_sine" and not (integer and self.frequency >= 1):
            raise ValueError(f"sine frequency must be an integer >= 1, got {self.frequency!r}")
        if self.kind != "smooth_sine" and not 0.0 < self.location < 1.0:
            raise ValueError(f"location must lie inside the domain, got {self.location}")

    @property
    def dim(self) -> int:
        """Dimension of the datum's domain: 2 (the square) for step2d, else 1."""
        return 2 if self.kind == "step2d" else 1

    @property
    def l2_norm(self) -> float | None:
        """Exact L2 norm of the datum; None for Dirac data, which are not in L2.

        step and step2d are the indicator of a set of measure `location`.
        """
        return {"dirac": None, "smooth_sine": 1.0 / math.sqrt(2.0)}.get(self.kind, math.sqrt(self.location))


@dataclass(frozen=True)
class FemSpace:
    """Assembled P1 space: the mesh and its interior mass and stiffness matrices.

    Boundary rows and columns are eliminated, so M and S act on the interior
    coefficients of a mesh function that vanishes on the boundary, in the
    space's coordinates (`to_coords`).  `n_dof` counts the interior nodes;
    a coordinate vector has `n_coords` entries, as many on the interval and
    2K(K//2 + 1) on the square.
    """

    mesh: Mesh
    M: DiagonalMatrix | SquareStencilMatrix
    S: DiagonalMatrix | SquareStencilMatrix

    @property
    def n_dof(self) -> int:
        return (self.mesh.K - 1) ** self.mesh.dim

    @property
    def n_coords(self) -> int:
        return self.M.n

    def to_coords(self, u: np.ndarray) -> np.ndarray:
        """Q: interior nodal values to space coordinates, along the last axis.

        The orthonormal DST-I (`rstokes.linalg.dst`) in 1D and the scaled
        torus spectrum (`rstokes.linalg.torus_spectrum`) on the square.
        """
        return dst(u) if self.mesh.dim == 1 else torus_spectrum(u, self.mesh.K)

    def to_nodal(self, y: np.ndarray) -> np.ndarray:
        """Q^T: space coordinates to interior nodal values, along the last axis.

        The inverse of `to_coords` on its range: the DST-I again in 1D, and
        on the square the torus function restricted to the interior
        (`rstokes.linalg.torus_interior`).
        """
        return dst(y) if self.mesh.dim == 1 else torus_interior(y, self.mesh.K)


def assemble(mesh: Mesh) -> FemSpace:
    """Interior P1 mass and stiffness matrices of the mesh, in closed form.

    In 1D the nodal matrices are tridiagonal, M = (h/6)[1, 4, 1] and
    S = (1/h)[-1, 2, -1]; in DST-I coordinates they are the diagonal
    matrices of their eigenvalues h(1 - (2/3)s_k^2) and (4/h)s_k^2 with
    s_k = sin(pi k / 2K).  On the square, with n = K-1, T = tridiag(-1, 2, -1),
    U the unit superdiagonal and E = U + U^T, S = I(x)T + T(x)I is the
    5-point stencil and M = (h^2/12)(6 I(x)I + I(x)E + E(x)I + U(x)U +
    U^T(x)U^T) a 7-point stencil that follows the cell diagonals; both are
    `SquareStencilMatrix`.
    """
    K, h = mesh.K, mesh.h
    if mesh.dim == 2:
        return FemSpace(mesh=mesh, M=SquareStencilMatrix(K, 1.0, 0.0), S=SquareStencilMatrix(K, 0.0, 1.0))
    # DST-I eigenvalues of the interior P1 matrices, s_k = sin(pi k / 2K), k = 1..K-1;
    # past K/2, s_k^2 = (1 + cos(pi (K-k) / K)) / 2, as accurate and exactly 1/2 at K/2
    k = np.arange(1, K)
    s2 = np.where(2 * k < K, np.sin(np.pi * k / (2 * K)) ** 2, 0.5 + 0.5 * np.cos(np.pi * (K - k) / K))
    return FemSpace(mesh=mesh, M=DiagonalMatrix(h * (1.0 - (2.0 / 3.0) * s2)), S=DiagonalMatrix((4.0 / h) * s2))


# ---------------------------------------------------------------------------
# load vectors (exact integration per datum kind)

def _sine_coords(space: FemSpace, m: int) -> np.ndarray:
    """Orthonormal DST-I coordinates of the nodal sine sin(m pi x_i), in closed form.

    Over the interior nodes, sum_i sin(m pi x_i) sin(k pi x_i) is K/2 when
    k = m and -K/2 when k = -m, mod 2K, and 0 otherwise.  So with m folded
    to r = m mod 2K, the coordinates are sqrt(K/2) e_r for r < K,
    -sqrt(K/2) e_(2K-r) for r > K, and zero when K divides m.  Through
    `dst`, the other K-2 entries would hold roundoff, which `run_scheme`
    would march.
    """
    K = space.mesh.K
    y = np.zeros(space.n_coords)
    r = m % (2 * K)
    if r % K:
        y[min(r, 2 * K - r) - 1] = math.copysign(math.sqrt(K / 2.0), K - r)
    return y


def _step_load_1d(space: FemSpace, a: float) -> np.ndarray:
    # b_i = int_0^a hat_i; the tent on [x_i-h, x_i+h] split at the cut point a
    mesh = space.mesh
    h = mesh.h
    x = mesh.nodes[1:-1]
    left = np.clip((a - (x - h)) / h, 0.0, 1.0)
    right = np.clip((a - x) / h, 0.0, 1.0)
    return h * (left**2 / 2.0 + right - right**2 / 2.0)


def _dirac_load_1d(space: FemSpace, x0: float) -> np.ndarray:
    mesh = space.mesh
    if np.any(np.isclose([0.0, 1.0], x0)):
        raise ValueError("Dirac located on a Dirichlet boundary node")
    x = mesh.nodes[1:-1]
    return np.maximum(0.0, 1.0 - np.abs(x0 - x) / mesh.h)


def mesh_line(x: float, K: int) -> int | None:
    """Index i of the grid line x = i/K of K cells per side, or None if x lies on none."""
    i = round(x * K)
    return i if np.isclose(x * K, i) else None


def _step2d_load(space: FemSpace, a: float) -> np.ndarray:
    # a hat integrates to h^2, half of it on either side of its column line:
    # h^2 left of the cut x = a, h^2/2 on it and 0 right of it
    K, h = space.mesh.K, space.mesh.h
    cut = mesh_line(a, K)
    if cut is None:
        raise UnsupportedDatumError("2D step cut must align with a mesh line")
    ix = np.tile(np.arange(1, K), K - 1)   # column of each (y, x)-ordered interior node
    return (0.5 * h * h) * (1.0 + np.sign(cut - ix))


def _check_domain(space: FemSpace, v: InitialDatum) -> None:
    if v.dim != space.mesh.dim:
        raise UnsupportedDatumError(f"{v.kind} datum is {v.dim}D, the mesh {space.mesh.dim}D")


def _load_coords(space: FemSpace, v: InitialDatum) -> np.ndarray:
    """The load vector of the datum, in space coordinates."""
    _check_domain(space, v)
    if v.kind == "smooth_sine":
        # the sine's load is its nodal values times
        # w = 2 (1 - cos(m pi h)) / (h (m pi)^2), written without the cancellation
        m, h = v.frequency, space.mesh.h
        return 4.0 * math.sin(m * math.pi * h / 2.0) ** 2 / (h * (m * math.pi) ** 2) * _sine_coords(space, m)
    load = {"step": _step_load_1d, "dirac": _dirac_load_1d, "step2d": _step2d_load}[v.kind]
    return space.to_coords(load(space, v.location))


def l2_project(space: FemSpace, v: InitialDatum) -> np.ndarray:
    """Coefficients of the L2 projection P_h v (duality pairing for Dirac), in space coordinates."""
    return solve_spd(space.M, _load_coords(space, v))


def ritz_project(space: FemSpace, v: InitialDatum) -> np.ndarray:
    """Coefficients of the Ritz projection R_h v (gradient data required), in space coordinates.

    On the interval it is the nodal interpolant I_h v: each phi_i' is
    constant on a cell and v - I_h v vanishes at the cell ends, so
    ((v - I_h v)', phi_i') = 0 for every basis function.
    """
    _check_domain(space, v)
    if v.kind != "smooth_sine":
        raise UnsupportedDatumError(f"datum kind {v.kind!r} has no gradient representation")
    return _sine_coords(space, v.frequency)


# ---------------------------------------------------------------------------
# error norms against the spectral solution

# quadrature points per `eval_grid` call of the 2D error pass (a block of
# cells): each of its temporaries is about 256 kB whatever K and p are
_GRID_BLOCK_POINTS = 1 << 15


def _gauss01(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of p points on [0, 1].

    Newton's method on the Legendre polynomial P_p from the guesses
    cos(pi (k - 1/4) / (p + 1/2)), with P_p and P_p' from the three-term
    recurrence; the fourth step reaches roundoff.  Symmetrized as in numpy's
    leggauss, whose first call imports numpy.polynomial (about 5 ms).
    """
    x = np.cos(np.pi * (np.arange(p, 0, -1) - 0.25) / (p + 0.5))
    for _ in range(5):
        p0, p1 = np.ones_like(x), x
        for k in range(2, p + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = p * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.25 * (x - x[::-1]) + 0.5, 0.25 * (w + w[::-1])


def _points_per_element(max_freq: int, h: float) -> int:
    # resolve the fastest retained mode: Gauss-p handles a phase of about 2p
    return max(4, int(math.ceil(1.2 * max_freq * h)) + 6)


def _error_1d(space: FemSpace, rows: np.ndarray, exact: "ModalSolution", t: float):
    nodes = space.mesh.nodes
    p = _points_per_element(exact.max_frequency[0], space.mesh.h)
    g, gw = _gauss01(p)
    # pieces: the mesh cells, split where the exact solution has a kink
    # (a sort rather than np.union1d, whose first call imports numpy.ma)
    breaks = [b for b in exact.singular_breaks() if 0.0 < b < 1.0 and b not in nodes]
    cuts = np.sort(np.concatenate([nodes, breaks]))
    lo, width = cuts[:-1], np.diff(cuts)
    xq = (lo[:, None] + width[:, None] * g).ravel()
    wq = (width[:, None] * gw).ravel()
    element = np.searchsorted(nodes, lo, side="right") - 1
    spacing = np.diff(nodes)[element]
    uv, ug = exact.eval_points(xq, t)
    offset = xq - np.repeat(nodes[element], p)
    out = []
    for numeric in rows:
        full = np.pad(space.to_nodal(numeric), 1)
        slope = np.repeat(np.diff(full)[element] / spacing, p)
        l2_sq = float(wq @ (slope * offset + np.repeat(full[element], p) - uv) ** 2)
        h1_sq = float(wq @ (slope - ug) ** 2)
        out.append((l2_sq, h1_sq))
    return out


def _error_2d(space: FemSpace, rows: np.ndarray, exact: "ModalSolution", t: float):
    K, h = space.mesh.K, space.mesh.h
    grid = np.arange(K) * h
    fmax = max(exact.max_frequency)
    p = max(4, min(int(math.ceil(1.2 * fmax * h)) + 4, 60))
    g, gw = _gauss01(p)
    # cells along eta per eval_grid call, in blocks of near-equal size
    blocks = math.ceil(p * K * K / _GRID_BLOCK_POINTS)
    cells = math.ceil(K / blocks)
    # reference side of the expanded squares, on the (K+1)^2 nodes [iy, ix]:
    # load_i = sum w u phi_i, grad_i = sum w grad u . grad phi_i
    load = np.zeros((K + 1, K + 1))
    grad = np.zeros((K + 1, K + 1))
    u_sq = du_sq = 0.0
    # per cell, the Gauss sums of one outer index: w u, w u eta, w u_xi,
    # w u_eta, w u^2 and w |grad u|^2, filled one block of cells at a time
    sums = np.empty((6, K * K))
    su, sue, s_xi, s_eta, s_uu, s_du = sums.reshape(6, K, K)
    # lower triangles (a, b, c) = ([iy, ix], [iy, ix+1], [iy+1, ix+1]) with
    # xi = x - x_a >= eta = y - y_a: phi = (1 - xi/h, (xi - eta)/h, eta/h);
    # the upper ones are the lower triangles of the grid mirrored in y = x,
    # whose node arrays are the transposes and whose xi is y - y_a
    for mirrored, node_load, node_grad in ((False, load, grad), (True, load.T, grad.T)):
        for i in range(p):
            xi = h * g[i]
            w = (h * gw[i]) * (xi * gw)
            we = w * (xi * g)
            for lo in range(0, K, cells):
                edges = grid[lo : lo + cells]                  # inner-side edges of the block's n cells
                n = edges.size
                inner = (xi * g[:, None] + edges).ravel()      # eta of point j in the block's cell m: j*n + m
                # each reference array as (Gauss point, cell * K + outer point)
                if mirrored:
                    u, u_eta, u_xi = (np.ascontiguousarray(f.reshape(K, p, n).transpose(1, 2, 0)).reshape(p, -1)
                                      for f in exact.eval_grid(inner, grid + xi, t))
                else:
                    u, u_xi, u_eta = (f.reshape(p, -1) for f in exact.eval_grid(grid + xi, inner, t))
                du = u_xi * u_xi
                du += u_eta * u_eta
                block = sums[:, lo * K : (lo + n) * K]
                for out, weights, f in zip(block, (w, we, w, w, w, w), (u, u, u_xi, u_eta, u * u, du)):
                    out[:] = weights @ f
                del u, u_xi, u_eta, du, f   # free the block before the next reference call
            u_sq += float(s_uu.sum())
            du_sq += float(s_du.sum())
            node_load[:-1, :-1] += (1.0 - xi / h) * su
            node_load[:-1, 1:] += (xi * su - sue) / h
            node_load[1:, 1:] += sue / h
            node_grad[:-1, :-1] -= s_xi / h
            node_grad[:-1, 1:] += (s_xi - s_eta) / h
            node_grad[1:, 1:] += s_eta / h
    # the rows are coordinates y = Q U: Q is an isometry and Q^T M Q is the
    # nodal M, so U^T M U = y . (M y) and U^T l = y . (Q l)
    load, grad = space.to_coords(np.stack((load[1:-1, 1:-1].ravel(), grad[1:-1, 1:-1].ravel())))
    return [(U @ (space.M @ U) - 2.0 * (U @ load) + u_sq, U @ (space.S @ U) - 2.0 * (U @ grad) + du_sq)
            for U in rows]


def error_norms(space: FemSpace, numeric: np.ndarray, exact: "ModalSolution", t: float) -> np.ndarray:
    """L2 and H1-seminorm distance between mesh functions and the exact solution.

    `numeric` is an (R, n_coords) stack of R mesh functions in space
    coordinates; the result is the (2, R) array of their absolute L2 and H1
    errors in row order, so `l2, h1 = error_norms(...)`.  Normalizing by
    the datum's norm is left to the caller (`rstokes.harness`).  The
    reference is evaluated once per quadrature point and serves every row,
    so the step counts of a temporal study, which share the mesh and the
    time, cost one reference pass.  Each row goes through the same
    floating-point operations as a stack of that row alone.

    Composite Gauss quadrature with at least 4 points per element;
    the point count grows with the highest retained oracle mode so that the
    oscillatory part of the integrand stays resolved.  In 1D the cells are
    split at `singular_breaks` (step edge, Dirac pole) and all points go to one
    `eval_points` call: the closed-form beta1(t) w plus J residual modes summed
    by shifted FFTs in O(S (P + L log L)) work for P points and L ~ 2J.  Each
    1D row is mapped to nodal values (`FemSpace.to_nodal`) and squared
    point by point.  On the square each Gauss index of
    the outer direction of the lower and upper triangles takes B `eval_grid`
    calls, one per block of about K/B cells along the inner direction, with
    B = ceil(p K^2 / _GRID_BLOCK_POINTS): 2pB calls, whose temporaries hold
    about 2^15 points each whatever K and p are (3 blocks at K = 128, p = 6).
    The per-cell Gauss sums of one index are gathered over its blocks and
    then added to the node loads, in the order a single call would give.
    The rule integrates products of P1 functions exactly, so for nodal
    values U

        sum_q w (u_h - u)^2 = U^T M U - 2 U^T l + sum_q w u^2,
        sum_q w |grad(u_h - u)|^2 = U^T S U - 2 U^T g + sum_q w |grad u|^2,

    with the node loads l_i = sum_q w u phi_i and g_i = sum_q w grad u .
    grad phi_i.  The loads and the two sums are accumulated once, and the
    loads mapped to coordinates; a row y = Q U, which stays in coordinates,
    then costs two products with the torus symbols, as U^T M U = y . (M y)
    and U^T l = y . (Q l).  The expanded square can lose up to about
    eps ||u||^2 / e^2 relative to an error e (5e-10 measured on the 2D
    spatial acceptance rows).  That is why 1D keeps the direct squares: its
    finest temporal rows have L2 errors near 1e-7, where the expansion moved
    the squared error by 2e-5 relative.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got t={t}")
    numeric = np.asarray(numeric, dtype=float)
    if numeric.ndim != 2 or numeric.shape[1] != space.n_coords:
        raise ValueError(f"expected an (R, {space.n_coords}) stack of coordinate vectors, got shape {numeric.shape}")
    quadrature = _error_1d if space.mesh.dim == 1 else _error_2d
    return np.sqrt(np.maximum(np.array(quadrature(space, numeric, exact, t)).T, 0.0))
