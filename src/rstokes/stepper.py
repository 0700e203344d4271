"""Fully discrete time stepping: one multistep stepper with convolution
quadrature for the fractional term, for backward Euler and the corrected
second-order backward difference scheme (SBD).

With c_k the coefficients of the scheme's generating polynomial delta
(`cq.DELTA`) and w_j the CQ weights of (delta(xi)/tau)^alpha at tau = 1,
step n solves one constant SPD system,

    (c_0 M/tau + (1 + gamma tau^-a w_0) S) U^n
        = -(M/tau) sum_{k>=1} c_k U^{n-k}
          - gamma tau^-a S (sum_{j=1}^{n-1} w_{n-j} U^j + theta_n U^0),

with theta_n = w_{n-1}/2 for SBD and theta_n = 0 for BE.  BE's history
has no U^0 term: written out literally, the convolution would add w_n U^0,
and that scheme's temporal rate falls to about 1/2
(`tests/test_stepper.py::test_history_origin_variants_differ_in_rate`), so
it is not the first-order scheme the paper analyses.  The history is S
applied to the weighted sum of the stored states, so one (N+1) x dof array
is kept, and `run_scheme` returns that plain array, the snapshots
U^0..U^N.  SBD's first step is the corrected start (weight 3/2 on the
startup sequence and a half-weighted initial stiffness term) that restores
second-order accuracy for nonvanishing initial data.

The weighted sum is split at blocks of `_BLOCK` steps.  Before the steps
s..e-1 of a block are solved, their history from U^0..U^{s-1} (the far
part) is added to their own, not yet solved, rows of the snapshot array by
one matrix product, U[s:e] += T U[0:s] with the Toeplitz block
T[i, j] = w_{s+i-j} (theta_{s+i} for j = 0), built and multiplied in
chunks that keep its temporaries bounded.  Each step then adds its near
part from the steps of its own block, one BLAS product, and is solved.  So
the N^2/2 dof multiply-adds of the direct sum stay, but almost all of them
run as Level-3 BLAS; steps are still solved one at a time in order 1..N.

The stepper works in the coordinates of its space (`FemSpace.to_coords`)
and never changes them: v and the snapshots are in those coordinates, and M,
S and the system act in them, so one loop serves both dimensions.  The
system matrix is set up once per run by `SpdFactorization`.  On the
interval the space's DST-I coordinates make every matrix diagonal, and a
solve is one division.  So each mode marches alone, and one whose entry of
v is 0 stays exactly 0: each of its products is 0 times a finite weight.  A
1D run therefore marches only the support of v and writes it into the
columns of a zero snapshot array: the sine datum's closed-form coordinates
have one nonzero entry, and the L2 projection of the step at 1/2 has three
quarters of them.  When that support is partial, the array is column-major,
so the scatter writes only the pages of the kept columns and those of the
others stay untouched zero pages; its rows, the states U^n, are then
strided views.  A full-support 1D run and every 2D run return the marched
array itself, row-major.  On the square the coordinates are the scaled
spectrum of the zero-extended torus array: M and S multiply by their torus
symbols, whose products leak onto the torus boundary, and the
capacitance-matrix solve, which the leak does not change, takes and returns
spectra.  So a 2D step makes no 2D FFT.  The snapshots hold n_coords
entries per state, 2K(K//2 + 1) on the square for (K-1)^2 dofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cq import DELTA, weights
from .fem import FemSpace
from .linalg import DiagonalMatrix, SpdFactorization

__all__ = ["SchemeConfig", "run_scheme"]


@dataclass(frozen=True)
class SchemeConfig:
    """Time-discretization parameters.

    BE's fractional history omits the U^0 term (theta_n = 0), which keeps the
    scheme first order; the literal convolution with that term converges at
    about 1/2 (`test_history_origin_variants_differ_in_rate`).  SBD has its
    own corrected startup.
    """

    scheme: str
    alpha: float
    gamma: float
    tau: float
    n_steps: int
    # not a field: the traced benchmark's step count (perfbench/spans.py,
    # Recorder._count_steps) reads it; ROADMAP item 1(a) deletes that read
    include_history_origin: ClassVar[bool] = False

    def __post_init__(self):
        if self.scheme not in DELTA:
            raise ValueError(f"scheme must be one of {', '.join(DELTA)}, got {self.scheme!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not all(math.isfinite(x) and x > 0.0 for x in (self.gamma, self.tau)):
            raise ValueError(f"gamma and tau must be positive and finite, got gamma={self.gamma}, tau={self.tau}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")


class StepFailure(RuntimeError):
    def __init__(self, step: int, cause: Exception):
        super().__init__(f"time step {step} failed: {cause}")
        self.step = step


def run_scheme(space: FemSpace, cfg: SchemeConfig, v: np.ndarray) -> np.ndarray:
    """March U^0 = v through cfg.n_steps steps of the configured scheme.

    Returns the (N+1, n_coords) array of the snapshots U^0..U^N.  v and the
    snapshots are in the coordinates of `space` (`FemSpace.to_coords`), as
    the projections of `rstokes.fem` return them.  In 1D the march covers
    the support of v alone, as the columns off it are exactly 0 at every
    step; the factorization, the N solves, their order and the step a
    `StepFailure` names are those of the full-width march.  The array is
    column-major exactly when that 1D support is partial, so its rows are
    then strided views; otherwise it is the row-major marched array.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n_coords,):
        raise ValueError(f"initial vector must have {space.n_coords} entries")
    N, tau = cfg.n_steps, cfg.tau
    c = DELTA[cfg.scheme]
    w = weights(cfg.scheme, cfg.alpha, N)
    frac = cfg.gamma * tau ** (-cfg.alpha)
    diag = 1.0 + frac * w[0]
    M, S, keep = space.M, space.S, np.arange(space.n_coords)
    if isinstance(M, DiagonalMatrix):
        # each DST-I mode marches alone, and one whose U^0 is 0 stays exactly 0
        keep = np.flatnonzero(v)
        M, S = DiagonalMatrix(M.eigenvalues[keep]), DiagonalMatrix(S.eigenvalues[keep])
    solver = SpdFactorization(M.scaled_sum(c[0] / tau, S, diag))
    # the history enters as S applied to the weighted sum with weights
    # frac w_k, reversed so that every run of them a product needs is a
    # contiguous slice: wr[N-k] = frac w_k for k >= 1.  wr[N] = 1 is the
    # weight of a step's own row, which holds its far history.
    wr = (frac * w)[::-1].copy()
    wr[N] = 1.0
    # theta[n]: weight of U^0 in the history of step n
    if cfg.scheme == "sbd":
        theta = frac * np.concatenate(([0.0], 0.5 * w[:-1]))
        # corrected first step: half-weighted initial stiffness term 0.5 diag S U^0
        theta[1] = 0.5 * diag
    else:
        theta = np.zeros(N + 1)
    # weights of U^{n-d}..U^{n-1} in the mass term: minus the multistep part
    past = -np.array(c[:0:-1]) / tau
    d = len(past)

    # rows 1..N start at zero: each holds its far history until it is solved
    X = np.zeros((N + 1, keep.size))
    X[0] = v[keep]
    for s in range(1, N + 1, _BLOCK):
        e = min(s + _BLOCK, N + 1)
        _add_far_history(X, wr, theta, s, e)
        for n in range(s, e):
            if n < d:  # SBD's corrected first step: c_0 M U^0 / tau
                rhs = M @ ((c[0] / tau) * X[0])
            else:
                rhs = M @ (past @ X[n - d : n])
            # far history plus the near part frac w_{n-s}..frac w_1 on U^s..U^{n-1}
            rhs -= S @ (wr[N - n + s :] @ X[s : n + 1])
            try:
                X[n] = solver.solve(rhs)
            except Exception as exc:  # propagate with the failing step index
                raise StepFailure(n, exc) from exc
    if keep.size == space.n_coords:
        return X
    # column-major, so each mode's trajectory is contiguous and the scatter
    # never touches the zero pages of the other columns
    U = np.zeros((N + 1, space.n_coords), order="F")
    U[:, keep] = X
    return U


# steps per block, the rows of each far-history product: with few dofs,
# products of 32 rows ran at two thirds of the rate of 64
_BLOCK = 64
# entries of each temporary of a far-history product: a chunk of T, and the
# product of that chunk with a column block of the snapshots
_PRODUCT_ENTRIES = 1 << 15


def _add_far_history(U: np.ndarray, wr: np.ndarray, theta: np.ndarray, s: int, e: int) -> None:
    """U[n] += theta_n U^0 + sum_{1 <= j < s} w_{n-j} U^j for every n in [s, e).

    wr holds the weights reversed, wr[N-k] = w_k, so the rows of the
    Toeplitz block T[i, j] = w_{s+i-j} are the overlapping runs
    wr[N-s-i : N-i]; a chunk of its columns is one contiguous copy.
    """
    # the first block's history is the one column theta_1..theta_{e-1}, zero
    # for BE
    if s == 1 and not np.any(theta[1:e]):
        return
    N = len(wr) - 1
    chunk = max(1, _PRODUCT_ENTRIES // (e - s))
    for j0 in range(0, s, chunk):
        j1 = min(j0 + chunk, s)
        # T[i, j - j0] = w_{s+i-j}: row i is wr[N-s-i+j0 : N-s-i+j1]
        T = sliding_window_view(wr[N - e + 1 + j0 : N - s + j1], j1 - j0)[::-1].copy()
        if j0 == 0:
            T[:, 0] = theta[s:e]
        for c0 in range(0, U.shape[1], chunk):
            U[s:e, c0 : c0 + chunk] += T @ U[j0:j1, c0 : c0 + chunk]
