"""Fully discrete time stepping: one multistep stepper with convolution
quadrature for the fractional term, for backward Euler and the corrected
second-order backward difference scheme (SBD).

With c_k the coefficients of the scheme's generating polynomial delta
(`cq.DELTA`) and w_j the CQ weights of (delta(xi)/tau)^alpha at tau = 1,
step n solves one constant SPD system,

    (c_0 M/tau + (1 + gamma tau^-a w_0) S) U^n
        = -(M/tau) sum_{k>=1} c_k U^{n-k}
          - gamma tau^-a S (sum_{j=1}^{n-1} w_{n-j} U^j + theta_n U^0),

with theta_n = w_n for BE with `include_history_origin`, w_{n-1}/2 for
SBD and 0 otherwise.  The history is S applied to the weighted sum of the
stored states, so one (N+1) x dof array is kept, and `run_scheme` returns
that plain array, the snapshots U^0..U^N.  SBD's first step is the
corrected start (weight 3/2 on the startup sequence and a half-weighted
initial stiffness term) that restores second-order accuracy for
nonvanishing initial data.

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
solve is one division.  On the square the coordinates are the scaled
spectrum of the zero-extended torus array: M and S multiply by their torus
symbols, whose products leak onto the torus boundary, and the
capacitance-matrix solve, which the leak does not change, takes and returns
spectra.  So a 2D step makes no 2D FFT.  The snapshots hold n_coords
entries per state, 2K(K//2 + 1) on the square for (K-1)^2 dofs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cq import DELTA, weights
from .fem import FemSpace
from .linalg import SpdFactorization

__all__ = ["SchemeConfig", "run_scheme"]


@dataclass(frozen=True)
class SchemeConfig:
    """Time-discretization parameters.

    include_history_origin keeps the j=0 term of the BE fractional history
    (the convolution written out literally); the default omits it, which is
    the first-order-accurate startup -- keeping the term degrades the
    temporal rate to about 1/2.  The SBD scheme has its own corrected
    startup and ignores the flag.
    """

    scheme: str
    alpha: float
    gamma: float
    tau: float
    n_steps: int
    include_history_origin: bool = False

    def __post_init__(self):
        if self.scheme not in ("be", "sbd"):
            raise ValueError(f"scheme must be 'be' or 'sbd', got {self.scheme!r}")
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
    the projections of `rstokes.fem` return them.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n_coords,):
        raise ValueError(f"initial vector must have {space.n_coords} entries")
    N, tau = cfg.n_steps, cfg.tau
    c = DELTA[cfg.scheme]
    w = weights(cfg.scheme, cfg.alpha, N)
    frac = cfg.gamma * tau ** (-cfg.alpha)
    diag = 1.0 + frac * w[0]
    solver = SpdFactorization(space.M.scaled_sum(c[0] / tau, space.S, diag))
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
        theta = frac * w if cfg.include_history_origin else np.zeros(N + 1)
    # weights of U^{n-d}..U^{n-1} in the mass term: minus the multistep part
    past = -np.array(c[:0:-1]) / tau
    d = len(past)

    # rows 1..N start at zero: each holds its far history until it is solved
    U = np.zeros((N + 1, space.n_coords))
    U[0] = v
    for s in range(1, N + 1, _BLOCK):
        e = min(s + _BLOCK, N + 1)
        _add_far_history(U, wr, theta, s, e)
        for n in range(s, e):
            if n < d:  # SBD's corrected first step: c_0 M U^0 / tau
                rhs = space.M @ ((c[0] / tau) * U[0])
            else:
                rhs = space.M @ (past @ U[n - d : n])
            # far history plus the near part frac w_{n-s}..frac w_1 on U^s..U^{n-1}
            rhs -= space.S @ (wr[N - n + s :] @ U[s : n + 1])
            try:
                U[n] = solver.solve(rhs)
            except Exception as exc:  # propagate with the failing step index
                raise StepFailure(n, exc) from exc
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
    # for BE without the history origin
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
