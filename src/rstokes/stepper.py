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
stored states, so one (N+1) x dof array is kept.  SBD's first step is the
corrected start (weight 3/2 on the startup sequence and a half-weighted
initial stiffness term) that restores second-order accuracy for
nonvanishing initial data.

The weighted sum is split by the blocked FFT convolution of Hairer, Lubich
and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985).  The steps 1..N are
halved recursively: the left half is solved first, its part of the sum for
every step of the right half is added by one real-FFT convolution, and then
the right half is solved.  That far part is accumulated in the right half's
own, not yet solved, rows of the snapshot array.  Blocks of at most
`_DIRECT_BLOCK` steps sum their near part directly, one BLAS product per
step.  So a run of at most that many steps sums directly, though in another
order than the plain march of the tests (`direct_run_scheme`), and a longer
one costs O(N log^2 N dof) instead of O(N^2 dof).  Steps are still solved
one at a time in order 1..N.

The stepper works in the coordinates of its space (`FemSpace.change_basis`)
and never changes them: v and the snapshots are in those coordinates, and M,
S and the system act in them.  The system matrix is set up once per run by
`SpdFactorization`: on the interval the space's DST-I coordinates make it
diagonal, and a solve is one division; on the square it is the
capacitance-matrix solve on the periodic grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cq import DELTA, weights
from .fem import FemSpace
from .linalg import SpdFactorization

__all__ = ["SchemeConfig", "DiscreteTrajectory", "run_scheme"]


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


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Snapshots U^0..U^N of interior coefficients, in the space's coordinates."""

    config: SchemeConfig
    snapshots: np.ndarray      # (N+1, n_dof)

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


class StepFailure(RuntimeError):
    def __init__(self, step: int, cause: Exception):
        super().__init__(f"time step {step} failed: {cause}")
        self.step = step


def run_scheme(space: FemSpace, cfg: SchemeConfig, v: np.ndarray) -> DiscreteTrajectory:
    """March U^0 = v through cfg.n_steps steps of the configured scheme.

    v and the returned snapshots are in the coordinates of `space`
    (`FemSpace.change_basis`), as the projections of `rstokes.fem` return them.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n_dof,):
        raise ValueError(f"initial vector must have {space.n_dof} entries")
    N, tau = cfg.n_steps, cfg.tau
    c = DELTA[cfg.scheme]
    w = weights(cfg.scheme, cfg.alpha, N)
    frac = cfg.gamma * tau ** (-cfg.alpha)
    diag = 1.0 + frac * w[0]
    solver = SpdFactorization(space.M.scaled_sum(c[0] / tau, space.S, diag))
    # theta[n]: weight of U^0 in the history of step n
    if cfg.scheme == "sbd":
        theta = np.concatenate(([0.0], 0.5 * w[:-1]))
    else:
        theta = w if cfg.include_history_origin else np.zeros(N + 1)
    mass = lambda x: (space.M @ x) / tau
    stiffness = lambda x: frac * (space.S @ x)

    def step(n: int, history: np.ndarray) -> np.ndarray:
        # history: sum_{j=1}^{n-1} w_{n-j} U^j
        if cfg.scheme == "sbd" and n == 1:
            # corrected first step: half-weighted initial stiffness term
            # 0.5 diag S U^0, where stiffness(x) is frac S x
            rhs = c[0] * mass(U[0]) - (0.5 * diag / frac) * stiffness(U[0])
        else:
            # minus the multistep part sum_{k>=1} c_k U^{n-k}
            past = -c[1] * U[n - 1]
            for k in range(2, len(c)):
                past -= c[k] * U[n - k]
            if theta[n]:
                history = history + theta[n] * U[0]
            rhs = mass(past)
            rhs -= stiffness(history)
        try:
            return solver.solve(rhs)
        except Exception as exc:  # propagate with the failing step index
            raise StepFailure(n, exc) from exc

    # rows 1..N start at zero: each holds the far history until it is solved
    U = np.zeros((N + 1, space.n_dof))
    U[0] = v
    _solve_steps(step, U, w, 1, N + 1)
    return DiscreteTrajectory(config=cfg, snapshots=U)


# steps per block whose history is summed directly
_DIRECT_BLOCK = 128
# bytes of one column block of an FFT convolution's spectrum
_FFT_BLOCK_BYTES = 1 << 17


def _solve_steps(step, U: np.ndarray, w: np.ndarray, lo: int, hi: int) -> None:
    """Solve steps lo..hi-1 in order, U[n] = step(n, history of step n).

    On entry U[lo:hi] holds the history of those steps from U^1..U^{lo-1}.
    A module-level function, not a nested one, so that the recursion forms
    no reference cycle that would keep U alive after the run.
    """
    if hi - lo <= _DIRECT_BLOCK:
        # w_{hi-lo-1}..w_1, copied once: numpy's matmul skips BLAS for a
        # negative-stride operand such as w[n-lo:0:-1]
        rev = w[hi - lo - 1 : 0 : -1].copy()
        for n in range(lo, hi):
            U[n] = step(n, U[n] + rev[hi - n - 1 :] @ U[lo:n])
        return
    mid = (lo + hi) // 2
    _solve_steps(step, U, w, lo, mid)
    _add_history(U, w, lo, mid, hi)
    _solve_steps(step, U, w, mid, hi)


def _add_history(U: np.ndarray, w: np.ndarray, lo: int, mid: int, hi: int) -> None:
    """U[n] += sum_{lo <= j < mid} w_{n-j} U^j for every n in [mid, hi).

    One circular convolution of length P >= hi - lo per column block.  The
    lags n - j of the kept rows lie in 1..hi-lo-1, so the wrap-around lands
    only in discarded rows.  The spectrum of w[:hi-lo] is one short FFT per
    call, negligible beside the dof columns, so it is not cached.
    """
    size = hi - lo
    P = 1 << (size - 1).bit_length()
    kernel = np.fft.rfft(w[:size], P)[:, None]
    cols = max(1, _FFT_BLOCK_BYTES // kernel.nbytes)
    for c0 in range(0, U.shape[1], cols):
        spectrum = np.fft.rfft(U[lo:mid, c0 : c0 + cols], P, axis=0)
        spectrum *= kernel
        U[mid:hi, c0 : c0 + cols] += np.fft.irfft(spectrum, P, axis=0)[mid - lo : size]
