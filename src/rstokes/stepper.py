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

One stepper serves both dimensions: the system matrix is set up once per
run by `SpdFactorization` (two exact sine transforms per solve in 1D, a
sparse LU in 2D), and products with M and S go through the matrices' `@`.
"""

from __future__ import annotations

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
        if self.gamma <= 0.0 or self.tau <= 0.0:
            raise ValueError("gamma and tau must be positive")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")


@dataclass(frozen=True)
class DiscreteTrajectory:
    """Snapshots U^0..U^N of interior coefficients."""

    config: SchemeConfig
    snapshots: np.ndarray      # (N+1, n_dof)

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    def times(self) -> np.ndarray:
        return self.config.tau * np.arange(self.config.n_steps + 1)


class StepFailure(RuntimeError):
    def __init__(self, step: int, cause: Exception):
        super().__init__(f"time step {step} failed: {cause}")
        self.step = step


def run_scheme(space: FemSpace, cfg: SchemeConfig, v: np.ndarray) -> DiscreteTrajectory:
    """March U^0 = v through cfg.n_steps steps of the configured scheme."""
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

    U = np.empty((N + 1, space.n_dof))
    U[0] = v
    for n in range(1, N + 1):
        if cfg.scheme == "sbd" and n == 1:
            # corrected first step: half-weighted initial stiffness term
            rhs = (c[0] / tau) * (space.M @ U[0]) - 0.5 * diag * (space.S @ U[0])
        else:
            past = sum(c[k] * U[n - k] for k in range(1, len(c)))
            rhs = -(space.M @ past) / tau
            rhs -= frac * (space.S @ (w[n - 1 : 0 : -1] @ U[1:n] + theta[n] * U[0]))
        try:
            U[n] = solver.solve(rhs)
        except Exception as exc:  # propagate with the failing step index
            raise StepFailure(n, exc) from exc
    return DiscreteTrajectory(config=cfg, snapshots=U)

