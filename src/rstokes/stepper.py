"""Fully discrete time stepping: backward Euler and corrected second-order
backward difference schemes with convolution quadrature for the fractional term.

Both schemes solve one constant SPD system per step,

    BE :  (M/tau + (1 + gamma tau^-a w0) S) U^n = M U^{n-1}/tau - history + F^n
    SBD:  (3M/(2tau) + (1 + gamma tau^-a w0) S) U^n = BDF2 terms - history + F^n,

where the history is S applied to the CQ-weighted sum of the stored states
U^j, so one (N+1) x dof array is kept.  The SBD scheme applies the corrected
first step (weight 3/2 on the startup sequence and half-weighted initial
terms) that restores second-order accuracy for nonvanishing initial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cq import weights
from .fem import FemSpace
from .linalg import SpdFactorization

__all__ = [
    "SchemeConfig",
    "DiscreteTrajectory",
    "step_be",
    "step_sbd",
    "run_scheme",
    "scalar_trajectory_be",
    "scalar_trajectory_sbd",
]


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


def _forcing(f, t: float, n_dof: int) -> np.ndarray:
    if f is None:
        return np.zeros(n_dof)
    out = np.asarray(f(t), dtype=float)
    if out.shape != (n_dof,):
        raise ValueError(f"forcing must return {n_dof} interior load entries")
    return out


def step_be(space: FemSpace, cfg: SchemeConfig, v: np.ndarray, f=None) -> DiscreteTrajectory:
    """Backward Euler in time with BE-generated fractional weights."""
    if cfg.scheme != "be":
        raise ValueError("config requests a different scheme")
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n_dof,):
        raise ValueError(f"initial vector must have {space.n_dof} entries")
    N = cfg.n_steps
    w = weights("be", cfg.alpha, 1.0, N)
    frac = cfg.gamma * cfg.tau ** (-cfg.alpha)
    system = space.M.scaled_sum(1.0 / cfg.tau, space.S, 1.0 + frac * w[0])
    solver = SpdFactorization(system)
    Mcsr = space.M.tocsr()
    Scsr = space.S.tocsr()

    U = np.empty((N + 1, space.n_dof))
    U[0] = v
    j0 = 0 if cfg.include_history_origin else 1
    for n in range(1, N + 1):
        rhs = (Mcsr @ U[n - 1]) / cfg.tau + _forcing(f, n * cfg.tau, space.n_dof)
        if n - 1 >= j0:
            rhs -= frac * (Scsr @ (w[n - j0 : 0 : -1] @ U[j0:n]))
        try:
            U[n] = solver.solve(rhs)
        except Exception as exc:  # propagate with the failing step index
            raise StepFailure(n, exc) from exc
    return DiscreteTrajectory(config=cfg, snapshots=U)


def step_sbd(space: FemSpace, cfg: SchemeConfig, v: np.ndarray, f=None) -> DiscreteTrajectory:
    """Corrected second-order backward difference scheme."""
    if cfg.scheme != "sbd":
        raise ValueError("config requests a different scheme")
    v = np.asarray(v, dtype=float)
    if v.shape != (space.n_dof,):
        raise ValueError(f"initial vector must have {space.n_dof} entries")
    N = cfg.n_steps
    tau = cfg.tau
    w = weights("sbd", cfg.alpha, 1.0, N)
    frac = cfg.gamma * tau ** (-cfg.alpha)
    system = space.M.scaled_sum(1.5 / tau, space.S, 1.0 + frac * w[0])
    solver = SpdFactorization(system)
    Mcsr = space.M.tocsr()
    Scsr = space.S.tocsr()

    U = np.empty((N + 1, space.n_dof))
    U[0] = v

    # corrected first step: half-weighted initial stiffness and forcing terms
    rhs = (1.5 / tau) * (Mcsr @ U[0]) - 0.5 * (1.0 + frac * w[0]) * (Scsr @ U[0])
    rhs += _forcing(f, tau, space.n_dof) + 0.5 * _forcing(f, 0.0, space.n_dof)
    try:
        U[1] = solver.solve(rhs)
    except Exception as exc:
        raise StepFailure(1, exc) from exc

    for n in range(2, N + 1):
        rhs = (Mcsr @ (4.0 * U[n - 1] - U[n - 2])) / (2.0 * tau)
        rhs -= frac * (Scsr @ (w[n - 1 : 0 : -1] @ U[1:n] + 0.5 * w[n - 1] * U[0]))
        rhs += _forcing(f, n * tau, space.n_dof)
        try:
            U[n] = solver.solve(rhs)
        except Exception as exc:
            raise StepFailure(n, exc) from exc
    return DiscreteTrajectory(config=cfg, snapshots=U)


def run_scheme(space: FemSpace, cfg: SchemeConfig, v: np.ndarray, f=None) -> DiscreteTrajectory:
    return (step_be if cfg.scheme == "be" else step_sbd)(space, cfg, v, f)


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
    w = weights("be", alpha, 1.0, n_steps)
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
    w = weights("sbd", alpha, 1.0, n_steps)
    frac = gamma * tau ** (-alpha)
    u = np.empty(n_steps + 1)
    u[0] = u0
    denom = 1.5 / tau + (1.0 + frac * w[0]) * lam
    u[1] = (1.5 / tau - 0.5 * (1.0 + frac * w[0]) * lam) * u0 / denom
    for n in range(2, n_steps + 1):
        hist = float(w[n - 1 : 0 : -1] @ u[1:n]) + 0.5 * w[n - 1] * u0
        u[n] = ((4.0 * u[n - 1] - u[n - 2]) / (2.0 * tau) - frac * lam * hist) / denom
    return u
