"""Convolution-quadrature weights for fractional powers of multistep symbols.

The weights {w_j} are the power-series coefficients of delta(xi)^mu, where
delta is the generating polynomial of the backward Euler method (1 - xi) or
of the second-order backward difference method
(1 - xi) + (1 - xi)^2/2 = 3/2 - 2 xi + xi^2/2.  A discrete convolution with
the weights times tau^-mu approximates the fractional derivative/integral of
order mu at step size tau.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["DELTA", "weights"]

# coefficients c_0, c_1, ... of delta(xi)
DELTA = {
    "be": (1.0, -1.0),
    "sbd": (1.5, -2.0, 0.5),
}


@functools.lru_cache(maxsize=64, typed=True)
def weights(scheme: str, mu: float, N: int) -> np.ndarray:
    """Weights w_0..w_N with sum_j w_j xi^j = delta(xi)^mu, read-only.

    The step size enters as the factor tau^-mu, which the caller applies.
    Results are memoized per (scheme, mu, N): a spatial study asks for the
    same weights once per mesh.

    J.C.P. Miller's recurrence for a power of a polynomial:
    a_0 = c_0^mu, a_n = (1/(n c_0)) sum_{k=1}^{min(n, deg)} (k(mu+1) - n) c_k a_{n-k};
    for backward Euler it is the binomial recurrence.
    """
    if scheme not in DELTA:
        raise ValueError(f"unknown scheme {scheme!r}; expected 'be' or 'sbd'")
    if N < 0:
        raise ValueError(f"weight count must be nonnegative, got N={N}")
    c = DELTA[scheme]
    a = np.empty(N + 1)
    a[0] = c[0] ** mu
    for n in range(1, N + 1):
        acc = 0.0
        for k in range(1, min(n, len(c) - 1) + 1):
            acc += (k * (mu + 1.0) - n) * c[k] * a[n - k]
        a[n] = acc / (n * c[0])
    if not np.all(np.isfinite(a)):
        raise ValueError("weight recurrence produced non-finite values")
    a.flags.writeable = False
    return a
