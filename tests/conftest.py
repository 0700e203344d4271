import numpy as np
import pytest

from rstokes.oracle import _inverse_laplacian


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


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
    matrix holds at most max(2**14, J) entries.  For any finite x the sine
    series gives the odd, 2-periodic extension; a split expansion adds the same
    closed-form beta1(t) w as the fast path.
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
