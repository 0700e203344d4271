"""Exact-solution engine for the homogeneous Rayleigh-Stokes problem.

The solution with initial datum v is the eigenfunction expansion

    u(x,t) = sum_j (v, phi_j) u_j(t) phi_j(x),

where (lam_j, phi_j) are Dirichlet eigenpairs of -Laplace and the modal time
factor solves  u_j' + lam_j (1 + gamma d_t^alpha) u_j = 0, u_j(0) = 1.  Its
Laplace transform 1/(z + gamma lam z^alpha + lam) is inverted for all modes at
once by one fixed contour rule (`_bromwich`).  On the interval every reference
is split (`ModalSolution`), and one rule truncates in both dimensions:
`build_modal_solution` keeps the fewest modes whose dropped part has a
certified sup-norm bound below tol at the smallest observation time, and
records it as `ModalSolution.tail_bound`.  The independent references this
module is tested against (branch-cut density, Talbot rule, sector probe) live
with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # real import would be circular; fem only needs this module lazily
    from .fem import InitialDatum

__all__ = [
    "ModeSet",
    "ModalSolution",
    "eigenbasis",
    "datum_coefficients",
    "build_modal_solution",
]

_CONTOUR_NODES = 32
_BROMWICH_BLOCK = 1024      # eigenvalues per block of the contour rule
_MODE_CAP = 10_000          # modes (1D) or mode pairs (2D) of any reference
_TAYLOR_TERMS = 18          # shift terms of eval_points: (pi/4)^18/18! e^(pi/4) < 1e-17


# ---------------------------------------------------------------------------
# eigenbasis and datum coefficients

@dataclass(frozen=True)
class ModeSet:
    """Dirichlet eigenpairs of -Laplace, sorted by ascending eigenvalue.

    On the interval phi_j = sqrt(2) sin(j pi x); on the square
    phi_jk = 2 sin(j pi x) sin(k pi y).  jx holds j, jy holds k (zeros in 1D).
    """

    domain: str
    jx: np.ndarray
    jy: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.lam.shape[0]


def eigenbasis(domain: str, J: int) -> ModeSet:
    if J < 1:
        raise ValueError(f"need at least one mode, got J={J}")
    if domain == "interval":
        j = np.arange(1, J + 1)
        return ModeSet(domain, j, np.zeros_like(j), (j * np.pi) ** 2)
    if domain == "square":
        side = int(np.ceil(np.sqrt(4.0 * J / np.pi))) + 8
        j, k = np.meshgrid(np.arange(1, side + 1), np.arange(1, side + 1), indexing="ij")
        j = j.ravel()
        k = k.ravel()
        lam = (j.astype(float) ** 2 + k.astype(float) ** 2) * np.pi**2
        order = np.lexsort((k, j, lam))[:J]
        return ModeSet(domain, j[order], k[order], lam[order])
    raise ValueError(f"unknown domain {domain!r}")


def datum_coefficients(v: "InitialDatum", modes: ModeSet) -> np.ndarray:
    """Closed-form expansion coefficients (v, phi_j) for the supported data."""
    if v.dim != (2 if modes.domain == "square" else 1):
        raise ValueError(f"{v.kind} datum is {v.dim}D; modes live on the {modes.domain}")
    j = modes.jx.astype(float)
    if v.kind == "smooth_sine":
        c = np.zeros(len(modes))
        c[modes.jx == v.frequency] = 1.0 / math.sqrt(2.0)
        return c
    if v.kind == "dirac":
        return math.sqrt(2.0) * np.sin(j * np.pi * v.location)
    cx = math.sqrt(2.0) * (1.0 - np.cos(j * np.pi * v.location)) / (j * np.pi)
    if v.kind == "step":
        return cx
    k = modes.jy.astype(float)  # step2d: the x-step times the indicator of (0, 1) in y
    cy = math.sqrt(2.0) * (1.0 - np.cos(k * np.pi)) / (k * np.pi)
    return cx * cy


# ---------------------------------------------------------------------------
# modal time factor u_j(t): the Bromwich contour rule

def _bromwich(lams: np.ndarray, t: float, gamma: float, alpha: float, variant: str = "plain") -> np.ndarray:
    """Inverse Laplace transform at time t, vectorized over eigenvalues.

    Trapezoid rule on the parabolic Bromwich contour z = mu (1 + iu)^2 of
    Weideman & Trefethen (Math. Comp. 76, 2007): nodes u_k = k h, k = 0..n,
    with a half weight at u = 0 and twice the real part by conjugate symmetry,
    n = 32, h = 3/n, mu = pi n / (12 t).  The branch cut maps to Im u = +-1 and
    |exp(zt)| < 1e-29 at u = 3, so roundoff, amplified by exp(mu t) ~ 4e3,
    sets the accuracy ceiling (about 3e-13 absolute on u_j); a larger n raises
    that amplification.

    variant 'plain' inverts 1/(z + lam (1 + gamma z^alpha)); 'limit' inverts
    1/(1 + gamma z^alpha) (lams is ignored, one value returned); 'residual'
    inverts the split remainder plain - limit/lam, written without
    cancellation as -z / (lam (1 + gamma z^alpha) (z + lam (1 + gamma z^alpha))).

    The eigenvalues go through in blocks of _BROMWICH_BLOCK = 1024, so two
    complex (n + 1) x 1024 arrays (0.54 MB each) are live at a time whatever
    their count; only the real result grows with it (8 bytes per eigenvalue).
    A block forms the same node-weight products w @ symbol as one product
    over all eigenvalues.  OpenBLAS sums a column in another order when a
    thread split or a block end leaves it in a kernel's remainder group, so
    the last bit can differ from the one-shot product; at 10^4 eigenvalues
    on 1 or 2 threads every split falls on a multiple of 4 and none does.
    """
    n = _CONTOUR_NODES
    h = 3.0 / n
    mu = math.pi * n / (12.0 * t)
    iu = 1j * h * np.arange(n + 1)
    z = mu * (1.0 + iu) ** 2
    # dz / (2 pi i) = (mu / pi) (1 + iu) du, doubled by the real part
    w = (2.0 * h * mu / math.pi) * np.exp(z * t) * (1.0 + iu)
    w[0] *= 0.5
    q = 1.0 + gamma * z**alpha
    if variant == "limit":
        return np.atleast_1d((w @ (1.0 / q)).real)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    out = np.empty(lams.shape)
    for lo in range(0, lams.size, _BROMWICH_BLOCK):
        out[lo : lo + _BROMWICH_BLOCK] = _contour_block(w, z, q, lams[None, lo : lo + _BROMWICH_BLOCK], variant).real
    return out


def _contour_block(w: np.ndarray, z: np.ndarray, q: np.ndarray, lam: np.ndarray, variant: str) -> np.ndarray:
    """w @ symbol for one (1, m) block of eigenvalues; the symbol overwrites its denominator."""
    lq = lam * q[:, None]
    den = z[:, None] + lq
    if variant == "plain":
        return w @ np.divide(1.0, den, out=den)
    return w @ np.divide(-z[:, None], np.multiply(lq, den, out=den), out=den)


# ---------------------------------------------------------------------------
# assembled modal solutions

def _residual_bound_coef(alpha: float, gamma: float, t: float) -> float:
    """C(t) with |rho_j(t)| <= C(t) / lam_j^2 for every mode; C decreases in t.

    On the cut z = -r, with q = 1 + gamma z^alpha and s = sin(alpha pi),
    |q| >= gamma r^alpha s and |z + lam q| >= lam gamma r^alpha s (imaginary
    parts), so the residual symbol -z / (lam q (z + lam q)) gives
    |rho_j(t)| <= int_0^infty exp(-rt) r^(1-2 alpha) dr / (pi gamma^2 s^2 lam_j^2)."""
    s = math.sin(alpha * math.pi)
    return math.gamma(2.0 - 2.0 * alpha) * t ** (2.0 * alpha - 2.0) / (math.pi * gamma**2 * s**2)


# |c_j| <= A j^-p for every j past the mode cap, as (A, p) per 1D datum kind
# (a sine datum of frequency up to the cap has no coefficient there)
_ENVELOPE = {"smooth_sine": (0.0, 0.0), "step": (2.0 * math.sqrt(2.0) / math.pi, 1.0), "dirac": (math.sqrt(2.0), 0.0)}


def _inverse_laplacian(v: "InitialDatum", x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w = (-d^2/dx^2)^-1 v with w(0) = w(1) = 0, and w', in closed form on [0, 1].

    w is sum_j c_j phi_j / lam_j."""
    a = v.location
    left = x <= a
    if v.kind == "smooth_sine":
        k = v.frequency * np.pi
        w, dw = np.sin(k * x) / k**2, np.cos(k * x) / k
    elif v.kind == "step":  # -w'' = 1 on (0, a), 0 on (a, 1)
        w = np.where(left, x * (a - 0.5 * a * a) - 0.5 * x * x, 0.5 * a * a * (1.0 - x))
        dw = np.where(left, a - 0.5 * a * a - x, -0.5 * a * a)
    else:  # dirac: the Green's function with pole a
        w = np.where(left, x * (1.0 - a), a * (1.0 - x))
        dw = np.where(left, 1.0 - a, -a)
    return w, dw


@dataclass
class ModalSolution:
    """Truncated eigenfunction expansion of the exact solution.

    With `datum` set (every 1D reference) u_j = beta1(t)/lam_j + rho_j(t): the
    beta1 part sums over all modes to beta1(t) w, w = (-Laplace)^-1 v in closed
    form (`_inverse_laplacian`), and `coeffs` pair with rho_j = O(lam_j^-2).
    beta1 carries up to 8e-11 relative roundoff (alpha = 0.05; 3e-11 at 0.1,
    1.5e-12 at 0.5), so the split adds an absolute floor of that error times
    beta1(t) sup|w|, which `tail_bound` does not count.  For the step at
    alpha = 0.1 (sup|w| = 9/128, at x = 3/8), the rule's beta1 differs from
    its series summed in 50-digit mpmath by 4.0e-12 relative at t = 1e-8
    (beta1 = 1.228e6) and 1.85e-11 at t = 1e-6 (1.660e4): floors of 3.5e-7
    and 2.2e-8.  With `datum` None (2D, or coefficients built by hand)
    `coeffs` pair with the plain factors u_j.

    `tail_bound` bounds the sup norm of the dropped modes at every t >= t_min
    (0.0 when nothing is dropped).
    """

    alpha: float
    gamma: float
    modes: ModeSet
    coeffs: np.ndarray
    datum: InitialDatum | None = None
    tail_bound: float = 0.0
    _factors: dict[float, np.ndarray] = field(default_factory=dict, repr=False)
    _amplitudes: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)
    _grid_sides: dict[str, tuple[tuple, tuple[np.ndarray, ...]]] = field(default_factory=dict, repr=False)

    # -- time factors ------------------------------------------------------
    def factors(self, t: float) -> np.ndarray:
        """Per mode: rho_j(t) for a split expansion, u_j(t) otherwise."""
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"time must be positive and finite, got t={t}")
        cached = self._factors.get(t)
        if cached is None:
            variant = "residual" if self.datum is not None else "plain"
            cached = _bromwich(self.modes.lam, t, self.gamma, self.alpha, variant)
            self._factors[t] = cached
        return cached

    def beta1(self, t: float) -> float:
        """Split amplitude: inverse transform of 1/(1 + gamma z^alpha)."""
        if not (math.isfinite(t) and t > 0.0):
            raise ValueError(f"time must be positive and finite, got t={t}")
        return float(_bromwich(None, t, self.gamma, self.alpha, "limit")[0])

    # -- evaluation --------------------------------------------------------
    def eval_points(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives on the interval at the given points.

        Taylor-shifted FFT (Anderson & Dahleh, SIAM J. Sci. Comput. 17, 1996):
        with J the highest frequency, L the power of two >= 2J, m = rint(xL)
        and d = pi (xL - m), so that |j d / L| <= pi/4,

            sum_j a_j exp(i pi j x) = sum_s (d^s / s!) G_s[m],
            G_s[m] = sum_j a_j (ij/L)^s exp(i pi j m / L),

        and each G_s is one length-2L inverse FFT, read at m in [0, L].
        Values keep s < S and derivatives,
        pi L times the same sum over G_{s+1}, keep s < S as well, with
        S = _TAYLOR_TERMS = 18: the dropped terms are below
        (pi/4)^S / S! e^(pi/4) < 1e-17 times sum_j |a_j| (times sum_j |a_j| j pi
        for derivatives).  Work is S (P + 2L log 2L) and memory O(L + P).  A
        point outside [0, 1], nan or inf raises."""
        if self.modes.domain != "interval":
            raise ValueError("eval_points applies to interval solutions")
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValueError("evaluation points must be finite and lie in [0, 1]")
        a = self.coeffs * self.factors(t)
        L = 1 << (2 * self.max_frequency[0] - 1).bit_length()
        m = np.rint(x * L)
        d = np.pi * (x * L - m)
        m = m.astype(np.intp)
        b = np.zeros(2 * L, dtype=complex)
        b[self.modes.jx] = (2 * L) * a
        step = 1j * np.arange(2 * L) / L
        vals = np.zeros_like(x)
        grads = np.zeros_like(x)
        power = np.ones_like(x)  # d^s / s! where the values take G_s
        for s in range(_TAYLOR_TERMS + 1):
            G = np.fft.ifft(b).imag[m]
            if s > 0:
                grads += power * G
                power *= d / s
            if s < _TAYLOR_TERMS:
                vals += power * G
            b *= step
        vals *= math.sqrt(2.0)
        grads *= math.sqrt(2.0) * np.pi * L
        if self.datum is not None:
            b1 = self.beta1(t)
            w, dw = _inverse_laplacian(self.datum, x)
            vals += b1 * w
            grads += b1 * dw
        return vals, grads

    def eval_grid(self, xs: np.ndarray, ys: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values, d/dx and d/dy on the tensor grid ys x xs (shape ny, nx).

        x- and y-frequencies whose amplitudes are all exactly zero are left
        out of the products: they would add exact zeros to every entry.
        The factors of each side are kept for the points and the time of the
        last call (`_grid_side`): the 2D error pass makes several calls in a
        row with the same outer points.
        """
        if self.modes.domain != "square":
            raise ValueError("eval_grid applies to square solutions")
        ASX, ACX = self._grid_side("x", xs, t)
        SY, CY = self._grid_side("y", ys, t)
        vals = SY @ ASX
        gx = SY @ ACX
        gy = CY @ ASX
        return vals, gx, gy

    def _grid_side(self, axis: str, points: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
        """The factors of `eval_grid` along one axis, formed once for a run of
        calls with the same points and time: the amplitude products
        (A^T S_x, A^T C_x) for x, (S_y, C_y) for y, with S and C the sines and
        the scaled cosines of the kept frequencies at the points."""
        points = np.asarray(points, dtype=float)
        key = (t, points.tobytes())
        cached = self._grid_sides.get(axis)
        if cached is not None and cached[0] == key:
            return cached[1]
        A, rx, ry = self._grid_amplitudes(t)
        Jx, Jy = self.max_frequency
        if axis == "x":
            EX = _phase_table(Jx, points)[rx]          # (kept Jx, nx)
            SX = 2.0 * EX.imag                          # carries the phi normalization
            CX = 2.0 * EX.real * ((rx + 1) * np.pi)[:, None]
            side = (A.T @ SX, A.T @ CX)
        else:
            EY = _phase_table(Jy, points)[ry].T        # (ny, kept Jy)
            side = (EY.imag, EY.real * ((ry + 1) * np.pi)[None, :])
        self._grid_sides[axis] = (key, side)
        return side

    def _grid_amplitudes(self, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Amplitudes c_jk u_jk(t) of `eval_grid` as a (kept x, kept y)
        frequency matrix, with the frequency - 1 of its rows and columns;
        formed once per t, as a pass makes many calls at one time."""
        cached = self._amplitudes.get(t)
        if cached is None:
            Jx, Jy = self.max_frequency
            A = np.zeros((Jx, Jy))
            A[self.modes.jx - 1, self.modes.jy - 1] = self.coeffs * self.factors(t)
            rx = np.flatnonzero(A.any(axis=1))
            ry = np.flatnonzero(A.any(axis=0))
            cached = self._amplitudes[t] = (A[np.ix_(rx, ry)], rx, ry)
        return cached

    @property
    def max_frequency(self) -> tuple[int, int]:
        return int(self.modes.jx.max()), int(self.modes.jy.max(initial=0))

    def singular_breaks(self) -> list[float]:
        """Interior points where the closed-form part beta1 w is not smooth (quadrature splits)."""
        if self.datum is None or self.datum.kind == "smooth_sine":
            return []
        return [self.datum.location]


def _phase_table(J: int, points: np.ndarray) -> np.ndarray:
    """exp(i pi j p) for j = 1..J (rows) and the given points p (columns).

    Row j is row j-1 times exp(i pi p), a running product instead of a sine
    and a cosine per entry; its relative error grows by about one rounding
    per row.
    """
    step = np.exp(1j * np.pi * np.asarray(points, dtype=float))
    return np.cumprod(np.broadcast_to(step, (J, step.size)), axis=0)


def build_modal_solution(
    datum: "InitialDatum",
    alpha: float,
    gamma: float,
    *,
    tol: float = 1e-8,
    t_min: float = 1e-3,
) -> ModalSolution:
    """Assemble the expansion with the fewest modes whose sup tail is below tol.

    For t >= t_min each kept factor obeys |factor_j(t)| <= b_j: in 1D (split)
    b_j = C(t_min) / lam_j^2 (`_residual_bound_coef`); for the unsplit 2D
    `step2d`, b_j = min(1, B / lam_j) with B = kappa t_min^(alpha-1) / gamma,
    as 0 < u_j <= 1 and kappa t^(alpha-1) / gamma decreases in t.  The dropped
    part is at most the sum of |c_j| sup|phi_j| b_j up to _MODE_CAP plus a
    remainder beyond it (in 1D over the envelope |c_j| <= A j^-p, `_ENVELOPE`).
    The first count whose bound is below tol, or the cap, is kept, and the
    bound met is recorded as `tail_bound`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    for name, value in (("gamma", gamma), ("tol", tol), ("t_min", t_min)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {name}={value}")
    if datum.kind == "smooth_sine" and datum.frequency > _MODE_CAP:
        raise ValueError(f"sine frequency {datum.frequency} exceeds the {_MODE_CAP}-mode cap")
    domain = "square" if datum.dim == 2 else "interval"
    modes = eigenbasis(domain, _MODE_CAP)
    coeffs = datum_coefficients(datum, modes)
    if domain == "square":
        # kappa = 1 / (Gamma(alpha) sin^2(alpha pi)), from K_j <= 1/(pi gamma lam s r^alpha)
        B = 1.0 / (math.gamma(alpha) * math.sin(alpha * math.pi) ** 2) * t_min ** (alpha - 1.0) / gamma
        bound = np.minimum(1.0, B / modes.lam)
        M = float(max(modes.jx.max(), modes.jy.max()))
        rest = 64.0 * B * (1.0 + math.log(M)) / (math.pi**4 * M**2)
        phi_sup, split = 2.0, None
    else:
        C = _residual_bound_coef(alpha, gamma, t_min)
        bound = C / modes.lam**2
        A, p = _ENVELOPE[datum.kind]
        rest = math.sqrt(2.0) * A * C / (math.pi**4 * (3.0 + p) * float(_MODE_CAP) ** (3.0 + p))
        phi_sup, split = math.sqrt(2.0), datum
    contrib = np.abs(coeffs) * phi_sup * bound
    suffix = np.cumsum(contrib[::-1])[::-1]
    # tails[i]: the bound when the first i + 1 modes are kept
    tails = np.concatenate([suffix[1:], [0.0]]) + rest
    meets = np.flatnonzero(tails < tol)
    keep = int(meets[0]) + 1 if len(meets) else len(modes)
    kept = ModeSet(domain, modes.jx[:keep], modes.jy[:keep], modes.lam[:keep])
    return ModalSolution(alpha, gamma, kept, coeffs[:keep], datum=split, tail_bound=float(tails[keep - 1]))
