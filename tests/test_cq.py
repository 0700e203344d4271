import math

import mpmath
import numpy as np
import pytest

from rstokes.cq import weights


def binomial_weights_oracle(mu: float, count: int) -> np.ndarray:
    # independent high-precision oracle: w_j = (-1)^j binom(mu, j)
    with mpmath.workdps(50):
        vals = [(-1) ** j * mpmath.binomial(mu, j) for j in range(count)]
        return np.array([float(v) for v in vals])


def sbd_power_oracle(m: int, count: int) -> np.ndarray:
    # integer powers by explicit polynomial multiplication
    poly = np.array([1.5, -2.0, 0.5])
    acc = np.array([1.0])
    for _ in range(m):
        acc = np.convolve(acc, poly)
    out = np.zeros(count)
    out[: min(count, len(acc))] = acc[:count]
    return out


def miller_mpmath_oracle(mu: float, count: int) -> np.ndarray:
    # same recurrence at 50 digits; guards against float round-off drift
    with mpmath.workdps(50):
        c0, c1, c2 = mpmath.mpf(1.5), mpmath.mpf(-2), mpmath.mpf(0.5)
        a = [c0**mu]
        for n in range(1, count):
            acc = (1 * (mu + 1) - n) * c1 * a[n - 1]
            if n >= 2:
                acc += (2 * (mu + 1) - n) * c2 * a[n - 2]
            a.append(acc / (n * c0))
        return np.array([float(v) for v in a])


def test_generating_polynomials():
    with pytest.raises(ValueError):
        weights("cn", 0.5, 4)


def test_be_half_power_table():
    w = weights("be", 0.5, 3)
    assert np.allclose(w, [1.0, -0.5, -0.125, -0.0625], atol=1e-15)


def test_be_weights_match_binomial_oracle():
    for mu in (0.1, 0.5, 0.9, -0.5, -1.0):
        w = weights("be", mu, 30)
        oracle = binomial_weights_oracle(mu, 31)
        assert np.max(np.abs(w - oracle)) < 1e-14


def test_sbd_half_power_leading_weights():
    w = weights("sbd", 0.5, 2)
    assert abs(w[0] - math.sqrt(1.5)) < 1e-14
    assert abs(w[1] - (-2.0 / math.sqrt(6.0))) < 1e-14


def test_sbd_integer_powers_match_polynomial_oracle():
    for m in (1, 2, 3):
        w = weights("sbd", float(m), 12)
        assert np.max(np.abs(w - sbd_power_oracle(m, 13))) < 1e-12


def test_mu_one_reproduces_generating_polynomial():
    for scheme, coeffs in (("be", (1.0, -1.0)), ("sbd", (1.5, -2.0, 0.5))):
        w = weights(scheme, 1.0, 8)
        expect = np.zeros(9)
        expect[: len(coeffs)] = coeffs
        assert np.allclose(w, expect, atol=1e-15)


def test_be_sign_pattern_and_partial_sums():
    w = weights("be", 0.5, 10_000)
    assert w[0] > 0
    assert np.all(w[1:] < 0)
    partial = np.cumsum(w)
    assert np.all(partial > 0)
    assert np.all(np.diff(partial) < 0)
    assert abs(partial[-1]) < 0.05


def test_sbd_partial_sums_decay():
    w = weights("sbd", 0.5, 10_000)
    partial = np.cumsum(w)
    assert abs(partial[-1]) < 0.05


def test_doubled_precision_recomputation():
    for mu in (0.3, 0.5, 0.9):
        w = weights("sbd", mu, 200)
        oracle = miller_mpmath_oracle(mu, 201)
        scale = np.maximum(np.abs(oracle), 1e-30)
        assert np.max(np.abs(w - oracle) / scale) < 1e-13


def test_invalid_arguments():
    with pytest.raises(ValueError):
        weights("be", 0.5, -1)


def test_weights_are_memoized_and_read_only():
    # a spatial study asks for the same weights once per mesh; the cached
    # array is shared, so no caller may change it
    w = weights("sbd", 0.37, 50)
    assert weights("sbd", 0.37, 50) is w
    with pytest.raises(ValueError, match="read-only"):
        w[1] = 0.0
