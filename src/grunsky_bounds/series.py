"""Truncated power-series arithmetic, univariate and bivariate.

Univariate series are plain coefficient lists (index = power).  Bivariate
series are complex numpy arrays c[i, j] holding the coefficient of t**i z**j,
truncated at a fixed maximum degree per variable; products discard higher
degrees in either variable.

Both logarithms divide by Q_0 as a truncated product with 1/Q_0, from one
reciprocal recurrence (Brent & Kung, J. ACM 25, 1978).  Univariate,
D log Q = DQ * (1/Q) with D = z d/dz.  The bivariate log runs by rows in t:
row 0 is the univariate log of Q_0(z), and for i >= 1 Q * t dL/dt = t dQ/dt
gives, with * the z-product truncated at the order,

    i L_i * Q_0 = i Q_i - sum_{k=1}^{i-1} k L_k * Q_{i-k}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerSeries:
    """z + a2 z^2 + a3 z^3 + ... as [0, 1, a2, a3, ...]."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2 or self.coeffs[0] != 0 or self.coeffs[1] != 1:
            raise ValueError("series must be normalized: a0 = 0, a1 = 1")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> complex:
        return self.coeffs[n] if n < len(self.coeffs) else 0j


class InsufficientOrderError(ValueError):
    """The input series does not carry enough coefficients for the request."""


def _reciprocal(q: np.ndarray) -> np.ndarray:
    """Coefficients of 1/q for q[0] = 1, truncated at len(q) - 1."""
    r = np.zeros_like(q)
    r[0] = 1
    for j in range(1, len(q)):
        r[j] = -(q[1 : j + 1] @ r[j - 1 :: -1])
    return r


def log1p_trunc(u: list[complex], order: int) -> list[complex]:
    """log(1 + u) for a series u with u[0] = 0, truncated at `order`."""
    if u and u[0] != 0:
        raise ValueError("log1p needs zero constant term")
    q = np.array([1 + 0j] + [u[n] if n < len(u) else 0j for n in range(1, order + 1)])
    deg = np.arange(order + 1)
    dlog = np.convolve(deg * q, _reciprocal(q))[: order + 1]
    return [0j] + [complex(v) for v in dlog[1:] / deg[1:]]


def sqrt_one_plus(g: list[complex], order: int) -> list[complex]:
    """sqrt of a series with g[0] = 1, principal branch, truncated at `order`."""
    if not g or g[0] != 1:
        raise ValueError("sqrt recurrence needs constant term 1")
    s = [0j] * (order + 1)
    s[0] = 1.0 + 0j
    for n in range(1, order + 1):
        gn = g[n] if n < len(g) else 0j
        acc = sum(s[k] * s[n - k] for k in range(1, n))
        s[n] = (gn - acc) / 2.0
    return s


def odd_transform(f: PowerSeries, order: int | None = None) -> PowerSeries:
    """The odd square-root transform sqrt(f(z^2)) = z + c3 z^3 + c5 z^5 + ...

    `order` is the highest retained degree of the result (odd); defaults to
    2*f.order - 1.
    """
    if order is None:
        order = 2 * f.order - 1
    half = (order - 1) // 2
    if f.order < half + 1:
        raise InsufficientOrderError(
            f"need {half + 1} input coefficients for odd order {order}, have {f.order}"
        )
    g = [f.coeffs[k + 1] for k in range(half + 1)]  # f(w)/w = 1 + a2 w + ...
    s = sqrt_one_plus(g, half)
    out = [0j] * (order + 1)
    out[1] = 1.0 + 0j
    for k in range(1, half + 1):
        out[2 * k + 1] = s[k]
    return PowerSeries(tuple(out))


@dataclass(frozen=True)
class BivariateSeries:
    """Coefficients c[i, j] of t**i z**j, both degrees at most `order`."""

    c: np.ndarray
    order: int

    @classmethod
    def zero(cls, order: int) -> BivariateSeries:
        return cls(np.zeros((order + 1, order + 1), dtype=complex), order)

    def mul(self, other: BivariateSeries) -> BivariateSeries:
        n = self.order
        out = np.zeros((n + 1, n + 1), dtype=complex)
        rows, cols = np.nonzero(self.c)
        for i, j in zip(rows, cols):
            out[i:, j:] += self.c[i, j] * other.c[: n + 1 - i, : n + 1 - j]
        return BivariateSeries(out, n)

    def log(self) -> BivariateSeries:
        """log of a series with constant term 1, by rows in t.

        Rows padded with n zeros and laid end to end cannot meet in a product
        (Kronecker substitution), so the sum over k < i is one 1-D convolution.
        """
        if self.c[0, 0] != 1.0:
            raise ValueError("bivariate log needs constant term 1")
        c, n = self.c, self.order
        inv_q0 = _reciprocal(c[0])
        deg, w = np.arange(n + 1), 2 * n + 1
        qf = np.pad(c, ((0, 0), (n, 0))).ravel()  # Q_m at m w + n
        log = np.zeros((n + 1, w), dtype=complex)  # k L_k (L_0 in row 0), then n zeros
        log[0, 1 : n + 1] = np.convolve(deg * c[0], inv_q0)[1 : n + 1] / deg[1:]
        lf = log.ravel()
        for i in range(1, n + 1):
            acc = np.convolve(qf[w : i * w], lf[w : (i - 1) * w + n + 1], "valid") if i > 1 else 0
            log[i, : n + 1] = np.convolve(i * c[i] - acc, inv_q0)[: n + 1]
        log[1:] /= deg[1:, None]
        return BivariateSeries(log[:, : n + 1].copy(), n)
