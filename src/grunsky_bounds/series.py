"""Truncated power-series arithmetic, univariate and bivariate.

Univariate series are plain coefficient lists (index = power).  Bivariate
series are complex numpy arrays c[i, j] holding the coefficient of t**i z**j,
truncated at a fixed maximum degree per variable; products discard higher
degrees in either variable.

Both logarithms run one recurrence on homogeneous parts, `_log_parts`: with
the Euler operator D = t d/dt + z d/dz, Q * D(log Q) = D Q gives

    n L_n = n Q_n - sum_{k=1}^{n-1} k L_k Q_{n-k}

for the parts of total degree n.  A bivariate part is an anti-diagonal,
indexed by the power of t, and a product of parts is their convolution; a
univariate part is a single coefficient.
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


def _log_parts(q: list[np.ndarray]) -> list[np.ndarray]:
    """Homogeneous parts L_0 = 0, L_1, ... of log Q from the parts Q_0 = [1], Q_1, ..."""
    logs = [np.zeros_like(q[0])]
    for n in range(1, len(q)):
        acc = sum(k * np.convolve(logs[k], q[n - k]) for k in range(1, n))
        logs.append((n * q[n] - acc) / n)
    return logs


def log1p_trunc(u: list[complex], order: int) -> list[complex]:
    """log(1 + u) for a series u with u[0] = 0, truncated at `order`."""
    if u and u[0] != 0:
        raise ValueError("log1p needs zero constant term")
    q = [1 + 0j] + [u[n] if n < len(u) else 0j for n in range(1, order + 1)]
    return [complex(part[0]) for part in _log_parts([np.array([c]) for c in q])]


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
        """log of a series with constant term 1.

        The part of total degree m is c[i, m - i], i = 0..m, zero outside
        the truncation.  A log coefficient at (i, j) takes only entries at
        powers <= i in t and <= j in z, so the entries read back inside the
        truncation are the truncated log, whatever the recurrence leaves
        outside it.
        """
        if self.c[0, 0] != 1.0:
            raise ValueError("bivariate log needs constant term 1")
        n = self.order
        padded = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
        padded[: n + 1, : n + 1] = self.c
        flipped = padded[:, ::-1]
        parts = _log_parts([flipped.diagonal(2 * n - m) for m in range(2 * n + 1)])
        out = BivariateSeries.zero(n)
        for m, part in enumerate(parts):
            i = np.arange(max(0, m - n), min(m, n) + 1)
            out.c[i, m - i] = part[i]
        return out
