"""Grunsky coefficients from power series, and the identities they satisfy.

The table is computed from first principles: build the divided-difference
quotient (f*(t) - f*(z))/(t - z) of the odd transform f* as a truncated
bivariate series via (t^n - z^n)/(t - z) = sum_{i+j=n-1} t^i z^j, take its
logarithm row by row in t (`series`), and read off the coefficients from
the upper triangle, so the table is symmetric by construction and no
tolerance decides whether it is accepted.  Everything downstream of the
maximization layer is cross-checked against this independent pipeline: the
coefficient identities expressing a2..a5, the truncated Grunsky
inequalities (in matrix form on W = omega[1::2, 1::2], which each table
builds once with its weights and row-specialization slacks), and the
logarithmic coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .series import (
    BivariateSeries,
    InsufficientOrderError,
    PowerSeries,
    log1p_trunc,
    odd_transform,
)


@dataclass(frozen=True)
class GrunskyTable:
    """Coefficients omega[p, q] of the odd transform, odd p, q <= 2*order - 1."""

    omega: np.ndarray
    order: int

    def entry(self, p: int, q: int) -> complex:
        if p % 2 == 0 or q % 2 == 0:
            raise ValueError("only odd indices are defined for the odd transform")
        if p > 2 * self.order - 1 or q > 2 * self.order - 1:
            raise InsufficientOrderError(f"index ({p}, {q}) beyond table order {self.order}")
        return complex(self.omega[p, q])

    @cached_property
    def inequality_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
        """E = [W | I] with W = omega[1::2, 1::2], the weights of |X @ E|^2 that give the
        row-sum slack and its rhs, and the row-specialization slacks, built once per table."""
        if self.order < 3:
            raise InsufficientOrderError(f"row specializations need table order 3, have {self.order}")
        w = self.omega[1::2, 1::2]
        weights = np.arange(1, 2 * self.order, 2)
        unit, third = (1.0, 1.0 / 3.0) - np.abs(w[:2, :3]) ** 2 @ weights[:3]
        slack = np.concatenate((-weights, 1.0 / weights))
        rhs = np.concatenate((np.zeros(self.order), 1.0 / weights))
        return np.hstack((w, np.eye(self.order))), slack, rhs, float(unit), float(third)


@dataclass(frozen=True)
class TestVector:
    """Coefficients (x1, x3, ..., x_{2K-1}) for the truncated inequalities."""

    x: tuple[complex, ...]

    def __post_init__(self):
        if not self.x or all(v == 0 for v in self.x):
            raise ValueError("test vector must not be identically zero")


def grunsky_table(f: PowerSeries, order: int = 8) -> GrunskyTable:
    """Table of odd-index Grunsky coefficients of sqrt(f(z^2)), p,q <= 2*order-1."""
    if order < 1:
        raise ValueError("order must be positive")
    if f.order < 2 * order:
        raise InsufficientOrderError(
            f"table order {order} needs {2 * order} input coefficients, have {f.order}"
        )
    fstar = np.array(odd_transform(f, order=4 * order - 1).coeffs)
    # the quotient's coefficient of t^i z^j is the coefficient of z^(i+j+1) in f*
    power = np.add.outer(np.arange(2 * order), np.arange(2 * order)) + 1
    log_q = BivariateSeries(fstar[power], 2 * order - 1).log().c
    # omega is symmetric: read it from the upper triangle, so that the float
    # table is symmetric bit for bit
    return GrunskyTable(np.triu(log_q) + np.triu(log_q, 1).T, order)


# ---------------------------------------------------------------------------
# coefficient identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientIdentityReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_coefficient_identities(
    f: PowerSeries, order: int = 8, *, table: GrunskyTable | None = None
) -> CoefficientIdentityReport:
    """Residuals of the identities expressing a2..a5 through the odd-transform table.

    `table` is f's table if the caller has already built it; otherwise
    `grunsky_table(f, order)` is built here.
    """
    if f.order < 5:
        raise InsufficientOrderError("need coefficients through a5")
    t = table if table is not None else grunsky_table(f, order)
    w11 = t.entry(1, 1)
    w13 = t.entry(1, 3)
    w15 = t.entry(1, 5)
    w17 = t.entry(1, 7)
    w33 = t.entry(3, 3)
    w35 = t.entry(3, 5)
    a2, a3, a4, a5 = (f.coeff(n) for n in (2, 3, 4, 5))
    res = {
        "a2": a2 - 2 * w11,
        "a3": a3 - (2 * w13 + 3 * w11**2),
        "a4": a4 - (2 * w33 + 8 * w11 * w13 + 10 / 3 * w11**3),
        "a5": a5 - (2 * w35 + 8 * w11 * w33 + 5 * w13**2 + 18 * w11**2 * w13 + 7 / 3 * w11**4),
        "zero_33": 3 * w15 - 3 * w11 * w13 + w11**3 - 3 * w33,
        "zero_35": w17 - w35 - w11 * w33 - w13**2 + w11**4 / 3,
        "a4_reduced": a4 - (2 * w15 + 6 * w11 * w13 + 4 * w11**3),
        "a5_reduced": a5
        - (2 * w17 + 6 * w11 * w15 + 12 * w11**2 * w13 + 3 * w13**2 + 5 * w11**4),
    }
    return CoefficientIdentityReport({k: abs(v) for k, v in res.items()})


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


class InequalityReport(NamedTuple):
    """Slack (rhs - lhs) of each truncated inequality, the first two per test
    vector; all must be >= -tol."""

    slack_row_sum: tuple[float, ...]  # weighted row-norm inequality
    slack_bilinear: tuple[float, ...]  # bilinear modulus inequality
    slack_unit: float  # first-row specialization, rhs 1
    slack_third: float  # third-row specialization, rhs 1/3

    @property
    def min_slack(self) -> float:
        return min(*self.slack_row_sum, *self.slack_bilinear, self.slack_unit, self.slack_third)


def check_inequalities(table: GrunskyTable, *xvecs: TestVector) -> InequalityReport:
    """Evaluate the truncated Grunsky inequalities for test vectors.

    The vectors, padded with zeros to the longest length k, are the rows of
    one array X; a zero entry adds exactly zero to every sum, and one vector
    is the single-row case.  With W[p, q] = omega[2p+1, 2q+1], Z = X @ [W | I][:k]
    holds Y = X @ W[:k] beside X, padded: weighted sums of |Z|^2 give the rhs
    and the row-sum slack, and Y[:, :k] times X the bilinear form.  The vectors
    are finite, so both are exact; truncating the outer row sum only discards
    non-negative terms and cannot create a false violation.
    """
    k = max(len(v.x) for v in xvecs)
    if k > table.order:
        raise InsufficientOrderError(f"test vector length {k} exceeds table order {table.order}")
    x = np.array([v.x + (0j,) * (k - len(v.x)) for v in xvecs])
    e, slack_weights, rhs_weights, unit, third = table.inequality_parts
    z = x @ e[:k]
    z2 = np.abs(z) ** 2
    slack_rows = z2 @ slack_weights
    slack_bil = z2 @ rhs_weights - np.abs(z[:, None, :k] @ x[:, :, None]).ravel()
    return InequalityReport(tuple(slack_rows.tolist()), tuple(slack_bil.tolist()), unit, third)


# ---------------------------------------------------------------------------
# logarithmic coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaReport:
    direct: tuple[complex, complex, complex, complex]
    closed: tuple[complex, complex, complex, complex]

    @property
    def max_difference(self) -> float:
        return max(abs(d - c) for d, c in zip(self.direct, self.closed))


def gamma_from_series(f: PowerSeries) -> GammaReport:
    """First four logarithmic coefficients, by series log and by closed forms."""
    if f.order < 5:
        raise InsufficientOrderError("need coefficients through a5")
    u = [0j, f.coeff(2), f.coeff(3), f.coeff(4), f.coeff(5)]  # f(z)/z - 1
    lg = log1p_trunc(u, 4)
    direct = tuple(lg[n] / 2.0 for n in range(1, 5))

    a2, a3, a4, a5 = (f.coeff(n) for n in (2, 3, 4, 5))
    closed = (
        a2 / 2.0,
        (a3 - a2**2 / 2.0) / 2.0,
        (a4 - a2 * a3 + a2**3 / 3.0) / 2.0,
        (a5 - a2 * a4 - a3**2 / 2.0 + a2**2 * a3 - a2**4 / 4.0) / 2.0,
    )
    return GammaReport(direct, closed)


# ---------------------------------------------------------------------------
# preset functions and series input
# ---------------------------------------------------------------------------


def _identity(order: int) -> PowerSeries:
    return PowerSeries((0j, 1 + 0j) + (0j,) * max(0, order - 1))


def _geometric(order: int) -> PowerSeries:
    # z/(1-z): every coefficient 1
    return PowerSeries((0j,) + (1 + 0j,) * order)


def _atanh(order: int) -> PowerSeries:
    # (1/2) log((1+z)/(1-z)): 1/n for odd n
    coeffs = [0j] + [(1.0 / n if n % 2 else 0.0) + 0j for n in range(1, order + 1)]
    return PowerSeries(tuple(coeffs))


def _koebe(order: int) -> PowerSeries:
    # z/(1-z)^2: coefficient n; univalent but not bi-univalent
    return PowerSeries(tuple(complex(n) for n in range(order + 1)))


PRESETS: dict[str, Callable[[int], PowerSeries]] = {
    "identity": _identity,
    "geometric": _geometric,
    "atanh": _atanh,
    "koebe": _koebe,
}


def random_test_vector(rng: np.random.Generator, max_len: int = 8) -> TestVector:
    """1 to `max_len` coefficients with standard normal real and imaginary parts, drawn in that order."""
    k = int(rng.integers(1, max_len + 1))
    real, imag = rng.standard_normal(k), rng.standard_normal(k)
    x = [complex(a, b) for a, b in zip(real.tolist(), imag.tolist())]
    if not any(x):
        x[0] = 1 + 0j
    return TestVector(tuple(x))


def parse_coefficients(text: str) -> PowerSeries:
    """Series input: one finite coefficient per line as "re im", starting at a1 (= 1)."""
    coeffs: list[complex] = [0j]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            real, imag = map(float, line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: expected 're im', got {raw!r}") from None
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise ValueError(f"line {lineno}: coefficient must be finite, got {raw!r}")
        coeffs.append(complex(real, imag))
    if len(coeffs) < 2:
        raise ValueError("no coefficients found")
    if coeffs[1] != 1:
        raise ValueError("first coefficient a1 must be 1")
    return PowerSeries(tuple(coeffs))
