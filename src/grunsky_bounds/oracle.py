"""Grunsky coefficients from power series, and the identities they satisfy.

The table is computed from first principles: build the divided-difference
quotient (f*(t) - f*(z))/(t - z) of the odd transform f* as a truncated
bivariate series via (t^n - z^n)/(t - z) = sum_{i+j=n-1} t^i z^j, take its
logarithm, and read off the coefficients.  Everything downstream of the
maximization layer is cross-checked against this independent pipeline: the
coefficient identities expressing a2..a5, the truncated Grunsky inequalities,
and the logarithmic coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import (
    BivariateSeries,
    InsufficientOrderError,
    PowerSeries,
    log1p_trunc,
    odd_transform,
)

#: largest acceptable asymmetry in a computed table (exact symmetry is then enforced)
SYMMETRY_TOL = 1e-13


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
    deg = 2 * order - 1
    fstar = odd_transform(f, order=4 * order - 1)
    quotient = BivariateSeries.zero(deg)
    for n in range(1, 4 * order, 2):
        cn = fstar.coeff(n)
        if cn == 0:
            continue
        for i in range(max(0, n - 1 - deg), min(deg, n - 1) + 1):
            quotient.c[i, n - 1 - i] += cn
    log_q = quotient.log()
    asym = float(np.max(np.abs(log_q.c - log_q.c.T)))
    if asym > SYMMETRY_TOL:
        raise ArithmeticError(f"table asymmetry {asym} exceeds tolerance")
    omega = (log_q.c + log_q.c.T) / 2.0
    return GrunskyTable(omega, order)


# ---------------------------------------------------------------------------
# coefficient identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientIdentityReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def check_coefficient_identities(f: PowerSeries, order: int = 8) -> CoefficientIdentityReport:
    """Residuals of the identities expressing a2..a5 through the odd-transform table."""
    if f.order < 5:
        raise InsufficientOrderError("need coefficients through a5")
    t = grunsky_table(f, order)
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


@dataclass(frozen=True)
class InequalityReport:
    """Slack (rhs - lhs) of each truncated inequality; all must be >= -tol."""

    slack_row_sum: float  # weighted row-norm inequality
    slack_bilinear: float  # bilinear modulus inequality
    slack_unit: float  # first-row specialization, rhs 1
    slack_third: float  # third-row specialization, rhs 1/3

    @property
    def min_slack(self) -> float:
        return min(self.slack_row_sum, self.slack_bilinear, self.slack_unit, self.slack_third)


def check_inequalities(table: GrunskyTable, xvec: TestVector) -> InequalityReport:
    """Evaluate the truncated Grunsky inequalities for one test vector.

    The vector is finite, so both sums are exact; truncating the outer row sum
    only discards non-negative terms and cannot create a false violation.
    """
    k = len(xvec.x)
    if k > table.order:
        raise InsufficientOrderError(f"test vector length {k} exceeds table order {table.order}")
    x = xvec.x
    rhs = sum(abs(v) ** 2 / (2 * p + 1) for p, v in enumerate(x))

    lhs_rows = 0.0
    for q in range(1, table.order + 1):
        row = sum(table.entry(2 * p + 1, 2 * q - 1) * x[p] for p in range(k))
        lhs_rows += (2 * q - 1) * abs(row) ** 2
    slack_rows = rhs - lhs_rows

    bilinear = sum(
        table.entry(2 * p + 1, 2 * q + 1) * x[p] * x[q] for p in range(k) for q in range(k)
    )
    slack_bil = rhs - abs(bilinear)

    unit = 1.0 - (
        abs(table.entry(1, 1)) ** 2
        + 3 * abs(table.entry(1, 3)) ** 2
        + 5 * abs(table.entry(1, 5)) ** 2
    )
    third = 1.0 / 3.0 - (
        abs(table.entry(1, 3)) ** 2
        + 3 * abs(table.entry(3, 3)) ** 2
        + 5 * abs(table.entry(3, 5)) ** 2
    )
    return InequalityReport(slack_rows, slack_bil, unit, third)


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

#: presets whose inverse is also univalent on the disc (the bound claims apply)
BI_UNIVALENT_PRESETS = ("identity", "geometric", "atanh")


def random_test_vector(rng: np.random.Generator, max_len: int = 8) -> TestVector:
    k = int(rng.integers(1, max_len + 1))
    vec = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    if np.max(np.abs(vec)) == 0.0:
        vec[0] = 1.0
    return TestVector(tuple(complex(v) for v in vec))


def parse_coefficients(text: str) -> PowerSeries:
    """Series input: one coefficient per line as "re im", starting at a1 (= 1)."""
    coeffs: list[complex] = [0j]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 're im', got {raw!r}")
        coeffs.append(complex(float(parts[0]), float(parts[1])))
    if len(coeffs) < 2:
        raise ValueError("no coefficients found")
    if coeffs[1] != 1:
        raise ValueError("first coefficient a1 must be 1")
    return PowerSeries(tuple(coeffs))
