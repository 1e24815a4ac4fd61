"""Exact univariate polynomials with coefficients split over 1, 1/sqrt3, 1/sqrt5, 1/sqrt7.

Every closed-form expression in this toolkit is a rational polynomial plus
rational multiples of 1/sqrt(3), 1/sqrt(5) and 1/sqrt(7); keeping the rational
parts exact (Fractions) until evaluation means the only rounding happens in
the final interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .interval import INV_SQRT3, INV_SQRT5, INV_SQRT7, Interval

RatPoly = tuple[Fraction, ...]  # coefficient i is the x**i coefficient

_ZERO = ()


@lru_cache(maxsize=None)
def rp_enclose(p: RatPoly) -> tuple[Interval, ...]:
    """Tightest float enclosure of each coefficient; built once per polynomial."""
    return tuple(Interval.from_fraction(c) for c in p)


def rp_trim(coeffs: list[Fraction]) -> RatPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def rp_add(p: RatPoly, q: RatPoly) -> RatPoly:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return rp_trim(out)


def rp_scale(p: RatPoly, s: Fraction) -> RatPoly:
    if s == 0:
        return _ZERO
    return rp_trim([c * s for c in p])


def rp_mul(p: RatPoly, q: RatPoly) -> RatPoly:
    if not p or not q:
        return _ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci == 0:
            continue
        for j, cj in enumerate(q):
            out[i + j] += ci * cj
    return rp_trim(out)


def rp_pow(p: RatPoly, n: int) -> RatPoly:
    out: RatPoly = (Fraction(1),)
    for _ in range(n):
        out = rp_mul(out, p)
    return out


def rp_deriv(p: RatPoly) -> RatPoly:
    return rp_trim([i * c for i, c in enumerate(p)][1:])


def rp_eval_iv(p: RatPoly, x: Interval) -> Interval:
    return horner_iv(rp_enclose(p), x)


def horner_iv(coeffs: tuple[Interval, ...], x: Interval) -> Interval:
    """Horner evaluation over enclosed coefficients (see `rp_enclose`)."""
    acc = Interval.point(0.0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class MixedPoly:
    """r(x) + s(x)/sqrt3 + t(x)/sqrt5 + u(x)/sqrt7 with rational r, s, t, u."""

    one: RatPoly = _ZERO
    inv_sqrt3: RatPoly = _ZERO
    inv_sqrt5: RatPoly = _ZERO
    inv_sqrt7: RatPoly = _ZERO

    def is_zero(self) -> bool:
        return not (self.one or self.inv_sqrt3 or self.inv_sqrt5 or self.inv_sqrt7)

    @cached_property
    def _iv_parts(self) -> tuple[tuple[tuple[Interval, ...], Interval | None], ...]:
        """Enclosed coefficients of each non-zero part, with its irrational factor."""
        parts = ((self.one, None), (self.inv_sqrt3, INV_SQRT3),
                 (self.inv_sqrt5, INV_SQRT5), (self.inv_sqrt7, INV_SQRT7))
        return tuple((rp_enclose(p), factor) for p, factor in parts if p)

    def eval_iv(self, x: Interval) -> Interval:
        out = Interval.point(0.0)
        for coeffs, factor in self._iv_parts:
            v = horner_iv(coeffs, x)
            out = out + (v if factor is None else v * factor)
        return out

    def deriv(self) -> MixedPoly:
        return MixedPoly(
            rp_deriv(self.one),
            rp_deriv(self.inv_sqrt3),
            rp_deriv(self.inv_sqrt5),
            rp_deriv(self.inv_sqrt7),
        )

    def add(self, other: MixedPoly) -> MixedPoly:
        return MixedPoly(
            rp_add(self.one, other.one),
            rp_add(self.inv_sqrt3, other.inv_sqrt3),
            rp_add(self.inv_sqrt5, other.inv_sqrt5),
            rp_add(self.inv_sqrt7, other.inv_sqrt7),
        )

    def mul_rational(self, p: RatPoly) -> MixedPoly:
        return MixedPoly(
            rp_mul(self.one, p),
            rp_mul(self.inv_sqrt3, p),
            rp_mul(self.inv_sqrt5, p),
            rp_mul(self.inv_sqrt7, p),
        )

    def scale(self, s: Fraction) -> MixedPoly:
        return MixedPoly(
            rp_scale(self.one, s),
            rp_scale(self.inv_sqrt3, s),
            rp_scale(self.inv_sqrt5, s),
            rp_scale(self.inv_sqrt7, s),
        )
