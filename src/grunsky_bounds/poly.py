"""Exact univariate polynomials with coefficients split over 1, 1/sqrt3, 1/sqrt5, 1/sqrt7.

Every closed-form expression in this toolkit is a rational polynomial plus
rational multiples of 1/sqrt(3), 1/sqrt(5) and 1/sqrt(7); keeping the rational
parts exact (Fractions) until evaluation means the only rounding happens in
the final interval arithmetic.

Evaluation runs on (lo, hi) float pairs: `rp_pairs` encloses coefficients
once, and `horner_pair` and `mixed_pair` run the operations of interval Horner,
in its order, through the pair kernel of `interval`, with no `Interval` per
step.  Callers wrap the result in an `Interval`, which rejects a NaN pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import zip_longest

from .interval import INV_SQRT3, INV_SQRT5, INV_SQRT7, Interval, _add_down, _add_up, _mul_pair

RatPoly = tuple[Fraction, ...]  # coefficient i is the x**i coefficient
Pair = tuple[float, float]  # (lo, hi) of an interval

_ZERO = ()


@lru_cache(maxsize=None)
def rp_pairs(p: RatPoly) -> tuple[Pair, ...]:
    """Tightest float enclosure of each coefficient, highest power first; built once per polynomial."""
    return tuple((iv.lo, iv.hi) for iv in map(Interval.from_fraction, reversed(p or (Fraction(0),))))


def rp_trim(coeffs: list[Fraction]) -> RatPoly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def rp_add(p: RatPoly, q: RatPoly) -> RatPoly:
    return rp_trim([a + b for a, b in zip_longest(p, q, fillvalue=Fraction(0))])


def rp_scale(p: RatPoly, s: Fraction) -> RatPoly:
    return rp_trim([c * s for c in p])


def rp_mul(p: RatPoly, q: RatPoly) -> RatPoly:
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
    return Interval(*horner_pair(rp_pairs(p), x.lo, x.hi))


def horner_pair(coeffs: tuple[Pair, ...], lo: float, hi: float) -> Pair:
    """Horner's scheme on pairs over `rp_pairs` coefficients, at the pair (lo, hi).

    Interval Horner starts from [0, 0]; its first step [0, 0]*x + c is c
    exactly for finite x, so this starts from the leading coefficient.
    """
    alo, ahi = coeffs[0]
    for clo, chi in coeffs[1:]:
        alo, ahi = _mul_pair(alo, ahi, lo, hi)
        alo, ahi = _add_down(alo, clo), _add_up(ahi, chi)
    return alo, ahi


def mixed_pair(parts: tuple[tuple[tuple[Pair, ...], Pair | None], ...], lo: float, hi: float) -> Pair:
    """A `MixedPoly.pairs` table at the pair (lo, hi): each part times its factor, summed from [0, 0]."""
    olo = ohi = 0.0
    for coeffs, factor in parts:
        vlo, vhi = horner_pair(coeffs, lo, hi)
        if factor is not None:
            vlo, vhi = _mul_pair(vlo, vhi, *factor)
        olo, ohi = _add_down(olo, vlo), _add_up(ohi, vhi)
    return olo, ohi


@dataclass(frozen=True)
class MixedPoly:
    """r(x) + s(x)/sqrt3 + t(x)/sqrt5 + u(x)/sqrt7 with rational r, s, t, u."""

    one: RatPoly = _ZERO
    inv_sqrt3: RatPoly = _ZERO
    inv_sqrt5: RatPoly = _ZERO
    inv_sqrt7: RatPoly = _ZERO

    @property
    def parts(self) -> tuple[RatPoly, RatPoly, RatPoly, RatPoly]:
        """The rational parts r, s, t, u, in the order of the factors 1, 1/sqrt3, 1/sqrt5, 1/sqrt7."""
        return self.one, self.inv_sqrt3, self.inv_sqrt5, self.inv_sqrt7

    def is_zero(self) -> bool:
        return not any(self.parts)

    @cached_property
    def pairs(self) -> tuple[tuple[tuple[Pair, ...], Pair | None], ...]:
        """`rp_pairs` of each non-zero part with its irrational factor, for `mixed_pair`; built on first use."""
        factors = (None, (INV_SQRT3.lo, INV_SQRT3.hi), (INV_SQRT5.lo, INV_SQRT5.hi), (INV_SQRT7.lo, INV_SQRT7.hi))
        return tuple((rp_pairs(p), f) for p, f in zip(self.parts, factors) if p)

    def deriv(self) -> MixedPoly:
        return MixedPoly(*map(rp_deriv, self.parts))

    def compose(self, p: RatPoly) -> MixedPoly:
        """This polynomial at x = p(t): each part by Horner over `rp_add` and `rp_mul`."""
        def horner(q: RatPoly) -> RatPoly:
            out: RatPoly = _ZERO
            for c in reversed(q):
                out = rp_add(rp_mul(out, p), (c,))
            return out

        return MixedPoly(*map(horner, self.parts))

    def add(self, other: MixedPoly) -> MixedPoly:
        return MixedPoly(*map(rp_add, self.parts, other.parts))

    def mul_rational(self, p: RatPoly) -> MixedPoly:
        return MixedPoly(*(rp_mul(q, p) for q in self.parts))

    def scale(self, s: Fraction) -> MixedPoly:
        return MixedPoly(*(rp_scale(q, s) for q in self.parts))
