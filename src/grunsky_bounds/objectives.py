"""The nine scalar bound objectives and their boundary restrictions.

Every objective has the shape

    f(x, y) = P(x, y) + M(x) * sqrt(1 - x^2 - 3 y^2)

where P is a polynomial with non-negative rational coefficients and the
radical multiplier is M(x) = (m5c + m5l * x)/sqrt5 + m7c/sqrt7 with rational
m5c, m5l, m7c.  The per-objective data below is the only thing that differs.

P is stored once, as a table of exact `Fraction` terms, and `_diff` derives
the tables of its first and second partial derivatives from it.  Those term
tables are the single evaluator of the family: every interval evaluation
(`Objective.value_iv`, `gradient_iv` and `hessian_iv`) runs the one term loop
`_eval_terms` over them, and the scalar corner bounds of `MonotoneBounds`
enclose the same tables.

For verified sign certificates the gradient is used in its radical-scaled
form

    G1 = P_x * sqrt(R) + M'(x) * R - M(x) * x,
    G2 = P_y * sqrt(R) - 3 * M(x) * y,          R = 1 - x^2 - 3 y^2,

which is division-free and has the same zeros and signs as the gradient
wherever R > 0.

Every restriction of an objective to a boundary piece comes from one
function, `_build_restriction`, which substitutes the piece's (x(t), y(t))
from the `domain.EDGES` table into P, M and R over the rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .domain import CONSTANTS, EDGES, Edge, EdgeId
from .interval import (
    INV_SQRT5,
    INV_SQRT7,
    Interval,
    _add_down,
    _add_up,
    _mul_down,
    _mul_up,
    _pow_down,
    _pow_up,
    _sqrt_down,
    _sqrt_up,
)
from .poly import (
    MixedPoly, RatPoly, horner_iv, rp_add, rp_deriv, rp_enclose, rp_mul, rp_pow, rp_scale, rp_trim
)

_A = CONSTANTS.a  # Fraction(297, 400)
_F0 = Fraction(0)
_F1 = Fraction(1)


class ObjectiveId(Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    F5 = "f5"
    F6 = "f6"
    F7 = "f7"
    F8 = "f8"
    F9 = "f9"


#: human-readable claim each objective bounds
CLAIM_NAMES = {
    ObjectiveId.F1: "third coefficient modulus",
    ObjectiveId.F2: "fourth coefficient modulus",
    ObjectiveId.F3: "fifth coefficient modulus",
    ObjectiveId.F4: "fourth/third coefficient modulus difference",
    ObjectiveId.F5: "fifth/fourth coefficient modulus difference",
    ObjectiveId.F6: "second Hankel determinant modulus",
    ObjectiveId.F7: "second logarithmic coefficient modulus",
    ObjectiveId.F8: "third logarithmic coefficient modulus",
    ObjectiveId.F9: "fourth logarithmic coefficient modulus",
}


@dataclass(frozen=True)
class RadicalForm1D:
    """W(t) + V(t) * sqrt(S(t)) on [lo, hi]; W, V mixed, S rational."""

    label: str
    w: MixedPoly
    v: MixedPoly
    s: RatPoly
    lo: float
    hi: float

    @cached_property
    def _radicand_iv(self) -> tuple[Interval, ...]:
        return rp_enclose(self.s)

    @cached_property
    def _s_iv(self) -> tuple[Interval, ...] | None:
        """Enclosed radicand coefficients; None when there is no radical term."""
        return None if self.v.is_zero() else self._radicand_iv

    def value_iv(self, t: Interval) -> Interval:
        out = self.w.eval_iv(t)
        if self._s_iv is not None:
            out = out + self.v.eval_iv(t) * horner_iv(self._s_iv, t).sqrt_clamped()
        return out

    @cached_property
    def _scaled_derivative(self) -> RadicalForm1D:
        s_prime = rp_deriv(self.s)
        new_w = self.v.deriv().mul_rational(self.s).scale(Fraction(2)).add(
            self.v.mul_rational(s_prime)
        )
        new_v = self.w.deriv().scale(Fraction(2))
        return RadicalForm1D(self.label + "'", new_w, new_v, self.s, self.lo, self.hi)

    def scaled_derivative(self) -> RadicalForm1D:
        """2*sqrt(S) * d/dt of this form; same zeros and signs where S > 0.  Built once."""
        return self._scaled_derivative

    def slope_iv(self, t: Interval) -> Interval | None:
        """Enclosure of d/dt of this form over t; None where S(t) is not positive.

        It is the scaled derivative divided by 2*sqrt(S(t)), the one place
        where the form is differentiated without the scaling.
        """
        s = horner_iv(self._radicand_iv, t)
        if s.lo <= 0.0:
            return None
        return self._scaled_derivative.value_iv(t) * s.sqrt_clamped().scale(2.0).recip()


@dataclass(frozen=True)
class Objective:
    id: ObjectiveId
    poly: dict[tuple[int, int], Fraction]
    m5c: Fraction
    m5l: Fraction
    m7c: Fraction
    dimension: int = 2

    # -- radical multiplier ---------------------------------------------------

    def _mult(self) -> MixedPoly:
        return MixedPoly(
            inv_sqrt5=rp_trim([self.m5c, self.m5l]),
            inv_sqrt7=rp_trim([self.m7c]),
        )

    @property
    def has_radical(self) -> bool:
        return bool(self.m5c or self.m5l or self.m7c)

    # -- evaluation -----------------------------------------------------------

    def radicand_iv(self, x: Interval, y: Interval) -> Interval:
        return Interval.point(1.0) - x**2 - (y**2).scale(3.0)

    def value_iv(self, x: Interval, y: Interval) -> Interval:
        if self.dimension == 1:
            y = Interval.point(0.0)
        prep = _prepared(self.id)
        out = _eval_terms(prep.p, x, y)
        if self.has_radical:
            out = out + prep.mult.eval_iv(x) * self.radicand_iv(x, y).sqrt_clamped()
        return out

    # -- gradients ------------------------------------------------------------

    def gradient_iv(self, x: Interval, y: Interval) -> tuple[Interval, Interval]:
        """True gradient enclosure; requires the radicand positive over the box."""
        prep = _prepared(self.id)
        px = _eval_terms(prep.px, x, y)
        py = _eval_terms(prep.py, x, y)
        if not self.has_radical:
            return px, py
        sq = self.radicand_iv(x, y).sqrt_clamped()
        u = sq.recip()
        m = prep.mult.eval_iv(x)
        fx = px + prep.m_lin_iv * sq - m * x * u
        fy = py - (m * y * u).scale(3.0)
        return fx, fy

    def hessian_iv(self, x: Interval, y: Interval) -> tuple[Interval, Interval, Interval]:
        """Enclosure of (fxx, fxy, fyy) over a box with positive radicand."""
        prep = _prepared(self.id)
        pxx = _eval_terms(prep.pxx, x, y)
        pxy = _eval_terms(prep.pxy, x, y)
        pyy = _eval_terms(prep.pyy, x, y)
        if not self.has_radical:
            return pxx, pxy, pyy
        sq = self.radicand_iv(x, y).sqrt_clamped()
        u = sq.recip()
        u3 = u * u * u
        m = prep.mult.eval_iv(x)
        beta = prep.m_lin_iv
        fxx = pxx - (beta * x * u).scale(2.0) - m * u - m * x**2 * u3
        fxy = pxy - (beta * y * u).scale(3.0) - (m * x * y * u3).scale(3.0)
        fyy = pyy - (m * (u + (y**2 * u3).scale(3.0))).scale(3.0)
        return fxx, fxy, fyy

    def stationary_at_origin(self) -> bool:
        """grad f(0, 0) = (P_x(0, 0) + m5l/sqrt5, P_y(0, 0)) is zero, decided exactly on the term table."""
        return not (self.poly.get((1, 0)) or self.poly.get((0, 1)) or self.m5l)

    # -- edge restrictions -------------------------------------------------------

    def restriction(self, edge: EdgeId) -> RadicalForm1D:
        return _restriction_cached(self.id, edge)


def _build_restriction(obj: Objective, edge: Edge) -> RadicalForm1D:
    """Substitute the piece's (x(t), y(t)) into P, M and R.

    On a `sqrt_y` piece the odd powers of y carry the radical sqrt(y(t)), so
    the shared radicand must vanish there.  Elsewhere a rational q = sqrt(R(0))
    is pulled out of the radical, which leaves the radicand 1 at t = 0.
    """
    even: RatPoly = ()
    odd: RatPoly = ()
    for (i, j), c in obj.poly.items():
        k = j // 2 if edge.sqrt_y else j
        term = rp_scale(rp_mul(rp_pow(edge.x, i), rp_pow(edge.y, k)), c)
        if edge.sqrt_y and j % 2:
            odd = rp_add(odd, term)
        else:
            even = rp_add(even, term)
    label = f"{obj.id.value}|{edge.id.value}"
    lo, hi = edge.t_lo.lo, edge.t_hi.hi
    r = edge.radicand
    if edge.sqrt_y:
        if r and obj.has_radical:
            raise ValueError(f"{label}: two radicals in one restriction")
        return RadicalForm1D(label, MixedPoly(one=even), MixedPoly(one=odd), edge.y, lo, hi)
    r0 = r[0] if r else _F0
    q = Fraction(math.isqrt(r0.numerator), math.isqrt(r0.denominator)) if r0 > 0 else _F1
    if q * q != r0:
        q = _F1
    mult = MixedPoly(
        inv_sqrt5=rp_scale(rp_add((obj.m5c,), rp_scale(edge.x, obj.m5l)), q),
        inv_sqrt7=rp_scale((obj.m7c,), q),
    )
    return RadicalForm1D(label, MixedPoly(one=even), mult, rp_scale(r, 1 / (q * q)), lo, hi)


@lru_cache(maxsize=None)
def _restriction_cached(oid: ObjectiveId, edge: EdgeId) -> RadicalForm1D:
    return _build_restriction(OBJECTIVES[oid], EDGES[edge])


Terms = dict[tuple[int, int], Fraction]
TermsIv = tuple[tuple[int, int, Interval], ...]


def _diff(terms: Terms, di: int, dj: int) -> Terms:
    """Exact partial derivative d^di/dx^di d^dj/dy^dj of a term table."""
    return {
        (i - di, j - dj): c * math.perm(i, di) * math.perm(j, dj)
        for (i, j), c in terms.items()
        if i >= di and j >= dj
    }


def _terms_iv(terms: Terms) -> TermsIv:
    """(i, j, enclosure of c) in sorted (i, j) order, the evaluation order."""
    return tuple((i, j, Interval.from_fraction(c)) for (i, j), c in sorted(terms.items()))


def _eval_terms(terms: TermsIv, x: Interval, y: Interval) -> Interval:
    """Interval sum of c * x^i * y^j over a term table."""
    out = Interval.point(0.0)
    for i, j, c in terms:
        t = c
        if i:
            t = t * x**i
        if j:
            t = t * y**j
        out = out + t
    return out


@dataclass(frozen=True)
class _Prepared:
    """Interval term tables of P and its partial derivatives, built once per objective."""

    p: TermsIv
    px: TermsIv
    py: TermsIv
    pxx: TermsIv
    pxy: TermsIv
    pyy: TermsIv
    mult: MixedPoly
    m_lin_iv: Interval


@lru_cache(maxsize=None)
def _prepared(oid: ObjectiveId) -> _Prepared:
    obj = OBJECTIVES[oid]
    # P, Px, Py, Pxx, Pxy, Pyy in the field order of _Prepared
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    tables = [_terms_iv(_diff(obj.poly, di, dj)) for di, dj in orders]
    return _Prepared(*tables, obj._mult(), Interval.from_fraction(obj.m5l) * INV_SQRT5)


OBJECTIVES: dict[ObjectiveId, Objective] = {
    ObjectiveId.F1: Objective(
        ObjectiveId.F1, {(2, 0): Fraction(3)}, _F0, _F0, _F0, dimension=1
    ),
    ObjectiveId.F2: Objective(
        ObjectiveId.F2, {(3, 0): Fraction(4), (1, 1): Fraction(6)}, Fraction(2), _F0, _F0
    ),
    ObjectiveId.F3: Objective(
        ObjectiveId.F3,
        {(4, 0): Fraction(5), (2, 1): Fraction(12), (0, 2): Fraction(3)},
        _F0,
        Fraction(6),
        Fraction(2),
    ),
    ObjectiveId.F4: Objective(
        ObjectiveId.F4,
        {(3, 0): 3 / _A - 4, (1, 1): 6 - 2 / _A},
        Fraction(2),
        _F0,
        _F0,
    ),
    ObjectiveId.F5: Objective(
        ObjectiveId.F5,
        {(4, 0): 4 / _A - 5, (2, 1): 12 - 6 / _A, (0, 2): Fraction(3)},
        _F0,
        6 - 2 / _A,
        Fraction(2),
    ),
    ObjectiveId.F6: Objective(
        ObjectiveId.F6, {(4, 0): _F1, (0, 2): Fraction(4)}, _F0, Fraction(4), _F0
    ),
    ObjectiveId.F7: Objective(
        ObjectiveId.F7, {(2, 0): Fraction(1, 2), (0, 1): _F1}, _F0, _F0, _F0
    ),
    ObjectiveId.F8: Objective(
        ObjectiveId.F8, {(3, 0): Fraction(1, 3), (1, 1): _F1}, _F1, _F0, _F0
    ),
    ObjectiveId.F9: Objective(
        ObjectiveId.F9,
        {(4, 0): Fraction(1, 4), (2, 1): _F1, (0, 2): Fraction(1, 2)},
        _F0,
        _F1,
        _F1,
    ),
}

# The 1-D objective carries its radical multiplier separately: its radicand is
# 1 - x^2 rather than the shared 1 - x^2 - 3y^2, so it is registered with the
# Y_ZERO-style restriction below instead of the generic 2-D radical fields.
F1_FORM = RadicalForm1D(
    "f1",
    MixedPoly(one=(Fraction(0), Fraction(0), Fraction(3))),
    MixedPoly(inv_sqrt3=(Fraction(2),)),
    (_F1, _F0, Fraction(-1)),
    0.0,
    CONSTANTS.iv_a.hi,
)


# -- fast directed-rounded range bounds for branch-and-bound ---------------------
#
# Every catalog objective has non-negative polynomial coefficients and a
# non-negative, non-decreasing radical multiplier, while the shared radicand
# decreases in both variables on the first quadrant.  Over a box
# [x1,x2] x [y1,y2] inside the region the range is therefore bounded by
# evaluating the monotone pieces at opposite corners, which matches the
# generic interval evaluation but avoids allocating intervals in the hot
# branch-and-bound loop.


@dataclass(frozen=True)
class MonotoneBounds:
    """Scalar lower/upper range bounds over first-quadrant boxes."""

    terms: tuple[tuple[int, int, float, float], ...]  # (i, j, c_lo, c_hi)
    dx_terms: tuple[tuple[int, int, float, float], ...]
    dy_terms: tuple[tuple[int, int, float, float], ...]
    m5c: tuple[float, float]
    m5l: tuple[float, float]
    m7c: tuple[float, float]
    has_radical: bool

    def upper(self, x1: float, x2: float, y1: float, y2: float) -> float:
        out = 0.0
        for i, j, _, c_hi in self.terms:
            t = c_hi
            if i:
                t = _mul_up(t, _pow_up(x2, i))
            if j:
                t = _mul_up(t, _pow_up(y2, j))
            out = _add_up(out, t)
        if self.has_radical:
            r = _add_up(_add_up(1.0, -_mul_down(x1, x1)), -_mul_down(3.0, _mul_down(y1, y1)))
            if r > 0.0:
                m = _add_up(self.m5c[1], _add_up(_mul_up(self.m5l[1], x2), self.m7c[1]))
                out = _add_up(out, _mul_up(m, _sqrt_up(r)))
        return out

    def lower(self, x1: float, x2: float, y1: float, y2: float) -> float:
        out = 0.0
        for i, j, c_lo, _ in self.terms:
            t = c_lo
            if i:
                t = _mul_down(t, _pow_down(x1, i))
            if j:
                t = _mul_down(t, _pow_down(y1, j))
            out = _add_down(out, t)
        if self.has_radical:
            r = _add_down(_add_down(1.0, -_mul_up(x2, x2)), -_mul_up(3.0, _mul_up(y2, y2)))
            if r > 0.0:
                m = _add_down(self.m5c[0], _add_down(_mul_down(self.m5l[0], x1), self.m7c[0]))
                out = _add_down(out, _mul_down(m, _sqrt_down(r)))
        return out

    def scaled_gradient_range(
        self, x1: float, x2: float, y1: float, y2: float
    ) -> tuple[float, float, float, float, float, float]:
        """Bounds for the radical-scaled gradient over a first-quadrant box.

        Returns (g1_lo, g1_hi, g2_lo, g2_hi, r_lo, r_hi) where [r_lo, r_hi]
        encloses the radicand range; the gradient bounds certify signs only
        where the radicand is positive.
        """
        px_lo, px_hi = 0.0, 0.0
        for i, j, c_lo, c_hi in self.dx_terms:
            t_hi = c_hi
            t_lo = c_lo
            if i:
                t_hi = _mul_up(t_hi, _pow_up(x2, i))
                t_lo = _mul_down(t_lo, _pow_down(x1, i))
            if j:
                t_hi = _mul_up(t_hi, _pow_up(y2, j))
                t_lo = _mul_down(t_lo, _pow_down(y1, j))
            px_hi = _add_up(px_hi, t_hi)
            px_lo = _add_down(px_lo, t_lo)
        py_lo, py_hi = 0.0, 0.0
        for i, j, c_lo, c_hi in self.dy_terms:
            t_hi = c_hi
            t_lo = c_lo
            if i:
                t_hi = _mul_up(t_hi, _pow_up(x2, i))
                t_lo = _mul_down(t_lo, _pow_down(x1, i))
            if j:
                t_hi = _mul_up(t_hi, _pow_up(y2, j))
                t_lo = _mul_down(t_lo, _pow_down(y1, j))
            py_hi = _add_up(py_hi, t_hi)
            py_lo = _add_down(py_lo, t_lo)
        if not self.has_radical:
            return px_lo, px_hi, py_lo, py_hi, 1.0, 1.0

        r_hi = _add_up(_add_up(1.0, -_mul_down(x1, x1)), -_mul_down(3.0, _mul_down(y1, y1)))
        r_lo = _add_down(_add_down(1.0, -_mul_up(x2, x2)), -_mul_up(3.0, _mul_up(y2, y2)))
        sq_hi = _sqrt_up(max(r_hi, 0.0))
        sq_lo = _sqrt_down(max(r_lo, 0.0))
        m_hi = _add_up(self.m5c[1], _add_up(_mul_up(self.m5l[1], x2), self.m7c[1]))
        m_lo = _add_down(self.m5c[0], _add_down(_mul_down(self.m5l[0], x1), self.m7c[0]))

        # G1 = Px*sqrt(R) + beta*R - M*x  with beta = m5l/sqrt5 >= 0
        t_hi = _mul_up(px_hi, sq_hi)
        t_hi = _add_up(t_hi, _mul_up(self.m5l[1], r_hi) if r_hi >= 0.0 else _mul_up(self.m5l[0], r_hi))
        g1_hi = _add_up(t_hi, -_mul_down(m_lo, x1))
        t_lo = _mul_down(px_lo, sq_lo)
        t_lo = _add_down(t_lo, _mul_down(self.m5l[0], r_lo) if r_lo >= 0.0 else _mul_down(self.m5l[1], r_lo))
        g1_lo = _add_down(t_lo, -_mul_up(m_hi, x2))

        # G2 = Py*sqrt(R) - 3*M*y
        g2_hi = _add_up(_mul_up(py_hi, sq_hi), -_mul_down(3.0, _mul_down(m_lo, y1)))
        g2_lo = _add_down(_mul_down(py_lo, sq_lo), -_mul_up(3.0, _mul_up(m_hi, y2)))
        return g1_lo, g1_hi, g2_lo, g2_hi, r_lo, r_hi


@lru_cache(maxsize=None)
def monotone_bounds(oid: ObjectiveId) -> MonotoneBounds:
    obj = OBJECTIVES[oid]
    if any(c < 0 for c in obj.poly.values()) or obj.m5c < 0 or obj.m5l < 0 or obj.m7c < 0:
        raise ValueError(f"{oid} violates the monotone-coefficient assumption")

    def endpoints(terms: TermsIv):
        return tuple((i, j, c.lo, c.hi) for i, j, c in terms)

    prep = _prepared(oid)
    q5c = Interval.from_fraction(obj.m5c) * INV_SQRT5
    q5l = Interval.from_fraction(obj.m5l) * INV_SQRT5
    q7c = Interval.from_fraction(obj.m7c) * INV_SQRT7
    return MonotoneBounds(
        endpoints(prep.p),
        endpoints(prep.px),
        endpoints(prep.py),
        (q5c.lo, q5c.hi),
        (q5l.lo, q5l.hi),
        (q7c.lo, q7c.hi),
        obj.has_radical,
    )


# -- the reduced stationarity equation of f2, whose root leaves the region --------

F2_REDUCED_POLY: RatPoly = (Fraction(14), Fraction(-78), Fraction(-126), Fraction(270))
