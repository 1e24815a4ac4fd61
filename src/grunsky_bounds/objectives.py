"""The nine scalar bound objectives and their boundary restrictions.

Every objective, f1 included, has the shape

    f(x, y) = P(x, y) + M(x) * sqrt(1 - x^2 - 3 y^2)

where P is a polynomial with non-negative rational coefficients and the
radical multiplier M(x) is a `MixedPoly`, at most linear in x, over the
factors 1, 1/sqrt3, 1/sqrt5 and 1/sqrt7.  The per-objective data below, P
and M, is the only thing that differs.  f1's claim is its maximum over the
region, at the corner (a, 0), like any other objective's.

P is stored once, as a table of exact `Fraction` terms, and `_diff` derives
the tables of its first and second partial derivatives from it.  `_prepared`
compiles them, on first evaluation, into (i, j, c_lo, c_hi) pair tables: the
one evaluator of the family.  `Objective.value_iv`, `gradient_pairs` and
`hessian_pairs` run the operations of the interval formula on them, in its
order, through the pair kernel of `interval`, with no `Interval` per operation
(edge forms likewise, through `poly`); `MonotoneBounds` reads the same tables.
The `*_pairs` forms return flat (lo, hi) pairs for the zero searches of
`optimize`, and `gradient_iv` and `hessian_iv` wrap them in `Interval`s.

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
    Interval, _add, _add_down, _add_up, _intervals, _mul, _mul_down, _mul_pair, _mul_up, _pow_down, _pow_pair,
    _pow_up, _recip_down, _recip_up, _scale_pair, _sqrt_down, _sqrt_pair, _sqrt_up, _sub
)
from .poly import (
    MixedPoly, Pair, RatPoly, horner_pair, mixed_pair, rp_add, rp_deriv, rp_mul, rp_pairs, rp_pow,
    rp_scale
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
    def _pairs(self) -> tuple:
        """W, V (None when zero) and S compiled for `mixed_pair` and `horner_pair`; built on first evaluation."""
        return self.w.pairs, None if self.v.is_zero() else self.v.pairs, rp_pairs(self.s)

    def _value_pair(self, lo: float, hi: float, sq: Pair | None = None) -> Pair:
        """W + V * sqrt(S) at the pair (lo, hi); `sq` is sqrt(S) there if the caller has it."""
        w, v, s = self._pairs
        olo, ohi = mixed_pair(w, lo, hi)
        if v is not None:
            vlo, vhi = _mul_pair(*mixed_pair(v, lo, hi), *(sq or _sqrt_pair(*horner_pair(s, lo, hi))))
            olo, ohi = _add_down(olo, vlo), _add_up(ohi, vhi)
        return olo, ohi

    def value_iv(self, t: Interval) -> Interval:
        return Interval(*self._value_pair(t.lo, t.hi))

    @cached_property
    def scaled_derivative(self) -> RadicalForm1D:
        """2*sqrt(S) * d/dt of this form, with its zeros and signs where S > 0; W' itself where V = 0.  Built once."""
        if self.v.is_zero():
            return RadicalForm1D(self.label + "'", self.w.deriv(), self.v, self.s, self.lo, self.hi)
        s_prime = rp_deriv(self.s)
        new_w = self.v.deriv().mul_rational(self.s).scale(Fraction(2)).add(
            self.v.mul_rational(s_prime)
        )
        new_v = self.w.deriv().scale(Fraction(2))
        return RadicalForm1D(self.label + "'", new_w, new_v, self.s, self.lo, self.hi)

    def slope_pair(self, lo: float, hi: float) -> Pair | None:
        """Enclosure of d/dt of this form over [lo, hi]; None where V != 0 and S is not positive there.

        It is the scaled derivative divided by 2*sqrt(S(t)), the one place
        where the form is differentiated without the scaling; where V = 0 it
        is the scaled derivative, W', as it is.
        """
        if self._pairs[1] is None:
            return self.scaled_derivative._value_pair(lo, hi)
        slo, shi = horner_pair(self._pairs[2], lo, hi)
        if slo <= 0.0:
            return None
        slo, shi = _sqrt_pair(slo, shi)
        # the scaled derivative has this S, so the radicand is evaluated once
        dlo, dhi = self.scaled_derivative._value_pair(lo, hi, (slo, shi))
        # times 1/(2*sqrt(S)): the interval path's scale(2.0), then recip
        return _mul_pair(dlo, dhi, _recip_down(_mul_up(shi, 2.0)), _recip_up(_mul_down(slo, 2.0)))

    def slope_iv(self, t: Interval) -> Interval | None:
        return None if (d := self.slope_pair(t.lo, t.hi)) is None else Interval(*d)


@dataclass(frozen=True)
class Objective:
    """f = P + M(x) * sqrt(R): the term table of P and the multiplier M, at most linear in x.

    `dimension` is 1 for f1.  Only perfbench reads it, and maximizes f1 on
    `F1_FORM` through `SuiteContext.f1_extremum`; no row does either.
    """

    id: ObjectiveId
    poly: dict[tuple[int, int], Fraction]
    mult: MixedPoly
    dimension: int = 2

    @property
    def has_radical(self) -> bool:
        return not self.mult.is_zero()

    # -- evaluation -----------------------------------------------------------
    # Each method runs the pair tables of `_prepared` through the operations
    # of its interval formula, in its order; only the results are `Interval`s.

    def value_iv(self, x: Interval, y: Interval) -> Interval:
        prep = _prepared(self.id)
        xp, yp = (x.lo, x.hi), (y.lo, y.hi)
        out = _terms_pair(prep.p, xp, yp)
        if self.has_radical:
            out = _add(out, _mul(mixed_pair(prep.mult.pairs, *xp), _sqrt_pair(*_radicand(xp, yp))))
        return Interval(*out)

    def _radical(self, xp: Pair, yp: Pair) -> tuple[Pair, Pair, Pair] | None:
        """sqrt(R), u = 1/sqrt(R) and M(x) over the box; None unless R > 0 on it."""
        r = _radicand(xp, yp)
        if r[0] <= 0.0:
            return None
        sq = _sqrt_pair(*r)
        return sq, (_recip_down(sq[1]), _recip_up(sq[0])), mixed_pair(_prepared(self.id).mult.pairs, *xp)

    def gradient_pairs(self, x1: float, x2: float, y1: float, y2: float) -> tuple[float, ...] | None:
        """(fx_lo, fx_hi, fy_lo, fy_hi), the true gradient over the box; None unless the radicand is positive on it."""
        prep = _prepared(self.id)
        xp, yp = (x1, x2), (y1, y2)
        fx, fy = _terms_pair(prep.px, xp, yp), _terms_pair(prep.py, xp, yp)
        if self.has_radical:
            if (rad := self._radical(xp, yp)) is None:
                return None
            sq, u, m = rad
            # fx = Px + M'*sqrt(R) - M*x*u,  fy = Py - 3*M*y*u
            fx = _sub(_add(fx, _mul(prep.m_lin, sq)), _mul(_mul(m, xp), u))
            fy = _sub(fy, _scale_pair(*_mul(_mul(m, yp), u), 3.0))
        return *fx, *fy

    def gradient_iv(self, x: Interval, y: Interval) -> tuple[Interval, Interval] | None:
        return _intervals(self.gradient_pairs(x.lo, x.hi, y.lo, y.hi))

    def hessian_pairs(self, x1: float, x2: float, y1: float, y2: float) -> tuple[float, ...] | None:
        """(fxx, fxy, fyy) over the box, each a (lo, hi) pair, flat; None unless the radicand is positive on it."""
        prep = _prepared(self.id)
        xp, yp = (x1, x2), (y1, y2)
        fxx, fxy, fyy = (_terms_pair(t, xp, yp) for t in (prep.pxx, prep.pxy, prep.pyy))
        if self.has_radical:
            if (rad := self._radical(xp, yp)) is None:
                return None
            _, u, m = rad
            u3, dm = _mul(_mul(u, u), u), prep.m_lin
            # fxx = Pxx - 2*M'*x*u - M*u - M*x^2*u^3
            fxx = _sub(_sub(_sub(fxx, _scale_pair(*_mul(_mul(dm, xp), u), 2.0)), _mul(m, u)),
                       _mul(_mul(m, _pow_pair(*xp, 2)), u3))
            # fxy = Pxy - 3*M'*y*u - 3*M*x*y*u^3
            fxy = _sub(_sub(fxy, _scale_pair(*_mul(_mul(dm, yp), u), 3.0)),
                       _scale_pair(*_mul(_mul(_mul(m, xp), yp), u3), 3.0))
            # fyy = Pyy - 3*M*(u + 3*y^2*u^3)
            fyy = _sub(fyy, _scale_pair(*_mul(m, _add(u, _scale_pair(*_mul(_pow_pair(*yp, 2), u3), 3.0))), 3.0))
        return *fxx, *fxy, *fyy

    def hessian_iv(self, x: Interval, y: Interval) -> tuple[Interval, Interval, Interval] | None:
        return _intervals(self.hessian_pairs(x.lo, x.hi, y.lo, y.hi))

    def stationary_at_origin(self) -> bool:
        """grad f(0, 0) = (P_x(0, 0) + M'(0), P_y(0, 0)) is zero, decided exactly on the term tables."""
        return not (self.poly.get((1, 0)) or self.poly.get((0, 1))) and self.mult.deriv().is_zero()

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
    return RadicalForm1D(label, MixedPoly(one=even), obj.mult.compose(edge.x).scale(q), rp_scale(r, 1 / (q * q)),
                         lo, hi)


@lru_cache(maxsize=None)
def _restriction_cached(oid: ObjectiveId, edge: EdgeId) -> RadicalForm1D:
    return _build_restriction(OBJECTIVES[oid], EDGES[edge])


Terms = dict[tuple[int, int], Fraction]
#: (i, j, c_lo, c_hi): the term c * x^i * y^j with c enclosed in [c_lo, c_hi]
PairTerms = tuple[tuple[int, int, float, float], ...]


def _diff(terms: Terms, di: int, dj: int) -> Terms:
    """Exact partial derivative d^di/dx^di d^dj/dy^dj of a term table."""
    return {
        (i - di, j - dj): c * math.perm(i, di) * math.perm(j, dj)
        for (i, j), c in terms.items()
        if i >= di and j >= dj
    }


def _pair_terms(terms: Terms) -> PairTerms:
    """The table with each c enclosed, in sorted (i, j) order, the evaluation order."""
    return tuple((i, j, *rp_pairs((c,))[0]) for (i, j), c in sorted(terms.items()))


def _terms_pair(terms: PairTerms, xp: Pair, yp: Pair) -> Pair:
    """Sum of c * x^i * y^j over a table, from [0, 0] in table order."""
    olo = ohi = 0.0
    for i, j, clo, chi in terms:
        if i:
            clo, chi = _mul_pair(clo, chi, *_pow_pair(*xp, i))
        if j:
            clo, chi = _mul_pair(clo, chi, *_pow_pair(*yp, j))
        olo, ohi = _add_down(olo, clo), _add_up(ohi, chi)
    return olo, ohi


def _radicand(xp: Pair, yp: Pair) -> Pair:
    """R = (1 - x^2) - 3*y^2 over the box."""
    return _sub(_sub((1.0, 1.0), _pow_pair(*xp, 2)), _scale_pair(*_pow_pair(*yp, 2), 3.0))


@dataclass(frozen=True)
class _Prepared:
    """Pair tables of P and its partial derivatives, M(x), and the constant M' as a pair, built once per objective."""

    p: PairTerms
    px: PairTerms
    py: PairTerms
    pxx: PairTerms
    pxy: PairTerms
    pyy: PairTerms
    mult: MixedPoly
    m_lin: Pair


@lru_cache(maxsize=None)
def _prepared(oid: ObjectiveId) -> _Prepared:
    """Built on first evaluation; an M(x) above linear is refused, since the evaluators take M' constant."""
    obj = OBJECTIVES[oid]
    if any(len(part) > 2 for part in obj.mult.parts):
        raise ValueError(f"{oid.value}: the radical multiplier M(x) must be at most linear in x")
    # P, Px, Py, Pxx, Pxy, Pyy in the field order of _Prepared
    orders = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    tables = [_pair_terms(_diff(obj.poly, di, dj)) for di, dj in orders]
    return _Prepared(*tables, obj.mult, mixed_pair(obj.mult.deriv().pairs, 0.0, 0.0))


OBJECTIVES: dict[ObjectiveId, Objective] = {
    ObjectiveId.F1: Objective(
        ObjectiveId.F1, {(2, 0): Fraction(3)}, MixedPoly(inv_sqrt3=(Fraction(2),)), dimension=1
    ),
    ObjectiveId.F2: Objective(
        ObjectiveId.F2, {(3, 0): Fraction(4), (1, 1): Fraction(6)}, MixedPoly(inv_sqrt5=(Fraction(2),))
    ),
    ObjectiveId.F3: Objective(
        ObjectiveId.F3,
        {(4, 0): Fraction(5), (2, 1): Fraction(12), (0, 2): Fraction(3)},
        MixedPoly(inv_sqrt5=(_F0, Fraction(6)), inv_sqrt7=(Fraction(2),)),
    ),
    ObjectiveId.F4: Objective(
        ObjectiveId.F4,
        {(3, 0): 3 / _A - 4, (1, 1): 6 - 2 / _A},
        MixedPoly(inv_sqrt5=(Fraction(2),)),
    ),
    ObjectiveId.F5: Objective(
        ObjectiveId.F5,
        {(4, 0): 4 / _A - 5, (2, 1): 12 - 6 / _A, (0, 2): Fraction(3)},
        MixedPoly(inv_sqrt5=(_F0, 6 - 2 / _A), inv_sqrt7=(Fraction(2),)),
    ),
    ObjectiveId.F6: Objective(
        ObjectiveId.F6, {(4, 0): _F1, (0, 2): Fraction(4)}, MixedPoly(inv_sqrt5=(_F0, Fraction(4)))
    ),
    ObjectiveId.F7: Objective(ObjectiveId.F7, {(2, 0): Fraction(1, 2), (0, 1): _F1}, MixedPoly()),
    ObjectiveId.F8: Objective(
        ObjectiveId.F8, {(3, 0): Fraction(1, 3), (1, 1): _F1}, MixedPoly(inv_sqrt5=(_F1,))
    ),
    ObjectiveId.F9: Objective(
        ObjectiveId.F9,
        {(4, 0): Fraction(1, 4), (2, 1): _F1, (0, 2): Fraction(1, 2)},
        MixedPoly(inv_sqrt5=(_F0, _F1), inv_sqrt7=(_F1,)),
    ),
}

#: f1 on y = 0, where the radicand is 1 - x^2; read only for perfbench
F1_FORM = OBJECTIVES[ObjectiveId.F1].restriction(EdgeId.Y_ZERO)


# -- fast directed-rounded range bounds for branch-and-bound ---------------------
#
# Every catalog objective has non-negative polynomial coefficients and a
# non-negative, non-decreasing linear radical multiplier, while the shared radicand
# decreases in both variables on the first quadrant.  Over a box
# [x1,x2] x [y1,y2] inside the region the range is therefore bounded by
# evaluating the monotone pieces at opposite corners, which matches the
# generic interval evaluation but avoids allocating intervals in the hot
# branch-and-bound loop.


@dataclass(frozen=True)
class MonotoneBounds:
    """Scalar lower/upper range bounds over first-quadrant boxes."""

    terms: PairTerms  # P, Px and Py, from `_prepared`
    dx_terms: PairTerms
    dy_terms: PairTerms
    m0: Pair  # M(0)
    m_lin: Pair  # the constant M'
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
                m = _add_up(self.m0[1], _mul_up(self.m_lin[1], x2))
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
                m = _add_down(self.m0[0], _mul_down(self.m_lin[0], x1))
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
        px_lo, px_hi = _corner_range(self.dx_terms, x1, x2, y1, y2)
        py_lo, py_hi = _corner_range(self.dy_terms, x1, x2, y1, y2)
        if not self.has_radical:
            return px_lo, px_hi, py_lo, py_hi, 1.0, 1.0

        r_hi = _add_up(_add_up(1.0, -_mul_down(x1, x1)), -_mul_down(3.0, _mul_down(y1, y1)))
        r_lo = _add_down(_add_down(1.0, -_mul_up(x2, x2)), -_mul_up(3.0, _mul_up(y2, y2)))
        sq_hi = _sqrt_up(max(r_hi, 0.0))
        sq_lo = _sqrt_down(max(r_lo, 0.0))
        m_hi = _add_up(self.m0[1], _mul_up(self.m_lin[1], x2))
        m_lo = _add_down(self.m0[0], _mul_down(self.m_lin[0], x1))

        # G1 = Px*sqrt(R) + M'*R - M*x  with M' >= 0
        t_hi = _mul_up(px_hi, sq_hi)
        t_hi = _add_up(t_hi, _mul_up(self.m_lin[1], r_hi) if r_hi >= 0.0 else _mul_up(self.m_lin[0], r_hi))
        g1_hi = _add_up(t_hi, -_mul_down(m_lo, x1))
        t_lo = _mul_down(px_lo, sq_lo)
        t_lo = _add_down(t_lo, _mul_down(self.m_lin[0], r_lo) if r_lo >= 0.0 else _mul_down(self.m_lin[1], r_lo))
        g1_lo = _add_down(t_lo, -_mul_up(m_hi, x2))

        # G2 = Py*sqrt(R) - 3*M*y
        g2_hi = _add_up(_mul_up(py_hi, sq_hi), -_mul_down(3.0, _mul_down(m_lo, y1)))
        g2_lo = _add_down(_mul_down(py_lo, sq_lo), -_mul_up(3.0, _mul_up(m_hi, y2)))
        return g1_lo, g1_hi, g2_lo, g2_hi, r_lo, r_hi


def _corner_range(terms: PairTerms, x1: float, x2: float, y1: float, y2: float) -> Pair:
    """A table with c >= 0 over a first-quadrant box: each term at the lower-left and upper-right corner."""
    lo = hi = 0.0
    for i, j, c_lo, c_hi in terms:
        if i:
            c_lo, c_hi = _mul_down(c_lo, _pow_down(x1, i)), _mul_up(c_hi, _pow_up(x2, i))
        if j:
            c_lo, c_hi = _mul_down(c_lo, _pow_down(y1, j)), _mul_up(c_hi, _pow_up(y2, j))
        lo, hi = _add_down(lo, c_lo), _add_up(hi, c_hi)
    return lo, hi


@lru_cache(maxsize=None)
def monotone_bounds(oid: ObjectiveId) -> MonotoneBounds:
    obj = OBJECTIVES[oid]
    if any(c < 0 for c in obj.poly.values()) or any(c < 0 for part in obj.mult.parts for c in part):
        raise ValueError(f"{oid} violates the monotone-coefficient assumption")

    prep = _prepared(oid)
    return MonotoneBounds(prep.p, prep.px, prep.py, mixed_pair(prep.mult.pairs, 0.0, 0.0), prep.m_lin,
                          obj.has_radical)


# -- the reduced stationarity equation of f2, whose root leaves the region --------

F2_REDUCED_POLY: RatPoly = (Fraction(14), Fraction(-78), Fraction(-126), Fraction(270))
