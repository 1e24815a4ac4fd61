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
order, with no Python call per operation: each calls a function that
`_evaluator` compiles on its first call, once for each kind and every
objective, which sums the tables with `interval._terms_sum` and writes the
radical part out as straight-line code (edge forms run `interval._horner_sum`
on the tables of `poly`).  `MonotoneBounds` reads the same tables and
compiles them, on first call, to straight-line corner bounds.
The `*_pairs` forms return flat (lo, hi) pairs for the zero searches of
`optimize`, and `gradient_iv` wraps its pairs in `Interval`s.

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
from typing import Callable, NamedTuple

from .domain import CONSTANTS, EDGES, Edge, EdgeId
from .interval import (
    TEXT_NAMES, Interval, _add_down, _add_text, _add_up, _horner_sum, _intervals, _mul_down, _mul_pair,
    _mul_pair_text, _mul_text, _mul_up, _powers, _recip_down, _recip_text, _recip_up, _sqrt_pair, _sqrt_text,
    _terms_sum
)
from .poly import MixedPoly, Pair, RatPoly, rp_add, rp_deriv, rp_mul, rp_pairs, rp_pow, rp_scale

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
        """W, V (None when zero) and S as tables of `interval._horner_sum`; built on first evaluation."""
        return self.w.pairs, None if self.v.is_zero() else self.v.pairs, ((rp_pairs(self.s), None),)

    def _value_pair(self, lo: float, hi: float, sq: Pair | None = None) -> Pair:
        """W + V * sqrt(S) at the pair (lo, hi); `sq` is sqrt(S) there if the caller has it."""
        w, v, s = self._pairs
        olo, ohi = _horner_sum(w, lo, hi)
        if v is not None:
            vlo, vhi = _mul_pair(*_horner_sum(v, lo, hi), *(sq or _sqrt_pair(*_horner_sum(s, lo, hi))))
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
        slo, shi = _horner_sum(self._pairs[2], lo, hi)
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

    `dimension` is 1 for f1.  Only perfbench reads it, and its `precision`
    workload maximizes f1 on `F1_FORM` by `optimize.maximize_1d` directly;
    no row does either.  `SuiteContext.f1_extremum` stays only for
    perfbench's tracer, which patches it.
    """

    id: ObjectiveId
    poly: dict[tuple[int, int], Fraction]
    mult: MixedPoly
    dimension: int = 2

    @property
    def has_radical(self) -> bool:
        return not self.mult.is_zero()

    @property
    def nonnegative(self) -> bool:
        """No coefficient of P or M is negative, as `monotone_bounds` and the grid's sub-block bound need."""
        return all(c >= 0 for c in self.poly.values()) and all(c >= 0 for part in self.mult.parts for c in part)

    # -- evaluation -----------------------------------------------------------
    # Each method calls a straight-line function that `_evaluator` compiles on
    # its first call; only the results are `Interval`s.

    def value_iv(self, x: Interval, y: Interval) -> Interval:
        return Interval(*self._value(x.lo, x.hi, y.lo, y.hi))

    def gradient_pairs(self, x1: float, x2: float, y1: float, y2: float) -> tuple[float, ...] | None:
        """(fx_lo, fx_hi, fy_lo, fy_hi), the true gradient over the box; None unless the radicand is positive on it."""
        return self._gradient(x1, x2, y1, y2)

    def gradient_iv(self, x: Interval, y: Interval) -> tuple[Interval, Interval] | None:
        return _intervals(self.gradient_pairs(x.lo, x.hi, y.lo, y.hi))

    def hessian_pairs(self, x1: float, x2: float, y1: float, y2: float) -> tuple[float, ...] | None:
        """(fxx, fxy, fyy) over the box, each a (lo, hi) pair, flat; None unless the radicand is positive on it."""
        return self._hessian(x1, x2, y1, y2)

    @cached_property
    def _value(self) -> Callable[..., tuple[float, ...]]:
        return _evaluator(self.id, "value")

    @cached_property
    def _gradient(self) -> Callable[..., tuple[float, ...] | None]:
        return _evaluator(self.id, "gradient")

    @cached_property
    def _hessian(self) -> Callable[..., tuple[float, ...] | None]:
        return _evaluator(self.id, "hessian")

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


class _Prepared(NamedTuple):
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
    return _Prepared(*tables, obj.mult, _horner_sum(obj.mult.deriv().pairs, 0.0, 0.0))


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


# -- fast directed-rounded range bounds for the 2-D searches -------------------------
#
# Every catalog objective has non-negative polynomial coefficients and a
# non-negative, non-decreasing linear radical multiplier, while the shared radicand
# decreases in both variables on the first quadrant.  Over a box
# [x1,x2] x [y1,y2] inside the region the range is therefore bounded by
# evaluating the monotone pieces at opposite corners, which matches the
# generic interval evaluation but avoids allocating intervals in the hot
# search loops.


@dataclass(frozen=True)
class MonotoneBounds:
    """Scalar lower/upper range bounds over first-quadrant boxes.

    Each method calls a straight-line function that `_compiled` builds on
    the method's first call: the term loop unrolled, each power of a corner
    coordinate formed once, and every rounded product and sum written out
    in place by `interval`.  It runs the float operations of the loops that
    `tests/paper_formulas.py` keeps as the reference, in their order, so
    every bit matches them.  The methods stay on the class, where the tracer
    and the tests patch them.

    Only the catalog's `Fraction` tables reach `exec`, through
    `monotone_bounds`, which refuses a negative coefficient: the source is
    built from their (i, j) exponents and `interval`'s texts alone, and
    their enclosed coefficients are arguments, never text.  No outside input
    reaches it.
    """

    terms: PairTerms  # P, Px and Py, from `_prepared`
    dx_terms: PairTerms
    dy_terms: PairTerms
    m0: Pair  # M(0)
    m_lin: Pair  # the constant M'
    has_radical: bool

    def upper(self, x1: float, x2: float, y1: float, y2: float) -> float:
        return self._upper(x1, x2, y1, y2)

    def lower(self, x1: float, x2: float, y1: float, y2: float) -> float:
        return self._lower(x1, x2, y1, y2)

    def scaled_gradient_range(
        self, x1: float, x2: float, y1: float, y2: float
    ) -> tuple[float, float, float, float, float, float]:
        """Bounds for the radical-scaled gradient over a first-quadrant box.

        Returns (g1_lo, g1_hi, g2_lo, g2_hi, r_lo, r_hi) where [r_lo, r_hi]
        encloses the radicand range; the gradient bounds certify signs only
        where the radicand is positive.
        """
        return self._gradient_range(x1, x2, y1, y2)

    @cached_property
    def _upper(self) -> Callable[..., float]:
        return _compiled(self, "upper")

    @cached_property
    def _lower(self) -> Callable[..., float]:
        return _compiled(self, "lower")

    @cached_property
    def _gradient_range(self) -> Callable[..., tuple[float, ...]]:
        return _compiled(self, "gradient_range")


@lru_cache(maxsize=None)
def monotone_bounds(oid: ObjectiveId) -> MonotoneBounds:
    obj = OBJECTIVES[oid]
    if not obj.nonnegative:
        raise ValueError(f"{oid} violates the monotone-coefficient assumption")

    prep = _prepared(oid)
    return MonotoneBounds(prep.p, prep.px, prep.py, _horner_sum(prep.mult.pairs, 0.0, 0.0), prep.m_lin,
                          obj.has_radical)


# A range bound is compiled in two parts.  The sums of the term tables depend
# only on the (i, j) exponents of the three tables, so objectives of one shape
# (f2, f4 and f8; f3, f5 and f9) share one compile: its constants are the
# arguments of a factory, which returns the bound as a closure over them.  The
# radical part, from R = 1 - x^2 - 3*y^2 and M(x) = M(0) + M'*x, is the same
# for every objective, so it is compiled once for each bound and takes M(0)
# and M' as arguments.

_M_PARAMS = ("m0_lo", "m0_hi", "ml_lo", "ml_hi")


def _compiled(b: MonotoneBounds, kind: str) -> Callable:
    """The straight-line `kind` bound ("upper", "lower" or "gradient_range") of b's tables."""
    tables = (b.terms, b.dx_terms, b.dy_terms)
    shape = tuple(tuple((i, j) for i, j, _, _ in t) for t in tables)
    constants = [c for t in tables for _, _, lo, hi in t for c in (lo, hi)]
    return _factory(kind, shape, b.has_radical)(*constants, *b.m0, *b.m_lin)


@lru_cache(maxsize=None)
def _factory(kind: str, shape: tuple[tuple[tuple[int, int], ...], ...], has_radical: bool) -> Callable:
    """make(<c_lo, c_hi of each term of P, Px, Py>, *M(0), *M'), which returns the `kind` bound over them."""
    src = _Source()
    if kind == "gradient_range":
        sums = [_corner_sum(src, shape[t], t, up) for t in (1, 2) for up in (False, True)]
        plain = [*sums, "1.0", "1.0"]
    else:
        sums = plain = [_corner_sum(src, shape[0], 0, kind == "upper")]
    result = f"_radical(x1, x2, y1, y2, {', '.join(sums + list(_M_PARAMS))})" if has_radical else ", ".join(plain)
    params = [_coefficient(t, k, up) for t, table in enumerate(shape) for k in range(len(table))
              for up in (False, True)]
    return _make(kind, params + list(_M_PARAMS), src, result,
                 **({"_radical": _radical_tail(kind)} if has_radical else {}))


@lru_cache(maxsize=None)
def _radical_tail(kind: str) -> Callable:
    """The `kind` bound's radical part, from the corner sums of `_factory` and M(0), M' on."""
    src = _Source()
    if kind == "gradient_range":
        sums = ["px_lo", "px_hi", "py_lo", "py_hi"]
        result = ", ".join(_gradient_tail(src, *sums))
    else:
        sums = ["out"]
        result = _bound_tail(src, "out", kind == "upper")
    lines = [f"def {kind}({', '.join(['x1', 'x2', 'y1', 'y2', *sums, *_M_PARAMS])}):",
             *(f"    {line}" for line in src.lines), f"    return {result}"]
    return _define(lines, kind)


# An interval evaluator is compiled once for each kind, for every objective:
# `interval._terms_sum` sums its term tables in one loop, so only the radical
# part is straight-line code, and the factory takes the tables, M's table and
# M' as arguments.  Term sums compiled for each shape of the tables would run
# a little faster, but their compile, paid on every cold run, costs more than
# a run's few hundred calls save.

#: the `_Prepared` tables that each interval evaluator sums
_EVALUATOR_TABLES = {"value": ("p",), "gradient": ("px", "py"), "hessian": ("pxx", "pxy", "pyy")}


def _evaluator(oid: ObjectiveId, kind: str) -> Callable:
    """The `kind` evaluator ("value", "gradient" or "hessian") of the objective, compiled once per kind.

    It runs the operations of the interval formula in
    `tests/paper_formulas.py`, in its order, so each result has its bits:
    `interval._powers` forms each power of x and y once, `interval._terms_sum`
    sums each term table over them, and the radical part is straight-line
    code from `interval`'s texts.  Only `interval`'s texts and the kind's
    names reach `exec`; the tables, M and M' are arguments, never text.
    """
    prep = _prepared(oid)
    tables = [getattr(prep, name) for name in _EVALUATOR_TABLES[kind]]
    has_radical = not prep.mult.is_zero()
    # the radical part reads x^2 and y^2
    nx, ny = (max([2 * has_radical, *(term[k] for table in tables for term in table)]) for k in (0, 1))
    return _evaluator_factory(kind, has_radical)(*tables, nx, ny, prep.mult.pairs, *prep.m_lin)


@lru_cache(maxsize=None)
def _evaluator_factory(kind: str, has_radical: bool) -> Callable:
    """make(<the kind's tables>, nx, ny, M's table, *M'), which returns the `kind` evaluator over them."""
    src = _Source()
    tables = [f"t{k}" for k in range(len(_EVALUATOR_TABLES[kind]))]
    sums = [(f"s{k}_lo", f"s{k}_hi") for k in range(len(tables))]
    src.lines += ["xs, ys = _powers(x1, x2, nx), _powers(y1, y2, ny)",
                  *(f"{lo}, {hi} = _terms_sum({t}, xs, ys)" for t, (lo, hi) in zip(tables, sums))]
    out = _radical_part(src, kind, sums) if has_radical else sums
    return _make(kind, [*tables, "nx", "ny", "mult", "ml_lo", "ml_hi"], src,
                 ", ".join(name for pair in out for name in pair),
                 _powers=_powers, _terms_sum=_terms_sum, _horner_sum=_horner_sum, _sqrt_pair=_sqrt_pair)


def _radical_part(src: _Source, kind: str, sums: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The `kind` evaluator's results from the table sums, where f = P + M(x) * sqrt(R) has a radical."""
    src.lines += ["(xx_lo, xx_hi), (yy_lo, yy_hi) = xs[2], ys[2]", "m_lo, m_hi = _horner_sum(mult, x1, x2)"]
    x, y, xx, yy = ("x1", "x2"), ("y1", "y2"), ("xx_lo", "xx_hi"), ("yy_lo", "yy_hi")
    m, dm = ("m_lo", "m_hi"), ("ml_lo", "ml_hi")
    # R = (1 - x^2) - 3*y^2
    r = src.pair_sub(src.pair_sub(("1.0", "1.0"), xx), src.pair_scale(yy, "3.0"))
    if kind == "value":
        # f = P + M*sqrt(R); `_sqrt_pair` raises where R < 0 on the whole box
        src.lines.append(f"sq_lo, sq_hi = _sqrt_pair({r[0]}, {r[1]})")
        return [src.pair_add(sums[0], src.pair_mul(m, ("sq_lo", "sq_hi")))]
    src.lines.append(f"if {r[0]} <= 0.0: return None")
    sq = src.let(_sqrt_text(r[0], False)), src.let(_sqrt_text(r[1], True))
    u = src.let(_recip_text(sq[1], False)), src.let(_recip_text(sq[0], True))  # 1/sqrt(R)
    mul, sub, scale = src.pair_mul, src.pair_sub, src.pair_scale
    if kind == "gradient":
        # fx = Px + M'*sqrt(R) - M*x*u,  fy = Py - 3*M*y*u
        return [sub(src.pair_add(sums[0], mul(dm, sq)), mul(mul(m, x), u)),
                sub(sums[1], scale(mul(mul(m, y), u), "3.0"))]
    u3 = mul(mul(u, u), u)
    # fxx = Pxx - 2*M'*x*u - M*u - M*x^2*u^3
    fxx = sub(sub(sub(sums[0], scale(mul(mul(dm, x), u), "2.0")), mul(m, u)), mul(mul(m, xx), u3))
    # fxy = Pxy - 3*M'*y*u - 3*M*x*y*u^3
    fxy = sub(sub(sums[1], scale(mul(mul(dm, y), u), "3.0")), scale(mul(mul(mul(m, x), y), u3), "3.0"))
    # fyy = Pyy - 3*M*(u + 3*y^2*u^3)
    fyy = sub(sums[2], scale(mul(m, src.pair_add(u, scale(mul(yy, u3), "3.0"))), "3.0"))
    return [fxx, fxy, fyy]


def _make(kind: str, params: list[str], src: _Source, result: str, **names: object) -> Callable:
    """make(*params), which returns kind(x1, x2, y1, y2): src's lines, then `return result`."""
    lines = [f"def make({', '.join(params)}):", f"    def {kind}(x1, x2, y1, y2):",
             *(f"        {line}" for line in src.lines), f"        return {result}", f"    return {kind}"]
    return _define(lines, "make", **names)


def _define(lines: list[str], name: str, **names: object) -> Callable:
    """The function `name` that the source lines define, with `interval`'s names and `names` as globals."""
    namespace = dict(TEXT_NAMES, **names)
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


def _coefficient(table: int, k: int, up: bool) -> str:
    """The parameter that holds c_hi (up) or c_lo of term k of table 0 (P), 1 (Px) or 2 (Py)."""
    return f"c{table}_{k}_{'hi' if up else 'lo'}"


class _Source:
    """Straight-line statements, each rounded operation written once on a fresh name."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._names: dict[object, str] = {}

    def _new(self, key: object, lines: Callable[[str], list[str]]) -> str:
        if key not in self._names:
            name = self._names[key] = f"v{len(self._names)}"
            self.lines += lines(name)
        return self._names[key]

    def let(self, text: str) -> str:
        return self._new(text, lambda name: [f"{name} = {text}"])

    def mul(self, x: str, y: str, up: bool) -> str:
        return self.let(_mul_text(x, y, up))

    def add(self, x: str, y: str, up: bool) -> str:
        return self._new(("+", x, y, up), lambda name: _add_text(name, x, y, up))

    def pair_mul(self, p: tuple[str, str], q: tuple[str, str]) -> tuple[str, str]:
        name = self._new(("*", p, q), lambda name: _mul_pair_text(f"{name}_lo", f"{name}_hi", *p, *q))
        return f"{name}_lo", f"{name}_hi"

    def pair_add(self, p: tuple[str, str], q: tuple[str, str]) -> tuple[str, str]:
        return self.add(p[0], q[0], False), self.add(p[1], q[1], True)

    def pair_sub(self, p: tuple[str, str], q: tuple[str, str]) -> tuple[str, str]:
        return self.add(p[0], f"-{q[1]}", False), self.add(p[1], f"-{q[0]}", True)

    def pair_scale(self, p: tuple[str, str], s: str) -> tuple[str, str]:
        """p times the literal s >= 0, as `_scale_pair` forms it."""
        return self.mul(p[0], s, False), self.mul(p[1], s, True)

    def pow(self, x: str, n: int, up: bool) -> str:
        """x**n as `_pow_up` (or `_pow_down`) forms it: x, then one product per further power."""
        r = x
        for _ in range(n - 1):
            r = self.mul(r, x, up)
        return r


def _corner_sum(src: _Source, shape: tuple[tuple[int, int], ...], table: int, up: bool) -> str:
    """The table at the upper-right corner with c_hi (up), or at the lower-left with c_lo, summed from 0.0."""
    x, y = ("x2", "y2") if up else ("x1", "y1")
    out = "0.0"
    for k, (i, j) in enumerate(shape):
        c = _coefficient(table, k, up)
        if i:
            c = src.mul(c, src.pow(x, i, up), up)
        if j:
            c = src.mul(c, src.pow(y, j, up), up)
        out = src.add(out, c, up)
    return out


def _corner_radicand(src: _Source, up: bool) -> str:
    """R = 1 - x^2 - 3*y^2 at the corner where it is largest (up: x1, y1) or smallest."""
    x, y = ("x1", "y1") if up else ("x2", "y2")
    x2 = src.mul(x, x, not up)
    y2 = src.mul("3.0", src.mul(y, y, not up), not up)
    return src.add(src.add("1.0", f"-{x2}", up), f"-{y2}", up)


def _corner_multiplier(src: _Source, up: bool) -> str:
    """M(x) = M(0) + M'*x at x2 (up) or x1."""
    return src.add("m0_hi", src.mul("ml_hi", "x2", True), True) if up else \
        src.add("m0_lo", src.mul("ml_lo", "x1", False), False)


def _bound_tail(src: _Source, out: str, up: bool) -> str:
    """`MonotoneBounds.upper` (up) or `lower` from P's corner sum: plus M*sqrt(R) where that R > 0."""
    r = _corner_radicand(src, up)
    src.lines.append(f"if not {r} > 0.0: return {out}")
    return src.add(out, src.mul(_corner_multiplier(src, up), src.let(_sqrt_text(r, up)), up), up)


def _gradient_tail(src: _Source, px_lo: str, px_hi: str, py_lo: str, py_hi: str) -> list[str]:
    """`MonotoneBounds.scaled_gradient_range` from the corner sums of Px and Py."""
    r_lo, r_hi = _corner_radicand(src, False), _corner_radicand(src, True)
    # _sqrt_* is 0.0 for every r <= 0, so it takes R as it is where R reaches below 0
    sq_lo, sq_hi = src.let(_sqrt_text(r_lo, False)), src.let(_sqrt_text(r_hi, True))
    m_lo, m_hi = _corner_multiplier(src, False), _corner_multiplier(src, True)

    def m_lin_r(r: str, up: bool) -> str:
        # M'*R with M' >= 0: the end of M' that R's sign calls for
        near, far = ("ml_hi", "ml_lo") if up else ("ml_lo", "ml_hi")
        return src.let(f"({_mul_text(near, r, up)}) if {r} >= 0.0 else ({_mul_text(far, r, up)})")

    # G1 = Px*sqrt(R) + M'*R - M*x
    g1_hi = src.add(src.add(src.mul(px_hi, sq_hi, True), m_lin_r(r_hi, True), True),
                    f"-{src.mul(m_lo, 'x1', False)}", True)
    g1_lo = src.add(src.add(src.mul(px_lo, sq_lo, False), m_lin_r(r_lo, False), False),
                    f"-{src.mul(m_hi, 'x2', True)}", False)
    # G2 = Py*sqrt(R) - 3*M*y
    g2_hi = src.add(src.mul(py_hi, sq_hi, True), f"-{src.mul('3.0', src.mul(m_lo, 'y1', False), False)}", True)
    g2_lo = src.add(src.mul(py_lo, sq_lo, False), f"-{src.mul('3.0', src.mul(m_hi, 'y2', True), True)}", False)
    return [g1_lo, g1_hi, g2_lo, g2_hi, r_lo, r_hi]


# -- the reduced stationarity equation of f2, whose root leaves the region --------

F2_REDUCED_POLY: RatPoly = (Fraction(14), Fraction(-78), Fraction(-126), Fraction(270))
