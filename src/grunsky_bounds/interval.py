"""Outward-rounded interval arithmetic.

Every operation returns an interval that contains the exact real-arithmetic
image of its operands.  Each endpoint is at most one ulp outside the directed
rounding of the exact result, and it is exact only where that is proven.

The scalar helpers round as follows:

- `_mul_*`, `_sqrt_*` and `_recip_*` take the round-to-nearest result and
  step one ulp outward with `math.nextafter` (Rump, Zimmermann, Boldo &
  Melquiond, "Computing predecessor and successor in rounding to nearest",
  BIT 49, 2009).  A round-to-nearest result is within half an ulp of the
  exact one, so the step is outward for normal, subnormal, underflowing and
  overflowing results alike.  A product with a zero operand is exact and is
  not stepped.
- `_add_*` compute the exact rounding error of the sum with TwoSum inline
  and step only when the sum rounded, so exact sums keep exact endpoints.
  The error is NaN when the sum overflows; the test then steps too.

The pair kernel `_mul_pair`, `_pow_pair`, `_sqrt_pair` and `_scale_pair`
works on plain (lo, hi) float pairs and builds no object.  `Interval.__mul__`,
`__pow__`, `sqrt_clamped` and `scale` are one-line wrappers of it, and the
zero searches of `optimize` call it directly, so both paths give the same
bits.  The searches run on flat boxes (lo_1, hi_1, lo_2, hi_2, ...);
`_checked` makes on such a box the check that `Interval` makes on each of its
results.  `_mul_pair` forms only the endpoint products its sign case needs
(two when either operand is one-signed, four when both straddle zero).
Round to nearest is monotone and so is the step, so the product with the
extreme exact value rounds to the extreme endpoint.  When an endpoint comes
out as zero, its sign can depend on which of several equal products is
taken, so the product is then formed from all four in the fixed order.

The evaluators of the objectives and their edge forms make no call per
operation.  `_horner_sum` (the sum of factor * Horner(coeffs, t) over a
table, for every edge form and M(x)) and `_terms_sum` (the sum of
c * x^i * y^j over a term table, on the powers that `_powers` forms once)
write each product and rounded sum out in one loop.  `_mul_text`,
`_add_text`, `_sqrt_text`, `_recip_text` and `_mul_pair_text` write the same
operations as source text, zero-operand rule and TwoSum test included, for
the straight-line code that `objectives` compiles.  A written-out product
takes the sign case of `_mul_pair` where the operands' signs name it and its
products are not zero, and calls `_mul_pair` otherwise, so every result has
the kernel's bits and the rounding rules live in this module alone.

General division is not provided.  The quotients in the toolkit are
1/sqrt(R) over boxes where the radicand R is strictly positive (in the true
gradient and Hessian of an objective, in the branch-and-bound centered form
and in the slope of an edge form) and 1/D' in the 1-D Newton step, over a
slope enclosure D' of one sign, which the step makes positive first.
`Interval.recip` therefore accepts strictly positive intervals only;
`_recip_up` and `_recip_down` are its directed-rounded scalar halves.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

_INF = math.inf
_NINF = -math.inf
_nextafter = math.nextafter


class NegativeRadicandError(ArithmeticError):
    """Radicand enclosure lies wholly below zero: every point of it is outside the domain."""


def _add_down(x: float, y: float) -> float:
    s = x + y
    bb = s - x
    if not (x - (s - bb)) + (y - bb) >= 0.0:
        return math.nextafter(s, -_INF)
    return s


def _add_up(x: float, y: float) -> float:
    s = x + y
    bb = s - x
    if not (x - (s - bb)) + (y - bb) <= 0.0:
        return math.nextafter(s, _INF)
    return s


def _mul_down(x: float, y: float) -> float:
    if x and y:
        return math.nextafter(x * y, -_INF)
    return x * y


def _mul_up(x: float, y: float) -> float:
    if x and y:
        return math.nextafter(x * y, _INF)
    return x * y


def _sqrt_down(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.nextafter(math.sqrt(x), -_INF)


def _sqrt_up(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.nextafter(math.sqrt(x), _INF)


def _recip_up(v: float) -> float:
    """Upward-rounded 1/v for v > 0."""
    return math.nextafter(1.0 / v, _INF)


def _recip_down(v: float) -> float:
    """Downward-rounded 1/v for v > 0."""
    return math.nextafter(1.0 / v, -_INF)


def _pow_down(x: float, n: int) -> float:
    """Downward-rounded x**n for x >= 0 and an integer n >= 0."""
    if n <= 1:
        # no loop for the common n = 1
        return x if n else 1.0
    r = x
    for _ in range(n - 1):
        r = _mul_down(r, x)
    return r


def _pow_up(x: float, n: int) -> float:
    """Upward-rounded x**n for x >= 0 and an integer n >= 0."""
    if n <= 1:
        # no loop for the common n = 1
        return x if n else 1.0
    r = x
    for _ in range(n - 1):
        r = _mul_up(r, x)
    return r


def _mul_pair(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """(lo, hi) of [a, b] * [c, d]."""
    # Round to nearest and the outward step are both monotone, so the
    # endpoint product named by the sign case rounds to the same float as
    # the min / max of all four.
    if a >= 0.0:
        if c >= 0.0:
            lo, hi = _mul_down(a, c), _mul_up(b, d)
        elif d <= 0.0:
            lo, hi = _mul_down(b, c), _mul_up(a, d)
        else:
            lo, hi = _mul_down(b, c), _mul_up(b, d)
    elif b <= 0.0:
        if c >= 0.0:
            lo, hi = _mul_down(a, d), _mul_up(b, c)
        elif d <= 0.0:
            lo, hi = _mul_down(b, d), _mul_up(a, c)
        else:
            lo, hi = _mul_down(a, d), _mul_up(a, c)
    elif c >= 0.0:
        lo, hi = _mul_down(a, d), _mul_up(b, d)
    elif d <= 0.0:
        lo, hi = _mul_down(b, c), _mul_up(a, c)
    else:
        lo = min(_mul_down(a, d), _mul_down(b, c))
        hi = max(_mul_up(a, c), _mul_up(b, d))
    if lo and hi:
        return lo, hi
    # A zero endpoint may be +0.0 or -0.0 depending on which of the equal
    # products is taken: keep the sign the four-product min / max gives.
    lo = min(_mul_down(a, c), _mul_down(a, d), _mul_down(b, c), _mul_down(b, d))
    hi = max(_mul_up(a, c), _mul_up(a, d), _mul_up(b, c), _mul_up(b, d))
    return lo, hi


def _horner_sum(parts: tuple[tuple[tuple[tuple[float, float], ...], tuple[float, float] | None], ...],
                lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) of the sum over parts (coeffs, factor) of factor * Horner(coeffs, [lo, hi]), from [0, 0].

    coeffs are the enclosed coefficients of a polynomial, highest power
    first, and a factor of None is 1.  Each Horner product, factor product
    and rounded sum is written out here, so a call runs no Python call per
    operation, and each gives the bits of `_mul_pair`, `_add_down` and
    `_add_up` in interval Horner's order.  Interval Horner starts from
    [0, 0]; its first step [0, 0]*t + c is c exactly for finite t, so the
    loop starts from the leading coefficient.  Where the multiplier's lower
    end is >= 0, as t is on every edge piece and every factor (1/sqrt3,
    1/sqrt5, 1/sqrt7) is, a product takes the two endpoint products that the
    signs of the other operand name, the case `_mul_pair` takes there.  A
    product that is 0 before or after its outward step falls back to
    `_mul_pair`, whose four-product rule settles the sign of a zero and an
    underflow; so does every product where t reaches below 0.
    """
    slo = shi = 0.0
    for coeffs, factor in parts:
        alo, ahi = coeffs[0]
        for clo, chi in coeffs[1:]:
            p = q = 0.0
            if lo >= 0.0:
                if alo >= 0.0:
                    p, q = alo * lo, ahi * hi
                elif ahi <= 0.0:
                    p, q = alo * hi, ahi * lo
                else:
                    p, q = alo * hi, ahi * hi
                if p and q:
                    p, q = _nextafter(p, _NINF), _nextafter(q, _INF)
            if not (p and q):
                p, q = _mul_pair(alo, ahi, lo, hi)
            alo = p + clo
            b = alo - p
            if not (p - (alo - b)) + (clo - b) >= 0.0:
                alo = _nextafter(alo, _NINF)
            ahi = q + chi
            b = ahi - q
            if not (q - (ahi - b)) + (chi - b) <= 0.0:
                ahi = _nextafter(ahi, _INF)
        if factor is not None:
            flo, fhi = factor
            p = q = 0.0
            if flo >= 0.0:
                if alo >= 0.0:
                    p, q = alo * flo, ahi * fhi
                elif ahi <= 0.0:
                    p, q = alo * fhi, ahi * flo
                else:
                    p, q = alo * fhi, ahi * fhi
                if p and q:
                    p, q = _nextafter(p, _NINF), _nextafter(q, _INF)
            if not (p and q):
                p, q = _mul_pair(alo, ahi, flo, fhi)
            alo, ahi = p, q
        s = slo + alo
        b = s - slo
        if not (slo - (s - b)) + (alo - b) >= 0.0:
            s = _nextafter(s, _NINF)
        slo = s
        s = shi + ahi
        b = s - shi
        if not (shi - (s - b)) + (ahi - b) <= 0.0:
            s = _nextafter(s, _INF)
        shi = s
    return slo, shi


def _powers(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    """[(1.0, 1.0), (lo, hi), ..., [lo, hi]**n], each power as `_pow_pair` forms it.

    Where lo >= 0, `_pow_pair` takes `_pow_down(lo, k)` and `_pow_up(hi, k)`,
    one product per further power, so each power here is one product on the
    one before.
    """
    out = [(1.0, 1.0), (lo, hi)]
    if lo >= 0.0:
        plo, phi = lo, hi
        for _ in range(n - 1):
            plo = _nextafter(plo * lo, _NINF) if plo and lo else plo * lo
            phi = _nextafter(phi * hi, _INF) if phi and hi else phi * hi
            out.append((plo, phi))
    else:
        out += [_pow_pair(lo, hi, k) for k in range(2, n + 1)]
    return out


def _terms_sum(terms: tuple[tuple[int, int, float, float], ...], xs: list[tuple[float, float]],
               ys: list[tuple[float, float]]) -> tuple[float, float]:
    """(lo, hi) of the sum over terms (i, j, c_lo, c_hi) of c * x^i * y^j, from [0, 0] in table order.

    xs[i] and ys[j] are x^i and y^j from `_powers`.  Each product and rounded
    sum is written out here, with the bits of `_mul_pair`, `_add_down` and
    `_add_up`.  Where both lower ends are >= 0, `_mul_pair` takes a*c and
    b*d, each stepped outward; this loop takes them too where the lower one
    is still > 0 after its step, which rules out a zero operand, an
    underflow and a step to 0, and calls `_mul_pair` otherwise.
    """
    slo = shi = 0.0
    for i, j, alo, ahi in terms:
        if i:
            flo, fhi = xs[i]
            p, q = _nextafter(alo * flo, _NINF), _nextafter(ahi * fhi, _INF)
            if not (p > 0.0 and alo >= 0.0 <= flo):
                p, q = _mul_pair(alo, ahi, flo, fhi)
            alo, ahi = p, q
        if j:
            flo, fhi = ys[j]
            p, q = _nextafter(alo * flo, _NINF), _nextafter(ahi * fhi, _INF)
            if not (p > 0.0 and alo >= 0.0 <= flo):
                p, q = _mul_pair(alo, ahi, flo, fhi)
            alo, ahi = p, q
        s = slo + alo
        b = s - slo
        if not (slo - (s - b)) + (alo - b) >= 0.0:
            s = _nextafter(s, _NINF)
        slo = s
        s = shi + ahi
        b = s - shi
        if not (shi - (s - b)) + (ahi - b) <= 0.0:
            s = _nextafter(s, _INF)
        shi = s
    return slo, shi


def _pow_pair(lo: float, hi: float, n: int) -> tuple[float, float]:
    """(lo, hi) of [lo, hi]**n for an integer n >= 0."""
    if n == 0:
        return 1.0, 1.0
    if n == 1:
        return lo, hi
    if n % 2 == 0:
        # even powers: analyse monotone pieces so [-1,1]**2 == [0,1]
        if lo >= 0.0:
            return _pow_down(lo, n), _pow_up(hi, n)
        if hi <= 0.0:
            return _pow_down(-hi, n), _pow_up(-lo, n)
        return 0.0, _pow_up(max(-lo, hi), n)
    return (_pow_down(lo, n) if lo >= 0.0 else -_pow_up(-lo, n),
            _pow_up(hi, n) if hi >= 0.0 else -_pow_down(-hi, n))


def _sqrt_pair(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) of sqrt([lo, hi] ∩ [0, inf)); see `Interval.sqrt_clamped`."""
    if hi < 0.0:
        raise NegativeRadicandError(f"radicand enclosure [{lo}, {hi}] is negative")
    return _sqrt_down(lo), _sqrt_up(hi)


def _scale_pair(lo: float, hi: float, s: float) -> tuple[float, float]:
    """(lo, hi) of [lo, hi] * s."""
    if s >= 0.0:
        return _mul_down(lo, s), _mul_up(hi, s)
    return _mul_down(hi, s), _mul_up(lo, s)


# The texts take names or float literals as operands, since they read each
# operand more than once.

#: the names the texts read, for the namespace their code runs in
TEXT_NAMES = {"_nextafter": math.nextafter, "_sqrt": math.sqrt, "_UP": _INF, "_DOWN": -_INF, "_mul_pair": _mul_pair}


def _mul_text(x: str, y: str, up: bool) -> str:
    """An expression for `_mul_up(x, y)`, or `_mul_down`."""
    test = x if x == y else f"{x} and {y}"
    return f"_nextafter({x} * {y}, {'_UP' if up else '_DOWN'}) if {test} else {x} * {y}"


def _add_text(s: str, x: str, y: str, up: bool) -> list[str]:
    """Statements that set the new name s to `_add_up(x, y)`, or `_add_down`."""
    return [f"{s} = {x} + {y}", f"_b = {s} - {x}",
            f"if not ({x} - ({s} - _b)) + ({y} - _b) {'<=' if up else '>='} 0.0: "
            f"{s} = _nextafter({s}, {'_UP' if up else '_DOWN'})"]


def _sqrt_text(x: str, up: bool) -> str:
    """An expression for `_sqrt_up(x)`, or `_sqrt_down`."""
    return f"0.0 if {x} <= 0.0 else _nextafter(_sqrt({x}), {'_UP' if up else '_DOWN'})"


def _recip_text(x: str, up: bool) -> str:
    """An expression for `_recip_up(x)`, or `_recip_down`."""
    return f"_nextafter(1.0 / {x}, {'_UP' if up else '_DOWN'})"


def _mul_pair_text(lo: str, hi: str, a: str, b: str, c: str, d: str) -> list[str]:
    """Statements that set the new names lo, hi to `_mul_pair(a, b, c, d)`.

    Where a >= 0 and c >= 0, `_mul_pair` takes a*c and b*d, each stepped
    outward.  The text takes them too where the lower one is still > 0
    after its step, which rules out a zero operand, an underflow and a step
    to 0, and calls `_mul_pair` otherwise.  No operand needs a known sign.
    """
    return [f"{lo}, {hi} = _nextafter({a} * {c}, _DOWN), _nextafter({b} * {d}, _UP)",
            f"if not ({lo} > 0.0 and {a} >= 0.0 <= {c}): {lo}, {hi} = _mul_pair({a}, {b}, {c}, {d})"]


# Interval +, - and * on (lo, hi) pairs, as `Interval` forms them.
def _add(p: tuple[float, float], q: tuple[float, float]) -> tuple[float, float]:
    return _add_down(p[0], q[0]), _add_up(p[1], q[1])


def _sub(p: tuple[float, float], q: tuple[float, float]) -> tuple[float, float]:
    return _add_down(p[0], -q[1]), _add_up(p[1], -q[0])


def _mul(p: tuple[float, float], q: tuple[float, float]) -> tuple[float, float]:
    return _mul_pair(*p, *q)


def _checked(box: tuple[float, ...]) -> tuple[float, ...]:
    """The flat box (lo_1, hi_1, lo_2, hi_2, ...), once no side has a NaN endpoint or lo > hi."""
    for k in range(0, len(box), 2):
        if not box[k] <= box[k + 1]:
            Interval(box[k], box[k + 1])  # raises the ValueError of that check
    return box


def _intervals(box: tuple[float, ...] | None) -> tuple[Interval, ...] | None:
    """The sides of a flat box as intervals; None for None."""
    return None if box is None else tuple(Interval(lo, hi) for lo, hi in zip(box[::2], box[1::2]))


class Interval:
    """Closed interval [lo, hi] with inclusion-correct arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:  # also false when either endpoint is NaN
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("NaN endpoint")
            raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v: float) -> Interval:
        return cls(v, v)

    @classmethod
    def from_fraction(cls, q: Fraction) -> Interval:
        """Tightest interval with float endpoints containing the rational q."""
        f = float(q)
        fq = Fraction(f)
        if fq == q:
            return cls(f, f)
        if fq > q:
            return cls(math.nextafter(f, -_INF), f)
        return cls(f, math.nextafter(f, _INF))

    @classmethod
    def from_root(cls, g: Callable[[Fraction], Fraction], guess: float) -> Interval:
        """Tightest interval with float endpoints containing the zero of g.

        g is increasing, rational on `Fraction` input, and has its zero near
        the float `guess`: step from guess to the floats on either side of it.
        """
        t = guess
        while g(Fraction(t)) > 0:
            t = math.nextafter(t, -_INF)
        while g(Fraction(t)) < 0:
            t = math.nextafter(t, _INF)
        return cls(t if g(Fraction(t)) == 0 else math.nextafter(t, -_INF), t)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Interval) -> Interval:
        return Interval(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    def __sub__(self, other: Interval) -> Interval:
        return Interval(_add_down(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: Interval) -> Interval:
        return Interval(*_mul_pair(self.lo, self.hi, other.lo, other.hi))

    def __pow__(self, n: int) -> Interval:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only small non-negative integer powers")
        return Interval(*_pow_pair(self.lo, self.hi, n))

    def scale(self, s: float) -> Interval:
        return Interval(*_scale_pair(self.lo, self.hi, s))

    def sqrt_clamped(self) -> Interval:
        """Enclosure of sqrt(self intersected with [0, inf)).

        Lower endpoints below zero are clamped: an enclosure of a radicand
        that vanishes at a boundary point reaches below zero by rounding, but
        holds the exact 0.  An interval wholly below zero holds no radicand of
        the domain and raises NegativeRadicandError.
        """
        return Interval(*_sqrt_pair(self.lo, self.hi))

    def recip(self) -> Interval:
        """Enclosure of 1/x over a strictly positive interval."""
        if self.lo <= 0.0:
            raise ValueError(f"reciprocal needs a strictly positive interval, got {self}")
        return Interval(_recip_down(self.hi), _recip_up(self.lo))

    # -- set operations and predicates ---------------------------------------

    def hull(self, other: Interval) -> Interval:
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersects(self, other: Interval) -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


def hull_of(intervals: list[Interval]) -> Interval:
    if not intervals:
        raise ValueError("empty hull")
    lo = min(iv.lo for iv in intervals)
    hi = max(iv.hi for iv in intervals)
    return Interval(lo, hi)


# Shared irrational constants, as the tightest float enclosures.
INV_SQRT3 = Interval.from_root(lambda t: 3 * t * t - 1, 1.0 / math.sqrt(3.0))
INV_SQRT5 = Interval.from_root(lambda t: 5 * t * t - 1, 1.0 / math.sqrt(5.0))
INV_SQRT7 = Interval.from_root(lambda t: 7 * t * t - 1, 1.0 / math.sqrt(7.0))
