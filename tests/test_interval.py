"""Interval arithmetic: exactness, inclusion against a rational oracle, monotonicity."""

import math
import random
import sys
from fractions import Fraction

import pytest

from grunsky_bounds.interval import (
    Interval,
    NegativeRadicandError,
    _add_down,
    _add_up,
    _mul_down,
    _mul_up,
    _pow_down,
    _pow_up,
    _recip_down,
    _recip_up,
    _sqrt_down,
    _sqrt_up,
    hull_of,
)


def test_add_exact_endpoints():
    assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)


def test_add_identity():
    v = Interval(-0.75, 1.25)
    assert Interval(0, 0) + v == v


def test_add_outward_rounding_encloses_decimal_sum():
    s = Interval(0.1, 0.1) + Interval(0.2, 0.2)
    exact = Fraction(1, 10) + Fraction(2, 10)
    assert Fraction(s.lo) <= exact <= Fraction(s.hi)
    assert s.width <= 2 * math.ulp(0.3)


def test_mul_sign_cases():
    # each endpoint is one product, rounded to nearest and stepped outward
    assert Interval(-1, 2) * Interval(3, 4) == Interval(math.nextafter(-4.0, -math.inf), math.nextafter(8.0, math.inf))


def test_mul_annihilator():
    assert Interval(0, 0) * Interval(-3.5, 7.25) == Interval(0, 0)


def test_pow_even_tightening():
    # a square over an interval that straddles zero starts at 0 exactly
    for iv, lo, hi in ((Interval(-1, 1), 0, 1), (Interval(-2, 1), 0, 4), (Interval(-2, -1), 1, 4)):
        sq = iv**2
        _assert_outward(sq.lo, sq.hi, Fraction(lo), Fraction(hi))
        if lo == 0:
            assert sq.lo == 0.0


def test_pow_odd_preserves_sign():
    # a cube is two products, each at most one step outside its directed rounding
    cube = Interval(-2, 3) ** 3
    assert -8.0 - 4 * math.ulp(8.0) <= cube.lo < -8.0 < 27.0 < cube.hi <= 27.0 + 4 * math.ulp(27.0)


def test_width_and_hull():
    assert Interval(1, 4).width == 3
    assert Interval(0, 1).hull(Interval(2, 3)) == Interval(0, 3)
    assert hull_of([Interval(0, 1), Interval(-1, 0.5)]) == Interval(-1, 1)


def test_sqrt_exact():
    # an exact square root is stepped outward too; only a zero radicand stays exact
    assert Interval(4, 9).sqrt_clamped() == Interval(math.nextafter(2.0, -math.inf), math.nextafter(3.0, math.inf))
    assert Interval(0, 0).sqrt_clamped() == Interval(0, 0)


def test_sqrt_clamp_rule():
    # an enclosure that holds 0 is clamped there, however far below 0 it reaches
    s = Interval(-1e-15, 1e-15).sqrt_clamped()
    assert s.lo == 0.0
    assert abs(s.hi - math.sqrt(1e-15)) <= math.ulp(s.hi)
    assert Interval(-1.0, 0.0).sqrt_clamped() == Interval(0.0, 0.0)
    # one wholly below 0 raises, however near 0 it ends
    for lo, hi in ((-1e-12, -1e-15), (-1e-12, -1e-12), (-1e-300, -5e-324)):
        with pytest.raises(NegativeRadicandError):
            Interval(lo, hi).sqrt_clamped()


def test_sqrt_rejects_genuinely_negative():
    with pytest.raises(NegativeRadicandError):
        Interval(-1.0, -0.5).sqrt_clamped()


def test_sqrt_clamped_square_covers_clamped_point():
    # a point below 0 raises (test_sqrt_clamp_rule); an enclosure that reaches below 0 is clamped at 0
    for lo, hi in ((-1e-13, 0.0), (-1e-13, 1e-13), (0.0, 0.0), (1e-13, 1e-13), (0.5, 0.5), (2.0, 2.0)):
        sq = Interval(lo, hi).sqrt_clamped() ** 2
        assert sq.lo <= max(lo, 0.0) and hi <= sq.hi


def test_from_fraction_tight():
    q = Fraction(297, 400)
    iv = Interval.from_fraction(q)
    assert Fraction(iv.lo) <= q <= Fraction(iv.hi)
    assert iv.width <= math.ulp(0.7425)
    exact = Interval.from_fraction(Fraction(3, 4))
    assert exact.lo == exact.hi == 0.75


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _random_interval(rng: random.Random) -> tuple[Interval, Fraction, Fraction]:
    a, b = sorted((_random_fraction(rng), _random_fraction(rng)))
    iv = Interval(math.nextafter(float(a), -math.inf), math.nextafter(float(b), math.inf))
    return iv, a, b


def test_inclusion_against_rational_oracle():
    """Exact rational results of s+t, s-t, s*t, s**2 stay inside interval results."""
    rng = random.Random(20240809)
    checks = 0
    for _ in range(25_000):
        u, ua, ub = _random_interval(rng)
        v, va, vb = _random_interval(rng)
        s = ua + (ub - ua) * Fraction(rng.randint(0, 64), 64)
        t = va + (vb - va) * Fraction(rng.randint(0, 64), 64)
        for op, exact in (
            (u + v, s + t),
            (u - v, s - t),
            (u * v, s * t),
            (u**2, s * s),
        ):
            assert Fraction(op.lo) <= exact <= Fraction(op.hi)
            checks += 1
    assert checks == 100_000


def test_sqrt_inclusion_against_rational_oracle():
    rng = random.Random(7)
    for _ in range(5_000):
        q = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
        iv = Interval.from_fraction(q).sqrt_clamped()
        assert Fraction(iv.lo) ** 2 <= q <= Fraction(iv.hi) ** 2


def test_monotonicity_of_operations():
    """u in u', v in v' implies op(u,v) in op(u',v')."""
    rng = random.Random(99)
    for _ in range(2_000):
        lo = rng.uniform(-10, 10)
        hi = lo + rng.uniform(0, 5)
        u_big = Interval(lo, hi)
        shrink = rng.uniform(0, (hi - lo) / 2)
        u_small = Interval(lo + shrink, hi - shrink)
        lo2 = rng.uniform(-10, 10)
        hi2 = lo2 + rng.uniform(0, 5)
        v_big = Interval(lo2, hi2)
        shrink2 = rng.uniform(0, (hi2 - lo2) / 2)
        v_small = Interval(lo2 + shrink2, hi2 - shrink2)
        pairs = [(u_big, u_small), (u_big + v_big, u_small + v_small), (u_big - v_big, u_small - v_small),
                 (u_big * v_big, u_small * v_small), (u_big**3, u_small**3)]
        for big, small in pairs:
            assert big.lo <= small.lo and small.hi <= big.hi


def test_recip_encloses_exact_reciprocal():
    rng = random.Random(2718)
    for _ in range(5_000):
        lo = rng.uniform(1e-6, 1e3)
        iv = Interval(lo, lo + rng.uniform(0, 10))
        r = iv.recip()
        assert Fraction(r.lo) <= 1 / Fraction(iv.hi)
        assert 1 / Fraction(iv.lo) <= Fraction(r.hi)
        _assert_outward(r.lo, r.hi, 1 / Fraction(iv.hi), 1 / Fraction(iv.lo))
    assert Interval(2.0, 4.0).recip() == Interval(math.nextafter(0.25, -math.inf), math.nextafter(0.5, math.inf))


def test_recip_rejects_non_positive():
    for iv in (Interval(0.0, 1.0), Interval(-1.0, 1.0), Interval(-2.0, -1.0)):
        with pytest.raises(ValueError):
            iv.recip()


def test_scale_directions():
    v = Interval(1, 2).scale(-3.0)
    assert v.lo <= -6 <= -3 <= v.hi
    w = Interval(0.1, 0.1).scale(3.0)
    assert Fraction(w.lo) <= Fraction(1, 10) * 3 <= Fraction(w.hi)


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1)


# -- directed scalar helpers against exact rational arithmetic -----------------

# operands whose results are exact, powers of two, ties under round-to-nearest
# (1 + 2**-53, 3 * (1 + 2**-52), (2**27 + 1) * (2**27 - 1)) and signed zeros
_ADVERSARIAL = [
    0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -3.0, 2.0**-53, -(2.0**-53), 2.0**-52,
    1.0 + 2.0**-52, -(1.0 + 2.0**-52), 2.0**27 + 1.0, 2.0**27 - 1.0, 0.1, 0.2,
    0.3, 1.5, 2.25, 1e-3, -7.75, 2.0**40, 2.0**-40, 4.0 - 2.0**-50,
]


def _random_operands(seed: int, count: int) -> list[float]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        mant = rng.uniform(0.5, 1.0) if rng.random() < 0.8 else rng.randint(1, 2**20) / 2**20
        out.append(rng.choice((-1.0, 1.0)) * math.ldexp(mant, rng.randint(-60, 60)))
    return out


def _assert_directed(down: float, up: float, exact: Fraction) -> None:
    """down is the largest float <= exact and up the smallest float >= exact."""
    assert Fraction(down) <= exact <= Fraction(up)
    assert Fraction(math.nextafter(down, math.inf)) > exact
    assert Fraction(math.nextafter(up, -math.inf)) < exact
    if Fraction(float(exact)) == exact:
        assert down == up == float(exact)


_MAX = sys.float_info.max


def _directed(q: Fraction) -> tuple[float, float]:
    """The largest float <= q and the smallest float >= q, +-inf beyond the range."""
    if q > _MAX:
        return _MAX, math.inf
    if q < -_MAX:
        return -math.inf, -_MAX
    iv = Interval.from_fraction(q)
    return iv.lo, iv.hi


def _sqrt_directed(x: float) -> tuple[float, float]:
    """The directed roundings of sqrt(x), x >= 0, from an integer square root.

    s = isqrt(floor(x * 4**k)) gives s/2**k <= sqrt(x) < (s + 1)/2**k.  With
    k >= 1074 every float is a multiple of 2**-k, so no float lies strictly
    between the two bounds.
    """
    k = 1100
    q = Fraction(x)
    n = q.numerator << (2 * k)
    s = math.isqrt(n // q.denominator)
    rd, ru = _directed(Fraction(s, 1 << k))
    if s * s * q.denominator == n:
        return rd, ru
    return rd, math.nextafter(rd, math.inf)


def _assert_steps(down: float, up: float, rd: float, ru: float) -> None:
    """down is rd or the float below it; up is ru or the float above it."""
    assert down in (rd, math.nextafter(rd, -math.inf)), (down, rd)
    assert up in (ru, math.nextafter(ru, math.inf)), (up, ru)


def _assert_outward(down: float, up: float, exact: Fraction, exact_hi: Fraction | None = None) -> None:
    """down <= exact <= up (exact_hi for up when given), each the directed
    rounding of its exact value or the float one step further out."""
    _assert_steps(down, up, _directed(exact)[0], _directed(exact if exact_hi is None else exact_hi)[1])


def _operand_pairs():
    pool = _ADVERSARIAL + _random_operands(31, 60)
    rng = random.Random(32)
    pairs = [(x, y) for x in _ADVERSARIAL for y in _ADVERSARIAL]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(4_000)]
    return pairs


def test_add_helpers_round_in_their_direction():
    for x, y in _operand_pairs():
        _assert_directed(_add_down(x, y), _add_up(x, y), Fraction(x) + Fraction(y))
    assert _add_up(1.0, 2.0**-53) == math.nextafter(1.0, math.inf)  # tie rounds to even
    assert _add_down(1.0, 2.0**-53) == 1.0


def test_mul_helpers_round_in_their_direction():
    for x, y in _operand_pairs():
        down, up = _mul_down(x, y), _mul_up(x, y)
        _assert_outward(down, up, Fraction(x) * Fraction(y))
        if not (x and y):
            assert down == up == 0.0  # a zero operand makes the product exact
    tie = (2.0**27 + 1.0, 2.0**27 - 1.0)  # exact product 2**54 - 1 is halfway, rounds to 2**54
    assert (_mul_down(*tie), _mul_up(*tie)) == (2.0**54 - 2.0, 2.0**54 + 4.0)


def test_sqrt_helpers_round_in_their_direction():
    pool = [abs(x) for x in _ADVERSARIAL + _random_operands(33, 3_000)]
    for x in pool:
        down, up = _sqrt_down(x), _sqrt_up(x)
        _assert_steps(down, up, *_sqrt_directed(x))
        assert Fraction(down) ** 2 <= Fraction(x) <= Fraction(up) ** 2
    assert (_sqrt_down(2.25), _sqrt_up(2.25)) == (math.nextafter(1.5, -math.inf), math.nextafter(1.5, math.inf))
    assert _sqrt_down(-1.0) == _sqrt_up(-0.0) == 0.0


def test_pow_helpers_round_in_their_direction():
    pool = [abs(x) for x in _ADVERSARIAL + _random_operands(35, 500)]
    for x in pool:
        assert _pow_down(x, 0) == _pow_up(x, 0) == 1.0  # x**0 is 1, also for x = 0
        assert _pow_down(x, 1) == _pow_up(x, 1) == x
        for n in (2, 3, 5):
            down, up = _pow_down(x, n), _pow_up(x, n)
            assert Fraction(down) <= Fraction(x) ** n <= Fraction(up)


def test_recip_helpers_round_in_their_direction():
    pool = [abs(x) for x in _ADVERSARIAL + _random_operands(34, 3_000) if x != 0.0]
    for v in pool:
        _assert_outward(_recip_down(v), _recip_up(v), 1 / Fraction(v))


def test_helpers_stay_outward_when_the_split_overflows():
    # operands near the top of the float range
    x, y = 1.1 * 2.0**1000, 1.0 + 2.0**-52
    w = Interval(x, x) * Interval(y, y)
    assert Fraction(w.lo) <= Fraction(x) * Fraction(y) <= Fraction(w.hi)
    rng = random.Random(37)
    for _ in range(500):
        big = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(997, 1022))
        small = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
        for down, up, exact in (
            (_mul_down(big, small), _mul_up(big, small), Fraction(big) * Fraction(small)),
            (_recip_down(big), _recip_up(big), 1 / Fraction(big)),
        ):
            assert Fraction(down) <= exact <= Fraction(up)
            # at most one ulp looser than directed rounding on each side
            assert math.nextafter(down, math.inf) >= math.nextafter(up, -math.inf)


def _tiny_float(rng: random.Random, lo_exp: int, hi_exp: int) -> float:
    return rng.choice((-1.0, 1.0)) * math.ldexp(rng.uniform(0.5, 1.0), rng.randint(lo_exp, hi_exp))


def test_helpers_stay_outward_when_the_product_underflows():
    # products and radicands far below 2**-969, where the rounding error of a
    # product (a multiple of ulp(x)*ulp(y)) is no longer a float
    x, y = 7.377944167289668e-147, 5.646738039741869e-169
    w = Interval(x, x) * Interval(y, y)
    assert Fraction(w.lo) <= Fraction(x) * Fraction(y) <= Fraction(w.hi)
    rng = random.Random(39)
    for _ in range(3_000):
        x, y = _tiny_float(rng, -700, -300), _tiny_float(rng, -700, -300)
        down, up, exact = _mul_down(x, y), _mul_up(x, y), Fraction(x) * Fraction(y)
        assert Fraction(down) <= exact <= Fraction(up), (x, y)
        assert math.nextafter(down, math.inf) >= math.nextafter(up, -math.inf)
        r = abs(_tiny_float(rng, -1074, -969))
        down, up = _sqrt_down(r), _sqrt_up(r)
        assert Fraction(down) ** 2 <= Fraction(r) <= Fraction(up) ** 2, r
        assert math.nextafter(down, math.inf) >= math.nextafter(up, -math.inf)
    assert _mul_down(0.0, 2.0**-1000) == _mul_up(-(2.0**-1000), 0.0) == 0.0


def test_helpers_stay_one_step_outward_around_the_underflow_threshold():
    # products and radicands on both sides of 2**-969, the smallest magnitude
    # at which the rounding error of a product is still a float; subnormal
    # operands included
    rng = random.Random(40)
    checked = 0
    while checked < 3_000:
        ex = rng.randint(-1073, 1000)
        ey = rng.randint(-990, -950) - ex
        if ey < -1073 or ey > 1000:
            continue
        x, y = _tiny_float(rng, ex, ex), _tiny_float(rng, ey, ey)
        checked += 1
        _assert_outward(_mul_down(x, y), _mul_up(x, y), Fraction(x) * Fraction(y))
        r = math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-990, -940))
        _assert_steps(_sqrt_down(r), _sqrt_up(r), *_sqrt_directed(r))


def _subnormal(rng: random.Random) -> float:
    return math.ldexp(rng.randint(1, 2**52 - 1), -1074)


def test_kernel_against_fraction_oracle():
    """Every scalar helper against exact rational arithmetic, across the range.

    Products and sums: normal operands, subnormal products, products that
    underflow to zero, operands of at least 2**996, products and sums that
    overflow, signed zeros and exact products.  Square roots and reciprocals:
    normal, subnormal and huge operands, and exact roots.
    """
    rng = random.Random(41)
    pairs = [(_tiny_float(rng, -60, 60), _tiny_float(rng, -60, 60)) for _ in range(1_000)]
    for lo, hi in ((-1072, -1023), (-1200, -1077)):
        for _ in range(1_000):
            ex = rng.randint(-700, -400)
            pairs.append((_tiny_float(rng, ex, ex), _tiny_float(rng, lo - ex, hi - ex)))
    pairs += [(_tiny_float(rng, 997, 1024), _tiny_float(rng, -30, 30)) for _ in range(1_000)]
    huge = [_tiny_float(rng, 1023, 1024) for _ in range(600)]
    pairs += [(v, math.copysign(w, v)) for v, w in zip(huge, huge[::-1])]
    pairs += [(_subnormal(rng), _tiny_float(rng, -30, 30)) for _ in range(300)]
    others = [x for pair in pairs[::10] for x in pair]
    pairs += [(z, v) for z in (0.0, -0.0) for v in others] + [(v, -0.0) for v in others]
    pairs += [(math.ldexp(1.0, rng.randint(-60, 60)), v) for v in others]
    pairs += [(float(i), float(j)) for i in range(-9, 10) for j in range(1, 30)]
    seen = {"subnormal": 0, "underflow": 0, "overflow": 0, "sum overflow": 0}
    for x, y in pairs:
        exact = Fraction(x) * Fraction(y)
        down, up = _mul_down(x, y), _mul_up(x, y)
        _assert_outward(down, up, exact)
        if exact == 0:
            assert down == up == 0.0
        # TwoSum finds the exact error, so sums are the directed roundings
        assert (_add_down(x, y), _add_up(x, y)) == _directed(Fraction(x) + Fraction(y))
        seen["subnormal"] += 0 < abs(exact) < 2.0**-1022
        seen["underflow"] += exact != 0 and x * y == 0.0
        seen["overflow"] += math.isinf(x * y)
        seen["sum overflow"] += math.isinf(x + y)
    assert min(seen.values()) >= 100, seen

    singles = [abs(_tiny_float(rng, -60, 60)) for _ in range(1_000)]
    singles += [_subnormal(rng) for _ in range(500)]
    singles += [abs(_tiny_float(rng, 997, 1024)) for _ in range(500)]
    singles += [float(k * k) for k in range(1, 100)] + [math.ldexp(1.0, 2 * k) for k in range(-537, 512)]
    for v in singles:
        _assert_steps(_sqrt_down(v), _sqrt_up(v), *_sqrt_directed(v))
        _assert_outward(_recip_down(v), _recip_up(v), 1 / Fraction(v))
    assert _sqrt_down(0.0) == _sqrt_up(-0.0) == 0.0

    # roots whose float square rounds back to the radicand, though inexact
    for x in (0.1, 1.4030927323372038, 3.542301210811698):
        r = math.sqrt(x)
        assert r * r == x and Fraction(r) ** 2 != Fraction(x)
        down, up = _sqrt_down(x), _sqrt_up(x)
        assert Fraction(down) ** 2 < Fraction(x) < Fraction(up) ** 2
        _assert_steps(down, up, *_sqrt_directed(x))


# -- sign-split interval product against the four-product reference --------------


def _four_product(u: Interval, v: Interval) -> tuple[str, str]:
    a, b, c, d = u.lo, u.hi, v.lo, v.hi
    lo = min(_mul_down(a, c), _mul_down(a, d), _mul_down(b, c), _mul_down(b, d))
    hi = max(_mul_up(a, c), _mul_up(a, d), _mul_up(b, c), _mul_up(b, d))
    return lo.hex(), hi.hex()


def _sign_class(iv: Interval) -> str:
    if iv.lo >= 0.0:
        return "pos"
    return "neg" if iv.hi <= 0.0 else "mixed"


def test_mul_matches_four_product_reference_bitwise():
    ends = [-3.0, -1.5, -(1.0 + 2.0**-52), -0.1, -0.0, 0.0, 0.1, 0.75, 1.0 + 2.0**-52, 2.0]
    ends += _random_operands(35, 6)
    intervals = [Interval(a, b) for a in ends for b in ends if a <= b]
    rng = random.Random(36)
    for _ in range(100):
        a, b = sorted(rng.choice(ends) * rng.uniform(0.5, 2.0) for _ in range(2))
        intervals.append(Interval(a, b))
    cases = set()
    for u in intervals:
        for v in intervals:
            w = u * v
            assert (w.lo.hex(), w.hi.hex()) == _four_product(u, v), (u, v)
            cases.add((_sign_class(u), _sign_class(v)))
    assert len(cases) == 9
    assert (Interval(-0.0, 0.0) * Interval(1.0, 2.0)).hi.hex() == "-0x0.0p+0"
