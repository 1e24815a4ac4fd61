"""Interval arithmetic: exactness, inclusion against a rational oracle, monotonicity."""

import math
import random
from fractions import Fraction

import pytest

from grunsky_bounds.interval import (
    CLAMP_TOL,
    Interval,
    NegativeRadicandError,
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
    assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)


def test_mul_annihilator():
    assert Interval(0, 0) * Interval(-3.5, 7.25) == Interval(0, 0)


def test_pow_even_tightening():
    assert Interval(-1, 1) ** 2 == Interval(0, 1)
    assert Interval(-2, 1) ** 2 == Interval(0, 4)
    assert Interval(-2, -1) ** 2 == Interval(1, 4)


def test_pow_odd_preserves_sign():
    assert Interval(-2, 3) ** 3 == Interval(-8, 27)


def test_width_and_hull():
    assert Interval(1, 4).width == 3
    assert Interval(0, 1).hull(Interval(2, 3)) == Interval(0, 3)
    assert hull_of([Interval(0, 1), Interval(-1, 0.5)]) == Interval(-1, 1)


def test_sqrt_exact():
    assert Interval(4, 9).sqrt_clamped() == Interval(2, 3)
    assert Interval(0, 0).sqrt_clamped() == Interval(0, 0)


def test_sqrt_clamp_rule():
    s = Interval(-1e-15, 1e-15).sqrt_clamped()
    assert s.lo == 0.0
    assert abs(s.hi - math.sqrt(1e-15)) <= math.ulp(s.hi)


def test_sqrt_rejects_genuinely_negative():
    with pytest.raises(NegativeRadicandError):
        Interval(-1.0, -2 * CLAMP_TOL).sqrt_clamped()


def test_sqrt_clamped_square_covers_clamped_point():
    for x in (-1e-13, 0.0, 1e-13, 0.5, 2.0):
        s = Interval(x, x).sqrt_clamped()
        sq = s**2
        want = max(x, 0.0)
        assert sq.lo <= want <= sq.hi


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
        assert u_big.contains_interval(u_small)
        assert (u_big + v_big).contains_interval(u_small + v_small)
        assert (u_big - v_big).contains_interval(u_small - v_small)
        assert (u_big * v_big).contains_interval(u_small * v_small)
        assert (u_big**3).contains_interval(u_small**3)


def test_recip_encloses_exact_reciprocal():
    rng = random.Random(2718)
    for _ in range(5_000):
        lo = rng.uniform(1e-6, 1e3)
        iv = Interval(lo, lo + rng.uniform(0, 10))
        r = iv.recip()
        assert Fraction(r.lo) <= 1 / Fraction(iv.hi)
        assert 1 / Fraction(iv.lo) <= Fraction(r.hi)
    assert Interval(2.0, 4.0).recip() == Interval(0.25, 0.5)


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
