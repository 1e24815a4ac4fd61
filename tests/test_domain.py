"""Region constants, cap curve, membership and the boundary table."""

import math
from fractions import Fraction

import pytest

from grunsky_bounds import domain
from grunsky_bounds.domain import (
    CAP_PIECES,
    CONSTANTS,
    EDGES,
    REGION,
    EdgeId,
    cap_point_down,
    cap_sup_up,
    high_chart,
    low_chart,
)
from grunsky_bounds.interval import Interval
from grunsky_bounds.optimize import _root_box
from paper_formulas import contains, lemma1_bound, omega_contains

A = CONSTANTS.a_float
B = CONSTANTS.iv_b.mid
D = CONSTANTS.iv_d.mid


def test_constant_a_is_exact_rational():
    assert CONSTANTS.a == Fraction(297, 400)
    assert float(CONSTANTS.a) == 0.7425


def test_constant_windows():
    assert 0.311 <= CONSTANTS.iv_b.lo <= CONSTANTS.iv_b.hi <= 0.312
    assert 0.386 <= CONSTANTS.iv_d.lo <= CONSTANTS.iv_d.hi <= 0.387


def test_constant_enclosures_tight():
    assert CONSTANTS.iv_b.width <= 1e-15
    assert CONSTANTS.iv_d.width <= 1e-15
    assert CONSTANTS.iv_a.width <= math.ulp(A)


def test_curves_cross_exactly_at_b():
    # (1 + b^2)/2 = sqrt((1 - b^2)/3), equivalently 3u^2 + 10u - 1 = 0 at u = b^2
    low = 0.5 * (1.0 + B * B)
    high = math.sqrt((1.0 - B * B) / 3.0)
    assert abs(low - high) <= 1e-12
    assert abs(1.0 - 10.0 * B * B - 3.0 * B**4) <= 1e-12


def test_lemma1_bound_values():
    assert lemma1_bound(0.0) == 0.5
    both = (0.5 * (1 + B * B), math.sqrt((1 - B * B) / 3))
    assert abs(both[0] - both[1]) <= 1e-12
    assert abs(lemma1_bound(B) - both[0]) <= 1e-12
    assert 0.386 <= lemma1_bound(A) <= 0.387  # = d
    assert abs(lemma1_bound(A) - D) <= 1e-15


def test_lemma1_bound_range_check():
    with pytest.raises(ValueError):
        lemma1_bound(-0.1)
    with pytest.raises(ValueError):
        lemma1_bound(1.5)


def test_lemma1_bound_continuity_on_grid():
    # no branch jump anywhere, in particular across b
    prev = lemma1_bound(0.0)
    n = 2000
    for i in range(1, n + 1):
        x = A * i / n
        cur = lemma1_bound(x)
        assert abs(cur - prev) < 1e-3
        prev = cur


def test_cap_lifts_contain_pointwise_values():
    # each cap piece, lifted over a box of its parameter range, encloses the cap
    for x1, x2 in ((0.0, 0.1), (0.25, 0.311), (0.312, 0.6), (0.7, 0.7425)):
        piece = next(p for p in CAP_PIECES if x2 <= p.t_hi.hi)
        x_iv, y_iv = piece.lift(Interval(x1, x2))
        assert (x_iv.lo, x_iv.hi) == (x1, x2)
        for k in range(11):
            x = x1 + (x2 - x1) * k / 10
            assert y_iv.lo - 1e-15 <= lemma1_bound(x) <= y_iv.hi + 1e-15


def test_scalar_cap_helpers_bracket_cap():
    for x in (0.0, 0.1, B, 0.5, A):
        assert cap_point_down(x) <= lemma1_bound(x) <= cap_sup_up(x, x)


def test_omega_contains_examples():
    assert omega_contains(0.0, 0.0)
    assert omega_contains(A, D)  # boundary point of the high curve
    assert not omega_contains(0.5, 0.7)  # cap at 0.5 is exactly 0.5
    assert abs(lemma1_bound(0.5) - 0.5) <= 1e-15
    assert not omega_contains(A + 1e-6, 0.1)
    assert not omega_contains(0.1, -1e-6)


def test_edge_point_examples():
    x, y = EDGES[EdgeId.X_A].lift(Interval.point(0.0))
    assert contains(x, A) and (y.lo, y.hi) == (0.0, 0.0)
    low, high = EDGES[EdgeId.CURVE_LOW], EDGES[EdgeId.CURVE_HIGH]
    x, y = high.lift(high.t_hi)
    assert contains(x, A) and abs(y.mid - D) <= 1e-12
    low_end, high_start = low.lift(low.t_hi), high.lift(high.t_lo)
    assert low_end[0] == high_start[0] == CONSTANTS.iv_b
    assert abs(low_end[1].mid - high_start[1].mid) <= 1e-12  # curve intersection identity


def test_edge_points_inside_region():
    for piece in EDGES.values():
        lo, hi = piece.t_lo.lo, piece.t_hi.hi
        for k in range(21):
            x, y = piece.lift(Interval.point(lo + (hi - lo) * k / 20))
            assert omega_contains(x.mid, y.mid), (piece.id, x, y)


def test_table_is_in_edge_id_order():
    assert list(EDGES) == list(EdgeId)
    assert all(key is piece.id for key, piece in EDGES.items())
    assert [p.id for p in CAP_PIECES] == [EdgeId.CURVE_LOW, EdgeId.CURVE_HIGH]


def test_x_zero_edge_reaches_one_half():
    piece = EDGES[EdgeId.X_ZERO]
    x, y = piece.lift(piece.t_hi)
    assert (x.lo, x.hi, y.lo, y.hi) == (0.0, 0.0, 0.5, 0.5)


_HALF = Fraction(1, 2)
_A = CONSTANTS.a
# Each corner coordinate v is the zero of an increasing function g on v >= 0,
# so an enclosure [lo, hi] holds it exactly when g(lo) <= 0 <= g(hi).
_ZERO_AT = {
    "0": lambda v: v,
    "1/2": lambda v: v - _HALF,
    "a": lambda v: v - _A,
    "d": lambda v: v * v - (1 - _A * _A) / 3,          # d^2 = (1 - a^2)/3
    "b": lambda v: 3 * v**4 + 10 * v * v - 1,          # 3u^2 + 10u - 1 = 0, u = b^2
    "c(b)": lambda v: (3 * v + 1) ** 2 - 7,            # c(b) = (1 + b^2)/2 = (sqrt7 - 1)/3
}
CORNERS = {
    ("0", "0"): ((EdgeId.X_ZERO, "t_lo"), (EdgeId.Y_ZERO, "t_lo")),
    ("0", "1/2"): ((EdgeId.X_ZERO, "t_hi"), (EdgeId.CURVE_LOW, "t_lo")),
    ("a", "0"): ((EdgeId.X_A, "t_lo"), (EdgeId.Y_ZERO, "t_hi")),
    ("a", "d"): ((EdgeId.X_A, "t_hi"), (EdgeId.CURVE_HIGH, "t_hi")),
    ("b", "c(b)"): ((EdgeId.CURVE_LOW, "t_hi"), (EdgeId.CURVE_HIGH, "t_lo")),
}


def test_every_endpoint_is_a_corner_of_two_pieces():
    ends = [end for pair in CORNERS.values() for end in pair]
    assert sorted(ends, key=str) == sorted(
        ((e, end) for e in EdgeId for end in ("t_lo", "t_hi")), key=str
    )


@pytest.mark.parametrize("corner", CORNERS, ids=lambda c: f"({c[0]}, {c[1]})")
def test_pieces_sharing_a_corner_agree_on_it(corner):
    lifts = [EDGES[e].lift(getattr(EDGES[e], end)) for e, end in CORNERS[corner]]
    for x, y in lifts:
        for name, iv in zip(corner, (x, y)):
            g = _ZERO_AT[name]
            assert g(Fraction(iv.lo)) <= 0 <= g(Fraction(iv.hi)), (corner, name, iv)
    (x1, y1), (x2, y2) = lifts
    assert x1 == x2
    # a rational corner is the same enclosure from both sides; an irrational
    # one is enclosed by both, in different rounding
    if corner[1] in ("0", "1/2"):
        assert y1 == y2
    else:
        assert y1.intersects(y2)


def test_the_derived_corners_are_the_shared_ends():
    # domain.CORNERS comes from the table: the five corners above, named by
    # their two pieces in EdgeId order, each boxed tightly about the corner
    assert [f"{p[0].value}/{q[0].value}" for p, q, _ in domain.CORNERS] == [
        "x_zero/y_zero", "x_zero/curve_low", "x_a/y_zero", "x_a/curve_high", "curve_low/curve_high"]
    for coords, ends in CORNERS.items():
        [box] = [box for p, q, box in domain.CORNERS
                 if (p, q) == tuple((e, ("t_lo", "t_hi").index(end)) for e, end in ends)]
        for name, iv in zip(coords, box):
            g = _ZERO_AT[name]
            assert g(Fraction(iv.lo)) <= 0 <= g(Fraction(iv.hi)), (coords, iv)
            assert iv.width <= 2.3e-16


def test_cap_charts_enclose_their_piece():
    charts = {EdgeId.CURVE_LOW: low_chart, EdgeId.CURVE_HIGH: high_chart}
    for piece in CAP_PIECES:
        lo, hi = piece.t_lo.hi, piece.t_hi.lo
        for k in range(20):
            x1, x2 = lo + (hi - lo) * k / 20, lo + (hi - lo) * (k + 1) / 20
            c_lo, c_hi, _, _ = charts[piece.id](x1, x2)
            for x in (x1, 0.5 * (x1 + x2), x2):
                assert c_lo <= piece.cap(x) <= c_hi
                y = piece.lift(Interval.point(x))[1]
                assert c_lo <= y.hi and y.lo <= c_hi


def test_radicand_along_each_piece():
    # R = 1 - x^2 - 3y^2 in the piece's parameter: zero on the high cap (the rim)
    expected = {
        EdgeId.X_ZERO: (1, 0, -3),
        EdgeId.X_A: (1 - _A * _A, 0, -3),
        EdgeId.Y_ZERO: (1, 0, -1),
        EdgeId.CURVE_LOW: (Fraction(1, 4), 0, Fraction(-5, 2), 0, Fraction(-3, 4)),
        EdgeId.CURVE_HIGH: (),
    }
    for edge, poly in expected.items():
        assert EDGES[edge].radicand == tuple(Fraction(c) for c in poly)


def test_radicand_nonnegative_on_upper_subregion():
    # 1 - x^2 - 3 y^2 >= 0 wherever y <= sqrt((1-x^2)/3)
    for i in range(101):
        x = B + (A - B) * i / 100
        y = math.sqrt((1 - x * x) / 3)
        assert 1 - x * x - 3 * y * y >= -1e-15


def test_low_curve_radicand_identity():
    # 1 - 10x^2 - 3x^4 >= 0 on [0, b], equality exactly at b
    for i in range(101):
        x = B * i / 100
        val = 1 - 10 * x * x - 3 * x**4
        assert val >= -1e-12
    assert abs(1 - 10 * B * B - 3 * B**4) <= 1e-12


def test_y_sup_is_low_curve_value_at_b():
    x1, x2, y1, y2 = _root_box(REGION)
    assert (x1, x2, y1) == (0.0, CONSTANTS.iv_a.hi, 0.0)
    assert abs(y2 - 0.5 * (1 + B * B)) <= 1e-12
