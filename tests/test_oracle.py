"""Identity, inequality and log-coefficient checks over the preset catalog."""

import math
import random

import numpy as np
import pytest

from grunsky_bounds import claims
from grunsky_bounds.oracle import (
    PRESETS,
    TestVector as Vector,
    check_coefficient_identities,
    check_inequalities,
    gamma_from_series,
    grunsky_table,
    parse_coefficients,
    random_test_vector,
)
from grunsky_bounds.series import InsufficientOrderError, PowerSeries
from paper_formulas import bridge_point, hankel2, inequality_slacks, omega_contains


def test_identities_trivial_for_identity_function():
    rep = check_coefficient_identities(PRESETS["identity"](16), order=8)
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_identities_for_presets_at_order_8(preset):
    rep = check_coefficient_identities(PRESETS[preset](16), order=8)
    assert rep.max_residual <= 1e-10
    assert set(rep.residuals) == {
        "a2", "a3", "a4", "a5", "zero_33", "zero_35", "a4_reduced", "a5_reduced",
    }


def test_identities_need_five_coefficients():
    with pytest.raises(InsufficientOrderError):
        check_coefficient_identities(PowerSeries((0j, 1 + 0j, 0.1 + 0j)), order=2)


def _random_polynomial_series(rng: random.Random, degree: int = 8) -> PowerSeries:
    coeffs = [0j, 1 + 0j]
    for _ in range(degree - 1):
        coeffs.append(complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)))
    return PowerSeries(tuple(coeffs))


def _injective_on_grid(f: PowerSeries, n: int = 24, radius: float = 0.5) -> bool:
    zs = [radius * k / n * complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
          for k in range(1, n + 1) for j in range(n)]
    vals = [sum(c * z**m for m, c in enumerate(f.coeffs)) for z in zs]
    seen = {}
    for z, v in zip(zs, vals):
        key = (round(v.real, 9), round(v.imag, 9))
        if key in seen and abs(seen[key] - z) > 1e-9:
            return False
        seen[key] = z
    return True


def test_identities_for_random_polynomial_series():
    # identities are checked only where grid injectivity holds, per contract
    rng = random.Random(12345)
    checked = 0
    for _ in range(100):
        f = _random_polynomial_series(rng)
        if not _injective_on_grid(f):
            continue
        rep = check_coefficient_identities(f, order=4)
        assert rep.max_residual <= 1e-10
        checked += 1
    assert checked >= 90  # small-coefficient perturbations are almost surely injective


def test_inequalities_identity_slack_is_rhs():
    table = grunsky_table(PRESETS["identity"](16), order=8)
    vec = Vector((1 + 0j, 0.5 - 0.25j, 0j, 2 + 1j))
    rep = check_inequalities(table, vec)
    rhs = sum(abs(v) ** 2 / (2 * p + 1) for p, v in enumerate(vec.x))
    assert abs(rep.slack_row_sum[0] - rhs) <= 1e-14
    assert abs(rep.slack_bilinear[0] - rhs) <= 1e-14


def test_inequalities_koebe_first_row_extremal():
    table = grunsky_table(PRESETS["koebe"](16), order=8)
    rep = check_inequalities(table, Vector((1 + 0j,)))
    # the first-row specialization is attained with equality here
    assert abs(rep.slack_unit) <= 1e-10
    assert rep.min_slack >= -1e-10


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_inequalities_random_vectors(preset):
    table = grunsky_table(PRESETS[preset](16), order=8)
    rng = np.random.default_rng(0)
    for _ in range(200):
        rep = check_inequalities(table, random_test_vector(rng))
        assert rep.min_slack >= -1e-10


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_inequalities_match_the_entrywise_sums(preset):
    # the matrix form sums in another order: allow a few hundred ulps of the
    # slacks, which stay below 13 in magnitude for these vectors
    table = grunsky_table(PRESETS[preset](32), order=16)
    rng = np.random.default_rng(1)
    for _ in range(50):
        vec = random_test_vector(rng, max_len=16)
        rep = check_inequalities(table, vec)
        got = (*rep.slack_row_sum, *rep.slack_bilinear, rep.slack_unit, rep.slack_third)
        want = inequality_slacks(table, vec.x)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (got, want)


def _slack_tol(table, x) -> float:
    """64 ulps of the slack's largest part, rhs + row sum: the matrix form and
    the entrywise reference sum the same terms in different orders."""
    rhs = sum(abs(v) ** 2 / (2 * p + 1) for p, v in enumerate(x))
    return 64 * np.finfo(float).eps * (2 * rhs - inequality_slacks(table, x)[0])


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_batched_inequalities_match_the_reference_and_the_one_row_call(preset):
    # mixed-length batches: the shorter vectors are padded with zeros
    table = grunsky_table(PRESETS[preset](32), order=16)
    rng = np.random.default_rng(2)
    vectors = [random_test_vector(rng, max_len=16) for _ in range(120)]
    for batch in (vectors[:1], vectors[1:7], vectors[7:40], vectors[40:]):
        assert len(batch) == 1 or len({len(v.x) for v in batch}) > 1
        rep = check_inequalities(table, *batch)
        assert len(rep.slack_row_sum) == len(rep.slack_bilinear) == len(batch)
        for vec, rows, bil in zip(batch, rep.slack_row_sum, rep.slack_bilinear):
            tol = _slack_tol(table, vec.x)
            want = inequality_slacks(table, vec.x)
            one = check_inequalities(table, vec)
            assert abs(rows - want[0]) <= tol and abs(bil - want[1]) <= tol, (rows, bil, want)
            assert abs(rows - one.slack_row_sum[0]) <= tol
            assert abs(bil - one.slack_bilinear[0]) <= tol
            assert (one.slack_unit, one.slack_third) == (rep.slack_unit, rep.slack_third)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_ineq_row_is_the_minimum_of_the_reference_slacks(seed):
    out = claims._run_oracle_ineq(claims.SuiteContext(claims.SuiteConfig(seed=seed)))
    rng = np.random.default_rng(seed)
    vectors = [random_test_vector(rng) for _ in range(claims.INEQUALITY_VECTORS)]
    tables = [grunsky_table(PRESETS[preset](16), order=8) for preset in PRESETS]
    want = min(min(inequality_slacks(t, v.x)) for t in tables for v in vectors)
    tol = max(_slack_tol(t, v.x) for t in tables for v in vectors)
    assert out.value.lo == out.value.hi
    assert abs(out.value.lo - want) <= tol, (out.value.lo, want)


#: the first three vectors of seed 0 at max_len 8, each coefficient "re im" by float.hex
SEED_0_VECTORS = [
    (
        "-0x1.0e8cfe9bd45ccp-3 -0x1.684ffc1daaf28p-1",
        "0x1.47e57a468b06dp-1 -0x1.43f2a959cc8bbp+0",
        "0x1.adabbec84d4f0p-4 -0x1.3f1dd4920f4fbp-1",
        "-0x1.1243418e643edp-1 0x1.528adc38b0ce3p-5",
        "0x1.7245f95ced1e6p-2 -0x1.299a9bc1a2383p+1",
        "0x1.4dd2f26bd103cp+0 -0x1.c015d809d257ep-3",
        "0x1.e4e7cbc69bca3p-1 -0x1.3ef405142e27ep+0",
    ),
    (
        "-0x1.76ebbf28c26f7p-1 0x1.5dd08ccd30870p+0",
        "-0x1.16a91d07da4d4p-1 -0x1.549465703261fp-1",
        "-0x1.43e4302d4d028p-2 0x1.67f2417d0e872p-2",
        "0x1.a58279af0c1f8p-2 0x1.ce93a4c6361dfp-1",
        "0x1.0ae227fb66293p+0 0x1.81130a04e056dp-4",
        "-0x1.073d2e6df9e08p-3 -0x1.7cabef01267aep-1",
    ),
    (
        "-0x1.d4b6142f1a705p-2 0x1.6be6d2ccde9a7p-2",
        "0x1.c2f5a93057217p-3 -0x1.4ec29f9d48276p-1",
        "-0x1.02765657beec8p+0 -0x1.0972df6e9bfe4p-3",
        "-0x1.ac643e69916c2p-3 0x1.91653b998f2cap-1",
        "-0x1.4617c3124dbcbp-3 0x1.7e5180e78d0dfp+0",
        "0x1.14e9b664d2b5bp-1 -0x1.42521e63e874fp+0",
        "0x1.b79f33b79f514p-3 0x1.8390822d24221p+0",
    ),
]


def test_test_vectors_are_pinned():
    rng = np.random.default_rng(0)
    got = [tuple(f"{c.real.hex()} {c.imag.hex()}" for c in random_test_vector(rng).x) for _ in SEED_0_VECTORS]
    assert got == SEED_0_VECTORS
    # the vectors take the same draws from the stream: the next one is the same too
    assert int(rng.integers(1 << 30)) == 1053163925
    assert all(type(c) is complex for c in random_test_vector(rng).x)


def test_test_vector_rejects_zero():
    with pytest.raises(ValueError):
        Vector((0j, 0j))


def test_inequalities_vector_length_check():
    table = grunsky_table(PRESETS["geometric"](8), order=2)
    with pytest.raises(InsufficientOrderError):
        check_inequalities(table, Vector((1 + 0j,) * 5))
    with pytest.raises(InsufficientOrderError, match="row specializations"):
        check_inequalities(table, Vector((1 + 0j,)))
    with pytest.raises(InsufficientOrderError):
        check_inequalities(table, Vector((1 + 0j,)), Vector((1 + 0j,) * 5))
    with pytest.raises(ValueError):
        check_inequalities(table)


def test_inequality_parts_are_built_once_per_table():
    table = grunsky_table(PRESETS["atanh"](16), order=8)
    parts = table.inequality_parts
    assert table.inequality_parts is parts
    assert np.array_equal(parts[0][:, : table.order], table.omega[1::2, 1::2])
    check_inequalities(table, Vector((1 + 0j, 0.5j)))
    assert table.inequality_parts is parts


# ---------------------------------------------------------------------------
# logarithmic coefficients
# ---------------------------------------------------------------------------


def test_gamma_identity_zero():
    rep = gamma_from_series(PRESETS["identity"](8))
    assert all(g == 0 for g in rep.direct)
    assert rep.max_difference == 0.0


def test_gamma_geometric_half_harmonic():
    rep = gamma_from_series(PRESETS["geometric"](8))
    for n, g in enumerate(rep.direct, start=1):
        assert abs(g - 1.0 / (2 * n)) <= 1e-14
    assert rep.max_difference <= 1e-12


def test_gamma_koebe_harmonic():
    rep = gamma_from_series(PRESETS["koebe"](8))
    for n, g in enumerate(rep.direct, start=1):
        assert abs(g - 1.0 / n) <= 1e-12
    assert rep.max_difference <= 1e-12


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_gamma_two_paths_agree(preset):
    assert gamma_from_series(PRESETS[preset](8)).max_difference <= 1e-12


# ---------------------------------------------------------------------------
# consistency bridge to the maximization layer
# ---------------------------------------------------------------------------

#: presets whose inverse is also univalent on the disc (the bound claims apply)
BI_UNIVALENT_PRESETS = ("identity", "geometric", "atanh")

BOUNDS = {
    "a3": 2.428,
    "d43": 1.175,
    "h22": 1.281,
    "gamma3": 0.552,
}


@pytest.mark.parametrize("preset", BI_UNIVALENT_PRESETS)
def test_presets_respect_the_verified_bounds(preset):
    f = PRESETS[preset](16)
    table = grunsky_table(f, order=8)
    x, y = bridge_point(table)
    assert omega_contains(x, y)
    a3 = abs(f.coeff(3))
    assert a3 <= BOUNDS["a3"]
    assert abs(f.coeff(4)) - a3 <= BOUNDS["d43"]
    assert abs(hankel2(f)) <= BOUNDS["h22"]
    gamma3 = gamma_from_series(f).direct[2]
    assert abs(gamma3) <= BOUNDS["gamma3"]


def test_first_branch_inequality_on_presets():
    # |2 w13 - w11^2| <= 1, the inequality behind the low-curve cap
    for preset in PRESETS:
        t = grunsky_table(PRESETS[preset](16), order=8)
        assert abs(2 * t.entry(1, 3) - t.entry(1, 1) ** 2) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# coefficient file input
# ---------------------------------------------------------------------------


def test_parse_coefficients_roundtrip():
    text = "1 0\n0.5 -0.25\n0 0.125\n"
    f = parse_coefficients(text)
    assert f.coeffs == (0j, 1 + 0j, 0.5 - 0.25j, 0.125j)


def test_parse_coefficients_rejects_bad_leading():
    with pytest.raises(ValueError):
        parse_coefficients("0.9 0\n1 0\n")
    with pytest.raises(ValueError):
        parse_coefficients("")
    with pytest.raises(ValueError):
        parse_coefficients("1 0\nbroken\n")
