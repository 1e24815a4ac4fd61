"""Series arithmetic and the coefficient table, cross-checked by torus sampling.

The independent oracle here extracts bivariate log coefficients by a 2-D FFT
of the closed-form quotient sampled on a torus with two distinct radii, which
never touches the truncated-series pipeline under test.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import grunsky_bounds
from grunsky_bounds.oracle import PRESETS, grunsky_table
from grunsky_bounds.series import (
    BivariateSeries,
    InsufficientOrderError,
    PowerSeries,
    log1p_trunc,
    odd_transform,
    sqrt_one_plus,
)
from paper_formulas import (
    EXACT_PRESETS,
    bivariate_log_reference,
    exact_log_quotient,
    log1p_reference,
)

#: the row logarithm sums in another order than the anti-diagonal reference;
#: its log coefficients stay below 3 in modulus here, so allow 64 ulps of 1
REFERENCE_TOL = 64 * np.finfo(float).eps


def test_power_series_validation():
    with pytest.raises(ValueError):
        PowerSeries((1 + 0j, 1 + 0j))
    with pytest.raises(ValueError):
        PowerSeries((0j, 2 + 0j))


def test_log1p_matches_known_series():
    # log(1/(1-z)) = z + z^2/2 + z^3/3 + ...
    u = [0j] + [1 + 0j] * 5  # 1/(1-z) - 1 = z + z^2 + ...
    lg = log1p_trunc(u, 5)
    for n in range(1, 6):
        assert abs(lg[n] - 1.0 / n) <= 1e-14


def test_sqrt_recurrence_inverts_square():
    g = [1 + 0j, 0.3 + 0.1j, -0.2 + 0j, 0.05 - 0.04j, 0.01 + 0j]
    s = sqrt_one_plus(g, 4)
    back = np.convolve(s, s)[:5]
    for got, want in zip(back, g):
        assert abs(got - want) <= 1e-14


def test_odd_transform_identity():
    f = PRESETS["identity"](6)
    fs = odd_transform(f, 9)
    assert fs.coeff(1) == 1
    assert all(fs.coeff(n) == 0 for n in range(2, 10))


def test_odd_transform_geometric_binomials():
    # z/(1-z) maps to z/sqrt(1-z^2); coefficients are central binomials / 4^k
    fs = odd_transform(PRESETS["geometric"](8), 9)
    assert abs(fs.coeff(3) - 0.5) <= 1e-15
    assert abs(fs.coeff(5) - 3.0 / 8.0) <= 1e-15
    assert abs(fs.coeff(7) - 5.0 / 16.0) <= 1e-15
    assert all(fs.coeff(n) == 0 for n in range(0, 9, 2))


def test_odd_transform_order_check():
    with pytest.raises(InsufficientOrderError):
        odd_transform(PowerSeries((0j, 1 + 0j, 0.5 + 0j)), 9)


def test_bivariate_mul_truncates_both_degrees():
    s = BivariateSeries(np.zeros((4, 4), dtype=complex), 3)
    s.c[1, 0] = 1.0
    s.c[0, 1] = 1.0
    p = s.mul(s).mul(s)  # (t + z)^3
    assert abs(p.c[3, 0] - 1) < 1e-15 and abs(p.c[2, 1] - 3) < 1e-15
    assert abs(p.c[1, 2] - 3) < 1e-15 and abs(p.c[0, 3] - 1) < 1e-15


def test_bivariate_log_of_product_splits():
    # log((1+t)(1+z)) = log(1+t) + log(1+z)
    n = 6
    s = BivariateSeries(np.zeros((n + 1, n + 1), dtype=complex), n)
    for i in range(n + 1):
        for j in range(n + 1):
            s.c[i, j] = 1.0 if (i <= 1 and j <= 1) else 0.0
    lg = s.log()
    for k in range(1, n + 1):
        want = (-1) ** (k + 1) / k
        assert abs(lg.c[k, 0] - want) <= 1e-13
        assert abs(lg.c[0, k] - want) <= 1e-13
    assert abs(lg.c[1, 1]) <= 1e-13


def _random_series(n: int, seed: int) -> np.ndarray:
    """c[i, j] = w 2^-(i+j) / 10 with |Re w|, |Im w| <= 1 and c[0, 0] = 1: not
    Hankel, and |Q - 1| < 0.43 on the closed unit bidisc, so |log Q| < 1 there
    and every log coefficient is below 1 by Cauchy's estimate."""
    rng = np.random.default_rng([n, seed])
    w = rng.uniform(-1, 1, (n + 1, n + 1)) + 1j * rng.uniform(-1, 1, (n + 1, n + 1))
    c = w * 0.5 ** np.add.outer(np.arange(n + 1), np.arange(n + 1)) / 10
    c[0, 0] = 1
    return c


@pytest.mark.parametrize("n", [7, 15, 31])
def test_bivariate_log_matches_the_antidiagonal_reference(n):
    for seed in range(3):
        c = _random_series(n, seed)
        got = BivariateSeries(c, n).log().c
        assert np.max(np.abs(got - bivariate_log_reference(c))) <= REFERENCE_TOL, seed


@pytest.mark.parametrize("n", [7, 15, 31])
def test_log1p_matches_the_recurrence_reference(n):
    for seed in range(3):
        # |u| < 0.71 on the closed unit disc, so |log(1 + u)| < 1.3 + pi/2 < 3
        u = [0j] + list(_random_series(n, seed)[1:, 0] * 5)
        got = log1p_trunc(u, n)
        assert max(abs(g - w) for g, w in zip(got, log1p_reference(u, n))) <= REFERENCE_TOL


# ---------------------------------------------------------------------------
# table cross-checks
# ---------------------------------------------------------------------------

_FSTAR = {
    "identity": lambda z: z,
    "geometric": lambda z: z / np.sqrt(1 - z * z),
    # write sqrt(arctanh(z^2)) as z*sqrt(arctanh(z^2)/z^2) so the principal
    # branch matches the odd analytic branch on the whole sampling torus
    "atanh": lambda z: z * np.sqrt(np.arctanh(z * z) / (z * z)),
    "koebe": lambda z: z / (1 - z * z),
}


def _fft_table(preset: str, max_index: int, n: int = 128, r1: float = 0.35, r2: float = 0.27):
    """Torus-sampled log-quotient coefficients, independent of the series code."""
    fstar = _FSTAR[preset]
    j = np.arange(n)
    t = r1 * np.exp(2j * np.pi * j / n)
    z = r2 * np.exp(2j * np.pi * j / n)
    tt, zz = np.meshgrid(t, z, indexing="ij")
    q = (fstar(tt) - fstar(zz)) / (tt - zz)
    vals = np.log(q)
    coeffs = np.fft.fft2(vals) / n**2
    out = {}
    for p in range(max_index + 1):
        for qq in range(max_index + 1):
            out[(p, qq)] = coeffs[p, qq] / (r1**p * r2**qq)
    return out


@pytest.mark.parametrize("preset", sorted(_FSTAR))
def test_table_matches_torus_sampling(preset):
    table = grunsky_table(PRESETS[preset](16), order=4)
    fft = _fft_table(preset, 7)
    for p in range(1, 8, 2):
        for q in range(1, 8, 2):
            assert abs(table.entry(p, q) - fft[(p, q)]) <= 1e-8, (preset, p, q)


def test_geometric_table_exact_values():
    t = grunsky_table(PRESETS["geometric"](16), order=4)
    expected = {
        (1, 1): 0.5,
        (1, 3): 1.0 / 8.0,
        (1, 5): 1.0 / 16.0,
        (1, 7): 5.0 / 128.0,
        (3, 3): 1.0 / 24.0,
        (3, 5): 3.0 / 128.0,
    }
    for (p, q), want in expected.items():
        assert abs(t.entry(p, q) - want) <= 1e-14


def test_koebe_table_closed_form():
    # quotient is (1+tz)/((1-t^2)(1-z^2)): diagonal entries (-1)^(p+1)/p, rest zero
    t = grunsky_table(PRESETS["koebe"](16), order=4)
    for p in range(1, 8, 2):
        for q in range(1, 8, 2):
            want = 1.0 / p if p == q else 0.0
            assert abs(t.entry(p, q) - want) <= 1e-12


def test_identity_table_all_zero():
    t = grunsky_table(PRESETS["identity"](16), order=4)
    assert np.max(np.abs(t.omega)) == 0.0


@pytest.mark.parametrize("preset", sorted(EXACT_PRESETS))
def test_table_matches_exact_recurrence_at_order_12(preset):
    exact = exact_log_quotient(preset, 12)
    table = grunsky_table(PRESETS[preset](24), order=12)
    want = np.array([[complex(v) for v in row] for row in exact])
    assert np.max(np.abs(table.omega - want)) <= 1e-15


def test_table_symmetry_exact():
    for preset in PRESETS:
        for order in (8, 16):
            t = grunsky_table(PRESETS[preset](2 * order), order=order)
            assert np.array_equal(t.omega, t.omega.T)


def test_table_order_check():
    with pytest.raises(InsufficientOrderError):
        grunsky_table(PRESETS["geometric"](7), order=4)
    t = grunsky_table(PRESETS["geometric"](16), order=4)
    with pytest.raises(InsufficientOrderError):
        t.entry(9, 1)
    with pytest.raises(ValueError):
        t.entry(2, 2)


def test_order_16_table_allocates_at_most_256_kb():
    # the (n+1)^2 rows need no (n+1)^3 intermediate: the peak is about 120 KB
    f = PRESETS["koebe"](32)
    grunsky_table(f, 16)
    tracemalloc.start()
    try:
        grunsky_table(f, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024, peak


def test_oracle_run_imports_no_scipy():
    script = (
        "import sys\n"
        "from grunsky_bounds.report import run_suite\n"
        "rows = run_suite(['ORACLE_EQ13', 'ORACLE_INEQ', 'ORACLE_GAMMA'])\n"
        "assert [r.status for r in rows] == ['PASS'] * 3\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(grunsky_bounds.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "False"
