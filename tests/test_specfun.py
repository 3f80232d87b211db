import numpy as np
import pytest
from scipy import special

from floquet_qubit.specfun import bessel_j

from oracles import bessel_series, mp_besselj


# ---------------------------------------------------------------------------
# bessel_j
# ---------------------------------------------------------------------------

def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_at_first_zero_of_j0():
    # 2.404825557695773 is the first zero of J_0 to double precision; the
    # ascending-series oracle agrees that the value there is ~1e-16
    x0 = 2.404825557695773
    assert abs(bessel_series(0, x0)) < 1e-13
    assert abs(bessel_j(0, x0)) < 1e-10


def test_bessel_matches_series_oracle_small_arguments():
    for n in (0, 1, 2, 5, 11, 40):
        for x in (1e-3, 0.3, 2.5, 6.0, 8.9):
            ref = bessel_series(n, x)
            got = bessel_j(n, x)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_bessel_matches_library_oracle_all_regimes():
    rng = np.random.RandomState(11)
    for _ in range(120):
        n = int(rng.randint(0, 201))
        x = float(rng.uniform(0.0, 50.0))
        ref = mp_besselj(n, x)
        assert bessel_j(n, x) == pytest.approx(ref, rel=1e-12, abs=1e-14)
    for _ in range(60):
        n = int(rng.randint(0, 201))
        x = float(rng.uniform(50.0, 1000.0))
        ref = mp_besselj(n, x)
        assert bessel_j(n, x) == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_bessel_three_term_recurrence():
    rng = np.random.RandomState(3)
    for _ in range(200):
        n = int(rng.randint(1, 51))
        x = float(rng.uniform(0.1, 50.0))
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = (2.0 * n / x) * bessel_j(n, x)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_bessel_parity():
    rng = np.random.RandomState(5)
    for _ in range(100):
        n = int(rng.randint(0, 40))
        x = float(rng.uniform(0.0, 30.0))
        assert bessel_j(n, -x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-15)
        assert bessel_j(-n, x) == pytest.approx((-1.0) ** n * bessel_j(n, x), abs=1e-15)
    xs = rng.uniform(0.0, 30.0, 64)
    for n in (0, 1, 2, 7, 40):
        vec = bessel_j(n, xs)
        assert bessel_j(n, -xs) == pytest.approx((-1.0) ** n * vec, abs=1e-15)
        assert bessel_j(-n, xs) == pytest.approx((-1.0) ** n * vec, abs=1e-15)


def test_bessel_normalization_sum():
    for x in (0.5, 5.0, 12.5, 20.0):
        cutoff = int(x) + 40
        total = bessel_j(0, x) ** 2 + 2.0 * sum(
            bessel_j(k, x) ** 2 for k in range(1, cutoff + 1))
        assert abs(total - 1.0) < 1e-10


def test_bessel_vectorised_matches_scalar():
    # arrays sum a Chebyshev series and scalars go to scipy's jv, so they
    # agree to accuracy rather than bit-for-bit
    x = np.linspace(0.0, 120.0, 257)
    for n in (0, 1, 4, 9):
        vec = bessel_j(n, x)
        assert vec.shape == x.shape
        for i in (0, 17, 100, 256):
            assert vec[i] == pytest.approx(bessel_j(n, float(x[i])), rel=5e-13, abs=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 40, 120, 200, -3, -200])
def test_bessel_array_matches_mpmath_over_the_domain(n):
    # one array per order mixes the whole domain, 0 included, with tiny and
    # near-extreme magnitudes and points at the first zeros of J_|n|, so
    # every value shares the series of the largest |x|
    zeros = special.jn_zeros(abs(n), 3)
    x = np.concatenate((np.linspace(-1000.0, 1000.0, 81),
                        [1e-300, -1e-12, 3e-5, 0.01, -0.7, 2.5, 9.0, 55.5, 999.99],
                        zeros, -zeros))
    got = bessel_j(n, x)
    ref = np.array([mp_besselj(n, v) for v in x])
    assert np.max(np.abs(got - ref)) < 1e-13


def test_bessel_array_exact_at_zero():
    for n in range(7):
        delta = 1.0 if n == 0 else 0.0
        assert np.array_equal(bessel_j(n, np.zeros(5)), np.full(5, delta))
        mixed = bessel_j(n, np.array([0.0, 1.0, 0.0, 500.0]))
        assert mixed[0] == delta and mixed[2] == delta


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(201, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, 1000.5)
    with pytest.raises(ValueError):
        bessel_j(0, np.array([0.5, 2000.0]))
    with pytest.raises(ValueError):
        bessel_j(0, float("nan"))
    with pytest.raises(ValueError):
        bessel_j(0, np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        bessel_j(1.5, 1.0)

