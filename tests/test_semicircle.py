import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct
from scipy.integrate import quad

from oracles import integrate_weighted, msc_boundary
from wignerlss import semicircle as sc


def test_msc_examples():
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    assert sc.msc(1j) == pytest.approx(1j * golden, abs=1e-14)
    assert sc.msc(2j) == pytest.approx(1j * (np.sqrt(2.0) - 1.0), abs=1e-14)
    m = sc.msc(0.3 + 0.01j)
    assert 0.1 < abs(m) <= 1.0
    assert abs(m * m + (0.3 + 0.01j) * m + 1.0) < 1e-12


def test_msc_rejects_real():
    with pytest.raises(ValueError):
        sc.msc(1.5)
    with pytest.raises(ValueError):
        sc.msc(np.array([1j, 0.2 + 0j]))


def test_msc_residual_grid():
    rng = np.random.default_rng(7)
    re = rng.uniform(-10, 10, 1000)
    im = np.exp(rng.uniform(np.log(1e-3), np.log(10), 1000)) * rng.choice([-1.0, 1.0], 1000)
    z = re + 1j * im
    m = sc.msc(z)
    assert np.max(np.abs(m * m + z * m + 1.0)) < 1e-12
    assert np.max(np.abs(m)) <= 1.0 + 1e-14
    assert np.all(np.sign(m.imag) == np.sign(z.imag))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10, 10, allow_nan=False),
    st.floats(1e-3, 10, allow_nan=False),
    st.booleans(),
)
def test_msc_quadratic_residual_property(re, im, lower):
    z = complex(re, -im if lower else im)
    m = sc.msc(z)
    assert abs(m * m + z * m + 1.0) < 1e-12
    assert abs(m) <= 1.0 + 1e-14


def test_msc_boundary_examples():
    assert msc_boundary(0.0) == pytest.approx(1j, abs=1e-15)
    assert msc_boundary(1.0) == pytest.approx((-1 + 1j * np.sqrt(3.0)) / 2, abs=1e-15)
    for x in (-1.9, 0.5, 1.7):
        assert abs(msc_boundary(x)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        msc_boundary(2.0)
    with pytest.raises(ValueError):
        msc_boundary(-2.5)


def test_msc_boundary_matches_eta_limit():
    x = np.array([-1.5, -0.3, 0.8, 1.9])
    lim = sc.msc(x + 1e-9j)
    assert np.max(np.abs(lim - msc_boundary(x))) < 1e-8


def test_rho_sc_values():
    assert sc.rho_sc(0.0) == pytest.approx(1.0 / np.pi, abs=1e-15)
    assert sc.rho_sc(2.0) == 0.0
    assert sc.rho_sc(-2.0) == 0.0
    assert sc.rho_sc(3.0) == 0.0
    total = sc.integrate_rho_sc(lambda x: np.ones_like(x), nodes=10_000)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_sc_cdf_values():
    assert sc.sc_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sc.sc_cdf(2.0) == 1.0
    assert sc.sc_cdf(-2.0) == 0.0
    assert sc.sc_cdf(5.0) == 1.0
    oracle, _ = quad(sc.rho_sc, -2.0, 1.0, epsabs=1e-13)
    assert sc.sc_cdf(1.0) == pytest.approx(oracle, abs=1e-10)
    E = np.linspace(-2.2, 2.2, 500)
    assert np.all(np.diff(sc.sc_cdf(E)) >= -1e-15)


def test_classical_location_roundtrip():
    N = 137
    ks = np.array([1, 30, 68, 100, 136])
    assert sc.sc_cdf(sc.classical_locations(ks, N)) == pytest.approx(ks / N, abs=1e-10)
    assert sc.classical_locations(np.array([N]), N)[0] == 2.0
    even = sc.classical_locations(np.array([50]), 100)[0]
    assert even == pytest.approx(0.0, abs=1e-12)
    gs = sc.classical_locations(np.arange(1, N + 1), N)
    assert np.all(np.diff(gs) > 0)


def test_log_potential_closed_form():
    v0 = sc.log_potential(0.0)
    assert v0.real == pytest.approx(-0.5, abs=1e-12)
    assert v0.imag == pytest.approx(np.pi / 2, abs=1e-12)
    for E in (-1.5, 0.7):
        oracle, _ = quad(lambda x: np.log(np.abs(E - x)) * sc.rho_sc(x), -2.0, 2.0,
                         points=[E], limit=200, epsabs=1e-11)
        assert sc.log_potential(E).real == pytest.approx(oracle, abs=1e-8)
    with pytest.raises(ValueError):
        sc.log_potential(2.0)


def log_potential_oracle(E, eta, nodes=2048):
    """int log((E - x) + i eta) rho_sc(x) dx by the Gauss-Chebyshev rule."""
    return complex(sc.integrate_rho_sc(lambda x: np.log((E - x) + 1j * eta), nodes))


def test_log_potential_quad_vs_closed_form():
    # closed form off the axis: int log(z - x) rho_sc dx = msc(z)^2/2 - log(-msc(z))
    # (2.5, 0.05) lies off the support and (-0.8, -0.05) below the axis
    for E, eta in ((0.0, 0.7), (1.2, 0.05), (-0.8, 1.5), (1.9, 0.3), (2.5, 0.05), (-0.8, -0.05)):
        got = sc.log_potential(E, eta)
        assert got == pytest.approx(log_potential_oracle(E, eta), abs=5e-9)
    grid = np.array([-0.8, 1.2])
    assert np.array_equal(sc.log_potential(grid, 0.05),
                          [sc.log_potential(-0.8, 0.05), sc.log_potential(1.2, 0.05)])


def test_log_potential_quad_approaches_eta0():
    got = sc.log_potential(0.3, 1e-6)
    oracle = log_potential_oracle(0.3, 1e-6, nodes=600_000)
    want = sc.log_potential(0.3)
    for ref in (oracle, want):
        assert got.real == pytest.approx(ref.real, abs=1e-4)
        assert got.imag == pytest.approx(ref.imag, abs=1e-4)


def test_gauss_cheb_rule_polynomial_exactness():
    # int x^4/sqrt(4-x^2) = 6 pi; int x^2/sqrt(4-x^2) = 2 pi
    assert integrate_weighted(lambda x: x ** 4, nodes=64) == pytest.approx(6 * np.pi, rel=1e-13)
    assert integrate_weighted(lambda x: x ** 2, nodes=64) == pytest.approx(2 * np.pi, rel=1e-13)
    assert sc.integrate_rho_sc(lambda x: x ** 2, nodes=64) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("M", [1, 2, 7, 400, 2048, 4096, 14831])
def test_dct_helpers_match_scipy(M):
    rng = np.random.default_rng(M)
    v = rng.standard_normal(M)
    ref = dct(v, type=2)
    assert np.max(np.abs(sc.dct2(v) - ref)) <= 1e-15 * np.max(np.abs(ref))
    w = rng.standard_normal(M + 1)
    ref = dct(w, type=1)
    assert np.max(np.abs(sc.dct1(w) - ref)) <= 1e-15 * np.max(np.abs(ref))
