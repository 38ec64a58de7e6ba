import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cheb_T, integrate_weighted, reconstruct, weighted_norm
from wignerlss import semicircle as sc
from wignerlss import testfn as tf


def quad_coeff(f, n, M=4096):
    # direct quadrature oracle for t_n = (2/pi) int T_n f / sqrt(4 - x^2)
    return (2.0 / np.pi) * integrate_weighted(lambda x: cheb_T(n, x) * f(x), nodes=M)


def test_cheb_T_examples():
    assert cheb_T(2, 2 * np.cos(np.pi / 3)) == pytest.approx(-0.5, abs=1e-14)
    for n in range(8):
        assert cheb_T(n, 2.0) == pytest.approx(1.0, abs=1e-12)
    # T_3(x) = x^3/2 - 3x/2
    assert cheb_T(3, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert cheb_T(1, 2.0) == pytest.approx(1.0)
    assert cheb_T(0, -1.3) == 1.0
    # angle form on a grid
    th = np.linspace(0.01, np.pi - 0.01, 50)
    for n in (1, 2, 5, 9):
        assert np.allclose(cheb_T(n, 2 * np.cos(th)), np.cos(n * th), atol=1e-12)


def test_cheb_coeffs_x():
    t = tf.cheb_coeffs(tf.from_name("x"), J=16)
    assert t.t[1] == pytest.approx(2.0, abs=1e-12)
    others = np.delete(t.t, 1)
    assert np.max(np.abs(others)) < 1e-12


def test_cheb_coeffs_x2():
    t = tf.cheb_coeffs(tf.from_name("x2"), J=16)
    assert t.t[0] == pytest.approx(4.0, abs=1e-12)
    assert t.t[2] == pytest.approx(2.0, abs=1e-12)
    assert abs(t.t[1]) < 1e-12 and abs(t.t[3]) < 1e-12


def test_cheb_coeffs_orthogonality():
    # f = T_m  ->  t_n = delta_nm (1 + delta_m0)
    for m in (0, 1, 5, 29, 50):
        t = tf.cheb_coeffs(tf.cheb_t_fn(m), J=50, M=2048)
        want = np.zeros(51)
        want[m] = 2.0 if m == 0 else 1.0
        assert np.max(np.abs(t.t - want)) < 1e-12


def test_cheb_coeffs_linearity_and_parity():
    rng = np.random.default_rng(11)
    f = tf.polynomial(rng.standard_normal(6))
    g = tf.gauss_bump(0.0, 0.9)
    a, b = 1.7, -0.4
    tf_ab = tf.cheb_coeffs(lambda x: a * f(x) + b * g(x), J=40)
    ta, tgb = tf.cheb_coeffs(f, J=40), tf.cheb_coeffs(g, J=40)
    assert np.max(np.abs(tf_ab.t - (a * ta.t + b * tgb.t))) < 1e-12
    # odd function: even coefficients vanish
    todd = tf.cheb_coeffs(tf.polynomial([0, 1, 0, -0.3]), J=30)
    assert np.max(np.abs(todd.t[::2])) < 1e-12
    teven = tf.cheb_coeffs(tf.gauss_bump(0.0, 1.1), J=30)
    assert np.max(np.abs(teven.t[1::2])) < 1e-12


def test_cheb_coeffs_errors():
    with pytest.raises(ValueError):
        tf.cheb_coeffs(tf.from_name("x"), J=100, M=100)
    with pytest.raises(ValueError, match="node"):
        tf.cheb_coeffs(tf.log_real(sc.gauss_cheb_nodes(64)[3], 0.0), J=8, M=64)


def test_cheb_coeffs_polynomial_exactness_vs_quadrature():
    rng = np.random.default_rng(5)
    f = tf.polynomial(rng.standard_normal(9))
    t = tf.cheb_coeffs(f, J=12, M=512)
    for n in range(10):
        assert t.t[n] == pytest.approx(quad_coeff(f, n), abs=1e-11)
    assert np.max(np.abs(t.t[9:])) < 1e-12  # beyond the degree
    assert t.tail_estimate < 1e-11


def test_log_test_coeffs():
    z = 1j
    assert tf.log_test_coeffs(z, 1) == pytest.approx(2 * sc.msc(z), abs=1e-14)
    # against the quadrature oracle at eta = 0.5
    z = 0.4 + 0.5j
    fre, fim = tf.log_real(0.4, 0.5), tf.log_imag(0.4, 0.5)
    tre = tf.cheb_coeffs(fre, J=24)
    tim = tf.cheb_coeffs(fim, J=24)
    for n in range(1, 21):
        assert tf.log_test_coeffs(z, n, "real") == pytest.approx(tre.t[n], abs=1e-8)
        assert tf.log_test_coeffs(z, n, "imag") == pytest.approx(tim.t[n], abs=1e-8)
    # geometric decay bound
    m = abs(sc.msc(z))
    for n in range(1, 40):
        assert abs(tf.log_test_coeffs(z, n)) <= 2 * m ** n / n + 1e-15
    with pytest.raises(ValueError):
        tf.log_test_coeffs(z, 0)
    with pytest.raises(ValueError):
        tf.log_test_coeffs(0.3 - 0.2j, 1)


def test_reconstruct():
    t = tf.cheb_coeffs(tf.from_name("x2"), J=8)
    assert reconstruct(t, 1.3) == pytest.approx(1.69, abs=1e-12)
    assert reconstruct(np.array([2.0, 0.0, 0.0]), 0.77) == pytest.approx(1.0, abs=1e-15)
    f = tf.gauss_bump(0.0, 1.0)
    t = tf.cheb_coeffs(f, J=48)
    x = np.linspace(-2, 2, 400)
    err = np.max(np.abs(f(x) - reconstruct(t, x)))
    assert err <= t.tail_estimate + 1e-13


def test_tail_estimate_geometric():
    f = tf.log_real(0.0, 0.8)  # coefficients decay like |msc|^n/n
    t = tf.cheb_coeffs(f, J=64)
    true_tail = np.sum(np.abs([tf.log_test_coeffs(0.8j, n, "real") for n in range(65, 300)]))
    assert t.tail_estimate >= 0.2 * true_tail
    assert t.tail_estimate < 1e-4


def test_weighted_norm():
    one = tf.polynomial([1.0])
    # int 1/sqrt|4-x^2| over (-2,2) = pi; over (2,5) + (-5,-2) = 2 arccosh(2.5)
    want = np.pi + 2 * np.arccosh(2.5)
    assert weighted_norm(one, d=0, p=1) == pytest.approx(want, rel=1e-9)
    assert weighted_norm(tf.from_name("x"), d=1, p=1) == pytest.approx(want, rel=1e-9)
    f = tf.polynomial([0.0, 0.0, 1.5])
    assert weighted_norm(f, 0, 1) == pytest.approx(1.5 * weighted_norm(tf.from_name("x2"), 0, 1), rel=1e-9)
    with pytest.raises(ValueError):
        weighted_norm(tf.log_real(0.3, 0.0), d=1, p=2)


def test_weighted_norm_central_difference_fallback():
    g = tf.smooth(lambda x: np.sin(x))
    h = tf.smooth(lambda x: np.sin(x), deriv=lambda x: np.cos(x))
    assert weighted_norm(g, 1, 1) == pytest.approx(weighted_norm(h, 1, 1), rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=7),
       st.floats(-2, 2, allow_nan=False))
def test_reconstruct_roundtrip_property(coeffs, x):
    f = tf.polynomial(coeffs)
    t = tf.cheb_coeffs(f, J=16, M=64)
    assert reconstruct(t, x) == pytest.approx(float(f(x)), abs=1e-9 * (1 + np.max(np.abs(coeffs))))


def test_from_name():
    assert tf.from_name("x").monomials == (0.0, 1.0)
    assert tf.from_name("x2")(3.0) == 9.0
    g = tf.from_name("gauss(0.3,0.7)")
    assert g(0.3) == pytest.approx(1.0)
    assert tf.from_name("logre(0.1,0.5)")(0.1) == pytest.approx(np.log(0.5))
    assert tf.from_name("logim(0.0,1.0)")(0.0) == pytest.approx(np.pi / 2)
    assert tf.from_name([1.0, 0.0, 2.0])(2.0) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        tf.from_name("sin(3)")
    with pytest.raises(ValueError):
        tf.from_name("gauss(a,b)")
