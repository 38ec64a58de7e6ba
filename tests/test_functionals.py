import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import flat_term_dense, msc_boundary, pair_kernel_phi_one_chunk, weighted_norm
from wignerlss import ensemble as en
from wignerlss import functionals as fl
from wignerlss import profile as pf
from wignerlss import semicircle as sc
from wignerlss import testfn as tf
from wignerlss.errors import NumericalError

FX = tf.from_name("x")
FX2 = tf.from_name("x2")


def gaussian_spec(profile, beta=1):
    return en.EnsembleSpec(beta, profile, en.gaussian(), en.gaussian())


def make_summary(profile, beta=1, off=None, diag=None):
    spec = en.EnsembleSpec(beta, profile, off or en.gaussian(), diag or en.gaussian())
    return en.cumulant_summary(spec)


def test_variance_identity_f_x():
    # Var(tr H) = sum_i Var(H_ii) = tr S for every profile and both symmetry classes
    t = tf.cheb_coeffs(FX, J=8)
    for p in (pf.profile_flat(7), pf.profile_band(30, 4), pf.profile_random_ds(24, 5)):
        for beta in (1, 2):
            s = make_summary(p, beta)
            assert fl.variance_series(t, p, s, beta) == pytest.approx(p.trace, abs=1e-10)


def test_variance_x2_flat_gaussian():
    p = pf.profile_flat(50)
    t = tf.cheb_coeffs(FX2, J=8)
    assert fl.variance_series(t, p, make_summary(p, 1), 1) == pytest.approx(4.0, abs=1e-10)
    assert fl.variance_series(t, p, make_summary(p, 2), 2) == pytest.approx(2.0, abs=1e-10)


def test_variance_pure_mode():
    # f = T_j, flat S, Gaussian, beta=2: V = j t_j^2 / 4 = j/4
    p = pf.profile_flat(10)
    s = make_summary(p, 2)
    for j in (3, 4, 7):
        t = tf.cheb_coeffs(tf.cheb_t_fn(j), J=16)
        assert fl.variance_series(t, p, s, 2) == pytest.approx(j / 4.0, abs=1e-10)


def test_negligible_checks_both_halves_of_the_last_decade():
    # x2 has no coefficient past t_2, so its last decade at J = 16 carries nothing
    p = pf.profile_flat(10)
    t = tf.cheb_coeffs(FX2, J=16)
    tp = pf.trace_powers(p, 16)
    assert fl._negligible(t, tp, 1, fl._variance(t, tp, make_summary(p), 1))
    # logim(0.3,0.05) on band(300, 12) at J = 512: the last decade is negligible in V at either
    # beta, but its terms of E's beta = 1 profile sum are not, so only beta = 1 doubles J again
    p = pf.profile_band(300, 12)
    f = tf.from_name("logim(0.3,0.05)")
    t = tf.cheb_coeffs(f, J=512, M=2048)
    tp = pf.trace_powers(p, 512)
    terms = fl._variance_terms(t, tp)
    assert np.sum(terms[int(0.9 * 512) - 1:]) <= fl._LAST_DECADE_FRACTION * np.sum(terms)
    for beta, negligible, J in ((1, False, 1024), (2, True, 512)):
        s = make_summary(p, beta, diag=en.two_point(0.1))
        V = fl._variance(t, tp, s, beta)
        assert V == fl.variance_series(t, p, s, beta)
        assert fl._negligible(t, tp, beta, V) is negligible
        assert fl.clt_prediction(f, p, s, beta).J == J


def test_variance_paths_agree():
    # band(300, 12) has gap 1.2e-2: K2 needs more than 400 nodes there
    fs = [FX, FX2, tf.cheb_t_fn(3), tf.gauss_bump(0.0, np.sqrt(0.5))]
    for p in (pf.profile_random_ds(50, 13, roughness=0.7), pf.profile_band(300, 12)):
        for beta in (1, 2):
            s = make_summary(p, beta, off=en.rademacher(), diag=en.two_point(0.25))
            for f in fs:
                t = tf.cheb_coeffs(f, J=64)
                Vs = fl.variance_series(t, p, s, beta)
                Vi = fl.variance_integral(f, t, p, s, beta)
                assert abs(Vs - Vi) <= max(1e-5 * abs(Vs), 1e-7), (p.N, f.label)


def test_variance_integral_flat_f_x():
    p = pf.profile_flat(12)
    s = make_summary(p, 1)
    t = tf.cheb_coeffs(FX, J=8)
    assert fl.variance_integral(FX, t, p, s, 1) == pytest.approx(p.trace, abs=1e-9)


def pair_kernel_g_reference(M, a_spectrum):
    """g on the M Gauss-Chebyshev nodes by the direct O(N M^2) sum over the deflated spectrum."""
    a = a_spectrum[np.abs(a_spectrum) > fl._A_EIG_CUTOFF]
    mx = np.asarray(msc_boundary(sc.gauss_cheb_nodes(M)))
    cp = np.multiply.outer(mx, mx)
    cm = np.multiply.outer(mx, mx.conj())
    G = np.zeros((M, M))
    for ai in a:
        up = ai * cp
        um = ai * cm
        G += (up / (1.0 - up) ** 2).real + (um / (1.0 - um) ** 2).real
    return G


def test_pair_kernel_g_bounded_and_zero_for_flat():
    # g = phi(theta_j + theta_k) + phi(theta_j - theta_k), so |g| <= 2 max |phi|
    F = np.asarray(FX2(sc.gauss_cheb_nodes(101)))
    flat = pf.profile_flat(8).a_spectrum
    assert np.max(np.abs(fl._pair_kernel_phi(101, flat))) == 0.0
    assert fl._profile_term(F, flat) == 0.0
    p = pf.profile_band(40, 6)
    phi = fl._pair_kernel_phi(101, p.a_spectrum)
    bound = np.sum(np.abs(p.a_spectrum)) * 2.0 / pf.validate(p)["spectral_gap"] ** 2
    assert phi.shape == (102,)
    assert 2.0 * np.max(np.abs(phi)) <= bound
    assert abs(fl._profile_term(F, p.a_spectrum)) <= bound * np.mean(np.abs(F)) ** 2


def test_pair_kernel_g_matches_reference():
    # K2 = F^T G F / M^2 against the dense G, for functions with and without symmetry
    fs = [FX2, tf.cheb_t_fn(3), tf.gauss_bump(0.3, 0.7), tf.log_real(0.3, 0.05)]
    for p in (pf.profile_band(40, 6), pf.profile_random_ds(120, 7, roughness=0.8)):
        for M in (1, 2, 7, 64, 400):
            x = sc.gauss_cheb_nodes(M)
            G = pair_kernel_g_reference(M, p.a_spectrum)
            for f in fs:
                F = np.asarray(f(x), dtype=float)
                ref = F @ G @ F / M ** 2
                got = fl._profile_term(F, p.a_spectrum)
                assert abs(got - ref) <= 1e-12 * abs(ref), (p.N, M, f.label)


@pytest.fixture(scope="module")
def phi_profiles():
    return [pf.profile_flat(300), pf.profile_band(300, 12), pf.profile_band(1000, 3),
            pf.profile_random_ds(1000, 1)]


@pytest.mark.parametrize("M", [400, 513, 1296, 14831])
def test_pair_kernel_phi_matches_one_chunk_table(phi_profiles, M):
    # chunking the angles leaves every phi(pi n / M) the same sum in the same order;
    # M = 14,831 is band(1000, 3)'s own node count
    for p in phi_profiles:
        want = pair_kernel_phi_one_chunk(M, p.a_spectrum)
        assert fl._pair_kernel_phi(M, p.a_spectrum).tobytes() == want.tobytes(), (p.descriptor, M)


def test_integral_route_holds_no_profile_sized_table():
    p = pf.profile_random_ds(1000, 1)
    s = make_summary(p)
    fl.clt_prediction(FX2, p, s, 1)
    tracemalloc.start()
    try:
        pred = fl.clt_prediction(FX2, p, s, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.paths_agree
    assert peak < 2.5e6   # the phi table in one chunk per eigenvalue group took 9.9 MB


def test_integral_nodes_follow_the_gap():
    assert fl.integral_nodes(pf.profile_flat(20), 8) == 400
    assert fl.integral_nodes(pf.profile_random_ds(200, 3), 128) == 400
    # 2J resolves f's expansion: J = 256 gives 512 nodes, J = J_CAP gives 4096
    assert fl.integral_nodes(pf.profile_flat(20), 256) == 512
    assert fl.integral_nodes(pf.profile_random_ds(200, 3), tf.J_CAP) == 2 * tf.J_CAP
    p = pf.profile_band(1000, 3)
    assert p.gap == pytest.approx(1.08e-3, rel=1e-2)
    assert fl.integral_nodes(p, 256) == int(np.ceil(16.0 / p.gap))
    assert fl.integral_nodes(p, tf.J_CAP) == int(np.ceil(16.0 / p.gap))
    # s_2 = -1 + 2e-9: profile.gap is about 2, but g has a pole next to u = -1, so M hits the cap
    eps = 1e-9
    two = pf.VarianceProfile.from_matrix(np.array([[eps, 1 - eps], [1 - eps, eps]]))
    assert two.gap > 1.0
    assert fl.integral_nodes(two, tf.J_CAP) == fl._MAX_PROFILE_NODES


def test_flat_term_matches_dense_reference():
    # the closed DCT sum against the M x M divided-difference sum it replaces
    names = ["x", "x2", "cheb(3)", "cheb(399)", "cheb(800)", "gauss(0.3,0.7)", "logre(0.3,0.05)",
             "logim(0.3,0.05)", "logre(0,0.01)", [0.5, -1, 2]]
    for M in (1, 2, 7, 400, 512, 2048):
        x = sc.gauss_cheb_nodes(M)
        for f in map(tf.from_name, names):
            F = tf.node_values(f, x)
            got = fl._flat_term(F, tf.node_values(f.derivative(1), x))
            ref = flat_term_dense(f, M)
            # T_800 vanishes on the 400 nodes, where both sums are about 4.6e-22
            assert abs(got - ref) <= 1e-13 * abs(ref) + 1e-18, (M, f.label, got, ref)


def test_positivity_random_configs():
    rng = np.random.default_rng(2024)
    makers = [en.gaussian, en.rademacher, en.uniform, lambda: en.two_point(rng.uniform(0.05, 0.95))]
    for _ in range(30):
        N = int(rng.integers(10, 40))
        p = pf.profile_random_ds(N, int(rng.integers(1 << 31)), rng.uniform(0, 1))
        spec = en.EnsembleSpec(int(rng.choice([1, 2])), p, rng.choice(makers)(), rng.choice(makers)())
        s = en.cumulant_summary(spec)
        f = tf.polynomial(rng.standard_normal(int(rng.integers(2, 9))))
        t = tf.cheb_coeffs(f, J=32)
        assert fl.variance_series(t, p, s, spec.beta) >= -1e-10


def test_scaling_homogeneity():
    p = pf.profile_band(20, 3)
    s = make_summary(p, 1, off=en.rademacher(), diag=en.two_point(0.2))
    f = tf.polynomial([0.3, -1.0, 0.5, 0.25])
    c = -2.7
    cf = tf.polynomial([c * v for v in f.monomials])
    t, tc = tf.cheb_coeffs(f, J=16), tf.cheb_coeffs(cf, J=16)
    assert fl.variance_series(tc, p, s, 1) == pytest.approx(c ** 2 * fl.variance_series(t, p, s, 1), rel=1e-12)
    assert fl.cubic_term(tc, s) == pytest.approx(c ** 3 * fl.cubic_term(t, s), rel=1e-12)
    assert fl.mean_correction(tf.cheb_coeffs(cf), p, s, 1) == pytest.approx(
        c * fl.mean_correction(tf.cheb_coeffs(f), p, s, 1), rel=1e-10)


def test_mean_correction_flat_gaussian_x2_is_zero():
    p = pf.profile_flat(200)
    assert fl.mean_correction(tf.cheb_coeffs(FX2), p, make_summary(p), 1) == pytest.approx(0.0, abs=5e-3)
    assert abs(fl.mean_correction(tf.cheb_coeffs(FX2), p, make_summary(p, 2), 2)) < 1e-12


def test_mean_correction_x2_zero_for_any_profile():
    # exact oracle: E[sum f(eig)] - N int f rho = sum_ij S_ij - N = 0 for f = x^2
    for p in (pf.profile_band(60, 7), pf.profile_random_ds(45, 8, 0.8)):
        got = fl.mean_correction(tf.cheb_coeffs(FX2), p, make_summary(p, 1), 1)
        assert got == pytest.approx(0.0, abs=1e-8)


def test_mean_correction_skew_exact_moment_oracles():
    # with a skewed diagonal, exact trace moments pin the kappa3 term at every N:
    # E tr H = 0, E tr H^2 = N, E tr H^3 = s3hat, kappa3 part of E tr H^4 = 0,
    # kappa3 part of E tr H^5 = 5 s3hat. The profile terms vanish for odd f by parity.
    x3 = tf.polynomial([0.0, 0.0, 0.0, 1.0])
    x5 = tf.polynomial([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    for p in (pf.profile_flat(40), pf.profile_band(36, 5), pf.profile_random_ds(50, 2)):
        for beta in (1, 2):
            s = make_summary(p, beta, diag=en.two_point(0.1))
            base = make_summary(p, beta)  # same profile, gaussian diag
            assert fl.mean_correction(tf.cheb_coeffs(FX), p, s, beta) == pytest.approx(
                fl.mean_correction(tf.cheb_coeffs(FX), p, base, beta), abs=1e-10)
            assert fl.mean_correction(tf.cheb_coeffs(FX2), p, s, beta) == pytest.approx(
                fl.mean_correction(tf.cheb_coeffs(FX2), p, base, beta), abs=1e-10)
            assert fl.mean_correction(tf.cheb_coeffs(x3), p, s, beta) \
                - fl.mean_correction(tf.cheb_coeffs(x3), p, base, beta) \
                == pytest.approx(s.kappa3_diag_sum, rel=1e-9)
            assert fl.mean_correction(tf.cheb_coeffs(x5), p, s, beta) \
                - fl.mean_correction(tf.cheb_coeffs(x5), p, base, beta) \
                == pytest.approx(5.0 * s.kappa3_diag_sum, rel=1e-9)


def test_mean_correction_constant_invariance():
    # LSS(f + c) = LSS(f) identically, so the shift must not see added constants
    p = pf.profile_band(48, 6)
    s = make_summary(p, 1, off=en.rademacher(), diag=en.two_point(0.15))
    f = tf.polynomial([0.3, -1.0, 0.7, 0.4])
    g = tf.polynomial([0.3 + 5.0, -1.0, 0.7, 0.4])
    assert fl.mean_correction(tf.cheb_coeffs(g), p, s, 1) == pytest.approx(
        fl.mean_correction(tf.cheb_coeffs(f), p, s, 1), rel=1e-9)


def test_mean_correction_odd_f_gaussian():
    p = pf.profile_random_ds(30, 17, 0.5)
    got = fl.mean_correction(tf.cheb_coeffs(tf.polynomial([0, 0.0, 0, 1.0])), p, make_summary(p, 1), 1)
    assert got == pytest.approx(0.0, abs=1e-10)


def test_mean_correction_bound():
    rng = np.random.default_rng(4)
    p = pf.profile_band(40, 5)
    for _ in range(10):
        f = tf.polynomial(rng.standard_normal(4))
        s = make_summary(p, 1, off=en.rademacher(), diag=en.two_point(0.3))
        e = fl.mean_correction(tf.cheb_coeffs(f), p, s, 1)
        budget = weighted_norm(f, 0, 1) + abs(float(f(2.0))) + abs(float(f(-2.0)))
        assert abs(e) <= 20.0 * budget


def mean_correction_reference(f, profile, summary, beta, nodes):
    """E by the Gauss-Chebyshev quadrature of the boundary resolvent integrand, plus the edge
    term (f(2) + f(-2))/4; its poles sit about one spectral gap from the contour."""
    x = sc.gauss_cheb_nodes(nodes)
    F = np.asarray(f(x), dtype=float)
    p4 = x ** 4 - 4.0 * x ** 2 + 2.0
    p3 = x ** 3 - 3.0 * x
    total = summary.kappa4_sum * np.sum(F * p4) / (2.0 * nodes)
    total += summary.kappa3_diag_sum * np.sum(F * p3) / (2.0 * nodes)
    if beta == 1:
        total += profile.trace * np.sum(F * (2.0 - x * x)) / (2.0 * nodes)
        total += (float(f(2.0)) + float(f(-2.0))) / 4.0
        Mb = np.asarray(msc_boundary(x)) ** 2
        rt = pf.resolvent_trace(profile, Mb)
        total += np.sum(F * (Mb * rt).real) / nodes
    return float(total)


def test_mean_correction_matches_reference():
    # band(300, 12) has gap 1.2e-2: 6400 nodes resolve the reference's poles, 800 do not
    p = pf.profile_band(300, 12)
    fs = [FX2, tf.gauss_bump(0.3, 0.7), tf.cheb_t_fn(6), tf.log_real(0.3, 0.05)]
    for beta in (1, 2):
        s = make_summary(p, beta, off=en.rademacher(), diag=en.two_point(0.2))
        for f in fs:
            got = fl.clt_prediction(f, p, s, beta).mean_shift
            want = mean_correction_reference(f, p, s, beta, 6400)
            assert got == pytest.approx(want, abs=1e-8), (beta, f.label)


def test_cubic_term():
    p = pf.profile_flat(25)
    s = make_summary(p, 1, diag=en.two_point(0.1))
    t = tf.cheb_coeffs(FX, J=8)
    assert fl.cubic_term(t, s) == pytest.approx(s.kappa3_diag_sum, rel=1e-12)
    assert fl.cubic_term(t, make_summary(p, 1)) == 0.0
    # |B| <= kappa3 * c_high^{3/2} |t1|^3 / (8 sqrt(N)) structurally
    bound = abs(s.kappa3_diag_sum) * 8.0 / 8.0
    assert abs(fl.cubic_term(t, s)) <= bound + 1e-15


def test_predicted_char():
    pred = fl.CltPrediction(variance=2.0, mean_shift=0.3, cubic=-0.1, beta=1, centering=0.0)
    assert fl.predicted_char(0.0, pred) == 1.0
    lam = np.linspace(-3, 3, 41)
    vals = fl.predicted_char(lam, pred)
    assert np.allclose(np.abs(vals), np.exp(-lam ** 2 * pred.variance / 2), atol=1e-14)
    assert np.all(np.abs(vals) <= 1.0)
    flat = fl.CltPrediction(variance=1.0, mean_shift=0.0, cubic=0.0, beta=1, centering=0.0)
    assert np.allclose(fl.predicted_char(lam, flat).imag, 0.0)


def test_predicted_char_matches_exact_product_for_trace():
    # f = x: the statistic is tr H, a sum of independent diagonal entries, so its
    # characteristic function is the product of theirs. The cubic term is (i lam)^3 B/6, and
    # what is left is the kappa4 term, at most lam^4 |kappa4 sum|/24.
    N, p = 100, 0.1
    prof = pf.profile_flat(N)
    s = make_summary(prof, 1, diag=en.two_point(p))
    pred = fl.clt_prediction(FX, prof, s, 1)
    assert pred.cubic == pytest.approx(s.kappa3_diag_sum, rel=1e-12)
    q, scale = np.sqrt(p * (1.0 - p)), np.sqrt(np.diag(prof.S))
    for lam in (0.5, 1.0, 2.0):
        exact = np.prod((1 - p) * np.exp(-1j * lam * scale * p / q) + p * np.exp(1j * lam * scale * (1 - p) / q))
        if lam == 1.0:
            assert exact == pytest.approx(0.607231 - 0.027017j, abs=1e-6)
        assert abs(fl.predicted_char(lam, pred) - exact) <= lam ** 4 * abs(s.kappa4_sum) / 24.0, lam


def test_prediction_positivity_guard():
    with pytest.raises(NumericalError):
        fl.CltPrediction(variance=-1e-6, mean_shift=0.0, cubic=0.0, beta=1, centering=0.0)


def test_prediction_json_keys():
    p = pf.profile_flat(20)
    pred = fl.clt_prediction(FX2, p, make_summary(p), 1)
    d = pred.to_dict()
    assert set(d) == {"V", "E", "B", "beta", "J", "tail_estimate", "paths_agree", "V_integral"}
    assert d["V"] == pytest.approx(4.0, abs=1e-9)
    assert d["E"] == pytest.approx(0.0, abs=1e-10)
    assert d["paths_agree"] is True
    assert d["V_integral"] == pytest.approx(4.0, abs=1e-9)
    # one mode: both routes run on every call, and there is no switch to skip one
    assert list(inspect.signature(fl.clt_prediction).parameters) == ["f", "profile", "summary", "beta", "J"]


def test_log_pair_kernel_symmetry_and_identity():
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2) * rng.choice([-1, 1]))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 2) * rng.choice([-1, 1]))
        Lzw = fl.log_pair_kernel(z, w)
        assert Lzw == pytest.approx(fl.log_pair_kernel(w, z), rel=1e-12)
        oracle = -4.0 * np.pi ** 2 * np.log(1.0 - sc.msc(z) * sc.msc(w))
        assert Lzw == pytest.approx(oracle, rel=1e-10)
    v = fl.log_pair_kernel(0.3 + 0.4j, 0.3 - 0.4j)
    assert abs(v.imag) < 1e-10
    assert fl.log_pair_kernel(5.0, 6.0).imag == pytest.approx(0.0, abs=1e-12)


def test_log_pair_kernel_cut_rejection():
    with pytest.raises(ValueError):
        fl.log_pair_kernel(0.5, 1j)
    with pytest.raises(ValueError):
        fl.log_pair_kernel(1j, -3.0)
    fl.log_pair_kernel(2.5, 1j)  # right of the cut: fine


def test_log_pair_kernel_decade_growth():
    vals = [0.5 * fl.log_pair_kernel(1j * e, -1j * e).real for e in (1e-2, 1e-3, 1e-4)]
    step = 2.0 * np.pi ** 2 * np.log(10.0)
    for d in np.diff(vals):
        assert abs(d - step) <= 0.15 * step


def test_gbe_log_variance_closed_form_oracle():
    for z in (0.0 + np.exp(-5) * 1j, 0.7 + 0.05j, -1.2 + 0.4j):
        m = sc.msc(z)
        for beta in (1, 2):
            want_re = -(np.log(abs(1 - m * m)) + np.log(1 - abs(m) ** 2)) / beta
            want_im = -(np.log(1 - abs(m) ** 2) - np.log(abs(1 - m * m))) / beta
            assert fl.gbe_log_variance(z, beta, "real") == pytest.approx(want_re, rel=1e-9)
            assert fl.gbe_log_variance(z, beta, "imag") == pytest.approx(want_im, rel=1e-9)


def test_gbe_log_variance_magnitude_and_parts():
    z = np.exp(-5.0) * 1j
    v = fl.gbe_log_variance(z, 1, "real")
    assert 5.0 * 0.7 <= v <= 5.0 * 1.3
    vi = fl.gbe_log_variance(z, 1, "imag")
    assert abs(v - vi) < 2.0
    with pytest.raises(ValueError):
        fl.gbe_log_variance(2.5 + 1j, 1, "real")
    with pytest.raises(ValueError):
        fl.gbe_log_variance(0.5 - 1j, 1, "real")


def test_gbe_log_variance_vs_series():
    # mutual oracle: coefficients of the log test functions + flat profile series
    eta = 0.3
    z = eta * 1j
    p = pf.profile_flat(64)
    J = 96
    tre = np.zeros(J + 1)
    tim = np.zeros(J + 1)
    for n in range(1, J + 1):
        tre[n] = tf.log_test_coeffs(z, n, "real")
        tim[n] = tf.log_test_coeffs(z, n, "imag")
    for beta in (1, 2):
        s = make_summary(p, beta)
        for part, tvec in (("real", tre), ("imag", tim)):
            series = fl.variance_series(tf.ChebCoeffs(tvec, J, 0.0), p, s, beta)
            # the kernel limit has GOE/GUE diagonal variance (2/N at beta=1),
            # which cancels the series' beta=1 diagonal correction
            core = series + (2 - beta) / 4.0 * tvec[1] ** 2 * p.trace
            kernel = fl.gbe_log_variance(z, beta, part)
            assert core == pytest.approx(kernel, rel=1e-8)


def test_centering_is_the_rho_sc_rule_on_the_table_nodes():
    # (t_0 - t_2)/2 on the 2048-node table is the Gauss-Chebyshev rule for int f d(rho_sc)
    p = pf.profile_flat(30)
    s = make_summary(p)
    for f in (FX, FX2, tf.cheb_t_fn(3), tf.gauss_bump(0.3, 0.7), tf.log_real(0.3, 0.05),
              tf.log_imag(0.3, 0.05)):
        pred = fl.clt_prediction(f, p, s, 1)
        assert pred.J <= 1024, f.label
        rule = sc.integrate_rho_sc(f, nodes=2048).real
        assert pred.centering == pytest.approx(rule, rel=1e-15, abs=1e-15), f.label


def test_centering_of_a_small_eta_log_matches_the_closed_form():
    # J climbs to 2048, so the table has 4096 nodes; a fixed 2048-node rule is 2.1e-6 off here
    p = pf.profile_flat(20)
    pred = fl.clt_prediction(tf.log_real(0.0, 3e-3), p, make_summary(p), 1)
    assert pred.J == 2048
    assert abs(pred.centering - sc.log_potential(0.0, 3e-3).real) <= 1e-8


def test_clt_prediction_adaptive_J():
    p = pf.profile_flat(16)
    pred = fl.clt_prediction(tf.log_real(0.2, 0.2), p, make_summary(p), 1, J=16)
    assert pred.J > 16  # slow coefficient decay forces an extension
    pred2 = fl.clt_prediction(FX2, p, make_summary(p), 1, J=16)
    assert pred2.J == 16


def test_clt_prediction_mean_shift_converged_in_J():
    # V squares the coefficients and E sums them, so a J at which the variance series has
    # converged can still leave E short: here J = 512 would leave E off by 2.4e-9
    p = pf.profile_band(300, 12)
    s = make_summary(p, 1, diag=en.two_point(0.1))
    f = tf.log_imag(0.3, 0.05)
    ref = fl.mean_correction(tf.cheb_coeffs(f, J=4096, M=8192), p, s, 1)
    assert abs(fl.clt_prediction(f, p, s, 1).mean_shift - ref) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.5, 2.5, allow_nan=False), st.floats(0.05, 1.0, allow_nan=False))
def test_gbe_real_plus_imag_is_kernel_diag_property(E, eta):
    # V_re + V_im = L(z, zbar)/(beta pi^2) / 2 ... both parts sum to the mixed term
    if abs(E) >= 2.0:
        return
    z = complex(E, eta)
    tot = fl.gbe_log_variance(z, 1, "real") + fl.gbe_log_variance(z, 1, "imag")
    want = fl.log_pair_kernel(z, z.conjugate()).real / (2.0 * np.pi ** 2)
    assert tot == pytest.approx(want, rel=1e-8, abs=1e-10)
