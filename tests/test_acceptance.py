"""End-to-end checks tying the whole stack together.

One test per headline guarantee, in order: exact variance oracles, dual-path
formula agreement, resolvent and moment cross-checks, seeded Monte Carlo for the
mean / characteristic function / third cumulant, positivity, log-variance decade
growth, the max-of-field and rigidity experiments, Chebyshev layer invariants,
and byte-level CLI determinism.  Monte Carlo tolerances are fixed up front;
nothing here is tuned to a particular draw.
"""

import numpy as np
import pytest

from wignerlss import cli
from wignerlss import ensemble as en
from wignerlss import functionals as fl
from wignerlss import harness as hn
from wignerlss import profile as pf
from wignerlss import semicircle as sc
from wignerlss import testfn as tf

F_X = tf.from_name("x")
F_X2 = tf.from_name("x2")


def test_variance_of_linear_statistic_equals_profile_trace():
    # f = x picks out Var(tr H) = sum_i Var(H_ii) = tr S for any entry law
    t = tf.cheb_coeffs(F_X, J=8)
    dists = [en.gaussian(), en.rademacher(), en.two_point(0.3), en.uniform()]
    for k in range(20):
        p = pf.profile_random_ds(20 + 7 * k, seed=k, roughness=0.3 + 0.02 * k)
        off, diag = dists[k % 4], dists[(k + 1) % 4]
        for beta in (1, 2):
            s = en.cumulant_summary(en.EnsembleSpec(beta, p, off, diag))
            assert fl.variance_series(t, p, s, beta) == pytest.approx(p.trace, abs=1e-10)


def test_variance_series_and_integral_paths_agree():
    p = pf.profile_random_ds(50, seed=7)
    fs = [F_X, F_X2, tf.cheb_t_fn(3), tf.gauss_bump(0.0, np.sqrt(0.5))]
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, p, en.rademacher(), en.two_point(0.25))
        s = en.cumulant_summary(spec)
        for f in fs:
            t = tf.cheb_coeffs(f, J=64)
            v_series = fl.variance_series(t, p, s, beta)
            v_integral = fl.variance_integral(f, t, p, s, beta)
            assert abs(v_series - v_integral) <= max(1e-5 * abs(v_series), 1e-7), f.label


def test_resolvent_trace_matches_dense_solve():
    p = pf.profile_random_ds(100, seed=3)
    rng = np.random.default_rng(12)
    Ms = rng.uniform(0.0, 0.99, 100) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 100))
    got = pf.resolvent_trace(p, Ms)
    eye = np.eye(p.N)
    for M, g in zip(Ms, got):
        dense = np.trace(np.linalg.solve(eye - M * p.S, p.S))
        assert abs(g - dense) <= 1e-9


def test_quadratic_statistic_variance_matches_exact_moment():
    # Var(tr H^2) has a closed form from entry moments; the series formula must
    # match it up to the diagonal-family term, which is O(1/N) here.
    t = tf.cheb_coeffs(F_X2, J=8)
    for N in (100, 400):
        p = pf.profile_flat(N)
        d = np.diag(p.S)
        off_sq_half = 0.5 * (np.sum(p.S * p.S) - np.sum(d * d))  # sum over i<j
        for off in (en.gaussian(), en.rademacher()):
            spec = en.EnsembleSpec(1, p, off, en.gaussian())
            s = en.cumulant_summary(spec)
            v_formula = fl.variance_series(t, p, s, 1)
            exact = 4.0 * (off.kappa4 + 2.0) * off_sq_half + (en.gaussian().kappa4 + 2.0) * np.sum(d * d)
            assert abs(v_formula - exact) <= 10.0 / N, (N, off.family)
            # the gap is exactly the diagonal fourth-moment term
            assert exact - v_formula == pytest.approx(-(en.gaussian().kappa4 + 2.0) * np.sum(d * d), rel=1e-12)


def test_mean_shift_matches_monte_carlo_mean():
    # closed-form side: quadratic statistic has no mean shift on the flat profile
    p200 = pf.profile_flat(200)
    s200 = en.cumulant_summary(en.EnsembleSpec(1, p200, en.gaussian(), en.gaussian()))
    assert abs(fl.mean_correction(tf.cheb_coeffs(F_X2), p200, s200, 1)) <= 5e-3

    # sampled side: replica mean of the centered statistic vs the predicted shift
    N, R = 300, 4000
    fs = [F_X2, tf.gauss_bump(0.3, 0.7)]
    pairs = tuple((f, float(sc.integrate_rho_sc(f, nodes=2048).real)) for f in fs)

    for pidx, p in enumerate((pf.profile_flat(N), pf.profile_band(N, 12))):
        for beta in (1, 2):
            spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
            summ = en.cumulant_summary(spec)
            vals, _ = hn._replica_table(spec, 500 + 10 * pidx + beta, R, 2, None, fs=pairs)
            for i, f in enumerate(fs):
                ks = hn.cumulant_estimates(vals[:, i])
                target = fl.mean_correction(tf.cheb_coeffs(f), p, summ, beta)
                assert abs(ks.k1 - target) <= 4.0 * ks.se1, (pidx, beta, f.label, ks.k1, target, ks.se1)


def test_characteristic_function_matches_prediction():
    N, R = 400, 4000
    p = pf.profile_flat(N)
    lams = (0.25, 0.5, 1.0)
    tol = 4.0 / np.sqrt(R) + 10.0 / N
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
        cfg = hn.RunConfig(spec=spec, f=F_X2, replicas=R, master_seed=606 + beta, lambda_grid=lams)
        res = hn.run_ensemble(cfg)
        for lam, emp in zip(lams, res.char_emp):
            pred = fl.predicted_char(lam, res.prediction)
            assert abs(emp - pred) <= tol, (beta, lam, emp, pred)


def test_third_cumulant_magnitude_and_sign():
    # skewed diagonal makes the cubic coefficient the only odd term; for f = x, B is the
    # diagonal's third-cumulant sum, and the sampled k3 must land within 50% of B, sign included
    N, R = 100, 50000
    spec = en.EnsembleSpec(1, pf.profile_flat(N), en.gaussian(), en.two_point(0.1))
    cfg = hn.RunConfig(spec=spec, f=F_X, replicas=R, master_seed=909, lambda_grid=(0.0,))
    res = hn.run_ensemble(cfg)
    ks = res.kstats
    B = res.prediction.cubic
    assert B == pytest.approx(en.cumulant_summary(spec).kappa3_diag_sum, rel=1e-12)
    assert abs(ks.k3 - B) <= 0.5 * abs(B), (ks.k3, B)
    assert abs(ks.k3) >= 3.0 * ks.se3
    # the comparison report checks the signed k3 against B
    tc = hn.compare(res)["third_cumulant"]
    assert tc["predicted"] == B
    assert tc["pass"], tc


def test_variance_positivity_over_random_configs():
    rng = np.random.default_rng(2024)
    dists = [en.gaussian(), en.rademacher(), en.uniform(), en.two_point(0.1), en.two_point(0.35)]
    for k in range(200):
        N = int(rng.integers(8, 60))
        p = pf.profile_random_ds(N, seed=int(rng.integers(0, 10 ** 6)),
                                 roughness=float(rng.uniform(0.1, 0.9)))
        beta = int(rng.integers(1, 3))
        spec = en.EnsembleSpec(beta, p, dists[rng.integers(0, 5)], dists[rng.integers(0, 5)])
        s = en.cumulant_summary(spec)
        which = k % 3
        if which == 0:
            f = tf.polynomial([float(c) for c in rng.normal(0.0, 1.0, int(rng.integers(2, 6)))])
        elif which == 1:
            f = tf.gauss_bump(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.2, 1.0)))
        else:
            f = tf.cheb_t_fn(int(rng.integers(1, 8)))
        t = tf.cheb_coeffs(f, J=32)
        assert fl.variance_series(t, p, s, beta) >= -1e-10


def test_log_variance_grows_by_decade():
    # halving eta by 10 adds log(10)/beta to both parts of the log-field variance
    step = np.log(10.0)
    for beta in (1, 2):
        for part in ("real", "imag"):
            vals = [fl.gbe_log_variance(1j * eta, beta, part) for eta in (1e-2, 1e-3, 1e-4)]
            for a, b in zip(vals, vals[1:]):
                assert abs((b - a) - step / beta) <= 0.15 * step / beta, (beta, part, b - a)


@pytest.fixture(scope="module")
def maxfield_runs():
    spec = en.EnsembleSpec(1, pf.profile_flat(1000), en.gaussian(), en.gaussian())
    cfg = hn.RunConfig(spec=spec, f=F_X2, replicas=20, master_seed=424242,
                       lambda_grid=(0.0,), maxfield=(0.2, 2000), rigidity=0.2)
    return hn.run_ensemble(cfg)


def test_max_field_ratio_medians_near_one(maxfield_runs):
    res = maxfield_runs
    for arr in (res.maxfield["re_ratio"], res.maxfield["im_plus_ratio"],
                res.maxfield["im_minus_ratio"]):
        med = float(np.median(arr))
        assert 0.5 < med < 1.5, (med, arr)


def test_rigidity_max_statistic_order_one(maxfield_runs):
    res = maxfield_runs
    inside = (res.rigidity["max"] > 0.3) & (res.rigidity["max"] < 1.7)
    assert float(inside.mean()) >= 0.8, res.rigidity["max"]


def test_chebyshev_layer_invariants():
    # discrete orthogonality: a pure mode comes back as a unit vector
    for j in (0, 1, 4, 9):
        t = tf.cheb_coeffs(tf.cheb_t_fn(j), J=16)
        want = np.zeros(17)
        want[j] = 2.0 if j == 0 else 1.0
        assert np.max(np.abs(t.t - want)) < 1e-12
    # parity: even functions have no odd coefficients and vice versa
    even = tf.cheb_coeffs(F_X2, J=16)
    odd = tf.cheb_coeffs(tf.polynomial([0.0, 0.0, 0.0, 1.0]), J=16)
    assert np.max(np.abs(even.t[1::2])) < 1e-12
    assert np.max(np.abs(odd.t[0::2])) < 1e-12
    # linearity of the coefficient map
    combo = tf.cheb_coeffs(tf.polynomial([0.0, 2.0, -0.5]), J=16)
    tx = tf.cheb_coeffs(F_X, J=16)
    tx2 = tf.cheb_coeffs(F_X2, J=16)
    assert np.max(np.abs(combo.t - (2.0 * tx.t - 0.5 * tx2.t))) < 1e-12
    # closed-form log-field coefficients vs direct quadrature
    z = 0.4 + 0.9j
    tre = tf.cheb_coeffs(tf.log_real(z.real, z.imag), J=64)
    tim = tf.cheb_coeffs(tf.log_imag(z.real, z.imag), J=64)
    for n in range(1, 7):
        assert tf.log_test_coeffs(z, n, "real") == pytest.approx(tre.t[n], abs=1e-8)
        assert tf.log_test_coeffs(z, n, "imag") == pytest.approx(tim.t[n], abs=1e-8)


def test_simulate_command_byte_determinism(tmp_path):
    cfgf = tmp_path / "run.yaml"
    cfgf.write_text(
        "ensemble:\n"
        "  beta: 1\n"
        "  profile: {type: flat, N: 60}\n"
        "testfn: x2\n"
        "run:\n"
        "  replicas: 6\n"
        "  master_seed: 31415\n"
        "  lambda_grid: [0.0, 0.5]\n"
    )
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        rc = cli.main(["simulate", "--config", str(cfgf), "--out", str(out),
                       "--threads", threads])
        assert rc == 0
        blobs.append((out / "samples.csv").read_bytes() + (out / "summary.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
