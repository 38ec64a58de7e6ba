import json
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as st

from wignerlss import ensemble as en
from wignerlss import functionals as fl
from wignerlss import harness as hn
from wignerlss import profile as pf
from wignerlss import semicircle as sc
from wignerlss import spectral as sp
from wignerlss import testfn as tf
from wignerlss.errors import NumericalError

F_X = tf.from_name("x")
F_X2 = tf.from_name("x2")


def small_config(N=10, R=2, beta=1, seed=42, **kw):
    spec = en.EnsembleSpec(beta, pf.profile_flat(N), en.gaussian(), en.gaussian())
    return hn.RunConfig(spec=spec, f=F_X2, replicas=R, master_seed=seed, **kw)


@pytest.mark.parametrize("kw, key", [
    ({"lambda_grid": "12"}, "lambda_grid must be a list or tuple"),
    ({"lambda_grid": [True, 0.5]}, "lambda_grid must be a finite real number"),
    ({"lambda_grid": (0.5, np.inf)}, "lambda_grid must be a finite real number"),
    ({"lambda_grid": [10 ** 400]}, "lambda_grid must be a finite real number"),
    ({"rigidity": "0.1"}, "rigidity must be a finite real number"),
    ({"maxfield": ("0.3", 400)}, "kappa must be a finite real number"),
], ids=["lambda-text", "lambda-bool", "lambda-inf", "lambda-10**400", "rigidity-text", "kappa-text"])
def test_real_valued_fields_take_only_real_numbers(kw, key):
    with pytest.raises(ValueError, match=key):
        small_config(N=40, **kw)
    cfg = small_config(N=40, lambda_grid=[0, 1], rigidity=0.1, maxfield=(0.3, 400))
    assert (cfg.lambda_grid, cfg.rigidity, cfg.maxfield) == ((0.0, 1.0), 0.1, (0.3, 400))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(R=1)
    with pytest.raises(ValueError):
        small_config(lambda_grid=(0.5, np.inf))
    with pytest.raises(ValueError):
        small_config(maxfield=(0.2, 50))
    with pytest.raises(ValueError):
        small_config(rigidity=0.7)


@pytest.mark.parametrize("run", [
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=4, master_seed=1.5),
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=4, master_seed=-1),
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=4, master_seed=2 ** 64),
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=4.5, master_seed=1),
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=True, master_seed=1),
    lambda spec: hn.RunConfig(spec=spec, f=F_X2, replicas=4, master_seed=1, maxfield=(0.2, 150.7)),
    lambda spec: hn.max_field_experiment(spec, 0.2, 150, 2.5),
    lambda spec: hn.max_field_experiment(spec, 0.2, 150.7, 2),
    lambda spec: hn.max_field_experiment(spec, 0.2, 150, 2, master_seed=2.5),
    lambda spec: hn.max_field_experiment(spec, 0.2, 150, 2, master_seed=2 ** 64),
], ids=["seed-fraction", "seed-negative", "seed-2**64", "replicas-fraction", "replicas-bool",
        "grid-fraction", "maxfield-R-fraction", "maxfield-grid-fraction",
        "maxfield-seed-fraction", "maxfield-seed-2**64"])
def test_non_integral_counts_and_seeds_fail_before_any_draw(monkeypatch, run):
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key, **kw: draws.append(key))
    spec = en.EnsembleSpec(1, pf.profile_flat(10), en.gaussian(), en.gaussian())
    with pytest.raises(ValueError, match="must be an integer|must lie in"):
        run(spec)
    assert draws == []


def test_empirical_char_trivial():
    x = np.zeros(100)
    assert hn.empirical_char(x, 0.0) == 1.0
    lams = np.array([-2.0, 0.0, 0.7, 3.0])
    assert np.all(hn.empirical_char(x, lams) == 1.0)
    rng = np.random.default_rng(0)
    y = rng.standard_normal(500)
    assert hn.empirical_char(y, 0.0) == 1.0
    vals = hn.empirical_char(y, np.linspace(-30, 30, 61))
    assert np.all(np.abs(vals) <= 1.0)


def test_empirical_char_gaussian_oracle():
    rng = np.random.default_rng(77)
    mu, sigma, R = 0.3, 1.2, 10 ** 5
    x = rng.normal(mu, sigma, R)
    lam = 1.0
    want = np.exp(1j * lam * mu - lam ** 2 * sigma ** 2 / 2.0)
    assert abs(hn.empirical_char(x, lam) - want) <= 4.0 / np.sqrt(R)


def test_cumulants_constant_and_symmetric():
    c = 3.25
    ks = hn.cumulant_estimates(np.full(12, c))
    assert ks == hn.CumulantEstimates(c, 0.0, 0.0, 0.0, 0.0, 0.0)
    pm = np.array([1.0, -1.0] * 8)
    ks = hn.cumulant_estimates(pm)
    assert ks.k1 == 0.0
    assert ks.k3 == pytest.approx(0.0, abs=1e-14)


def test_cumulants_match_scipy_kstat():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.standard_gamma(2.0, size=int(rng.integers(5, 200)))
        ks = hn.cumulant_estimates(x)
        assert ks.k1 == pytest.approx(st.kstat(x, 1), rel=1e-12)
        assert ks.k2 == pytest.approx(st.kstat(x, 2), rel=1e-10)
        assert ks.k3 == pytest.approx(st.kstat(x, 3), rel=1e-9, abs=1e-12)


def test_cumulants_two_point_oracle():
    # standardized two_point(0.2) has third cumulant (1 - 2p)/sqrt(p(1-p)) = 1.5
    dist = en.two_point(0.2)
    rng = np.random.default_rng(99)
    x = dist.sampler(rng, 10 ** 6)
    ks = hn.cumulant_estimates(x)
    assert abs(ks.k3 - 1.5) <= 5.0 * ks.se3
    assert abs(ks.k2 - 1.0) <= 5.0 * ks.se2


def test_cumulants_se_identities():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(4000)
    ks = hn.cumulant_estimates(x)
    assert ks.se1 == pytest.approx(np.std(x, ddof=1) / np.sqrt(x.size), rel=1e-10)
    assert ks.se2 == pytest.approx(ks.k2 * np.sqrt(2.0 / x.size), rel=0.2)
    with pytest.raises(ValueError):
        hn.cumulant_estimates(np.ones(3))


def test_run_ensemble_deterministic_across_threads():
    # x^2 takes the trace route; the Gaussian bump solves for each spectrum
    for f in (F_X2, tf.gauss_bump(0.3, 0.7)):
        cfg = small_config(N=10, R=4, lambda_grid=(0.0, 0.5))
        object.__setattr__(cfg, "f", f)
        outs = {hn.run_ensemble(cfg, threads=k).to_json() for k in (1, 4)}
        assert len(outs) == 1, f.label
        assert hn.run_ensemble(cfg, threads=1).to_json() in outs
    # enough trace-route replicas that every worker draws many packed replicas
    for beta in (1, 2):
        cfg = small_config(N=50, R=64, beta=beta, lambda_grid=(0.0, 0.5))
        outs = {hn.run_ensemble(cfg, threads=k).to_json() for k in (1, 2, 4)}
        assert len(outs) == 1, beta


def test_run_ensemble_char_at_zero_and_k2():
    cfg = small_config(N=30, R=50, lambda_grid=(0.0, 1.0))
    res = hn.run_ensemble(cfg)
    assert res.char_emp[0] == 1.0
    assert res.kstats.k2 >= 0.0
    assert len(res.lss_samples) == 50
    json.loads(res.to_json())


def test_run_ensemble_variance_oracle():
    # Var(tr H) = tr S, here 1 for a flat profile
    N, R = 300, 2000
    spec = en.EnsembleSpec(1, pf.profile_flat(N), en.gaussian(), en.gaussian())
    cfg = hn.RunConfig(spec=spec, f=F_X, replicas=R, master_seed=7, lambda_grid=(0.0,))
    res = hn.run_ensemble(cfg)
    assert abs(res.kstats.k2 - 1.0) <= 4.0 * res.kstats.se2


def test_run_ensemble_skewed_mean_oracle():
    # exact moments with a skewed diagonal: E LSS(x^3) = s3hat and E LSS(x^2) = 0
    # at every N. Distinguishes a pure-T3 skew term from anything carrying t0 or t2.
    N, R = 64, 8000
    spec = en.EnsembleSpec(1, pf.profile_flat(N), en.gaussian(), en.two_point(0.05))
    summ = en.cumulant_summary(spec)
    x3 = tf.polynomial([0.0, 0.0, 0.0, 1.0])
    vals2, vals3 = np.empty(R), np.empty(R)
    c2, c3 = (float(sc.integrate_rho_sc(f, nodes=2048).real) for f in (F_X2, x3))
    for r in range(R):
        eig = sp.eigenvalues(en.sample(spec, (246, r)))
        vals2[r] = sp.lss(eig, F_X2, c2)
        vals3[r] = sp.lss(eig, x3, c3)
    k2 = hn.cumulant_estimates(vals2)
    k3 = hn.cumulant_estimates(vals3)
    p = spec.profile
    assert abs(k2.k1 - fl.mean_correction(tf.cheb_coeffs(F_X2), p, summ, 1)) <= 4.0 * k2.se1
    assert abs(k3.k1 - fl.mean_correction(tf.cheb_coeffs(x3), p, summ, 1)) <= 4.0 * k3.se1
    assert abs(k3.k1 - summ.kappa3_diag_sum) <= 4.0 * k3.se1
    assert k3.k1 >= 8.0 * k3.se1  # the shift itself is resolved, not just consistent


def test_run_ensemble_replica_failure_reports_index(monkeypatch):
    # an f that fails everywhere fails in the prediction, which runs before any draw; a
    # failing draw names its replica (test_failing_replica_cancels_the_rest)
    def boom(x):
        raise RuntimeError("bad f")

    calls = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key: calls.append(key))
    cfg = small_config(N=6, R=3)
    object.__setattr__(cfg, "f", tf.smooth(boom, label="boom"))
    with pytest.raises(RuntimeError, match="bad f"):
        hn.run_ensemble(cfg)
    assert calls == []


def test_failing_replica_cancels_the_rest(monkeypatch):
    # replica 0 fails at once; the queued replicas behind it must not all be drawn
    real = en.sample
    calls = []

    def counted(spec, key, **kw):
        calls.append(key)
        if key[1] == 0:
            raise RuntimeError("bad draw")
        return real(spec, key, **kw)

    monkeypatch.setattr(hn.en, "sample", counted)
    R = 200
    cfg = small_config(N=40, R=R, seed=5, lambda_grid=(0.0,))
    runs = {
        "run_ensemble": lambda: hn.run_ensemble(cfg, threads=2),
        "max_field_experiment": lambda: hn.max_field_experiment(
            cfg.spec, kappa=0.3, E_grid_size=150, R=R, master_seed=5, threads=2),
    }
    for name, run in runs.items():
        calls.clear()
        with pytest.raises(NumericalError, match=r"replica 0 failed \(master_seed 5\): bad draw"):
            run()
        assert len(calls) < R // 4, (name, len(calls))


def test_run_ensemble_centering_computed_once(monkeypatch):
    # the centering comes from the run's one prediction, made before the replicas
    calls = []
    real = fl.clt_prediction

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(hn.fl, "clt_prediction", counted)
    cfg = small_config(N=6, R=16, lambda_grid=(0.0,))
    serial = hn.run_ensemble(cfg, threads=1)
    assert len(calls) == 1
    pooled = hn.run_ensemble(cfg, threads=8)
    assert len(calls) == 2
    assert pooled.to_json() == serial.to_json()


@pytest.mark.parametrize("beta", [1, 2])
def test_trace_route_matches_spectral_route(beta):
    # rigidity forces the eigensolve, so the same draws go through both routes
    entries = [(en.gaussian(), en.two_point(0.1)), (en.rademacher(), en.gaussian()),
               (en.two_point(0.3), en.rademacher())]
    for off, diag in entries:
        spec = en.EnsembleSpec(beta, pf.profile_band(40, 5), off, diag)
        for name in ("x", "x2", [0.5, -1.0, 2.0], [0.0, 0.0, 1.0, 0.0]):
            f = tf.from_name(name)
            trace = hn.RunConfig(spec=spec, f=f, replicas=6, master_seed=17, lambda_grid=(0.0,))
            spectral = hn.RunConfig(spec=spec, f=f, replicas=6, master_seed=17,
                                    lambda_grid=(0.0,), rigidity=0.25)
            a = hn.run_ensemble(trace).lss_samples
            b = hn.run_ensemble(spectral).lss_samples
            assert np.max(np.abs(a - b)) <= 1e-9, (off.family, diag.family, f.label)


def test_trace_route_skips_the_eigensolve(monkeypatch):
    real = sp.eigenvalues
    calls = []

    def counted(H, *args, **kwargs):
        calls.append(1)
        return real(H, *args, **kwargs)

    monkeypatch.setattr(hn.sp, "eigenvalues", counted)
    R = 5
    runs = [
        (small_config(N=20, R=R), 0),
        (small_config(N=20, R=R, rigidity=0.25), R),
        (small_config(N=20, R=R, maxfield=(0.2, 120)), R),
    ]
    for name in ("cheb(2)", [0.0, 0.0, 0.0, 1.0]):
        cfg = small_config(N=20, R=R)
        object.__setattr__(cfg, "f", tf.from_name(name))
        runs.append((cfg, R))
    for cfg, want in runs:
        calls.clear()
        hn.run_ensemble(cfg)
        assert len(calls) == want, (cfg.f.label, cfg.maxfield, cfg.rigidity)


@pytest.mark.parametrize("fs, kw, packed", [
    ([F_X2], {}, True),
    ([F_X2, tf.gauss_bump(0.3, 0.7)], {}, False),
    ([F_X2], {"rigidity": 0.25}, False),
    ([], {"maxfield": (0.2, 120)}, False),
], ids=["x2", "x2-and-gauss", "x2-rigidity", "maxfield"])
def test_replica_table_picks_the_route(monkeypatch, fs, kw, packed):
    # the packed trace route only when every f is a polynomial of degree <= 2 and there is
    # no maxfield or rigidity; any other mix solves every replica
    real = en.sample
    routes = []

    def counted(spec, key, **kwargs):
        routes.append(kwargs.get("packed", False))
        return real(spec, key, **kwargs)

    monkeypatch.setattr(hn.en, "sample", counted)
    R = 4
    spec = en.EnsembleSpec(1, pf.profile_flat(20), en.gaussian(), en.gaussian())
    pairs = tuple((f, float(sc.integrate_rho_sc(f, nodes=2048).real)) for f in fs)
    table, collisions = hn._replica_table(spec, 3, R, 2, None, fs=pairs, **kw)
    assert routes == [packed] * R
    assert table.shape == (R, len(fs) + 3 * ("maxfield" in kw) + 2 * ("rigidity" in kw))
    assert np.all(np.isfinite(table)) and collisions == ()


def test_trace_route_non_finite_draw_reports_replica(monkeypatch):
    # the trace route reads the packed draw (upper, diag); poison H_11 in replica 3
    real = en.sample

    def poisoned(spec, key, **kw):
        upper, diag = real(spec, key, **kw)
        if key[1] == 3:
            diag[1] = np.nan
        return upper, diag

    monkeypatch.setattr(hn.en, "sample", poisoned)
    for threads in (1, 2):
        cfg = small_config(N=20, R=8, seed=5, lambda_grid=(0.0,))
        with pytest.raises(NumericalError,
                           match=r"replica 3 failed \(master_seed 5\): non-finite statistic"):
            hn.run_ensemble(cfg, threads=threads)


def count_sample_calls(monkeypatch) -> list:
    """Wrap en.sample in every wignerlss namespace that binds it, as a tracer would, and
    return the list each call appends its key to."""
    real = en.sample
    keys = []

    def counted(spec, key, *args, **kwargs):
        keys.append(key)
        return real(spec, key, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wignerlss":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return keys


@pytest.mark.parametrize("threads", [1, 2])
def test_each_replica_draws_once_on_every_route(monkeypatch, threads):
    # a tracer counts replicas as en.sample calls, so every route draws through it once
    keys = count_sample_calls(monkeypatch)
    R, seed = 6, 4
    spec = en.EnsembleSpec(2, pf.profile_band(30, 4), en.gaussian(), en.gaussian())
    runs = {
        "trace route": lambda: hn.run_ensemble(
            hn.RunConfig(spec=spec, f=F_X2, replicas=R, master_seed=seed), threads=threads),
        "spectral route": lambda: hn.run_ensemble(
            hn.RunConfig(spec=spec, f=tf.from_name("gauss(0.3,0.7)"), replicas=R,
                         master_seed=seed), threads=threads),
        "max_field_experiment": lambda: hn.max_field_experiment(
            spec, kappa=0.3, E_grid_size=150, R=R, master_seed=seed, threads=threads),
    }
    for name, run in runs.items():
        keys.clear()
        run()
        assert sorted(keys) == [(seed, r) for r in range(R)], name


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "two_point", "uniform"])
def test_packed_route_matches_trace_lss_of_the_matrix(beta, law):
    # the trace route's statistic from the packed draw, against the same sums over the
    # matrix sample draws for the same key
    entry = en.entry_from_config({"family": law, "p": 0.1} if law == "two_point" else law)
    R, seed = 5, 23
    for p in (pf.profile_flat(24), pf.profile_band(41, 5), pf.profile_random_ds(30, 2)):
        spec = en.EnsembleSpec(beta, p, entry, entry)
        for name in ("x", "x2", [0.5, -1.0, 2.0]):
            f = tf.from_name(name)
            cfg = hn.RunConfig(spec=spec, f=f, replicas=R, master_seed=seed, lambda_grid=(0.0,))
            res = hn.run_ensemble(cfg)
            c0, c1, c2 = coeffs = sp.quadratic_coeffs(f)
            center = res.prediction.centering
            for r in range(R):
                H = en.sample(spec, (seed, r))
                trace, frob_sq = float(np.trace(H).real), float(np.sum(np.abs(H) ** 2))
                want = sp.trace_lss(p.N, trace, frob_sq, coeffs, center)
                # relative to the terms the centered statistic is the difference of: with
                # Rademacher entries ||H||_F^2 is fixed, and x^2's statistic is 0 up to rounding
                terms = abs(c1 * trace) + abs(c2) * frob_sq + p.N * (abs(c0) + abs(center))
                assert abs(res.lss_samples[r] - want) <= 1e-12 * terms, (p.descriptor, f.label, r)


@pytest.mark.parametrize("beta, bound", [(1, 1.25), (2, 1.75)])
def test_trace_route_holds_no_matrix(beta, bound):
    # a packed draw is N(N - 1)/2 entries (complex for beta = 2) and its real vectors;
    # cumulant_summary reads S's squares by einsum, with no N x N temporary
    N = 600
    spec = en.EnsembleSpec(beta, pf.profile_flat(N), en.gaussian(), en.gaussian())
    cfg = hn.RunConfig(spec=spec, f=F_X2, replicas=4, master_seed=1, lambda_grid=(0.0,))
    tracemalloc.start()
    try:
        hn.run_ensemble(cfg, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * N * N


@pytest.mark.parametrize("threads", [1, 2])
def test_replicas_reuse_one_matrix_per_worker(monkeypatch, threads):
    # every replica's H goes through the eigensolver; keeping each one shows how many
    # distinct matrices a run allocates
    real = sp.eigenvalues
    kept = []

    def keeping(H, *args, **kwargs):
        kept.append(H)
        return real(H, *args, **kwargs)

    monkeypatch.setattr(hn.sp, "eigenvalues", keeping)
    R = 12
    cfg = small_config(N=20, R=R, lambda_grid=(0.0,), rigidity=0.25)
    runs = {
        "run_ensemble": lambda: hn.run_ensemble(cfg, threads=threads),
        "max_field_experiment": lambda: hn.max_field_experiment(
            cfg.spec, kappa=0.3, E_grid_size=150, R=R, master_seed=5, threads=threads),
    }
    for name, run in runs.items():
        kept.clear()
        run()
        assert len(kept) == R, name
        assert len({id(H) for H in kept}) <= threads, name


def synthetic_result(R=20000, V=2.0, E=0.3, B=0.0, seed=1):
    rng = np.random.default_rng(seed)
    samples = rng.normal(E, np.sqrt(V), R)
    cfg = small_config(N=200, R=R, lambda_grid=(0.0, 0.25, 0.5, 1.0))
    pred = fl.CltPrediction(variance=V, mean_shift=E, cubic=B, beta=1,
                            centering=1.0)  # int x^2 d(rho_sc), as small_config uses x2
    return hn.RunResult(
        config=cfg,
        lss_samples=samples,
        char_emp=hn.empirical_char(samples, np.asarray(cfg.lambda_grid)),
        kstats=hn.cumulant_estimates(samples),
        prediction=pred,
    )


def test_compare_self_consistency():
    res = synthetic_result()
    report = hn.compare(res)
    assert report["overall_pass"]
    assert all(row["pass"] for row in report["char"])
    assert abs(report["mean"]["z"]) <= 4.0
    assert abs(report["variance"]["z"]) <= 4.0
    json.dumps(report)
    for key in ("mean", "variance", "third_cumulant"):
        assert report[key]["threshold"] == 4.0
    assert report["char"][0]["threshold"] > 0.0


def test_compare_power_against_inflated_variance():
    res = synthetic_result(R=2000, seed=3)
    bad = fl.CltPrediction(variance=4.0 * res.prediction.variance,
                           mean_shift=res.prediction.mean_shift, cubic=0.0, beta=1,
                           centering=res.prediction.centering)
    res.prediction = bad
    report = hn.compare(res)
    assert not report["overall_pass"]
    assert report["variance"]["z"] < -5.0


def test_compare_third_cumulant_conventions_recorded():
    # one signed z-score, k3 against B itself: Gaussian samples (k3 near 0, se3 about 0.033)
    # pass against B = +-0.05 and fail against B = +-0.5
    for B in (0.05, -0.05, 0.5, -0.5):
        tc = hn.compare(synthetic_result(R=5000, V=1.0, E=0.0, B=B, seed=9))["third_cumulant"]
        assert set(tc) == {"estimate", "se", "predicted", "z", "threshold", "pass"}
        assert tc["predicted"] == B
        assert tc["z"] == pytest.approx((tc["estimate"] - B) / tc["se"], rel=1e-12)
        assert tc["pass"] is (abs(B) < 0.1)


def test_max_field_experiment_small():
    spec = en.EnsembleSpec(1, pf.profile_flat(100), en.gaussian(), en.gaussian())
    out = hn.max_field_experiment(spec, kappa=0.3, E_grid_size=150, R=3, master_seed=5)
    for key in ("re_ratio", "im_plus_ratio", "im_minus_ratio"):
        assert out[key].shape == (3,)
        assert np.all(np.isfinite(out[key]))
        assert np.all(out[key] > 0.0)
    two = hn.max_field_experiment(spec, kappa=0.3, E_grid_size=150, R=3, master_seed=5, threads=2)
    for key in ("re_ratio", "im_plus_ratio", "im_minus_ratio"):
        assert np.array_equal(out[key], two[key])


def test_max_ratios_collision_nudge():
    grid = np.linspace(-1.8, 1.8, 181)
    hit = float(grid[37])
    eigs = np.sort(np.array([hit, -2.1, 0.93, 1.4, 2.2]))
    s = sp.SpectralSample(eigs=eigs, trace=float(eigs.sum()), frob_sq=float((eigs ** 2).sum()))
    re, imp, imm, cols = hn._max_ratios(s, kappa=0.2, grid_size=181, replica=4)
    assert cols == [(4, hit)]
    assert np.isfinite(re) and np.isfinite(imp) and np.isfinite(imm)


def test_run_ensemble_with_experiments():
    cfg = small_config(N=120, R=3, maxfield=(0.2, 120), rigidity=0.1)
    res = hn.run_ensemble(cfg)
    assert res.maxfield["re_ratio"].shape == (3,)
    assert res.rigidity["max"].shape == (3,)
    assert np.all(res.rigidity["max"] >= res.rigidity["min"])
    d = res.to_dict()
    assert "maxfield" in d and "rigidity" in d
    json.dumps(d)


def test_lambda_window_scale():
    assert hn.lambda_window(100) == pytest.approx(0.5 * 100 ** 0.4)
    assert hn.lambda_window(400) > hn.lambda_window(100)


def test_samples_csv(tmp_path):
    path = tmp_path / "s.csv"
    hn.samples_to_csv(path, np.array([1.5, -0.25, 3.0]))
    back = np.loadtxt(path, skiprows=1)
    assert np.array_equal(back, [1.5, -0.25, 3.0])


@pytest.mark.parametrize("threads", [1, 2])
def test_run_ensemble_maxfield_equals_max_field_experiment(threads):
    cfg = small_config(N=120, R=3, beta=2, seed=9, maxfield=(0.2, 150))
    block = hn.run_ensemble(cfg, threads=threads).maxfield
    out = hn.max_field_experiment(cfg.spec, 0.2, 150, 3, master_seed=9, threads=threads)
    assert set(block) == set(out)
    for key in ("re_ratio", "im_plus_ratio", "im_minus_ratio"):
        assert block[key].tobytes() == out[key].tobytes(), key
    assert block["collisions"] == out["collisions"]


@pytest.mark.skipif(sp._BLAS_THREADS is None or sp._LAPACK is None,
                    reason="numpy exports no OpenBLAS thread calls or LAPACKE drivers")
@pytest.mark.parametrize("threads", [1, 2])
def test_replicas_run_on_one_blas_thread_and_restore_the_callers_count(monkeypatch, threads):
    # the count is read inside the solver, so the pin is the one around the solve itself
    get, set_ = sp._BLAS_THREADS
    caller = get()
    seen = []

    def watched(real):
        def solve(*args):
            seen.append(get())
            return real(*args)
        return solve

    def failing(*args):
        return -1   # a LAPACK info code: eigenvalues raises NumericalError inside its pin

    try:
        set_(2)
        cfg = small_config(N=20, R=4, lambda_grid=(0.0,))
        object.__setattr__(cfg, "f", tf.gauss_bump(0.3, 0.7))
        monkeypatch.setattr(sp, "_LAPACK", {k: watched(v) for k, v in sp._LAPACK.items()})
        hn.run_ensemble(cfg, threads=threads)
        assert seen == [1] * 4
        assert get() == 2
        monkeypatch.setattr(sp, "_LAPACK", {k: failing for k in sp._LAPACK})
        with pytest.raises(NumericalError, match=r"replica 0 failed"):
            hn.run_ensemble(cfg, threads=threads)
        assert get() == 2
    finally:
        set_(caller)


@pytest.mark.skipif(sp._BLAS_THREADS is None, reason="numpy exports no OpenBLAS thread calls")
def test_public_eigenvalues_reproduce_a_replica_spectrum_on_any_blas_count(monkeypatch):
    # the documented route sp.eigenvalues(en.sample(spec, (seed, r))) gives replica r's
    # spectrum byte for byte, whatever BLAS thread count its caller runs
    get, set_ = sp._BLAS_THREADS
    caller = get()
    real = sp.eigenvalues
    kept = []

    def keeping(H, *args, **kwargs):
        s = real(H, *args, **kwargs)
        kept.append(s.eigs.tobytes())
        return s

    monkeypatch.setattr(hn.sp, "eigenvalues", keeping)
    R, seed = 2, 13
    try:
        set_(2)
        for beta in (1, 2):
            spec = en.EnsembleSpec(beta, pf.profile_band(300, 30), en.gaussian(), en.gaussian())
            kept.clear()
            hn.max_field_experiment(spec, kappa=0.2, E_grid_size=200, R=R, master_seed=seed)
            again = [real(en.sample(spec, (seed, r))).eigs.tobytes() for r in range(R)]
            assert again == kept, beta
            assert get() == 2
    finally:
        set_(caller)
