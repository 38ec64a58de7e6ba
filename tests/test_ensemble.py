import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlss import ensemble as en
from wignerlss import profile as pf


def k_stats(x):
    n = len(x)
    m = x.mean()
    c = x - m
    m2, m3 = np.mean(c ** 2), np.mean(c ** 3)
    k2 = m2 * n / (n - 1)
    k3 = m3 * n * n / ((n - 1) * (n - 2))
    return m, k2, k3


def test_two_point_cumulants():
    d = en.two_point(0.5)
    assert d.kappa3 == pytest.approx(0.0)
    assert d.kappa4 == pytest.approx(-2.0)
    d = en.two_point(0.2)
    assert d.kappa3 == pytest.approx(1.5)
    with pytest.raises(ValueError):
        en.two_point(0.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99))
def test_two_point_moment_identities(p):
    # kappa3 = E X^3 and kappa4 = E X^4 - 3 for the standardized two-point law
    q = np.sqrt(p * (1 - p))
    hi, lo = (1 - p) / q, -p / q
    ex3 = p * hi ** 3 + (1 - p) * lo ** 3
    ex4 = p * hi ** 4 + (1 - p) * lo ** 4
    d = en.two_point(p)
    assert d.kappa3 == pytest.approx(ex3, rel=1e-12, abs=1e-12)
    assert d.kappa4 == pytest.approx(ex4 - 3.0, rel=1e-12, abs=1e-12)


def test_entry_families_standardized():
    rng = np.random.default_rng(0)
    n = 1_000_000
    for mk in (en.gaussian, en.rademacher, en.uniform, lambda: en.two_point(0.2)):
        d = mk()
        x = d.sampler(rng, n)
        se_mean = 1.0 / np.sqrt(n)
        assert abs(x.mean()) < 5 * se_mean * max(1.0, np.std(x))
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = np.sqrt(max(m4 - 1.0, 1e-12) / n)
        assert abs(x.var() - 1.0) < 5 * se_var + 1e-9
        _, _, k3 = k_stats(x)
        assert k3 == pytest.approx(d.kappa3, abs=5 * np.sqrt(15.0 / n) + 0.01)


def test_entry_from_config():
    assert en.entry_from_config("gaussian").family == "gaussian"
    assert en.entry_from_config({"family": "two_point", "p": 0.3}).params == (0.3,)
    with pytest.raises(ValueError):
        en.entry_from_config({"family": "levy"})
    with pytest.raises(ValueError):
        en.entry_from_config({"family": "two_point"})
    for bad in ("0.1", True, float("nan")):
        with pytest.raises(ValueError, match="p must be a finite real number"):
            en.entry_from_config({"family": "two_point", "p": bad})


def test_cumulant_summary_gaussian_zero():
    spec = en.EnsembleSpec(1, pf.profile_flat(10), en.gaussian(), en.gaussian())
    cs = en.cumulant_summary(spec)
    assert cs.kappa3_diag_sum == 0.0
    assert cs.kappa4_sum == 0.0


def test_cumulant_summary_rademacher_offdiag():
    N = 8
    spec = en.EnsembleSpec(1, pf.profile_flat(N), en.rademacher(), en.gaussian())
    cs = en.cumulant_summary(spec)
    assert cs.kappa4_sum == pytest.approx(-2.0 * (1.0 - 1.0 / N), abs=1e-12)
    # direct sum oracle
    S = spec.profile.S
    direct = -2.0 * (np.sum(S ** 2) - np.sum(np.diag(S) ** 2))
    assert cs.kappa4_sum == pytest.approx(direct, abs=1e-14)


def test_cumulant_summary_two_point_diag():
    N = 16
    spec = en.EnsembleSpec(1, pf.profile_flat(N), en.gaussian(), en.two_point(0.2))
    cs = en.cumulant_summary(spec)
    assert cs.kappa3_diag_sum == pytest.approx(1.5 / np.sqrt(N), abs=1e-12)


def test_cumulant_summary_beta2():
    N = 12
    p = pf.profile_band(N, 2)
    spec = en.EnsembleSpec(2, p, en.rademacher(), en.uniform())
    cs = en.cumulant_summary(spec)
    S = p.S
    off = np.sum(S ** 2) - np.sum(np.diag(S) ** 2)
    want = 0.5 * (-2.0) * off + 0.5 * (-1.2) * np.sum(np.diag(S) ** 2)
    assert cs.kappa4_sum == pytest.approx(want, rel=1e-12)


def test_sample_hermitian_and_deterministic():
    p = pf.profile_random_ds(25, 4)
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, p, en.rademacher(), en.two_point(0.3))
        H1 = en.sample(spec, (123, 7))
        H2 = en.sample(spec, (123, 7))
        H3 = en.sample(spec, (123, 8))
        assert np.array_equal(H1, H2)
        assert not np.array_equal(H1, H3)
        assert np.max(np.abs(H1 - H1.conj().T)) == 0.0
        assert np.max(np.abs(np.diag(H1).imag)) == 0.0 if beta == 2 else True


def sample_reference(spec, seed):
    """The same draw built from index arrays and H + H^*, as a bit-exact reference."""
    rng = en.replica_rng(*seed)
    S, N = spec.profile.S, spec.N
    iu = np.triu_indices(N, k=1)
    xi = spec.offdiag.sampler(rng, iu[0].size)
    if spec.beta == 1:
        H = np.zeros((N, N))
        H[iu] = np.sqrt(S[iu]) * xi
        H = H + H.T
    else:
        xi_im = spec.offdiag.sampler(rng, iu[0].size)
        H = np.zeros((N, N), dtype=complex)
        H[iu] = np.sqrt(S[iu] / 2.0) * (xi + 1j * xi_im)
        H = H + H.conj().T
    d = spec.diag.sampler(rng, N)
    H[np.arange(N), np.arange(N)] = np.sqrt(np.diag(S)) * d
    return H


def test_sample_matches_reference():
    # N = 17, 30 and 41 fit in one draw block; the others take three, and at N = 131 and 150
    # the last block draws an odd count (3 and 231 values)
    for beta in (1, 2):
        for N in (17, 131, 150):
            for p in (pf.profile_flat(N), pf.profile_band(N + 24, 5), pf.profile_random_ds(N + 13, 2)):
                for off, dg in ((en.gaussian(), en.two_point(0.1)), (en.rademacher(), en.uniform())):
                    spec = en.EnsembleSpec(beta, p, off, dg)
                    for r in range(3 if N == 17 else 1):
                        ref = sample_reference(spec, (5, r))
                        assert en.sample(spec, (5, r)).tobytes() == ref.tobytes()
                        upper, diag = en.sample(spec, (5, r), packed=True)
                        assert upper.tobytes() == ref[np.triu_indices(p.N, 1)].tobytes()
                        assert diag.tobytes() == np.diag(ref).tobytes()


def draw_peak(beta, N=400):
    """tracemalloc peak, in units of one draw block of 64 rows (8 * 64 * N bytes), of a band
    draw into an existing H."""
    spec = en.EnsembleSpec(beta, pf.profile_band(N, 40), en.gaussian(), en.gaussian())
    H = en.sample(spec, (1, 0))   # builds the spec's sampling scales
    tracemalloc.start()
    try:
        en.sample(spec, (1, 1), out=H)
        return tracemalloc.get_traced_memory()[1] / (8 * 64 * N)
    finally:
        tracemalloc.stop()


def test_beta2_sample_holds_one_draw_vector():
    # each block's draw is freed before the next is drawn, in either part; a whole-triangle
    # draw peaked at 3.12 blocks
    assert draw_peak(2) <= 1.1


def test_beta1_sample_holds_one_draw_vector():
    assert draw_peak(1) <= 1.1   # a whole-triangle draw peaked at 3.12 blocks here too


def scales_peak(spec):
    """tracemalloc peak, in bytes, of building spec's sampling scales."""
    tracemalloc.start()
    try:
        spec._sampling_scales
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("profile", [lambda: pf.profile_band(800, 100), lambda: pf.profile_random_ds(1000, 1)],
                         ids=["band", "random"])
def test_cumulant_summary_holds_no_matrix(profile):
    spec = en.EnsembleSpec(1, profile(), en.rademacher(), en.two_point(0.2))
    en.cumulant_summary(spec)
    tracemalloc.start()
    try:
        en.cumulant_summary(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5   # S * S took 5.25 MB on the band profile and 8 MB on the random one


def test_circulant_sampling_scales_are_O_N():
    for p in (pf.profile_flat(800), pf.profile_band(800, 100)):
        for beta in (1, 2):
            spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
            assert scales_peak(spec) < 1e5   # N^2 scales would take 5.1 MB at N = 800


def test_dense_sampling_scales_hold_one_matrix():
    N = 600
    p = pf.profile_random_ds(N, 1)
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
        assert scales_peak(spec) <= 1.05 * 8 * N * N   # one N x N scale, sqrt taken in place


def test_packed_sample_builds_no_dense_scale():
    # the packed scales are the N(N - 1)/2 values of the strict upper triangle; a draft that
    # built the matrix form's N x N scale here peaked at 2.1 and 2.6 x 8N^2
    N = 600
    p = pf.profile_random_ds(N, 1)
    for beta, bound in ((1, 1.2), (2, 1.7)):   # 1.0 and 1.6 before the draw had one loop
        spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
        tracemalloc.start()
        try:
            en.sample(spec, (1, 0), packed=True)
            en.sample(spec, (1, 1), packed=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * N * N, (beta, peak / (8 * N * N))


def test_sample_moments():
    p = pf.profile_flat(6)
    spec1 = en.EnsembleSpec(1, p, en.gaussian(), en.gaussian())
    spec2 = en.EnsembleSpec(2, p, en.gaussian(), en.gaussian())
    R = 10_000
    v12 = np.empty(R)
    sq = np.empty(R, dtype=complex)
    for r in range(R):
        H = en.sample(spec2, (9, r))
        v12[r] = abs(H[0, 1]) ** 2
        sq[r] = H[0, 1] ** 2
    S12 = p.S[0, 1]
    assert abs(v12.mean() - S12) < 5 * v12.std() / np.sqrt(R)
    # beta=2: E H_12^2 = 0
    assert abs(sq.mean()) < 5 * np.abs(sq).std() / np.sqrt(R) + 5 * S12 / np.sqrt(R)
    H = en.sample(spec1, (42, 0))
    assert H.dtype == np.float64


def test_sample_trace_identities():
    p = pf.profile_band(30, 5)
    spec = en.EnsembleSpec(2, p, en.uniform(), en.rademacher())
    H = en.sample(spec, (11, 0))
    assert np.trace(H).real == pytest.approx(np.sum(np.diag(H).real), rel=1e-12)
    assert np.sum(np.abs(H) ** 2) == pytest.approx(np.linalg.norm(H, "fro") ** 2, rel=1e-12)


def test_beta_validation():
    for beta in (3, True, 1.5):   # True == 1, so only the integer rule rejects it
        with pytest.raises(ValueError):
            en.EnsembleSpec(beta, pf.profile_flat(4), en.gaussian(), en.gaussian())


def test_specs_and_profiles_cannot_change_after_their_checks(tmp_path):
    # beta = 3 used to draw complex matrices scaled as at beta = 1, a new profile kept the old
    # cached scales, and a written S broke the doubly stochastic S its spectrum was solved for
    spec = en.EnsembleSpec(2, pf.profile_flat(10), en.gaussian(), en.gaussian())
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.beta = 3
    en.sample(spec, (1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.profile = pf.profile_flat(12)
    assert spec.beta == 2 and en.sample(spec, (1, 0)).shape == (10, 10)
    p = pf.profile_random_ds(12, 3)
    pf.profile_to_csv(p, tmp_path / "S.csv")
    for q in (p, pf.profile_from_csv(tmp_path / "S.csv"), pf.VarianceProfile.from_matrix(p.S)):
        with pytest.raises(ValueError, match="read-only"):
            q.S[0, 1] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.S = np.full((12, 12), 1.0 / 12)
    assert p.S.tobytes() == pf.profile_random_ds(12, 3).S.tobytes()


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("law", ["gaussian", "rademacher", "two_point", "uniform"])
def test_sample_into_out_matches_fresh_draw(beta, law):
    entry = en.entry_from_config({"family": law, "p": 0.1} if law == "two_point" else law)
    for p in (pf.profile_flat(17), pf.profile_band(41, 5), pf.profile_random_ds(30, 2)):
        spec = en.EnsembleSpec(beta, p, entry, entry)
        buf = np.full((p.N, p.N), np.nan, dtype=float if beta == 1 else complex)
        if beta == 2:
            buf.imag = np.nan  # so the diagonal's zero imaginary part must be written too
        for r in range(2):
            H = en.sample(spec, (5, r), out=buf)
            assert H is buf
            assert buf.tobytes() == en.sample(spec, (5, r)).tobytes()
            # the packed form: H's strict upper triangle, row by row, and its diagonal
            upper, diag = en.sample(spec, (5, r), packed=True)
            assert upper.tobytes() == buf[np.triu_indices(p.N, 1)].tobytes()
            assert diag.tobytes() == np.diag(buf).tobytes()


def test_packed_sample_takes_no_out():
    spec = en.EnsembleSpec(1, pf.profile_flat(6), en.gaussian(), en.gaussian())
    with pytest.raises(ValueError, match="packed form takes no out"):
        en.sample(spec, (1, 0), out=np.empty((6, 6)), packed=True)


def test_packed_scales_of_a_flat_profile_are_scalars():
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, pf.profile_flat(800), en.gaussian(), en.gaussian())
        scale, _ = spec._packed_scales
        assert np.ndim(scale) == 0


def test_sample_out_must_match_shape_and_dtype():
    p = pf.profile_flat(6)
    for beta, good in ((1, float), (2, complex)):
        spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
        bad_dtype = complex if beta == 1 else float
        for out in (np.empty((6, 6), dtype=bad_dtype), np.empty((5, 6), dtype=good),
                    np.empty((36,), dtype=good)):
            with pytest.raises(ValueError, match="out must be"):
                en.sample(spec, (1, 0), out=out)
