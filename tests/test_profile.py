import numpy as np
import pytest

from wignerlss import profile as pf
from wignerlss.errors import NumericalError


def random_profile(N, seed, roughness=0.6):
    return pf.profile_random_ds(N, seed, roughness)


def test_flat_profile():
    p = pf.profile_flat(4)
    assert np.allclose(pf.trace_powers(p, 8), 1.0, atol=1e-12)
    assert np.max(np.abs(p.a_spectrum)) < 1e-12
    rep = pf.validate(p)
    assert rep["min_entry_N"] == pytest.approx(1.0)
    assert rep["max_entry_N"] == pytest.approx(1.0)
    assert rep["spectral_gap"] == pytest.approx(1.0)


def test_band_profile():
    N, W = 40, 4
    p = pf.profile_band(N, W)
    assert np.max(np.abs(p.S.sum(axis=1) - 1.0)) < 1e-14
    assert pf.trace_powers(p, 2)[1] == pytest.approx(np.sum(p.S ** 2), abs=1e-10)
    # circulant eigenvalues: Dirichlet kernel of the blended symbol
    ks = np.arange(N)
    eig_oracle = np.zeros(N)
    for j in range(N):
        w = np.where(np.minimum(ks, N - ks) <= W, (1 - 1e-3) / (2 * W + 1), 0.0) + 1e-3 / N
        eig_oracle[j] = np.sum(w * np.cos(2 * np.pi * j * ks / N))
    got = np.sort(p.spectrum)
    assert np.allclose(got, np.sort(eig_oracle), atol=1e-10)
    gap = pf.validate(p)["spectral_gap"]
    assert 0.0 < gap < 1.0
    with pytest.raises(ValueError):
        pf.profile_band(10, 5)


def test_band_halfwidth_limit_is_flat():
    N = 9
    p = pf.profile_band(N, (N - 1) // 2)
    assert np.allclose(p.S, 1.0 / N, atol=1e-15)


def band_matrix_reference(N, W):
    """Band S built entrywise from the circulant distance, as a full N x N matrix."""
    idx = np.arange(N)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, N - dist)
    band = (dist <= W) / (2.0 * W + 1.0)
    S = (1.0 - pf._BAND_BLEND) * band + pf._BAND_BLEND / N
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("N", [2, 3, 8, 41, 301, 800])
def test_circulant_spectrum_matches_eigensolver(N):
    profiles = [pf.profile_flat(N)]
    if N >= 3:
        W = min(max(1, N // 8), (N - 1) // 2)
        profiles.append(pf.profile_band(N, W))
        assert profiles[-1].S.tobytes() == band_matrix_reference(N, W).tobytes()
    for p in profiles:
        assert p.spectrum.shape == (N,)
        assert np.max(np.abs(p.spectrum - np.linalg.eigvalsh(p.S)[::-1])) <= 1e-13
        assert p.spectrum[0] == pytest.approx(1.0, abs=1e-14)
        want = p.spectrum.copy()
        want[0] = 0.0
        assert np.array_equal(p.a_spectrum, np.sort(want)[::-1])


def test_circulant_checks_match_from_matrix():
    with pytest.raises(ValueError, match="symmetric"):
        pf.VarianceProfile.from_circulant(np.array([0.5, 0.3, 0.2]), {"type": "x"})
    with pytest.raises(ValueError, match="positive"):
        pf.VarianceProfile.from_circulant(np.array([1.0, 0.0, 0.0]), {"type": "x"})
    with pytest.raises(ValueError, match="doubly stochastic"):
        pf.VarianceProfile.from_circulant(np.array([0.5, 0.3, 0.3]), {"type": "x"})


def test_random_ds_profile():
    p = random_profile(30, seed=123)
    assert np.max(np.abs(p.S.sum(axis=1) - 1.0)) < 1e-12
    assert np.array_equal(p.S, p.S.T)
    assert p.S.min() > 0
    q = random_profile(30, seed=123)
    assert np.array_equal(p.S, q.S)  # bit-identical on same seed
    r = random_profile(30, seed=124)
    assert not np.array_equal(p.S, r.S)


def test_random_ds_zero_roughness_is_flat():
    p = pf.profile_random_ds(12, seed=5, roughness=0.0)
    assert np.allclose(p.S, 1.0 / 12, atol=1e-13)


def test_perron_pair_invariant():
    for p in (pf.profile_flat(8), pf.profile_band(25, 3), random_profile(20, 9)):
        e = np.ones(p.N)
        assert np.max(np.abs(p.S @ e - e)) <= 1e-10
        assert p.spectrum[0] == pytest.approx(1.0, abs=1e-10)
        # a_spectrum = spectrum with the Perron eigenvalue replaced by 0
        want = np.sort(np.concatenate([p.spectrum[1:], [0.0]]))
        assert np.max(np.abs(np.sort(p.a_spectrum) - want)) < 1e-8


def test_trace_powers():
    p = random_profile(25, 3)
    assert pf.trace_powers(p, 1)[0] == pytest.approx(np.trace(p.S), abs=1e-10)
    assert pf.trace_powers(p, 2)[1] == pytest.approx(np.linalg.norm(p.S, "fro") ** 2, abs=1e-10)
    tp = pf.trace_powers(p, 40)
    gap = p.gap
    for j in range(1, 41):
        assert abs(tp[j - 1] - 1.0) <= (1.0 - gap) ** (j - 1) * p.N + 1e-12


def test_validate_rejections():
    S = np.full((5, 5), 0.2)
    S[0, 1] = S[1, 0] = 0.0
    S[0, 0] = S[1, 1] = 0.4
    with pytest.raises(ValueError):
        pf.validate(S)
    bad = np.full((5, 5), 0.21)
    with pytest.raises(ValueError):
        pf.validate(bad)


def test_resolvent_trace():
    p = pf.profile_flat(6)
    assert pf.resolvent_trace(p, 0.5) == pytest.approx(2.0, abs=1e-12)
    assert pf.resolvent_trace(p, 0.0) == pytest.approx(np.trace(p.S), abs=1e-12)
    rng = np.random.default_rng(17)
    q = random_profile(50, 21)
    I = np.eye(50)
    for _ in range(20):
        M = (rng.uniform(0, 0.99) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        dense = np.trace(np.linalg.solve(I - M * q.S, q.S))
        assert pf.resolvent_trace(q, M) == pytest.approx(dense, abs=1e-9)
    # Sherman-Morrison split: tr(S(1-MS)^-1) = tr(S(1-MA)^-1) + M/(1-M), A = S - ee*/N
    M = 0.7 * np.exp(0.3j)
    A = q.S - 1.0 / q.N
    dense_sm = np.trace(np.linalg.solve(I - M * A, q.S)) + M / (1.0 - M)
    assert pf.resolvent_trace(q, M) == pytest.approx(dense_sm, abs=1e-9)
    # same split in eigen form: deflated sum + 1/(1-M) (the +1 is S acting on the Perron direction)
    a_part = np.sum(q.a_spectrum / (1.0 - M * q.a_spectrum))
    assert pf.resolvent_trace(q, M) == pytest.approx(a_part + 1.0 / (1.0 - M), abs=1e-9)
    with pytest.raises(NumericalError):
        pf.resolvent_trace(p, 1.0 - 1e-12)


def test_resolvent_trace_vectorized():
    q = random_profile(20, 2)
    Ms = np.exp(1j * np.linspace(0.1, 3.0, 7)) * 0.9
    got = pf.resolvent_trace(q, Ms)
    want = np.array([pf.resolvent_trace(q, m) for m in Ms])
    assert np.allclose(got, want, atol=1e-12)


def test_csv_roundtrip(tmp_path):
    p = random_profile(15, 33)
    path = tmp_path / "S.csv"
    pf.profile_to_csv(p, path)
    q = pf.profile_from_csv(path)
    assert np.allclose(p.S, q.S, atol=1e-15)
    assert q.descriptor["type"] == "csv"


def test_descriptor_roundtrip():
    p = random_profile(10, 77, roughness=0.3)
    q = pf.profile_from_descriptor(p.descriptor)
    assert np.array_equal(p.S, q.S)
    with pytest.raises(ValueError):
        pf.profile_from_descriptor({"type": "nope"})
