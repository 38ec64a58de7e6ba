import ctypes
import tracemalloc

import numpy as np
import pytest

from oracles import profile_random_dense
from wignerlss import profile as pf
from wignerlss import spectral as sp
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


def test_band_build_holds_no_dense_matrix():
    N, W = 1500, 50
    pf.profile_band(N, W)
    tracemalloc.start()
    try:
        p = pf.profile_band(N, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * N * N  # S is a view of one (2N - 1)-vector; a dense S was 1.13
    assert not p.S.flags.writeable
    assert p.S.tobytes() == band_matrix_reference(N, W).tobytes()


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


@pytest.mark.parametrize("N, seed, roughness", [
    (1000, 1, 0.5), (1000, 2, 0.5), (37, 5, 0.3), (200, 9, 1.0), (2, 3, 0.0)])
def test_random_ds_matches_dense_construction(N, seed, roughness):
    p = pf.profile_random_ds(N, seed, roughness)
    q = profile_random_dense(N, seed, roughness)
    assert p.S.tobytes() == q.S.tobytes()
    assert p.spectrum.tobytes() == q.spectrum.tobytes()
    assert p.descriptor == q.descriptor


def test_random_ds_build_holds_two_matrices():
    N = 600
    pf.profile_random_ds(N, 1)
    tracemalloc.start()
    try:
        pf.profile_random_ds(N, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * N * N  # S and the eigensolver's copy; out of place was 4.9 x 8N^2


def test_random_ds_build_holds_one_matrix():
    N = 600
    pf.profile_random_ds(N, 1)
    tracemalloc.start()
    try:
        pf.profile_random_ds(N, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * N * N  # S, solved in its own buffer; S.T and eigvalsh's copy took 2.0


@pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 130, 300])
def test_tiled_symmetrize_and_mirror_match_the_whole_matrix(N):
    A = np.random.default_rng(N).standard_normal((N, N))
    want = A.copy()
    want += want.T
    want *= 0.5
    S = A.copy()
    pf._symmetrize(S)
    assert S.tobytes() == want.tobytes()
    S = A.copy()
    pf._mirror_lower(S)
    assert S.tobytes() == (np.tril(A) + np.tril(A, -1).T).tobytes()
    S = A.copy()
    pf._mirror_lower(S.T)   # as profile_random_ds mirrors its draw: upper onto lower
    assert S.tobytes() == (np.triu(A) + np.triu(A, 1).T).tobytes()


@pytest.mark.parametrize("build, args, bound", [
    (pf.profile_random_ds, (600, 1), 1.10), (pf.profile_band, (800, 100), 0.08)],
    ids=["random", "band"])
def test_checks_make_no_dense_temporaries(build, args, bound):
    # _checked reads finiteness off min and max and symmetry in _TILE-row strips; its N x N
    # bool temporaries took the peaks to 1.15 and 0.16 x 8N^2
    N = args[0]
    build(*args)
    tracemalloc.start()
    try:
        build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * N * N


@pytest.mark.parametrize("bad, message", [
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (0.3, "symmetric")])
def test_checks_name_the_fault_in_any_strip(bad, message):
    N = 150
    for i, j in ((0, 1), (70, 140), (149, 3)):
        S = np.full((N, N), 1.0 / N)
        S[i, j] = bad
        with pytest.raises(ValueError, match=message):
            pf.VarianceProfile.from_matrix(S)


@pytest.mark.parametrize("lapack", [True, False], ids=["lapacke", "eigvalsh"])
@pytest.mark.parametrize("N", [2, 37, 129, 1000])
def test_in_place_build_matches_from_matrix(monkeypatch, tmp_path, N, lapack):
    # the build solves S in its own buffer and restores it; from_matrix runs that build on a copy
    if not lapack:
        monkeypatch.setattr(sp, "_LAPACK", None)
    elif sp._LAPACK is None:
        pytest.skip("numpy exports no LAPACKE eigenvalue drivers")
    p = pf.profile_random_ds(N, 4)
    given = p.S.copy()
    q = pf.VarianceProfile.from_matrix(given)
    assert not np.shares_memory(q.S, given)
    assert given.tobytes() == p.S.tobytes() == q.S.tobytes()
    assert p.spectrum.tobytes() == q.spectrum.tobytes()
    path = tmp_path / "S.csv"
    pf.profile_to_csv(p, path)
    c = pf.profile_from_csv(path)
    assert c.S.tobytes() == p.S.tobytes()
    assert c.spectrum.tobytes() == p.spectrum.tobytes()


def test_failed_in_place_solve_restores_S_and_raises(monkeypatch):
    def garbling(layout, jobz, uplo, n, a, lda, w):
        # LAPACK's workspace: the upper triangle and diagonal of the C-order buffer
        A = np.ctypeslib.as_array(ctypes.cast(a, ctypes.POINTER(ctypes.c_double)), shape=(n, n))
        A[np.triu_indices(n)] = np.nan
        return 1

    S = pf.profile_random_ds(40, 3).S.copy()
    before = S.copy()
    monkeypatch.setattr(sp, "_LAPACK", {np.dtype(np.float64): garbling})
    with pytest.raises(NumericalError, match="info = 1"):
        pf._spectrum_in_place(S)
    assert S.tobytes() == before.tobytes()
    with pytest.raises(NumericalError, match="info = 1"):
        pf.profile_random_ds(40, 3)


def test_failed_eigvalsh_raises_numerical_error(monkeypatch):
    # without the LAPACKE drivers every solve is eigvalsh's, and its LinAlgError is a
    # solver failure, not a ValueError
    def failing(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    S = pf.profile_random_ds(40, 3).S.copy()
    before = S.copy()
    monkeypatch.setattr(sp, "_LAPACK", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NumericalError, match="eigenvalue solver failed: Eigenvalues did not"):
        pf.profile_random_ds(40, 3)
    with pytest.raises(NumericalError, match="eigenvalue solver failed"):
        pf.VarianceProfile.from_matrix(S)
    assert S.tobytes() == before.tobytes()


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
        pf.VarianceProfile.from_matrix(S)
    bad = np.full((5, 5), 0.21)
    with pytest.raises(ValueError):
        pf.VarianceProfile.from_matrix(bad)


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


def test_csv_symmetrizes_like_the_dense_mean(tmp_path):
    row = np.random.default_rng(4).uniform(0.5, 1.5, 9)
    S = np.array([np.roll(row / row.sum(), i) for i in range(9)])  # doubly stochastic, not symmetric
    assert not np.array_equal(S, S.T)
    path = tmp_path / "S.csv"
    np.savetxt(path, S, delimiter=",", fmt="%.17g")
    raw = np.loadtxt(path, delimiter=",", ndmin=2)
    q = pf.profile_from_csv(path)
    assert q.S.tobytes() == (0.5 * (raw + raw.T)).tobytes()


def test_descriptor_roundtrip():
    p = random_profile(10, 77, roughness=0.3)
    q = pf.profile_from_descriptor(p.descriptor)
    assert np.array_equal(p.S, q.S)
    with pytest.raises(ValueError):
        pf.profile_from_descriptor({"type": "nope"})
    integral_floats = {"type": "band", "N": 60.0, "params": {"W": 4.0}}
    assert pf.profile_from_descriptor(integral_floats).descriptor == pf.profile_band(60, 4).descriptor


@pytest.mark.parametrize("d", [
    {"type": "band", "N": 60.7, "params": {"W": 4}},
    {"type": "band", "N": 60, "params": {"W": 4.9}},
    {"type": "flat", "N": True},
    {"type": "flat", "N": "60"},
    {"type": "random", "N": 20, "seed": 1.5},
])
def test_descriptor_rejects_non_integral_sizes(d):
    with pytest.raises(ValueError, match="must be an integer"):
        pf.profile_from_descriptor(d)


@pytest.mark.parametrize("d, message", [
    ({"type": "csv", "params": {"path": ["0.5,0.5", "0.5,0.5"]}}, "path must be a string"),
    ({"type": "random", "N": 10, "seed": -1}, r"seed must lie in \[0, 2\*\*64\)"),
    ({"type": "random", "N": 10, "seed": 2 ** 64}, r"seed must lie in \[0, 2\*\*64\)"),
    ({"type": "random", "N": 10, "seed": 1, "params": {"roughness": "0.5"}}, "roughness must be"),
], ids=["csv-path-list", "seed-negative", "seed-2**64", "roughness-text"])
def test_descriptor_rejects_bad_path_seed_and_roughness(d, message):
    # a list path once built a 2 x 2 profile from its items; a seed out of range raised
    # OverflowError from the Philox key
    with pytest.raises(ValueError, match=message):
        pf.profile_from_descriptor(d)
    top = {"type": "random", "N": 10, "seed": 2 ** 64 - 1, "params": {"roughness": 0.5}}
    assert pf.profile_from_descriptor(top).descriptor["seed"] == 2 ** 64 - 1
