import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import log_char_field_dense
from wignerlss import ensemble as en
from wignerlss import profile as pf
from wignerlss import semicircle as sc
from wignerlss import spectral as sp
from wignerlss import testfn as tf
from wignerlss.errors import NumericalError

F_ONE = tf.polynomial([1.0])
F_X = tf.from_name("x")
F_X2 = tf.from_name("x2")


def draw(N=200, beta=1, seed=7, profile=None):
    p = profile or pf.profile_flat(N)
    spec = en.EnsembleSpec(beta, p, en.gaussian(), en.gaussian())
    return sp.eigenvalues(en.sample(spec, (seed, 0)))


def synthetic(eigs):
    eigs = np.sort(np.asarray(eigs, dtype=float))
    return sp.SpectralSample(eigs=eigs, trace=float(eigs.sum()), frob_sq=float((eigs ** 2).sum()))


def empirical_stieltjes(sample, z):
    """N^-1 sum_j 1/(eig_j - z) for a non-real scalar z."""
    if np.imag(z) == 0.0:
        raise ValueError("empirical_stieltjes requires Im z != 0")
    return complex(np.mean(1.0 / (sample.eigs - z)))


def test_eigenvalues_trivial():
    s = sp.eigenvalues(np.zeros((4, 4)))
    assert np.all(s.eigs == 0.0)
    s = sp.eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.eigs, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_conservation_random():
    for beta in (1, 2):
        s = draw(N=200, beta=beta, seed=11)
        N = s.N
        assert abs(s.eigs.sum() - s.trace) <= 1e-8 * N
        assert abs((s.eigs ** 2).sum() - s.frob_sq) <= 1e-8 * N
        assert np.all(np.diff(s.eigs) >= 0)


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sp.eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        sp.eigenvalues(np.zeros((2, 3)))


def solver_profiles(N):
    """A flat, a band and a random profile where N admits one; N = 1 has only the flat one."""
    out = [pf.VarianceProfile.from_circulant(np.full(N, 1.0 / N), {"type": "flat", "N": N})]
    if N >= 3:
        out.append(pf.profile_band(N, max(1, N // 8)))
    if N >= 2:
        out.append(pf.profile_random_ds(N, 3))
    return out


def lapack_on_copy(H):
    """The eigenvalues of spectral's in-place LAPACKE driver for H.dtype, run on a copy of H
    on one BLAS thread, as eigenvalues runs it."""
    A = H.copy()
    w = np.empty(H.shape[0])
    with sp.one_blas_thread:
        assert sp._LAPACK[H.dtype](sp._COL_MAJOR, b"N", b"L", H.shape[0], A.ctypes.data,
                                   max(H.shape[0], 1), w.ctypes.data) == 0
    return w


def eigvalsh_pinned(H):
    """np.linalg.eigvalsh(H) on one BLAS thread, as eigenvalues runs its solve."""
    with sp.one_blas_thread:
        return np.linalg.eigvalsh(H)


def assert_backward_close(eigs, want, N):
    """Two backward-stable Hermitian solvers each err by O(N eps ||H||_2), and by Weyl's
    inequality so do their eigenvalues; the bound allows 4 N eps ||H||_2 between them."""
    bound = 4.0 * max(N, 1) * np.finfo(float).eps * np.max(np.abs(want))
    assert np.max(np.abs(eigs - want)) <= bound


@pytest.mark.skipif(sp._LAPACK is None, reason="numpy exports no LAPACKE eigenvalue drivers")
@pytest.mark.parametrize("N", [1, 2, 37, 300])
def test_inplace_solver_matches_eigvalsh(N):
    for p in solver_profiles(N):
        for beta in (1, 2):
            spec = en.EnsembleSpec(beta, p, en.gaussian(), en.two_point(0.3))
            H = en.sample(spec, (9, N))
            want = eigvalsh_pinned(H)
            on_copy = lapack_on_copy(H)
            before = H.copy()
            s = sp.eigenvalues(H, check_hermitian=False)
            if beta == 1:   # dsyevd, the routine eigvalsh runs
                assert s.eigs.tobytes() == want.tobytes(), (p.descriptor, beta)
            else:           # zheevd_2stage: its own bytes, within rounding of eigvalsh's
                assert s.eigs.tobytes() == on_copy.tobytes(), (p.descriptor, beta)
                assert_backward_close(s.eigs, want, N)
            assert s.trace == float(np.trace(before).real)
            if N > 2:   # the solver used H as its workspace
                assert H.tobytes() != before.tobytes()


@pytest.mark.parametrize("beta, skew", [(1, 0.0), (2, 0.0), (1, 3e-13), (2, 3e-13)],
                         ids=["1", "2", "1-skew", "2-skew"])
def test_fallback_solver_gives_the_same_sample(monkeypatch, beta, skew):
    spec = en.EnsembleSpec(beta, pf.profile_band(120, 9), en.rademacher(), en.gaussian())
    H = en.sample(spec, (4, 1))
    # skew > 0: H is Hermitian only to within check_hermitian's tolerance, and both routes
    # must solve the same triangle of it
    upper = np.triu_indices_from(H, 1)
    H[upper] += np.random.default_rng(5).uniform(-skew, skew, upper[0].size)
    before = H.copy()
    inplace = sp.eigenvalues(H.copy())
    monkeypatch.setattr(sp, "_LAPACK", None)
    fallback = sp.eigenvalues(H)
    assert H.tobytes() == before.tobytes()   # eigvalsh solves a copy
    if beta == 1:
        assert fallback.eigs.tobytes() == inplace.eigs.tobytes()
    else:   # eigvalsh's zheevd against the in-place zheevd_2stage
        assert_backward_close(inplace.eigs, fallback.eigs, H.shape[0])
    assert (fallback.trace, fallback.frob_sq) == (inplace.trace, inplace.frob_sq)


@pytest.mark.skipif(sp._BLAS_THREADS is None, reason="numpy exports no OpenBLAS thread calls")
def test_nested_blas_pins_restore_once_the_last_one_leaves():
    get, set_ = sp._BLAS_THREADS
    caller = get()
    pin = sp._OneBlasThread(sp._BLAS_THREADS)
    try:
        set_(2)
        with pin:
            with pin:
                assert get() == 1
            assert get() == 1
        assert get() == 2
        with sp._OneBlasThread(None):   # a numpy without the thread calls: nothing changes
            assert get() == 2
    finally:
        set_(caller)


@pytest.mark.skipif(sp._BLAS_THREADS is None, reason="numpy exports no OpenBLAS thread calls")
def test_concurrent_blas_pins_hold_and_restore():
    # more threads than cores enter and leave one pin with a short switch interval: a lost
    # depth update would restore the caller's count under a holder, or never restore it
    get, set_ = sp._BLAS_THREADS
    caller = get()
    pin = sp._OneBlasThread(sp._BLAS_THREADS)
    unpinned = []

    def work():
        for _ in range(300):
            with pin:
                if get() != 1:
                    unpinned.append(get())

    interval = sys.getswitchinterval()
    workers = [threading.Thread(target=work) for _ in range(8)]
    try:
        set_(2)
        sys.setswitchinterval(1e-6)
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
        assert unpinned == []
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        set_(caller)


@pytest.mark.skipif(sp._BLAS_THREADS is None, reason="numpy exports no OpenBLAS thread calls")
@pytest.mark.parametrize("lapack", [True, False], ids=["lapacke", "eigvalsh"])
def test_profile_builds_solve_on_one_blas_thread_and_restore_the_callers_count(monkeypatch, lapack):
    # a profile build calls _solve_in_place without eigenvalues, so the pin must sit in the
    # solve itself; the count is read inside the driver
    get, set_ = sp._BLAS_THREADS
    caller = get()
    seen = []

    def watched(real):
        def solve(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)
        return solve

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    if not lapack:
        monkeypatch.setattr(sp, "_LAPACK", None)
        monkeypatch.setattr(np.linalg, "eigvalsh", watched(np.linalg.eigvalsh))
    elif sp._LAPACK is None:
        pytest.skip("numpy exports no LAPACKE eigenvalue drivers")
    else:
        monkeypatch.setattr(sp, "_LAPACK", {k: watched(v) for k, v in sp._LAPACK.items()})
    try:
        set_(2)
        pf.profile_random_ds(200, 1)
        assert seen == [1]
        assert get() == 2
        if lapack:
            monkeypatch.setattr(sp, "_LAPACK", {k: lambda *args: 1 for k in sp._LAPACK})
        else:
            monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="eigenvalue solver failed"):
            pf.profile_random_ds(200, 1)
        assert get() == 2
    finally:
        set_(caller)


def test_eigenvalues_leave_an_H_the_drivers_cannot_take_unchanged():
    # read-only, Fortran-order and strided H go to eigvalsh's copy and give the in-place
    # route's spectrum (to rounding at beta = 2); on the in-place route H is the workspace
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, pf.profile_flat(50), en.gaussian(), en.gaussian())
        H = en.sample(spec, (2, 0))
        readonly = H.copy()
        readonly.setflags(write=False)
        strided = np.repeat(H, 2, axis=1)[:, ::2]
        want = sp.eigenvalues(H.copy())
        for other in (readonly, np.asfortranarray(H), strided):
            before = other.tobytes()
            s = sp.eigenvalues(other)
            assert other.tobytes() == before
            if beta == 1:
                assert s.eigs.tobytes() == want.eigs.tobytes()
            else:   # eigvalsh's zheevd against the in-place zheevd_2stage
                assert_backward_close(s.eigs, want.eigs, H.shape[0])


@pytest.mark.parametrize("lapack", ["in place", "fallback"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_raises_on_both_routes(monkeypatch, lapack, bad):
    if lapack == "fallback":
        monkeypatch.setattr(sp, "_LAPACK", None)
    for beta in (1, 2):
        spec = en.EnsembleSpec(beta, pf.profile_flat(30), en.gaussian(), en.gaussian())
        for i, j in ((3, 3), (5, 2), (2, 5)):
            H = en.sample(spec, (1, 0))
            H[i, j] = bad
            with pytest.raises(NumericalError):
                sp.eigenvalues(H, check_hermitian=False)


def test_sample_conservation_guard():
    with pytest.raises(NumericalError):
        sp.SpectralSample(eigs=np.array([0.0, 1.0]), trace=2.0, frob_sq=1.0)
    with pytest.raises(ValueError):
        sp.SpectralSample(eigs=np.array([1.0, 0.0]), trace=1.0, frob_sq=1.0)
    with pytest.raises(NumericalError):
        sp.SpectralSample(eigs=np.array([0.0, np.nan]), trace=0.0, frob_sq=0.0)


def test_lss_exact_oracles():
    for beta in (1, 2):
        s = draw(N=150, beta=beta, seed=3)
        # int 1, x, x^2 d(rho_sc) = 1, 0, 1
        assert sp.lss(s, F_ONE, 1.0) == 0.0
        assert sp.lss(s, F_X, 0.0) == pytest.approx(s.trace, abs=1e-8 * s.N)
        assert sp.lss(s, F_X2, 1.0) == pytest.approx(s.frob_sq - s.N, abs=1e-8 * s.N)


def test_lss_linearity():
    s = draw(N=80, seed=5)
    f = tf.polynomial([0.0, 2.0, -1.0])
    g = tf.gauss_bump(0.3, 0.7)
    a, b = 1.7, -0.4
    comb = tf.smooth(lambda x: a * f(x) + b * g(x), label="comb")

    def center(h):
        return float(sc.integrate_rho_sc(h).real)

    got = sp.lss(s, comb, center(comb))
    want = a * sp.lss(s, f, center(f)) + b * sp.lss(s, g, center(g))
    assert got == pytest.approx(want, abs=1e-10)


def test_lss_support_guard():
    s = synthetic([6.0])
    with pytest.raises(NumericalError):
        sp.lss(s, F_X, 0.0)


def test_field_eta0_counting():
    s = draw(N=100, seed=9)
    L = sp.log_char_field(s, 0.0, 0.0)
    n_above = int(np.sum(s.eigs > 0.0))
    assert L.imag == pytest.approx(np.pi * (n_above - s.N / 2.0), abs=1e-12)
    # integer-plus-shift property at several E
    for E in (-1.3, -0.4, 0.2, 1.1):
        L = sp.log_char_field(s, E, 0.0)
        shifted = L.imag / np.pi + s.N * (1.0 - sc.sc_cdf(E))
        assert shifted == pytest.approx(round(shifted), abs=1e-9)


def test_field_eta0_centering():
    s = synthetic([-1.5, 0.3, 0.9])
    E = 0.0
    L = sp.log_char_field(s, E, 0.0)
    want_re = float(np.sum(np.log(np.abs(s.eigs - E)))) - 3 * (E * E / 4.0 - 0.5)
    assert L.real == pytest.approx(want_re, rel=1e-12)


def test_field_same_spectrum_same_field():
    rng = np.random.default_rng(12)
    H = rng.standard_normal((40, 40))
    H = (H + H.T) / 2.0
    P = np.eye(40)[rng.permutation(40)]
    s1 = sp.eigenvalues(H.copy())
    s2 = sp.eigenvalues(P @ H @ P.T)
    grid = np.linspace(-1.5, 1.5, 11)
    a = sp.log_char_field(s1, grid, 0.02)
    b = sp.log_char_field(s2, grid, 0.02)
    assert np.allclose(a, b, rtol=0, atol=1e-9)


def test_field_collision_and_bulk_guards():
    s = synthetic([0.5, 1.0])
    with pytest.raises(NumericalError):
        sp.log_char_field(s, 0.5, 0.0)
    with pytest.raises(ValueError):
        sp.log_char_field(s, 2.0, 0.0)
    with pytest.raises(ValueError):
        sp.log_char_field(s, 0.1, -0.1)
    sp.log_char_field(s, 0.5, 0.01)  # off the axis the collision is harmless


def field_block_rows(N):
    return max(1, sp._FIELD_BLOCK // N)


@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_field_blocks_match_one_shot_sum(eta):
    s = draw(N=300, seed=4)
    B = field_block_rows(s.N)
    for size in (1, B - 1, B, B + 1, 2000):
        grid = np.linspace(-1.9, 1.9, size) if size > 1 else np.array([0.3])
        got = sp.log_char_field(s, grid, eta)
        assert got.tobytes() == log_char_field_dense(s.eigs, grid, eta).tobytes(), size


def test_field_collision_in_last_block_is_named():
    s = synthetic(np.random.default_rng(3).uniform(-1.9, 1.9, 800))
    grid = np.linspace(-1.8, 1.8, 2000)
    assert grid.size % field_block_rows(s.N) != 1  # the last block holds more than the hit
    E = float(s.eigs[-5])
    grid[-1] = E
    with pytest.raises(NumericalError, match=f"^E = {re.escape(repr(E))} collides"):
        sp.log_char_field(s, grid, 0.0)


def test_exact_hits_matches_isin():
    eigs = np.array([-1.5, -0.25, 0.0, 0.0, 0.75, 1.25])   # 0.0 repeated
    cases = [
        np.array([-1.5, 1.25]),                        # first and last eigenvalue
        np.array([-3.0, -1.5000001, 1.2500001, 9.0]),  # below and above the spectrum
        np.array([-0.0, 0.0, 0.75, 0.5]),              # -0.0 against 0.0, a hit and a miss
        np.linspace(-2.0, 2.0, 17),
    ]
    for E in cases:
        assert np.array_equal(sp.exact_hits(eigs, E), np.isin(E, eigs)), E
    E, eigs = np.array([0.0]), np.array([-0.0, 1.0])
    assert np.array_equal(sp.exact_hits(eigs, E), np.isin(E, eigs)) and sp.exact_hits(eigs, E)[0]


def test_field_names_first_collision_in_grid_order():
    s = synthetic(np.array([-1.0, -0.5, 0.25, 0.5, 1.0]))
    grid = np.array([0.9, 0.5, 0.1, -0.5])
    with pytest.raises(NumericalError, match="^E = 0.5 collides"):
        sp.log_char_field(s, grid, 0.0)


def test_field_memory_does_not_grow_with_grid():
    s = synthetic(np.random.default_rng(8).uniform(-1.9, 1.9, 800))
    grid = np.linspace(-1.8, 1.8, 2000)
    sp.log_char_field(s, grid, 0.0)
    tracemalloc.start()
    try:
        sp.log_char_field(s, grid, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # a grid-wide 2000 x 800 difference array alone is 12.8 MB


def test_field_eta_monotone_and_consistent():
    s = draw(N=60, seed=21)
    E = 0.7
    etas = [1e-3, 1e-2, 0.1, 0.5, 1.0]
    raw = [float(np.sum(0.5 * np.log((s.eigs - E) ** 2 + h ** 2))) for h in etas]
    assert np.all(np.diff(raw) >= 0.0)
    for h in etas:
        a = sp.log_char_field(s, E, h)
        b = sp.log_char_field(s, np.array([E]), h)[0]
        assert a == pytest.approx(b, abs=1e-10)


def test_field_eta_to_zero_limit():
    # branch/sign agreement between the exact eta = 0 path and the quadrature
    # path; tolerance covers the 2048-node rule's error at the log singularity
    s = draw(N=60, seed=22)
    E = 0.37
    lim = sp.log_char_field(s, E, 0.0)
    near = sp.log_char_field(s, E, 1e-6)
    assert near.real == pytest.approx(lim.real, abs=0.15)
    assert near.imag == pytest.approx(lim.imag, abs=0.15)


def test_field_grid_vectorized():
    s = draw(N=50, seed=2)
    grid = np.linspace(-1.0, 1.0, 7)
    vec = sp.log_char_field(s, grid, 0.05)
    one = np.array([sp.log_char_field(s, float(E), 0.05) for E in grid])
    assert np.allclose(vec, one, rtol=0, atol=1e-12)


def test_rigidity_zero_on_classical():
    N = 300
    gam = sc.classical_locations(np.arange(1, N + 1), N)
    s = synthetic(gam)
    st = sp.rigidity_stats(s, 0.1)
    assert st.max_stat == 0.0 and st.min_stat == 0.0


def test_rigidity_reflection_indexing():
    # with quantiles F(g_k) = k/N the exact identity is g_k = -g_{N-k}; check the
    # statistic of the reflected spectrum matches the re-indexed original
    s = draw(N=120, seed=33)
    refl = synthetic(-s.eigs)
    kappa = 0.2
    v_orig = sp._rigidity_vector(s, kappa)
    v_refl = sp._rigidity_vector(refl, kappa)
    N = s.N
    k_lo = int(np.ceil(kappa * N))
    k_hi = int(np.floor((1 - kappa) * N))
    ks = np.arange(k_lo, k_hi + 1)
    gam = sc.classical_locations(ks, N)
    lam_refl = np.sort(-s.eigs)[ks - 1]
    want = (np.pi / np.sqrt(2.0)) * sc.rho_sc(gam) * N * (lam_refl - gam) / np.log(N)
    assert np.allclose(v_refl, want, rtol=0, atol=1e-12)
    # reflected max equals -min of the original up to the one-index quantile shift
    shift = 3.0 * np.pi / np.log(N)
    assert abs(v_refl.max() + v_orig.min()) <= shift


def test_rigidity_window_validation():
    s = synthetic(np.linspace(-1, 1, 10))
    with pytest.raises(ValueError):
        sp.rigidity_stats(s, 0.0)
    with pytest.raises(ValueError):
        sp.rigidity_stats(s, 0.6)
    assert sp.rigidity_window(10, 0.25) == (3, 7)
    assert sp.rigidity_window(3, 0.3) == (1, 2)
    with pytest.raises(ValueError, match="empty bulk window"):
        sp.rigidity_window(3, 0.4)   # ceil(1.2) = 2 > floor(1.8) = 1
    with pytest.raises(ValueError, match="empty bulk window"):
        sp.rigidity_stats(synthetic([-1.0, 0.0, 1.0]), 0.4)


def test_stieltjes_basic_properties():
    s = draw(N=100, seed=40)
    z = 0.3 + 0.8j
    m = empirical_stieltjes(s, z)
    assert m.imag > 0.0
    assert empirical_stieltjes(s, np.conj(z)) == pytest.approx(np.conj(m), abs=1e-15)
    with pytest.raises(ValueError):
        empirical_stieltjes(s, 1.5)


def test_stieltjes_matches_semicircle():
    # local-law surrogate at z = 2i: |m_N - m_sc| <= (log N)^2/(N eta), N = 500
    N, eta = 500, 2.0
    bound = np.log(N) ** 2 / (N * eta)
    hits = 0
    p = pf.profile_flat(N)
    spec = en.EnsembleSpec(1, p, en.gaussian(), en.gaussian())
    for r in range(20):
        s = sp.eigenvalues(en.sample(spec, (123, r)))
        m = empirical_stieltjes(s, 2.0j)
        hits += abs(m - sc.msc(2.0j)) <= bound
    assert hits >= 19
