"""Per-sample spectral quantities: eigenvalues, centered linear statistics, the log-determinant field, rigidity."""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import semicircle as sc
from .errors import NumericalError
from .testfn import TestFunction

_CONSERVATION_TOL = 1e-8   # per-size budget for eigensolver trace identities
_SUPPORT_LIMIT = 5.0       # test functions are only guaranteed evaluable here
_HERMITIAN_TOL = 1e-12
_FIELD_BLOCK = 1 << 16     # grid-by-spectrum terms per block of the log-field sum


@dataclass(frozen=True)
class SpectralSample:
    """Ascending spectrum of one matrix draw, with the trace data backing conservation checks."""

    eigs: np.ndarray
    trace: float
    frob_sq: float

    def __post_init__(self):
        eigs = np.asarray(self.eigs, dtype=float)
        eigs.setflags(write=False)
        object.__setattr__(self, "eigs", eigs)
        n = eigs.size
        if n == 0:
            raise ValueError("empty spectrum")
        if np.any(np.diff(eigs) < 0.0):
            raise ValueError("eigenvalues must be ascending")
        err1 = abs(float(np.sum(eigs)) - self.trace)
        err2 = abs(float(np.sum(eigs * eigs)) - self.frob_sq)
        if not (err1 <= _CONSERVATION_TOL * n and err2 <= _CONSERVATION_TOL * n):   # NaN fails
            raise NumericalError(
                f"spectrum fails conservation checks: |sum l - tr| = {err1:.3e}, "
                f"|sum l^2 - frob^2| = {err2:.3e}, budget {_CONSERVATION_TOL * n:.3e}"
            )

    @property
    def N(self) -> int:
        return self.eigs.size


def _numpy_openblas() -> Optional[ctypes.CDLL]:
    """numpy's linalg extension module as a ctypes library, or None.

    numpy's pip wheels link a 64-bit-integer OpenBLAS (scipy-openblas64) whose symbols
    carry the scipy_ prefix and 64_ suffix; dlsym on this module finds them in that
    library. Other builds (Accelerate, MKL, a system LAPACK) lack the names, so the
    lookups below give None there.
    """
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None


def _lapack_solvers(lib) -> Optional[dict]:
    """LAPACKE's dsyevd and two-stage zheevd from numpy's OpenBLAS, by the dtype they
    solve, or None; without them eigenvalues falls back to np.linalg.eigvalsh."""
    try:
        solvers = {np.dtype(np.float64): lib.scipy_LAPACKE_dsyevd64_,
                   np.dtype(np.complex128): lib.scipy_LAPACKE_zheevd_2stage64_}
    except AttributeError:
        return None
    for fn in solvers.values():
        # (layout, jobz, uplo, n, a, lda, w) -> info
        fn.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64,
                       ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
        fn.restype = ctypes.c_int64
    return solvers


def _blas_thread_calls(lib) -> Optional[tuple]:
    """(get, set) of the thread count of numpy's OpenBLAS, or None."""
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


_OPENBLAS = _numpy_openblas()
_LAPACK = _lapack_solvers(_OPENBLAS)
_BLAS_THREADS = _blas_thread_calls(_OPENBLAS)
_COL_MAJOR = 102


class _OneBlasThread:
    """Context manager under which numpy's OpenBLAS runs every call on the calling thread.

    The count is process-wide, so nested and concurrent uses share one pin: the first to
    enter saves the caller's count and sets 1, the last to leave puts the saved count back,
    also when the block raises. Without the OpenBLAS thread calls it does nothing.
    """

    def __init__(self, calls: Optional[tuple]):
        self._calls = calls
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        if self._calls is not None:
            get, set_ = self._calls
            with self._lock:
                if self._depth == 0:
                    self._saved = get()
                    set_(1)
                self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        if self._calls is not None:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._calls[1](self._saved)
        return False


one_blas_thread = _OneBlasThread(_BLAS_THREADS)


def _sum_sq(a: np.ndarray) -> float:
    """sum_i |a_i|^2 over every entry of a, by einsum, not BLAS, so that the value does not
    depend on the BLAS thread count."""
    flat = np.ascontiguousarray(a).reshape(-1)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    return float(np.einsum("i,i->", flat, flat))


def eigenvalues(H: np.ndarray, check_hermitian: bool = True) -> SpectralSample:
    """Full ascending spectrum of a Hermitian matrix, solved in place where the drivers allow.

    check_hermitian=False skips the symmetry test, for matrices that ensemble.sample built
    exactly Hermitian. tr H and ||H||_F^2 are read first; a non-finite entry raises
    NumericalError, as does a solver failure.

    The solve is _solve_in_place's. Where numpy exports the LAPACKE drivers (its OpenBLAS
    pip wheels), a C-contiguous, writeable float64 or complex128 H is solved in place, with
    no N x N copy, and its entries are destroyed: a float64 H by dsyevd, eigvalsh's routine,
    a complex128 H by zheevd_2stage. Any other H goes to eigvalsh's copy and is left as it
    was. Both routes read H's upper triangle, so an H that is Hermitian only to
    check_hermitian's tolerance gets the same matrix on each; both solve on one BLAS thread.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if check_hermitian and not np.allclose(H, H.conj().T, rtol=0.0, atol=_HERMITIAN_TOL):
        raise ValueError("H must be Hermitian")
    trace, frob_sq = float(np.trace(H).real), _sum_sq(H)
    if not np.isfinite(frob_sq):
        raise NumericalError(f"non-finite matrix: ||H||_F^2 = {frob_sq!r}")
    return SpectralSample(eigs=_solve_in_place(H), trace=trace, frob_sq=frob_sq)


def _solve_in_place(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian H's upper triangle: the package's one
    eigensolve, and the one place that picks its driver and its BLAS threads.

    A C-contiguous, aligned, writeable H (flags.carray) of a dtype in _LAPACK, read at each
    call, goes to that LAPACKE driver on H's own buffer. LAPACK reads it column-major, as
    H^T = conj(H), with the same spectrum, and with uplo 'L' destroys only H's upper
    triangle and diagonal. For real H each step is the one np.linalg.eigvalsh runs on its
    copy. Any other H goes to np.linalg.eigvalsh of H^T, which solves a copy. Both routes
    run under one_blas_thread, so no caller's BLAS thread count changes the eigenvalues of
    a replica, a profile build or from_matrix. A failure on either raises NumericalError.
    """
    solve = _LAPACK.get(H.dtype) if _LAPACK is not None and H.flags.carray else None
    with one_blas_thread:
        if solve is None:
            try:
                return np.linalg.eigvalsh(H.T)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
        n = H.shape[0]
        eigs = np.empty(n)
        info = solve(_COL_MAJOR, b"N", b"L", n, H.ctypes.data, max(n, 1), eigs.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigenvalue solver failed: LAPACK info = {info}")
    return eigs


def quadratic_coeffs(f: TestFunction) -> Optional[tuple]:
    """(c0, c1, c2) when f is a polynomial whose highest non-zero monomial has degree <= 2,
    else None: the functions whose lss trace_lss reads without a spectrum."""
    c = f.monomials
    if c is None or any(v != 0.0 for v in c[3:]):
        return None
    return (tuple(c) + (0.0, 0.0))[:3]


def packed_trace_sums(upper: np.ndarray, diag: np.ndarray) -> tuple:
    """(tr H, ||H||_F^2) of the Hermitian H whose strict upper triangle and diagonal are
    upper and diag, as ensemble.sample(spec, key, packed=True) returns them: each
    off-diagonal square counts twice, once for its mirror."""
    return float(np.sum(diag.real)), 2.0 * _sum_sq(upper) + _sum_sq(diag)


def trace_lss(N: int, trace: float, frob_sq: float, coeffs: tuple, center: float) -> float:
    """Centered linear statistic of f = c0 + c1 x + c2 x^2 of an N x N Hermitian H from
    trace = tr H and frob_sq = ||H||_F^2 alone, with no eigensolve:
    sum_i f(eig_i) = N c0 + c1 tr H + c2 ||H||_F^2 exactly.

    coeffs is quadratic_coeffs(f) and center is int f d(rho_sc), as in lss. A non-finite
    value raises NumericalError.
    """
    c0, c1, c2 = coeffs
    value = N * c0 + c1 * trace + c2 * frob_sq - N * center
    if not np.isfinite(value):
        raise NumericalError(
            f"non-finite statistic: tr H = {trace!r}, ||H||_F^2 = {frob_sq!r}")
    return value


def lss(sample: SpectralSample, f: TestFunction, center: float) -> float:
    """Centered linear statistic sum_i f(eig_i) - N center.

    center is int f d(rho_sc), the CltPrediction.centering of f that a run computes once,
    before its replicas.
    """
    eigs = sample.eigs
    if eigs[0] < -_SUPPORT_LIMIT or eigs[-1] > _SUPPORT_LIMIT:
        raise NumericalError(
            f"eigenvalue outside [-{_SUPPORT_LIMIT}, {_SUPPORT_LIMIT}] "
            f"(min {eigs[0]:.6g}, max {eigs[-1]:.6g}); sampling or solver bug"
        )
    return float(np.sum(f(eigs)) - sample.N * center)


def exact_hits(eigs: np.ndarray, E) -> np.ndarray:
    """Mask of the points of E equal to some eigenvalue, by binary search on the ascending
    spectrum eigs: the points at which the eta = 0 field is infinite."""
    return np.searchsorted(eigs, E, "left") != np.searchsorted(eigs, E, "right")


def log_char_field(sample: SpectralSample, E, eta: float):
    """Centered log-determinant field at E + i*eta, principal branch.

    Re part: sum_j (1/2) log((eig_j - E)^2 + eta^2) minus N times the semicircle log
    potential (closed form on and off the axis). Im part at eta = 0: pi (#{eig > E} -
    N (1 - F_sc(E))); at eta > 0 the principal complex log is used throughout. E may be a
    scalar or a grid; output is in grid order. The sum over the spectrum runs over blocks
    of grid points with at most _FIELD_BLOCK terms each (one row if N is larger), so the
    temporaries take O(_FIELD_BLOCK + N + grid size) memory, not O(grid size * N); each
    point's sum is the same as in one grid-wide sum. At eta = 0 a point equal to an
    eigenvalue (exact_hits) raises NumericalError naming the first one in grid order.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    scalar_in = np.isscalar(E) or np.ndim(E) == 0
    Es = np.atleast_1d(np.asarray(E, dtype=float))
    eigs = sample.eigs
    N = sample.N
    if eta == 0.0:
        if np.any(np.abs(Es) >= 2.0):
            raise ValueError("eta = 0 field needs E inside (-2, 2)")
        hit = exact_hits(eigs, Es)
        if hit.any():
            raise NumericalError(f"E = {float(Es[hit][0])!r} collides with an eigenvalue at eta = 0")
    total = np.empty(Es.size, dtype=float if eta == 0.0 else complex)
    step = max(1, _FIELD_BLOCK // N)
    for lo in range(0, Es.size, step):
        block = Es[lo:lo + step]
        if eta == 0.0:
            diff = np.subtract.outer(block, eigs)
            np.abs(diff, out=diff)
        else:
            diff = np.subtract.outer(block + 1j * eta, eigs)
        np.log(diff, out=diff)
        np.sum(diff, axis=1, out=total[lo:lo + step])
    if eta == 0.0:
        counts = N - np.searchsorted(eigs, Es, side="right")
        im = np.pi * counts.astype(float)
        pot = sc.log_potential(Es)
        out = (total - N * pot.real) + 1j * (im - N * pot.imag)
    else:
        out = total - N * sc.log_potential(Es, eta)
    if scalar_in:
        return complex(out[0])
    return out


class RigidityStats(NamedTuple):
    max_stat: float
    min_stat: float


@functools.lru_cache(maxsize=32)
def _classical_all(N: int) -> np.ndarray:
    g = sc.classical_locations(np.arange(1, N + 1), N)
    g.setflags(write=False)
    return g


def rigidity_window(N: int, kappa: float) -> tuple:
    """(k_lo, k_hi) = (ceil(kappa N), floor((1 - kappa) N)), the 1-based indices of the
    kappa-bulk eigenvalues; ValueError if kappa is not in (0, 1/2) or the window is empty."""
    if not 0.0 < kappa < 0.5:
        raise ValueError("rigidity kappa must be in (0, 1/2)")
    k_lo = int(np.ceil(kappa * N))
    k_hi = int(np.floor((1.0 - kappa) * N))
    if k_lo < 1 or k_lo > k_hi:
        raise ValueError(f"empty bulk window for rigidity kappa = {kappa}, N = {N}")
    return k_lo, k_hi


def _rigidity_vector(sample: SpectralSample, kappa: float) -> np.ndarray:
    """Normalized gaps (pi/sqrt2) rho_sc(g_k) N (eig_k - g_k)/log N over the bulk window."""
    N = sample.N
    k_lo, k_hi = rigidity_window(N, kappa)
    ks = np.arange(k_lo, k_hi + 1)
    gam = _classical_all(N)[ks - 1]
    lam = sample.eigs[ks - 1]
    return (np.pi / np.sqrt(2.0)) * sc.rho_sc(gam) * N * (lam - gam) / np.log(N)


def rigidity_stats(sample: SpectralSample, kappa: float) -> RigidityStats:
    """Extremes of the normalized eigenvalue-location gaps over the kappa-bulk."""
    v = _rigidity_vector(sample, kappa)
    return RigidityStats(float(np.max(v)), float(np.min(v)))

