"""Per-sample spectral quantities: eigenvalues, centered linear statistics, the log-determinant field, rigidity."""

from __future__ import annotations

import functools
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
        if err1 > _CONSERVATION_TOL * n or err2 > _CONSERVATION_TOL * n:
            raise NumericalError(
                f"spectrum fails conservation checks: |sum l - tr| = {err1:.3e}, "
                f"|sum l^2 - frob^2| = {err2:.3e}, budget {_CONSERVATION_TOL * n:.3e}"
            )

    @property
    def N(self) -> int:
        return self.eigs.size


def eigenvalues(H: np.ndarray, check_hermitian: bool = True) -> SpectralSample:
    """Full ascending spectrum of a Hermitian matrix via a dense symmetric solver.

    check_hermitian=False skips the symmetry test, for matrices that ensemble.sample built
    exactly Hermitian.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    if check_hermitian and not np.allclose(H, H.conj().T, rtol=0.0, atol=_HERMITIAN_TOL):
        raise ValueError("H must be Hermitian")
    try:
        eigs = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    trace = float(np.trace(H).real)
    frob_sq = float(np.vdot(H, H).real)
    return SpectralSample(eigs=eigs, trace=trace, frob_sq=frob_sq)


def quadratic_coeffs(f: TestFunction) -> Optional[tuple]:
    """(c0, c1, c2) when f is a polynomial whose highest non-zero monomial has degree <= 2,
    else None: the functions whose lss trace_lss reads without a spectrum."""
    c = f.monomials
    if c is None or any(v != 0.0 for v in c[3:]):
        return None
    return (tuple(c) + (0.0, 0.0))[:3]


def trace_lss(H: np.ndarray, coeffs: tuple, center: float) -> float:
    """Centered linear statistic of f = c0 + c1 x + c2 x^2 from H alone, with no eigensolve:
    sum_i f(eig_i) = N c0 + c1 tr H + c2 ||H||_F^2 exactly.

    coeffs is quadratic_coeffs(f) and center is int f d(rho_sc), as in lss. ||H||_F^2 is
    summed by einsum, not BLAS, so the value does not depend on the BLAS thread count. A
    non-finite value raises NumericalError.
    """
    c0, c1, c2 = coeffs
    N = H.shape[0]
    flat = H.reshape(-1)
    if np.iscomplexobj(flat):
        flat = flat.view(float)
    trace = float(np.trace(H).real)
    frob_sq = float(np.einsum("i,i->", flat, flat))
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


def log_char_field(sample: SpectralSample, E, eta: float):
    """Centered log-determinant field at E + i*eta, principal branch.

    Re part: sum_j (1/2) log((eig_j - E)^2 + eta^2) minus N times the semicircle log
    potential (closed form on and off the axis). Im part at eta = 0: pi (#{eig > E} -
    N (1 - F_sc(E))); at eta > 0 the principal complex log is used throughout. E may be a
    scalar or a grid; output is in grid order. The sum over the spectrum runs over blocks
    of grid points with at most _FIELD_BLOCK terms each (one row if N is larger), so the
    temporaries take O(_FIELD_BLOCK + N + grid size) memory, not O(grid size * N); each
    point's sum is the same as in one grid-wide sum.
    """
    if eta < 0.0:
        raise ValueError("eta must be >= 0")
    scalar_in = np.isscalar(E) or np.ndim(E) == 0
    Es = np.atleast_1d(np.asarray(E, dtype=float))
    eigs = sample.eigs
    N = sample.N
    if eta == 0.0 and np.any(np.abs(Es) >= 2.0):
        raise ValueError("eta = 0 field needs E inside (-2, 2)")
    total = np.empty(Es.size, dtype=float if eta == 0.0 else complex)
    step = max(1, _FIELD_BLOCK // N)
    for lo in range(0, Es.size, step):
        block = Es[lo:lo + step]
        if eta == 0.0:
            diff = np.subtract.outer(block, eigs)
            hit = np.any(diff == 0.0, axis=1)
            if hit.any():
                raise NumericalError(
                    f"E = {float(block[hit][0])!r} collides with an eigenvalue at eta = 0")
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


def _rigidity_vector(sample: SpectralSample, kappa: float) -> np.ndarray:
    """Normalized gaps (pi/sqrt2) rho_sc(g_k) N (eig_k - g_k)/log N over the bulk window."""
    if not 0.0 < kappa < 0.5:
        raise ValueError("kappa must be in (0, 1/2)")
    N = sample.N
    k_lo = int(np.ceil(kappa * N))
    k_hi = int(np.floor((1.0 - kappa) * N))
    if k_lo < 1 or k_lo > k_hi:
        raise ValueError(f"empty bulk window for kappa = {kappa}, N = {N}")
    ks = np.arange(k_lo, k_hi + 1)
    gam = _classical_all(N)[ks - 1]
    lam = sample.eigs[ks - 1]
    return (np.pi / np.sqrt(2.0)) * sc.rho_sc(gam) * N * (lam - gam) / np.log(N)


def rigidity_stats(sample: SpectralSample, kappa: float) -> RigidityStats:
    """Extremes of the normalized eigenvalue-location gaps over the kappa-bulk."""
    v = _rigidity_vector(sample, kappa)
    return RigidityStats(float(np.max(v)), float(np.min(v)))

