"""Doubly stochastic variance profiles S: construction, validation, spectral functionals."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectral as sp
from .errors import NumericalError, _real, _whole

_ROW_SUM_TOL = 1e-10        # construction-time Perron check
_BAND_BLEND = 1e-3          # flat blend restoring strict positivity of band profiles
_SINKHORN_TOL = 1e-12
_SINKHORN_MAX_ITER = 10_000
_RESOLVENT_GUARD = 1e-10
_TILE = 64                  # rows and columns per tile of the in-place symmetrize and mirror


@dataclass(frozen=True, eq=False)
class VarianceProfile:
    """S = E|H_ij|^2 with its spectral data; immutable after construction: its fields cannot
    be reassigned, and S is a read-only array.

    a_spectrum is derived from spectrum, not from a second eigensolve: S is doubly
    stochastic, so its Perron eigenvector is e/sqrt(N), and A = S - ee*/N keeps every other
    eigenpair of S while sending e to 0.
    """

    N: int
    S: np.ndarray
    spectrum: np.ndarray     # eigenvalues of S, descending; spectrum[0] = 1
    descriptor: dict = field(default_factory=dict)
    row: Optional[np.ndarray] = None   # first row of a circulant S; None for a dense one
    a_spectrum: np.ndarray = field(init=False)  # of A = S - ee*/N: spectrum with 1 -> 0

    def __post_init__(self):
        object.__setattr__(self, "a_spectrum", np.sort(np.append(self.spectrum[1:], 0.0))[::-1])

    @property
    def gap(self) -> float:
        return float(1.0 - self.spectrum[1]) if self.N > 1 else 1.0

    @property
    def trace(self) -> float:
        return float(np.trace(self.S))

    @classmethod
    def from_matrix(cls, S: np.ndarray, descriptor: Optional[dict] = None) -> "VarianceProfile":
        """The profile of a caller's S, built by _owned_profile on a private C-order copy, so
        the caller's S is never written and the profile does not alias it."""
        S = np.array(S, dtype=float, order="C")
        descriptor = descriptor or {"type": "matrix", "N": S.shape[0], "params": {}, "seed": None}
        return _owned_profile(S, descriptor)

    @classmethod
    def from_circulant(cls, row: np.ndarray, descriptor: dict) -> "VarianceProfile":
        """The circulant S_ij = row[(j - i) mod N], with from_matrix's checks.

        A circulant's eigenvalues are the DFT of its first row, lambda_k = sum_j row_j
        exp(-2 pi i jk/N). S is symmetric, so row_j = row_{N-j} and lambda_k = lambda_{N-k}
        is real: one real FFT gives k = 0..N/2 and the rest mirror them. lambda_0 is the
        row sum, the Perron 1 with eigenvector e; S is strictly positive, so it is the
        largest and a_spectrum sets exactly that term to 0.

        S is circulant_view(row), a read-only strided view of one (2N - 1)-vector, so the
        profile holds O(N) doubles, not N^2; the profile keeps row, from which
        ensemble.EnsembleSpec builds the entry scales.
        """
        row = np.array(row, dtype=float)
        row.setflags(write=False)
        N = row.size
        S = _checked(circulant_view(row))
        half = np.fft.rfft(row).real
        lam = np.concatenate((half, half[1:(N + 1) // 2][::-1]))
        return cls(N=N, S=S, spectrum=np.sort(lam)[::-1], descriptor=descriptor, row=row)


def toeplitz_view(v: np.ndarray) -> np.ndarray:
    """The read-only N x N Toeplitz view T_ij = v[N - 1 + j - i] of a (2N - 1)-vector v."""
    return np.lib.stride_tricks.sliding_window_view(v, (v.size + 1) // 2)[::-1]


def circulant_view(row: np.ndarray) -> np.ndarray:
    """The read-only N x N circulant view C_ij = row[(j - i) mod N] of an N-vector row."""
    return toeplitz_view(np.concatenate((row[1:], row)))


def _checked(S) -> np.ndarray:
    """S as a float array, after checking it is square, finite, exactly symmetric, strictly
    positive and doubly stochastic to _ROW_SUM_TOL."""
    S = np.asarray(S, dtype=float)
    N = S.shape[0]
    if S.shape != (N, N):
        raise ValueError("S must be square")
    lo, hi = np.min(S), np.max(S)   # NaN and +-inf reach one of the two
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("S entries must be finite")
    if not all(np.array_equal(S[i:i + _TILE], S[:, i:i + _TILE].T) for i in range(0, N, _TILE)):
        raise ValueError("S must be exactly symmetric")
    if lo <= 0.0:
        raise ValueError("S entries must be strictly positive")
    e = np.ones(N)
    if np.max(np.abs(S @ e - e)) > _ROW_SUM_TOL:
        raise ValueError("S must be doubly stochastic: row sums deviate beyond 1e-10")
    return S


def _mirror_lower(S: np.ndarray) -> None:
    """Copy the conjugate of S's strict lower triangle onto its upper one in place, one
    _TILE x _TILE tile at a time, so no temporary is larger than a tile. For a real S,
    .conj() is S itself and this is a plain copy."""
    N = S.shape[0]
    upper = np.triu(np.ones((_TILE, _TILE), dtype=bool), 1)
    for lo in range(0, N, _TILE):
        hi = min(lo + _TILE, N)
        tile = S[lo:hi, lo:hi]
        np.copyto(tile, tile.T.conj(), where=upper[:hi - lo, :hi - lo])  # copies the overlapping tile.T first
        for c in range(hi, N, _TILE):
            S[lo:hi, c:c + _TILE] = S[c:c + _TILE, lo:hi].T.conj()


def _symmetrize(S: np.ndarray) -> None:
    """S = 0.5 (S + S^T) in place, with no N x N temporary: each entry of the lower triangle
    becomes (S_ij + S_ji) * 0.5, which is the bytes of S += S.T; S *= 0.5, since addition
    commutes, and _mirror_lower copies it to the upper one."""
    N = S.shape[0]
    for lo in range(0, N, _TILE):
        hi = min(lo + _TILE, N)
        tile, strip = S[lo:hi, lo:hi], S[hi:, lo:hi]
        np.add(tile, tile.T, out=tile)   # copies the overlapping tile.T first
        np.add(strip, S[lo:hi, hi:].T, out=strip)
        tile *= 0.5
        strip *= 0.5
    _mirror_lower(S)


def _owned_profile(S: np.ndarray, descriptor: dict) -> VarianceProfile:
    """The profile of an S whose buffer its caller owns and hands over (from_matrix's copy,
    a builder's draw): the spectrum is solved in that buffer, with no N x N copy, and S
    comes back bit for bit and is then made read-only."""
    S = _checked(S)
    spectrum = _spectrum_in_place(S)[::-1]
    S.setflags(write=False)
    return VarianceProfile(N=S.shape[0], S=S, spectrum=spectrum, descriptor=descriptor)


def _spectrum_in_place(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the exactly symmetric, writeable S by sp._solve_in_place,
    with S given back bit for bit.

    Its LAPACKE route is dsyevd in S's own buffer, eigvalsh's routine on the same
    column-major matrix and one BLAS thread, so the bytes are eigvalsh's. It destroys S's
    upper triangle and diagonal; the strict lower triangle is mirrored back and the saved
    diagonal put back, also when the solve raises NumericalError.
    """
    diag = S.diagonal().copy()
    try:
        return sp._solve_in_place(S)
    finally:
        _mirror_lower(S)
        np.fill_diagonal(S, diag)


def profile_flat(N: int) -> VarianceProfile:
    """S_ij = 1/N: the classical Wigner profile; A = 0."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return VarianceProfile.from_circulant(
        np.full(N, 1.0 / N), {"type": "flat", "N": N, "params": {}, "seed": None}
    )


def profile_band(N: int, W: int) -> VarianceProfile:
    """Circulant band of half-width W, blended with flat to restore strict positivity."""
    if not 1 <= W <= (N - 1) // 2:
        raise ValueError(f"need 1 <= W <= (N-1)/2, got W={W}, N={N}")
    idx = np.arange(N)
    dist = np.minimum(idx, N - idx)
    band = (dist <= W) / (2.0 * W + 1.0)
    return VarianceProfile.from_circulant(
        (1.0 - _BAND_BLEND) * band + _BAND_BLEND / N,
        {"type": "band", "N": N, "params": {"W": int(W)}, "seed": None},
    )


def profile_random_ds(N: int, seed: int, roughness: float = 0.5) -> VarianceProfile:
    """Symmetric Sinkhorn scaling of exp(roughness * g), g symmetric standard normal.

    g is the upper triangle of one N x N standard normal draw, mirrored. Every step works
    in place on that draw's buffer, the symmetrize and the eigensolve included, so the
    build holds S and no other N x N array.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if not 0.0 <= roughness <= 1.0:
        raise ValueError("roughness must lie in [0, 1]")
    if not 0 <= seed < 2 ** 64:   # a Philox key word
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    M = rng.standard_normal((N, N))
    _mirror_lower(M.T)   # M's upper triangle onto its lower one
    M *= roughness
    np.exp(M, out=M)

    d = np.ones(N)
    resid = np.inf
    for _ in range(_SINKHORN_MAX_ITER):
        Md = M @ d
        resid = float(np.max(np.abs(d * Md - 1.0)))  # row sums of DMD are d_i (Md)_i
        if resid < _SINKHORN_TOL:
            break
        d = np.sqrt(d / Md)
    else:
        raise NumericalError(f"Sinkhorn did not converge: row-sum residual {resid:.3e}")
    S = M
    S *= d[:, None]
    S *= d[None, :]
    _symmetrize(S)
    return _owned_profile(
        S, {"type": "random", "N": N, "params": {"roughness": float(roughness)}, "seed": int(seed)}
    )


def validate(profile: VarianceProfile) -> dict:
    """Row-sum error, entry bounds (times N), and spectral gap of a constructed profile.

    Construction has already rejected an S that is not strictly positive or not doubly
    stochastic to 1e-10, so this only reports.
    """
    S = profile.S
    return {
        "row_sum_err": float(np.max(np.abs(S.sum(axis=1) - 1.0))),
        "min_entry_N": float(profile.N * S.min()),
        "max_entry_N": float(profile.N * S.max()),
        "spectral_gap": profile.gap,
    }


def trace_powers(profile: VarianceProfile, J: int) -> np.ndarray:
    """tr S^j = sum_i s_i^j for j = 1..J."""
    if J < 1:
        raise ValueError("J must be >= 1")
    out = np.empty(J)
    p = profile.spectrum.copy()
    for j in range(J):
        out[j] = p.sum()
        if j < J - 1:
            p *= profile.spectrum
    return out


def resolvent_trace(profile: VarianceProfile, M):
    """tr(S (1 - M S)^{-1}) = sum_i s_i / (1 - M s_i) for complex |M| <= 1, vectorized over M."""
    scalar_in = np.isscalar(M) or np.ndim(M) == 0
    MM = np.asarray(M, dtype=complex)
    s = profile.spectrum
    denom = 1.0 - MM[..., None] * s
    small = np.abs(denom) <= _RESOLVENT_GUARD
    if small.any():
        i = int(np.argwhere(small)[0][-1])
        raise NumericalError(
            f"resolvent trace singular: |1 - M s_i| <= {_RESOLVENT_GUARD} at eigenvalue s_{i} = {s[i]!r}"
        )
    out = (s / denom).sum(axis=-1)
    return complex(out) if scalar_in else out


def profile_to_csv(profile: VarianceProfile, path) -> None:
    np.savetxt(path, profile.S, delimiter=",", fmt="%.17g")


def profile_from_csv(path) -> VarianceProfile:
    if not isinstance(path, (str, os.PathLike)):   # np.loadtxt would read a list as CSV lines
        raise ValueError(f"path must be a string, got {path!r}")
    S = np.loadtxt(path, delimiter=",", ndmin=2)
    if S.shape[0] == S.shape[1]:   # _checked rejects any other shape
        _symmetrize(S)
    return _owned_profile(
        S, {"type": "csv", "N": S.shape[0], "params": {"path": str(path)}, "seed": None}
    )


def profile_from_descriptor(d: dict) -> VarianceProfile:
    """Rebuild a profile from its {type, N, params, seed} descriptor. N, params.W and seed
    must be integers (an integral float such as 60.0 is accepted), seed in [0, 2**64),
    params.roughness a finite real number and params.path a string; ValueError otherwise."""
    kind = d.get("type")
    params = d.get("params", {})
    if kind == "flat":
        return profile_flat(_whole(d["N"], "N"))
    if kind == "band":
        return profile_band(_whole(d["N"], "N"), _whole(params["W"], "W"))
    if kind == "random":
        return profile_random_ds(_whole(d["N"], "N"), _whole(d["seed"], "seed"),
                                 _real(params.get("roughness", 0.5), "roughness"))
    if kind == "csv":
        return profile_from_csv(params["path"])
    raise ValueError(f"unknown profile type {kind!r}")
