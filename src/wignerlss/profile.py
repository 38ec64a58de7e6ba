"""Doubly stochastic variance profiles S: construction, validation, spectral functionals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError

_ROW_SUM_TOL = 1e-10        # construction-time Perron check
_VALIDATE_TOL = 1e-8        # looser validation bound for large-N roundoff
_BAND_BLEND = 1e-3          # flat blend restoring strict positivity of band profiles
_SINKHORN_TOL = 1e-12
_SINKHORN_MAX_ITER = 10_000
_RESOLVENT_GUARD = 1e-10


@dataclass(eq=False)
class VarianceProfile:
    """S = E|H_ij|^2 with its spectral data; immutable after construction.

    a_spectrum is derived from spectrum, not from a second eigensolve: S is doubly
    stochastic, so its Perron eigenvector is e/sqrt(N), and A = S - ee*/N keeps every other
    eigenpair of S while sending e to 0.
    """

    N: int
    S: np.ndarray
    spectrum: np.ndarray     # eigenvalues of S, descending; spectrum[0] = 1
    descriptor: dict = field(default_factory=dict)
    a_spectrum: np.ndarray = field(init=False)  # of A = S - ee*/N: spectrum with 1 -> 0

    def __post_init__(self):
        self.a_spectrum = np.sort(np.append(self.spectrum[1:], 0.0))[::-1]

    @property
    def gap(self) -> float:
        return float(1.0 - self.spectrum[1]) if self.N > 1 else 1.0

    @property
    def trace(self) -> float:
        return float(np.trace(self.S))

    @classmethod
    def from_matrix(cls, S: np.ndarray, descriptor: Optional[dict] = None) -> "VarianceProfile":
        S = _checked(S)
        N = S.shape[0]
        return cls(
            N=N,
            S=S,
            spectrum=np.linalg.eigvalsh(S)[::-1],
            descriptor=descriptor or {"type": "matrix", "N": N, "params": {}, "seed": None},
        )

    @classmethod
    def from_circulant(cls, row: np.ndarray, descriptor: dict) -> "VarianceProfile":
        """The circulant S_ij = row[(j - i) mod N], with from_matrix's checks.

        A circulant's eigenvalues are the DFT of its first row, lambda_k = sum_j row_j
        exp(-2 pi i jk/N). S is symmetric, so row_j = row_{N-j} and lambda_k = lambda_{N-k}
        is real: one real FFT gives k = 0..N/2 and the rest mirror them. lambda_0 is the
        row sum, the Perron 1 with eigenvector e; S is strictly positive, so it is the
        largest and a_spectrum sets exactly that term to 0.
        """
        row = np.asarray(row, dtype=float)
        N = row.size
        # window k of (row_1, ..., row_{N-1}, row_0, ..., row_{N-1}) is row_{(k + 1 + j) mod N}
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row[1:], row)), N)
        S = _checked(windows[::-1].copy())
        half = np.fft.rfft(row).real
        lam = np.concatenate((half, half[1:(N + 1) // 2][::-1]))
        return cls(N=N, S=S, spectrum=np.sort(lam)[::-1], descriptor=descriptor)


def _checked(S) -> np.ndarray:
    """S as a float array, after checking it is square, exactly symmetric, strictly positive
    and doubly stochastic to _ROW_SUM_TOL."""
    S = np.asarray(S, dtype=float)
    N = S.shape[0]
    if S.shape != (N, N):
        raise ValueError("S must be square")
    if not np.array_equal(S, S.T):
        raise ValueError("S must be exactly symmetric")
    if np.min(S) <= 0.0:
        raise ValueError("S entries must be strictly positive")
    e = np.ones(N)
    if np.max(np.abs(S @ e - e)) > _ROW_SUM_TOL:
        raise ValueError("S must be doubly stochastic: row sums deviate beyond 1e-10")
    return S


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
    """Symmetric Sinkhorn scaling of exp(roughness * g), g symmetric standard normal."""
    if N < 2:
        raise ValueError("N must be >= 2")
    if not 0.0 <= roughness <= 1.0:
        raise ValueError("roughness must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    G = rng.standard_normal((N, N))
    g = np.triu(G, 1)
    g = g + g.T + np.diag(np.diag(G))
    M = np.exp(roughness * g)

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
    S = d[:, None] * M * d[None, :]
    S = 0.5 * (S + S.T)
    return VarianceProfile.from_matrix(
        S, {"type": "random", "N": N, "params": {"roughness": float(roughness)}, "seed": int(seed)}
    )


def validate(profile_or_S) -> dict:
    """Row-sum error, entry bounds (times N), and spectral gap; raises on hard violations."""
    if isinstance(profile_or_S, VarianceProfile):
        S, spectrum = profile_or_S.S, profile_or_S.spectrum
    else:
        S = np.asarray(profile_or_S, dtype=float)
        spectrum = np.sort(np.linalg.eigvalsh(S))[::-1]
    N = S.shape[0]
    report = {
        "row_sum_err": float(np.max(np.abs(S.sum(axis=1) - 1.0))),
        "min_entry_N": float(N * S.min()),
        "max_entry_N": float(N * S.max()),
        "spectral_gap": float(1.0 - spectrum[1]) if N > 1 else 1.0,
    }
    if report["row_sum_err"] > _VALIDATE_TOL:
        raise ValueError(f"row sums deviate by {report['row_sum_err']:.3e} > {_VALIDATE_TOL}")
    if S.min() <= 0.0:
        raise ValueError("profile has a non-positive entry")
    return report


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
    S = np.loadtxt(path, delimiter=",", ndmin=2)
    S = 0.5 * (S + S.T)
    return VarianceProfile.from_matrix(
        S, {"type": "csv", "N": S.shape[0], "params": {"path": str(path)}, "seed": None}
    )


def profile_from_descriptor(d: dict) -> VarianceProfile:
    """Rebuild a profile from its {type, N, params, seed} descriptor."""
    kind = d.get("type")
    params = d.get("params", {})
    if kind == "flat":
        return profile_flat(int(d["N"]))
    if kind == "band":
        return profile_band(int(d["N"]), int(params["W"]))
    if kind == "random":
        return profile_random_ds(int(d["N"]), int(d["seed"]), float(params.get("roughness", 0.5)))
    if kind == "csv":
        return profile_from_csv(params["path"])
    raise ValueError(f"unknown profile type {kind!r}")
