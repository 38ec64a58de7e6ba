"""Entry distributions with closed-form cumulants, ensemble specs, and Hermitian matrix sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .profile import VarianceProfile, _real, _whole, toeplitz_view

# rows of the strict upper triangle per sampler call in sample. A multiple of 4, so every
# block but the last draws an even count and rademacher, two values per 64-bit word, leaves
# no half word between blocks even where a generator would drop it at the end of a call.
_DRAW_ROWS = 64


def _row_blocks(N: int):
    """(lo, hi, a, b) per _DRAW_ROWS-row block lo..hi of the strict upper triangle, whose
    (hi - lo)(2N - lo - hi - 1)/2 entries are a..b of its row-major packing."""
    for lo in range(0, N, _DRAW_ROWS):
        hi = min(lo + _DRAW_ROWS, N)
        yield lo, hi, lo * (2 * N - lo - 1) // 2, hi * (2 * N - hi - 1) // 2


@dataclass(frozen=True, eq=False)
class EntryDistribution:
    """Standardized (mean 0, variance 1) entry law with known third/fourth cumulants."""

    family: str
    params: tuple
    kappa3: float
    kappa4: float
    sampler: Callable = field(repr=False)  # (rng, size) -> standardized variates

    def descriptor(self) -> dict:
        d = {"family": self.family}
        if self.family == "two_point":
            d["p"] = self.params[0]
        return d


def gaussian() -> EntryDistribution:
    return EntryDistribution("gaussian", (), 0.0, 0.0,
                             lambda rng, n: rng.standard_normal(n))


def rademacher() -> EntryDistribution:
    return EntryDistribution("rademacher", (), 0.0, -2.0,
                             lambda rng, n: rng.integers(0, 2, n) * 2.0 - 1.0)


def two_point(p: float) -> EntryDistribution:
    """Standardized Bernoulli (B(p) - p)/sqrt(p(1-p)); nonzero skew for p != 1/2."""
    if not 0.0 < p < 1.0:
        raise ValueError("two_point requires p in (0, 1)")
    q = float(np.sqrt(p * (1.0 - p)))   # Python floats overflow to inf without a warning
    k3 = (1.0 - 2.0 * p) / q
    k4 = (1.0 - 6.0 * p * (1.0 - p)) / (q * q)
    if not (np.isfinite(k3) and np.isfinite(k4)):   # k4 ~ 1/p overflows for p below ~5e-309
        raise ValueError(f"two_point p = {p!r} gives non-finite cumulants (k3 {k3}, k4 {k4})")

    def draw(rng, n, p=p, q=q):
        return ((rng.random(n) < p) - p) / q

    return EntryDistribution("two_point", (float(p),), float(k3), float(k4), draw)


def uniform() -> EntryDistribution:
    root3 = np.sqrt(3.0)
    return EntryDistribution("uniform", (), 0.0, -1.2,
                             lambda rng, n: (rng.random(n) * 2.0 - 1.0) * root3)


_FAMILIES = {"gaussian": gaussian, "rademacher": rademacher, "uniform": uniform}


def entry_from_config(cfg) -> EntryDistribution:
    """Entry law from a family name or a {family, p} mapping."""
    if isinstance(cfg, str):
        cfg = {"family": cfg}
    if not isinstance(cfg, dict):
        raise TypeError(f"entry law must be a family name or a mapping, got {type(cfg).__name__}")
    family = cfg.get("family")
    if family == "two_point":
        if "p" not in cfg:
            raise ValueError("two_point requires a parameter p")
        return two_point(_real(cfg["p"], "p"))
    if family in _FAMILIES:
        return _FAMILIES[family]()
    raise ValueError(f"unknown entry family {family!r}")


@dataclass(eq=False)
class EnsembleSpec:
    """Symmetry class, variance profile, and entry laws for off-diagonal and diagonal entries."""

    beta: int
    profile: VarianceProfile
    offdiag: EntryDistribution
    diag: EntryDistribution

    def __post_init__(self):
        self.beta = _whole(self.beta, "beta")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 (real symmetric) or 2 (complex Hermitian)")

    @property
    def N(self) -> int:
        return self.profile.N

    def descriptor(self) -> dict:
        return {
            "beta": self.beta,
            "profile": self.profile.descriptor,
            "offdiag": self.offdiag.descriptor(),
            "diag": self.diag.descriptor(),
        }

    @functools.cached_property
    def _sampling_scales(self) -> tuple:
        """(strict upper-triangle mask, entry scale, diagonal scale), once per spec: the mask
        is a Toeplitz view of one (2N - 1)-vector, and the entry scale, sqrt(S_ij) or for
        beta = 2 sqrt(S_ij / 2), is profile.sqrt_scaled's."""
        upper = toeplitz_view(np.arange(2 * self.N - 1) >= self.N)
        scale = self.profile.sqrt_scaled(0.5 if self.beta == 2 else 1.0)
        return upper, scale, np.sqrt(np.diag(self.profile.S))

    @functools.cached_property
    def _packed_scales(self) -> tuple:
        """(entry scale, diagonal scale) of sample's packed form, once per spec: the entry
        scale is one scalar for a constant profile row (flat), else the N(N - 1)/2 values of
        _sampling_scales' scale on the strict upper triangle, in row-major order."""
        c = 0.5 if self.beta == 2 else 1.0
        row = self.profile.row
        if row is not None and np.all(row == row[0]):
            scale = np.sqrt(c * row[0])
        else:
            scale = self.profile.S[toeplitz_view(np.arange(2 * self.N - 1) >= self.N)]
            scale *= c
            np.sqrt(scale, out=scale)
        return scale, np.sqrt(np.diag(self.profile.S))


@dataclass(frozen=True)
class CumulantSummary:
    """Aggregate entry cumulants entering the CLT functionals."""

    kappa3_diag_sum: float  # sum_i kappa3(H_ii) = sum_i S_ii^{3/2} kappa3(diag)
    kappa4_sum: float       # beta-dependent aggregate fourth cumulant


def cumulant_summary(spec: EnsembleSpec) -> CumulantSummary:
    S = spec.profile.S
    diag = np.diag(S)
    off_sq = float(np.einsum("ij,ij->", S, S) - np.sum(diag * diag))  # sum_{i != j} S_ij^2
    diag_sq = float(np.sum(diag * diag))
    k3 = float(spec.diag.kappa3 * np.sum(diag ** 1.5))
    if spec.beta == 1:
        k4 = spec.offdiag.kappa4 * off_sq + spec.diag.kappa4 * diag_sq
    else:
        # Re and Im parts each carry (S_ij/2)^2 kappa4; diagonal enters with weight 1/2
        k4 = 0.5 * spec.offdiag.kappa4 * off_sq + 0.5 * spec.diag.kappa4 * diag_sq
    return CumulantSummary(kappa3_diag_sum=k3, kappa4_sum=float(k4))


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Counter-based stream keyed by (master seed, replica index): order-insensitive and collision-free."""
    key = np.array([np.uint64(master_seed), np.uint64(replica)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample(spec: EnsembleSpec, key: tuple, out: Optional[np.ndarray] = None, *,
           packed: bool = False):
    """Draw one Hermitian matrix H with E|H_ij|^2 = S_ij; deterministic per (spec, key).

    key is the (master_seed, replica) pair of the replica's Philox stream.
    Draw order is fixed (off-diagonal, then imaginary parts for beta=2, then diagonal).
    H is written into out, an N x N float (beta=1) or complex (beta=2) array, and out is
    returned; every entry is overwritten, so out may hold anything. With out=None, H is
    one fresh array.

    packed=True returns (upper, diag) instead: H's strict upper triangle in row-major
    order and H's diagonal, byte for byte the values the same draw writes into H, with no
    N x N array and no mirror; out must then be None.

    Each real part is drawn in blocks of _DRAW_ROWS rows of the strict upper triangle, one
    sampler call each, with the bytes of one whole-triangle call (the beta = 1 packed form,
    whose drawn vector is upper, makes that one call). Each block is freed before the next
    is drawn, so beside H or upper one block's draw, 8 * _DRAW_ROWS * N bytes, is live.
    """
    rng = replica_rng(*key)
    N = spec.N
    dtype = np.float64 if spec.beta == 1 else np.complex128
    if packed:
        if out is not None:
            raise ValueError("the packed form takes no out")
        n = N * (N - 1) // 2
        scale, diag_scale = spec._packed_scales
        if spec.beta == 1:   # the drawn vector, scaled in place, is the upper triangle
            upper = spec.offdiag.sampler(rng, n)
            upper *= scale
        else:                # each real part is drawn and scaled by row blocks
            upper = np.empty(n, dtype=dtype)
            for part in (upper.real, upper.imag):
                for _, _, a, b in _row_blocks(N):
                    np.multiply(spec.offdiag.sampler(rng, b - a),
                                scale[a:b] if np.ndim(scale) else scale, out=part[a:b])
        d = spec.diag.sampler(rng, N)
        return upper, (diag_scale * d).astype(dtype, copy=False)
    if out is None:
        H = np.empty((N, N), dtype=dtype)
    elif out.shape != (N, N) or out.dtype != dtype:
        raise ValueError(f"out must be an ({N}, {N}) {np.dtype(dtype).name} array, "
                         f"got {out.shape} {out.dtype}")
    else:
        H = out
    upper, scale, diag_scale = spec._sampling_scales
    # the real parts, then for beta=2 the imaginary parts, each drawn by row blocks, written
    # unscaled to the block's upper triangle, mirrored (negated for Im H) onto the lower one,
    # then multiplied in place by the scale, diagonal included (it is overwritten last), so
    # each entry is the one product xi * scale.
    parts = (H,) if spec.beta == 1 else (H.real, H.imag)
    for k, part in enumerate(parts):
        for lo, hi, a, b in _row_blocks(N):
            xi = spec.offdiag.sampler(rng, b - a)
            part[lo:hi][upper[lo:hi]] = xi
            if k == 1:
                np.negative(xi, out=xi)
            part.T[lo:hi][upper[lo:hi]] = xi
            del xi   # so that the next block's draw is the only live vector
        part *= scale
    d = spec.diag.sampler(rng, N)
    H[np.arange(N), np.arange(N)] = diag_scale * d
    return H
