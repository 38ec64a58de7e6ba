"""Entry distributions with closed-form cumulants, ensemble specs, and Hermitian matrix sampling."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .profile import VarianceProfile


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
    q = np.sqrt(p * (1.0 - p))
    k3 = (1.0 - 2.0 * p) / q
    k4 = (1.0 - 6.0 * p * (1.0 - p)) / (q * q)

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
        return two_point(float(cfg["p"]))
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
        """(strict upper-triangle mask, off-diagonal and diagonal entry scales), once per spec."""
        S = self.profile.S
        upper = np.triu(np.ones(S.shape, dtype=bool), 1)
        off = S[upper] / 2.0 if self.beta == 2 else S[upper]
        return upper, np.sqrt(off), np.sqrt(np.diag(S))


@dataclass(frozen=True)
class CumulantSummary:
    """Aggregate entry cumulants entering the CLT functionals."""

    kappa3_diag_sum: float  # sum_i kappa3(H_ii) = sum_i S_ii^{3/2} kappa3(diag)
    kappa4_sum: float       # beta-dependent aggregate fourth cumulant


def cumulant_summary(spec: EnsembleSpec) -> CumulantSummary:
    S = spec.profile.S
    diag = np.diag(S)
    off_sq = float(np.sum(S * S) - np.sum(diag * diag))  # sum_{i != j} S_ij^2
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


def sample(spec: EnsembleSpec, key: tuple) -> np.ndarray:
    """Draw one Hermitian matrix H with E|H_ij|^2 = S_ij; deterministic per (spec, key).

    key is the (master_seed, replica) pair of the replica's Philox stream.
    Draw order is fixed (off-diagonal, then imaginary parts for beta=2, then diagonal).
    """
    rng = replica_rng(*key)
    N = spec.N
    upper, off_scale, diag_scale = spec._sampling_scales
    xi = spec.offdiag.sampler(rng, off_scale.size)
    if spec.beta == 1:
        H = np.zeros((N, N))
        xi *= off_scale
    else:
        # off_scale * (xi + 1j xi_im), written part by part into one complex vector: no
        # complex temporary is made, and each real draw is freed once it is used
        z = np.empty(off_scale.size, dtype=complex)
        np.multiply(off_scale, xi, out=z.real)
        xi = z
        np.multiply(off_scale, spec.offdiag.sampler(rng, off_scale.size), out=xi.imag)
        H = np.zeros((N, N), dtype=complex)
    # both triangles are written in place, so a draw allocates no second N x N matrix
    H[upper] = xi
    if spec.beta == 2:
        np.conjugate(xi, out=xi)
    H.T[upper] = xi
    d = spec.diag.sampler(rng, N)
    H[np.arange(N), np.arange(N)] = diag_scale * d
    return H
