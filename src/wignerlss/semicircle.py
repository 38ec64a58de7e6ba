"""Closed-form semicircle-law quantities: density, Stieltjes transform, CDF, classical locations, log potential."""

from __future__ import annotations

from typing import Callable

import numpy as np

_EDGE = 2.0


def _maybe_scalar(a: np.ndarray, scalar_in: bool):
    if scalar_in:
        return a.item()
    return a


def msc(z) -> complex:
    """Stieltjes transform of the semicircle law: the root of m^2 + z*m + 1 = 0 with |m| <= 1.

    Requires Im z != 0: on (-2, 2) the two boundary values are (-x +- i sqrt(4 - x^2))/2.
    Selects the small root via the large one to avoid cancellation near the edges.
    """
    scalar_in = np.isscalar(z) or np.ndim(z) == 0
    zz = np.asarray(z, dtype=complex)
    if np.any(zz.imag == 0.0):
        raise ValueError("msc requires Im z != 0; on the real axis it has two boundary values")
    s = np.sqrt(zz * zz - 4.0)
    # align the square root with z so that -(z + s) is the large-magnitude root
    s = np.where(zz.real * s.real + zz.imag * s.imag < 0.0, -s, s)
    m = -2.0 / (zz + s)
    return _maybe_scalar(m, scalar_in)


def rho_sc(x) -> float:
    """Semicircle density sqrt((4 - x^2)_+) / (2 pi); zero outside [-2, 2]."""
    scalar_in = np.isscalar(x) or np.ndim(x) == 0
    xx = np.asarray(x, dtype=float)
    r = np.sqrt(np.clip(4.0 - xx * xx, 0.0, None)) / (2.0 * np.pi)
    return _maybe_scalar(r, scalar_in)


def sc_cdf(E) -> float:
    """Semicircle CDF F(E) = 1/2 + E*sqrt(4-E^2)/(4 pi) + arcsin(E/2)/pi, clamped to [0, 1]."""
    scalar_in = np.isscalar(E) or np.ndim(E) == 0
    x = np.clip(np.asarray(E, dtype=float), -_EDGE, _EDGE)
    F = 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(0.5 * x) / np.pi
    F = np.clip(F, 0.0, 1.0)
    return _maybe_scalar(F, scalar_in)


def classical_locations(ks: np.ndarray, N: int) -> np.ndarray:
    """Vectorized bisection for F(gamma_k) = k/N over an array of indices k."""
    target = np.asarray(ks, dtype=float) / N
    lo = np.full(target.shape, -_EDGE)
    hi = np.full(target.shape, _EDGE)
    # 64 halvings of [-2, 2] reach width 2^-62, well past the 1e-12 tolerance
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = sc_cdf(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return np.where(np.asarray(ks) == N, 2.0, out)


def log_potential(E, eta: float = 0.0) -> complex:
    """Semicircle log potential int log((E - x) + i eta) rho_sc(x) dx, principal branch.

    At eta = 0, for |E| < 2: real part int log|E - x| rho_sc(x) dx = E^2/4 - 1/2, imag part
    int Im log(E - x + i0) rho_sc(x) dx = pi (1 - F(E)) under the branch theta in (-pi, pi].
    At eta != 0, for any E: m^2/2 - log(-m) with m = msc(E + i eta).
    """
    scalar_in = np.isscalar(E) or np.ndim(E) == 0
    x = np.asarray(E, dtype=float)
    if eta != 0.0:
        m = np.asarray(msc(x + 1j * eta))
        return _maybe_scalar(m * m / 2.0 - np.log(-m), scalar_in)
    if np.any(np.abs(x) >= _EDGE):
        raise ValueError("log_potential requires |E| < 2 at eta = 0")
    val = 0.25 * x * x - 0.5 + 1j * np.pi * (1.0 - sc_cdf(x))
    return _maybe_scalar(val, scalar_in)


# Gauss-Chebyshev rule on [-2, 2]: int g(x)/sqrt(4 - x^2) dx ~= (pi/M) sum g(x_j)
# at nodes x_j = 2 cos(pi (j + 1/2)/M); exact for g polynomial of degree < 2M.

def gauss_cheb_nodes(M: int) -> np.ndarray:
    return 2.0 * np.cos(np.pi * (np.arange(M) + 0.5) / M)


def dct2(v: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-II, y_k = 2 sum_j v_j cos(pi k (j + 1/2)/M) for k < M = len(v)."""
    M = len(v)
    y = np.fft.rfft(np.concatenate([v, v[::-1]]))[:M]
    return (y * np.exp(-0.5j * np.pi * np.arange(M) / M)).real


def dct1(v: np.ndarray) -> np.ndarray:
    """DCT-I of v_0..v_M, y_k = v_0 + (-1)^k v_M + 2 sum_{0<n<M} v_n cos(pi k n/M), k <= M."""
    return np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real


def integrate_rho_sc(g: Callable[[np.ndarray], np.ndarray], nodes: int = 2048) -> complex:
    """int g(x) rho_sc(x) dx over (-2, 2), weight absorbed into the rule."""
    x = gauss_cheb_nodes(nodes)
    return np.sum(np.asarray(g(x)) * (4.0 - x * x)) / (2.0 * nodes)
