"""Independent reference computations that tests check the library against."""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _npcheb

from wignerlss import functionals as fl
from wignerlss import profile as pf
from wignerlss import semicircle as sc
from wignerlss.semicircle import gauss_cheb_nodes
from wignerlss.testfn import ChebCoeffs, TestFunction


def msc_boundary(x) -> complex:
    """Boundary value m_sc(x + i0) = (-x + i*sqrt(4 - x^2))/2 for x in (-2, 2); |result| = 1."""
    scalar_in = np.isscalar(x) or np.ndim(x) == 0
    xx = np.asarray(x, dtype=float)
    if np.any(np.abs(xx) >= 2.0):
        raise ValueError("msc_boundary requires |x| < 2")
    m = 0.5 * (-xx + 1j * np.sqrt(4.0 - xx * xx))
    return m.item() if scalar_in else m


def cheb_T(n: int, x):
    """Scaled Chebyshev polynomial: T_0 = 1, T_1 = x/2, T_{n+1} = x T_n - T_{n-1}; T_n(2 cos t) = cos(n t)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    scalar_in = np.isscalar(x) or np.ndim(x) == 0
    xx = np.asarray(x, dtype=float)
    prev = np.ones_like(xx)
    if n == 0:
        return prev.item() if scalar_in else prev
    cur = 0.5 * xx
    for _ in range(n - 1):
        prev, cur = cur, xx * cur - prev
    return cur.item() if scalar_in else cur


def reconstruct(t, x):
    """Evaluate the truncated series t_0/2 + sum t_n T_n(x) (Clenshaw via the x/2 substitution)."""
    raw = t.t if isinstance(t, ChebCoeffs) else np.asarray(t)
    c = np.array(raw, copy=True)
    c[0] = c[0] / 2.0
    out = _npcheb.chebval(np.asarray(x) / 2.0, c)
    return out.item() if np.isscalar(x) or np.ndim(x) == 0 else out


def integrate_weighted(g: Callable[[np.ndarray], np.ndarray], nodes: int = 2048) -> complex:
    """int g(x) / sqrt(4 - x^2) dx over (-2, 2) on the Gauss-Chebyshev rule."""
    x = gauss_cheb_nodes(nodes)
    return (np.pi / nodes) * np.sum(np.asarray(g(x)))


def weighted_norm(f: TestFunction, d: int = 0, p: float = 1.0) -> float:
    """(int_{-5}^{5} |f^(d)(x)|^p / sqrt|4 - x^2| dx)^(1/p), endpoint singularities substituted away."""
    from scipy.integrate import IntegrationWarning, quad

    if p <= 0:
        raise ValueError("p must be positive")
    g = f.derivative(d)

    # |x| < 2: x = 2 sin(t), weight exactly cancels
    def inner(t):
        return np.abs(g(2.0 * np.sin(t))) ** p

    # |x| > 2: x = +-2 cosh(u), weight exactly cancels
    def outer(u, sign):
        return np.abs(g(sign * 2.0 * np.cosh(u))) ** p

    umax = np.arccosh(2.5)
    total = 0.0
    pieces = [
        (inner, -np.pi / 2, np.pi / 2, ()),
        (outer, 0.0, umax, (1.0,)),
        (outer, 0.0, umax, (-1.0,)),
    ]
    for fn, a, b, args in pieces:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(fn, a, b, args=args, limit=200)
        if not np.isfinite(val) or err > 1e-6 + 1e-3 * abs(val):
            raise ValueError("weighted norm integral did not converge (non-integrable singularity?)")
        total += val
    return float(total ** (1.0 / p))


def flat_term_dense(f: TestFunction, M: int) -> float:
    """K1 = (1/2M^2) sum_jk q_jk^2 (4 - x_j x_k) on the M Gauss-Chebyshev nodes, with the
    M x M divided differences q_jk = (f(x_j) - f(x_k))/(x_j - x_k) formed and f' on the diagonal."""
    x = gauss_cheb_nodes(M)
    F = np.asarray(f(x), dtype=float)
    dX = np.subtract.outer(x, x)
    np.fill_diagonal(dX, 1.0)
    q = np.subtract.outer(F, F) / dX
    np.fill_diagonal(q, f.derivative(1)(x))
    return float(np.sum(q * q * (4.0 - np.multiply.outer(x, x)))) / (2.0 * M * M)


def log_char_field_dense(eigs: np.ndarray, Es: np.ndarray, eta: float) -> np.ndarray:
    """The centered log-determinant field at Es + i eta as one grid-by-spectrum array: the
    sum over the ascending spectrum eigs of log|E - eig| (eta = 0) or log(E + i eta - eig),
    the eigenvalue count above E times pi, and N times the semicircle log potential."""
    N = eigs.size
    if eta == 0.0:
        re = np.sum(np.log(np.abs(Es[:, None] - eigs[None, :])), axis=1)
        counts = N - np.searchsorted(eigs, Es, side="right")
        im = np.pi * counts.astype(float)
        pot = sc.log_potential(Es)
        return (re - N * pot.real) + 1j * (im - N * pot.imag)
    z = Es[:, None] + 1j * eta
    total = np.sum(np.log(z - eigs[None, :]), axis=1)
    return total - N * sc.log_potential(Es, eta)


def profile_random_dense(N: int, seed: int, roughness: float = 0.5) -> pf.VarianceProfile:
    """The Sinkhorn profile of profile_random_ds built out of place: g mirrored from the
    upper triangle of G by triu/diag sums, M = exp(roughness g), S = DMD symmetrized."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    G = rng.standard_normal((N, N))
    g = np.triu(G, 1)
    g = g + g.T + np.diag(np.diag(G))
    M = np.exp(roughness * g)
    d = np.ones(N)
    for _ in range(pf._SINKHORN_MAX_ITER):
        Md = M @ d
        if np.max(np.abs(d * Md - 1.0)) < pf._SINKHORN_TOL:
            break
        d = np.sqrt(d / Md)
    else:
        raise AssertionError("Sinkhorn did not converge")
    S = d[:, None] * M * d[None, :]
    S = 0.5 * (S + S.T)
    return pf.VarianceProfile.from_matrix(
        S, {"type": "random", "N": N, "params": {"roughness": float(roughness)}, "seed": int(seed)}
    )


def pair_kernel_phi_one_chunk(M: int, a_spectrum: np.ndarray) -> np.ndarray:
    """functionals._pair_kernel_phi with each eigenvalue group's table formed at all M + 1
    angles at once: the same groups of _PHI_BLOCK / (M + 1) eigenvalues, added in order."""
    a = a_spectrum[np.abs(a_spectrum) > fl._A_EIG_CUTOFF]
    u = np.exp(-1j * np.pi * np.arange(M + 1) / M)
    phi = np.zeros(M + 1)
    step = max(1, fl._PHI_BLOCK // (M + 1))
    for lo in range(0, a.size, step):
        au = np.multiply.outer(u, a[lo:lo + step])
        phi += (au / (1.0 - au) ** 2).real.sum(axis=1)
    return phi
