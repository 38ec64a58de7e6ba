"""Deterministic CLT functionals of linear spectral statistics: variance by two routes, mean
correction, cubic coefficient, the predicted characteristic function, and the closed-form
log-field variance kernel."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import CumulantSummary
from .errors import NumericalError
from .profile import VarianceProfile, trace_powers
from .semicircle import dct1, dct2, gauss_cheb_nodes
from .testfn import J_CAP, ChebCoeffs, TestFunction, cheb_coeffs, node_values

_POSITIVITY_FLOOR = -1e-10
_LAST_DECADE_FRACTION = 1e-9
_CHEB_NODES = 2048     # Gauss-Chebyshev nodes for the coefficients; raised to 2J when J outgrows it
_INTEGRAL_NODES = 400  # the fewest Gauss-Chebyshev nodes of the integral route
_MAX_PROFILE_NODES = 2 ** 17  # cap on the gap's node count, reached when 1 - rho < 1.2e-4
_A_EIG_CUTOFF = 1e-14  # deflated eigenvalues below this contribute nothing to g
_PHI_BLOCK = 2 * 400 * 256  # complex elements per vectorized block of the phi table


@dataclass
class CltPrediction:
    """(variance, mean shift, cubic coefficient) and the centering int f d(rho_sc) for one
    (f, ensemble) pair.

    With check_paths, integral_variance holds the integral-route value the series variance
    was checked against. centering and integral_variance stay out of to_dict.
    """

    variance: float
    mean_shift: float
    cubic: float
    beta: int
    centering: float
    J: int = 0
    tail_estimate: float = 0.0
    paths_agree: Optional[bool] = None
    integral_variance: Optional[float] = None

    def __post_init__(self):
        if self.variance < _POSITIVITY_FLOOR:
            raise NumericalError(f"variance {self.variance!r} violates positivity")

    def to_dict(self) -> dict:
        return {
            "V": self.variance,
            "E": self.mean_shift,
            "B": self.cubic,
            "beta": self.beta,
            "J": self.J,
            "tail_estimate": self.tail_estimate,
            "paths_agree": self.paths_agree,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _coeff(t: np.ndarray, n: int) -> float:
    return float(t[n]) if n < len(t) else 0.0


def _correction_terms(t1: float, t2: float, trS: float, summary: CumulantSummary, beta: int) -> float:
    return (
        -((2.0 - beta) / 4.0) * t1 * t1 * trS
        + 0.5 * summary.kappa4_sum * t2 * t2
        + 0.5 * summary.kappa3_diag_sum * t2 * t1
    )


def variance_series(t: ChebCoeffs, profile: VarianceProfile, summary: CumulantSummary,
                    beta: int, return_details: bool = False):
    """V = (1/2 beta) sum_j j t_j^2 tr S^j plus the finite-rank cumulant corrections."""
    coeffs = np.asarray(t.t)
    if np.iscomplexobj(coeffs):
        if np.max(np.abs(coeffs.imag)) > 1e-12:
            raise ValueError("variance_series needs real coefficients")
        coeffs = coeffs.real
    J = len(coeffs) - 1
    tp = trace_powers(profile, max(J, 1))
    js = np.arange(1, J + 1)
    contrib = js * coeffs[1:] ** 2 * tp[:J]
    core = float(np.sum(contrib))
    trS = tp[0]
    V = core / (2.0 * beta) + _correction_terms(_coeff(coeffs, 1), _coeff(coeffs, 2), trS, summary, beta)
    trunc_bound = t.tail_estimate * float(np.max(tp)) / (2.0 * beta)
    cut = max(1, int(0.9 * J))
    last_decade = float(np.sum(contrib[cut - 1:]))
    details = {
        "value": float(V),
        "truncation_bound": float(trunc_bound),
        "tail_warning": bool(trunc_bound > 0.1 * abs(V) + 1e-300),
        "last_decade_fraction": float(last_decade / core) if core > 0 else 0.0,
    }
    if return_details:
        return float(V), details
    return float(V)


def integral_nodes(profile: VarianceProfile, J: int) -> int:
    """Node count M of the integral route: at least 2J, so f's expansion to degree J is
    resolved, and 16/(1 - rho). K2's trapezoid rule on the circle converges like rho^(2M),
    rho = max |a| over the deflated spectrum (1 - rho is profile.gap unless S has an
    eigenvalue below -s_2), so M = 16/(1 - rho) reaches e^-32."""
    rho = float(np.max(np.abs(profile.a_spectrum)))
    M = int(np.ceil(16.0 / max(1.0 - rho, 16.0 / _MAX_PROFILE_NODES)))
    return max(_INTEGRAL_NODES, 2 * J, M)


def _pair_kernel_phi(M: int, a_spectrum: np.ndarray) -> np.ndarray:
    """phi(pi n / M), n = 0..M, for phi(theta) = Re sum_a a u / (1 - a u)^2 at u = exp(-i theta)
    over the deflated spectrum a: O(M N) terms, in blocks of at most _PHI_BLOCK elements."""
    a = a_spectrum[np.abs(a_spectrum) > _A_EIG_CUTOFF]
    u = np.exp(-1j * np.pi * np.arange(M + 1) / M)
    phi = np.zeros(M + 1)
    step = max(1, _PHI_BLOCK // (M + 1))
    for lo in range(0, a.size, step):
        au = np.multiply.outer(u, a[lo:lo + step])
        phi += (au / (1.0 - au) ** 2).real.sum(axis=1)
    return phi


def _profile_term(F: np.ndarray, a_spectrum: np.ndarray) -> float:
    """K2 = F^T G F / M^2 for f's values F on the M Gauss-Chebyshev nodes, without forming G.
    m_sc(x_j + i0) = -exp(-i theta_j) makes G_jk = phi(theta_j + theta_k) + phi(theta_j -
    theta_k), and phi, even and 2 pi-periodic, is the cosine sum of dct1(phi) on the angles
    pi n / M, so K2 = sum_{k<M} w_k dct2(F)_k^2 dct1(phi)_k / (4 M^3), w_0 = 1, else w_k = 2."""
    M = F.size
    terms = dct2(F) ** 2 * dct1(_pair_kernel_phi(M, a_spectrum))[:M]
    return float(2.0 * np.sum(terms) - terms[0]) / (4.0 * M ** 3)


def _flat_term(F: np.ndarray, dF: np.ndarray) -> float:
    """K1 = (1/2M^2) sum_jk q_jk^2 (4 - x_j x_k) for f's values F and f's derivative dF on the
    M Gauss-Chebyshev nodes, q_jk the divided difference (F_j - F_k)/(x_j - x_k) and q_jj =
    dF_j, without forming q. Off the diagonal (4 - xy)/(x - y)^2 = [csc^2((a - b)/2) +
    csc^2((a + b)/2)]/4 at x = 2 cos(a), y = 2 cos(b), and sum_{0<n<2M} sin^2(pi k n/2M) /
    sin^2(pi n/2M) = k (2M - k), so the off-diagonal sum is sum_{k<M} k (2M - k) dct2(F)_k^2
    / (4 M^3)."""
    M = F.size
    k = np.arange(M)
    x = gauss_cheb_nodes(M)
    off = float(np.sum(k * (2 * M - k) * dct2(F) ** 2)) / (2.0 * M)
    return (off + float(np.sum(dF * dF * (4.0 - x * x)))) / (2.0 * M * M)


def variance_integral(f: TestFunction, t: ChebCoeffs, profile: VarianceProfile,
                      summary: CumulantSummary, beta: int) -> float:
    """Double-integral route: K1, the squared divided difference against the (4 - xy) kernel,
    plus K2, the g-kernel term, both on the integral_nodes(profile, t.J) grid, then the series
    route's finite-rank corrections from t_1, t_2 of t. f not finite at a node raises
    ValueError."""
    x = gauss_cheb_nodes(integral_nodes(profile, t.J))
    F = node_values(f, x)
    K = _flat_term(F, node_values(f.derivative(1), x)) + _profile_term(F, profile.a_spectrum)
    return K / beta + _correction_terms(_coeff(t.t, 1), _coeff(t.t, 2), profile.trace, summary, beta)


def mean_correction(t: ChebCoeffs, profile: VarianceProfile, summary: CumulantSummary,
                    beta: int) -> float:
    """Deterministic O(1) shift of the LSS mean, from the coefficients of f:
    E = (kappa4 t_4 + kappa3 t_3)/2 + [beta = 1] (1/2) sum_{k=2}^{J/2} tr S^k t_{2k}.

    The T3 form is forced by exact moments: E tr H = E tr H^2 - N = 0 and E tr H^3 = s3hat
    at every N. The profile sum expands the boundary resolvent trace: at x = 2 cos(theta),
    m(x)^2 tr(S (1 - m(x)^2 S)^{-1}) = sum_{k>=1} tr S^k exp(-2 i k theta), and its k = 1
    term cancels the beta = 1 term -tr S t_2/2.
    """
    coeffs = np.asarray(t.t).real
    total = 0.5 * (summary.kappa4_sum * _coeff(coeffs, 4) + summary.kappa3_diag_sum * _coeff(coeffs, 3))
    if beta == 1:
        total += 0.5 * float(np.dot(*_profile_sum_factors(t, profile)))
    return float(total)


def _profile_sum_factors(t: ChebCoeffs, profile: VarianceProfile) -> tuple:
    """(tr S^k, t_{2k}) for k = 2..J/2, the factors of mean_correction's beta = 1 profile sum."""
    K = t.J // 2
    if K < 2:
        return np.zeros(0), np.zeros(0)
    return trace_powers(profile, K)[1:], np.asarray(t.t).real[4:2 * K + 1:2]


def _mean_last_decade(t: ChebCoeffs, profile: VarianceProfile, beta: int) -> float:
    """Sum of the |terms| of mean_correction's profile sum whose t_n has n in the last decade
    of 0..J; 0 at beta = 2, where E reads only t_3 and t_4."""
    if beta != 1:
        return 0.0
    trS, t2k = _profile_sum_factors(t, profile)
    n = 2 * np.arange(2, t2k.size + 2)
    return 0.5 * float(np.sum(np.abs(trS * t2k)[n >= 0.9 * t.J]))


def cubic_term(t: ChebCoeffs, summary: CumulantSummary) -> float:
    """B = (1/8) * (aggregate diagonal third cumulant) * t_1^3."""
    t1 = _coeff(np.asarray(t.t).real, 1)
    return summary.kappa3_diag_sum * t1 ** 3 / 8.0


def predicted_char(lam, pred: CltPrediction):
    """exp(-lam^2 V/2 - i lam^3 B/6 + i lam E), the cumulant expansion to third order with
    third cumulant B; modulus <= 1."""
    la = np.asarray(lam, dtype=float)
    out = np.exp(-la ** 2 * pred.variance / 2.0 + 1j * (la * pred.mean_shift - la ** 3 * pred.cubic / 6.0))
    return complex(out) if np.ndim(lam) == 0 else out


def _edge_root(z: np.ndarray) -> np.ndarray:
    # sqrt(z^2 - 4) with branch cut exactly [-2, 2] and R(z) ~ z at infinity
    return np.sqrt(z - 2.0) * np.sqrt(z + 2.0)


def log_pair_kernel(z, w):
    """Covariance kernel of the centered log field:
    2 pi^2 log[(z + R(z))(w + R(w)) / (2 (zw - 4 + R(z) R(w)))]."""
    scalar_in = np.ndim(z) == 0 and np.ndim(w) == 0
    zz = np.asarray(z, dtype=complex)
    ww = np.asarray(w, dtype=complex)
    for v in (zz, ww):
        if np.any((v.imag == 0.0) & (v.real <= 2.0)):
            raise ValueError("log_pair_kernel argument on the branch cut (real axis <= 2)")
    Rz, Rw = _edge_root(zz), _edge_root(ww)
    val = 2.0 * np.pi ** 2 * np.log((zz + Rz) * (ww + Rw) / (2.0 * (zz * ww - 4.0 + Rz * Rw)))
    return complex(val) if scalar_in else val


def gbe_log_variance(z: complex, beta: int, part: str = "real") -> float:
    """Predicted variance of the real or imaginary part of the log field at z (bulk, Im z > 0)."""
    z = complex(z)
    if z.imag <= 0.0 or abs(z.real) >= 2.0:
        raise ValueError("gbe_log_variance requires Im z > 0 and |Re z| < 2")
    Lzz = log_pair_kernel(z, z)
    Lzzb = log_pair_kernel(z, z.conjugate())
    Lzbzb = log_pair_kernel(z.conjugate(), z.conjugate())
    if part == "real":
        quarter = 0.25 * (Lzz + 2.0 * Lzzb + Lzbzb)
    elif part == "imag":
        quarter = 0.25 * (2.0 * Lzzb - Lzz - Lzbzb)
    else:
        raise ValueError(f"unknown part {part!r}")
    out = quarter / (2.0 * beta * np.pi ** 2)
    if abs(out.imag) > 1e-9 * max(1.0, abs(out.real)):
        raise NumericalError(f"log-field variance has spurious imaginary part {out.imag!r}")
    return float(out.real)


def clt_prediction(f: TestFunction, profile: VarianceProfile, summary: CumulantSummary, beta: int,
                   J: int = 256, check_paths: bool = False) -> CltPrediction:
    """Assemble (V, E, B) and the centering from one coefficient table of f, on
    max(_CHEB_NODES, 2J) nodes; J doubles until the last decade of coefficients is negligible.

    Negligible means two things: the last decade carries at most _LAST_DECADE_FRACTION of the
    variance series, and its terms of the mean shift sum to at most _LAST_DECADE_FRACTION
    times max(1, sqrt V). The second is needed because V reads squared coefficients and E
    reads them linearly. J stops at J_CAP either way.

    The centering int f d(rho_sc) is (t_0 - t_2)/2, as rho_sc(x) dx = (1 - cos 2 theta)
    d theta / pi at x = 2 cos(theta). A test function that is not finite at a node raises
    ValueError.
    """
    while True:
        t = cheb_coeffs(f, J=J, M=max(_CHEB_NODES, 2 * J))
        V, details = variance_series(t, profile, summary, beta, return_details=True)
        negligible = (
            details["last_decade_fraction"] <= _LAST_DECADE_FRACTION
            and _mean_last_decade(t, profile, beta)
            <= _LAST_DECADE_FRACTION * max(1.0, np.sqrt(max(V, 0.0))))
        if negligible or J >= J_CAP:
            break
        J *= 2
    paths_agree = Vi = None
    if check_paths:
        Vi = variance_integral(f, t, profile, summary, beta)
        paths_agree = bool(abs(V - Vi) <= max(1e-5 * abs(V), 1e-7))
    return CltPrediction(
        variance=V,
        mean_shift=mean_correction(t, profile, summary, beta),
        cubic=cubic_term(t, summary),
        beta=beta,
        centering=(_coeff(t.t, 0) - _coeff(t.t, 2)) / 2.0,
        J=t.J,
        tail_estimate=t.tail_estimate,
        paths_agree=paths_agree,
        integral_variance=Vi,
    )
