"""Test functions and their Chebyshev expansions in the scaled basis T_n(2 cos t) = cos(n t)."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _npcheb
from numpy.polynomial import polynomial as _nppoly

from .errors import _real
from .semicircle import dct2, gauss_cheb_nodes, msc

_FD_STEP = 1e-5  # central-difference step for black-box derivatives


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Evaluator on [-5, 5] with an (optional) analytic first derivative.

    monomials holds the coefficients (c0, c1, ...) of a polynomial built by polynomial(),
    and is None for every other function.
    """

    fn: Callable = field(repr=False)
    deriv: Optional[Callable] = field(default=None, repr=False)
    label: str = ""
    monomials: Optional[tuple] = None

    def __call__(self, x):
        return self.fn(x)

    def derivative(self, d: int) -> Callable:
        """Order-d derivative, d = 0 or 1; analytic when available, else central differences."""
        if d == 0:
            return self.fn
        if d == 1:
            if self.deriv is not None:
                return self.deriv
            return lambda x: (self.fn(x + _FD_STEP) - self.fn(x - _FD_STEP)) / (2 * _FD_STEP)
        raise ValueError("derivative order must be 0 or 1")


def polynomial(coeffs: Sequence[float], label: str = "") -> TestFunction:
    """Polynomial in monomial coefficients (c0, c1, ...)."""
    c = tuple(float(v) for v in coeffs)
    if not c:
        raise ValueError("polynomial needs at least one coefficient")
    d1 = _nppoly.polyder(c) if len(c) > 1 else np.zeros(1)
    return TestFunction(
        fn=lambda x, c=c: _nppoly.polyval(x, c),
        deriv=lambda x, d=tuple(d1): _nppoly.polyval(x, d),
        label=label or "poly" + str(list(c)),
        monomials=c,
    )


def smooth(fn: Callable, label: str = "smooth", deriv: Callable = None) -> TestFunction:
    return TestFunction(fn=fn, deriv=deriv, label=label)


def gauss_bump(center: float, width: float) -> TestFunction:
    """exp(-(x - center)^2 / (2 width^2))."""
    if width <= 0:
        raise ValueError("gauss width must be positive")
    c, w = float(center), float(width)

    def f(x):
        return np.exp(-((x - c) ** 2) / (2 * w * w))

    def f1(x):
        return -(x - c) / (w * w) * f(x)

    return TestFunction(fn=f, deriv=f1, label=f"gauss({c},{w})")


def log_real(E: float, eta: float) -> TestFunction:
    """f(x) = Re log(z - x) = log((E-x)^2 + eta^2)/2 at z = E + i eta; singular at x = E when eta = 0."""
    E, eta = float(E), float(eta)

    def f(x):
        u = E - x
        return 0.5 * np.log(u * u + eta * eta)

    def f1(x):
        u = E - x
        return -u / (u * u + eta * eta)

    return TestFunction(fn=f, deriv=f1, label=f"logre({E},{eta})")


def log_imag(E: float, eta: float) -> TestFunction:
    """f(x) = Im log(z - x) = atan2(eta, E - x) at z = E + i eta, branch theta in (-pi, pi]."""
    E, eta = float(E), float(eta)

    def f(x):
        return np.arctan2(eta, E - x)

    def f1(x):
        u = E - x
        return eta / (u * u + eta * eta)

    return TestFunction(fn=f, deriv=f1, label=f"logim({E},{eta})")


def cheb_t_fn(n: int) -> TestFunction:
    """T_n as a TestFunction, evaluated stably in the Chebyshev basis (never via monomials)."""
    if not (0 <= n <= J_CAP and float(n).is_integer()):
        raise ValueError(f"Chebyshev order must be an integer in [0, {J_CAP}], got {n!r}")
    n = int(n)
    e = np.zeros(n + 1)
    e[n] = 1.0
    d1 = _npcheb.chebder(e)
    return TestFunction(
        fn=lambda x: _npcheb.chebval(np.asarray(x) / 2.0, e),
        deriv=lambda x: _npcheb.chebval(np.asarray(x) / 2.0, d1) / 2.0,
        label=f"T{n}",
    )


_NAME_RE = re.compile(r"^([a-z]+)\(([^)]*)\)$")

_BUILTIN_CTORS = {"cheb": cheb_t_fn, "gauss": gauss_bump, "logre": log_real, "logim": log_imag}


def from_name(spec) -> TestFunction:
    """Builtins: "x", "x2", "cheb(n)" (T_n, n a non-negative integer), "gauss(center,width)",
    "logre(E,eta)", "logim(E,eta)"; or a coefficient list, each entry a finite real number
    by errors._real, named by its index (testfn[i])."""
    if isinstance(spec, (list, tuple)):
        return polynomial([_real(v, f"testfn[{i}]") for i, v in enumerate(spec)])
    s = str(spec).strip()
    if s == "x":
        return polynomial((0.0, 1.0), label="x")
    if s == "x2":
        return polynomial((0.0, 0.0, 1.0), label="x2")
    m = _NAME_RE.match(s)
    if m and m.group(1) in _BUILTIN_CTORS:
        try:
            args = [float(v) for v in m.group(2).split(",")]
        except ValueError as exc:
            raise ValueError(f"bad test-function arguments in {s!r}") from exc
        bad = [v for v in args if not np.isfinite(v)]
        if bad and m.group(1) != "cheb":   # cheb_t_fn's range check names its order itself
            raise ValueError(f"test-function arguments must be finite, got {bad[0]!r} in {s!r}")
        return _BUILTIN_CTORS[m.group(1)](*args)
    raise ValueError(f"unknown test function {s!r}")


@dataclass(eq=False)
class ChebCoeffs:
    """Coefficients t_0..t_J of f = t_0/2 + sum t_n T_n, with a bound on the dropped tail."""

    t: np.ndarray
    J: int
    tail_estimate: float

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        if self.t.shape[0] != self.J + 1:
            raise ValueError("coefficient array must have length J + 1")


def _tail_estimate(t: np.ndarray) -> float:
    a = np.abs(t)
    J = len(a) - 1
    k = max(5, J // 10)
    seg = a[max(1, J + 1 - k):]
    if seg.size == 0 or seg.max() == 0.0:
        return 0.0
    scale = max(a.max(), 1e-300)
    if seg.max() <= 1e-14 * scale:
        # roundoff floor: report the floor itself as the tail bound
        return float(seg.max() * seg.size)
    pos = seg[seg > 0]
    idx = np.arange(seg.size)[seg > 0]
    if pos.size < 3:
        return float(seg.sum())
    slope = np.polyfit(idx, np.log(pos), 1)[0]
    r = np.exp(slope)
    if r < 0.999:
        return float(seg[-1] * r / (1.0 - r))
    return float(seg.sum())


def node_values(f, x: np.ndarray) -> np.ndarray:
    """f (a callable, or its values) at the quadrature nodes x; ValueError names a non-finite one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(f(x) if callable(f) else f, dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"test function is singular at quadrature node x_{bad[0]} = {float(x[bad[0]])!r}")
    return vals


J_CAP = 2048  # the largest J a coefficient table reaches, so T_n above it would alias


def cheb_coeffs(f, J: int = 256, M: int = 2048) -> ChebCoeffs:
    """Discrete coefficients t_n = (2/M) sum_j f(x_j) cos(n pi (j+1/2)/M) at Gauss-Chebyshev nodes."""
    if M < 2 * J:
        raise ValueError(f"need M >= 2J, got M={M}, J={J}")
    t = dct2(node_values(f, gauss_cheb_nodes(M)))[: J + 1] / M
    return ChebCoeffs(t=t, J=J, tail_estimate=_tail_estimate(t))


def log_test_coeffs(z: complex, n: int, part: str = "complex"):
    """Coefficients of log(z - .): t_n = 2 (-1)^(n+1) msc(z)^n / n for n >= 1.

    Real/imag parts are the coefficients of the log-real/log-imag test functions at z.
    """
    if n < 1:
        raise ValueError("n = 0 not provided in closed form; compute it by quadrature")
    if np.imag(z) <= 0:
        raise ValueError("log_test_coeffs requires Im z > 0")
    t = 2.0 * (-1.0) ** (n + 1) * msc(complex(z)) ** n / n
    if part == "complex":
        return t
    if part == "real":
        return t.real
    if part == "imag":
        return t.imag
    raise ValueError(f"unknown part {part!r}")
