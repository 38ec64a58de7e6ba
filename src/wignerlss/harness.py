"""Monte Carlo orchestration: replica execution, empirical characteristic function,
k-statistic cumulant estimates, theory-vs-experiment reports, and the max-field experiment."""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import ensemble as en
from . import functionals as fl
from . import spectral as sp
from .errors import NumericalError
from .profile import _real, _whole
from .testfn import TestFunction

_COLLISION_NUDGE = 1e-9
_CHAR_THRESHOLD_CONST = 10.0   # additive c/N allowance in the CF comparison
_Z_THRESHOLD = 4.0             # z-score gate for mean/variance/third-cumulant items
_LAMBDA_WINDOW_CONST = 0.5


def lambda_window(N: int) -> float:
    """Largest |lambda| the CLT expansion is trusted at for size N; callers warn beyond it."""
    return _LAMBDA_WINDOW_CONST * N ** 0.4


def _maxfield_params(kappa: float, grid_size: int) -> tuple:
    """The max-field experiment's (kappa, grid size), range-checked."""
    if not 0.0 < _real(kappa, "maxfield kappa") < 1.0:
        raise ValueError("maxfield kappa must be in (0, 1)")
    if _whole(grid_size, "maxfield grid") < 100:
        raise ValueError("maxfield grid must have >= 100 points")
    return float(kappa), int(grid_size)


def _replicas_and_seed(replicas, master_seed, least: int) -> tuple:
    """(replicas, master_seed) as ints: at least `least` replicas, and a seed in [0, 2**64),
    a Philox key word; ValueError otherwise, before any draw."""
    if _whole(replicas, "replicas") < least:
        raise ValueError(f"replicas must be >= {least}")
    if not 0 <= _whole(master_seed, "master_seed") < 2 ** 64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    return int(replicas), int(master_seed)


@dataclass(frozen=True)
class RunConfig:
    """One batch: ensemble, test function, replica count, seed, and experiment flags.

    maxfield is (kappa, E_grid_size) or None; rigidity is the bulk fraction kappa or None.
    """

    spec: en.EnsembleSpec
    f: TestFunction
    replicas: int
    master_seed: int
    lambda_grid: tuple = (0.0, 0.25, 0.5, 1.0)
    maxfield: Optional[tuple] = None
    rigidity: Optional[float] = None

    def __post_init__(self):
        replicas, seed = _replicas_and_seed(self.replicas, self.master_seed, 2)
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(self, "master_seed", seed)
        if not isinstance(self.lambda_grid, (list, tuple)):
            raise ValueError(f"lambda_grid must be a list or tuple, got {self.lambda_grid!r}")
        object.__setattr__(self, "lambda_grid", tuple(_real(v, "lambda_grid") for v in self.lambda_grid))
        if self.maxfield is not None:
            object.__setattr__(self, "maxfield", _maxfield_params(*self.maxfield))
        if self.rigidity is not None:   # an empty window fails here, before any draw
            object.__setattr__(self, "rigidity", _real(self.rigidity, "rigidity"))
            sp.rigidity_window(self.spec.N, self.rigidity)

    def descriptor(self) -> dict:
        return {
            "ensemble": self.spec.descriptor(),
            "f": self.f.label,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
            "lambda_grid": list(self.lambda_grid),
            "maxfield": list(self.maxfield) if self.maxfield else None,
            "rigidity": self.rigidity,
        }


class CumulantEstimates(NamedTuple):
    k1: float
    k2: float
    k3: float
    se1: float
    se2: float
    se3: float


@dataclass
class RunResult:
    config: RunConfig
    lss_samples: np.ndarray
    char_emp: np.ndarray
    kstats: Optional[CumulantEstimates]   # None when replicas < 4
    prediction: fl.CltPrediction
    maxfield: Optional[dict] = None   # _max_columns's dict, as max_field_experiment returns
    rigidity: Optional[dict] = None   # {"max": array, "min": array} over the replicas

    def to_dict(self) -> dict:
        out = {
            "config": self.config.descriptor(),
            "prediction": self.prediction.to_dict(),
            "lss_samples": [float(v) for v in self.lss_samples],
            "char": [
                {"lambda": lam, "re": float(c.real), "im": float(c.imag)}
                for lam, c in zip(self.config.lambda_grid, self.char_emp)
            ],
            "char_se": 1.0 / np.sqrt(len(self.lss_samples)),
            "kstats": dict(self.kstats._asdict()) if self.kstats is not None else None,
        }
        for name, block in (("maxfield", self.maxfield), ("rigidity", self.rigidity)):
            if block is not None:   # arrays as float lists, collisions as [replica, E] pairs
                out[name] = {k: v.tolist() if isinstance(v, np.ndarray) else [list(c) for c in v]
                             for k, v in block.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def empirical_char(samples: np.ndarray, lam):
    """R^-1 sum_r exp(i lam X_r), modulus clipped into the unit disk; lam scalar or grid."""
    x = np.asarray(samples, dtype=float)
    scalar_in = np.isscalar(lam) or np.ndim(lam) == 0
    la = np.atleast_1d(np.asarray(lam, dtype=float))
    vals = np.mean(np.exp(1j * np.outer(la, x)), axis=1)
    mod = np.abs(vals)
    vals = np.where(mod > 1.0, vals / mod, vals)
    if scalar_in:
        return complex(vals[0])
    return vals


def cumulant_estimates(samples: np.ndarray) -> CumulantEstimates:
    """Unbiased k-statistics (k1, k2, k3) with delete-1 jackknife standard errors.

    Jackknife replicates come from downdated power sums, so the whole estimate is O(R).
    Samples are pre-centered by their mean (k2, k3 are shift invariant) to keep the
    power sums well conditioned.
    """
    x = np.asarray(samples, dtype=float)
    R = x.size
    if R < 4:
        raise ValueError("cumulant_estimates needs at least 4 samples")
    k1 = float(np.mean(x))
    y = x - k1
    S1, S2, S3 = float(np.sum(y)), float(np.sum(y * y)), float(np.sum(y ** 3))

    def kstats(s1, s2, s3, n):
        m2 = s2 / n - (s1 / n) ** 2
        m3 = s3 / n - 3.0 * s2 * s1 / n ** 2 + 2.0 * (s1 / n) ** 3
        k2 = np.maximum(m2 * n / (n - 1.0), 0.0)
        k3 = m3 * n * n / ((n - 1.0) * (n - 2.0))
        return k2, k3

    k2, k3 = kstats(S1, S2, S3, R)
    mean_i = (R * k1 + S1 - x) / (R - 1.0)
    k2_i, k3_i = kstats(S1 - y, S2 - y * y, S3 - y ** 3, R - 1.0)

    def jack_se(theta):
        return float(np.sqrt((R - 1.0) / R * np.sum((theta - np.mean(theta)) ** 2)))

    return CumulantEstimates(
        k1=k1, k2=float(k2), k3=float(k3),
        se1=jack_se(mean_i), se2=jack_se(k2_i), se3=jack_se(k3_i),
    )


def _max_ratios(sample: sp.SpectralSample, kappa: float, grid_size: int, replica: int):
    """Sup of Re, +Im, -Im of the eta = 0 field over the bulk grid, each over sqrt(2) log N.

    A grid point that lands exactly on an eigenvalue is nudged by 1e-9 and recorded.
    """
    half = 2.0 - kappa
    grid = np.linspace(-half, half, grid_size)
    collisions = []
    for _ in range(8):
        hit = sp.exact_hits(sample.eigs, grid)
        if not np.any(hit):
            break
        for e in grid[hit]:
            collisions.append((replica, float(e)))
        grid = np.where(hit, grid + _COLLISION_NUDGE, grid)
    L = sp.log_char_field(sample, grid, 0.0)
    denom = np.sqrt(2.0) * np.log(sample.N)
    return (
        float(np.max(L.real) / denom),
        float(np.max(L.imag) / denom),
        float(np.max(-L.imag) / denom),
        collisions,
    )


def _max_columns(quads: list) -> dict:
    """Per-replica _max_ratios quads as the re, im_plus and im_minus ratio arrays and one
    collision tuple, in replica order: the max-field block of every output."""
    re, im_plus, im_minus, collisions = zip(*quads)
    return {"re_ratio": np.array(re), "im_plus_ratio": np.array(im_plus),
            "im_minus_ratio": np.array(im_minus),
            "collisions": tuple(c for cs in collisions for c in cs)}


def _map_replicas(spec: en.EnsembleSpec, master_seed: int, R: int,
                  stat: Callable[[object, int], object], threads: int,
                  progress: Optional[Callable[[int, int], None]], packed: bool = False) -> list:
    """stat(H, r) of the drawn matrices H of replicas r = 0..R-1, returned in replica order;
    with packed=True, stat(draw, r) of the packed draws (upper, diag) of en.sample instead.

    Replica r is drawn from the Philox stream keyed by (master_seed, r), so the results do
    not depend on the thread count. The first failing replica, in index order, raises
    NumericalError naming it and the seed; queued replicas are cancelled first.

    Each of the `threads` workers draws every one of its replicas into one H buffer of its
    own, so a run allocates at most `threads` matrices and does not page a fresh one in per
    replica. stat may overwrite H, as spectral.eigenvalues does, since the next draw
    overwrites every entry; it must not keep H, or any view of it, after it returns. A
    packed draw is two new vectors and touches no N x N buffer.
    """
    local = threading.local()

    def one(r):
        if packed:
            return stat(en.sample(spec, (master_seed, r), packed=True), r)
        local.H = en.sample(spec, (master_seed, r), out=getattr(local, "H", None))
        return stat(local.H, r)

    pool = ThreadPoolExecutor(max_workers=threads)
    rows = []
    try:
        futures = [pool.submit(one, r) for r in range(R)]
        for r, future in enumerate(futures):
            try:
                rows.append(future.result())
            except Exception as exc:
                raise NumericalError(
                    f"replica {r} failed (master_seed {master_seed}): {exc}") from exc
            if progress is not None:
                progress(r + 1, R)
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


def run_ensemble(config: RunConfig, threads: int = 1,
                 progress: Optional[Callable[[int, int], None]] = None) -> RunResult:
    """Predict, then run all replicas and aggregate them deterministically in replica order.

    The prediction comes first, and every replica centers its statistic by the prediction's
    centering, int f d(rho_sc) read from the same coefficients; a test function the
    prediction cannot expand therefore fails before any matrix is drawn. Per-replica RNG is
    derived from (master_seed, replica index) by counter, and results are collected in index
    order, so the output is independent of thread count.

    A polynomial of degree <= 2, in a run with no maxfield and no rigidity, takes each
    statistic from tr H and ||H||_F^2 (spectral.trace_lss), read off the packed draw, and
    skips both the N x N matrix and the eigensolve; every other run solves for the
    spectrum of each replica.
    """
    summary = en.cumulant_summary(config.spec)
    prediction = fl.clt_prediction(config.f, config.spec.profile, summary, config.spec.beta)
    center = prediction.centering
    coeffs = sp.quadratic_coeffs(config.f)
    packed = coeffs is not None and config.maxfield is None and config.rigidity is None
    if packed:
        N = config.spec.N

        def stat(draw: tuple, r: int) -> dict:
            return {"lss": sp.trace_lss(N, *sp.packed_trace_sums(*draw), coeffs, center)}
    else:
        def stat(H: np.ndarray, r: int) -> dict:
            s = sp.eigenvalues(H, check_hermitian=False)
            out = {"lss": sp.lss(s, config.f, center)}
            if config.maxfield is not None:
                out["max"] = _max_ratios(s, config.maxfield[0], config.maxfield[1], r)
            if config.rigidity is not None:
                out["rigidity"] = sp.rigidity_stats(s, config.rigidity)
            return out

    R = config.replicas
    rows = _map_replicas(config.spec, config.master_seed, R, stat, threads, progress, packed)
    lss_samples = np.array([row["lss"] for row in rows])
    rigidity = None
    if config.rigidity is not None:
        rig_max, rig_min = np.array([row["rigidity"] for row in rows]).T
        rigidity = {"max": rig_max, "min": rig_min}
    return RunResult(
        config=config,
        lss_samples=lss_samples,
        char_emp=empirical_char(lss_samples, np.asarray(config.lambda_grid)),
        kstats=cumulant_estimates(lss_samples) if R >= 4 else None,
        prediction=prediction,
        maxfield=_max_columns([row["max"] for row in rows]) if config.maxfield else None,
        rigidity=rigidity,
    )


def compare(result: RunResult) -> dict:
    """Per-lambda CF distances and z-scores of the first three cumulants against the run's
    prediction (mean shift E, variance V, third cumulant B); JSON-ready report."""
    if result.kstats is None:
        raise ValueError("compare needs cumulant estimates; run with replicas >= 4")
    pred = result.prediction
    R = len(result.lss_samples)
    N = result.config.spec.N
    ks = result.kstats
    char_threshold = 4.0 / np.sqrt(R) + _CHAR_THRESHOLD_CONST / N

    char_rows = []
    for lam, emp in zip(result.config.lambda_grid, result.char_emp):
        model = fl.predicted_char(lam, pred)
        diff = abs(emp - model)
        char_rows.append({
            "lambda": lam,
            "empirical": [float(emp.real), float(emp.imag)],
            "predicted": [float(model.real), float(model.imag)],
            "abs_diff": float(diff),
            "threshold": float(char_threshold),
            "pass": bool(diff <= char_threshold),
        })

    def item(est, se, target):
        if se == 0.0:
            z = 0.0 if est == target else float("inf")
        else:
            z = (est - target) / se
        return {"estimate": est, "se": se, "predicted": target, "z": float(z),
                "threshold": _Z_THRESHOLD, "pass": bool(abs(z) <= _Z_THRESHOLD)}

    report = {
        "char": char_rows,
        "mean": item(ks.k1, ks.se1, pred.mean_shift),
        "variance": item(ks.k2, ks.se2, pred.variance),
        "third_cumulant": item(ks.k3, ks.se3, pred.cubic),
    }
    items = [row["pass"] for row in char_rows]
    items += [report["mean"]["pass"], report["variance"]["pass"], report["third_cumulant"]["pass"]]
    report["overall_pass"] = bool(all(items))
    return report


def max_field_experiment(spec: en.EnsembleSpec, kappa: float, E_grid_size: int, R: int,
                         master_seed: int = 0, threads: int = 1,
                         progress: Optional[Callable[[int, int], None]] = None) -> dict:
    """Distribution of sup Re L / (sqrt2 log N) and the two Im analogues over R replicas."""
    kappa, E_grid_size = _maxfield_params(kappa, E_grid_size)
    R, master_seed = _replicas_and_seed(R, master_seed, 1)

    def stat(H: np.ndarray, r: int):
        s = sp.eigenvalues(H, check_hermitian=False)
        return _max_ratios(s, kappa, E_grid_size, r)

    return _max_columns(_map_replicas(spec, master_seed, R, stat, threads, progress))


def samples_to_csv(path, samples: np.ndarray) -> None:
    """One LSS sample per row."""
    np.savetxt(path, np.asarray(samples, dtype=float), fmt="%.17g", header="lss", comments="")
