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
from .errors import NumericalError, _real, _whole
from .testfn import TestFunction

_COLLISION_NUDGE = 1e-9
_CHAR_THRESHOLD_CONST = 10.0   # additive c/N allowance in the CF comparison
_Z_THRESHOLD = 4.0             # z-score gate for mean/variance/third-cumulant items
_LAMBDA_WINDOW_CONST = 0.5


def lambda_window(N: int) -> float:
    """Largest |lambda| the CLT expansion is trusted at for size N; callers warn beyond it."""
    return _LAMBDA_WINDOW_CONST * N ** 0.4


def _maxfield_params(kappa: float, grid_size: int, N: int) -> tuple:
    """The max-field experiment's (kappa, grid size), range-checked, for matrices of size N:
    its ratios divide by log N, so N must be at least 2."""
    if N < 2:
        raise ValueError(f"maxfield needs N >= 2, got N = {N}: its ratios divide by log N")
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
            object.__setattr__(self, "maxfield", _maxfield_params(*self.maxfield, self.spec.N))
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
    maxfield: Optional[dict] = None   # _max_block's dict, as max_field_experiment returns
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


def _max_block(table: np.ndarray, collisions: tuple) -> dict:
    """The max-field block of every output: the first three columns of table as the re,
    im_plus and im_minus ratio arrays, and the grid collisions."""
    names = ("re_ratio", "im_plus_ratio", "im_minus_ratio")
    return {**dict(zip(names, table.T)), "collisions": collisions}


def _replica_table(spec: en.EnsembleSpec, master_seed: int, R: int, threads: int,
                   progress: Optional[Callable[[int, int], None]], fs: tuple = (),
                   maxfield: Optional[tuple] = None, rigidity: Optional[float] = None) -> tuple:
    """(table, collisions): replica r's statistics in row r of an R x k float array, whose
    columns are contiguous, and the grid collisions as (replica, E) pairs in replica order.

    The columns: sp.lss of each (f, center) pair in fs; then, if maxfield = (kappa, grid
    size), the three _max_ratios ratios; then, if rigidity = kappa, the rigidity max and min.
    When every f is a polynomial of degree <= 2 and there is no maxfield or rigidity, each
    statistic is spectral.trace_lss of the packed draw of en.sample, with no N x N buffer and
    no eigensolve. Otherwise each of the `threads` workers draws all its replicas into one H
    buffer of its own, which the eigensolve overwrites.

    Replica r is drawn from the Philox stream keyed by (master_seed, r), so the table does
    not depend on the thread count. The first failing replica, in index order, raises
    NumericalError naming it and the seed; queued replicas are cancelled first.
    """
    coeffs = [sp.quadratic_coeffs(f) for f, _ in fs]
    packed = maxfield is None and rigidity is None and None not in coeffs
    local = threading.local()

    def one(r):
        key = (master_seed, r)
        if packed:
            sums = sp.packed_trace_sums(*en.sample(spec, key, packed=True))
            return [sp.trace_lss(spec.N, *sums, c, center) for c, (_, center) in zip(coeffs, fs)], []
        local.H = en.sample(spec, key, out=getattr(local, "H", None))
        s = sp.eigenvalues(local.H, check_hermitian=False)
        row, collisions = [sp.lss(s, f, center) for f, center in fs], []
        if maxfield is not None:
            *ratios, collisions = _max_ratios(s, *maxfield, r)
            row += ratios
        if rigidity is not None:
            row += sp.rigidity_stats(s, rigidity)
        return row, collisions

    pool = ThreadPoolExecutor(max_workers=threads)
    rows, collisions = [], []
    try:
        futures = [pool.submit(one, r) for r in range(R)]
        for r, future in enumerate(futures):
            try:
                row, hits = future.result()
            except Exception as exc:
                raise NumericalError(
                    f"replica {r} failed (master_seed {master_seed}): {exc}") from exc
            rows.append(row)
            collisions += hits
            if progress is not None:
                progress(r + 1, R)
    finally:
        pool.shutdown(cancel_futures=True)
    return np.asfortranarray(np.array(rows, dtype=float).reshape(R, -1)), tuple(collisions)


def run_ensemble(config: RunConfig, threads: int = 1,
                 progress: Optional[Callable[[int, int], None]] = None) -> RunResult:
    """Predict, then run all replicas and aggregate them deterministically in replica order.

    The prediction comes first, and every replica centers its statistic by the prediction's
    centering, int f d(rho_sc) read from the same coefficients; a test function the
    prediction cannot expand therefore fails before any matrix is drawn. Per-replica RNG is
    derived from (master_seed, replica index) by counter, and results are collected in index
    order, so the output is independent of thread count. _replica_table picks the route.
    """
    spec = config.spec
    prediction = fl.clt_prediction(config.f, spec.profile, en.cumulant_summary(spec), spec.beta)
    table, collisions = _replica_table(
        spec, config.master_seed, config.replicas, threads, progress,
        ((config.f, prediction.centering),), config.maxfield, config.rigidity)
    lss_samples, rest = table[:, 0], table[:, 1:]
    maxfield = rigidity = None
    if config.maxfield is not None:
        maxfield, rest = _max_block(rest, collisions), rest[:, 3:]
    if config.rigidity is not None:
        rigidity = dict(zip(("max", "min"), rest.T))
    return RunResult(
        config=config,
        lss_samples=lss_samples,
        char_emp=empirical_char(lss_samples, np.asarray(config.lambda_grid)),
        kstats=cumulant_estimates(lss_samples) if config.replicas >= 4 else None,
        prediction=prediction,
        maxfield=maxfield,
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
    kappa, E_grid_size = _maxfield_params(kappa, E_grid_size, spec.N)
    R, master_seed = _replicas_and_seed(R, master_seed, 1)
    return _max_block(*_replica_table(spec, master_seed, R, threads, progress,
                                      maxfield=(kappa, E_grid_size)))


def samples_to_csv(path, samples: np.ndarray) -> None:
    """One LSS sample per row."""
    np.savetxt(path, np.asarray(samples, dtype=float), fmt="%.17g", header="lss", comments="")
