"""Workload configs for the wignerlss CLI benchmark, and the checks on each command's outputs.

Standard library only: this module runs in the benchmark's parent process, which never
imports numpy or wignerlss. Facts that need them come from probe.py in a child process.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

TWO_POINT_P = 0.1

# Full sizes give each command about ten seconds on a 2-core box, so the ~1 s import is a
# small share; smoke sizes run every path, checks included, in about a second per command.
WORKLOADS = {
    "verify_flat": {
        "command": "verify",
        "threads": 2,
        "full": {"N": 300, "replicas": 800},
        "smoke": {"N": 40, "replicas": 200},
    },
    "maxpoly_band": {
        "command": "maxpoly",
        "threads": 1,
        "full": {"N": 800, "W": 100, "replicas": 30, "grid": 2000},
        "smoke": {"N": 60, "W": 10, "replicas": 4, "grid": 200},
    },
    "predict_random": {
        "command": "predict",
        "threads": 1,
        "full": {"N": 1000},
        "smoke": {"N": 80},
    },
}

_KAPPA = 0.2          # bulk cut of the max-field grid
_ROUGHNESS = 0.5      # random profile: Sinkhorn scaling of exp(0.5 g)
_TOL_EXACT = 1e-9     # closed forms the prediction must meet to rounding
_TOL_PATHS = 1e-5     # series vs integral route, the program's own agreement gate
_TOL_RATIO = 1e-9     # recomputed max-field ratios


def make_config(name: str, seed: int, smoke: bool) -> dict:
    """The config handed to the program; --seed enters only through it."""
    size = WORKLOADS[name]["smoke" if smoke else "full"]
    diag = {"family": "two_point", "p": TWO_POINT_P}
    if name == "verify_flat":
        return {
            "ensemble": {"beta": 1, "profile": {"type": "flat", "N": size["N"]},
                         "offdiag": {"family": "gaussian"}, "diag": diag},
            "testfn": "x2",
            "run": {"replicas": size["replicas"], "master_seed": seed},
        }
    if name == "maxpoly_band":
        return {
            "ensemble": {"beta": 2,
                         "profile": {"type": "band", "N": size["N"], "params": {"W": size["W"]}},
                         "offdiag": {"family": "gaussian"}, "diag": {"family": "gaussian"}},
            "run": {"replicas": size["replicas"], "master_seed": seed,
                    "maxfield": {"kappa": _KAPPA, "grid": size["grid"]}},
        }
    if name == "predict_random":
        return {
            "ensemble": {"beta": 1,
                         "profile": {"type": "random", "N": size["N"], "seed": seed,
                                     "params": {"roughness": _ROUGHNESS}},
                         "offdiag": {"family": "gaussian"}, "diag": diag},
            "testfn": "x2",
        }
    raise KeyError(name)


def checked_replicas(cfg: dict) -> list:
    """Replicas of a maxpoly run that probe.py recomputes: the first and a seed-chosen one."""
    run = cfg["run"]
    return sorted({0, run["master_seed"] % run["replicas"]})


def two_point_kappa4(p: float) -> float:
    """Fourth cumulant of the standardized Bernoulli (B(p) - p)/sqrt(p(1-p))."""
    q = p * (1.0 - p)
    return (1.0 - 6.0 * q) / q


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _x2_closed_forms(pred: dict, facts: dict) -> list:
    """For f = x^2, beta = 1, Gaussian off-diagonal entries and a two-point diagonal:

    E tr H^2 = sum_ij S_ij = N, which the centering N int x^2 d(rho_sc) = N cancels, so E = 0;
    V = 4 tr S^2 + 2 kappa4(diag) sum_i S_ii^2 (Chebyshev coefficient t_2 = 2 plus the
    fourth-cumulant correction). Both sides come from S alone, computed apart from the program.
    """
    errors = []
    v_closed = 4.0 * facts["tr_S2"] + 2.0 * two_point_kappa4(TWO_POINT_P) * facts["diag_sq"]
    if not abs(pred["E"]) <= _TOL_EXACT:
        errors.append(f"E = {pred['E']!r}, closed form 0")
    if not _close(pred["V"], v_closed, _TOL_EXACT):
        errors.append(f"V = {pred['V']!r}, closed form {v_closed!r}")
    return errors


def check(name: str, cfg: dict, outdir: Path, returncode: int, facts: dict) -> list:
    """Failure messages for one command; an empty list means every check passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    errors = [f"profile: {msg}" for msg in facts["profile_errors"]]
    if name == "verify_flat":
        report = json.loads((outdir / "report.json").read_text())
        if report["overall_pass"] is not True:
            errors.append("overall_pass is not true")
        errors += _x2_closed_forms(report["prediction"], facts)
    elif name == "predict_random":
        pred = json.loads((outdir / "prediction.json").read_text())
        if pred["paths_agree"] is not True:
            errors.append("paths_agree is not true")
        if not _close(pred["V"], pred["V_integral"], _TOL_PATHS):
            errors.append(f"V = {pred['V']!r} and V_integral = {pred['V_integral']!r} differ")
        errors += _x2_closed_forms(pred, facts)
        # exact finite-N Var(tr H^2) = 4 tr S^2 + (kappa4 - 2) sum S_ii^2; the CLT drops an
        # O(1/N) diagonal term bounded by (|kappa4| + 2) (N max S_ii)^2 / N
        k4 = two_point_kappa4(TWO_POINT_P)
        var_exact = 4.0 * facts["tr_S2"] + (k4 - 2.0) * facts["diag_sq"]
        allowed = (abs(k4) + 2.0) * facts["max_diag_N"] ** 2 / facts["N"]
        if not abs(pred["V"] - var_exact) <= allowed * (1.0 + _TOL_EXACT):
            errors.append(f"V = {pred['V']!r} is {abs(pred['V'] - var_exact):.3g} from the exact "
                          f"finite-N variance {var_exact!r}, beyond O(1/N) = {allowed:.3g}")
    elif name == "maxpoly_band":
        summary = json.loads((outdir / "maxpoly.json").read_text())
        with open(outdir / "ratios.csv", newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        if len(rows) != cfg["run"]["replicas"] or summary["replicas"] != len(rows):
            errors.append(f"{len(rows)} ratio rows for {cfg['run']['replicas']} replicas")
        if not all(math.isfinite(v) for row in rows for v in row):
            errors.append("non-finite ratio")
        elif rows:
            for col, key in enumerate(("median_re", "median_im_plus", "median_im_minus")):
                if not _close(summary[key], statistics.median(row[col] for row in rows), 1e-12):
                    errors.append(f"{key} = {summary[key]!r} is not the median of ratios.csv")
        for r, want in facts["ratios"].items():
            got = rows[int(r)] if int(r) < len(rows) else [math.nan] * 3
            if not all(abs(g - w) <= _TOL_RATIO for g, w in zip(got, want)):
                errors.append(f"replica {r}: ratios {got} but recomputed {want}")
    return errors
