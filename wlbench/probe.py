"""Set-up probe: a fresh process that pays what every wignerlss command pays first.

    python3 probe.py CONFIG.json [--facts]

It imports the CLI, loads the config and builds the ensemble through the public
constructors, then prints on one line, as JSON, the CLOCK_MONOTONIC stamp at which that was
done (the parent subtracts the stamp it took before spawning). With --facts it adds what the
output checks need: sums over S computed with numpy, and for maxpoly configs the max-field
ratios of some replicas recomputed from a bare eigvalsh and the closed-form semicircle log
potential.
"""

import sys
import time

from wignerlss import cli
from wignerlss import EnsembleSpec, entry_from_config, profile_from_descriptor

cfg = cli.load_config(sys.argv[1])
ens = cfg["ensemble"]
spec = EnsembleSpec(ens["beta"], profile_from_descriptor(ens["profile"]),
                    entry_from_config(ens["offdiag"]), entry_from_config(ens["diag"]))
setup_done = time.monotonic()

import json  # noqa: E402  (after the stamp: not part of set-up)

if "--facts" not in sys.argv[2:]:
    print(json.dumps({"setup_done": setup_done}))
    sys.exit(0)

import numpy as np  # noqa: E402

from wignerlss import sample  # noqa: E402
from workloads import checked_replicas  # noqa: E402


def profile_facts(S: np.ndarray) -> dict:
    N = S.shape[0]
    errors = []
    if not np.array_equal(S, S.T):
        errors.append("S is not symmetric")
    row_err = float(np.max(np.abs(S.sum(axis=1) - 1.0)))
    if row_err > 1e-10:
        errors.append(f"row sums deviate by {row_err:.3g}")
    d = np.diag(S)
    return {"N": N, "tr_S2": float(np.sum(S * S)), "diag_sq": float(np.sum(d * d)),
            "max_diag_N": float(N * d.max()), "profile_errors": errors}


def max_ratios(eigs: np.ndarray, kappa: float, grid_size: int) -> list:
    """sup Re L, sup Im L, sup -Im L over the bulk grid at eta = 0, over sqrt(2) log N."""
    N = eigs.size
    grid = np.linspace(-(2.0 - kappa), 2.0 - kappa, grid_size)
    grid = np.where(np.isin(grid, eigs), grid + 1e-9, grid)
    re = np.log(np.abs(grid[:, None] - eigs[None, :])).sum(axis=1) - N * (grid ** 2 / 4.0 - 0.5)
    cdf = 0.5 + grid * np.sqrt(4.0 - grid ** 2) / (4.0 * np.pi) + np.arcsin(grid / 2.0) / np.pi
    above = np.count_nonzero(eigs[None, :] > grid[:, None], axis=1)
    im = np.pi * (above - N * (1.0 - cdf))
    denom = np.sqrt(2.0) * np.log(N)
    return [float(re.max() / denom), float(im.max() / denom), float((-im).max() / denom)]


facts = profile_facts(spec.profile.S)
run = cfg.get("run", {})
if "maxfield" in run:
    m = run["maxfield"]
    facts["ratios"] = {
        str(r): max_ratios(np.linalg.eigvalsh(sample(spec, (run["master_seed"], r))),
                           m["kappa"], m["grid"])
        for r in checked_replicas(cfg)
    }
print(json.dumps({"setup_done": setup_done, "facts": facts}))
