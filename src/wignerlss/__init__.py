"""Deterministic CLT functionals for linear spectral statistics of generalized Wigner
matrices, with a seeded Monte Carlo harness to verify them.

Layers: semicircle (closed forms), testfn (Chebyshev expansions), profile (variance
profiles S), ensemble (entry distributions and sampling), functionals (V, E, B and the
log-field kernels), spectral (per-sample quantities), harness (replica orchestration),
cli (batch front end). The top level exports the names of the README quick start and the
config builders; everything else is imported from its layer module, e.g.
`from wignerlss import spectral`.
"""

import os

# OpenBLAS reads this once, when numpy loads it. Its idle worker threads then spin 2^20
# cycles (about 0.4 ms) before they sleep, in place of the default 2^28 (about 0.1 s of a
# core after every threaded call). A much shorter spin would put them to sleep between the
# many BLAS calls of one threaded eigensolve, and waking them costs wall time. A value the
# user has set is kept.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .errors import ConfigError, NumericalError
from .testfn import from_name
from .profile import profile_flat, profile_from_descriptor
from .ensemble import EnsembleSpec, cumulant_summary, entry_from_config, gaussian, sample, two_point
from .functionals import clt_prediction
from .harness import RunConfig, compare, run_ensemble

__version__ = "0.1.0"

__all__ = [
    "EnsembleSpec", "RunConfig", "clt_prediction", "compare", "cumulant_summary",
    "gaussian", "profile_flat", "run_ensemble", "two_point", "from_name",
    "entry_from_config", "profile_from_descriptor", "sample",
    "ConfigError", "NumericalError", "__version__",
]
