"""Traced CLI run and the per-layer metrics derived from its spans.

    python3 tracecli.py SPANS.json <wignerlss CLI arguments>

runs one `wignerlss` command in this process with a span recorded around each public
function named in TRACED. The program is not edited: each function is replaced, in every
wignerlss module namespace that holds it, by a wrapper, which catches both `module.f`
lookups and names bound by `from .x import f`. Spans stay in memory and are written to
SPANS.json when the command ends; the exit code is the command's.

A span's parent is the innermost open span on its thread. Replica spans on pool threads
take the innermost open span of the main thread, which is blocked in the replica loop.
The parent process (run.py) imports this module for `layer_metrics` only.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, function) -> span name. Besides the per-layer targets, the library calls the
# CLI makes directly (from_name, cumulant_summary) are traced so that cli.self_ms excludes them.
TRACED = {
    ("profile", "profile_from_descriptor"): "profile.build",
    ("profile", "resolvent_trace"): "profile.resolvent_trace",
    ("testfn", "from_name"): "testfn.from_name",
    ("testfn", "cheb_coeffs"): "testfn.cheb_coeffs",
    ("semicircle", "log_potential"): "semicircle.log_potential",
    ("semicircle", "integrate_rho_sc"): "semicircle.integrate_rho_sc",
    ("ensemble", "sample"): "ensemble.sample",
    ("ensemble", "cumulant_summary"): "ensemble.cumulant_summary",
    ("spectral", "eigenvalues"): "spectral.eigenvalues",
    ("spectral", "lss"): "spectral.lss",
    ("spectral", "log_char_field"): "spectral.log_char_field",
    ("functionals", "clt_prediction"): "functionals.clt_prediction",
    ("functionals", "variance_integral"): "functionals.variance_integral",
    ("functionals", "mean_correction"): "functionals.mean_correction",
    ("harness", "run_ensemble"): "harness.replicas",
    ("harness", "max_field_experiment"): "harness.replicas",
    ("harness", "compare"): "harness.compare",
}
_ROOT = "cli.main"
_FLOOR_MATRICES = 2      # sampled matrices kept for the bare-eigvalsh reference, per thread
_FLOOR_MIN_S = 0.25      # the reference repeats them until it has run this long


class Recorder:
    """Spans as [id, parent, name, start, end, cpu seconds]; perf_counter seconds."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, cpu: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time() if cpu else 0.0
                stack.pop()
                self.spans.append([sid, parent, name, t0, t1, c1 - c0])
        return traced


def _install(recorder: Recorder, matrices: list, keep: int) -> None:
    import wignerlss

    modules = [m for n, m in sys.modules.items() if n.startswith("wignerlss.")]
    for (mod, func), name in TRACED.items():
        original = getattr(sys.modules[f"wignerlss.{mod}"], func)
        wrapped = recorder.span(name, original, cpu=name == "harness.replicas")
        if name == "spectral.eigenvalues":
            inner = wrapped

            def wrapped(H, *args, _inner=inner, **kwargs):
                if len(matrices) < keep:
                    matrices.append(H)
                return _inner(H, *args, **kwargs)

        for m in modules + [wignerlss]:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)


def _floor(matrices: list, threads: int) -> list:
    """Seconds per bare numpy eigvalsh on sampled matrices, `threads` at a time, as in the run."""
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    def solve(H):
        t0 = time.perf_counter()
        np.linalg.eigvalsh(H)
        return time.perf_counter() - t0

    out = []
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        while not out or (time.perf_counter() - start < _FLOOR_MIN_S and len(out) < 64):
            out += list(pool.map(solve, matrices))
    return out


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from wignerlss import cli
    import_s = time.perf_counter() - t0

    threads = cli.build_parser().parse_args(cli_args).threads
    recorder = Recorder()
    matrices = []
    _install(recorder, matrices, _FLOOR_MATRICES * max(threads, 1))
    main_span = recorder.span(_ROOT, cli.main)
    try:
        code = main_span(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    floor = _floor(matrices, max(threads, 1)) if matrices else []
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": recorder.spans, "floor_s": floor}, fh)
    return code


# ---- analysis, in the parent process ----

PER_LAYER = [
    ("cli.import_ms", "ms"), ("cli.self_ms", "ms"),
    ("profile.build_ms", "ms"), ("profile.resolvent_trace_ms", "ms"),
    ("testfn.cheb_coeffs_ms", "ms"), ("testfn.cheb_coeffs_calls", "count"),
    ("semicircle.log_potential_ms", "ms"), ("semicircle.integrate_rho_sc_calls", "count"),
    ("ensemble.sample_ms", "ms"), ("ensemble.sample_calls", "count"),
    ("spectral.eigenvalues_ms", "ms"), ("spectral.eigvalsh_floor_ms", "ms"),
    ("spectral.eigenvalues_overhead_ms", "ms"), ("spectral.lss_ms", "ms"),
    ("spectral.log_char_field_ms", "ms"),
    ("functionals.clt_prediction_ms", "ms"), ("functionals.variance_integral_ms", "ms"),
    ("functionals.variance_integral_calls", "count"), ("functionals.mean_correction_ms", "ms"),
    ("harness.replica_ms", "ms"), ("harness.self_ms_per_replica", "ms"),
    ("harness.cpu_per_wall", "ratio"), ("harness.compare_ms", "ms"),
]
# per-call medians: metric -> span name
_PER_CALL = {
    "profile.build_ms": "profile.build",
    "profile.resolvent_trace_ms": "profile.resolvent_trace",
    "testfn.cheb_coeffs_ms": "testfn.cheb_coeffs",
    "semicircle.log_potential_ms": "semicircle.log_potential",
    "ensemble.sample_ms": "ensemble.sample",
    "spectral.eigenvalues_ms": "spectral.eigenvalues",
    "spectral.lss_ms": "spectral.lss",
    "spectral.log_char_field_ms": "spectral.log_char_field",
    "functionals.clt_prediction_ms": "functionals.clt_prediction",
    "functionals.variance_integral_ms": "functionals.variance_integral",
    "functionals.mean_correction_ms": "functionals.mean_correction",
    "harness.compare_ms": "harness.compare",
}
# calls per command: metric -> span name
_COUNTS = {
    "testfn.cheb_coeffs_calls": "testfn.cheb_coeffs",
    "semicircle.integrate_rho_sc_calls": "semicircle.integrate_rho_sc",
    "ensemble.sample_calls": "ensemble.sample",
    "functionals.variance_integral_calls": "functionals.variance_integral",
}


def covered(interval: tuple, children: list) -> float:
    """Length of the part of `interval` that the union of the child intervals covers."""
    lo, hi = interval
    total, reach = 0.0, lo
    for a, b in sorted(children):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(span: list, children: dict) -> float:
    return (span[4] - span[3]) - covered((span[3], span[4]), children.get(span[0], []))


def _median(values: list) -> float:
    import statistics

    return float(statistics.median(values)) if values else 0.0


def layer_metrics(docs: list) -> dict:
    """Per-layer metrics over the traced commands of one run (one SPANS.json doc each).

    Times are medians per call over all calls, in ms; counts are calls per command. A layer
    the workload never reaches reads 0.
    """
    calls = {name: [] for name in _PER_CALL.values()}
    counts = {metric: [] for metric in _COUNTS}
    per_cmd = {"cli.import_ms": [], "cli.self_ms": [], "harness.replica_ms": [],
               "harness.self_ms_per_replica": [], "harness.cpu_per_wall": []}
    floor = []
    for doc in docs:
        spans = doc["spans"]
        children = {}
        for s in spans:
            children.setdefault(s[1], []).append((s[3], s[4]))
        for s in spans:
            if s[2] in calls:
                calls[s[2]].append(s[4] - s[3])
        for metric, name in _COUNTS.items():
            counts[metric].append(sum(1 for s in spans if s[2] == name))
        per_cmd["cli.import_ms"].append(doc["import_s"] * 1e3)
        for s in spans:
            if s[2] == _ROOT:
                per_cmd["cli.self_ms"].append(self_time(s, children) * 1e3)
            elif s[2] == "harness.replicas":
                replicas = sum(1 for c in spans if c[1] == s[0] and c[2] == "ensemble.sample")
                wall = s[4] - s[3]
                per_cmd["harness.replica_ms"].append(wall / replicas * 1e3)
                per_cmd["harness.self_ms_per_replica"].append(
                    self_time(s, children) / replicas * 1e3)
                per_cmd["harness.cpu_per_wall"].append(s[5] / wall)
        floor += doc["floor_s"]
    out = {metric: _median(calls[name]) * 1e3 for metric, name in _PER_CALL.items()}
    out.update({metric: _median(v) for metric, v in per_cmd.items()})
    out.update({metric: max(v, default=0) for metric, v in counts.items()})
    out["spectral.eigvalsh_floor_ms"] = _median(floor) * 1e3
    out["spectral.eigenvalues_overhead_ms"] = (
        out["spectral.eigenvalues_ms"] - out["spectral.eigvalsh_floor_ms"] if floor else 0.0)
    return {name: out[name] for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
