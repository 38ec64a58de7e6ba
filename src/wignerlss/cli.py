"""Batch front end: predict functionals, run simulations, verify predictions, max-field experiment, profile tools."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ensemble as en
from . import functionals as fl
from . import harness as hn
from . import profile as pf
from . import testfn as tf
from .errors import ConfigError, NumericalError

_QUICK_N = 200
_QUICK_REPLICAS = 20
_QUICK_GRID = 400

_TOP_KEYS = {"ensemble", "testfn", "run", "profile", "output"}
_ENSEMBLE_KEYS = {"beta", "profile", "offdiag", "diag"}
_PROFILE_KEYS = {"type", "N", "params", "seed"}
_PROFILE_PARAM_KEYS = {"flat": set(), "band": {"W"}, "random": {"roughness"}, "csv": {"path"}}
_ENTRY_KEYS = {"family", "p"}
_RUN_KEYS = {"replicas", "master_seed", "lambda_grid", "maxfield", "rigidity"}
_MAXFIELD_KEYS = {"kappa", "grid"}
_OUTPUT_KEYS = {"dir"}


def _need_mapping(obj, ctx: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, allowed: set, ctx: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(f"unknown keys in {ctx}: {', '.join(map(repr, extra))}")


def load_config(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    if p.suffix == ".json":
        parse, parse_error = json.loads, json.JSONDecodeError
    else:
        import yaml  # only here: a JSON config never pays for PyYAML's import

        parse, parse_error = yaml.safe_load, yaml.YAMLError
    try:
        cfg = parse(text)
    except parse_error as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from exc
    cfg = _need_mapping(cfg, str(p))
    _check_keys(cfg, _TOP_KEYS, "config")
    return cfg


def _integer(value, key: str) -> int:
    """value as an int by profile._whole's rule: no fractional part, and not a bool."""
    try:
        return pf._whole(value, key)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _require(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigError(f"config needs a {key!r} section")
    return cfg[key]


def _profile_from_config(d, quick: bool) -> pf.VarianceProfile:
    d = dict(_need_mapping(d, "profile"))
    _check_keys(d, _PROFILE_KEYS, "profile")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in _PROFILE_PARAM_KEYS:
        raise ConfigError(f"profile.type must be one of {sorted(_PROFILE_PARAM_KEYS)}, got {kind!r}")
    params = _need_mapping(d.get("params", {}), "profile.params")
    _check_keys(params, _PROFILE_PARAM_KEYS[kind], f"profile.params ({kind})")
    if kind != "csv" and "N" not in d:
        raise ConfigError(f"profile.N is required for type {kind!r}")
    if kind == "random" and "seed" not in d:
        raise ConfigError("profile.seed is required for type 'random'")
    try:
        if kind != "csv":
            N = _integer(d["N"], "profile.N")
            d["N"] = min(N, _QUICK_N) if quick else N
        if kind == "band":
            _integer(params.get("W"), "profile.params.W")
        if kind == "random":
            _integer(d["seed"], "profile.seed")
        return pf.profile_from_descriptor(d)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"bad profile: {exc}") from exc


def _entry_from_config(v, ctx: str) -> en.EntryDistribution:
    if isinstance(v, dict):
        _check_keys(v, _ENTRY_KEYS, ctx)
    try:
        return en.entry_from_config(v)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {ctx}: {exc}") from exc


def _ensemble_from_config(d, quick: bool) -> en.EnsembleSpec:
    d = _need_mapping(d, "ensemble")
    _check_keys(d, _ENSEMBLE_KEYS, "ensemble")
    beta = _integer(d.get("beta", 1), "ensemble.beta")
    if beta not in (1, 2):
        raise ConfigError(f"ensemble.beta must be 1 or 2, got {beta!r}")
    profile = _profile_from_config(_require(d, "profile"), quick)
    off = _entry_from_config(d.get("offdiag", "gaussian"), "ensemble.offdiag")
    diag = _entry_from_config(d.get("diag", "gaussian"), "ensemble.diag")
    try:
        return en.EnsembleSpec(beta, profile, off, diag)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _testfn_from_config(v) -> tf.TestFunction:
    try:
        return tf.from_name(v)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad testfn: {exc}") from exc


def _run_section(cfg: dict) -> dict:
    d = _need_mapping(_require(cfg, "run"), "run")
    _check_keys(d, _RUN_KEYS, "run")
    return d


def _replicas_and_seed(d: dict, args, default=None) -> tuple:
    """Replica count and master seed: flags over the run section, replicas capped by --quick;
    ranges are the harness's."""
    replicas = args.replicas if args.replicas is not None else d.get("replicas", default)
    if replicas is None:
        raise ConfigError("run.replicas is required (or pass --replicas)")
    replicas = _integer(replicas, "run.replicas")
    seed = args.seed if args.seed is not None else _integer(d.get("master_seed", 0), "run.master_seed")
    if args.quick:
        replicas = min(replicas, _QUICK_REPLICAS)
    return replicas, seed


def _maxfield_from_config(m, quick: bool) -> tuple:
    """(kappa, grid size) from run.maxfield, the grid capped by --quick; ranges are the harness's."""
    m = _need_mapping(m, "run.maxfield")
    _check_keys(m, _MAXFIELD_KEYS, "run.maxfield")
    if "kappa" not in m or "grid" not in m:
        raise ConfigError("run.maxfield needs kappa and grid")
    grid = _integer(m["grid"], "run.maxfield.grid")
    return m["kappa"], min(grid, _QUICK_GRID) if quick else grid


def _run_config(cfg: dict, spec: en.EnsembleSpec, f: tf.TestFunction, args) -> hn.RunConfig:
    d = _run_section(cfg)
    replicas, seed = _replicas_and_seed(d, args)
    maxfield = None if d.get("maxfield") is None else _maxfield_from_config(d["maxfield"], args.quick)
    try:
        return hn.RunConfig(spec=spec, f=f, replicas=replicas, master_seed=seed, maxfield=maxfield,
                            **{k: d[k] for k in ("lambda_grid", "rigidity") if k in d})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run section: {exc}") from exc


def _outdir(args, cfg: dict) -> Path:
    out = args.out
    if out is None and "output" in cfg:
        section = _need_mapping(cfg["output"], "output")
        _check_keys(section, _OUTPUT_KEYS, "output")
        out = section.get("dir")
    path = Path(out) if out is not None else Path(".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _warn_lambda_window(rc: hn.RunConfig) -> None:
    win = hn.lambda_window(rc.spec.N)
    outside = [lam for lam in rc.lambda_grid if abs(lam) > win]
    if outside:
        print(f"warning: lambda values {outside} exceed the trusted window "
              f"|lambda| <= {win:.3g} at N = {rc.spec.N}", file=sys.stderr)


def _warn_prediction(pred: fl.CltPrediction, profile: pf.VarianceProfile) -> None:
    if pred.truncated:
        print(f"warning: the Chebyshev series stopped at J = {pred.J}, the cap, before its "
              "last decade of coefficients was negligible", file=sys.stderr)
    if not pred.paths_agree:
        print("warning: variance routes disagree: V = {!r}, V_integral = {!r} (on {} nodes)".format(
              pred.variance, pred.integral_variance, fl.integral_nodes(profile, pred.J)), file=sys.stderr)


def _emit(obj: dict, path=None) -> None:
    text = json.dumps(obj, sort_keys=True)
    if path is not None:
        path.write_text(text + "\n")
    print(text)


def _progress(done: int, total: int) -> None:
    step = max(1, total // 10)
    if done == total or done % step == 0:
        print(f"replicas {done}/{total}", file=sys.stderr)


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    spec = _ensemble_from_config(_require(cfg, "ensemble"), args.quick)
    f = _testfn_from_config(_require(cfg, "testfn"))
    summary = en.cumulant_summary(spec)
    try:
        pred = fl.clt_prediction(f, spec.profile, summary, spec.beta)
    except ValueError as exc:   # f is not finite at a quadrature node or a spectral edge
        raise ConfigError(f"bad testfn: {exc}") from exc
    _warn_prediction(pred, spec.profile)
    written = args.out is not None or "output" in cfg
    _emit(pred.to_dict(), _outdir(args, cfg) / "prediction.json" if written else None)
    return 0


def _simulate(args, verify: bool = False):
    cfg = load_config(args.config)
    spec = _ensemble_from_config(_require(cfg, "ensemble"), args.quick)
    f = _testfn_from_config(_require(cfg, "testfn"))
    rc = _run_config(cfg, spec, f, args)
    if verify and rc.replicas < 4:   # compare needs the k-statistics; checked before any draw
        raise ConfigError("verify needs run.replicas >= 4")
    _warn_lambda_window(rc)
    try:
        res = hn.run_ensemble(rc, threads=args.threads, progress=_progress)
    except ValueError as exc:   # from the prediction; a failing replica raises NumericalError
        raise ConfigError(f"bad testfn: {exc}") from exc
    _warn_prediction(res.prediction, spec.profile)
    return cfg, res


def cmd_simulate(args) -> int:
    cfg, res = _simulate(args)
    outdir = _outdir(args, cfg)
    hn.samples_to_csv(outdir / "samples.csv", res.lss_samples)
    summary = res.to_dict()
    del summary["lss_samples"]
    summary["samples_csv"] = "samples.csv"
    _emit(summary, outdir / "summary.json")
    return 0


def cmd_verify(args) -> int:
    cfg, res = _simulate(args, verify=True)
    report = hn.compare(res)
    full = res.to_dict()
    report.update({k: full[k] for k in ("prediction", "maxfield", "rigidity") if k in full})
    _emit(report, _outdir(args, cfg) / "report.json")
    return 0 if report["overall_pass"] else 1


def cmd_maxpoly(args) -> int:
    cfg = load_config(args.config)
    spec = _ensemble_from_config(_require(cfg, "ensemble"), args.quick)
    d = _run_section(cfg)
    if d.get("maxfield") is None:
        raise ConfigError("maxpoly needs a run.maxfield section")
    kappa, grid = _maxfield_from_config(d["maxfield"], args.quick)
    replicas, seed = _replicas_and_seed(d, args, default=20)
    try:
        out = hn.max_field_experiment(spec, kappa, grid, replicas, master_seed=seed,
                                      threads=args.threads, progress=_progress)
    except ValueError as exc:   # argument ranges; a failing replica raises NumericalError
        raise ConfigError(f"bad run section: {exc}") from exc
    for r, e in out["collisions"]:
        print(f"collision: replica {r} grid point {e!r} nudged by 1e-9", file=sys.stderr)
    outdir = _outdir(args, cfg)
    rows = np.column_stack([out["re_ratio"], out["im_plus_ratio"], out["im_minus_ratio"]])
    np.savetxt(outdir / "ratios.csv", rows, delimiter=",", fmt="%.17g",
               header="re_ratio,im_plus_ratio,im_minus_ratio", comments="")
    summary = {
        "replicas": replicas,
        "median_re": float(np.median(out["re_ratio"])),
        "median_im_plus": float(np.median(out["im_plus_ratio"])),
        "median_im_minus": float(np.median(out["im_minus_ratio"])),
        "collisions": len(out["collisions"]),
        "ratios_csv": "ratios.csv",
    }
    _emit(summary, outdir / "maxpoly.json")
    return 0


def cmd_profile(args) -> int:
    cfg = load_config(args.config)
    p = _profile_from_config(_require(cfg, "profile"), args.quick)
    checks = {k: float(v) for k, v in pf.validate(p).items()}
    outdir = _outdir(args, cfg)
    pf.profile_to_csv(p, outdir / "profile.csv")
    summary = {"descriptor": p.descriptor, "checks": checks, "matrix_csv": "profile.csv"}
    _emit(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wignerlss",
        description="CLT functionals and Monte Carlo experiments for generalized Wigner spectra",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    handlers = {
        "predict": (cmd_predict, "compute (V, E, B) for a config"),
        "simulate": (cmd_simulate, "Monte Carlo run: LSS samples + summary"),
        "verify": (cmd_verify, "simulate and compare against the prediction"),
        "maxpoly": (cmd_maxpoly, "max of the log characteristic polynomial over the bulk"),
        "profile": (cmd_profile, "construct and inspect a variance profile"),
    }
    for name, (func, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML or JSON experiment file")
        p.add_argument("--seed", type=int, default=None, help="override the file master seed")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quick", action="store_true", help="cap N, replicas, and grids")
        p.add_argument("--replicas", type=int, default=None, help="override run.replicas")
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
