"""Benchmark of the wignerlss CLI: one fresh process per command, as a user runs it.

    python3 wlbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout: the program is imported from ./src. A run repeats
whole rounds until another round would overrun S seconds. A round is one operation:
the workload's command on a config generated from --seed, then a set-up probe
(probe.py), then the checks on the command's outputs. The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: with --trace 0 the medians of
wall_s, setup_s, cpu_s and peak_rss_mb over the round's commands and probes; with --trace 1
the per-layer metrics of tracecli.py from commands run under its tracer. --smoke runs the
same paths at toy sizes. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracecli
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = ".wlbench_out"
RUN_LIMIT_S = 170.0   # a run must end within 180 s; commands are killed past this


def child_env(root: Path) -> dict:
    """The user's environment, with the checkout's sources first on the path.

    Bytecode is cached under the checkout, so no import compiles after the warm-up and
    nothing is written outside it. Thread variables are passed through untouched.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONPYCACHEPREFIX"] = str(root / OUT_DIR / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list, env: dict, log: Path, deadline: float):
    """Run argv to completion; returns (exit code, wall s, CPU s, peak RSS MB, start stamp).

    wait4 gives the child's own rusage. A process still running at `deadline`
    (time.monotonic) is killed and reported as exit code -9.
    """
    with open(log.with_suffix(".out"), "w") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, start


def probe(cfg_path: Path, env: dict, log: Path, deadline: float, facts: bool = False):
    """Run probe.py; returns (its JSON line or None if it failed, spawn stamp)."""
    argv = [sys.executable, str(HERE / "probe.py"), str(cfg_path)] + (["--facts"] if facts else [])
    code, _, _, _, start = spawn(argv, env, log, deadline)
    if code != 0:
        return None, start
    return json.loads(log.with_suffix(".out").read_text().splitlines()[-1]), start


def run_round(k: int, name: str, cfg_path: Path, cfg: dict, facts: dict, rundir: Path,
              env: dict, trace: bool, deadline: float) -> dict:
    wl = workloads.WORKLOADS[name]
    outdir = rundir / f"out{k}"
    cli_args = [wl["command"], "--config", str(cfg_path), "--threads", str(wl["threads"]),
                "--out", str(outdir)]
    spans = rundir / f"spans{k}.json"
    if trace:
        argv = [sys.executable, str(HERE / "tracecli.py"), str(spans)] + cli_args
    else:
        argv = [sys.executable, "-m", "wignerlss.cli"] + cli_args
    code, wall, cpu, rss, _ = spawn(argv, env, rundir / f"cmd{k}", deadline)
    row = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}

    stamp, start = probe(cfg_path, env, rundir / f"probe{k}", deadline)
    if stamp is None or facts is None:
        row["errors"] = ["set-up probe failed"]
        return row
    row["setup_s"] = stamp["setup_done"] - start
    try:
        row["errors"] = workloads.check(name, cfg, outdir, code, facts)
        row["wrong"] = code == 0 and bool(row["errors"])
        if trace and code == 0:
            row["spans"] = json.loads(spans.read_text())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        row["errors"] = [f"unreadable output: {exc!r}"]
    return row


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            root: Path) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rundir = root / OUT_DIR / f"{name}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.make_config(name, seed, smoke)
    cfg_path = rundir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    env = child_env(root)

    # not measured: caches bytecode, pages in numpy and scipy, and computes the facts
    # (from the config alone) that every round's checks compare against
    facts = probe(cfg_path, env, rundir / "facts", deadline, facts=True)[0]
    facts = facts and facts["facts"]

    rows = []
    t0 = time.monotonic()
    while True:
        rows.append(run_round(len(rows), name, cfg_path, cfg, facts, rundir, env, trace,
                              deadline))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(rows) > seconds or time.monotonic() > deadline:
            break

    failed = [r for r in rows if r["errors"]]
    for k, r in enumerate(rows):
        print(f"round {k}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, setup {r.get('setup_s', float('nan')):.3f} s"
              + (f", FAILED: {'; '.join(r['errors'])}" if r["errors"] else ""), file=sys.stderr)
    if failed:
        print(f"outputs kept in {rundir}", file=sys.stderr)
    else:
        shutil.rmtree(rundir)

    good = [r for r in rows if not r["errors"]]
    if trace:
        values = tracecli.layer_metrics([r["spans"] for r in good])
        units = dict(tracecli.PER_LAYER)
    else:
        values = {key: statistics.median(r[key] for r in good) if good else 0.0
                  for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
        units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    return {
        # a command that exits 0 with wrong outputs is incorrect; a non-zero exit only fails
        "correct": not any(r.get("wrong") for r in rows),
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {key: {"value": v, "unit": units[key]} for key, v in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes: every path in seconds")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "wignerlss" / "cli.py").is_file():
        print(f"error: {root} is not a wignerlss checkout (no src/wignerlss/cli.py)",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
