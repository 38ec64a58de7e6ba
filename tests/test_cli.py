import ctypes
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from wignerlss import cli
from wignerlss import functionals as fl
from wignerlss import harness as hn
from wignerlss import spectral as sp
from wignerlss.semicircle import gauss_cheb_nodes


def write_config(tmp_path, text, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


BASE = """
ensemble:
  beta: 1
  profile: {type: flat, N: 10}
  offdiag: {family: gaussian}
  diag: gaussian
testfn: x2
run:
  replicas: 2
  master_seed: 11
  lambda_grid: [0.0, 0.5]
"""


def test_simulate_smoke(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    samples = (out / "samples.csv").read_text().splitlines()
    assert samples[0] == "lss"
    assert len(samples) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples_csv"] == "samples.csv"
    assert summary["config"]["replicas"] == 2
    assert "lss_samples" not in summary
    assert json.loads(capsys.readouterr().out) == summary


def test_simulate_byte_determinism(tmp_path, capsys):
    # x2 takes the trace route; the Gaussian bump solves for each spectrum
    for testfn in ("x2", "gauss(0.3,0.7)"):
        cfg = write_config(tmp_path, BASE.replace("testfn: x2", f"testfn: {testfn}"))
        blobs = []
        outs = []
        for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / testfn / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                             "--threads", threads]) == 0
            outs.append(capsys.readouterr().out)
            blobs.append(((out / "samples.csv").read_bytes(),
                          (out / "summary.json").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2], testfn
        assert outs[0] == outs[1] == outs[2], testfn


def test_maxpoly_byte_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      beta: 2
      profile: {type: band, N: 60, params: {W: 10}}
    run:
      replicas: 6
      master_seed: 3
      maxfield: {kappa: 0.2, grid: 300}
    """)
    blobs = []
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        assert cli.main(["maxpoly", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        outs.append(capsys.readouterr().out)
        blobs.append(((out / "ratios.csv").read_bytes(), (out / "maxpoly.json").read_bytes()))
    assert blobs[0] == blobs[1] == blobs[2]
    assert outs[0] == outs[1] == outs[2]


def test_simulate_replicas_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path, BASE)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["simulate", "--config", cfg, "--out", str(a), "--replicas", "5"]) == 0
    assert len((a / "samples.csv").read_text().splitlines()) == 6
    assert cli.main(["simulate", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(c)]) == 0
    assert (b / "samples.csv").read_bytes() != (c / "samples.csv").read_bytes()
    assert json.loads((b / "summary.json").read_text())["config"]["master_seed"] == 99


def test_predict_flat_x(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 25}
    testfn: x
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"] == pytest.approx(1.0, abs=1e-10)
    assert out["paths_agree"] is True
    assert out["V_integral"] == pytest.approx(1.0, abs=1e-6)
    assert set(out) == {"V", "E", "B", "beta", "J", "tail_estimate", "paths_agree", "V_integral"}


def test_predict_flat_x2(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      beta: 1
      profile: {type: flat, N: 50}
    testfn: x2
    output: {dir: OUTDIR}
    """.replace("OUTDIR", str(tmp_path / "res")))
    assert cli.main(["predict", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"] == pytest.approx(4.0, abs=1e-9)
    assert out["E"] == pytest.approx(0.0, abs=1e-10)
    on_disk = json.loads((tmp_path / "res" / "prediction.json").read_text())
    assert on_disk == out


def test_predict_band_small_gap_mean_shift(tmp_path, capsys):
    # band(1000, 3) has gap 1.1e-3. For x^2, E = 0 exactly and the series V is 4 tr S^2
    cfg = write_config(tmp_path, """
    ensemble:
      beta: 1
      profile: {type: band, N: 1000, params: {W: 3}}
    testfn: x2
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["E"]) <= 1e-9
    S2 = (1.0 - 1e-3) ** 2 / 7.0 + (2.0 - 1e-3) * 1e-3 / 1000.0  # row of S dotted with itself
    assert out["V"] == pytest.approx(4.0 * 1000 * S2, rel=1e-10)


def test_predict_band_small_gap_paths_agree(tmp_path, capsys):
    # K2's node count follows the gap 1.1e-3 (M = 14,831); at a fixed 400 nodes V_integral
    # was 57,603 against V = 570.29
    cfg = write_config(tmp_path, """
    ensemble:
      beta: 1
      profile: {type: band, N: 1000, params: {W: 3}}
    testfn: x2
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["paths_agree"] is True
    assert abs(out["V_integral"] - out["V"]) <= 1e-9 * out["V"]
    assert "warning" not in captured.err


CAPPED = """
ensemble:
  profile: {type: flat, N: 20}
testfn: logre(0,0.001)
run: {replicas: 4}
"""
CAP_WARNING = ("warning: the Chebyshev series stopped at J = 2048, the cap, before its last "
               "decade of coefficients was negligible")


def test_predict_warns_when_routes_disagree(tmp_path, capsys):
    # logre(0, 0.001): the series stops at J_CAP short of V, and the routes really disagree;
    # predict warns about both and still exits 0
    cfg = write_config(tmp_path, CAPPED)
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["paths_agree"] is False
    lines = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(lines) == 2, captured.err
    assert lines[0] == CAP_WARNING
    assert repr(out["V"]) in lines[1] and repr(out["V_integral"]) in lines[1]
    assert out["J"] == 2048 and "(on 4096 nodes)" in lines[1]
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 20}
    testfn: x2
    """, "x2.yaml")
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["paths_agree"] is True
    assert captured.err == ""


@pytest.mark.parametrize("command", ["predict", "simulate", "verify"])
def test_series_stopped_at_the_cap_warns_once(tmp_path, capsys, command):
    # the warnings go to stderr only: stdout and the output files keep their bytes. Every
    # command checks both variance routes, which disagree for logre(0, 0.001), and says so
    out = {}
    for name, text in (("capped", CAPPED), ("x2", CAPPED.replace("logre(0,0.001)", "x2"))):
        cfg = write_config(tmp_path, text, f"{name}.yaml")
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path / name)])
        assert code == 0 or command == "verify"
        captured = capsys.readouterr()
        out[name] = json.loads(captured.out)
        pred = out[name] if command == "predict" else out[name]["prediction"]
        warned = [line for line in captured.err.splitlines() if "stopped at J" in line]
        assert warned == ([CAP_WARNING] if name == "capped" else []), captured.err
        disagree = [line for line in captured.err.splitlines() if "variance routes disagree" in line]
        assert len(disagree) == (name == "capped") and pred["paths_agree"] is (name != "capped")
        assert all(repr(pred["V_integral"]) in line for line in disagree), captured.err
    pred = out["capped"] if command == "predict" else out["capped"]["prediction"]
    assert pred["J"] == 2048 and "truncated" not in pred


def test_every_command_prints_one_prediction(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: band, N: 60, params: {W: 5}}
    testfn: gauss(0.3,0.7)
    run: {replicas: 4}
    """)
    preds = []
    for command, name in (("predict", "prediction.json"), ("simulate", "summary.json"),
                          ("verify", "report.json")):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
        capsys.readouterr()
        blob = json.loads((out / name).read_text())
        preds.append(blob if command == "predict" else blob["prediction"])
    assert preds[0] == preds[1] == preds[2]
    assert preds[0]["paths_agree"] is True and "V_integral" in preds[0]


@pytest.mark.parametrize("N, testfn", [(50, "cheb(800)"), (50, "cheb(1500)"), (20, "logre(0,0.01)")])
def test_predict_routes_agree_beyond_400_nodes(tmp_path, capsys, N, testfn):
    # the integral route runs on 2J nodes; on a fixed 400-node grid T_800 vanishes at every
    # node, T_1500 aliases, and logre(0, 0.01) is under-resolved. The routes agree, so the
    # one warning is logre(0, 0.01)'s: its mean-shift terms in the last decade are 3.3e-6
    # at J = 2048, so the series stops at the cap
    cfg = write_config(tmp_path, f"""
    ensemble:
      profile: {{type: flat, N: {N}}}
    testfn: {testfn}
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["paths_agree"] is True, out
    assert captured.err == (CAP_WARNING + "\n" if testfn.startswith("logre") else "")


def test_predict_cheb(tmp_path, capsys):
    # T_3 on a flat Gaussian profile: V = 3 t_3^2 tr S^3 / (2 beta) = 3/2 at beta = 1
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 40}
    testfn: cheb(3)
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["paths_agree"] is True
    assert out["V"] == pytest.approx(1.5, abs=1e-10)
    # the coefficient table stops at J = 2048, so T_2049 would alias to a V near 0, not 2049/2
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 50}
    testfn: cheb(2048)
    """, "cap.yaml")
    assert cli.main(["predict", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["V"] == pytest.approx(1024.0, abs=1e-9)
    for bad in ("cheb(2.5)", "cheb(-1)", "cheb(inf)", "cheb(2049)"):
        cfg = write_config(tmp_path, f"""
        ensemble:
          profile: {{type: flat, N: 10}}
        testfn: {bad}
        """, "bad.yaml")
        assert cli.main(["predict", "--config", cfg]) == 2
        assert "Chebyshev order" in capsys.readouterr().err


@pytest.mark.parametrize("bad, arg", [("gauss(0.3,nan)", "nan"), ("logre(inf,0.1)", "inf")])
def test_non_finite_testfn_arguments_are_config_errors_before_any_draw(tmp_path, capsys,
                                                                       monkeypatch, bad, arg):
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key, out=None: draws.append(key))
    cfg = write_config(tmp_path, BASE.replace("testfn: x2", f"testfn: {bad}"))
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    want = f"config error: bad testfn: test-function arguments must be finite, got {arg} in '{bad}'"
    assert want in err, err
    assert draws == [] and not (out / "samples.csv").exists()


@pytest.mark.parametrize("bad, key", [("[0.5, true]", "testfn[1]"), ("['0.5', 1]", "testfn[0]"),
                                      ("[1, .inf]", "testfn[1]")], ids=["bool", "text", "inf"])
@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_testfn_coefficients_take_only_finite_real_numbers(tmp_path, capsys, monkeypatch,
                                                           command, bad, key):
    # a coefficient list once ran "0.5" and true as numbers and blamed inf on the spectral edge
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, **kw: draws.append(k))
    cfg = write_config(tmp_path, BASE.replace("testfn: x2", f"testfn: {bad}"))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert f"config error: bad testfn: {key} must be a finite real number" in err, err
    assert draws == []


@pytest.mark.parametrize("family", ["gaussian", "rademacher", "uniform"])
def test_p_is_a_key_of_two_point_only(tmp_path, capsys, family):
    cfg = write_config(tmp_path, BASE.replace("offdiag: {family: gaussian}",
                                              f"offdiag: {{family: {family}, p: 0.9}}"))
    assert cli.main(["predict", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: unknown keys in ensemble.offdiag ({family}): 'p'" in err, err


@pytest.mark.parametrize("command", ["predict", "simulate", "verify", "maxpoly", "profile"])
@pytest.mark.parametrize("where", ["out-is-a-file", "dir-is-a-list"])
def test_unusable_output_directory_is_config_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                   command, where):
    # simulate --out naming a file once ran every replica and then exited 1 with a
    # FileExistsError traceback; output: {dir: [a]} did the same with a TypeError
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, **kw: draws.append(k))
    text = MAXPOLY.replace("replicas: 3", "replicas: 4") + "testfn: x2\nprofile: {type: flat, N: 10}\n"
    flags = []
    if where == "out-is-a-file":
        (tmp_path / "taken").write_text("")
        flags = ["--out", str(tmp_path / "taken")]
    else:
        text += "output: {dir: [a]}\n"
    cfg = write_config(tmp_path, text)
    assert cli.main([command, "--config", cfg] + flags) == 2
    captured = capsys.readouterr()
    assert "config error: bad output directory" in captured.err, captured.err
    assert draws == [] and captured.out == ""


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter: other tests import SciPy into this one
    cfg = write_config(tmp_path, BASE.replace("testfn: x2", "testfn: gauss(0.3,0.7)"))
    script = textwrap.dedent(f"""
        import sys
        from wignerlss import cli
        assert cli.main(["predict", "--config", {cfg!r}]) == 0
        assert cli.main(["simulate", "--config", {cfg!r}, "--out", {str(tmp_path / "out")!r},
                         "--replicas", "4"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    run = run_fresh_python(script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_json_config_does_not_import_yaml(tmp_path):
    # PyYAML is imported by load_config for a YAML config only
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"ensemble": {"profile": {"type": "flat", "N": 10}}, "testfn": "x2"}))
    script = textwrap.dedent(f"""
        import sys
        from wignerlss import cli
        print("yaml" in sys.modules)
        assert cli.main(["predict", "--config", {str(cfg)!r}]) == 0
        print("yaml" in sys.modules)
    """)
    run = run_fresh_python(script)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")


def run_fresh_python(script: str, **env_vars: Optional[str]) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports wignerlss from this checkout's src/, with
    env_vars added to the environment; a None value removes that variable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_spectral_outputs_do_not_depend_on_blas_threads(tmp_path):
    # N = 300 is large enough for OpenBLAS to split the solver's work across its threads;
    # predict solves the N = 1000 random profile, whose build calls the eigensolve directly
    maxpoly = write_config(tmp_path, """
    ensemble:
      beta: 2
      profile: {type: band, N: 300, params: {W: 20}}
    run: {replicas: 3, master_seed: 4, maxfield: {kappa: 0.2, grid: 300}}
    """, "maxpoly.yaml")
    simulate = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 300}
    testfn: gauss(0.3,0.7)
    run: {replicas: 3, master_seed: 4}
    """, "simulate.yaml")
    predict = write_config(tmp_path, """
    ensemble:
      profile: {type: random, N: 1000, seed: 1, params: {roughness: 0.5}}
      diag: {family: two_point, p: 0.1}
    testfn: x2
    """, "predict.yaml")
    blobs = {}
    for blas in ("1", "2"):
        out = tmp_path / blas
        script = textwrap.dedent(f"""
            from wignerlss import cli
            assert cli.main(["maxpoly", "--config", {maxpoly!r}, "--out", {str(out / "mp")!r}]) == 0
            assert cli.main(["simulate", "--config", {simulate!r}, "--out", {str(out / "sim")!r}]) == 0
            assert cli.main(["predict", "--config", {predict!r}, "--out", {str(out / "pred")!r}]) == 0
        """)
        run = run_fresh_python(script, OPENBLAS_NUM_THREADS=blas)
        assert run.returncode == 0, run.stderr
        blobs[blas] = ((out / "mp" / "ratios.csv").read_bytes(),
                       (out / "sim" / "samples.csv").read_bytes(),
                       (out / "pred" / "prediction.json").read_bytes())
    assert blobs["1"][0] == blobs["2"][0]
    assert blobs["1"][1] == blobs["2"][1]
    assert blobs["1"][2] == blobs["2"][2]


@pytest.mark.skipif(getattr(sp._OPENBLAS, "openblas_thread_timeout", None) is None,
                    reason="numpy's OpenBLAS exports no thread-timeout getter")
@pytest.mark.parametrize("preset, want", [(None, 20), ("24", 24)])
def test_import_shortens_openblas_idle_spin(preset, want):
    # this process may have set the variable already by importing wignerlss, so the child's
    # environment is built without it, or with the user's own value
    script = textwrap.dedent("""
        import ctypes, os
        import wignerlss
        from wignerlss import spectral
        getter = spectral._OPENBLAS.openblas_thread_timeout
        getter.argtypes, getter.restype = (), ctypes.c_int
        print(os.environ["OPENBLAS_THREAD_TIMEOUT"], getter())
    """)
    run = run_fresh_python(script, OPENBLAS_THREAD_TIMEOUT=preset)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str(want), str(want)]


def test_config_errors(tmp_path, capsys):
    bad_top = write_config(tmp_path, BASE + "bogus: 1\n", "t1.yaml")
    assert cli.main(["predict", "--config", bad_top]) == 2
    assert "bogus" in capsys.readouterr().err

    bad_profile = write_config(tmp_path, """
    ensemble:
      profile: {type: nosuch, N: 10}
    testfn: x
    """, "t2.yaml")
    assert cli.main(["predict", "--config", bad_profile]) == 2
    assert "profile.type" in capsys.readouterr().err

    bad_nested = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 10, W: 3}
    testfn: x
    """, "t3.yaml")
    assert cli.main(["predict", "--config", bad_nested]) == 2
    err = capsys.readouterr().err
    assert "unknown keys" in err and "W" in err

    bad_yaml = write_config(tmp_path, "ensemble: [unclosed\n", "t4.yaml")
    assert cli.main(["predict", "--config", bad_yaml]) == 2
    assert cli.main(["predict", "--config", str(tmp_path / "missing.yaml")]) == 2

    bad_run = write_config(tmp_path, BASE.replace("master_seed", "masterseed"), "t5.yaml")
    assert cli.main(["simulate", "--config", bad_run, "--out", str(tmp_path / "x")]) == 2
    assert "masterseed" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble, flags", [
    ("{profile: {type: [flat], N: 10}}", []),
    ("{profile: {type: flat, N: null}}", []),
    ("{profile: {type: flat, N: [3]}}", []),
    ("{profile: {type: flat, N: abc}}", ["--quick"]),
    ("{profile: {type: band, N: 20, params: {W: null}}}", []),
    ("{profile: {type: random, N: 20, seed: null}}", []),
    ("{profile: {type: random, N: 20, seed: 1, params: {roughness: null}}}", []),
    ("{profile: {type: flat, N: 10}, offdiag: 5}", []),
    ("{profile: {type: flat, N: 10}, diag: [gaussian]}", []),
    ("{profile: {type: random, N: 10, seed: -1}}", []),
    ("{profile: {type: csv, params: {path: ['0.5,0.5', '0.5,0.5']}}}", []),
], ids=["type-list", "N-null", "N-list", "N-text-quick", "band-W-null", "random-seed-null",
        "random-roughness-null", "offdiag-number", "diag-list", "random-seed-negative",
        "csv-path-list"])
def test_malformed_values_are_config_errors(tmp_path, capsys, ensemble, flags):
    cfg = write_config(tmp_path, f"ensemble: {ensemble}\ntestfn: x\n")
    assert cli.main(["predict", "--config", cfg] + flags) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("0.5,0.5,0.5\n0.5,0.5,0.5\n", "S must be square"),
    ("0.5,nan\n0.5,0.5\n", "S entries must be finite"),
], ids=["non-square", "nan"])
def test_csv_profile_faults_are_named(tmp_path, capsys, rows, message):
    path = tmp_path / "S.csv"
    path.write_text(rows)
    cfg = write_config(tmp_path, f"ensemble: {{profile: {{type: csv, params: {{path: '{path}'}}}}}}\n"
                                 "testfn: x\n")
    assert cli.main(["predict", "--config", cfg]) == 2
    assert f"config error: bad profile: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_two_point_p_with_non_finite_cumulants_is_config_error_before_any_draw(
        tmp_path, capsys, monkeypatch, command):
    # k4 = (1 - 6q^2)/q^2, q^2 = p(1 - p), overflows below p ~ 5e-309: once an exit 0 printing
    # "V": Infinity, which is not JSON
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, **kw: draws.append(k))
    cfg = write_config(tmp_path, BASE.replace("diag: gaussian", "diag: {family: two_point, p: 1.0e-320}"))
    out = tmp_path / "s"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: bad ensemble.diag: two_point p = 1e-320" in captured.err, captured.err
    assert draws == [] and captured.out == "" and not out.exists()


@pytest.mark.parametrize("profile, run, key", [
    ("{type: band, N: 60.7, params: {W: 4}}", "{replicas: 6}", "profile.N"),
    ("{type: flat, N: true}", "{replicas: 6}", "profile.N"),
    ("{type: band, N: 60, params: {W: 4.9}}", "{replicas: 6}", "profile.params.W"),
    ("{type: random, N: 20, seed: 1.5}", "{replicas: 6}", "profile.seed"),
    ("{type: flat, N: 20}", "{replicas: 6.9}", "run.replicas"),
    ("{type: flat, N: 20}", "{replicas: true}", "run.replicas"),
    ("{type: flat, N: 20}", "{replicas: 6, master_seed: 2.5}", "run.master_seed"),
    ("{type: flat, N: 20}", "{replicas: 6, maxfield: {kappa: 0.2, grid: 400.5}}", "run.maxfield.grid"),
], ids=["N-fraction", "N-bool", "W-fraction", "seed-fraction", "replicas-fraction",
        "replicas-bool", "master-seed-fraction", "grid-fraction"])
def test_non_integral_sizes_are_config_errors_before_any_draw(tmp_path, capsys, monkeypatch,
                                                             profile, run, key):
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, out=None: draws.append(k))
    cfg = write_config(tmp_path, f"ensemble:\n  profile: {profile}\ntestfn: x2\nrun: {run}\n")
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and f"{key} must be an integer" in err, err
    assert draws == [] and not (out / "samples.csv").exists()


def test_ensemble_beta_bool_is_config_error(tmp_path, capsys):
    # True == 1, so a bool passes a (1, 2) membership test; the integer rule rejects it
    cfg = write_config(tmp_path, BASE.replace("beta: 1", "beta: true"))
    assert cli.main(["predict", "--config", cfg]) == 2
    assert "config error: ensemble.beta must be an integer, got True" in capsys.readouterr().err


def test_integral_float_sizes_are_accepted(tmp_path, capsys):
    band = ("{type: band, N: %s, params: {W: %s}}\n"
            "run: {replicas: %s, master_seed: %s, maxfield: {kappa: 0.2, grid: %s}}")
    random = "{type: random, N: %s, seed: %s}\nrun: {replicas: %s, master_seed: %s}"
    for text, ints in ((band, (60, 4, 4, 3, 300)), (random, (20, 1, 4, 3))):
        blobs = []
        for values in (ints, tuple(float(v) for v in ints)):
            cfg = write_config(tmp_path, f"ensemble:\n  profile: {text % values}\ntestfn: x2\n")
            out = tmp_path / type(values[0]).__name__
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0, values
            blobs.append((out / "samples.csv").read_bytes() + (out / "summary.json").read_bytes())
        assert blobs[0] == blobs[1], text
    capsys.readouterr()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_config_error(tmp_path, capsys, threads):
    cfg = write_config(tmp_path, BASE.replace("N: 10", "N: 20"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "samples.csv").exists()


def test_json_config_accepted(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "ensemble": {"profile": {"type": "flat", "N": 20}},
        "testfn": "x",
    }))
    assert cli.main(["predict", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["V"] == pytest.approx(1.0, abs=1e-10)


def test_verify_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      beta: 1
      profile: {type: flat, N: 24}
    testfn: x
    run:
      replicas: 80
      master_seed: 4
      lambda_grid: [0.0, 0.25]
    """)
    code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert code == 0, report
    assert report["overall_pass"] is True
    assert report["variance"]["threshold"] == 4.0
    assert report["char"][0]["threshold"] > 0.0
    assert report["prediction"]["V"] == pytest.approx(1.0, abs=1e-10)
    assert json.loads((tmp_path / "v" / "report.json").read_text()) == report


def test_verify_reports_maxfield_and_rigidity(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 120}
    testfn: x
    run:
      replicas: 4
      master_seed: 3
      maxfield: {kappa: 0.2, grid: 150}
      rigidity: 0.1
    """)
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) in (0, 1)
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert len(report["maxfield"]["re_ratio"]) == 4
    assert all(v > 0.0 for v in report["maxfield"]["im_plus_ratio"])
    assert len(report["rigidity"]["max"]) == 4


def test_verify_fails_on_inflated_variance(tmp_path, capsys, monkeypatch):
    real = fl.clt_prediction

    def inflated(*args, **kwargs):
        p = real(*args, **kwargs)
        return fl.CltPrediction(variance=4.0 * p.variance, mean_shift=p.mean_shift,
                                cubic=p.cubic, beta=p.beta, J=p.J,
                                centering=p.centering, tail_estimate=p.tail_estimate,
                                paths_agree=p.paths_agree)

    monkeypatch.setattr(hn.fl, "clt_prediction", inflated)
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 30}
    testfn: x
    run: {replicas: 300, master_seed: 8}
    """)
    code = cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["overall_pass"] is False
    assert report["variance"]["z"] < -5.0


def test_verify_rejects_fewer_than_4_replicas_before_any_draw(tmp_path, capsys, monkeypatch):
    draws = []
    real = hn.en.sample

    def counted(spec, key, out=None):
        draws.append(key)
        return real(spec, key, out=out)

    monkeypatch.setattr(hn.en, "sample", counted)
    cfg = write_config(tmp_path, BASE.replace("replicas: 2", "replicas: 3"))
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "config error: verify needs run.replicas >= 4" in err
    assert draws == [] and "replicas 3/3" not in err, err


def test_empty_rigidity_window_is_config_error_before_any_draw(tmp_path, capsys, monkeypatch):
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key, out=None: draws.append(key))
    cfg = write_config(tmp_path, BASE.replace("N: 10", "N: 3").replace(
        "master_seed: 11", "master_seed: 11\n  rigidity: 0.4"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad run section: empty bulk window" in err, err
    assert draws == []


def test_maxpoly(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 120}
    testfn: x
    run:
      replicas: 3
      master_seed: 2
      maxfield: {kappa: 0.3, grid: 400}
    """)
    out = tmp_path / "m"
    assert cli.main(["maxpoly", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replicas"] == 3
    assert 0.0 < summary["median_re"] < 3.0
    rows = (out / "ratios.csv").read_text().splitlines()
    assert rows[0] == "re_ratio,im_plus_ratio,im_minus_ratio"
    assert len(rows) == 4
    assert json.loads((out / "maxpoly.json").read_text()) == summary


MAXPOLY = """
ensemble:
  profile: {type: flat, N: 40}
run:
  replicas: 3
  master_seed: 2
  maxfield: {kappa: 0.3, grid: 400}
"""


@pytest.mark.parametrize("maxfield", ["{kappa: 1.5, grid: 400}", "{kappa: 0.3, grid: 50}"])
def test_maxpoly_rejects_out_of_range_maxfield(tmp_path, capsys, maxfield):
    cfg = write_config(tmp_path, MAXPOLY.replace("{kappa: 0.3, grid: 400}", maxfield))
    assert cli.main(["maxpoly", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["maxpoly", "simulate"])
def test_maxfield_on_a_1x1_profile_is_config_error_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                   command):
    # the ratios divide by log N, which is 0 at N = 1: once an exit 0 with ratios of inf
    path = tmp_path / "S.csv"
    path.write_text("1.0\n")
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, **kw: draws.append(k))
    cfg = write_config(tmp_path, MAXPOLY.replace("{type: flat, N: 40}",
                                                 f"{{type: csv, params: {{path: '{path}'}}}}")
                       + "testfn: x2\n")
    out = tmp_path / "m"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error: bad run section: maxfield needs N >= 2" in captured.err, captured.err
    assert draws == [] and captured.out == "" and not out.exists()


REALS = """
ensemble:
  profile: {type: flat, N: 40}
  diag: {family: two_point, p: 0.1}
testfn: x2
run:
  replicas: 2
  lambda_grid: [0, 0.5]
  rigidity: 0.1
  maxfield: {kappa: 0.3, grid: 400}
"""


def test_yaml_exponent_literals_are_numbers(tmp_path, capsys):
    # PyYAML follows YAML 1.1, which reads 1e-1 and 2e1 as strings; they must give the bytes
    # of the same numbers in JSON, while a quoted '1e-1' stays a string
    yaml_cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 2e1}
      diag: {family: two_point, p: 1e-1}
    testfn: x2
    """)
    json_cfg = tmp_path / "exp.json"
    json_cfg.write_text(json.dumps({"ensemble": {"profile": {"type": "flat", "N": 20},
                                                 "diag": {"family": "two_point", "p": 0.1}},
                                    "testfn": "x2"}))
    for cfg, out in ((yaml_cfg, "y"), (str(json_cfg), "j")):
        assert cli.main(["predict", "--config", cfg, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "y" / "prediction.json").read_bytes() == (tmp_path / "j" / "prediction.json").read_bytes()
    capsys.readouterr()
    quoted = write_config(tmp_path, Path(yaml_cfg).read_text().replace("p: 1e-1", "p: '1e-1'"), "quoted.yaml")
    assert cli.main(["predict", "--config", quoted]) == 2
    assert "p must be a finite real number, got '1e-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command, good, bad, key", [
    ("simulate", "lambda_grid: [0, 0.5]", "lambda_grid: '12'", "lambda_grid"),
    ("simulate", "lambda_grid: [0, 0.5]", "lambda_grid: [true, 0.5]", "lambda_grid"),
    ("simulate", "rigidity: 0.1", "rigidity: '0.1'", "rigidity"),
    ("simulate", "kappa: 0.3", "kappa: '0.3'", "kappa"),
    ("maxpoly", "kappa: 0.3", "kappa: '0.3'", "kappa"),
    ("simulate", "p: 0.1", "p: '0.1'", "p must be"),
], ids=["lambda-text", "lambda-bool", "rigidity-text", "kappa-text", "maxpoly-kappa-text", "p-text"])
def test_real_valued_keys_take_only_real_numbers(tmp_path, capsys, monkeypatch, command, good, bad, key):
    # a string or a bool is not read as a number: "12" once ran as lambda = (1.0, 2.0)
    cfg = write_config(tmp_path, REALS)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()
    draws = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, k, **kw: draws.append(k))
    cfg = write_config(tmp_path, REALS.replace(good, bad), "bad.yaml")
    out = tmp_path / "bad"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err, err
    assert draws == [] and not out.exists()


def test_maxpoly_rejects_zero_replicas(tmp_path, capsys):
    cfg = write_config(tmp_path, MAXPOLY.replace("replicas: 3", "replicas: 0"))
    assert cli.main(["maxpoly", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "m" / "maxpoly.json").exists()


def test_run_seed_outside_uint64_is_config_error(tmp_path, capsys):
    negative = write_config(tmp_path, BASE.replace("master_seed: 11", "master_seed: -1"), "neg.yaml")
    assert cli.main(["simulate", "--config", negative, "--out", str(tmp_path / "s")]) == 2
    assert "config error:" in capsys.readouterr().err
    base = write_config(tmp_path, BASE)
    assert cli.main(["simulate", "--config", base, "--out", str(tmp_path / "s"), "--seed", "-1"]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "s" / "samples.csv").exists()
    big = write_config(tmp_path, MAXPOLY.replace("master_seed: 2", f"master_seed: {2 ** 64}"), "big.yaml")
    assert cli.main(["maxpoly", "--config", big, "--out", str(tmp_path / "m")]) == 2
    assert "config error:" in capsys.readouterr().err


def test_maxpoly_needs_maxfield_section(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert cli.main(["maxpoly", "--config", cfg]) == 2
    assert "maxfield" in capsys.readouterr().err


def test_profile_command(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    profile: {type: band, N: 40, params: {W: 5}}
    """)
    out = tmp_path / "p"
    assert cli.main(["profile", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["checks"]["row_sum_err"] <= 1e-10
    S = np.loadtxt(out / "profile.csv", delimiter=",")
    assert S.shape == (40, 40)
    assert np.allclose(S.sum(axis=1), 1.0, atol=1e-12)


def test_lambda_window_warning(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.replace("[0.0, 0.5]", "[50.0]"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "w")]) == 0
    assert "trusted window" in capsys.readouterr().err


def test_quick_caps(tmp_path, capsys):
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 600}
    testfn: x
    run: {replicas: 500, master_seed: 1}
    """)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "q"), "--quick"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["replicas"] == 20
    assert summary["config"]["ensemble"]["profile"]["N"] == 200


def test_testfn_singular_at_a_node_is_config_error(tmp_path, capsys, monkeypatch):
    # log|E - x| with E on node x_700 of the 2048-node coefficient rule: the prediction, which
    # runs before any replica, cannot expand it
    calls = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key: calls.append(key))
    E = float(gauss_cheb_nodes(2048)[700])
    cfg = write_config(tmp_path, BASE.replace("testfn: x2", f"testfn: logre({E!r},0)")
                       .replace("replicas: 2", "replicas: 4"))
    for command in ("predict", "simulate", "verify"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert "config error:" in err and f"x_700 = {E!r}" in err, err
        assert not out.exists() or not any(out.iterdir()), command
    assert calls == []


@pytest.mark.parametrize("edge", [2.0, -2.0])
def test_testfn_infinite_at_a_spectral_edge_is_config_error(tmp_path, capsys, monkeypatch, edge):
    # log|E - x| at E = +-2 has t_j ~ 1/j, so V = sum_j j t_j^2 tr S^j / 2 beta diverges; the
    # series used to stop at J_CAP with a finite V far from V_integral and exit 0
    calls = []
    monkeypatch.setattr(hn.en, "sample", lambda spec, key: calls.append(key))
    cfg = write_config(tmp_path, BASE.replace("N: 10", "N: 20")
                       .replace("testfn: x2", f"testfn: logre({edge},0)")
                       .replace("replicas: 2", "replicas: 4"))
    for command in ("predict", "simulate", "verify"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        want = f"config error: bad testfn: test function is not finite at the spectral edge x = {edge}"
        assert want in err, err
        assert not out.exists() or not any(out.iterdir()), command
    assert calls == []


def test_testfn_singular_at_an_integral_node_is_config_error(tmp_path, capsys):
    # E on node x_100 of band(1000, 3)'s 14,831-node integral grid, and on no node of the
    # coefficient rules (2048 nodes, and 4096 at J = J_CAP): V_integral would be NaN, which
    # is not JSON
    E = float(gauss_cheb_nodes(14831)[100])
    assert E not in gauss_cheb_nodes(2048) and E not in gauss_cheb_nodes(4096)
    cfg = write_config(tmp_path, f"""
    ensemble:
      profile: {{type: band, N: 1000, params: {{W: 3}}}}
    testfn: logre({E!r},0)
    """)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["predict", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err and f"x_100 = {E!r}" in captured.err, captured.err


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from wignerlss.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("replica 0 failed")

    monkeypatch.setattr(cli.hn, "run_ensemble", boom)
    cfg = write_config(tmp_path, BASE)
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "n")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_failed_profile_solve_exits_3(tmp_path, capsys, monkeypatch):
    def garbling(layout, jobz, uplo, n, a, lda, w):
        A = np.ctypeslib.as_array(ctypes.cast(a, ctypes.POINTER(ctypes.c_double)), shape=(n, n))
        A[np.triu_indices(n)] = np.nan
        return 1

    monkeypatch.setattr(sp, "_LAPACK", {np.dtype(np.float64): garbling})
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: random, N: 50, seed: 2}
    testfn: x2
    """)
    assert cli.main(["predict", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: eigenvalue solver failed: LAPACK info = 1" in captured.err


def test_failed_profile_eigvalsh_exits_3(tmp_path, capsys, monkeypatch):
    # the eigvalsh route's LinAlgError is a ValueError, which a profile build would report
    # as a config error; it is a solver failure, as on the LAPACKE route
    def failing(a, UPLO="L"):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sp, "_LAPACK", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: random, N: 50, seed: 2}
    testfn: x2
    """)
    assert cli.main(["predict", "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure: eigenvalue solver failed: Eigenvalues did not converge" in captured.err
