import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from wignerlss import cli
from wignerlss import functionals as fl
from wignerlss import harness as hn
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


def test_predict_warns_when_routes_disagree(tmp_path, capsys):
    # logre(0, 0.001): the series stops at J_CAP short of V, and the routes really disagree;
    # predict still exits 0
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 20}
    testfn: logre(0,0.001)
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["paths_agree"] is False
    lines = [line for line in captured.err.splitlines() if line.startswith("warning:")]
    assert len(lines) == 1, captured.err
    assert repr(out["V"]) in lines[0] and repr(out["V_integral"]) in lines[0]
    assert out["J"] == 2048 and "(on 4096 nodes)" in lines[0]
    cfg = write_config(tmp_path, """
    ensemble:
      profile: {type: flat, N: 20}
    testfn: x2
    """, "x2.yaml")
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["paths_agree"] is True
    assert captured.err == ""


@pytest.mark.parametrize("N, testfn", [(50, "cheb(800)"), (50, "cheb(1500)"), (20, "logre(0,0.01)")])
def test_predict_routes_agree_beyond_400_nodes(tmp_path, capsys, N, testfn):
    # the integral route runs on 2J nodes; on a fixed 400-node grid T_800 vanishes at every
    # node, T_1500 aliases, and logre(0, 0.01) is under-resolved
    cfg = write_config(tmp_path, f"""
    ensemble:
      profile: {{type: flat, N: {N}}}
    testfn: {testfn}
    """)
    assert cli.main(["predict", "--config", cfg]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["paths_agree"] is True, out
    assert captured.err == ""


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


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
