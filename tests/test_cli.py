import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hubbertfit import datasets
from hubbertfit.cli import main

FAST_CONFIG = {
    "sa": {"chain_length": 10, "t_final": 50.0, "probe_count": 20},
    "vns": {"k_max": 2},
}


def write_config(tmp_path, extra=None):
    cfg = dict(FAST_CONFIG)
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate(tmp_path, name="sim.csv", extra=()):
    out = tmp_path / name
    code = main(
        [
            "simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
            "--t-final", "20", "--n-paths", "5", "--seed", "7",
            "--out", str(out), *extra,
        ]
    )
    assert code == 0
    return out


def test_simulate_deterministic_byte_for_byte(tmp_path):
    a = simulate(tmp_path, "a.csv")
    b = simulate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_subsample_grid(tmp_path):
    out = simulate(tmp_path, extra=("--subsample",))
    panel = datasets.load_panel_csv(out)
    assert panel.d == 5
    np.testing.assert_array_equal(panel.times[0], np.arange(0.0, 21.0))


def test_simulate_default_protocol_shape(tmp_path):
    out = tmp_path / "full.csv"
    code = main(
        [
            "simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
            "--n-paths", "2", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    panel = datasets.load_panel_csv(out)
    assert panel.times[0].size == 501
    assert panel.times[0][-1] == pytest.approx(50.0)


def test_simulate_sigma_zero_identical_paths(tmp_path):
    out = tmp_path / "det.csv"
    main(
        [
            "simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0",
            "--t-final", "10", "--n-paths", "3", "--out", str(out),
        ]
    )
    panel = datasets.load_panel_csv(out)
    for v in panel.values[1:]:
        np.testing.assert_array_equal(v, panel.values[0])


def test_simulate_round_trip_lossless(tmp_path):
    out = simulate(tmp_path)
    panel = datasets.load_panel_csv(out)
    again = tmp_path / "again.csv"
    datasets.write_panel_csv(again, panel)
    assert out.read_bytes() == again.read_bytes()


def test_bounds_bundled_reference(tmp_path, capsys):
    code = main(["bounds", "--data", "norway", "--urr", str(datasets.NORWAY_URR)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
    assert doc["alpha_star"] == pytest.approx(0.8724, abs=1e-4)
    assert not doc["fallback"]


def test_bounds_fallback_without_urr(tmp_path, capsys):
    out = simulate(tmp_path)
    code = main(["bounds", "--data", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fallback"] and doc["alpha_star"] == 1.0
    assert doc["alpha1"] is None


def test_bounds_bad_row_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("path_id,time,value\n0,0,1.0\n0,1,-5\n")
    code = main(["bounds", "--data", str(bad)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_data_file_exit_code(capsys):
    code = main(["fit", "--data", "/tmp/definitely_missing.csv", "--seed", "0"])
    assert code == 2
    assert "definitely_missing" in capsys.readouterr().err


def test_fit_and_forecast_workflow(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    cfg = write_config(tmp_path)
    fit_out = tmp_path / "fit.json"
    code = main(
        [
            "fit", "--data", str(data), "--config", cfg, "--seed", "11",
            "--out", str(fit_out),
        ]
    )
    assert code == 0
    doc = json.loads(fit_out.read_text())
    assert doc["schema_version"] == 1
    assert 0.0 < doc["theta_hat"]["alpha"] < 1.0
    assert doc["config"]["seed"] == 11
    assert doc["peak"]["time"] > 0.0

    code = main(
        [
            "forecast", "--fit", str(fit_out), "--s", "20", "--x-s",
            str(datasets.load_panel_csv(data).values[0][-1]),
            "--from", "21", "--to", "25",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "year,mean,lower,upper"
    assert len(lines) == 6
    row = [float(x) for x in lines[1].split(",")]
    assert row[2] <= row[1] <= row[3]


def test_fit_deterministic(tmp_path):
    data = simulate(tmp_path, extra=("--subsample",))
    cfg = write_config(tmp_path)
    outs = []
    for name in ("f1.json", "f2.json"):
        out = tmp_path / name
        assert main(
            ["fit", "--data", str(data), "--config", cfg, "--seed", "3", "--out", str(out)]
        ) == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0] == outs[1]


def test_fit_conditional_peak(tmp_path):
    data = simulate(tmp_path, extra=("--subsample",))
    cfg = write_config(tmp_path)
    out = tmp_path / "fit.json"
    assert main(
        [
            "fit", "--data", str(data), "--config", cfg, "--seed", "2",
            "--peak-x", "150", "--peak-s", "5", "--out", str(out),
        ]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["peak_conditional"]["conditioning"] == {"x_s": 150.0, "s": 5.0}
    assert doc["peak_conditional"]["value"] > 0.0


def test_fit_peak_flags_must_pair(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    code = main(
        ["fit", "--data", str(data), "--config", write_config(tmp_path),
         "--seed", "2", "--peak-x", "150"]
    )
    assert code == 2


def test_fit_config_unknown_key_exit_code(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    for bad in ({"sa": {"chain_lenght": 10}}, {"vns": {"k_max": 2, "kmax": 3}}, {"sa": [10]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--config", str(path), "--seed", "1"])
        assert code == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config" in captured.err


def test_fit_singular_information_exits_1(tmp_path, capsys, monkeypatch):
    # a singular Fisher matrix leaves the fit with NaN cov, so the peak
    # block of the fit document has no standard errors to report
    monkeypatch.setattr(
        "hubbertfit.inference.fisher_information", lambda theta, data: np.ones((3, 3))
    )
    data = simulate(tmp_path, extra=("--subsample",))
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(data), "--config", write_config(tmp_path),
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "covariance" in capsys.readouterr().err


def test_forecast_horizon_before_s(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    out = tmp_path / "fit.json"
    main(["fit", "--data", str(data), "--config", write_config(tmp_path),
          "--seed", "1", "--out", str(out)])
    code = main(["forecast", "--fit", str(out), "--s", "20", "--x-s", "100",
                 "--from", "19", "--to", "25"])
    assert code == 1


def test_forecast_single_year(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    out = tmp_path / "fit.json"
    main(["fit", "--data", str(data), "--config", write_config(tmp_path),
          "--seed", "1", "--out", str(out)])
    code = main(["forecast", "--fit", str(out), "--s", "20", "--x-s", "100",
                 "--from", "21", "--to", "21"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_invalid_domain_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["simulate", "--eta", "-1", "--alpha", "0.45", "--sigma", "0.05",
         "--out", str(out)]
    )
    assert code == 1


def test_digits_rounding(capsys):
    code = main(["bounds", "--data", "kazakhstan", "--urr",
                 str(datasets.KAZAKHSTAN_URR), "--digits", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_star"] == pytest.approx(0.960, abs=5e-4)
    assert len(str(doc["alpha_star"]).split(".")[1]) <= 3


def test_forecast_from_singular_fit_exits_1(tmp_path, capsys):
    data = simulate(tmp_path, extra=("--subsample",))
    out = tmp_path / "fit.json"
    main(["fit", "--data", str(data), "--config", write_config(tmp_path),
          "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["cov"] = [[float("nan")] * 3] * 3
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["forecast", "--fit", str(out), "--s", "20", "--x-s", "100",
                 "--from", "21", "--to", "25"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "covariance" in captured.err


def test_cli_import_does_not_load_scipy():
    code = "import sys, hubbertfit.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.stdout.strip() == "False"
