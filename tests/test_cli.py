import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hubbertfit as hf
from hubbertfit import cli, datasets
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


def simulate(tmp_path, name="sim.csv"):
    out = tmp_path / name
    code = main(
        [
            "simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
            "--t-final", "20", "--step", "1", "--n-paths", "5", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_deterministic_byte_for_byte(tmp_path):
    a = simulate(tmp_path, "a.csv")
    b = simulate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


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


@pytest.mark.parametrize("grid", [
    ("--step", "0"),
    ("--step", "-1"),
    ("--step", "inf"),
    ("--step", "nan"),
    ("--t-final", "-5"),
    ("--t-final", "0"),
    ("--t-final", "inf"),
    ("--t0=-inf",),
    ("--step", "100"),  # longer than the window: a one-point grid
    ("--step", "1e-300"),  # more points than numpy can index
    ("--step", "5e-324"),  # the point count overflows to infinity
    ("--t0=-1e308", "--t-final", "1e308"),  # so does the window
    ("--t-final", "9223372036854775808", "--step", "1"),  # numpy would wrap to an empty range
])
def test_simulate_bad_grid_exit_code(tmp_path, capsys, grid):
    out = tmp_path / "never.csv"
    code = main(["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
                 *grid, "--out", str(out)])
    assert code == 2, grid
    err = capsys.readouterr().err
    assert "--step" in err or "--t-final" in err
    assert not out.exists()


def test_bounds_bundled_reference(tmp_path, capsys):
    code = main(["bounds", "--data", "norway", "--urr", str(datasets.NORWAY_URR)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 3
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


@pytest.mark.parametrize("row", ["0,inf,4", "0,3,inf"])
def test_fit_non_finite_row_exit_code(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"path_id,time,value\n0,0,1.0\n0,1,2.0\n0,2,3.0\n{row}\n")
    code = main(["fit", "--data", str(bad)])
    assert code == 2
    assert "line 5" in capsys.readouterr().err


def test_fit_of_one_transition_pair_exits_1(tmp_path, capsys):
    # five paths seen only at times 0 and 1 give one pair, too few for (eta, alpha)
    data = tmp_path / "pair.csv"
    data.write_text("path_id,time,value\n" + "".join(f"{i},0,100\n{i},1,{110 + i}\n" for i in range(5)))
    out = tmp_path / "fit.json"
    assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "one distinct transition pair" in captured.err


def test_fit_document_carries_the_max_iter_warning(tmp_path, monkeypatch):
    monkeypatch.setattr("hubbertfit.inference._MAX_ITER", 4)
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", "norway", "--urr", str(datasets.NORWAY_URR), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["stop_reason"] == "max_iter"
    assert doc["warnings"] == [
        "the profile search stopped at its iteration cap without converging"
    ]


def test_missing_data_file_exit_code(capsys):
    code = main(["fit", "--data", "/tmp/definitely_missing.csv", "--seed", "0"])
    assert code == 2
    assert "definitely_missing" in capsys.readouterr().err


def test_fit_and_forecast_workflow(tmp_path, capsys):
    data = simulate(tmp_path)
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
    assert doc["schema_version"] == 3
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
    data = simulate(tmp_path)
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
    data = simulate(tmp_path)
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
    data = simulate(tmp_path)
    code = main(
        ["fit", "--data", str(data), "--config", write_config(tmp_path),
         "--seed", "2", "--peak-x", "150"]
    )
    assert code == 2


def test_fit_config_unknown_key_exit_code(tmp_path, capsys):
    data = simulate(tmp_path)
    for bad in ({"sa": {"chain_lenght": 10}}, {"vns": {"k_max": 2, "kmax": 3}}, {"sa": [10]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--config", str(path), "--seed", "1"])
        assert code == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config" in captured.err


def test_fit_config_value_type_exit_code(tmp_path, capsys):
    data = simulate(tmp_path)
    bad_configs = (
        {"sa": {"chain_length": "ten"}},
        {"sa": {"chain_length": 2.5}},
        {"sa": {"chain_length": True}},
        {"sa": {"gamma": False}},
        {"sa": {"t_final": "50"}},
        {"vns": {"k_max": None}},
    )
    for bad in bad_configs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--config", str(path), "--seed", "1"])
        assert code == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


@pytest.mark.parametrize("bad", [{"sa": {"stall_window": 0}}, {"sa": {"stall_window": -3}}])
def test_fit_config_out_of_range_count_exits_1(tmp_path, capsys, bad):
    # an integer of the right type but outside its domain is a domain error
    data = simulate(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["fit", "--data", str(data), "--config", str(path), "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stall_window must be an integer >= 1" in captured.err


def test_fit_config_float_field_takes_integer(tmp_path, capsys):
    data = simulate(tmp_path)
    cfg = write_config(tmp_path, {"sa": {"chain_length": 10, "t_final": 50, "probe_count": 20}})
    assert main(["fit", "--data", str(data), "--config", cfg, "--seed", "1"]) == 0


def _fit_must_not_run(*args, **kwargs):
    raise AssertionError("the fit ran before the arguments were checked")


@pytest.mark.parametrize("bad", [
    {"restarts": "2"},
    {"restarts": 2.0},
    {"restarts": True},
    {"restarts": None},
    {"seed": "x"},
    {"seed": 1.5},
    {"seed": False},
    {"urr": "big"},
    {"urr": True},
    {"sigma_cap": "x"},
    {"sigma_cap": None},
])
def test_config_top_level_type_exit_code(tmp_path, capsys, monkeypatch, bad):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    for command in ("fit", "bounds"):
        capsys.readouterr()
        assert main([command, "--data", "norway", "--config", str(path)]) == 2, (command, bad)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be" in captured.err


def test_negative_seed_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "never.csv"
    for argv in (
        ["fit", "--data", "norway", "--seed", "-1"],
        ["fit", "--data", "norway", "--config", str(config)],
        ["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05", "--seed", "-1",
         "--out", str(out)],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_fit_algorithm_choice(tmp_path):
    data = simulate(tmp_path)
    cfg = write_config(tmp_path)
    docs = {}
    for algorithm in (None, "vns-sa"):
        out = tmp_path / f"{algorithm}.json"
        extra = [] if algorithm is None else ["--algorithm", algorithm]
        assert main(["fit", "--data", str(data), "--config", cfg, "--seed", "1",
                     "--out", str(out), *extra]) == 0
        docs[algorithm] = json.loads(out.read_text())
    assert docs[None]["algorithm"] == docs[None]["config"]["algorithm"] == "profile"
    assert docs[None]["stop_reason"] == "converged"
    assert docs["vns-sa"]["algorithm"] == "vns-sa"
    assert docs["vns-sa"]["stop_reason"] in ("stall", "temperature")
    assert docs[None]["objective"] <= docs["vns-sa"]["objective"]


@pytest.mark.parametrize("command", ["fit", "bounds"])
def test_config_unknown_top_level_key_exit_code(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"restart": 2}))
    assert main([command, "--data", "norway", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "restart" in err
    assert "accepted: restarts, sa, seed, sigma_cap, urr, vns" in err


def test_config_top_level_null_and_integer_values(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"urr": None, "seed": None, "restarts": 1, "sigma_cap": 1}))
    assert main(["bounds", "--data", "norway", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fallback"] and doc["sigma_upper"] == 1


def test_fit_peak_pair_checked_before_fit(capsys, monkeypatch):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    for flag in ("--peak-x", "--peak-s"):
        assert main(["fit", "--data", "norway", flag, "150"]) == 2
        assert "--peak-x and --peak-s" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fit_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    data = simulate(tmp)
    out = tmp / "fit.json"
    assert main(["fit", "--data", str(data), "--config", write_config(tmp),
                 "--seed", "1", "--out", str(out)]) == 0
    return out


def forecast_args(fit_path, *extra):
    return ["forecast", "--fit", str(fit_path), "--s", "20", "--x-s", "100", *extra]


@pytest.mark.parametrize("horizon", [
    ("--from", "21", "--to", "25", "--step", "0"),
    ("--from", "21", "--to", "25", "--step", "-1"),
    ("--from", "25", "--to", "21"),
    ("--from", "21", "--to", "inf"),
    ("--from", "nan", "--to", "25"),
    ("--from", "21", "--to", "25", "--step", "inf"),
    ("--from", "21", "--to", "25", "--step", "1e-300"),
    ("--from", "0", "--to", "9223372036854775808"),
])
def test_forecast_bad_horizon_exit_code(fit_file, capsys, horizon):
    capsys.readouterr()
    assert main(forecast_args(fit_file, *horizon)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--step" in captured.err or "--to" in captured.err


def test_grid_tie_rounds_down(tmp_path, fit_file, capsys):
    # (stop - start)/step = k + 1/2 keeps k steps, for odd k as for even
    out = tmp_path / "tie.csv"
    for t_final, n_points in (("1.5", 2), ("2.5", 3)):
        assert main(["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05",
                     "--t-final", t_final, "--step", "1", "--n-paths", "1", "--out", str(out)]) == 0
        assert datasets.load_panel_csv(out).times[0].tolist() == list(range(n_points))
    capsys.readouterr()
    assert main(forecast_args(fit_file, "--from", "21", "--to", "22.5")) == 0
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()[1:]] == ["21.0", "22.0"]


def test_forecast_grid_is_start_plus_i_step(fit_file, capsys):
    capsys.readouterr()
    assert main(forecast_args(fit_file, "--from", "21", "--to", "22", "--step", "0.1")) == 0
    years = [float(row.split(",")[0]) for row in capsys.readouterr().out.splitlines()[1:]]
    assert years == [21.0 + 0.1 * i for i in range(11)] and years[-1] == 22.0


_UNREADABLE = {
    "non-utf8": b"\xff\xfe{}",
    "deep": b"[" * 100_000,
    "long-field": b"path_id,time,value\n0,0,1\n0,1," + b"1" * 200_000 + b"\n",  # over csv's 131072
}


@pytest.mark.parametrize("argv, kind", [
    pytest.param(argv, kind, id=f"{argv[0]}{argv[-1]}-{kind}")
    for argv, kinds in [
        (["fit", "--data", "norway", "--config"], ("non-utf8", "directory", "deep")),
        (["bounds", "--data", "norway", "--config"], ("non-utf8", "directory", "deep")),
        (["forecast", "--s", "20", "--x-s", "100", "--from", "21", "--to", "25", "--fit"],
         ("non-utf8", "directory", "deep")),
        (["fit", "--data"], ("non-utf8", "directory", "long-field")),
        (["bounds", "--data"], ("non-utf8", "directory", "long-field")),
    ]
    for kind in kinds
])
def test_unreadable_input_file_exit_code(tmp_path, capsys, monkeypatch, argv, kind):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    path = tmp_path
    if kind != "directory":
        path = tmp_path / "input"
        path.write_bytes(_UNREADABLE[kind])
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err


def test_fit_document_round_trip():
    panel = hf.simulate_paths(
        hf.ProcessParams(eta=0.1, alpha=0.45, sigma=0.05,
                         init=hf.InitialDistribution.degenerate(100.0)),
        hf.PathGrid(np.arange(0.0, 21.0)), 5, 7,
    )
    fit = hf.fit(panel, urr=5.0e4, seed=4,
                 sa_config=hf.SAConfig(chain_length=10, t_final=50.0, init_probe_count=20))
    doc = json.loads(json.dumps(cli._fit_document(fit, {}, None)))
    back = cli._read_fit(doc, "fit.json")
    for field in dataclasses.fields(fit):
        a, b = getattr(fit, field.name), getattr(back, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def test_forecast_rejects_other_schema_or_missing_field(fit_file, tmp_path, capsys):
    doc = json.loads(fit_file.read_text())
    for name, edit, expected in (
        ("v1.json", {"schema_version": 1}, "schema_version"),
        ("nofisher.json", {"fisher": None}, "fisher"),
        ("nok.json", {"time_shift_k": None}, "time_shift_k"),
    ):
        broken = {k: v for k, v in {**doc, **edit}.items() if v is not None}
        path = tmp_path / name
        path.write_text(json.dumps(broken))
        capsys.readouterr()
        assert main(forecast_args(path, "--from", "21", "--to", "25")) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert expected in captured.err


def test_unexpected_error_propagates(monkeypatch):
    # only the library's own error classes mean exit 1; a plain ValueError
    # or RuntimeError is a bug and must not be reported as a domain error
    for exc in (ValueError("bug"), RuntimeError("bug")):
        def broken(*args, **kwargs):
            raise exc
        monkeypatch.setattr("hubbertfit.bounds.build_box", broken)
        with pytest.raises(type(exc)):
            main(["bounds", "--data", "norway"])


def test_fit_singular_information_exits_1(tmp_path, capsys, monkeypatch):
    # a singular Fisher matrix leaves the fit with NaN cov, so the peak
    # block of the fit document has no standard errors to report
    monkeypatch.setattr("hubbertfit.inference._fisher", lambda stats, sums, alpha, sigma: np.ones((3, 3)))
    data = simulate(tmp_path)
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", str(data), "--config", write_config(tmp_path),
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "covariance" in capsys.readouterr().err


def test_forecast_horizon_before_s(tmp_path, capsys):
    data = simulate(tmp_path)
    out = tmp_path / "fit.json"
    main(["fit", "--data", str(data), "--config", write_config(tmp_path),
          "--seed", "1", "--out", str(out)])
    code = main(["forecast", "--fit", str(out), "--s", "20", "--x-s", "100",
                 "--from", "19", "--to", "25"])
    assert code == 1


def test_forecast_single_year(tmp_path, capsys):
    data = simulate(tmp_path)
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
    for sigma in ("nan", "inf"):
        code = main(["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", sigma, "--out", str(out)])
        assert code == 1
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("s, x_s, message", [
    ("nan", "100", "error: s must be finite"),
    ("20", "inf", "error: x_s must be positive and finite"),
    ("20", "nan", "error: x_s must be positive and finite"),
])
def test_forecast_non_finite_point_exits_1(fit_file, capsys, s, x_s, message):
    capsys.readouterr()
    assert main(["forecast", "--fit", str(fit_file), "--s", s, "--x-s", x_s, "--from", "21", "--to", "25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("peak", [("--peak-x", "1568", "--peak-s", "nan"), ("--peak-x", "nan", "--peak-s", "2014")])
def test_fit_non_finite_peak_point_exits_1(capsys, peak):
    assert main(["fit", "--data", "norway", *peak]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err and "finite" in captured.err


@pytest.mark.parametrize("peak, message", [
    (("--peak-x", "1568", "--peak-s", "nan"), "--peak-s must be finite"),
    (("--peak-x", "1568", "--peak-s=-inf"), "--peak-s must be finite"),
    (("--peak-x", "nan", "--peak-s", "2014"), "--peak-x must be positive and finite"),
    (("--peak-x", "inf", "--peak-s", "2014"), "--peak-x must be positive and finite"),
    (("--peak-x", "0", "--peak-s", "2014"), "--peak-x must be positive and finite"),
    (("--peak-x", "-5", "--peak-s", "2014"), "--peak-x must be positive and finite"),
])
def test_fit_peak_point_checked_before_fit(capsys, monkeypatch, peak, message):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    assert main(["fit", "--data", "norway", *peak]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", ["fit", "bounds"])
def test_config_infinite_sigma_cap_exits_1(tmp_path, capsys, command):
    path = tmp_path / "cap.json"
    path.write_text('{"sigma_cap": 1e309}')  # parses to inf
    assert main([command, "--data", "norway", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma_cap must be positive and finite" in captured.err


@pytest.mark.parametrize("command", ["fit", "bounds"])
def test_infinite_urr_exits_1(capsys, command):
    # bounds once echoed "urr": Infinity with the uncapped alpha range
    assert main([command, "--data", "norway", "--urr", "inf"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "urr must be positive and finite, got inf" in captured.err


@pytest.mark.parametrize("x0", ["inf", "nan"])
def test_simulate_non_finite_x0_names_it(tmp_path, capsys, x0):
    # once failed late with a message about path 0 that named no argument
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05", "--x0", x0, "--out", str(out)]
    assert main(argv) == 1
    assert f"x0 must be positive and finite, got {x0}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--eta", "inf", "error: eta must be positive and finite, got inf"),
    ("--eta", "0", "error: eta must be positive and finite, got 0.0"),
    ("--alpha", "nan", "error: alpha must lie in (0, 1), got nan"),
])
def test_simulate_bad_eta_alpha_names_it(tmp_path, capsys, flag, value, message):
    # --eta inf once failed with a message about path 0 that named no flag
    out = tmp_path / "sim.csv"
    # argparse keeps the last of a repeated flag
    argv = ["simulate", "--eta", "0.1", "--alpha", "0.45", "--sigma", "0.05", flag, value, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("peak, message", [
    (("--peak-x", "inf", "--peak-s", "2014"), "error: --peak-x must be positive and finite, got inf\n"),
    (("--peak-x", "1568", "--peak-s=-inf"), "error: --peak-s must be finite, got -inf\n"),
])
def test_fit_peak_point_message_is_the_rule_wording(capsys, monkeypatch, peak, message):
    monkeypatch.setattr(hf.inference, "fit", _fit_must_not_run)
    assert main(["fit", "--data", "norway", *peak]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["fit", "bounds"])
def test_config_echo_resolves_sigma_cap(tmp_path, capsys, command):
    # both echoes carry the sigma_cap the run used: the file's, else the default
    path = tmp_path / "cap.json"
    path.write_text('{"sigma_cap": 0.2}')
    for extra, want in (([], 0.1), (["--config", str(path)], 0.2)):
        assert main([command, "--data", "norway", "--urr", str(datasets.NORWAY_URR), *extra]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["sigma_cap"] == want


def test_digits_rounding(capsys):
    code = main(["bounds", "--data", "kazakhstan", "--urr",
                 str(datasets.KAZAKHSTAN_URR), "--digits", "3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["alpha_star"] == pytest.approx(0.960, abs=5e-4)
    assert len(str(doc["alpha_star"]).split(".")[1]) <= 3


def test_forecast_from_singular_fit_exits_1(tmp_path, capsys):
    data = simulate(tmp_path)
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


@pytest.mark.parametrize("peak_s", ["-5000", "8000"])
def test_fit_peak_point_where_alpha_power_leaves_the_floats_exits_1(tmp_path, capsys, peak_s):
    # alpha^s overflowed (-5000) or underflowed to 0 (8000): the document held NaN or inf, exit 0
    out = tmp_path / "fit.json"
    argv = ["fit", "--data", "norway", "--urr", str(datasets.NORWAY_URR),
            "--peak-x", "100", "--peak-s", peak_s, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: alpha^t0 ")
    assert not out.exists()


def test_forecast_from_a_point_where_alpha_power_overflows_exits_1(tmp_path, capsys):
    # forecast once printed inf,nan,nan rows and exited 0
    fit_path = tmp_path / "fit.json"
    assert main(["fit", "--data", "norway", "--urr", str(datasets.NORWAY_URR), "--out", str(fit_path)]) == 0
    capsys.readouterr()
    assert main(["forecast", "--fit", str(fit_path), "--s", "-5000", "--x-s", "100",
                 "--from", "-4999", "--to", "-4995"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: alpha^t0 overflows")
