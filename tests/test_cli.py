import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stoprule import cli, models
from stoprule.models import ObservationModel, ThresholdPolicy


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestLimit:
    def test_rect_geometry(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--geometry", "rect")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["beta_star"] - 0.804352) < 1e-5
        assert abs(obj["value"] - 0.580164) < 1e-5

    def test_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--lambda", "1")
        obj = json.loads(out)
        assert code == 0
        assert abs(obj["value"] - 0.761260) < 1e-5
        assert obj["truncation_error"] < 1e-9

    def test_theta(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--theta", "0.5")
        obj = json.loads(out)
        assert abs(obj["value"] - 0.703128) < 1e-5

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_theta_outside_domain_exits_1(self, capsys, theta):
        code, out, err = run_cli(capsys, "limit", "--theta", theta)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("theta", ["5e-324", "1e6"])
    def test_extreme_theta(self, capsys, theta):
        code, out, _ = run_cli(capsys, "limit", "--theta", theta)
        assert code == 0
        obj = json.loads(out)
        assert 0.0 < obj["beta_star"] < 1.0
        assert math.exp(-1.0) <= obj["value"] <= 1.0

    def test_exactly_one_mode_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["limit"])
        assert exc.value.code == 2
        assert "one of the arguments --geometry --lambda --theta is required" in capsys.readouterr().err

    def test_large_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--lambda", "700")
        assert code == 0
        obj = json.loads(out)
        for key in ("value", "jump", "drift", "truncation_error"):
            assert math.isfinite(obj[key])

    @pytest.mark.parametrize("args", [
        ("limit", "--lambda", "1000"),
        ("limit", "--lambda", "nan"),
        ("roots", "--lambda", "1000", "--kmax", "3"),
        # 1 / (1 - e^{-lambda}) overflows in the level truncation estimate
        ("limit", "--lambda", "5e-324"),
        ("limit", "--lambda", "1e-310"),
        ("sweep", "--target", "lambda", "--grid", "5e-324:5e-324:1"),
    ], ids=["limit-1000", "limit-nan", "roots-1000", "limit-5e-324", "limit-1e-310",
            "sweep-5e-324"])
    def test_lambda_where_exp_overflows_exits_1(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1



class TestRoots:
    def test_csv_row_k2(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--lambda", "1", "--kmax", "20",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,z,t"
        row = lines[2].split(",")
        assert row[0] == "2"
        assert abs(float(row[1]) - 1.732050) < 1e-5

    def test_json_default(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--kmax", "3")
        obj = json.loads(out)
        assert [r["k"] for r in obj["roots"]] == [1, 2, 3]

    @pytest.mark.parametrize("kmax", [1, 20])
    def test_streamed_json_bytes(self, capsys, kmax):
        # The rows are written one by one; the bytes must be those of
        # json.dumps on the whole payload.
        code, out, _ = run_cli(capsys, "roots", "--lambda", "0.37", "--kmax", str(kmax))
        assert code == 0
        rows = json.loads(out)["roots"]
        whole = json.dumps(cli._round12({"lambda": 0.37, "roots": rows})) + "\n"
        assert out == whole

    def test_output_does_not_grow_with_kmax(self, tmp_path):
        # Building the ladder peaks near 6 MB; holding every row as a tuple and
        # a dict before writing took 16 MB at 20,000 levels.
        path = tmp_path / "roots.json"
        tracemalloc.start()
        try:
            assert cli.main(["roots", "--kmax", "20000", "--output", str(path)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(json.loads(path.read_text())["roots"]) == 20_000
        assert peak < 10e6


@pytest.mark.parametrize("args", [
    ("limit", "--lambda", "700", "--kmax", "-4"),
    ("limit", "--lambda", "1", "--kmax", "-4"),
], ids=["lambda-700", "lambda-1"])
def test_kmax_below_one_exits_1(capsys, args):
    # --kmax -4 at lambda 700 once overflowed r ** k_max in the tail bound
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "k_max must be >= 1" in err


@pytest.mark.parametrize("args", [
    ("roots", "--kmax", "6000000"),
    ("limit", "--lambda", "1", "--kmax", "6000000"),
], ids=["roots", "limit"])
def test_kmax_above_level_cap_exits_1(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "5000000" in err


class TestValue:
    def test_triangular_n1(self, capsys):
        code, out, _ = run_cli(capsys, "value", "--model", "triangular", "--n", "1")
        obj = json.loads(out)
        assert obj["total"] == 1.0

    def test_policy_file(self, capsys, tmp_path):
        policy = ThresholdPolicy((1.0, 2.0, math.inf))
        path = tmp_path / "pol.json"
        path.write_text(json.dumps(policy.to_json()))
        code, out, _ = run_cli(capsys, "value", "--model", "rectangular",
                               "--n", "3", "--k", "3", "--policy", str(path))
        assert code == 0
        obj = json.loads(out)
        assert 0.0 <= obj["total"] <= 1.0

    def test_tables_csv(self, capsys, tmp_path):
        path = tmp_path / "tables.csv"
        code, out, _ = run_cli(capsys, "value", "--model", "rectangular",
                               "--n", "3", "--k", "2", "--tables", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "j,x,s,v"
        assert len(lines) == 1 + 6

    # Exact bytes of the tables CSV, recorded before the table path changed.
    @pytest.mark.parametrize("model_args,want", [
        (("rectangular", "--n", "3", "--k", "2"),
         "j,x,s,v\n1,1,1,0.75\n1,2,0.25,1\n2,1,1,0.5\n2,2,0.5,1\n3,1,1,0\n3,2,1,0\n"),
        (("triangular", "--n", "5"),
         "j,x,s,v\n1,1,1,0\n1,2,1,0.25\n1,3,0.75,0.666666666667\n"
         "1,4,0.333333333333,0.916666666667\n1,5,0.0416666666667,0.958333333333\n"
         "2,2,1,0\n2,3,1,0.333333333333\n2,4,0.666666666667,0.833333333333\n"
         "2,5,0.166666666667,1\n3,3,1,0\n3,4,1,0.5\n3,5,0.5,1\n"
         "4,4,1,0\n4,5,1,1\n5,5,1,0\n"),
    ], ids=["rectangular", "triangular"])
    def test_tables_csv_bytes(self, capsys, tmp_path, model_args, want):
        path = tmp_path / "tables.csv"
        code, _, _ = run_cli(capsys, "value", "--model", *model_args, "--tables", str(path))
        assert code == 0
        assert path.read_bytes() == want.encode()

    def test_tables_csv_holds_one_row_at_a_time(self, capsys, tmp_path):
        # 448^2 = 200704 cells: both float tables take 3.2 MB, and the lines
        # of the CSV (about 40 characters each) take more than that as text
        path = tmp_path / "tables.csv"
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "value", "--model", "rectangular", "--n", "447",
                                 "--tables", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert path.read_text().count("\n") == 1 + 447 * 447
        assert peak < 2 * (2 * 448 * 448 * 8)

    def test_lattice_wider_than_cap_exits_1(self, capsys):
        # refused before any column of 10^8 values is allocated
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "value", "--model", "rectangular",
                                     "--n", "10", "--k", "100000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lattice width" in err
        assert peak < 1e6

    def test_over_cap_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("STOPRULE_MAX_N", "10")
        code, _, err = run_cli(capsys, "value", "--model", "triangular", "--n", "11")
        assert code == 1
        assert "error" in err


class TestSimulateAndSweep:
    def test_simulate_deterministic_output(self, capsys):
        args = ("simulate", "--model", "triangular", "--n", "10",
                "--reps", "20000", "--seed", "5")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_strict_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "rectangular",
                               "--n", "8", "--k", "4", "--reps", "20000",
                               "--seed", "2", "--strict-records")
        assert code == 0
        assert 0.0 <= json.loads(out)["success_rate"] <= 1.0

    def test_sweep_lambda_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--target", "lambda",
                               "--grid", "0.5:1:0.25", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,value"
        assert len(lines) == 4
        assert abs(float(lines[-1].split(",")[1]) - 0.761260690589) < 1e-9

    def test_sweep_rectangular(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--target", "rectangular",
                               "--grid", "20:60:20", "--format", "csv")
        lines = out.strip().split("\n")
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)


class TestThresholdsAndFullinfo:
    def test_thresholds_json(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--model", "rectangular",
                               "--n", "4", "--k", "4")
        obj = json.loads(out)
        assert obj["thresholds"][-1] == "inf"

    def test_thresholds_gm(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--model", "uniform01", "--n", "2")
        obj = json.loads(out)
        assert abs(obj["thresholds"][0] - 0.5) < 1e-9

    def test_thresholds_uniform01_match_fullinfo(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--model", "uniform01", "--n", "20")
        assert code == 0
        obj = json.loads(out)
        assert obj["model"] == {"kind": "iid_uniform01", "n": 20, "params": {}}
        _, full, _ = run_cli(capsys, "fullinfo", "--n", "20")
        assert obj["thresholds"] == json.loads(full)["thresholds"]

    def test_fullinfo_single(self, capsys):
        code, out, _ = run_cli(capsys, "fullinfo", "--n", "2")
        obj = json.loads(out)
        assert abs(obj["v_bar"] - 0.75) < 1e-9
        assert abs(obj["jump"] + obj["drift"] - 0.75) < 1e-9

    def test_fullinfo_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "fullinfo", "--sweep", "2:6:2",
                               "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,v_bar"
        assert len(lines) == 4


# Each --model name with its parameter flags, the constructor it must match
# and the flag that cannot be left out (None: every parameter has a default).
MODEL_CASES = [
    ("triangular", (), ObservationModel.triangular, None),
    ("rectangular", ("--k", "3"), lambda n: ObservationModel.rectangular(n, 3), None),
    ("pyramid", ("--p", "0.3"), lambda n: ObservationModel.bernoulli_pyramid(n, 0.3), "--p"),
    ("uniform01", (), ObservationModel.iid_uniform01, None),
    ("trend-shifted", (), ObservationModel.trend_shifted, None),
    ("trend-scaled", ("--rho", "0.5"), lambda n: ObservationModel.trend_scaled(n, 0.5), "--rho"),
    ("trend-power", ("--theta", "2"), lambda n: ObservationModel.trend_power(n, 2.0), "--theta"),
]


@pytest.mark.parametrize("name,flags,ctor,required", MODEL_CASES,
                         ids=[case[0] for case in MODEL_CASES])
def test_every_model_flag(capsys, tmp_path, name, flags, ctor, required):
    # A stop-at-every-record policy, so kinds without a lattice solver run too.
    policy = tmp_path / "pol.json"
    policy.write_text(json.dumps(ThresholdPolicy((math.inf,) * 6).to_json()))
    sim = ("simulate", "--model", name, "--n", "6", "--reps", "1000", "--policy", str(policy))
    code, out, _ = run_cli(capsys, *sim, *flags)
    assert code == 0
    assert json.loads(out)["model"] == ctor(6).to_json()
    if required is not None:
        code, out, err = run_cli(capsys, *sim)
        assert code == 1 and out == ""
        assert required in err
    if name == "rectangular":
        code, out, _ = run_cli(capsys, *sim)
        assert code == 0
        assert json.loads(out)["model"] == ObservationModel.rectangular(6, 6).to_json()


# A value for each model parameter flag, and every (command, --model, flag)
# where the kind does not take the flag: ObservationModel must refuse it.
FLAG_VALUES = {"k": "3", "p": "0.3", "rho": "0.5", "theta": "2"}
FOREIGN_FLAGS = [(command, name, flag)
                 for command in ("thresholds", "value", "simulate")
                 for name, kind in cli._MODEL_FLAGS.items()
                 for flag in FLAG_VALUES if flag not in models.MODEL_PARAMS[kind]]


@pytest.mark.parametrize("command,name,flag", FOREIGN_FLAGS,
                         ids=["-".join(case) for case in FOREIGN_FLAGS])
def test_flag_the_model_does_not_take_exits_1(capsys, command, name, flag):
    own = [arg for param in models.MODEL_PARAMS[cli._MODEL_FLAGS[name]]
           for arg in (f"--{param}", FLAG_VALUES[param])]
    code, out, err = run_cli(capsys, command, "--model", name, "--n", "5", *own,
                             f"--{flag}", FLAG_VALUES[flag])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"takes no parameter {flag}" in err


@pytest.mark.parametrize("argv", [
    "limit",
    "limit --geometry rect --lambda 1",
    "limit --lambda 1 --theta 1",
    "limit --geometry rect --kmax 5",
    "limit --theta 1 --kmax 5",
    "fullinfo",
    "fullinfo --n 5 --sweep 1:3:1",
    "thresholds --model uniform01",
    "value --model triangular",
    "simulate --model rectangular --k 5",
])
def test_flag_grammar_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: " in err


class TestErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["limit", "--geometry", "circle"])
        assert exc.value.code == 2

    def test_missing_model_param_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "value", "--model", "pyramid", "--n", "5")
        assert code == 1
        assert "--p" in err

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "limit", "--geometry", "tri",
                               "--output", str(path))
        assert code == 0
        assert out == ""
        obj = json.loads(path.read_text())
        assert abs(obj["beta_star"] - 0.760660) < 1e-5

    def test_unwritable_output_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "limit", "--geometry", "tri",
                               "--output", "/nonexistent-dir/x/out.json")
        assert code == 1

    @pytest.mark.parametrize("text", [
        "{}", "[1,2]", '{"thresholds": ["x", "inf"]}', "not json at all",
        '{"thresholds": "12"}', "[" * 100_000 + "]" * 100_000,
    ], ids=["empty-object", "list", "non-numeric", "not-json", "string", "deep-nesting"])
    def test_malformed_policy_file_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "pol.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "value", "--model", "rectangular",
                                 "--n", "2", "--k", "2", "--policy", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
    def test_non_json_constant_in_policy_exits_1(self, capsys, tmp_path, token):
        # unbounded thresholds are the strings "inf" and "-inf"; the bare
        # tokens that Python's json reads by default are not JSON
        path = tmp_path / "pol.json"
        path.write_text(f'{{"thresholds": [0, 1, {token}]}}')
        code, out, err = run_cli(capsys, "value", "--model", "triangular",
                                 "--n", "3", "--policy", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and token in err

    @pytest.mark.parametrize("args", [
        ("--model", "trend-scaled", "--rho", "inf"),
        ("--model", "trend-scaled", "--rho", "1e308"),
        ("--model", "trend-power", "--theta", "inf"),
    ], ids=["rho-inf", "rho-n-overflows", "theta-inf"])
    def test_trend_parameter_that_overflows_exits_1(self, capsys, tmp_path, args):
        # every draw would be inf (or X_j = j + n surely): refused, not simulated
        policy = tmp_path / "p.json"
        policy.write_text('{"thresholds": [1e9, 1e9, "inf"]}')
        code, out, err = run_cli(capsys, "simulate", *args, "--n", "3", "--reps", "1000",
                                 "--policy", str(policy))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pyramid_tables_exits_1(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "value", "--model", "pyramid", "--n", "5",
                                 "--p", "0.3", "--tables", str(tmp_path / "t.csv"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_policy_tables_exits_1(self, capsys, tmp_path):
        # --tables writes the optimal policy's tables, so a policy file with
        # it is an error rather than a silently skipped flag
        policy = tmp_path / "p.json"
        policy.write_text(json.dumps(ThresholdPolicy((0.0, 1.0, 2.0, math.inf)).to_json()))
        tables = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "value", "--model", "triangular", "--n", "4",
                                 "--policy", str(policy), "--tables", str(tables))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not tables.exists()

    def test_tables_over_cell_cap_exits_1(self, capsys, tmp_path):
        # 79 steps by 10^6 + 1 lattice values: two tables of about 632 MB each
        tables = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "value", "--model", "rectangular", "--n", "78",
                                 "--k", "1000000", "--tables", str(tables))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "cells" in err and err.count("\n") == 1
        assert not tables.exists()

    def test_failed_consistency_gate_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.dp, "_CONSISTENCY_TOL", -1.0)
        code, out, err = run_cli(capsys, "value", "--model", "triangular", "--n", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("sweep", "--target", "lambda", "--grid", "0:inf:1"),
        ("sweep", "--target", "lambda", "--grid", "0:nan:1"),
        ("sweep", "--target", "lambda", "--grid", "1:2:inf"),
        ("sweep", "--target", "triangular", "--grid=-inf:100:1"),
        ("sweep", "--target", "lambda", "--grid", "0:1e300:1e-300"),
        ("fullinfo", "--sweep", "1:nan:1"),
        ("sweep", "--target", "lambda", "--grid="),
        ("fullinfo", "--sweep="),
    ], ids=["hi-inf", "hi-nan", "step-inf", "lo-inf", "count-overflow", "fullinfo-nan",
            "empty", "fullinfo-empty"])
    def test_non_finite_grid_exits_1(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("sweep", "--target", "lambda", "--grid", "0:1:1e-6"),
        ("fullinfo", "--sweep", "1:100001:1"),
    ], ids=["sweep", "fullinfo"])
    def test_grid_over_point_cap_exits_1(self, capsys, monkeypatch, args):
        # rejected before the list of points is built and any point is solved
        def unreachable(*_):
            raise AssertionError("a grid over the cap reached the solver")

        monkeypatch.setattr(cli.poisson, "rect_limit", unreachable)
        monkeypatch.setattr(cli.fullinfo, "sakaguchi_value", unreachable)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert peak < 1e6
        assert len(cli._parse_grid("1:100000:1")) == cli._MAX_GRID

    @pytest.mark.parametrize("args", [
        ("sweep", "--target", "triangular", "--grid", "1000:1001:1"),
        ("sweep", "--target", "rectangular", "--grid", "1000:1001:1"),
        ("fullinfo", "--sweep", "1000:1001:1"),
    ], ids=["triangular", "rectangular", "fullinfo"])
    def test_grid_over_work_cap_exits_1(self, capsys, monkeypatch, args):
        # 1000 + 1001 steps, one over the cap: refused before any solve
        def unreachable(*_):
            raise AssertionError("a grid over the cap reached the solver")

        monkeypatch.setattr(cli.dp, "solve", unreachable)
        monkeypatch.setattr(cli.fullinfo, "sakaguchi_value", unreachable)
        monkeypatch.setattr(cli, "_MAX_GRID_STEPS", 1000 + 1001 - 1)
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        monkeypatch.setattr(cli, "_MAX_GRID_STEPS", 1000 + 1001)
        assert cli._parse_horizons("1000:1001:1") == [1000, 1001]

    def test_work_cap_admits_default_grids(self):
        for grid in (cli._SWEEP_GRIDS["triangular"], cli._SWEEP_GRIDS["rectangular"], "10:500:10"):
            cli._parse_horizons(grid)
        # 99,010 points, under the point cap, but about 9.4e8 steps
        with pytest.raises(cli.StopRuleError):
            cli._parse_horizons("9000:10000:0.0101")

    @pytest.mark.parametrize("grid, steps, over", [
        ("1:8943:1", 8943 * 8944 // 2, "1:8944:1"),
        ("10000:10000.39995:0.0001", 4000 * 10000, "10000:10000.40005:0.0001"),
    ], ids=["1..K", "4000-points-of-1e4"])
    def test_work_cap_boundary(self, grid, steps, over):
        # The largest 1..K grid under the cap, and 4000 points of n = 10^4
        # right at it; one more point takes each over.
        assert steps <= cli._MAX_GRID_STEPS
        assert sum(cli._parse_horizons(grid)) == steps
        assert len(cli._parse_grid(over)) == len(cli._parse_grid(grid)) + 1
        with pytest.raises(cli.StopRuleError, match="steps"):
            cli._parse_horizons(over)

    def test_lambda_grid_over_level_cap_exits_1(self, capsys, monkeypatch):
        # 0.5, 0.75 and 1 need 51 + 34 + 25 automatic levels; one over the
        # cap is refused before any limit is computed
        levels = sum(map(cli.poisson._auto_k_max, (0.5, 0.75, 1.0)))
        assert levels == 110

        def unreachable(*_):
            raise AssertionError("a grid over the cap reached rect_limit")

        monkeypatch.setattr(cli.poisson, "rect_limit", unreachable)
        monkeypatch.setattr(cli, "_MAX_GRID_LEVELS", levels - 1)
        code, out, err = run_cli(capsys, "sweep", "--target", "lambda", "--grid", "0.5:1:0.25")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "levels" in err and err.count("\n") == 1
        monkeypatch.setattr(cli, "_MAX_GRID_LEVELS", levels)
        assert cli._parse_lambdas("0.5:1:0.25") == [0.5, 0.75, 1.0]

    def test_level_cap_admits_the_default_grid(self):
        # 13,861 levels; 10^5 points of lambda = 10^-4 need 3.3e10
        assert sum(map(cli.poisson._auto_k_max, cli._parse_lambdas("0.01:1:0.01"))) == 13861
        with pytest.raises(cli.StopRuleError, match="levels"):
            cli._parse_lambdas("1e-4:1.00099999e-4:1e-12")

    @pytest.mark.parametrize("grid, error", [
        ("-1:1:1", models.DomainError), ("5e-324:1:1", models.ResourceLimitError),
        ("1:800:799", models.DomainError),
    ], ids=["negative", "no-truncation", "exp-overflow"])
    def test_lambda_grid_fails_as_rect_limit_would(self, grid, error):
        # the level count reads only intensities that rect_limit accepts
        with pytest.raises(error):
            cli._parse_lambdas(grid)

    @pytest.mark.parametrize("args", [
        ("fullinfo", "--n", "41"),
        ("fullinfo", "--sweep", "40:41:1"),
        ("thresholds", "--model", "uniform01", "--n", "41"),
        ("simulate", "--model", "uniform01", "--n", "41"),
    ], ids=["fullinfo", "fullinfo-sweep", "thresholds", "simulate"])
    def test_full_information_over_cap_exits_1(self, capsys, monkeypatch, args):
        monkeypatch.setenv("STOPRULE_MAX_N", "40")
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "STOPRULE_MAX_N" in err

    def test_non_integer_max_n_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("STOPRULE_MAX_N", "abc")
        code, out, err = run_cli(capsys, "value", "--model", "triangular", "--n", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "STOPRULE_MAX_N" in err

    @pytest.mark.parametrize("args", [
        ("--model", "triangular", "--n", "50", "--reps", "10000000000000"),
        ("--model", "uniform01", "--n", "20", "--reps", "500000001"),
        ("--model", "trend-power", "--n", "100000", "--theta", "2", "--reps", "100001"),
    ], ids=["huge-reps", "one-over", "wide-model"])
    def test_simulate_over_draw_cap_exits_1(self, capsys, args):
        # replications * n above mc.MAX_DRAWS is refused before any sampling
        code, out, err = run_cli(capsys, "simulate", *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "above cap" in err


# ---------------------------------------------------------------------------
# Fuzz: small values plus the extremes the caps must refuse
# ---------------------------------------------------------------------------

_LAMBDAS = ["5e-324", "1e-300", "nan", "inf", "-1", "0", "0.5", "1", "3", "700", "1000"]
_THETAS = ["0", "nan", "inf", "-1", "1e-6", "0.5", "1", "3"]
_GRIDS = ["0.5:1:0.25", "1:1:1", "2:20:9", "10:30:10", "1e9:1e9:1", "-5:5:5", "0:10:5",
          "5e-324:5e-324:1", "0:1:0", "1:0:1", "nan:1:1", "0:inf:1", "0:1e300:1e-300",
          "1:2", "a:b:c", ""]
_POLICY_TEXTS = ["{}", "[1,2]", "not json", '{"thresholds": "12"}', '{"thresholds": ["x"]}',
                 "[" * 10_000 + "]" * 10_000]


@st.composite
def fuzz_commands(draw, workdir):
    """One argv of the stoprule CLI, with a policy file written to workdir."""
    command = draw(st.sampled_from(
        ["thresholds", "value", "fullinfo", "limit", "roots", "simulate", "sweep", "check"]))
    argv = [command]

    def flag(name, values):
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(st.sampled_from(values))}")

    small = [str(v) for v in range(1, 31)]
    if command in ("thresholds", "value", "simulate"):
        argv.append(f"--model={draw(st.sampled_from(list(cli._MODEL_FLAGS)))}")
        n = draw(st.sampled_from([*small, "100000", "0", "-3", "x"]))
        if draw(st.integers(0, 9)):
            argv.append(f"--n={n}")
        flag("k", [*small, "0", "1000000000"])
        flag("p", ["0.3", "0", "1", "-0.5", "nan"])
        flag("rho", ["0.5", "2", "0", "-1", "nan", "inf"])
        flag("theta", _THETAS)
        if command != "thresholds" and draw(st.booleans()):
            policy = workdir / "policy.json"
            if draw(st.booleans()):
                length = max(1, draw(st.sampled_from([int(n) if n.isdigit() else 1, 1, 5])))
                start = draw(st.sampled_from([-1.0, 0.0, 1.5, 7.0, 40.0]))
                step = draw(st.sampled_from([0.0, 0.5, 1.0, -1.0]))  # -1: not monotone
                values = [start + i * step for i in range(length - 1)]
                policy.write_text(json.dumps({"thresholds": values + ["inf"]}))
            else:
                policy.write_text(draw(st.sampled_from(_POLICY_TEXTS)))
            path = draw(st.sampled_from([policy, "optimal", workdir / "missing.json"]))
            argv.append(f"--policy={path}")
        if command == "value":
            flag("tables", [str(workdir / "tables.csv")])
        if command == "simulate":
            # explicit-policy runs pay n * reps draws: keep them small unless
            # the draw cap refuses them
            n_value = int(n) if n.isdigit() else 1
            reps = draw(st.sampled_from(["1", "1000", "20000", "1000000000000", "0", "-1"]))
            if reps.isdigit() and int(reps) < 10**12 and n_value * int(reps) > 2_000_000:
                reps = str(2_000_000 // n_value)
            argv.append(f"--reps={reps}")
            flag("seed", ["0", "7", "-1", str(2**64 - 1), str(2**64)])
            if draw(st.booleans()):
                argv.append("--strict-records")
    elif command == "fullinfo":
        flag("n", [*small, "100000", "0", "-2"])
        flag("sweep", ["10:40:10", "1:3:1", *_GRIDS])
    elif command == "limit":
        flag("geometry", ["rect", "tri", "circle"])
        flag("lambda", _LAMBDAS)
        flag("theta", _THETAS)
        flag("kmax", ["1", "8", "20", "10000000", "0", "-4"])
    elif command == "roots":
        flag("lambda", _LAMBDAS)
        argv.append(f"--kmax={draw(st.sampled_from(['1', '20', '50', '10000000', '0', '-4']))}")
    elif command == "sweep":
        argv.append(f"--target={draw(st.sampled_from(['triangular', 'rectangular', 'lambda']))}")
        argv.append(f"--grid={draw(st.sampled_from(_GRIDS))}")
    if command != "check":
        flag("format", ["json", "csv"])
        flag("output", [str(workdir / "out.txt"), str(workdir / "missing" / "out.txt")])
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Every generated command runs in well under a second or is refused by a cap,
# so the deadline catches a command that slips past the caps.
@settings(max_examples=300, deadline=2000)
@given(data=st.data())
def test_fuzz_exit_contract(fuzz_dir, data):
    # exit 0, 1 or argparse's 2; exit 1 is one "error:" line and no stdout
    argv = data.draw(fuzz_commands(fuzz_dir), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            assert exc.code == 2
            return
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# Commands whose exact stdout is pinned in cli_snapshot.json.  Rewrite the file
# only with a change meant to move output: PYTHONPATH=src python tests/test_cli.py
SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")
SNAPSHOT_COMMANDS = [
    "limit --geometry rect",
    "limit --geometry tri",
    "limit --theta 0.5",
    "limit --theta 1",
    "limit --theta 3",
    "limit --theta 1e-6",
    "limit --theta 100",
    "limit --theta 5e-324",
    "limit --theta 1e6",
    "limit --lambda 1",
    "limit --lambda 0.0029",
    "limit --lambda 700",
    "roots --kmax 20",
    "roots --kmax 20 --format csv",
    "roots --lambda 0.37 --kmax 50",
    "fullinfo --n 20",
    "fullinfo --sweep 10:50:10 --format csv",
    "thresholds --model triangular --n 50",
    "thresholds --model uniform01 --n 20",
    "thresholds --model rectangular --n 30 --k 12 --format csv",
    "thresholds --model pyramid --n 5 --p 0.3 --format csv",
    "value --model rectangular --n 50 --k 50",
    "value --model pyramid --n 50 --p 0.3",
    "value --model triangular --n 200",
    "simulate --model triangular --n 50 --reps 20000 --seed 3",
    "simulate --model rectangular --n 20 --k 7 --reps 20000 --seed 11 --strict-records",
    "sweep --target lambda --grid 0.5:1:0.25",
    "sweep --target rectangular --grid 20:60:20",
    "sweep --target triangular --grid 50:150:50 --format csv",
    "check",
]


def _stdout_of(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command.split())
    assert code == 0, command
    return buf.getvalue()


def test_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    assert list(want) == SNAPSHOT_COMMANDS
    for command, stdout in want.items():
        assert _stdout_of(command) == stdout, command


# Run one command in a fresh interpreter and print the modules it loaded.
# Each scipy import lives in the function that needs it, so a command pays
# only for the parts it calls.
_MODULE_PROBE = """
import contextlib, io, sys
from stoprule import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(*sys.modules)
"""


def _modules_loaded_by(command: str) -> set:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *command.split()],
                          env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def _scipy_loaded_by(command: str) -> set:
    return {m.split(".")[1] for m in _modules_loaded_by(command) if m.startswith("scipy.")}


def test_bare_import_loads_no_thread_pool():
    # mc imports concurrent.futures, and with it logging, only to sample
    assert not _modules_loaded_by("") & {"concurrent.futures", "logging"}


@pytest.mark.parametrize("command", [
    "",  # the bare import of stoprule.cli
    "sweep --target rectangular --grid 100:200:100",
    "simulate --model rectangular --n 5 --k 5 --reps 100",
    "limit --lambda 0.5",
    "sweep --target lambda --grid 0.5:0.5:0.1",
])
def test_integer_level_commands_load_no_scipy(command):
    assert _scipy_loaded_by(command) == set()


@pytest.mark.parametrize("command", [
    "fullinfo --n 20",
    "thresholds --model uniform01 --n 20",
    "simulate --model uniform01 --n 5 --reps 100",
])
def test_full_information_commands_load_no_scipy(command):
    # the threshold roots are solved by poisson.brentq, not scipy.optimize
    assert _scipy_loaded_by(command) == set()


@pytest.mark.parametrize("command", [
    "value --model triangular --n 20",
    "value --model triangular --n 20 --policy {policy}",
    "sweep --target triangular --grid 50:150:50",
    "thresholds --model triangular --n 20",
    "simulate --model triangular --n 20 --reps 100",
])
def test_triangular_commands_load_no_scipy(command, tmp_path):
    # log Gamma at the integers comes from dp._log_gamma_ints, not gammaln
    policy = tmp_path / "pol.json"
    policy.write_text(json.dumps(ThresholdPolicy((*range(1, 20), math.inf)).to_json()))
    assert _scipy_loaded_by(command.format(policy=policy)) == set()


# Explicit ids, so that a case keeps its name when another is dropped.
@pytest.mark.parametrize("command, loads, skips", [
    # the closed-form passage of the two named box geometries (theta = 1 and 1/2)
    *(pytest.param(command, {"special"}, {"optimize", "integrate"},
                   id=f"{command}-loads{i}-skips{i}")
      for i, command in enumerate(("limit --geometry rect", "limit --geometry tri",
                                   "limit --theta 0.5", "limit --theta 1", "check"), start=1)),
    # the passage integral of any other theta
    pytest.param("limit --theta 3", {"integrate"}, set(), id="limit --theta 3-loads6-skips6"),
])
def test_scipy_commands_load_only_what_they_call(command, loads, skips):
    loaded = _scipy_loaded_by(command)
    assert loads <= loaded and not loaded & skips, loaded


if __name__ == "__main__":
    snapshot = {command: _stdout_of(command) for command in SNAPSHOT_COMMANDS}
    SNAPSHOT.write_text(json.dumps(snapshot, indent=1) + "\n")
