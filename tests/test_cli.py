import json
import math
import tracemalloc

import pytest

from stoprule import cli
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
        code, _, err = run_cli(capsys, "limit")
        assert code == 1
        assert "error" in err

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
    ], ids=["limit-1000", "limit-nan", "roots-1000"])
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
        code, _, err = run_cli(capsys, "thresholds", "--model", "uniform01")
        assert code == 1
        assert "--n" in err

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
    ], ids=["hi-inf", "hi-nan", "step-inf", "lo-inf", "count-overflow", "fullinfo-nan"])
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
