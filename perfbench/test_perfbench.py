"""Tests of the benchmark itself: the output checker and the span arithmetic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import random

import pytest

import checker
import spans
from workloads import WORKLOADS, perturbed_thresholds


def _reference(prefix: str) -> tuple:
    refs = checker.load_references()
    key = next(k for k in refs if k.startswith(prefix))
    return key.split("\n")[0].split(), refs[key]


# ---------------------------------------------------------------------------
# Output checker
# ---------------------------------------------------------------------------

def test_reference_accepts_itself_and_12_digit_rounding():
    argv, text = _reference("value --model triangular --n 50")
    assert checker.compare_reference(argv, text, text) == []
    got = json.loads(text)
    got["total"] = float(f"{got['total'] + 4e-13:.12g}")
    assert checker.compare_json(got, json.loads(text)) == []


def test_checker_rejects_total_moved_by_1e_11():
    argv, text = _reference("value --model triangular --n 50")
    got = json.loads(text)
    got["total"] += 1e-11
    problems = checker.compare_reference(argv, json.dumps(got), text)
    assert problems and "$.total" in problems[0]


def test_checker_rejects_one_changed_threshold():
    argv, text = _reference("value --model triangular --n 50")
    got = json.loads(text)
    got["thresholds"][10] += 1.0
    problems = checker.compare_reference(argv, json.dumps(got), text)
    assert problems == [f"$.thresholds[10]: {got['thresholds'][10]!r} != "
                        f"{json.loads(text)['thresholds'][10]!r}"]


def test_checker_rejects_full_information_threshold_off_by_one_ulp():
    argv, text = _reference("fullinfo --n 2000")
    got = json.loads(text)
    got["thresholds"][0] = math.nextafter(got["thresholds"][0], 1.0)
    assert checker.compare_reference(argv, json.dumps(got), text)


def test_seeded_totals_cover_every_seed():
    totals = checker.load_totals()
    for seed in range(500):
        dp_params = WORKLOADS["dp_sweep"](seed).params
        for n in dp_params["tri_grid"] + [dp_params["n_eval"]]:
            assert str(n) in totals["triangular"]
        assert f"{WORKLOADS['limits'](seed).params['lambda']:.6f}" in totals["lambda"]


def test_seeded_totals_reject_a_total_moved_by_1e_11():
    totals = checker.load_totals()
    n, v = "5022", totals["triangular"]["5022"]
    solve = {"model": {"n": 5022}, "total": v}
    assert checker.compare_totals("prep_solve", solve, totals) == []
    assert checker.compare_totals("prep_solve", {**solve, "total": v + 1e-11}, totals)
    sweep = {"rows": [[int(n), v], [9099, totals["triangular"]["9099"] - 1e-11]]}
    problems = checker.compare_totals("sweep_tri", sweep, totals)
    assert len(problems) == 1 and "9099" in problems[0]
    limit = {"lambda": 0.002917, "value": totals["lambda"]["0.002917"]}
    assert checker.compare_totals("limit_lambda", limit, totals) == []
    assert checker.compare_totals("limit_lambda", {**limit, "value": limit["value"] + 1e-11},
                                  totals)
    assert checker.compare_totals("limit_lambda", {**limit, "lambda": 0.0031}, totals) == [
        "no seeded total for 0.003100"]


def test_simulate_output_must_be_byte_identical():
    argv, text = _reference("simulate --model triangular")
    assert checker.compare_reference(argv, text, text) == []
    assert checker.compare_reference(argv, text.replace(", ", ",  ", 1), text)


def test_check_battery_must_pass_15_of_15():
    argv, text = _reference("check")
    assert checker.cross_checks("check", {"check": text}) == []
    broken = text.replace("PASS oracle_tri_4", "FAIL oracle_tri_4")
    assert checker.cross_checks("check", {"check": broken})
    assert checker.compare_reference(argv, broken, text)


def test_monte_carlo_z_check():
    exact = {"prep_tri": {"total": 0.7}}
    ok = {"success_rate": 0.7 + 3.9 * 4e-4, "std_error": 4e-4}
    bad = {"success_rate": 0.7 + 4.1 * 4e-4, "std_error": 4e-4}
    assert checker.cross_checks("sim_tri", {**exact, "sim_tri": ok}) == []
    assert checker.cross_checks("sim_tri", {**exact, "sim_tri": bad})


def test_lambda_sweep_cross_check():
    _, text = _reference("sweep --target lambda")
    out = json.loads(text)
    assert checker.cross_checks("sweep_lambda", {"sweep_lambda": out}) == []
    out["rows"][5][1] = out["rows"][6][1] + 1e-9
    assert checker.cross_checks("sweep_lambda", {"sweep_lambda": out})


def test_triangular_values_must_lie_on_the_convergence_curve():
    _, text = _reference("sweep --target triangular")
    out = json.loads(text)
    assert checker.cross_checks("sweep_tri", {"sweep_tri": out}) == []
    out["rows"][1][1] += 1e-3
    assert checker.cross_checks("sweep_tri", {"sweep_tri": out})


def test_perturbed_policy_is_nondecreasing_and_not_optimal():
    _, text = _reference("value --model triangular --n 50")
    optimal = json.loads(text)["thresholds"]
    for seed in range(20):
        p = perturbed_thresholds(optimal, random.Random(seed))
        assert p[-1] == "inf" and len(p) == len(optimal)
        assert all(a <= b for a, b in zip(p[:-1], p[1:-1])) and min(p[:-1]) >= 0
        assert p != optimal


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_a_function_of_the_seed(name):
    argvs = [tuple(c.argv for c in WORKLOADS[name](seed).legs) for seed in (5, 5, 6, 7, 8)]
    assert argvs[0] == argvs[1]
    assert len(set(argvs)) > 2


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _tree():
    # main [0, 10] -> A [1, 4] -> A1 [2, 3]; main -> B [5, 9]
    return [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["dp.solve", 1.0, 4.0, 0, 100],
        ["mc.optimal_policy", 2.0, 3.0, 1, 0],
        ["mc.simulate", 5.0, 9.0, 0, 7],
    ]


def test_self_times_of_a_span_tree():
    s = spans.self_times(_tree())
    assert s == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(s) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 9.0, 12.0, 0, 0],
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_account_splits_wall_time():
    trace = {"spans": [["import", 0.5, 0.9, -1, 0]] + [
        [n, a + 1.0, b + 1.0, p + 1 if p >= 0 else -1, c] for n, a, b, p, c in _tree()]}
    acc = spans.account(trace, t_spawn=0.0, t_exit=11.1, setup_s=1.2, untraced_wall=11.0)
    assert acc["startup"] == pytest.approx(1.0)
    assert acc["self_sum"] == pytest.approx(10.0)
    assert acc["tail"] == pytest.approx(0.1)
    assert acc["problems"] == []
    late = spans.account(trace, t_spawn=0.0, t_exit=11.0 + spans.EXIT_SLACK_S + 0.1,
                         setup_s=1.5, untraced_wall=11.5)
    assert len(late["problems"]) == 1 and "slack" in late["problems"][0]
    crashed = spans.account({"spans": trace["spans"][:1]}, t_spawn=0.0, t_exit=1.0,
                            setup_s=1.0, untraced_wall=1.0)
    assert crashed["problems"] == ["the launcher recorded no cli.main span"]


def test_account_rejects_start_up_far_from_setup_s():
    trace = {"spans": [[n, a + 1.0, b + 1.0, p, c] for n, a, b, p, c in _tree()]}
    # 1.0 s start-up + 0.1 s tail against an untraced import of 0.5 s.
    acc = spans.account(trace, t_spawn=0.0, t_exit=11.1,
                        setup_s=1.1 - spans.STARTUP_SLACK_S - 0.1, untraced_wall=11.1)
    assert len(acc["problems"]) == 1 and "setup_s" in acc["problems"][0]


def test_account_rejects_traced_wall_far_from_untraced():
    trace = {"spans": [[n, a + 1.0, b + 1.0, p, c] for n, a, b, p, c in _tree()]}
    ok = spans.account(trace, t_spawn=0.0, t_exit=11.1, setup_s=1.1, untraced_wall=8.0)
    assert ok["problems"] == []
    too_slow = 11.1 * spans.WALL_FACTOR + 1.0
    too_fast = (11.1 - spans.WALL_SLACK_S - 0.1) / spans.WALL_FACTOR
    for untraced in (too_slow, too_fast):
        acc = spans.account(trace, t_spawn=0.0, t_exit=11.1, setup_s=1.1,
                            untraced_wall=untraced)
        assert len(acc["problems"]) == 1 and "untraced" in acc["problems"][0]


def test_layer_metrics_from_spans():
    limit = [["cli.main", 0.0, 3.0, -1, 0], ["poisson.rect_limit", 0.5, 2.5, 0, 0]]
    sweep = [["cli.main", 0.0, 1.0, -1, 0], ["poisson.rect_limit", 0.2, 0.7, 0, 0]]
    m = spans.layer_metrics([("dp", _tree()), ("limit_lambda", limit), ("sweep_lambda", sweep)])
    assert m["dp.solve.self_s"] == pytest.approx(2.0)
    assert m["dp.solve.ns_per_cell"] == pytest.approx(2.0 / 100 * 1e9)
    assert m["dp.cells"] == 100
    assert m["mc.draws"] == 7
    assert m["mc.optimal_policy.s"] == pytest.approx(1.0)
    assert m["poisson.rect_limit.cold_s"] == pytest.approx(2.0)
    assert m["poisson.rect_limit.sweep_s"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx(3.0 + 1.0 + 0.5)
    assert m["dp.policy_value.ns_per_cell"] == 0.0
