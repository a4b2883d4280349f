"""Command-line front end: solvers, limits, simulation and figure-data sweeps.

All numbers are printed with 12 significant digits so repeated runs are
byte-identical.  Exit codes: 0 success, 2 flag errors (argparse), 1
computation errors (caps, precision, invalid policies).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import dp, fullinfo, mc, models, poisson
from .models import ObservationModel, StopRuleError, ThresholdPolicy

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _round12(obj):
    if isinstance(obj, float):
        return _fmt(obj) if math.isinf(obj) else float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write JSON (default) or CSV to --output / stdout.  CSV rows may be a
    generator; they are written as they are produced."""
    if getattr(args, "format", "json") == "csv":
        if csv_rows is None:
            raise StopRuleError("this subcommand has no CSV form")
        lines = itertools.chain(
            [",".join(csv_header) + "\n"],
            (",".join(_fmt(v) for v in row) + "\n" for row in csv_rows),
        )
    else:
        lines = [json.dumps(_round12(payload)) + "\n"]
    _write(args, lines)


def _write(args, chunks):
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# --model names and the kinds they build; each kind reads its parameters
# (models.MODEL_PARAMS) from the flags of the same name.
_MODEL_FLAGS = {
    "triangular": models.TRIANGULAR,
    "rectangular": models.RECTANGULAR,
    "pyramid": models.BERNOULLI_PYRAMID,
    "uniform01": models.IID_UNIFORM01,
    "trend-shifted": models.TREND_SHIFTED,
    "trend-scaled": models.TREND_SCALED,
    "trend-power": models.TREND_POWER,
}


def _model_from_args(args) -> ObservationModel:
    if args.n is None:
        raise StopRuleError("--n is required")
    kind = _MODEL_FLAGS[args.model]
    params = {name: getattr(args, name) for name in models.MODEL_PARAMS[kind]}
    if "k" in params and params["k"] is None:
        params["k"] = args.n  # the rectangular support defaults to 1..n
    for name, value in params.items():
        if value is None:
            raise StopRuleError(f"--{name} is required for the {args.model} model")
    return ObservationModel(kind, args.n, **params)


def _load_policy(path: str) -> ThresholdPolicy:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise StopRuleError(f"policy file {path} is not valid JSON: {exc}") from exc
    return ThresholdPolicy.from_json(obj)


_MAX_GRID = 100_000  # most points in a --grid or --sweep


def _parse_grid(text: str):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise StopRuleError(f"grid must be lo:hi:step, got {text!r}") from exc
    if not (step > 0 and lo <= hi and all(map(math.isfinite, (lo, hi, step, (hi - lo) / step)))):
        raise StopRuleError(f"bad grid {text!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > _MAX_GRID:
        raise StopRuleError(f"grid {text!r} has {count} points, above the cap of {_MAX_GRID}")
    return [lo + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_thresholds(args) -> int:
    model = _model_from_args(args)
    policy = mc.optimal_policy(model)
    payload = {"model": model.to_json(), **policy.to_json()}
    rows = [(j + 1, b) for j, b in enumerate(policy.thresholds)]
    _emit(args, payload, rows, ("j", "b"))
    return 0


def _cmd_value(args) -> int:
    model = _model_from_args(args)
    if args.policy and args.policy != "optimal":
        if args.tables:
            raise StopRuleError("--tables is not supported with a --policy file")
        decomposition = dp.policy_value(model, _load_policy(args.policy))
        payload = {"model": model.to_json(), **decomposition.to_json()}
        _emit(args, payload)
        return 0
    sol = dp.solve(model, keep_tables=bool(args.tables))
    if args.tables:
        if sol.tables is None:
            raise StopRuleError(f"{model.kind} has no value tables")
        stop_tab, cont_tab = sol.tables.as_arrays()
        with open(args.tables, "w") as fh:
            fh.write("j,x,s,v\n")
            for j, x in sol.tables.states():
                fh.write(f"{j},{x},{_fmt(float(stop_tab[j, x]))},{_fmt(float(cont_tab[j, x]))}\n")
    _emit(args, sol.to_json())
    return 0


def _cmd_fullinfo(args) -> int:
    if args.sweep:
        ns = [int(round(v)) for v in _parse_grid(args.sweep)]
        rows = [(n, fullinfo.sakaguchi_value(n)) for n in ns]
        payload = {"sweep": [{"n": n, "v_bar": v} for n, v in rows]}
        _emit(args, payload, rows, ("n", "v_bar"))
        return 0
    n = args.n
    if n is None:
        raise StopRuleError("--n is required")
    policy = fullinfo.gm_optimal_thresholds(n)
    d = fullinfo.gm_success(n, policy.thresholds)
    payload = {
        "n": n,
        "thresholds": list(policy.thresholds),
        "v_bar": fullinfo.sakaguchi_value(n),
        "jump": d.jump,
        "drift": d.drift,
    }
    _emit(args, payload)
    return 0


def _cmd_limit(args) -> int:
    chosen = [args.geometry is not None, args.lam is not None, args.theta is not None]
    if sum(chosen) != 1:
        raise StopRuleError("pick exactly one of --geometry, --lambda, --theta")
    if args.geometry is not None:
        report = poisson.beta_star(args.geometry)
        _, jump, drift = poisson.GEOMETRIES[args.geometry]
        payload = {
            "geometry": args.geometry,
            "beta_star": report.root,
            "value": poisson.success_prob_boundary(args.geometry, report.root),
            "jump": jump(report.root),
            "drift": drift(report.root),
            "residual": report.residual,
        }
    elif args.lam is not None:
        d = poisson.rect_limit(args.lam, k_max=args.kmax)
        payload = {
            "lambda": args.lam,
            "value": d.total,
            "jump": d.jump,
            "drift": d.drift,
            "truncation_error": poisson.rect_limit_tail_bound(args.lam, args.kmax),
        }
    else:
        report = poisson.theta_beta_star(args.theta)
        payload = {
            "theta": args.theta,
            "beta_star": report.root,
            "value": poisson.theta_limit(args.theta),
        }
    _emit(args, payload)
    return 0


def _cmd_roots(args) -> int:
    ladder = poisson.rect_roots(args.kmax, args.lam)
    levels = range(1, args.kmax + 1)
    if args.format == "csv":
        rows = ((k, ladder.root(k), ladder.cutoff(k)) for k in levels)
        _emit(args, None, rows, ("k", "z", "t"))
        return 0

    # Written in blocks of levels, so memory does not grow with --kmax; the
    # bytes are those of json.dumps on the whole {"lambda", "roots": [...]}.
    def blocks():
        for lo in range(0, args.kmax, 4096):
            rows = [{"k": k, "z": ladder.root(k), "t": ladder.cutoff(k)}
                    for k in levels[lo : lo + 4096]]
            yield (", " if lo else "") + json.dumps(_round12(rows))[1:-1]

    head = json.dumps(_round12({"lambda": args.lam, "roots": []}))[:-2]
    _write(args, itertools.chain([head], blocks(), ["]}\n"]))
    return 0


def _cmd_simulate(args) -> int:
    model = _model_from_args(args)
    policy = "optimal"
    if args.policy and args.policy != "optimal":
        policy = _load_policy(args.policy)
    config = mc.SimConfig(
        model=model,
        policy=policy,
        replications=args.reps,
        seed=args.seed,
        record_semantics="strict" if args.strict_records else "weak",
    )
    result = mc.simulate(config)
    payload = {"model": model.to_json(), "seed": args.seed, **result.to_json()}
    _emit(args, payload)
    return 0


def _cmd_sweep(args) -> int:
    if args.target == "lambda":
        grid = _parse_grid(args.grid or "0.01:1:0.01")
        rows = [(lam, poisson.rect_limit(lam).total) for lam in grid]
        header = ("lambda", "value")
    else:
        default = "100:9000:100" if args.target == "triangular" else "100:2000:100"
        grid = [int(round(v)) for v in _parse_grid(args.grid or default)]
        rows = []
        for n in grid:
            model = (ObservationModel.triangular(n) if args.target == "triangular"
                     else ObservationModel.rectangular(n, n))
            rows.append((n, dp.solve(model).decomposition.total))
        header = ("n", "v")
    payload = {"target": args.target, "rows": [list(r) for r in rows]}
    _emit(args, payload, rows, header)
    return 0


def _cmd_check(args) -> int:
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    r = poisson.beta_star("rect").root
    add("beta_star_rect", abs(r - 0.804352) < 1e-5, r)
    t = poisson.beta_star("tri").root
    add("beta_star_tri", abs(t - 0.760660) < 1e-5, t)
    s = poisson.samuels_value()
    add("samuels_value", abs(s - 0.580164) < 1e-5, s)
    v = poisson.success_prob_boundary("tri", t)
    add("tri_limit", abs(v - 0.703128) < 1e-5, v)
    d = poisson.rect_limit(1.0).total
    add("rect_levels_limit", abs(d - 0.761260) < 1e-5, d)
    z2 = poisson.rect_roots(2).root(2)
    add("ladder_z2", abs(z2 - math.sqrt(3.0)) < 1e-9, z2)
    for n in (2, 3, 4, 5):
        model = ObservationModel.rectangular(n, n)
        got = dp.solve(model).decomposition.total
        want = dp.brute_force_oracle(model)
        add(f"oracle_rect_{n}", abs(got - want) < 1e-12, got - want)
    for n in (2, 4, 6):
        model = ObservationModel.triangular(n)
        got = dp.solve(model).decomposition.total
        want = dp.brute_force_oracle(model)
        add(f"oracle_tri_{n}", abs(got - want) < 1e-12, got - want)
    for n in (5, 40):
        report = mc.bounds_check(n, n, reps=20_000, seed=7)
        add(f"sandwich_{n}", report.exact_in_bounds and report.simulated_in_bounds,
            report.exact_value)

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'} {name} {_fmt(detail)}\n")
    sys.stdout.write(f"{len(checks) - len(failed)}/{len(checks)} checks passed\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoprule",
        description="Best-choice (sample minimum) solvers, limits and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("--model", required=True, choices=_MODEL_FLAGS)
        p.add_argument("--n", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--p", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--theta", type=float)

    def add_output_flags(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output")

    p = sub.add_parser("thresholds", help="optimal thresholds for a model")
    add_model_flags(p)
    add_output_flags(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("value", help="solve a model or evaluate a policy file")
    add_model_flags(p)
    p.add_argument("--policy", help="path to a policy JSON, or 'optimal'")
    p.add_argument("--tables", help="write value tables as CSV (j,x,s,v)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("fullinfo", help="iid uniform-[0,1] game values")
    p.add_argument("--n", type=int)
    p.add_argument("--sweep", help="n grid lo:hi:step; emits n,v_bar rows")
    add_output_flags(p)
    p.set_defaults(func=_cmd_fullinfo)

    p = sub.add_parser("limit", help="Poisson-limit constants")
    p.add_argument("--geometry", choices=poisson.GEOMETRIES)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--kmax", type=int)
    add_output_flags(p)
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("roots", help="integer-level boundary roots z_k")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--kmax", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimate")
    add_model_flags(p)
    p.add_argument("--policy", default="optimal")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict-records", action="store_true")
    add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="value grids behind the standard figures")
    p.add_argument("--target", required=True, choices=["triangular", "rectangular", "lambda"])
    p.add_argument("--grid", help="lo:hi:step; defaults mirror the standard plots")
    add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="quick self-verification battery")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StopRuleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
