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

import numpy as np

from . import dp, fullinfo, mc, models, poisson
from .models import ObservationModel, StopRuleError, ThresholdPolicy

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{x:.12g}" if isinstance(x, float) else str(x)  # inf reads inf, -inf -inf


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
    _write(getattr(args, "output", None), lines)


def _write(path, chunks):
    """Write chunks, as they are produced, to the file at path or to stdout."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# --model names and the kinds they build; each kind reads its parameters
# (models.MODEL_PARAMS) from the flags of the same name.  Every flag given is
# passed on, so ObservationModel refuses one its kind does not take.
_MODEL_FLAGS = {
    "triangular": models.TRIANGULAR,
    "rectangular": models.RECTANGULAR,
    "pyramid": models.BERNOULLI_PYRAMID,
    "uniform01": models.IID_UNIFORM01,
    "trend-shifted": models.TREND_SHIFTED,
    "trend-scaled": models.TREND_SCALED,
    "trend-power": models.TREND_POWER,
}
_PARAM_TYPES = {"k": int, "p": float, "rho": float, "theta": float}


def _model_from_args(args) -> ObservationModel:
    kind = _MODEL_FLAGS[args.model]
    params = {name: getattr(args, name) for name in _PARAM_TYPES
              if getattr(args, name) is not None}
    if kind == models.RECTANGULAR:
        params.setdefault("k", args.n)  # the rectangular support defaults to 1..n
    for name in models.MODEL_PARAMS[kind]:
        if name not in params:
            raise StopRuleError(f"--{name} is required for the {args.model} model")
    return ObservationModel(kind, args.n, **params)


def _refuse_constant(token: str):
    # json reads the non-JSON tokens Infinity, -Infinity and NaN by default
    raise ValueError(f"{token} is not a JSON value")


def _load_policy(path: str) -> ThresholdPolicy:
    with open(path) as fh:
        try:
            obj = json.load(fh, parse_constant=_refuse_constant)
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


# Most work in a grid of horizons: the sum of n over its points.  The windowed
# DP pass and fullinfo's sums cost per step, not per lattice cell: in-process,
# on one 2-core Xeon, rectangular(n, n) takes about 10 us a step from n = 300
# to 10^4 (4.7 ms a pass at n = 400, 0.35 ms at n = 10) and sakaguchi_value(n)
# 5 to 12 us.  So the dearest grids under this cap and the point cap, 4000
# fullinfo points of n = 10^4 and 10^5 rectangular points of n = 400, take
# about 8 minutes.  A triangular sweep costs one pass to its largest n and
# about 0.4 us a step more.
_MAX_GRID_STEPS = 4 * 10**7


def _parse_horizons(text: str) -> list[int]:
    ns = [int(round(v)) for v in _parse_grid(text)]
    return _within_cap(text, ns, sum(ns), _MAX_GRID_STEPS, "steps (sum of n)")


# Most work in a grid of intensities: the sum of rect_limit's automatic k_max.
# In-process, on one 2-core Xeon, rect_limit takes 1.8 to 2.9 us a level (the
# most at lambda near 0.007) and 0.2 ms a point: the dearest grids take 10 min.
_MAX_GRID_LEVELS = 2 * 10**8


def _parse_lambdas(text: str) -> list[float]:
    lams, levels = _parse_grid(text), 0
    for lam in lams:  # rect_limit's checks in its order, so a bad lam fails as there
        poisson._check_lam(lam)
        levels += poisson._auto_k_max(lam)
    return _within_cap(text, lams, levels, _MAX_GRID_LEVELS, "levels (sum of k_max)")


def _within_cap(text: str, points: list, work: int, cap: int, unit: str) -> list:
    if work > cap:
        raise StopRuleError(f"grid {text!r} needs {work:.3g} {unit}, above the cap of {cap:.0e}")
    return points


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
        stop, cont = sol.tables.as_arrays()

        def rows():  # one step's row at a time: its lattice cells in x order
            for j in range(1, model.n + 1):
                xs = np.flatnonzero(~np.isnan(stop[j]))
                yield "".join(f"{j},{x},{s:.12g},{v:.12g}\n" for x, s, v in
                              zip(xs.tolist(), stop[j, xs].tolist(), cont[j, xs].tolist()))
        _write(args.tables, itertools.chain(["j,x,s,v\n"], rows()))
    _emit(args, sol.to_json())
    return 0


def _cmd_fullinfo(args) -> int:
    if args.sweep is not None:
        ns = _parse_horizons(args.sweep)
        rows = [(n, fullinfo.sakaguchi_value(n)) for n in ns]
        payload = {"sweep": [{"n": n, "v_bar": v} for n, v in rows]}
        _emit(args, payload, rows, ("n", "v_bar"))
        return 0
    n = args.n
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
    if args.lam is not None:
        d = poisson.rect_limit(args.lam, k_max=args.kmax)
        payload = {
            "lambda": args.lam,
            "value": d.total,
            "jump": d.jump,
            "drift": d.drift,
            "truncation_error": poisson.rect_limit_tail_bound(args.lam, args.kmax),
        }
    else:
        if args.geometry is not None:
            theta, payload = poisson.GEOMETRIES[args.geometry], {"geometry": args.geometry}
        else:
            theta, payload = args.theta, {"theta": args.theta}
        report = poisson.beta_star(theta)
        payload["beta_star"] = report.root
        payload["value"] = poisson.success_prob_boundary(theta, report.root)
        if args.geometry is not None:
            payload["jump"] = poisson.jump_success(theta, report.root)
            payload["drift"] = poisson.drift_success(theta, report.root)
            payload["residual"] = report.residual
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
    _write(args.output, itertools.chain([head], blocks(), ["]}\n"]))
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


_SWEEP_GRIDS = {"lambda": "0.01:1:0.01", "triangular": "100:9000:100",
                "rectangular": "100:2000:100"}


def _cmd_sweep(args) -> int:
    grid = _SWEEP_GRIDS[args.target] if args.grid is None else args.grid
    if args.target == "lambda":
        rows = [(lam, poisson.rect_limit(lam).total) for lam in _parse_lambdas(grid)]
        header = ("lambda", "value")
    else:
        rows = []
        for n in _parse_horizons(grid):
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

    r = poisson.beta_star(1.0).root
    add("beta_star_rect", abs(r - 0.804352) < 1e-5, r)
    t = poisson.beta_star(0.5).root
    add("beta_star_tri", abs(t - 0.760660) < 1e-5, t)
    s = poisson.samuels_value()
    add("samuels_value", abs(s - 0.580164) < 1e-5, s)
    v = poisson.success_prob_boundary(0.5, t)
    add("tri_limit", abs(v - 0.703128) < 1e-5, v)
    d = poisson.rect_limit(1.0).total
    add("rect_levels_limit", abs(d - 0.761260) < 1e-5, d)
    z2 = poisson.rect_roots(2).root(2)
    add("ladder_z2", abs(z2 - math.sqrt(3.0)) < 1e-9, z2)
    for name, model in [*((f"rect_{n}", ObservationModel.rectangular(n, n)) for n in (2, 3, 4, 5)),
                        *((f"tri_{n}", ObservationModel.triangular(n)) for n in (2, 4, 6))]:
        got = dp.solve(model).decomposition.total
        want = dp.brute_force_oracle(model)
        add(f"oracle_{name}", abs(got - want) < 1e-12, got - want)
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
        p.add_argument("--n", type=int, required=True)
        for name, kind in _PARAM_TYPES.items():
            p.add_argument(f"--{name}", type=kind)

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
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int)
    mode.add_argument("--sweep", help="n grid lo:hi:step; emits n,v_bar rows")
    add_output_flags(p)
    p.set_defaults(func=_cmd_fullinfo)

    p = sub.add_parser("limit", help="Poisson-limit constants")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--geometry", choices=poisson.GEOMETRIES)
    mode.add_argument("--lambda", dest="lam", type=float)
    mode.add_argument("--theta", type=float)
    p.add_argument("--kmax", type=int, help="levels kept by --lambda")
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
    if args.command == "limit" and args.kmax is not None and args.lam is None:
        parser.error("limit: --kmax applies only with --lambda")
    try:
        return args.func(args)
    except (StopRuleError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
