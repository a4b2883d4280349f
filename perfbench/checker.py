"""Output checks for the benchmark's CLI commands.

Two kinds of check apply to every command output:

* Reference checks.  `references.json` holds the outputs of every command the
  default seed runs, keyed by the command line and the policy file it reads.
  A command with a stored reference must reproduce it: optimal thresholds
  identically, every other number within 1e-12 plus the rounding of 12-digit
  printing, and `simulate` output byte for byte (the CLI promises
  seed-keyed, byte-identical output).  Commands that do not depend on the
  seed (the rectangular and lambda sweeps, `fullinfo --n 2000`, `check`)
  match a reference on every seed.
* Seeded totals.  The seeded legs draw their parameters from small sets
  (workloads.py), and `seeded_totals.json` holds the exact value for every
  member: the triangular DP total for each n of the triangular grids and the
  policy evaluations, and the cold limit for each lambda.  On every seed the
  triangular sweep, the prep solve and the cold limit must match these
  within 1e-12 plus the rounding of 12-digit printing.
* Cross-route checks, which hold on any seed: Monte Carlo estimates within
  4 standard errors of the exact DP or Sakaguchi value, triangular values
  on the Poisson-limit convergence curve, a nondecreasing lambda sweep that
  ends at the integer-level limit 0.761260, and `check` passing 15/15.
"""

from __future__ import annotations

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "references.json")
TOTALS_FILE = os.path.join(HERE, "seeded_totals.json")

ABS_TOL = 1e-12
TRI_LIMIT = 0.7031284          # triangular Poisson limit
RECT_LEVEL_LIMIT = 0.761260    # integer-level limit at lambda = 1
SAMUELS = 0.580164             # full-information limit
# (v_n - TRI_LIMIT) * sqrt(n) for the exact triangular values, n >= 1000.
TRI_RATE = (0.428, 0.442)
Z_MAX = 4.0
CHECK_COUNT = 15


def ulp12(x: float) -> float:
    """One unit in the 12th significant digit of x."""
    if x == 0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(x))) - 11)


def close(got: float, want: float, roundings: int = 1) -> bool:
    """|got - want| within ABS_TOL plus the rounding of `roundings` printed
    12-digit numbers on each side."""
    return abs(got - want) <= ABS_TOL + roundings * ulp12(want)


def compare_json(got, want, path: str = "$", exact: bool = False) -> list:
    """Mismatches between two parsed CLI outputs.  Numbers under a
    "thresholds" key must be identical; other floats must be `close`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        out = []
        for key in want:
            out += compare_json(got[key], want[key], f"{path}.{key}", exact or key == "thresholds")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_json(g, w, f"{path}[{i}]", exact)
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not exact:
        return [] if close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _parse_check(text: str) -> list:
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("PASS", "FAIL"):
            rows.append((parts[0], parts[1], float(parts[2])))
    return rows


def compare_check(got: str, want: str) -> list:
    g, w = _parse_check(got), _parse_check(want)
    if [r[:2] for r in g] != [r[:2] for r in w]:
        return [f"check lines {[r[:2] for r in g]} != {[r[:2] for r in w]}"]
    return [f"check {a[1]}: {a[2]!r} != {b[2]!r}" for a, b in zip(g, w) if not close(a[2], b[2])]


def reference_key(argv, policy_text: str | None) -> str:
    key = " ".join(argv)
    return key if policy_text is None else f"{key}\n{policy_text}"


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def load_totals() -> dict:
    with open(TOTALS_FILE) as fh:
        return json.load(fh)


def compare_totals(leg: str, o: dict, totals: dict) -> list:
    """The seeded legs' totals against `seeded_totals.json`: for the
    triangular grid and the prep solve the key is n, for the cold limit
    lambda printed with six decimals."""
    if leg == "sweep_tri":
        pairs = [(str(n), v) for n, v in o["rows"]]
        table = totals["triangular"]
    elif leg == "prep_solve":
        pairs = [(str(o["model"]["n"]), o["total"])]
        table = totals["triangular"]
    elif leg == "limit_lambda":
        pairs = [(f"{o['lambda']:.6f}", o["value"])]
        table = totals["lambda"]
    else:
        return []
    out = []
    for key, got in pairs:
        if key not in table:
            out.append(f"no seeded total for {key}")
        elif not close(got, table[key]):
            out.append(f"{leg} {key}: {got!r} != seeded total {table[key]!r}")
    return out


def compare_reference(argv, got: str, want: str) -> list:
    if argv[0] == "simulate":
        return [] if got == want else ["simulate output is not byte-identical to the reference"]
    if argv[0] == "check":
        return compare_check(got, want)
    return compare_json(json.loads(got), json.loads(want))


# ---------------------------------------------------------------------------
# Cross-route checks
# ---------------------------------------------------------------------------

def _decomposition(obj: dict, total_key: str = "total") -> list:
    if not close(obj["jump"] + obj["drift"], obj[total_key], roundings=3):
        return [f"jump + drift = {obj['jump'] + obj['drift']!r} != {total_key} {obj[total_key]!r}"]
    return []


def _on_tri_curve(n: int, v: float) -> list:
    if n < 1000:
        return []
    rate = (v - TRI_LIMIT) * math.sqrt(n)
    if not TRI_RATE[0] <= rate <= TRI_RATE[1]:
        return [f"triangular v_{n} = {v!r} is off the sqrt(n) convergence curve ({rate:.4f})"]
    return []


def _solve(obj: dict) -> list:
    th = obj["thresholds"]
    out = _decomposition(obj)
    if th[-1] != "inf" or any(a > b for a, b in zip(th[:-1], th[1:-1])):
        out.append("optimal thresholds are not nondecreasing ending in inf")
    if obj["model"]["kind"] == "triangular":
        out += _on_tri_curve(obj["model"]["n"], obj["total"])
    return out


def _z_check(obj: dict, exact: float) -> list:
    z = (obj["success_rate"] - exact) / obj["std_error"]
    if abs(z) < Z_MAX:
        return []
    return [f"success rate {obj['success_rate']!r} is {z:.2f} SE from exact {exact!r}"]


def cross_checks(leg: str, outputs: dict) -> list:
    """Cross-route checks of one leg, given the outputs (parsed JSON, or text
    for `check`) of the prep commands and of every leg of the same rep."""
    o = outputs[leg]
    if leg in ("prep_solve", "prep_tri", "prep_rect"):
        return _solve(o)
    if leg == "prep_u01" or leg == "fullinfo":
        b = o["thresholds"]
        out = _decomposition(o, "v_bar")
        if b[-1] != 1.0 or any(x > y for x, y in zip(b, b[1:])) or b[0] < 0.0:
            out.append("full-information thresholds are not nondecreasing in [0, 1]")
        if not SAMUELS < o["v_bar"] < 1.0:
            out.append(f"v_bar {o['v_bar']!r} not above the Samuels limit")
        return out
    if leg == "sweep_tri":
        rows = o["rows"]
        out = [p for n, v in rows for p in _on_tri_curve(n, v)]
        if any(a[1] <= b[1] for a, b in zip(rows, rows[1:])):
            out.append("triangular values do not decrease with n")
        return out
    if leg == "sweep_rect":
        rows = o["rows"]
        if any(not RECT_LEVEL_LIMIT < v < 1.0 for _, v in rows):
            return ["rectangular values not above the integer-level limit"]
        return []
    if leg == "value_policy":
        out = _decomposition(o)
        best = outputs["prep_solve"]["total"]
        if o["total"] > best + ABS_TOL + ulp12(best):
            out.append(f"policy value {o['total']!r} above the optimum {best!r}")
        return out
    if leg in ("sim_tri", "sim_rect", "sim_u01"):
        prep, key = {"sim_tri": ("prep_tri", "total"), "sim_rect": ("prep_rect", "total"),
                     "sim_u01": ("prep_u01", "v_bar")}[leg]
        return _z_check(o, outputs[prep][key])
    if leg == "sim_strict":
        if o["tie_rate"] != outputs["sim_tri"]["tie_rate"]:
            return ["tie rate differs from sim_tri on the same draws"]
        if not 0.0 < o["success_rate"] < 1.0:
            return [f"success rate {o['success_rate']!r} outside (0, 1)"]
        return []
    if leg == "sweep_lambda":
        vals = [v for _, v in o["rows"]]
        out = []
        if any(a > b for a, b in zip(vals, vals[1:])):
            out.append("lambda sweep is not nondecreasing")
        if abs(vals[-1] - RECT_LEVEL_LIMIT) > 1e-5:
            out.append(f"lambda sweep ends at {vals[-1]!r}, not {RECT_LEVEL_LIMIT}")
        return out
    if leg == "limit_lambda":
        out = _decomposition(o, "value")
        if o["truncation_error"] > 1e-10:
            out.append(f"truncation error {o['truncation_error']!r} above 1e-10")
        first = outputs["sweep_lambda"]["rows"][0][1]
        if not SAMUELS < o["value"] <= first:
            out.append(f"limit {o['value']!r} outside (Samuels, value at lambda=0.01]")
        return out
    if leg == "check":
        rows = _parse_check(o)
        passed = sum(1 for r in rows if r[0] == "PASS")
        if passed != CHECK_COUNT or f"{CHECK_COUNT}/{CHECK_COUNT} checks passed" not in o:
            return [f"check passed {passed}/{len(rows)}, want {CHECK_COUNT}/{CHECK_COUNT}"]
        return []
    raise KeyError(f"no cross-route check for leg {leg!r}")


def parse_output(argv, text: str):
    return text if argv[0] == "check" else json.loads(text)
