"""In-process timings of the exact DP pass (dp._lattice_pass).

    python bench/dp_pass.py --label change --out BENCH.json
    python bench/dp_pass.py --label parent --src ../parent/src --out BENCH.json

Imports stoprule from --src (default: this checkout's src/), times every row
REPS times after one untimed warm-up call, and merges one column, named
--label, into the --out JSON.  Columns already in the file are kept, so two
checkouts can be measured into one file.  Each cell holds the median and the
interquartile range of the wall times in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

REPS = 5
ROWS = (
    ("solve triangular(5000)", "solve", ("triangular", 5000)),
    ("solve triangular(9000)", "solve", ("triangular", 9000)),
    ("solve rectangular(2000, 2000)", "solve", ("rectangular", 2000, 2000)),
    ("policy_value perturbed triangular(5000)", "policy", ("triangular", 5000)),
)


def machine() -> dict:
    try:
        lines = subprocess.run(["lscpu"], capture_output=True, text=True).stdout.splitlines()
    except OSError:
        lines = []
    keep = ("Model name", "L1d cache", "L2 cache", "L3 cache")
    out = {}
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() in keep:
            out[key.strip()] = value.strip()
    out["cpus"] = os.cpu_count()
    return out


def merge_column(path: str, bench: str, reps: int, label: str, column: dict) -> None:
    """Write column under label into the JSON file at path, keeping the
    columns already there, with the machine and library versions."""
    import numpy as np
    import scipy

    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["bench"] = bench
    doc["reps"] = reps
    doc["machine"] = machine()
    doc["versions"] = {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__}
    doc.setdefault("columns", {})[label] = column
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def perturbed(thresholds) -> tuple:
    """Finite thresholds moved by -3..3 in a fixed pattern, clamped at 0 and
    kept nondecreasing; the last stays +inf."""
    out, top = [], 0.0
    for j, t in enumerate(thresholds[:-1]):
        top = max(top, t + (j * 5) % 7 - 3, 0.0)
        out.append(top)
    return tuple(out) + (math.inf,)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    ap.add_argument("--out", required=True, help="JSON file to merge the column into")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from stoprule import dp
    from stoprule.models import ObservationModel, ThresholdPolicy

    def model(spec):
        return getattr(ObservationModel, spec[0])(*spec[1:])

    column = {}
    for name, what, spec in ROWS:
        m = model(spec)
        if what == "solve":
            def call(m=m):
                dp.solve(m)
        else:
            policy = ThresholdPolicy(perturbed(dp.solve(m).policy.thresholds))

            def call(m=m, policy=policy):
                dp.policy_value(m, policy)
        call()
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
        column[name] = {"median_s": round(med, 4), "iqr_s": round(q3 - q1, 4)}
        print(f"{args.label:>8}  {name:<42} {med:8.3f} s  (IQR {q3 - q1:.3f})", flush=True)

    merge_column(args.out, "bench/dp_pass.py", REPS, args.label, column)
    return 0


if __name__ == "__main__":
    sys.exit(main())
