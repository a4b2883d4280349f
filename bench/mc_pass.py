"""In-process timings of the Monte Carlo harness (mc.simulate).

    python bench/mc_pass.py --label change --out BENCH.json
    python bench/mc_pass.py --label parent --src ../parent/src --out BENCH.json

Imports stoprule from --src (default: this checkout's src/) and runs the four
500k-replication simulations of the perfbench mc_simulate workload: weak
records under the optimal policy for triangular(50), rectangular(50, 50) and
uniform01(20), and strict records under a perturbed policy for triangular(50).
Each row is timed REPS times after one untimed warm-up call, whose result and
tracemalloc peak are recorded too.  One column, named --label, is merged into
the --out JSON; columns already in the file are kept, so two checkouts can be
measured into one file.  Each cell holds the median and the interquartile
range of the wall times in seconds, the peak traced allocation in MB and the
SimResult, so the columns show whether the outputs are identical.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import tracemalloc

from dp_pass import merge_column, perturbed

REPS = 5
MC_REPS = 500_000
ROWS = (
    ("simulate triangular(50)", ("triangular", 50), "optimal", "weak", 11),
    ("simulate rectangular(50, 50)", ("rectangular", 50, 50), "optimal", "weak", 12),
    ("simulate uniform01(20)", ("iid_uniform01", 20), "optimal", "weak", 13),
    ("simulate triangular(50) strict, perturbed", ("triangular", 50), "perturbed", "strict", 11),
)


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    ap.add_argument("--out", required=True, help="JSON file to merge the column into")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from stoprule import dp, mc
    from stoprule.models import ObservationModel, ThresholdPolicy

    column = {}
    for name, spec, policy, semantics, seed in ROWS:
        model = getattr(ObservationModel, spec[0])(*spec[1:])
        if policy == "perturbed":
            policy = ThresholdPolicy(perturbed(dp.solve(model).policy.thresholds))
        config = mc.SimConfig(model=model, policy=policy, replications=MC_REPS, seed=seed,
                              record_semantics=semantics)
        tracemalloc.start()
        result = mc.simulate(config)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            mc.simulate(config)
            times.append(time.perf_counter() - t0)
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
        column[name] = {"median_s": round(med, 4), "iqr_s": round(q3 - q1, 4),
                        "peak_traced_mb": round(peak / 2**20, 1), "result": result.to_json()}
        print(f"{args.label:>8}  {name:<42} {med:8.3f} s  (IQR {q3 - q1:.3f}),"
              f" peak {peak / 2**20:6.1f} MB", flush=True)

    merge_column(args.out, "bench/mc_pass.py", REPS, args.label, column)
    return 0


if __name__ == "__main__":
    sys.exit(main())
