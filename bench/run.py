"""The bench harness: in-process timings of the exact DP pass and the Monte
Carlo harness, and cold-start timings of the CLI.

    python bench/run.py --label change --out BENCH.json
    python bench/run.py --label parent --src ../parent/src --out BENCH.json

Imports stoprule from --src (default: this checkout's src/) and times every
row of ROWS: five DP passes, triangular(2000) with its value tables,
triangular(9000) then triangular(5000), the 90 triangular solves of the
acceptance c05 grid, the four 500k-replication simulations of the perfbench
mc_simulate workload, and the bare `import stoprule.cli` and thirteen CLI
commands, each in a fresh interpreter with --src on PYTHONPATH, timed as the
wall time of the whole process.  The cold
`--policy FILE` row reads the perturbed policy of triangular(5000) that the
in-process policy_value row evaluates, written to a temporary file, and the
`--tables OUT` row writes its CSV to a temporary file.  Every
timed triangular solve starts from empty triangular records (`dp._TRIANGULAR`,
where the source has them), so a single solve times one whole backward pass
and the grid row one pass to its largest n.  The descending pair times what a
smaller horizon costs after a larger one: a read of the shared records where
they serve every horizon, a pass of its own where they serve only larger
ones.  A solve row above the default step cap (triangular(20000)) raises
STOPRULE_MAX_N to its largest n while it runs, and only then.

Each row runs once untimed, and that output gives the row's extra fields; a
simulation then runs once more under tracemalloc, so that its peak leaves out
first-call imports and caches.  REPS timed calls follow, each of which must
return the first output.  One column, named --label, is merged into the --out
JSON, keeping the columns already there, so two checkouts can be measured into
one file.  A cell holds the median and interquartile range of the wall times
in seconds; a solve or policy_value cell also the sha256 of its thresholds and
the hex of its jump and drift (and of both tables' bytes for a solve with
tables), a simulation cell its SimResult and peak traced
allocation in MB, a cold cell the scipy subpackages loaded and the sha256 of
its stdout (and of the CSV it wrote, for `--tables OUT`).  Equal digests in
two columns mean bit-identical outputs.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

REPS = 7
MC_REPS = 500_000
COLD = ("", "sweep --target rectangular --grid 1000:2000:500",
        "sweep --target triangular --grid 5000:9000:4000", "value --model triangular --n 5000",
        "value --model triangular --n 5000 --policy FILE",
        "simulate --model rectangular --n 50 --k 50 --reps 500000 --seed 1",
        "simulate --model triangular --n 50 --reps 500000 --seed 1",
        "simulate --model uniform01 --n 20 --reps 500000 --seed 1",
        "limit --lambda 0.003", "limit --geometry tri", "limit --theta 3", "fullinfo --n 2000",
        "check", "value --model rectangular --n 999 --k 999 --tables OUT")
ROWS = (  # (row name, kind, arguments of the kind)
    ("solve triangular(5000)", "solve", ("triangular", 5000)),
    ("solve triangular(9000)", "solve", ("triangular", 9000)),
    ("solve rectangular(2000, 2000)", "solve", ("rectangular", 2000, 2000)),
    ("solve triangular(20000)", "solve", ("triangular", 20000)),
    ("solve triangular(2000) with tables", "tables", ("triangular", 2000)),
    ("solve triangular 9000 then 5000", "solve", ("triangular", 9000), ("triangular", 5000)),
    ("policy_value perturbed triangular(5000)", "policy_value", ("triangular", 5000)),
    ("solve triangular 100..9000:100 (c05 grid)", "solve",
     *(("triangular", n) for n in range(100, 9001, 100))),
    ("simulate triangular(50)", "simulate", ("triangular", 50), "optimal", "weak", 11),
    ("simulate rectangular(50, 50)", "simulate", ("rectangular", 50, 50), "optimal", "weak", 12),
    ("simulate uniform01(20)", "simulate", ("iid_uniform01", 20), "optimal", "weak", 13),
    ("simulate triangular(50) strict, perturbed", "simulate", ("triangular", 50), "perturbed",
     "strict", 11),
    *((command or "import stoprule.cli", "cold", command) for command in COLD),
)
# Runs one command like `python -m stoprule.cli` (none: import only), then
# writes the public scipy subpackages it loaded as the last line of stderr.
PROBE = """
import sys
from stoprule import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
print(*sorted({m.split(".")[1] for m in sys.modules
              if m.startswith("scipy.") and not m.startswith("scipy._")}), file=sys.stderr)
sys.exit(code)
"""


def machine() -> dict:
    try:
        lines = subprocess.run(["lscpu"], capture_output=True, text=True).stdout.splitlines()
    except OSError:
        lines = []
    fields = {key.strip(): value.strip() for key, _, value in (s.partition(":") for s in lines)}
    keep = ("Model name", "L1d cache", "L2 cache", "L3 cache")
    return {**{key: fields[key] for key in keep if key in fields}, "cpus": os.cpu_count()}


def merge_column(path: str, label: str, column: dict) -> None:
    """Write column under label into the JSON file at path, keeping the
    columns already there, with the machine and library versions."""
    import numpy as np
    import scipy

    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(bench="bench/run.py", reps=REPS, machine=machine(),
               versions={"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__})
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


def bits_sha256(results, tables=()) -> dict:
    """The extra field of a solve or policy_value row: the sha256 over
    (thresholds, Decomposition) pairs of the thresholds and the hex of the
    jump and drift, then over the bytes of each table in tables."""
    text = "\n".join(" ".join([*map(repr, thresholds), d.jump.hex(), d.drift.hex()])
                     for thresholds, d in results)
    digest = hashlib.sha256(text.encode())
    for table in tables:
        digest.update(table)
    return {"bits_sha256": digest.hexdigest()}


def rows(src: str, tmp: str):
    """(name, call, extra) per row of ROWS: call() runs the row once and
    returns its output, extra(output) gives the row's extra fields.  Files
    that cold rows read are written to the directory tmp."""
    sys.path.insert(0, src)
    from stoprule import dp, mc
    from stoprule.models import ObservationModel, ThresholdPolicy

    def model(spec):
        return getattr(ObservationModel, spec[0])(*spec[1:])

    def perturbed_policy(m):
        return ThresholdPolicy(perturbed(dp.solve(m).policy.thresholds))

    def solve(*specs):
        models = [model(spec) for spec in specs]
        top = max(m.n for m in models)
        cap = {"STOPRULE_MAX_N": str(top)} if top > dp.DEFAULT_MAX_N else {}

        def call():
            records = getattr(dp, "_TRIANGULAR", None)  # absent before the shared pass
            if records is not None:
                records.clear()
            with mock.patch.dict(os.environ, cap):
                return [dp.solve(m) for m in models]
        return call, lambda sols: bits_sha256((s.policy.thresholds, s.decomposition) for s in sols)

    def tables(spec):
        m = model(spec)

        def call():  # byte views of the tables, so two outputs compare by value
            sol = dp.solve(m, keep_tables=True)
            return (sol.policy.thresholds, sol.decomposition,
                    [memoryview(t).cast("B") for t in sol.tables.as_arrays()])
        return call, lambda out: bits_sha256([out[:2]], out[2])

    def policy_value(spec):
        m, policy = model(spec), perturbed_policy(model(spec))
        return lambda: dp.policy_value(m, policy), lambda d: bits_sha256([((), d)])

    def simulate(spec, policy, semantics, seed):
        m = model(spec)
        config = mc.SimConfig(model=m, replications=MC_REPS, seed=seed,
                              policy=perturbed_policy(m) if policy == "perturbed" else policy,
                              record_semantics=semantics)

        def call():
            return mc.simulate(config).to_json()

        def extra(result):
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return {"peak_traced_mb": round(peak / 2**20, 1), "result": result}
        return call, extra

    def cold(command):
        argv = command.split()
        if "FILE" in argv:
            path = os.path.join(tmp, "policy.json")
            with open(path, "w") as fh:
                json.dump(perturbed_policy(model(("triangular", 5000))).to_json(), fh)
            argv[argv.index("FILE")] = path
        out = os.path.join(tmp, "tables.csv") if "OUT" in argv else None
        if out:
            argv[argv.index("OUT")] = out

        def call():
            proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, check=True)
            written = {}
            if out:
                with open(out, "rb") as fh:
                    written["csv_sha256"] = hashlib.sha256(fh.read()).hexdigest()
            return proc.stdout, proc.stderr.decode().splitlines()[-1].split(), written

        def extra(output):
            return {"scipy": ["scipy." + p for p in output[1]],
                    "stdout_sha256": hashlib.sha256(output[0]).hexdigest(), **output[2]}
        return call, extra

    kinds = {"solve": solve, "tables": tables, "policy_value": policy_value, "simulate": simulate,
             "cold": cold}
    for name, kind, *arguments in ROWS:
        yield (name, *kinds[kind](*arguments))


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    ap.add_argument("--out", required=True, help="JSON file to merge the column into")
    args = ap.parse_args(argv)

    column = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, call, extra in rows(os.path.abspath(args.src), tmp):
            first = call()
            cell = extra(first)
            times = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                output = call()
                times.append(time.perf_counter() - t0)
                if output != first:
                    raise SystemExit(f"{name}: output differs between runs")
            q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
            column[name] = {"median_s": round(med, 4), "iqr_s": round(q3 - q1, 4), **cell}
            shown = (f"peak {cell['peak_traced_mb']:.1f} MB" if "peak_traced_mb" in cell
                     else " ".join(cell.get("scipy", ())))
            print(f"{args.label:>8}  {name:<66} {med:7.3f} s  (IQR {q3 - q1:.3f})  {shown}",
                  flush=True)

    merge_column(args.out, args.label, column)
    return 0


if __name__ == "__main__":
    sys.exit(main())
