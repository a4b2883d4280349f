"""Cold-start timings of the stoprule CLI, one fresh interpreter per run.

    python bench/cold_start.py --label change --out BENCH.json
    python bench/cold_start.py --label parent --src ../parent/src --out BENCH.json

Runs each row in a new Python process with --src (default: this checkout's
src/) on PYTHONPATH: the bare `import stoprule.cli`, then four cold commands.
Each row is run once untimed, then REPS times; the wall time of the whole
process is recorded.  One column, named --label, is merged into the --out
JSON; columns already in the file are kept, so two checkouts can be measured
into one file.  Each cell holds the median and the interquartile range of the
wall times in seconds, the scipy subpackages the run loaded and the sha256 of
its stdout, so the columns show whether the outputs are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time

from dp_pass import merge_column

REPS = 7
ROWS = (
    "",  # import stoprule.cli and exit
    "sweep --target rectangular --grid 1000:2000:500",
    "simulate --model rectangular --n 50 --k 50 --reps 500000 --seed 1",
    "limit --lambda 0.003",
    "fullinfo --n 2000",
)
# Runs one command like `python -m stoprule.cli`, then writes the public scipy
# subpackages it loaded as the last line of stderr.
PROBE = """
import sys
from stoprule import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
sys.stdout.flush()
print(*sorted({m.split(".")[1] for m in sys.modules
              if m.startswith("scipy.") and not m.startswith("scipy._")}), file=sys.stderr)
sys.exit(code)
"""


def run(command: str, env: dict) -> tuple[float, bytes, list]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE, *command.split()],
                          env=env, capture_output=True, check=True)
    wall = time.perf_counter() - t0
    return wall, proc.stdout, proc.stderr.decode().splitlines()[-1].split()


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="column name, e.g. parent or change")
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"))
    ap.add_argument("--out", required=True, help="JSON file to merge the column into")
    args = ap.parse_args(argv)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(args.src)}

    column = {}
    for command in ROWS:
        name = command or "import stoprule.cli"
        _, stdout, scipy = run(command, env)
        times = []
        for _ in range(REPS):
            wall, out, _ = run(command, env)
            assert out == stdout, f"{name}: stdout differs between runs"
            times.append(wall)
        q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
        column[name] = {"median_s": round(med, 4), "iqr_s": round(q3 - q1, 4),
                        "scipy": ["scipy." + p for p in scipy],
                        "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
        print(f"{args.label:>8}  {name:<66} {med:7.3f} s  (IQR {q3 - q1:.3f})  "
              f"scipy: {', '.join(scipy) or '-'}", flush=True)

    merge_column(args.out, "bench/cold_start.py", REPS, args.label, column)
    return 0


if __name__ == "__main__":
    sys.exit(main())
