"""stoprule benchmark: seeded cold-CLI workloads with output checks.

Run from the root of a stoprule checkout:

    python3 perfbench/run.py --workload dp_sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, human summary
    python3 perfbench/run.py --write-totals           # refresh seeded_totals.json
    python3 perfbench/run.py --write-references       # refresh references.json

Load is one client in a closed loop: a single benchmark process runs one CLI
command at a time, each in a fresh interpreter (`python -m stoprule.cli` with
PYTHONPATH=src), so every command pays start-up and cold module caches as a
CLI user does.  A rep is one pass over the workload's legs; reps repeat until
the next one would end past --seconds.  Every output is checked (see
checker.py); a nonzero exit, a traceback or a rejected output is a failed
command.

The host's speed shifts by 10-30 % for minutes at a time, for start-up and
computation alike, so the gated time is `wall_per_probe`: the workload's
wall time over the median wall time of a host probe, a fresh interpreter
that imports the program's third-party modules and runs no program code.
`wall_s` itself is printed in the report.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced reps (the traced ones go through launch.py) and reports per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata

import checker
import spans as spanlib
from workloads import DEFAULT_SEED, LAMBDAS, N_EVAL, TRI_BASE, TRI_OFFSETS, WORK_DIR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")
CMD_TIMEOUT_S = 150
SETUP_PROBES = 1        # set-up and host probes before the reps, plus one of each per rep
SETUP_CODE = "import stoprule.cli"
# The host probe: a fresh interpreter importing the third-party modules the
# program imports, and no program code.  Its wall time follows the host's
# speed, and no change to the program can move it.
HOST_CODE = "import numpy, scipy.integrate, scipy.optimize, scipy.special"
IMPORTTIME_PROBES = 3   # `python -X importtime` runs per traced run
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_MODULES = ("dp", "fullinfo", "poisson", "mc", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


class Spawned:
    """One finished child: wall time from spawn to reaped exit, and its own
    peak RSS from wait4 (not the cumulative RUSAGE_CHILDREN maximum)."""

    def __init__(self, argv, env, out_path, err_path):
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        self.t_spawn = time.monotonic()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        killer = threading.Timer(CMD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        self.t_exit = time.monotonic()
        self.wall = self.t_exit - self.t_spawn
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.rc = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            self.stdout = fh.read()
        with open(err_path) as fh:
            self.stderr = fh.read()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Runner:
    def __init__(self, root: str, references: dict | None, totals: dict):
        self.root = root
        self.env = child_env()
        self.work = os.path.join(root, WORK_DIR)
        self.references = references
        self.totals = totals
        self.attempted = 0
        self.failed = 0
        self.recorded = {}
        self.max_exit_tail = 0.0
        self.max_startup_gap = 0.0   # |start-up + exit tail - setup_s|, traced commands
        self.wall_ratios = []        # traced over untraced wall time, traced commands

    def _paths(self):
        return os.path.join(self.work, "out.txt"), os.path.join(self.work, "err.txt")

    def spawn(self, argv) -> Spawned:
        return Spawned([sys.executable] + list(argv), self.env, *self._paths())

    def run_command(self, cmd, traced: bool = False):
        """Run one CLI command; return (Spawned, parsed output or None,
        problems, trace dict or None)."""
        trace_path = os.path.join(self.work, "spans.json")
        if traced:
            argv = [LAUNCHER, trace_path, *cmd.argv]
        else:
            argv = ["-m", "stoprule.cli", *cmd.argv]
        run = self.spawn(argv)
        problems = []
        if run.rc != 0:
            problems.append(f"exit code {run.rc}")
        if "Traceback" in run.stderr:
            problems.append("traceback on stderr")
        parsed = trace = None
        try:
            parsed = checker.parse_output(cmd.argv, run.stdout)
        except ValueError:
            problems.append("output is not valid JSON")
        key = checker.reference_key(cmd.argv, self._policy_text(cmd))
        if self.references is None:
            self.recorded[key] = run.stdout
        elif key in self.references and parsed is not None:
            problems += checker.compare_reference(cmd.argv, run.stdout, self.references[key])
        if traced:
            try:
                with open(trace_path) as fh:
                    trace = json.load(fh)
                os.remove(trace_path)
            except (OSError, ValueError):
                problems.append("launcher wrote no spans")
        return run, parsed, problems, trace

    def _policy_text(self, cmd):
        if "--policy" not in cmd.argv:
            return None
        try:
            with open(os.path.join(self.root, cmd.argv[cmd.argv.index("--policy") + 1])) as fh:
                return fh.read()
        except OSError:  # no policy file when its prep command failed
            return None

    def run_pass(self, commands, outputs: dict, traced: bool = False, refs=None):
        """Run commands in order, then cross-check the pass as a whole.
        A traced pass also checks each command against `refs`, the untraced
        figures so far: "setup_s" and the median wall time of each leg.
        Returns {leg: (Spawned, trace)}; counts attempts and failures."""
        problems, runs = {}, {}
        for cmd in commands:
            run, parsed, problems[cmd.leg], trace = self.run_command(cmd, traced)
            runs[cmd.leg] = (run, trace)
            outputs[cmd.leg] = parsed
        for cmd in commands:
            if not problems[cmd.leg]:
                try:
                    problems[cmd.leg] += checker.cross_checks(cmd.leg, outputs)
                    problems[cmd.leg] += checker.compare_totals(cmd.leg, outputs[cmd.leg],
                                                                self.totals)
                except (KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
                    problems[cmd.leg].append(f"cross-check could not read the outputs: {exc!r}")
            if traced and runs[cmd.leg][1] is not None:
                run, trace = runs[cmd.leg]
                trace["account"] = acc = spanlib.account(
                    trace, run.t_spawn, run.t_exit, refs["setup_s"], refs["walls"][cmd.leg])
                problems[cmd.leg] += acc["problems"]
                self.max_exit_tail = max(self.max_exit_tail, acc["tail"])
                if "startup" in acc:
                    self.max_startup_gap = max(self.max_startup_gap, abs(
                        acc["startup"] + acc["tail"] - refs["setup_s"]))
                    self.wall_ratios.append(run.wall / refs["walls"][cmd.leg])
                traced_cells = sum(s[4] for s in trace["spans"]
                                   if s[0] in ("dp.solve", "dp.policy_value"))
                if traced_cells != cmd.cells:
                    problems[cmd.leg].append(f"traced {traced_cells} lattice cells, "
                                             f"workload declares {cmd.cells}")
            self.attempted += 1
            if problems[cmd.leg]:
                self.failed += 1
                mode = "traced" if traced else "untraced"
                sys.stderr.write(f"FAIL {cmd.leg} ({mode}, {' '.join(cmd.argv)}): "
                                 f"{'; '.join(problems[cmd.leg])}\n")
        return runs


def probe(runner: Runner, code: str) -> float:
    """Wall time of a fresh interpreter running `code`."""
    run = runner.spawn(["-c", code])
    runner.attempted += 1
    if run.rc != 0:
        runner.failed += 1
        sys.stderr.write(f"FAIL {code}: exit code {run.rc}\n")
    return run.wall


def importtime_probes(runner: Runner) -> dict:
    """Median cumulative `-X importtime` seconds of the stoprule modules."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_PROBES):
        run = runner.spawn(["-X", "importtime", "-c", "import stoprule.cli"])
        for line in run.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+stoprule\.(\w+)$", line.strip())
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    return {f"import.{m}.cum_s": statistics.median(v) for m, v in samples.items() if v}


def run_workload(runner: Runner, name: str, seed: int, seconds: float, trace: bool):
    wl = WORKLOADS[name](seed)
    probe(runner, SETUP_CODE)  # warm-up: writes the bytecode caches
    setup = [probe(runner, SETUP_CODE) for _ in range(SETUP_PROBES)]
    host = [probe(runner, HOST_CODE) for _ in range(SETUP_PROBES)]
    imports = importtime_probes(runner) if trace else {}
    outputs = {}
    runner.run_pass(wl.prep, outputs)
    try:
        wl.inputs(outputs)
    except (TypeError, KeyError, ValueError) as exc:
        # The failed prep command is already counted; the legs that read
        # the missing input file fail and are counted too.
        sys.stderr.write(f"no input files for {name}: {exc!r}\n")

    walls = {cmd.leg: [] for cmd in wl.legs}
    traced_walls = {cmd.leg: [] for cmd in wl.legs}
    rep_totals, layer_samples, roadmap_samples, peak_rss = [], [], [], 0.0
    t_start = time.monotonic()
    rep = 0
    while True:
        t_rep = time.monotonic()
        # Traced runs alternate with untraced ones, each side going first
        # in turn, so slow drift in the machine cancels out of the overhead.
        order = [False, True] if rep % 2 == 0 else [True, False]
        for traced in (order if trace else [False]):
            refs = {"setup_s": statistics.median(setup),
                    "walls": {leg: statistics.median(v) for leg, v in walls.items() if v}}
            runs = runner.run_pass(wl.legs, dict(outputs), traced, refs)
            if traced:
                traced_spans = [(leg, t["spans"]) for leg, (_, t) in runs.items() if t is not None]
                layer_samples.append(spanlib.layer_metrics(traced_spans))
                layer_samples[-1]["trace.exit_tail_s"] = sum(
                    t["account"]["tail"] for _, t in runs.values() if t and "account" in t)
                roadmap_samples.append(spanlib.last_span_times(traced_spans, "dp.solve"))
                for leg, (run, _) in runs.items():
                    traced_walls[leg].append(run.wall)
            else:
                rep_totals.append(sum(run.wall for run, _ in runs.values()))
                for leg, (run, _) in runs.items():
                    walls[leg].append(run.wall)
                    peak_rss = max(peak_rss, run.rss_mb)
        # One more probe of each kind per rep spreads them over the run, so
        # the medians do not hinge on the machine's load in its first seconds.
        setup.append(probe(runner, SETUP_CODE))
        host.append(probe(runner, HOST_CODE))
        rep += 1
        elapsed = time.monotonic() - t_start
        if elapsed + (time.monotonic() - t_rep) > seconds:
            break

    median_wall = {leg: statistics.median(v) for leg, v in walls.items()}
    wall_s = sum(median_wall.values())
    sim_legs = [c for c in wl.legs if c.argv[0] == "simulate"]
    result = {
        "wall_per_probe": (wall_s / statistics.median(host), "probes"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # Throughputs of the workload's own kind of work.  They are printed, not
    # gated: on the other workloads the same ratio would rest on one short
    # command (cells) or be zero (replications).
    info = {"reps": rep, "rep_quartiles": quartiles(rep_totals), "setup_probes": len(setup),
            "wall_s": wall_s, "host_s": statistics.median(host),
            "legs": median_wall, "samples": walls, "params": wl.params, "throughput": {}}
    if name == "dp_sweep":
        info["throughput"]["cells_per_s"] = sum(c.cells for c in wl.legs) / wall_s
    if sim_legs:
        info["throughput"]["reps_per_s"] = (sum(c.reps for c in sim_legs)
                                            / sum(median_wall[c.leg] for c in sim_legs))
    if not trace:
        return result, info

    # Counts are exact and repeat from pass to pass; median_low keeps them integers.
    layers = {key: (statistics.median_low if spanlib.unit_of(key) == "count" else statistics.median)(
        [s[key] for s in layer_samples]) for key in layer_samples[0]}
    info["last_solve_s"] = {leg: statistics.median([s[leg] for s in roadmap_samples if leg in s])
                            for leg in roadmap_samples[0] if leg.startswith("sweep_")}
    layers.update(imports)
    traced_wall = sum(statistics.median(v) for v in traced_walls.values())
    layers["trace.overhead_s"] = traced_wall - wall_s
    return {k: (v, spanlib.unit_of(k)) for k, v in layers.items()}, info


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" where it is no git repository.  The
    ceiling keeps git from finding a repository above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        run = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return run.stdout.strip() if run.returncode == 0 else "unknown"


def cpu() -> dict:
    """CPU model and cache sizes from lscpu."""
    if shutil.which("lscpu") is None:
        return {"cpu": "lscpu not available"}
    text = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    wanted = ("Model name", "L1d cache", "L1i cache", "L2 cache", "L3 cache")
    return {k: fields[k].strip() for k in wanted if k in fields}


def provenance(root: str, seed) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        **cpu(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(root),
        "workload_seed": seed,
        "child_env": {var: child_env()[var] for var in BLAS_THREAD_VARS + ("PYTHONHASHSEED",)},
        "load": "closed loop, one client: one CLI command at a time, each in a fresh interpreter",
    }


def seeded_totals(root: str) -> dict:
    """Every value the seeded legs can print as a total, computed by the same
    CLI commands: triangular DP totals through `sweep` over runs of
    consecutive n, and one cold `limit` per lambda.  Two commands run at a
    time; this is maintenance, not measurement."""
    ns = sorted({base + o for o in TRI_OFFSETS for base in TRI_BASE} | set(N_EVAL))
    runs, chunk = [], []
    for n in ns:  # runs of at most 20 consecutive n, for an even load
        if chunk and (n != chunk[-1] + 1 or len(chunk) == 20):
            runs.append(chunk)
            chunk = []
        chunk.append(n)
    runs.append(chunk)
    commands = [("sweep", "--target", "triangular", "--grid", f"{c[0]}:{c[-1]}:1") for c in runs]
    commands += [("limit", "--lambda", lam) for lam in LAMBDAS]

    def run(argv):
        done = subprocess.run([sys.executable, "-m", "stoprule.cli", *argv], cwd=root,
                              env=child_env(), capture_output=True, text=True,
                              timeout=10 * CMD_TIMEOUT_S, check=True)
        return json.loads(done.stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = list(pool.map(run, commands))
    totals = {"triangular": {}, "lambda": {}}
    for argv, out in zip(commands, outputs):
        if argv[0] == "sweep":
            totals["triangular"].update((str(n), v) for n, v in out["rows"])
        else:
            totals["lambda"][argv[2]] = out["value"]
    if len(totals["triangular"]) != len(ns):
        raise RuntimeError("the sweeps did not return every n")
    return totals


def write_json(path: str, data: dict):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def print_report(name: str, seed: int, result: dict, info: dict, runner: Runner, trace: bool,
                 attempted: int, failed: int):
    """Human summary of one workload; attempted/failed count its commands."""
    print(f"workload {name} seed {seed}: {info['reps']} reps, {info['setup_probes']} set-up "
          f"probes, params {info['params']}")
    for leg, wall in info["legs"].items():
        samples = " ".join(f"{w:.3f}" for w in info["samples"][leg])
        print(f"  leg {leg:<14} median {wall:9.4f} s  (samples {samples})")
    if not trace:
        q1, q3 = info["rep_quartiles"]
        print(f"  rep wall quartiles {q1:.4f} .. {q3:.4f} s")
        print(f"  {'wall_s':<40} {info['wall_s']:14.6g} s")
        print(f"  {'host probe median':<40} {info['host_s']:14.6g} s")
    for key, (value, unit) in result.items():
        print(f"  {key:<40} {value:14.6g} {unit}")
    for key, value in info["throughput"].items():
        print(f"  {key:<40} {value:14.6g} 1/s")
    for leg, value in info.get("last_solve_s", {}).items():
        print(f"  {'last dp.solve of ' + leg:<40} {value:14.6g} s (self time)")
    if trace:
        print(f"  traced commands: largest exit tail {runner.max_exit_tail:.4f} s "
              f"(slack {spanlib.EXIT_SLACK_S} s); largest |start-up + exit tail - setup_s| "
              f"{runner.max_startup_gap:.4f} s (slack {spanlib.STARTUP_SLACK_S} s); traced over "
              f"untraced wall {min(runner.wall_ratios, default=0):.3f}.."
              f"{max(runner.wall_ratios, default=0):.3f}")
    share = failed / attempted if attempted else 0.0
    print(f"  {'fail_share':<40} {share:14.6g} ({failed}/{attempted} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-totals", action="store_true",
                        help="store the total of every seeded parameter (about 14 minutes)")
    parser.add_argument("--write-references", action="store_true",
                        help=f"run every workload once at seed {DEFAULT_SEED} and store its "
                             f"outputs, checked against the stored seeded totals")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stoprule", "cli.py")):
        sys.stderr.write("error: run from the root of a stoprule checkout (no src/stoprule)\n")
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)

    if args.write_totals:
        totals = seeded_totals(root)
        write_json(checker.TOTALS_FILE, totals)
        print(f"wrote {sum(map(len, totals.values()))} seeded totals to {checker.TOTALS_FILE}")
    if args.write_references:
        runner = Runner(root, references=None, totals=checker.load_totals())
        for name in WORKLOADS:
            run_workload(runner, name, DEFAULT_SEED, 0.0, trace=False)
        if runner.failed:
            sys.stderr.write("error: outputs failed their checks; not written\n")
            return 1
        write_json(checker.REFERENCE_FILE, runner.recorded)
        print(f"wrote {len(runner.recorded)} reference outputs to {checker.REFERENCE_FILE}")
    if args.write_totals or args.write_references:
        return 0

    runner = Runner(root, references=checker.load_references(), totals=checker.load_totals())
    print("provenance " + json.dumps(provenance(root, args.seed)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    for name in names:
        before = runner.attempted, runner.failed
        result, info = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
        print_report(name, args.seed, result, info, runner, bool(args.trace),
                     runner.attempted - before[0], runner.failed - before[1])
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in result.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
