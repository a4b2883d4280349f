"""Seeded workloads: the CLI commands each workload runs, and its input files.

Every command is one cold `python -m stoprule.cli ...` invocation.  A
workload has three parts:

* `prep`: untimed commands whose outputs the benchmark needs to build its
  inputs (optimal thresholds for the policy files) or its cross-route checks
  (exact values the Monte Carlo estimates are tested against);
* `inputs`: a function that writes the policy files from the parsed prep
  outputs;
* `legs`: the timed commands, run one at a time in this order.

The program sees only the flags and files generated here from the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0
WORK_DIR = ".perfbench_work"
MC_REPS = 500_000    # several sampling blocks of 4M floats each at n = 50
# The seeded parameters take few values, so `run.py --write-totals` can
# store the exact total for every one of them (seeded_totals.json).
TRI_OFFSETS = range(100)              # dp_sweep: triangular grid TRI_BASE + o
TRI_BASE = (5000, 9000)
N_EVAL = range(4950, 5051)            # dp_sweep: n of the policy evaluation
LAMBDAS = [f"{0.0029 + i * 1e-6:.6f}" for i in range(101)]  # limits: cold limit


@dataclass(frozen=True)
class Command:
    """One CLI call.  `cells` is the n * x_max lattice cells of the DP solves
    and evaluations the call runs (including the solve behind an optimal
    simulation policy); `reps` is the replications of a `simulate` call."""

    leg: str
    argv: tuple
    cells: int = 0
    reps: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    prep: list
    legs: list
    inputs: Callable[[dict], None] = lambda outputs: None
    params: dict = field(default_factory=dict)


def _grid(lo: int, hi: int, step: int) -> list:
    return list(range(lo, hi + 1, step))


def perturbed_thresholds(thresholds: list, rng: random.Random) -> list:
    """A nondecreasing integer policy near `thresholds` (which ends in "inf").

    Each finite threshold moves by -3..3, is clamped at 0, and the running
    maximum keeps the sequence nondecreasing.  At least one threshold changes,
    so the policy evaluation never reduces to the optimal one."""
    finite = [int(t) for t in thresholds[:-1]]
    out, top = [], 0
    for t in finite:
        top = max(top, t + rng.randint(-3, 3), 0)
        out.append(top)
    if out == finite:
        out[-1] += 1
    return [float(t) for t in out] + ["inf"]


def _write_policy(path: str, thresholds: list) -> None:
    with open(path, "w") as fh:
        json.dump({"thresholds": thresholds}, fh)


def dp_sweep(seed: int) -> Workload:
    """Exact DP only: two solve sweeps and one policy evaluation.  The
    triangular sweep solves one n below and one above the size at which the
    per-step arrays outgrow L1 (between 6000 and 7000)."""
    rng = random.Random(f"dp_sweep/{seed}")
    offset = rng.choice(TRI_OFFSETS)
    tri = [base + offset for base in TRI_BASE]
    rect = _grid(1000, 2000, 500)
    n_eval = rng.choice(N_EVAL)
    policy = os.path.join(WORK_DIR, "dp_sweep_policy.json")

    def inputs(outputs):
        optimal = outputs["prep_solve"]["thresholds"]
        _write_policy(policy, perturbed_thresholds(optimal, random.Random(f"dp_sweep/{seed}/p")))

    return Workload(
        name="dp_sweep",
        seed=seed,
        prep=[Command("prep_solve", ("value", "--model", "triangular", "--n", str(n_eval)),
                      cells=n_eval * n_eval)],
        legs=[
            Command("sweep_tri", ("sweep", "--target", "triangular",
                                  "--grid", f"{tri[0]}:{tri[-1]}:{tri[1] - tri[0]}"),
                    cells=sum(n * n for n in tri)),
            Command("sweep_rect", ("sweep", "--target", "rectangular", "--grid", "1000:2000:500"),
                    cells=sum(n * n for n in rect)),
            Command("value_policy", ("value", "--model", "triangular", "--n", str(n_eval),
                                     "--policy", policy),
                    cells=n_eval * n_eval),
        ],
        inputs=inputs,
        params={"tri_grid": tri, "n_eval": n_eval},
    )


def mc_simulate(seed: int) -> Workload:
    """Monte Carlo only: four 500k-replication simulations."""
    rng = random.Random(f"mc_simulate/{seed}")
    s_tri, s_rect, s_u01 = (rng.randrange(2**31) for _ in range(3))
    policy = os.path.join(WORK_DIR, "mc_policy.json")
    reps = str(MC_REPS)

    def inputs(outputs):
        optimal = outputs["prep_tri"]["thresholds"]
        _write_policy(policy, perturbed_thresholds(optimal, random.Random(f"mc_simulate/{seed}/p")))

    return Workload(
        name="mc_simulate",
        seed=seed,
        prep=[
            Command("prep_tri", ("value", "--model", "triangular", "--n", "50"), cells=2500),
            Command("prep_rect", ("value", "--model", "rectangular", "--n", "50", "--k", "50"),
                    cells=2500),
            Command("prep_u01", ("fullinfo", "--n", "20")),
        ],
        legs=[
            Command("sim_tri", ("simulate", "--model", "triangular", "--n", "50",
                                "--reps", reps, "--seed", str(s_tri)),
                    cells=2500, reps=MC_REPS),
            Command("sim_rect", ("simulate", "--model", "rectangular", "--n", "50", "--k", "50",
                                 "--reps", reps, "--seed", str(s_rect)),
                    cells=2500, reps=MC_REPS),
            Command("sim_u01", ("simulate", "--model", "uniform01", "--n", "20",
                                "--reps", reps, "--seed", str(s_u01)),
                    reps=MC_REPS),
            # Same MC seed as sim_tri: the draws are identical, so the tie
            # rates of the two legs must agree exactly.
            Command("sim_strict", ("simulate", "--model", "triangular", "--n", "50",
                                   "--reps", reps, "--seed", str(s_tri),
                                   "--strict-records", "--policy", policy),
                    reps=MC_REPS),
        ],
        inputs=inputs,
    )


# Lattice cells of `stoprule check`: oracle solves of rectangular n = 2..5 and
# triangular n = 2, 4, 6, plus two solves (exact value and the simulation's
# optimal policy) in each sandwich check at n = k = 5 and 40.
CHECK_CELLS = sum(n * n for n in (2, 3, 4, 5)) + sum(n * n for n in (2, 4, 6)) + 2 * (25 + 1600)


def limits(seed: int) -> Workload:
    """Closed forms and Poisson limits: cold ladder, lambda series, fullinfo
    roots, and the self-check battery."""
    rng = random.Random(f"limits/{seed}")
    # lambda in [0.0029, 0.003]: the ladder reaches k = 9891..10230, so the
    # O(k^2) build varies by under 7 % across seeds.
    lam = rng.choice(LAMBDAS)
    return Workload(
        name="limits",
        seed=seed,
        prep=[],
        legs=[
            Command("limit_lambda", ("limit", "--lambda", lam)),
            Command("sweep_lambda", ("sweep", "--target", "lambda")),
            Command("fullinfo", ("fullinfo", "--n", "2000")),
            Command("check", ("check",), cells=CHECK_CELLS),
        ],
        params={"lambda": float(lam)},
    )


WORKLOADS = {"dp_sweep": dp_sweep, "mc_simulate": mc_simulate, "limits": limits}
