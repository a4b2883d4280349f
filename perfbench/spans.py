"""Self-time arithmetic over the spans `launch.py` records, and the per-layer
metrics of one traced pass over a workload.

A span is [name, start, end, parent index, count]; parent -1 marks a root.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

from collections import defaultdict

# A traced command must satisfy: start-up + sum of self times + exit tail =
# wall time, where the exit tail (writing the spans and interpreter
# teardown, 0.1-0.2 s with scipy loaded) is at most this many seconds.
EXIT_SLACK_S = 0.5
# The traced command's time outside cli.main (start-up + exit tail) must be
# within this many seconds of the untraced setup_s, which runs the same
# import and teardown without the wrappers.  One cold start varies by up to
# 0.4 s on a busy 2-core machine; wrappers that add a second to it fail.
STARTUP_SLACK_S = 0.75
# A traced command's wall time must lie within [w / WALL_FACTOR - WALL_SLACK_S,
# w * WALL_FACTOR + WALL_SLACK_S] of the untraced median w of its leg.  The
# margin is the machine's run-to-run noise on one cold command (about 15 %)
# with room to spare; tracing that doubles a leg's time fails it.
WALL_FACTOR = 1.5
WALL_SLACK_S = 0.5


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> list:
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        clipped = [(max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]]
        out.append((end - start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def subtree(spans, root: int) -> list:
    """Indices of `root` and its descendants (parents precede children)."""
    keep = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in keep:
            keep.add(i)
    return sorted(keep)


def account(trace: dict, t_spawn: float, t_exit: float, setup_s: float,
            untraced_wall: float) -> dict:
    """Split one traced command's wall time into start-up (spawn to the start
    of cli.main, imports included), the self times of cli.main's span tree,
    and the exit tail.  Check the tail, the time outside cli.main against the
    untraced `setup_s`, and the wall time against the untraced median wall
    time of the same command."""
    spans = trace["spans"]
    main = next((i for i, s in enumerate(spans) if s[0] == "cli.main"), None)
    if main is None:
        return {"tail": 0.0, "problems": ["the launcher recorded no cli.main span"]}
    selfs = self_times(spans)
    self_sum = sum(selfs[i] for i in subtree(spans, main))
    startup = spans[main][1] - t_spawn
    wall = t_exit - t_spawn
    tail = wall - startup - self_sum
    problems = []
    if not 0.0 <= tail <= EXIT_SLACK_S:
        problems.append(f"start-up {startup:.3f} s + self {self_sum:.3f} s leaves "
                        f"{tail:.3f} s of the {wall:.3f} s wall time, slack is {EXIT_SLACK_S} s")
    if abs(startup + tail - setup_s) > STARTUP_SLACK_S:
        problems.append(f"start-up {startup:.3f} s + exit tail {tail:.3f} s is more than "
                        f"{STARTUP_SLACK_S} s from the untraced setup_s {setup_s:.3f} s")
    if not untraced_wall / WALL_FACTOR - WALL_SLACK_S <= wall <= (
            untraced_wall * WALL_FACTOR + WALL_SLACK_S):
        problems.append(f"traced wall time {wall:.3f} s is out of range of the untraced "
                        f"{untraced_wall:.3f} s")
    return {"startup": startup, "self_sum": self_sum, "tail": tail, "problems": problems}


def layer_metrics(commands) -> dict:
    """Per-layer numbers of one traced pass.  `commands` is a list of
    (leg, spans) for the workload's legs in order."""
    self_s = defaultdict(float)
    count = defaultdict(int)
    inclusive = defaultdict(float)
    rect_limit_by_leg = defaultdict(float)
    for leg, spans in commands:
        for span, s in zip(spans, self_times(spans)):
            name = span[0]
            self_s[name] += s
            count[name] += span[4]
            inclusive[name] += span[2] - span[1]
            if name == "poisson.rect_limit":
                rect_limit_by_leg[leg] += s

    def per_unit_ns(name):
        return self_s[name] / count[name] * 1e9 if count[name] else 0.0

    m = {f"{name}.self_s": self_s[name] for name in (
        "dp.solve", "dp.policy_value", "dp.brute_force_oracle",
        "mc.simulate", "mc.bounds_check",
        "poisson.rect_limit", "poisson.rect_roots", "poisson.beta_star",
        "poisson.samuels_value",
        "fullinfo.gm_optimal_thresholds", "fullinfo.sakaguchi_value",
        "fullinfo.gm_success", "cli.main")}
    m["dp.solve.ns_per_cell"] = per_unit_ns("dp.solve")
    m["dp.policy_value.ns_per_cell"] = per_unit_ns("dp.policy_value")
    m["dp.cells"] = count["dp.solve"] + count["dp.policy_value"]
    m["mc.simulate.ns_per_draw"] = per_unit_ns("mc.simulate")
    m["mc.draws"] = count["mc.simulate"]
    m["mc.optimal_policy.s"] = inclusive["mc.optimal_policy"]
    m["poisson.rect_limit.cold_s"] = rect_limit_by_leg["limit_lambda"]
    m["poisson.rect_limit.sweep_s"] = rect_limit_by_leg["sweep_lambda"]
    return m


def last_span_times(commands, name: str) -> dict:
    """Self time of the last `name` span of each command that has one, such
    as the top grid point of a sweep."""
    out = {}
    for leg, spans in commands:
        selfs = self_times(spans)
        last = [i for i, span in enumerate(spans) if span[0] == name]
        if last:
            out[leg] = selfs[last[-1]]
    return out


UNITS = {"ns_per_cell": "ns", "ns_per_draw": "ns", "cells": "count", "draws": "count"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[-1], "s")
