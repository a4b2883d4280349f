"""Traced CLI launcher: `python perfbench/launch.py SPANS_OUT CLI_ARGS...`.

Runs `stoprule.cli.main(CLI_ARGS)` in this fresh interpreter with the public
entry points of `dp`, `mc`, `poisson` and `fullinfo` wrapped in spans, then
writes the spans to SPANS_OUT as JSON and exits with main's return code.
Times are CLOCK_MONOTONIC seconds, the clock the parent reads around the
spawn, so start-up and exit can be placed on the same axis.

Only entry points are wrapped, never helpers called inside a root solve or
per lattice step (such as `poisson.ladder_residual`), so the wrappers add a
few microseconds per call and do not reshape the profile.
"""

import functools
import json
import sys
import time

T_LAUNCH = time.monotonic()

SPANNED = {
    "dp": ("solve", "policy_value", "brute_force_oracle"),
    "mc": ("simulate", "optimal_policy", "bounds_check"),
    "poisson": ("rect_limit", "rect_roots", "beta_star", "samuels_value"),
    "fullinfo": ("gm_optimal_thresholds", "sakaguchi_value", "gm_success"),
}


def _lattice_cells(model, *args, **kwargs) -> int:
    x_max = {"triangular": model.n, "rectangular": model.k}.get(model.kind)
    return 0 if x_max is None else model.n * x_max


def _draws(config, *args, **kwargs) -> int:
    return config.replications * config.model.n


COUNTERS = {"dp.solve": _lattice_cells, "dp.policy_value": _lattice_cells, "mc.simulate": _draws}


class Tracer:
    """Spans as [name, start, end, parent index, count]; parent -1 is a root."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.monotonic(), None, parent,
                    counter(*args, **kwargs) if counter else 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self._stack.pop()
        return traced


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.monotonic()
    from stoprule import cli, dp, fullinfo, mc, poisson
    tracer.spans.append(["import", t0, time.monotonic(), -1, 0])
    modules = {"dp": dp, "mc": mc, "poisson": poisson, "fullinfo": fullinfo}
    # Patching the module attribute reroutes both cross-module calls
    # (`dp.solve` from mc and cli) and same-module calls through globals.
    for mod_name, names in SPANNED.items():
        module = modules[mod_name]
        for name in names:
            span = f"{mod_name}.{name}"
            setattr(module, name, tracer.wrap(span, getattr(module, name), COUNTERS.get(span)))
    rc = 1
    try:
        rc = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump({"launch": T_LAUNCH, "rc": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
