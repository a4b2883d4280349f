"""Enumeration oracles used only by the tests.

Both read the law of each step from ObservationModel.atoms, as
dp.brute_force_oracle does, and enumerate every outcome tuple, so they are
meant for models with at most about 10^6 tuples.
"""

import itertools
import math


def enumerate_outcomes(model):
    """All (probability, tuple) pairs of X_1..X_n."""
    sups = [model.atoms(j) for j in range(1, model.n + 1)]
    for combo in itertools.product(*sups):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield prob, tuple(v for v, _ in combo)


def policy_oracle(model, policy, strict=False):
    """Success probability of a threshold policy: stop at the first record
    x <= b_j (a weak record ties the running minimum, a strict one is below
    it) and succeed when x is the minimum of the whole sequence."""
    total = 0.0
    for prob, outcome in enumerate_outcomes(model):
        running = math.inf
        stopped_at = None
        for v, b in zip(outcome, policy.thresholds, strict=True):
            is_record = v < running if strict else v <= running
            running = min(running, v)
            if stopped_at is None and is_record and v <= b:
                stopped_at = v
        if stopped_at is not None and stopped_at == running:
            total += prob
    return total
