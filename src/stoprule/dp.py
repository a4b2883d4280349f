"""Exact backward-induction solvers for the discrete observation models.

The running minimum (j, M_j) is a Markov chain; backward induction over its
lattice fills the stop table s(j,x) and continuation table v(j,x), the optimal
threshold at step j is the largest x with s(j,x) >= v(j,x), and the success
probability splits by first-passage mode of the chain into the stopping
region: by jump (a record lands below the threshold) or by drift (the rising
threshold overtakes the current minimum).

The jump mass at step j is P(M_{j-1} > b_j) * sum_{x <= b_j} P(X_j = x) s(j,x)
and the drift mass collects P(M_m = y) v(m, y) over the window b_m < y <=
b_{m+1}; their total is checked against the independent backward-induction
value.  Stop columns and P(M_m >= y) are exp of a log-space closed form
(gammaln differences for the triangular kind), so no intermediate product
under/overflows even at n ~ 10^4.  The logs that do not depend on the step are
computed once per lattice, and exp is called only up to the last entry whose
argument is >= -746: below that exp is exactly +0.0, which is written
directly.  The sweep reuses two stop and two continuation columns.  With
nondecreasing thresholds the drift windows are disjoint, so the sweep only
records each window's step and v(m, y); one P(M_m >= y) call and one fsum
after the sweep give the drift mass.

For arbitrary monotone policies the same sums apply with v replaced by the
"stop at every future record below y" chain, which is what any monotone
threshold rule does after first passage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    BERNOULLI_PYRAMID,
    DEFAULT_MAX_N,
    RECTANGULAR,
    TRIANGULAR,
    Decomposition,
    InvalidPolicyError,
    ObservationModel,
    PrecisionError,
    ResourceLimitError,
    ThresholdPolicy,
    UnsupportedModelError,
    ValueTables,
    check_step_cap,
)

__all__ = [
    "DpSolution",
    "solve",
    "policy_value",
    "brute_force_oracle",
    "DEFAULT_MAX_N",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 1_000_000
# Recursion depth cap of the oracle: one-atom steps leave the tuple count at 1
# (with two atoms a step, ENUMERATION_CAP already stops it near n = 21).
ORACLE_MAX_STEPS = 64
TABLE_CELL_CAP = 80_000_000
# Widest value lattice (x_max) a backward pass builds: a pass holds about 150
# bytes per lattice value, so about 150 MB at the cap.
LATTICE_WIDTH_CAP = 1_000_000
# Backward value and jump+drift sums must agree to this tolerance.
_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class DpSolution:
    """Solved instance: tables (when materialized), optimal policy, and the
    jump/drift decomposition of the optimal success probability."""

    model: ObservationModel
    tables: ValueTables | None
    policy: ThresholdPolicy
    decomposition: Decomposition

    def to_json(self) -> dict:
        out = {"model": self.model.to_json()}
        out.update(self.policy.to_json())
        out.update(self.decomposition.to_json())
        return out


# ---------------------------------------------------------------------------
# Lattice geometry adapters
# ---------------------------------------------------------------------------

# exp of every double below this is exactly +0.0 (the smallest subnormal is
# exp(-745.13...)), and numpy's exp is slow on underflowing arguments.
_EXP_UNDERFLOW = -746.0


def _exp_to_cut(arg: np.ndarray, mask: np.ndarray) -> int:
    """exp(arg) in place, calling exp only up to the last entry >= -746 and
    writing +0.0 after it; the argument need not fall monotonically.
    Returns the length of the prefix that went through exp."""
    m = mask[: len(arg)]
    np.greater_equal(arg, _EXP_UNDERFLOW, out=m)
    end = len(m) - int(m[::-1].argmax())
    if end == len(m) and not m[-1]:
        end = 0  # no entry reaches the cut
    np.exp(arg[:end], out=arg[:end])
    arg[end:] = 0.0
    return end


class _TriLattice:
    """X_j uniform on {j, ..., n}; reachable record states j <= x <= n."""

    def __init__(self, n: int):
        from scipy.special import gammaln
        self.n = n
        self._lg = gammaln(np.arange(n + 3, dtype=float))
        x = np.arange(n + 1)
        self._x = x.astype(float)
        self._log_room = np.log(n - x + 1.0)
        self._lg_room = self._lg[n - x + 2]
        self._mask = np.empty(n + 1, dtype=bool)

    def stop_col(self, j: int, out: np.ndarray) -> None:
        """s(j, x) = prod_{i=0}^{x-j-1} (n-x+1)/(n-j-i) for x in [j..n],
        written to out[j:]."""
        col = out[j:]
        np.subtract(self._x[j:], j + 1, out=col)
        np.multiply(col, self._log_room[j:], out=col)
        np.add(col, self._lg_room[j:], out=col)
        np.subtract(col, self._lg[self.n - j + 1], out=col)
        col = col[: _exp_to_cut(col, self._mask)]
        # Clip float overshoot from the lgamma differences (values are
        # probabilities, mathematically <= 1).
        np.minimum(col, 1.0, out=col)

    def prob_min_ge(self, j, ys: np.ndarray) -> np.ndarray:
        """P(M_j >= y) for an integer array y (entries may reach n + 1),
        elementwise in j as well; the empty minimum M_0 is +inf."""
        n, lg = self.n, self._lg
        t = np.minimum(j, ys - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(t * np.log(n - ys + 1.0) - (lg[n + 1] - lg[n - t + 1]))
        out[ys <= 1] = 1.0
        out[ys > n] = 0.0
        return np.where(j == 0, 1.0, out)


class _RectLattice:
    """X_j uniform on {1, ..., K}; record states 1 <= x <= K."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        # log P(X >= x) for x in [1..K]
        self._log_surv = np.log(k - np.arange(1, k + 1) + 1.0) - math.log(k)
        self._mask = np.empty(k + 1, dtype=bool)

    def stop_col(self, j: int, out: np.ndarray) -> None:
        """s(j, x) = ((K-x+1)/K)^(n-j), written to out[1:]."""
        col = out[1:]
        np.multiply(self.n - j, self._log_surv, out=col)
        _exp_to_cut(col, self._mask)

    def prob_min_ge(self, j, ys: np.ndarray) -> np.ndarray:
        frac = np.clip((self.k - ys + 1.0) / self.k, 0.0, 1.0)
        return frac ** j


def _lattice_for(model: ObservationModel):
    if model.kind not in (TRIANGULAR, RECTANGULAR):
        raise UnsupportedModelError(f"no lattice solver for {model.kind}")
    x_max = model.support(model.n)[1]
    if x_max > LATTICE_WIDTH_CAP:  # refused before any column is allocated
        raise ResourceLimitError(f"lattice width {x_max} is above cap {LATTICE_WIDTH_CAP}")
    return _TriLattice(model.n) if model.kind == TRIANGULAR else _RectLattice(model.n, model.k)


# ---------------------------------------------------------------------------
# Unified backward pass with jump/drift accumulation
# ---------------------------------------------------------------------------

def _lattice_pass(model: ObservationModel, policy: ThresholdPolicy | None = None,
                  want_tables: bool = False):
    """One backward sweep.  With policy=None it solves for the optimal
    thresholds and returns (b, jump, drift, v0, stop_tab, cont_tab); with a
    policy it evaluates that rule exactly (v0 is then NaN and the
    continuation chain is "stop at every future record")."""
    lat = _lattice_for(model)
    n, x_max = model.n, model.support(model.n)[1]
    optimal = policy is None
    b = np.zeros(n + 2, dtype=np.int64)
    if not optimal:
        # clamp to [0, x_max]: anything below the support stops nothing
        b[1 : n + 1] = np.clip(np.floor(policy.thresholds), 0, x_max)
    b[n + 1] = x_max  # drift windows at m = n are empty either way
    # Jump mass at step j is P(M_{j-1} >= b_j + 1) * ssum_j / size_j with
    # ssum_j = sum_{lo_j <= x <= b_j} s(j, x); the prefactors are evaluated
    # in one call after the sweep.
    jump_ssum = np.zeros(n + 1)
    sizes = np.ones(n + 1, dtype=np.int64)
    # Drift mass at y in the window (b_m, b_{m+1}] is P(M_m = y) v(m, y).
    # Nondecreasing thresholds make the windows disjoint, so each y keeps its
    # window's step m (0: no window) and v(m, y) until one call after the sweep.
    drift_step = np.zeros(x_max + 1, dtype=np.int64)
    drift_cont = np.zeros(x_max + 1)
    covered = 0
    stop_tab = cont_tab = None
    if want_tables:
        cells = (n + 1) * (x_max + 1)
        if cells > TABLE_CELL_CAP:
            raise ResourceLimitError(
                f"value tables need {cells} cells, above cap {TABLE_CELL_CAP}"
            )
        stop_tab = np.full((n + 1, x_max + 1), np.nan)
        cont_tab = np.full((n + 1, x_max + 1), np.nan)

    # Two stop and two continuation columns, swapped every step.  Entries
    # below the support are never written, so cont stays 0 there; the
    # recurrence fills cont[lo1:] and cont[lo:lo1] is zeroed.
    s_col, s_next = np.full(x_max + 1, np.nan), np.full(x_max + 1, np.nan)
    cont, cont_next = np.zeros(x_max + 1), np.zeros(x_max + 1)
    w = np.empty(x_max + 1)
    tail = np.empty(x_max + 1)
    # (hi1 - x) / size = P(X_{j+1} > x) for x in the support; rebuilt only
    # when the support moves (every step for triangular, once for rectangular)
    p_above = np.empty(x_max + 1)
    above_support = None
    hit = np.empty(x_max + 1, dtype=bool)
    xs = np.arange(x_max + 1, dtype=float)
    v0 = math.nan
    for j in range(n, 0, -1):
        lo, hi = model.support(j)
        sizes[j] = hi - lo + 1
        lat.stop_col(j, s_col)
        if j < n:
            lo1, hi1 = model.support(j + 1)
            size = hi1 - lo1 + 1
            cont[lo:lo1] = 0.0
            acc, pt = w[lo1:], tail[lo1:]
            if optimal:
                np.maximum(s_next[lo1:], cont_next[lo1:], out=acc)
                np.cumsum(acc, out=acc)
            else:
                np.cumsum(s_next[lo1:], out=acc)
            np.divide(acc, size, out=acc)
            if above_support != (lo1, hi1):
                above_support = (lo1, hi1)
                np.subtract(hi1, xs[lo1:], out=p_above[lo1:])
                np.divide(p_above[lo1:], size, out=p_above[lo1:])
            np.multiply(p_above[lo1:], cont_next[lo1:], out=pt)
            np.add(acc, pt, out=cont[lo1:])
            np.minimum(cont[lo1:], 1.0, out=cont[lo1:])

        if optimal:
            # largest x with s >= v
            np.greater_equal(s_col[lo:], cont[lo:], out=hit[lo:])
            b[j] = x_max - int(hit[lo:][::-1].argmax())

        bj = int(b[j])
        if bj >= lo:
            jump_ssum[j] = np.sum(s_col[lo : bj + 1])

        if j < n:
            lo_w = max(bj + 1, 1)
            hi_w = min(int(b[j + 1]), x_max)
            if hi_w >= lo_w:
                drift_step[lo_w : hi_w + 1] = j
                drift_cont[lo_w : hi_w + 1] = cont[lo_w : hi_w + 1]
                covered += hi_w - lo_w + 1

        if want_tables:
            stop_tab[j, lo:] = s_col[lo:]
            cont_tab[j, lo:] = cont[lo:]
        if j == 1 and optimal:
            w1 = np.maximum(s_col[lo:], cont[lo:])
            v0 = float(np.sum(w1)) / sizes[1]
        s_col, s_next = s_next, s_col
        cont, cont_next = cont_next, cont

    pm = lat.prob_min_ge(np.arange(n), b[1 : n + 1] + 1)
    jump = math.fsum(pm * jump_ssum[1:] / sizes[1:])
    ys = np.flatnonzero(drift_step)
    if len(ys) != covered:
        raise PrecisionError("drift windows overlap: the thresholds are not nondecreasing")
    # P(M_m = y) = P(M_m >= y) - P(M_m >= y + 1)
    pge = lat.prob_min_ge(drift_step[ys, None], ys[:, None] + np.array([0, 1]))
    drift = math.fsum((pge[:, 0] - pge[:, 1]) * drift_cont[ys])
    return b[1 : n + 1], jump, drift, v0, stop_tab, cont_tab


# ---------------------------------------------------------------------------
# Bernoulli pyramid (two-valued ranks; no lattice)
# ---------------------------------------------------------------------------

def _pyramid_cutoff(n: int, p: float) -> int:
    """Smallest step from which stopping at a record is optimal:
    stop iff 1 - p >= (n - j) p, i.e. j >= n - (1-p)/p."""
    return max(1, n - math.floor((1.0 - p) / p + 1e-9))


def _pyramid_policy_value(model: ObservationModel, policy: ThresholdPolicy) -> Decomposition:
    n, p = model.n, model.p
    bs = np.asarray(policy.thresholds)
    # Record values are 1 at step 1 and 1/j afterwards; with nondecreasing
    # thresholds the stoppable steps form an upper range [c, n].
    hit = np.nonzero(1.0 / np.arange(1, n + 1) <= bs)[0]
    if len(hit) == 0:
        return Decomposition(0.0, 0.0)
    c = int(hit[0]) + 1
    if c == 1:
        total = (1.0 - p) ** (n - 1)
        return Decomposition(total, 0.0)
    # Stop happens at the first low draw j in [c, n] and succeeds when it is
    # the last one.  The running minimum M_{c-1} seen before it decides the
    # jump/drift attribution: M_{c-1} > b_{j-1} iff b_{j-1} < 1 and no step
    # l in [2, c-1] with 1/l <= b_{j-1} drew low.
    weight = p * (1.0 - p) ** (n - c)
    lows = 1.0 / np.arange(c - 1, 1, -1)  # 1/l for l = c-1..2, ascending
    prev = bs[c - 2 : n - 1]
    lows_at_or_below = np.searchsorted(lows, prev, side="right")
    above = np.where(prev < 1.0, (1.0 - p) ** lows_at_or_below, 0.0)
    return Decomposition(weight * math.fsum(above), weight * math.fsum(1.0 - above))


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------

def solve(model: ObservationModel, keep_tables: bool = False) -> DpSolution:
    """Optimal stopping solution for a discrete model.

    Value tables are materialized only when keep_tables is True; the
    Bernoulli pyramid has no lattice tables.  The step cap defaults to 10^4
    and can be overridden with STOPRULE_MAX_N.
    """
    check_step_cap(model.n)
    if model.kind == BERNOULLI_PYRAMID:
        c = _pyramid_cutoff(model.n, model.p)
        policy = ThresholdPolicy((-math.inf,) * (c - 1) + (math.inf,) * (model.n - c + 1))
        return DpSolution(model, None, policy, _pyramid_policy_value(model, policy))
    b, jump, drift, v0, stop_tab, cont_tab = _lattice_pass(model, want_tables=keep_tables)
    total = jump + drift
    if abs(total - v0) > _CONSISTENCY_TOL:
        raise PrecisionError(
            f"jump/drift sums ({total}) disagree with backward value ({v0})"
        )
    thresholds = tuple(float(x) for x in b[:-1]) + (math.inf,)
    tables = None
    if keep_tables:
        tables = ValueTables(model, stop_tab, cont_tab)
    return DpSolution(
        model=model,
        tables=tables,
        policy=ThresholdPolicy(thresholds),
        decomposition=Decomposition(jump, drift),
    )


def policy_value(model: ObservationModel, policy: ThresholdPolicy) -> Decomposition:
    """Exact success probability of an arbitrary monotone threshold policy,
    split by first passage into the stopping region by jump or by drift.

    The rule stops at the first record (j, x) with x <= b_j; if no such record
    occurs the attempt fails.  Solver-emitted policies end with b_n = +inf,
    which makes this agree with the forced-stop-at-n convention.
    """
    if policy.n != model.n:
        raise InvalidPolicyError(f"policy length {policy.n} != n = {model.n}")
    if not policy.is_nondecreasing():
        raise InvalidPolicyError("thresholds must be nondecreasing")
    check_step_cap(model.n)
    if model.kind == BERNOULLI_PYRAMID:
        return _pyramid_policy_value(model, policy)
    _, jump, drift, _, _, _ = _lattice_pass(model, policy=policy)
    return Decomposition(jump, drift)


# ---------------------------------------------------------------------------
# Enumeration oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(model: ObservationModel) -> float:
    """Optimal success probability by exhausting all outcome tuples.

    Decisions are recomputed by backward recursion over full observation
    histories (not just the running minimum), so agreement with solve() also
    certifies that the (step, minimum) state is sufficient.  Capped at 10^6
    outcome tuples and ORACLE_MAX_STEPS steps.
    """
    n = model.n
    supports, count = [], 1
    for j in range(1, n + 1):
        supports.append(model.atoms(j))
        count *= len(supports[-1])
        if count > ENUMERATION_CAP or j > ORACLE_MAX_STEPS:
            raise ResourceLimitError(f"n={n} exceeds the oracle caps of {ENUMERATION_CAP}"
                                     f" outcome tuples and {ORACLE_MAX_STEPS} steps")

    # Survival products P(X_k >= x) for every distinct support value; by
    # independence the stop payoff is exact regardless of history.
    values = sorted({v for sup in supports for v, _ in sup})
    idx = {v: i for i, v in enumerate(values)}
    surv = np.ones((n + 2, len(values)))
    for k in range(n, 0, -1):
        row = np.array(
            [math.fsum(pb for vv, pb in supports[k - 1] if vv >= v) for v in values]
        )
        surv[k] = surv[k + 1] * row

    def best(prefix: tuple) -> float:
        # Optimal continuation over the full history tree: no state
        # compression, every prefix is treated as its own node.
        j = len(prefix)
        x = prefix[-1]
        is_record = all(x <= earlier for earlier in prefix[:-1])
        stop = float(surv[j + 1][idx[x]]) if is_record else -1.0
        if j == n:
            return max(stop, 0.0)
        cont = math.fsum(pb * best(prefix + (v,)) for v, pb in supports[j])
        return max(stop, cont)

    return math.fsum(pb * best((v,)) for v, pb in supports[0])
