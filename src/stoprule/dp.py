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
value v0.  Stop columns and P(M_m >= y) are exp of a log-space closed form
(log-gamma differences for the triangular kind, from one shared log Gamma
table at the integers that equals scipy's gammaln bit for bit), so no
intermediate product under/overflows even at n ~ 10^4.  The logs that do not
depend on the step are computed once per lattice.  The sweep reuses two stop
and two continuation columns.  The thresholds are nondecreasing (a pass that
finds otherwise raises PrecisionError), so the drift windows tile (b_1, b_n]
in step order and the step of each y follows from them: the sweep records
only v(m, y), and one P(M_m >= y) call and one fsum give the drift mass.

Each step touches only the cells its outputs read.  A policy pass fills the
columns of step j only on [lo_j, b_{j+1}]: the jump sum reads s(j, .) up to
b_j, the drift window reads v(j, .) on (b_j, b_{j+1}], and step j - 1 reads
both only up to b_j.  Its cumsums are prefix scans and every other operation
is elementwise, so each entry written has the bits of a whole-column pass.
The optimal pass without tables rests on two facts:

- Outputs read low cells only.  The stop column of step j < n goes through
  exp only on [lo_j, cut_j], where cut_j + 1 is the first x whose log is
  below the floor log(1 / (2 size_{j+1})) minus a margin of 1, and reads
  +0.0 past it: v(j, x) >= s(j+1, lo_{j+1}) / size_{j+1} = 1 / size_{j+1} on
  [lo_{j+1}, hi], so there s < v / 2, max(s, v) is v and the test s >= v
  fails.  (The log falls in x, strictly from lo_j + 1 on, and its rounding
  error is about 1e-8 even at LATTICE_WIDTH_CAP, far below the margin.)  So
  the threshold and jump sum of step j read cells up to cut_j, its drift
  window cells up to b_{j+1} <= cut_{j+1}, and v(j, x) reads the cells
  y <= x of step j + 1.  A window U_j >= max_{i <= j+1} cut_i therefore
  keeps every threshold, jump and drift bit, whatever the cells above it
  hold.
- Only the consistency gate reads the rest.  v0, a sum over whole columns,
  feeds nothing printed.  Writing +0.0 at every cell (j, x) with
  P(M_j >= x) <= _REACH_EPS moves it by at most the chance that the chain
  visits such a cell, n * _REACH_EPS.

So step j fills its columns on [lo_j, U_j] with U_j = max(R_j, max_{i <= j+1}
cut_i), where the reach R_j is the largest x with P(M_j >= x) > _REACH_EPS,
and its cells past U_j read +0.0; one bisection over all steps before the
pass gives every cut_j and R_j (`_windows`).  triangular(9000) fills 3.4M of
its 41M cells.  Passes with value tables fill whole columns.

The work is split in two halves.  The backward half (`_Sweep.advance`) keeps
per-step records by steps left r = n - j: threshold, jump sum and
drift-window values, the backward sum at its frontier, plus the frontier's
two columns, so it can go on from where it stopped.  The forward half
(`_Sweep.horizon`) forms the factors P(M_{j-1} >= .), the jump and drift
fsums and the consistency gate for one horizon in O(n).  For the triangular
kind the records do not depend on n: in y = n - x, X_j is uniform on
{0..r}, and the stop column, its cut and the threshold at r are the same for
every horizon (the closed form reads only r - y - 1, y + 1, y + 2 and
r + 1, and the floor reads size_{j+1} = r).  The reach does depend on n: the
same r is a later step of a larger horizon, with a smaller reach.  So
records swept for horizon n serve every larger horizon, and `solve` keeps
one set of triangular records and extends it when a larger n is asked for;
a smaller n than its records were swept for gets a pass of its own, whose v0
would otherwise read cells cut for the larger one.  An ascending sequence of
triangular solves costs one sweep to the largest n plus O(n) per call.
Rectangular solves, policy evaluations and solves with tables run both
halves once.

For arbitrary monotone policies the same sums apply with v replaced by the
"stop at every future record below y" chain, which is what any monotone
threshold rule does after first passage.
"""

from __future__ import annotations

import math
import threading
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

# The optimal pass reads +0.0 at cells (j, x) with P(M_j >= x) at most this.
_REACH_EPS = 1e-20


def _first_true(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise the first x in (lo, hi] with pred(x), by bisection: pred
    must fail at lo and, from its first hit on, hold at every x up to hi,
    where it is not evaluated."""
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        hit = pred(mid)
        lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)
    return hi


# cephes lgam, which scipy.special.gammaln calls: log(sqrt(2 pi)) and the
# coefficients of its Stirling series in 1/x^2, highest power first, below
# x = 1000 and from there on.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_A_LARGE = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                 0.0833333333333333333333)


def _log_gamma_range(start: int, stop: int) -> np.ndarray:
    """log Gamma(k) for k = start..stop-1 (inf at 0), bit for bit what
    scipy.special.gammaln returns at these integers for stop <= 10^8: the log
    of the exact factorial below 13, cephes' Stirling form from 13 on, in its
    operation order and with the libm log of math.log (numpy's log differs in
    the last bit at some integers).  Each entry depends on k alone."""
    small = [math.inf, *(math.log(math.factorial(k)) for k in range(12))][start:stop]
    first = max(13, start)
    x = np.arange(float(first), stop)
    log_x = np.fromiter(map(math.log, x.tolist()), float, len(x))
    p = 1.0 / (x * x)
    series = np.empty_like(x)
    large = max(0, 1000 - first)  # index of x = 1000 in x, if there
    for coeffs, part in ((_LGAM_A, slice(None, large)), (_LGAM_A_LARGE, slice(large, None))):
        acc = coeffs[0]
        for c in coeffs[1:]:  # Horner, as cephes polevl
            acc = acc * p[part] + c
        series[part] = acc
    return np.concatenate([small, (x - 0.5) * log_x - x + _LS2PI + series / x])


# One log Gamma table for every triangular lattice, grown to the largest
# length asked for.
_LOG_GAMMA = np.zeros(0)
_LOG_GAMMA_LOCK = threading.Lock()


def _log_gamma_ints(m: int) -> np.ndarray:
    """log Gamma(k) for k = 0..m-1, read-only, from the shared table; growing
    it computes only the new entries, so it keeps the bits it had."""
    global _LOG_GAMMA
    with _LOG_GAMMA_LOCK:
        if len(_LOG_GAMMA) < m:
            grown = np.concatenate([_LOG_GAMMA, _log_gamma_range(len(_LOG_GAMMA), m)])
            grown.flags.writeable = False
            _LOG_GAMMA = grown
        return _LOG_GAMMA[:m]


class _TriLattice:
    """X_j uniform on {j, ..., n}; reachable record states j <= x <= n."""

    def __init__(self, n: int):
        self.n = n
        self._lg = _log_gamma_ints(n + 3)
        x = np.arange(n + 1)
        self._steps = np.arange(-1.0, n)  # x - j - 1 for x = j, j + 1, ...
        self._log_room = np.log(n - x + 1.0)
        self._lg_room = self._lg[n - x + 2]

    def log_stop(self, j, x):
        """log s(j, x), elementwise in integer arrays j and x with j <= x <= n,
        by the operations `stop_col` sends through exp."""
        return (x - j - 1.0) * self._log_room[x] + self._lg_room[x] - self._lg[self.n - j + 1]

    def stop_col(self, j: int, out: np.ndarray, cut: int) -> None:
        """s(j, x) = prod_{i=0}^{x-j-1} (n-x+1)/(n-j-i) for x in [j, cut),
        written to out[j:cut]."""
        col = out[j:cut]
        np.multiply(self._steps[: cut - j], self._log_room[j:cut], out=col)
        np.add(col, self._lg_room[j:cut], out=col)
        np.subtract(col, self._lg[self.n - j + 1], out=col)
        np.exp(col, out=col)
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

    def __init__(self, model: ObservationModel):
        self.model, self.n, k = model, model.n, model.k
        # log P(X >= x) for x in [1..K]
        self._log_surv = np.log(k - np.arange(1, k + 1) + 1.0) - math.log(k)

    def log_stop(self, j, x):
        """log s(j, x), elementwise in integer arrays j and x with 1 <= x <= K."""
        return (self.n - j) * self._log_surv[x - 1]

    def stop_col(self, j: int, out: np.ndarray, cut: int) -> None:
        """s(j, x) = ((K-x+1)/K)^(n-j) for x in [1, cut), written to out[1:cut]."""
        np.multiply(self.n - j, self._log_surv[: cut - 1], out=out[1:cut])
        np.exp(out[1:cut], out=out[1:cut])

    def prob_min_ge(self, j, ys: np.ndarray) -> np.ndarray:
        return self.model.survival(1, ys - 1) ** j


def _lattice_for(model: ObservationModel):
    if model.kind not in (TRIANGULAR, RECTANGULAR):
        raise UnsupportedModelError(f"no lattice solver for {model.kind}")
    x_max = model.support(model.n)[1]
    if x_max > LATTICE_WIDTH_CAP:  # refused before any column is allocated
        raise ResourceLimitError(f"lattice width {x_max} is above cap {LATTICE_WIDTH_CAP}")
    return _TriLattice(model.n) if model.kind == TRIANGULAR else _RectLattice(model)


def _windows(lat, model: ObservationModel, start: int):
    """cut_j + 1 and U_j + 1 of the module docstring, as arrays over the
    records r = start..n-1 of the optimal pass without tables (the last
    stop column, r = 0, is whole)."""
    n, x_max = model.n, model.support(model.n)[1]
    r = np.arange(max(start - 1, 0), n)
    j = n - r
    lo, top = model._interval(j)[0] + 0 * j, np.full(len(r), x_max + 1)
    # the floor log(1 / (2 size_{j+1})) of the module docstring
    size = x_max + 1 - model._interval(np.minimum(j + 1, n))[0]
    key = np.where(r > 0, -np.log(2.0 * size) - 1.0, -np.inf)
    cut = _first_true(lambda x: lat.log_stop(j, x) < key, lo, top)
    reach = _first_true(lambda x: lat.prob_min_ge(j, x) <= _REACH_EPS, lo, top)
    needed = np.maximum.accumulate(cut[::-1])[::-1]  # max over r' >= r
    end = np.maximum(reach, np.r_[needed[:1], needed[:-1]])
    return cut[min(start, 1) :], end[min(start, 1) :]


# ---------------------------------------------------------------------------
# Backward half: records kept by steps left
# ---------------------------------------------------------------------------

class _Sweep:
    """Records of one backward sweep, kept by steps left r = n - j.

    Per step: the threshold as y_b = x_max - b_j and the jump sum
    ssum = sum_{lo <= x <= b_j} s(j, x).  Per horizon n the sweep went to:
    the backward sum sum_x max(s(1, x), v(1, x)) (vsum[n]); step r was swept
    for the least such n above r.  Per lattice value x: v(j, x) of the step
    whose drift window (b_j, b_{j+1}] covers it.  The windows tile
    (b_1, b_n] in step order, so that step follows from the thresholds.  The
    stop and continuation columns of the frontier step let `advance` go on
    later; every step is filled at y = x_max - x >= filled_from.  Arrays over
    lattice values are aligned to the right, so x of a horizon with top
    x_max sits at index x + len - 1 - x_max.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.steps = 0
            self.filled_from = 0
            self.y_b = np.zeros(0, dtype=np.int64)
            self.ssum = np.zeros(0)
            self.vsum = {}  # horizon swept to: backward sum of its first step
            self.drift_cont = np.zeros(0)
            self.stop = np.zeros(0)
            self.cont = np.zeros(0)

    def _grow(self, width: int, steps: int) -> None:
        for name in ("y_b", "ssum"):
            old = getattr(self, name)
            new = np.zeros(steps, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)
        for name in ("drift_cont", "stop", "cont"):
            old = getattr(self, name)
            new = np.zeros(width, dtype=old.dtype)
            new[width - len(old) :] = old
            setattr(self, name, new)

    def advance(self, lat, model: ObservationModel, thresholds=None, tables=None) -> None:
        """Sweep on from the frontier until all n steps of model are
        recorded.  With thresholds=None the sweep solves for the optimal
        rule; with a policy's thresholds it evaluates that rule (the
        continuation chain is then "stop at every future record").  The
        steps already recorded must be the last steps of model too, swept
        for no larger horizon, and the columns no wider than its lattice.

        Step j fills its columns on [lo_j, end_j) and they read +0.0 from
        there to where they were filled two steps before.  A pass with
        tables fills whole columns.  A policy pass stops at min(hi,
        max(lo_j, b_{j+1})) (b_n at the last step): its jump sum, its drift
        window and the step before read no further, so its frontier columns
        cannot be extended.  The optimal pass without tables takes its
        stop-column cuts and fill ends from `_windows` (see the module
        docstring); if its new steps would widen the window an earlier
        record was filled on, it sweeps anew from r = 0."""
        n, x_max = model.n, model.support(model.n)[1]
        start, width, optimal = self.steps, x_max + 1, thresholds is None
        if optimal and tables is None:
            cut, end = _windows(lat, model, start)
            if start and width - int(cut.max()) < self.filled_from:
                self.clear()
                return self.advance(lat, model)
        self._grow(width, n)
        if not optimal:
            # clamp to [0, x_max]: anything below the support stops nothing
            b = np.clip(np.floor(thresholds[::-1]), 0, x_max).astype(np.int64)
            self.y_b[:] = x_max - b
            # a policy reads step j only up to b_{j+1} (b_n at the last step)
            lo = model._interval(n - np.arange(n))[0]
            cut = end = np.minimum(x_max, np.maximum(lo, b[np.r_[0, : n - 1]])) + 1
        elif tables is not None:
            cut = end = np.full(n - start, width)
        self.filled_from = max(self.filled_from, width - int(end.min()))
        # Two stop and two continuation columns, swapped every step: fresh
        # ones, or the frontier's, filled whole.  Entries below the support
        # are never written, so cont stays 0 there; the recurrence fills
        # cont[lo1:end] and cont[lo:lo1] is zeroed.  Each column is zeroed
        # from its end up to where it was filled two steps before (stale).
        stale = np.maximum(end, np.r_[0, width if start else 0, end][: n - start])
        s_col, s_next = np.zeros(width), self.stop
        cont, cont_next = np.zeros(width), self.cont
        w = np.empty(width)
        tail = np.empty(width)
        # P(X_{j+1} > x) = (x_max - x) / size on the support (both kinds have
        # hi = x_max at every step).  Rebuilt only when the support moves:
        # every step for triangular, once for rectangular, at r = 1, whose
        # end is the largest (whole in an optimal pass; a policy pass's ends
        # only fall as r grows).
        room = np.arange(x_max, -1.0, -1.0)
        p_above = np.empty(width)
        above_support = None
        hit = np.empty(width, dtype=bool)
        try:
            # (memoryviews yield one int at a time; lists would hold n of each)
            for r, cut_r, end_r, stale_r in zip(range(start, n), memoryview(cut),
                                                memoryview(end), memoryview(stale)):
                j = n - r
                lo = model.support(j)[0]
                lat.stop_col(j, s_col, cut_r)
                s_col[cut_r:stale_r] = 0.0
                if r:
                    lo1, hi1 = model.support(j + 1)
                    size = hi1 - lo1 + 1
                    cont[lo:lo1] = 0.0
                    acc, pt = w[lo1:end_r], tail[lo1:end_r]
                    if optimal:
                        np.maximum(s_next[lo1:end_r], cont_next[lo1:end_r], out=acc)
                        np.add.accumulate(acc, out=acc)
                    else:
                        np.add.accumulate(s_next[lo1:end_r], out=acc)
                    np.divide(acc, size, out=acc)
                    if above_support != (lo1, hi1):
                        above_support = (lo1, hi1)
                        np.divide(room[lo1:end_r], size, out=p_above[lo1:end_r])
                    np.multiply(p_above[lo1:end_r], cont_next[lo1:end_r], out=pt)
                    np.add(acc, pt, out=cont[lo1:end_r])
                    np.minimum(cont[lo1:end_r], 1.0, out=cont[lo1:end_r])
                    cont[end_r:stale_r] = 0.0

                if optimal:
                    # largest x with s >= v, which lies inside the exp prefix
                    np.greater_equal(s_col[lo:cut_r], cont[lo:cut_r], out=hit[lo:cut_r])
                    self.y_b[r] = x_max + 1 - cut_r + hit[lo:cut_r][::-1].argmax()
                    if r and self.y_b[r] < self.y_b[r - 1]:
                        raise PrecisionError(f"drift windows overlap: b_{j} > b_{j + 1}")
                bj = x_max - int(self.y_b[r])
                if bj >= lo:
                    self.ssum[r] = np.add.reduce(s_col[lo : bj + 1])

                # Drift mass at y in the window (b_j, b_{j+1}] is
                # P(M_j = y) v(j, y); the windows are disjoint.
                window = slice(bj + 1, x_max - int(self.y_b[r - 1]) + 1 if r else 0)
                self.drift_cont[window] = cont[window]

                if tables is not None:
                    tables[0][j, lo:end_r] = s_col[lo:end_r]
                    tables[1][j, lo:end_r] = cont[lo:end_r]
                s_col, s_next = s_next, s_col
                cont, cont_next = cont_next, cont
            if optimal:  # the frontier's backward sum
                lo = model.support(1)[0]
                np.maximum(s_next[lo:], cont_next[lo:], out=w[lo:])
                self.vsum[n] = np.add.accumulate(w[lo:], out=w[lo:])[-1]
        except BaseException:
            self.clear()  # a half-swept frontier must not be extended later
            raise
        self.stop, self.cont, self.steps = s_next, cont_next, n

    def horizon(self, lat, model: ObservationModel, optimal: bool = True):
        """Forward half: thresholds b_1..b_n, jump and drift of the horizon
        n = model.n from the first n records, with the consistency gate on
        the optimal rule.  lat is model's lattice."""
        n, x_max = model.n, model.support(model.n)[1]
        b = x_max - self.y_b[n - 1 :: -1]
        size = x_max + 1 - np.broadcast_to(model._interval(np.arange(1, n + 1))[0], n)
        # Jump mass at step j is P(M_{j-1} >= b_j + 1) * ssum_j / size_j.
        pm = lat.prob_min_ge(np.arange(n), b + 1)
        jump = math.fsum(pm * self.ssum[n - 1 :: -1] / size)
        # y in (b_1, b_n] lies in the drift window (b_j, b_{j+1}] of step
        # j = #{i : b_i < y}.
        ys = np.arange(b[0] + 1, b[-1] + 1)
        js = np.searchsorted(b, ys)
        # P(M_j = y) = P(M_j >= y) - P(M_j >= y + 1)
        pge = lat.prob_min_ge(js[:, None], ys[:, None] + np.array([0, 1]))
        drift = math.fsum((pge[:, 0] - pge[:, 1]) * self.drift_cont[ys - x_max - 1])
        if optimal:
            v0 = float(self.vsum[n]) / size[0]
            if abs(jump + drift - v0) > _CONSISTENCY_TOL:
                raise PrecisionError(
                    f"jump/drift sums ({jump + drift}) disagree with backward value ({v0})"
                )
        return b, jump, drift


# Triangular records: at r steps left X_j is uniform on y = n - x in {0..r},
# a law that does not name n, so one sweep serves every horizon up to its
# frontier and a larger horizon extends it.
_TRIANGULAR = _Sweep()


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
    Bernoulli pyramid has no lattice tables.  Triangular solves without
    tables share one backward pass, extended to the largest n asked for.
    The step cap defaults to 10^4 and can be overridden with STOPRULE_MAX_N.
    """
    check_step_cap(model.n)
    if model.kind == BERNOULLI_PYRAMID:
        c = _pyramid_cutoff(model.n, model.p)
        policy = ThresholdPolicy((-math.inf,) * (c - 1) + (math.inf,) * (model.n - c + 1))
        return DpSolution(model, None, policy, _pyramid_policy_value(model, policy))
    # Both caps are checked before the triangular records are read, so
    # whether a call is refused does not depend on earlier calls.
    lat = _lattice_for(model)
    n, width = model.n, model.support(model.n)[1] + 1
    tables = None
    if keep_tables:
        if (n + 1) * width > TABLE_CELL_CAP:
            raise ResourceLimitError(
                f"value tables need {(n + 1) * width} cells, above cap {TABLE_CELL_CAP}"
            )
        tables = (np.full((n + 1, width), np.nan), np.full((n + 1, width), np.nan))
    sweep = _TRIANGULAR if model.kind == TRIANGULAR and not keep_tables else _Sweep()
    with sweep.lock:
        if sweep.steps >= n and n not in sweep.vsum:
            sweep = _Sweep()  # records swept for a larger horizon: a pass of its own
        if sweep.steps < n:
            sweep.advance(lat, model, tables=tables)
        b, jump, drift = sweep.horizon(lat, model)
    thresholds = tuple(float(x) for x in b[:-1]) + (math.inf,)
    if keep_tables:
        tables = ValueTables(model, *tables)
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
    lat = _lattice_for(model)
    sweep = _Sweep()
    sweep.advance(lat, model, thresholds=policy.thresholds)
    _, jump, drift = sweep.horizon(lat, model, optimal=False)
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
