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
(triangular: log-gamma differences from one shared table of log Gamma at the
integers, scipy's gammaln bit for bit), so nothing under/overflows at
n ~ 10^4; its step-free logs are computed once per lattice.  The thresholds
are nondecreasing (else PrecisionError), so the drift windows tile
(b_1, b_n] in step order: the sweep records only v(m, y), and the step of
each y follows from the thresholds.

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
  hold.  That maximum is cut_{j+1}: the cuts fall as the steps left r grow.
  Rectangular: log s = r log P(X >= x) falls with r under the fixed floor
  log(1 / (2K)) - 1.  Triangular, in y = n - x: past the cut at r, y <= r - 2
  (s = 1 at y = r - 1 and r), so one more step left multiplies s there by
  (y + 1) / (r + 1) <= (r - 1) / (r + 1) while the floor falls by
  log((r + 1) / r) only.
- Only the consistency gate reads the rest.  v0, a sum over whole columns,
  feeds nothing printed.  Writing +0.0 at every cell (j, x) with
  P(M_j >= x) <= _REACH_EPS moves it by at most the chance that the chain
  visits such a cell, n * _REACH_EPS.

So step j fills its columns on [lo_j, U_j] with U_j = max(R_j, cut_{j+1}),
where the reach R_j is the largest x with P(M_j >= x) > _REACH_EPS, and its
cells past U_j read +0.0; one bisection over all steps before the pass gives
every cut_j and R_j (`_windows`).  triangular(9000) fills 3.4M of its 41M
cells.  Passes with value tables fill whole columns.

The backward half (`_Sweep.advance`) keeps per-step records by steps left
r = n - j (threshold, jump sum, drift-window values, and the frontier's
backward sum and two columns), so it can go on, a block of steps at a time,
from where it stopped.  The forward half (`_Sweep.horizon`) forms the jump
and drift fsums and the consistency gate of one horizon from P(M_{j-1} >= .)
in O(n).  Triangular records do not depend on n: in y = n - x, X_j is uniform
on {0..r}, and the stop column, its cut and the threshold at r read only r
and y (the floor reads size_{j+1} = r).  The reach does depend on n, so
`solve` keeps one set of triangular records and extends it to a larger n; a
smaller n gets a pass of its own, whose v0 would read cells cut for the
larger one.  An extension reads the old records only through the frontier,
step 1 of their horizon, whose columns are whole (P(M_1 >= x) >=
1 / size_1 > _REACH_EPS) and whose value at x reads old cells only up to x.
Every old record was filled at least up to the frontier's cut, and no new
step's cut passes it, as the cuts fall in r.  So an extension keeps every bit
of a pass of its own, and ascending triangular solves cost one sweep to the
largest n plus O(n) each.  Rectangular solves, policy evaluations and solves
with tables run both halves once.

For arbitrary monotone policies the same sums apply with v replaced by the
"stop at every future record below y" chain, which is what any monotone
threshold rule does after first passage.

Every s and v is a probability, and round-to-nearest keeps v <= 1 with no
clamp.  With S = size_{j+1}, v(j, x) sums m = x - lo_{j+1} + 1 terms in
[0, 1] (max(s, v) of step j + 1, or s in a policy pass; s <= 1 by its clamp,
v by induction from v = 0 at r = 0), divides by S and adds fl((S - m) / S)
v(j + 1, x).  The sum is <= m (m is exact, rounding monotone), so the two
parts are <= fl(m / S) and fl((S - m) / S), whose exact sum <= 1 + 2^-53
rounds to 1.0 (ties to even).  The stop rows keep their clamp: the triangular
log-gamma differences overshoot 0 at x = lo_j (13 cells of triangular(50)).
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
# Most cells (n + 1) * (x_max + 1) of a value table: both float64 tables take
# 256 MiB at the cap, and `value --tables` writes them as CSV in 25 to 45 s
# (1.4 to 2.7 us a cell on one 2-core Xeon, quiet to busy).
TABLE_CELL_CAP = 1 << 24
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
        self._log_room = np.log(n - x + 1.0)
        self._lg_room = self._lg[n - x + 2]

    def log_stop(self, j, x):
        """log s(j, x) of s(j, x) = prod_{i=0}^{x-j-1} (n-x+1)/(n-j-i),
        elementwise in integer arrays j and x with j <= x <= n, through
        log-gamma differences."""
        log = x - (j + 1.0)  # each step in place: a box is one array, not four
        log *= self._log_room[x]
        log += self._lg_room[x]
        log -= self._lg[self.n - j + 1]
        return log

    def prob_min_ge(self, j, ys: np.ndarray) -> np.ndarray:
        """P(M_j >= y) for an integer array y in [1, n + 1], elementwise in
        j as well: exactly 1.0 at y = 1 and 0.0 at y = n + 1, where j = 0 (the
        empty minimum M_0 = +inf) gives NaN and so takes the where."""
        n, lg = self.n, self._lg
        t = np.minimum(j, ys - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(t * np.log(n - ys + 1.0) - (lg[n + 1] - lg[n - t + 1]))
        return np.where(j == 0, 1.0, out)


class _RectLattice:
    """X_j uniform on {1, ..., K}; record states 1 <= x <= K."""

    def __init__(self, model: ObservationModel):
        self.model, self.n, k = model, model.n, model.k
        # log P(X >= x) for x in [1..K]
        self._log_surv = np.log(k - np.arange(1, k + 1) + 1.0) - math.log(k)

    def log_stop(self, j, x):
        """log s(j, x) of s(j, x) = ((K-x+1)/K)^(n-j), elementwise in integer
        arrays j and x with 1 <= x <= K."""
        return (self.n - j) * self._log_surv[x - 1]

    def prob_min_ge(self, j, ys: np.ndarray) -> np.ndarray:
        return self.model.survival(1, ys - 1) ** j


def _lattice_for(model: ObservationModel):
    if model.kind not in (TRIANGULAR, RECTANGULAR):
        raise UnsupportedModelError(f"no lattice solver for {model.kind}")
    x_max = model.support(model.n)[1]
    if x_max > LATTICE_WIDTH_CAP:  # refused before any column is allocated
        raise ResourceLimitError(f"lattice width {x_max} is above cap {LATTICE_WIDTH_CAP}")
    return _TriLattice(model.n) if model.kind == TRIANGULAR else _RectLattice(model)


# Cells of the box of a block of steps in `_Sweep.advance` (256 KB as floats).
_BLOCK_CELLS = 1 << 15


def _stop_rows(lat, j, x, cut, out):
    """s(j, x) into out, for columns j and cut (one entry a step) and a row x
    of lattice values: exp of the log `_windows` bisects, clamped at 1, where
    x < cut (the mask returned).  Cells from cut on go through no exp (it is
    slow on underflow) and keep the +0.0 that `advance` fills its box with
    first: the clamp leaves any value <= 1, or NaN, as it was.  Cells below
    lo_j hold junk."""
    inside = x < cut
    np.exp(lat.log_stop(j, x), out=out, where=inside)
    np.minimum(out, 1.0, out=out)  # binds at lo_j (module docstring)
    return inside


def _windows(lat, model: ObservationModel, start: int):
    """cut_j + 1 and U_j + 1 of the module docstring, as arrays over the
    records r = start..n-1 of the optimal pass without tables (the last
    stop column, r = 0, is whole)."""
    n, x_max = model.n, model.support(model.n)[1]
    r = np.arange(max(start - 1, 0), n)
    j = n - r
    lo, top = model._interval(j)[0], np.full(len(r), x_max + 1)
    # the floor log(1 / (2 size_{j+1})) of the module docstring
    size = x_max + 1 - model._interval(np.minimum(j + 1, n))[0]
    key = np.where(r > 0, -np.log(2.0 * size) - 1.0, -np.inf)
    cut = _first_true(lambda x: lat.log_stop(j, x) < key, lo, top)
    reach = _first_true(lambda x: lat.prob_min_ge(j, x) <= _REACH_EPS, lo, top)
    end = np.maximum(reach, np.r_[cut[:1], cut[:-1]])  # cut_{j+1} is at r - 1
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
    whose drift window (b_j, b_{j+1}] covers it.  The frontier step's
    columns, whole after an optimal pass, let `advance` go on later.  Arrays
    over lattice values are aligned to the right, so x of a horizon with top
    x_max sits at index x + len - 1 - x_max.
    """

    def __init__(self):
        self.lock = threading.RLock()
        self.clear()

    def clear(self) -> None:
        with self.lock:
            self.steps = 0
            self.y_b = np.zeros(0, dtype=np.int64)
            self.ssum = np.zeros(0)
            self.vsum = {}  # horizon swept to: backward sum of its first step
            self.drift_cont = np.zeros(0)
            self.stop = np.zeros(0)
            self.cont = np.zeros(0)

    def _grow(self, width: int, steps: int) -> None:
        for name in ("y_b", "ssum", "drift_cont", "stop", "cont"):
            old, by_step = getattr(self, name), name in ("y_b", "ssum")
            new = np.zeros(steps if by_step else width, dtype=old.dtype)
            new[slice(len(old)) if by_step else slice(width - len(old), None)] = old
            setattr(self, name, new)

    def advance(self, lat, model: ObservationModel, thresholds=None, tables=None) -> None:
        """Sweep on from the frontier until all n steps of model are
        recorded.  With thresholds=None the sweep solves for the optimal
        rule; with a policy's thresholds it evaluates that rule (the
        continuation chain is then "stop at every future record").  The
        steps already recorded must be the last steps of model too, swept
        for no larger horizon, and the columns no wider than its lattice.

        Step j fills its columns on [lo_j, end_j) and they read +0.0
        elsewhere (see the module docstring): whole columns with tables, up
        to min(hi, max(lo_j, b_{j+1})) in a policy pass (so its frontier
        cannot be extended), and from `_windows` in the optimal pass without
        tables.

        Consecutive steps go in blocks whose box, the steps by [min lo_j,
        max end_j), has at most _BLOCK_CELLS cells or one step.  One exp
        over the box fills the stop rows; a few calls over it give the
        thresholds, overlap check and drift windows.  The recursion and jump
        sums go step by step, on the slices a column pass would use."""
        n, x_max = model.n, model.support(model.n)[1]
        start, width, optimal = self.steps, x_max + 1, thresholds is None
        if optimal and tables is None:
            cut, end = _windows(lat, model, start)
        self._grow(width, n)
        j = n - np.arange(start, n)
        lo = model._interval(j)[0]
        lo1 = model._interval(np.minimum(j + 1, n))[0]  # lo_{j+1}
        if not optimal:
            # clamp to [0, x_max]: anything below the support stops nothing
            b = np.clip(np.floor(thresholds[::-1]), 0, x_max).astype(np.int64)
            self.y_b[:] = x_max - b
            # a policy reads step j only up to b_{j+1} (b_n at the last step)
            cut = end = np.minimum(x_max, np.maximum(lo, b[np.r_[0, : n - 1]])) + 1
        elif tables is not None:
            cut = end = np.full(n - start, width)
        # The frontier step's columns, filled on `front`; the boxes of a
        # block: stop rows, continuation rows and P(X_{j+1} > x).
        s_front, c_front, front, i0 = self.stop, self.cont, slice(0, width), 0
        room = np.arange(x_max, -1.0, -1.0)
        buffers = np.empty((3, min(max(_BLOCK_CELLS, width), (n - start) * width)))
        try:
            while i0 < len(j):
                # box widths only grow along a block, as lo_j falls
                span = slice(i0, i0 + max(1, _BLOCK_CELLS // int(end[i0] - lo[i0])))
                box = np.maximum.accumulate(end[span]) - lo[span]
                rows = max(1, int((box * np.arange(1, len(box) + 1) <= _BLOCK_CELLS).sum()))
                blk, r0, xlo = slice(i0, i0 + rows), start + i0, int(lo[i0 + rows - 1])
                xhi = xlo + int(box[rows - 1])
                buffers[:2, : rows * (xhi - xlo)] = 0.0
                stop, cont, p_above = buffers[:, : rows * (xhi - xlo)].reshape(3, rows, -1)
                # the stop rows are +0.0 from the block's largest cut on
                x = np.arange(xlo, int(cut[blk].max()))
                inside = _stop_rows(lat, j[blk, None], x, cut[blk, None], stop[:, : len(x)])
                # P(X_{j+1} > x) = (x_max - x) / size_{j+1} on the support
                size = x_max + 1.0 - lo1[blk]
                np.divide(room[xlo:xhi], size[:, None], out=p_above)
                s_rows, c_rows = [s_front[xlo:xhi], *stop], [c_front[xlo:xhi], *cont]
                for i, (sz, a, e) in enumerate(zip(size.tolist(), (lo1[blk] - xlo).tolist(),
                                                   (end[blk] - xlo).tolist())):
                    if r0 + i:  # col = cumsum / size + P(X_{j+1} > x) nxt, <= 1
                        nxt, col, pt = c_rows[i][a:e], c_rows[i + 1][a:e], p_above[i, a:e]
                        if optimal:
                            np.maximum(s_rows[i][a:e], nxt, out=col)
                            np.add.accumulate(col, out=col)
                        else:
                            np.add.accumulate(s_rows[i][a:e], out=col)
                        np.divide(col, sz, out=col)
                        np.multiply(pt, nxt, out=pt)
                        np.add(col, pt, out=col)
                    if tables is not None:  # whole columns: e is the box's end
                        a = int(lo[i0 + i]) - xlo
                        tables[0][n - r0 - i, xlo + a :] = stop[i, a:]
                        tables[1][n - r0 - i, xlo + a :] = cont[i, a:]
                y_b = self.y_b[r0 : r0 + rows]
                prev = int(self.y_b[r0 - 1] if r0 else y_b[0])
                if optimal:
                    # largest x in [lo_j, cut_j) with s >= v: it holds at
                    # lo_j, where s = 1 or v = 0, so below lo_j reads nothing
                    hit = (stop[:, : len(x)] >= cont[:, : len(x)]) & inside
                    y_b[:] = x_max - x[-1] + hit[:, ::-1].argmax(axis=1)
                    if np.any(down := np.diff(y_b, prepend=prev) < 0):
                        bad = n - r0 - int(down.argmax())
                        raise PrecisionError(f"drift windows overlap: b_{bad} > b_{bad + 1}")
                # jump sums over [lo_j, b_j] (empty when b_j < lo_j)
                ends = (np.maximum(x_max + 1 - y_b, lo[blk]) - xlo).tolist()
                self.ssum[r0 : r0 + rows] = [np.add.reduce(row[a:e]) for row, a, e in
                                             zip(s_rows[1:], (lo[blk] - xlo).tolist(), ends)]
                # Drift mass at y in the window (b_j, b_{j+1}] is P(M_j = y)
                # v(j, y); the windows are disjoint, y_b[r - 1] <= x_max - y <
                # y_b[r] at step r, and v = 0 below the box (and the support).
                xs = x_max - np.arange(prev, min(int(y_b[-1]), x_max + 1 - xlo))
                self.drift_cont[xs] = cont[y_b.searchsorted(x_max - xs, "right"), xs - xlo]
                s_front[front], c_front[front], front = 0.0, 0.0, slice(xlo, xhi)
                s_front[front], c_front[front] = stop[-1], cont[-1]
                i0 += rows
            if optimal:  # the frontier's backward sum
                lo = model.support(1)[0]
                self.vsum[n] = np.add.accumulate(np.maximum(s_front[lo:], c_front[lo:]))[-1]
        except BaseException:
            self.clear()  # a half-swept frontier must not be extended later
            raise
        self.stop, self.cont, self.steps = s_front, c_front, n

    def horizon(self, lat, model: ObservationModel, optimal: bool = True):
        """Forward half: thresholds b_1..b_n, jump and drift of the horizon
        n = model.n from the first n records, with the consistency gate on
        the optimal rule.  lat is model's lattice."""
        n, x_max = model.n, model.support(model.n)[1]
        b = x_max - self.y_b[n - 1 :: -1]
        size = x_max + 1 - model._interval(np.arange(1, n + 1))[0]
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
