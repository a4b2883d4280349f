"""Poisson-limit analytics for the best-choice problem.

The large-n limits of the lattice models reduce to first-passage problems for
a planar Poisson process.  A record's "box" is the region that must stay empty
for it to remain the minimum; its area z is the sufficient statistic.  Two box
geometries appear: rectangular (iid-style scatter on a strip) and triangular
(observations with a linear trend, scatter above the diagonal).  They are
the theta = 1 and theta = 1/2 members of the beta(theta, 1) area chain, in
which a record's share of its box is beta(theta, 1)-distributed.

For each geometry this module provides the success probabilities of stopping
at a record inside the box (jump) and of stopping at the next arrival in the
box (drift), the optimal box-area parameter beta* solving drift = e^{-z},
the value of the self-similar optimal boundary, the beta(theta, 1) jump-chain
generalization, and the integer-levels machinery (root ladder z_k, series
limits, general cutoff boundaries, lambda-intensity interpolation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .models import (
    Decomposition,
    DomainError,
    InvalidPolicyError,
    PrecisionError,
    ResourceLimitError,
    RootReport,
)

__all__ = [
    "expint_e1",
    "jump_success_rect",
    "drift_success_rect",
    "jump_success_tri",
    "drift_success_tri",
    "beta_star",
    "success_prob_boundary",
    "samuels_value",
    "gm_limit_finite_T",
    "theta_beta_star",
    "theta_limit",
    "BoundaryLadder",
    "ladder_residual",
    "rect_roots",
    "rect_limit",
    "rect_limit_tail_bound",
    "rect_general_boundary",
]

# Box areas above which the drift functions integrate against the jump
# functions: the balance series needs more terms than it keeps from z ~ 250.
_LARGE_AREA = 50.0


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def expint_e1(x: float) -> float:
    """Exponential integral E1(x) = int_x^inf e^{-s}/s ds for x > 0."""
    if x <= 0:
        raise DomainError(f"expint_e1 requires x > 0, got {x}")
    return float(special.exp1(x))


def _balance(theta: float, z: float) -> float:
    """e^z drift(z) for the beta(theta, 1) area chain, the balance that equals
    1 at the optimal box area: int_0^z 1F1(1; theta+1; u) du
    = sum_{m>=1} z^m / (m (theta+1)_{m-1}), positive terms, entire in z.
    theta = 1 is int_0^z (e^s - 1)/s ds, the rectangular geometry, and
    theta = 1/2 the triangular one."""
    term = total = z  # m = 1
    for k in range(2, 400):
        term *= z / (theta + (k - 1))
        piece = term / k
        total += piece
        if abs(piece) < 1e-17 * max(abs(total), 1e-300):
            break
    return total


# ---------------------------------------------------------------------------
# Box-success functions of the beta(theta, 1) area chain
# ---------------------------------------------------------------------------

def _jump(theta: float, z: float) -> float:
    """Success probability stopping at a record placed in a box of area z,
    when the record's share of the box is beta(theta, 1):
    int_0^1 e^{-z v} theta v^{theta-1} dv = 1F1(theta; theta+1; -z)."""
    if z < 0:
        raise DomainError(f"box area must be nonnegative, got {z}")
    return float(special.hyp1f1(theta, theta + 1.0, -z))


def _drift(theta: float, z: float) -> float:
    """Drift success e^{-z} _balance(theta, z).  Past _LARGE_AREA it is
    int_0^z e^{-y} jump(z - y) dy, an integrand below 1 for every z; past
    y ~ 745, e^{-y} underflows to 0."""
    if z < 0:
        raise DomainError(f"box area must be nonnegative, got {z}")
    if z > _LARGE_AREA:
        return integrate.quad(lambda y: math.exp(-y) * _jump(theta, z - y), 0.0, min(z, 745.0),
                              epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return math.exp(-z) * _balance(theta, z)


def _passage(theta: float, beta: float) -> float:
    """P(the self-similar boundary with area parameter beta is first passed
    by a jump) = beta^theta e^beta Gamma(1-theta, beta)
    = int_0^inf e^{-u} (1 + u/beta)^{-theta} du, integrated in y = ln u: split
    at ln beta, where (1 + u/beta)^{-theta} bends, and cut at y = 6, past
    which the integrand is below e^{-397}."""
    log_beta = math.log(beta)

    def integrand(y):
        x = y - log_beta
        softplus = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
        return math.exp(y - math.exp(y) - theta * softplus)

    cut = min(log_beta, 6.0)
    return math.fsum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in ((-np.inf, cut), (cut, 6.0)))


def _boundary_value(theta: float, beta: float) -> float:
    """Success probability D + (J - D) P of the self-similar boundary with
    area parameter beta in the beta(theta, 1) chain."""
    j, d = _jump(theta, beta), _drift(theta, beta)
    return d + (j - d) * _passage(theta, beta)


def jump_success_rect(z: float) -> float:
    """Success probability stopping at a record uniformly placed in a box of
    area z, rectangular geometry (theta = 1): (1 - e^{-z}) / z."""
    return _jump(1.0, z)


def drift_success_rect(z: float) -> float:
    """Success probability stopping at the earliest arrival inside a box of
    area z, rectangular geometry: e^{-z} int_0^z (e^s - 1)/s ds."""
    return _drift(1.0, z)


def jump_success_tri(z: float) -> float:
    """Triangular-geometry (theta = 1/2) analogue of jump_success_rect:
    int_0^1 e^{-z u^2} du = sqrt(pi) erf(sqrt(z)) / (2 sqrt(z))."""
    return _jump(0.5, z)


def drift_success_tri(z: float) -> float:
    """Triangular-geometry analogue of drift_success_rect:
    e^{-z} * int_0^{sqrt(2z)} int_0^u e^{(u^2-v^2)/2} dv du."""
    return _drift(0.5, z)


# Box functions per geometry: theta of its beta(theta, 1) area chain, jump(z), drift(z).
GEOMETRIES = {
    "rect": (1.0, jump_success_rect, drift_success_rect),
    "tri": (0.5, jump_success_tri, drift_success_tri),
}


def _box(geometry: str):
    """The GEOMETRIES entry of a geometry name; DomainError for any other name."""
    if geometry not in GEOMETRIES:
        raise DomainError(f"geometry must be one of {tuple(GEOMETRIES)}, got {geometry!r}")
    return GEOMETRIES[geometry]


# ---------------------------------------------------------------------------
# Optimal boundary parameter and values
# ---------------------------------------------------------------------------

def _balance_root(balance) -> RootReport:
    """Root in (0, 3) of balance(z) = 1, where balance(z) = e^z drift(z):
    the optimal box area, at which drift(z) = e^{-z}."""
    lo, hi = 1e-9, 3.0
    root, res = optimize.brentq(
        lambda z: balance(z) - 1.0,
        lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps,
        maxiter=200, full_output=True,
    )
    return RootReport(float(root), float(balance(root) - 1.0), (lo, hi), res.iterations)


def beta_star(geometry: str) -> RootReport:
    """Optimal box-area parameter: the root of drift(z) = e^{-z} in (0, 3)."""
    return theta_beta_star(_box(geometry)[0])


@functools.cache
def _rect_beta_star() -> float:
    return beta_star("rect").root


def success_prob_boundary(geometry: str, beta: float) -> float:
    """Success probability of the self-similar boundary with area parameter beta.

    Rectangular geometry uses the hyperbolic boundary b(t) = beta/(1-t); the
    triangular one uses the linear boundary b(t) = t + sqrt(2 beta).  The value
    is D + (J - D) * P(jump passage) and is maximized at beta_star(geometry).
    """
    theta = _box(geometry)[0]
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return _boundary_value(theta, beta)


def samuels_value() -> float:
    """Limit value of the full-information minimum game:
    e^{-b} + (e^b - 1 - b) E1(b) at b = beta_star('rect')."""
    return gm_limit_finite_T(math.inf)


def gm_limit_finite_T(T: float) -> float:
    """Finite-horizon variant of samuels_value: the exponential integral is
    truncated at T.  Defined for T >= beta_star('rect')."""
    b = _rect_beta_star()
    if T < b:
        raise DomainError(f"T must be >= {b:.6f}, got {T}")
    tail = expint_e1(b) - (0.0 if math.isinf(T) else expint_e1(T))
    return math.exp(-b) + (math.exp(b) - 1.0 - b) * tail


# ---------------------------------------------------------------------------
# beta(theta, 1) jump chain
# ---------------------------------------------------------------------------

def theta_beta_star(theta: float) -> RootReport:
    """Optimal area parameter for the beta(theta, 1) jump chain: root of
    drift_theta(z) = e^{-z}, for any finite theta > 0.  theta = 1 recovers the
    rectangular geometry and theta = 1/2 the triangular one."""
    if not 0 < theta < math.inf:
        raise DomainError(f"theta must be positive and finite, got {theta}")
    return _balance_root(functools.partial(_balance, theta))


def theta_limit(theta: float) -> float:
    """Limit best-choice probability for the trend family whose box-area jumps
    shrink by beta(theta, 1) factors:

        Gamma(1-theta, b, inf) * (-b^theta + e^b theta Gamma(theta, 0, b)) + e^{-b}

    at b = theta_beta_star(theta): the chain's boundary value D + (J - D) P
    at its optimal area, where D = e^{-b}, J = theta b^{-theta} gamma(theta, b)
    and P = b^theta e^b Gamma(1-theta, b)."""
    return _boundary_value(theta, theta_beta_star(theta).root)


# ---------------------------------------------------------------------------
# Integer-level rectangular limit: root ladder and series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryLadder:
    """Time cutoffs t_k and roots z_k = e^{lam (1 - t_k)} for stopping at
    integer level k.  Arrays are 1-based: entry [k] is level k, entry [0] NaN.
    Roots are clamped at e^lam (cutoff 0) where the level equation has no
    solution below e^lam."""

    cutoffs: np.ndarray
    roots: np.ndarray
    lam: float

    @property
    def k_max(self) -> int:
        return len(self.roots) - 1

    def root(self, k: int) -> float:
        if not 1 <= k <= self.k_max:
            raise DomainError(f"level {k} outside 1..{self.k_max}")
        return float(self.roots[k])

    def cutoff(self, k: int) -> float:
        if not 1 <= k <= self.k_max:
            raise DomainError(f"level {k} outside 1..{self.k_max}")
        return float(self.cutoffs[k])


def ladder_residual(k: int, z: float) -> float:
    """sum_{j=2}^k z^j/j - sum_{j=1}^k 1/j; the level-k root is its zero."""
    if k < 2:
        raise DomainError("the level equation starts at k = 2")
    js = np.arange(2, k + 1, dtype=float)
    # (z^j - 1)/j summed equals the residual + 1 shifted; expm1 keeps z ~ 1 exact.
    lnz = math.log(z)
    return float(np.sum(np.expm1(js * lnz) / js)) - 1.0


# Largest truncation the level series will build (8 bytes of roots per level).
MAX_LEVELS = 5_000_000
# Default bound on the level-series mass dropped by truncation.
_TAIL_TOL = 1e-10
# Intensities at or above this overflow e^lam.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# Terms kept of the moment series below.  With w = k ln z <= ln 3, as at every
# root and at every clamped level k >= 2, the dropped terms sum to below 1e-29.
_MOMENTS = 28
_INV_M = 1.0 / np.arange(1.0, _MOMENTS + 1.0)
# Levels per block of the moment table, so its memory does not grow with k.
_CHUNK = 4096


def _moments(k_stop: int):
    """Yield (k, T) for the levels k = 2..k_stop in blocks, where
    T[i, m - 1] = T_m(k_i) = k_i^{-m} sum_{j=2}^{k_i} j^{m-1}, in (0, 1].

    With w = k ln z, sum_{j=2}^k (z^j - 1)/j = sum_{m>=1} w^m/m! T_m(k), a
    series of positive terms.  The power sums run on from block to block; the
    largest, near k^{_MOMENTS}, stays below 1e188 at k = MAX_LEVELS.
    """
    p = np.arange(_MOMENTS, dtype=float)
    carry = np.zeros(_MOMENTS)
    for lo in range(2, k_stop + 1, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, k_stop + 1), dtype=float)
        powers = k[:, None] ** p
        sums = np.cumsum(powers, axis=0)
        sums += carry
        carry = sums[-1].copy()
        yield k, sums / (powers * k[:, None])


def _difference_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows (a^m - b^m)/((a - b) m!) for m = 1.._MOMENTS, from the positive
    sums a^{m-1} + a^{m-2} b + ... + b^{m-1}, so a ~ b does not cancel."""
    out = np.empty((len(a), _MOMENTS))
    out[:, 0] = 1.0
    b_term = np.ones_like(b)
    for m in range(2, _MOMENTS + 1):
        b_term = b_term * b / (m - 1)
        out[:, m - 1] = (a * out[:, m - 2] + b_term) / m
    return out


def _log_roots(k_stop: int) -> np.ndarray:
    """ln z_k of the unclamped level-equation roots for k = 1..k_stop; entry
    [0] is NaN and entry [1] inf (level 1 is always stoppable).

    Each block of levels is solved at once by Newton on w = k ln z, from
    w = 0.8: the moment series is convex and increasing in w, and every root
    lies above 0.8, so after the first step the iterates decrease to it.
    """
    logs = np.empty(k_stop + 1)
    logs[0], logs[1] = math.nan, math.inf
    for k, t in _moments(k_stop):
        w = np.full(len(k), 0.8)
        for _ in range(50):
            terms = np.cumprod(w[:, None] * _INV_M, axis=1)  # w^m/m!
            value = np.einsum("ij,ij->i", terms, t) - 1.0
            slope = t[:, 0] + np.einsum("ij,ij->i", terms[:, :-1], t[:, 1:])
            step = value / slope
            w -= step
            if np.max(np.abs(step)) <= 1e-12:
                break
        else:
            raise PrecisionError(f"level roots did not converge near k = {int(k[0])}")
        lo = int(k[0])
        logs[lo : lo + len(k)] = w / k
    return logs


def _check_levels(k_max: int) -> None:
    if k_max > MAX_LEVELS:
        raise ResourceLimitError(f"k_max={k_max} exceeds the cap of {MAX_LEVELS} levels")


def _check_lam(lam: float) -> None:
    # Roots are clamped at e^lam, which must be a finite float.
    if not 0 < lam < _LOG_FLOAT_MAX:
        raise DomainError(f"lam must lie in (0, {_LOG_FLOAT_MAX:.2f}), got {lam}")


def rect_roots(k_max: int, lam: float = 1.0) -> BoundaryLadder:
    """Ladder of boundary roots z_k and cutoffs t_k = 1 - ln(z_k)/lam for the
    integer-level model with intensity lam.  Level-1 stopping is always
    optimal (t_1 = 0); roots at or above e^lam are clamped there.  A k_max
    above MAX_LEVELS raises ResourceLimitError."""
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    _check_lam(lam)
    _check_levels(k_max)
    roots = np.exp(_log_roots(k_max))
    np.minimum(roots, math.exp(lam), out=roots)
    cutoffs = 1.0 - np.log(roots) / lam
    cutoffs = np.clip(cutoffs, 0.0, 1.0)
    cutoffs[0] = math.nan
    return BoundaryLadder(cutoffs=cutoffs, roots=roots, lam=lam)


def rect_limit_tail_bound(lam: float, k_max: int | None = None) -> float:
    """Upper bound on the mass dropped by truncating the level series at k_max,
    by default at the truncation rect_limit picks for its default tol.

    Per level k the drift term is at most (e^lam - 1) e^{-lam k} and the jump
    term at most beta e^beta e^{-lam k}/k < 2.3 e^{-lam k}/k, so a geometric
    tail bound applies: r^k_max + 2.3 r^(k_max+1) / (k_max (1 - r)) with
    r = e^{-lam}, written without e^lam so that it is finite for every lam.
    """
    if k_max is None:
        k_max = _auto_k_max(lam, _TAIL_TOL)
    r = math.exp(-lam)
    return r ** k_max + 2.3 * r ** (k_max + 1) / (max(k_max, 1) * -math.expm1(-lam))


def _auto_k_max(lam: float, tol: float) -> int:
    r = math.exp(-lam)
    # log((e^lam + 1.3) / (1 - r)) = lam + log1p(2.3 r / (1 - r))
    k = max(8, math.ceil((lam + math.log1p(2.3 * r / -math.expm1(-lam)) - math.log(tol)) / lam))
    while rect_limit_tail_bound(lam, k) > tol:
        k = int(k * 1.25) + 8
        if k > MAX_LEVELS:
            raise ResourceLimitError(f"level series will not reach tol={tol} at lam={lam}")
    return k


def _jump_series_double(zlam: np.ndarray, lam: float, k_max: int) -> float:
    """Jump series sum_k e^{-lam k} sum_{j<=k} (z_k^j - z_{k+1}^j)/j, in O(k_max²).

    Kept for arbitrary cutoffs, where k ln z_k is unbounded and the moment
    series of _level_series does not apply.
    """
    pieces = []
    lnz = np.log(zlam)
    for k in range(1, k_max + 1):
        a, b = lnz[k], lnz[k + 1]
        if a == b:
            continue
        js = np.arange(1, k + 1, dtype=float)
        # exponents stay <= 0: j ln z <= k lam for z <= e^lam.
        vals = (np.exp(js * a - lam * k) - np.exp(js * b - lam * k)) / js
        pieces.append(float(np.sum(vals)))
    return math.fsum(pieces)


def _level_series(u: np.ndarray, lam: float, k_max: int) -> tuple[float, float]:
    """Jump and drift series over levels 1..k_max of the optimal ladder, given
    u_k = ln z_k clamped at lam for k = 1..k_max + 1.

    The jump inner sum of level k >= 2 is (z_k - z_{k+1})
    + sum_m (a^m - b^m)/m! T_m(k) with a = k u_k and b = k u_{k+1}, both at
    most ln 3 on this ladder; level 1 contributes e^{-lam} (z_1 - z_2).
    Root differences are formed from u_k - u_{k+1}, which is exact, so they
    keep the relative precision that z_k - z_{k+1} would lose.
    """
    jump = [-math.expm1(u[2] - lam)]
    drift = []
    for k, t in _moments(k_max):
        lo = int(k[0])
        uk, uk1 = u[lo : lo + len(k)], u[lo + 1 : lo + len(k) + 1]
        gap = uk - uk1
        inner = (np.exp(uk1) * np.expm1(gap)
                 + k * gap * np.einsum("ij,ij->i", _difference_terms(k * uk, k * uk1), t))
        weight = np.exp(-lam * k)
        jump.append(math.fsum(weight * inner))
        drift.append(math.fsum(weight * np.exp(uk) * np.expm1(lam - uk)))
    return math.fsum(jump), math.fsum(drift)


def rect_limit(lam: float, k_max: int | None = None, tol: float = _TAIL_TOL) -> Decomposition:
    """Limit success probability for the integer-level model at intensity lam,
    split into jump and drift series over the levels.

    k_max defaults to the smallest truncation whose geometric tail bound is
    below tol; an explicit k_max that cannot meet tol raises PrecisionError.
    A k_max, explicit or automatic, above MAX_LEVELS raises ResourceLimitError.
    """
    _check_lam(lam)
    required = _auto_k_max(lam, tol)
    if k_max is None:
        k_max = required
    elif rect_limit_tail_bound(lam, k_max) > tol:
        raise PrecisionError(
            f"k_max={k_max} leaves tail above tol={tol}; need k_max >= {required}",
            required_k_max=required,
        )
    _check_levels(k_max)
    u = _log_roots(k_max + 1)
    np.minimum(u, lam, out=u)
    return Decomposition(*_level_series(u, lam, k_max))


def rect_general_boundary(cutoffs) -> Decomposition:
    """Success probability of an arbitrary integer-level boundary at unit
    intensity, given nondecreasing cutoffs (t_1, ..., t_K) in [0, 1].

    Levels above K are treated as never stoppable (t_k = 1 for k > K).
    """
    t = np.asarray(cutoffs, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise InvalidPolicyError("cutoffs must be a nonempty 1-D sequence")
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise InvalidPolicyError("cutoffs must lie in [0, 1]")
    if np.any(np.diff(t) < 0.0):
        raise InvalidPolicyError("cutoffs must be nondecreasing")
    kk = len(t)
    z = np.empty(kk + 2)
    z[0] = math.nan
    z[1 : kk + 1] = np.exp(1.0 - t)
    z[kk + 1] = 1.0
    jump = _jump_series_double(z, 1.0, kk)
    drift_terms = []
    for k in range(1, kk + 1):
        tk = t[k - 1]
        if tk >= 1.0:
            continue
        js = np.arange(1, k + 1, dtype=float)
        a = js * (1.0 - tk)
        # e^{-k} expm1(a) = e^{a - k} (-expm1(-a)); a - k <= 0, so no term overflows.
        inner = float(np.sum(np.exp(a - k) * -np.expm1(-a) / js))
        drift_terms.append(math.expm1(tk) * inner)
    return Decomposition(jump, math.fsum(drift_terms))
