"""Poisson-limit analytics for the best-choice problem.

The large-n limits of the lattice models reduce to first-passage problems for
a planar Poisson process.  A record's "box" is the region that must stay empty
for it to remain the minimum; its area z is the sufficient statistic.  Two box
geometries appear: rectangular (iid-style scatter on a strip) and triangular
(observations with a linear trend, scatter above the diagonal).  They are
the theta = 1 and theta = 1/2 members of the beta(theta, 1) area chain, in
which a record's share of its box is beta(theta, 1)-distributed.

Keyed by theta, this module provides the success probabilities of stopping
at a record inside the box (jump) and of stopping at the next arrival in the
box (drift), the optimal box-area parameter beta* solving drift = e^{-z} and
the value of the self-similar optimal boundary; GEOMETRIES names the two
geometries' theta.  It also holds the integer-levels machinery (root ladder
z_k, series limits, general cutoff boundaries, lambda-intensity
interpolation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    Decomposition,
    DomainError,
    InvalidPolicyError,
    PrecisionError,
    ResourceLimitError,
    RootReport,
)

__all__ = [
    "GEOMETRIES",
    "jump_success",
    "drift_success",
    "brentq",
    "beta_star",
    "success_prob_boundary",
    "samuels_value",
    "gm_limit_finite_T",
    "theta_limit",
    "BoundaryLadder",
    "level_sum",
    "rect_roots",
    "rect_limit",
    "rect_limit_tail_bound",
    "rect_general_boundary",
]

# Box areas above which the drift functions integrate against the jump
# functions: the balance series needs more terms than it keeps from z ~ 250.
_LARGE_AREA = 50.0
# Areas from which _passage integrates at theta = 1: e^beta overflows past 709.78.
_E1_CUT = 700.0


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
# Box functions of the beta(theta, 1) area chain
# ---------------------------------------------------------------------------

# Theta of each named box geometry's beta(theta, 1) area chain.
GEOMETRIES = {"rect": 1.0, "tri": 0.5}


def _check_theta(theta: float) -> None:
    if not 0 < theta < math.inf:
        raise DomainError(f"theta must be positive and finite, got {theta}")


def jump_success(theta: float, z: float) -> float:
    """Success probability stopping at a record placed in a box of area z,
    when the record's share of the box is beta(theta, 1):
    int_0^1 e^{-z v} theta v^{theta-1} dv = 1F1(theta; theta+1; -z).
    theta = 1, the rectangular geometry, gives (1 - e^{-z})/z, and theta = 1/2,
    the triangular one, int_0^1 e^{-z u^2} du = sqrt(pi) erf(sqrt(z))/(2 sqrt(z))."""
    if not z >= 0:
        raise DomainError(f"box area must be nonnegative, got {z}")
    from scipy import special
    return float(special.hyp1f1(theta, theta + 1.0, -z))


def drift_success(theta: float, z: float) -> float:
    """Success probability stopping at the earliest arrival inside a box of
    area z: e^{-z} _balance(theta, z).  theta = 1 gives
    e^{-z} int_0^z (e^s - 1)/s ds, and theta = 1/2
    e^{-z} int_0^{sqrt(2z)} int_0^u e^{(u^2-v^2)/2} dv du.  Past _LARGE_AREA it
    is int_0^z e^{-y} jump(z - y) dy, an integrand below 1 for every z; past
    y ~ 745, e^{-y} underflows to 0."""
    if not z >= 0:
        raise DomainError(f"box area must be nonnegative, got {z}")
    if z > _LARGE_AREA:
        from scipy import integrate
        return integrate.quad(lambda y: math.exp(-y) * jump_success(theta, z - y),
                              0.0, min(z, 745.0), epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return math.exp(-z) * _balance(theta, z)


def _passage(theta: float, beta: float) -> float:
    """P(the self-similar boundary with area parameter beta is first passed
    by a jump) = beta^theta e^beta Gamma(1-theta, beta).  The two named
    geometries have closed forms: theta = 1 is beta e^beta E1(beta) (exp1)
    below _E1_CUT, past which e^beta nears overflow, and theta = 1/2 is
    sqrt(pi beta) erfcx(sqrt(beta)), with sqrt(pi) and sqrt(beta) taken apart
    so that a subnormal beta keeps its digits.  Every other case integrates
    int_0^inf e^{-u} (1 + u/beta)^{-theta} du in y = ln u: split at ln beta,
    where (1 + u/beta)^{-theta} bends, and cut at y = 6, past which the
    integrand is below e^{-397}."""
    from scipy import special
    if theta == 1.0 and beta < _E1_CUT:
        return beta * math.exp(beta) * float(special.exp1(beta))
    if theta == 0.5:
        return math.sqrt(math.pi) * math.sqrt(beta) * float(special.erfcx(math.sqrt(beta)))
    from scipy import integrate
    log_beta = math.log(beta)

    def integrand(y):
        x = y - log_beta
        softplus = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
        return math.exp(y - math.exp(y) - theta * softplus)

    cut = min(log_beta, 6.0)
    return math.fsum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in ((-np.inf, cut), (cut, 6.0)))


# ---------------------------------------------------------------------------
# Optimal boundary parameter and values
# ---------------------------------------------------------------------------

_BRENT_RTOL, _BRENT_MAXITER = float(4 * np.finfo(float).eps), 200  # of every root solve


def brentq(f, lo: float, hi: float, xtol: float) -> tuple[float, int]:
    """(root, iterations) of f on the bracket [lo, hi] by Brent's method, the
    algorithm of scipy.optimize.brentq in its operation order, so it returns
    the same double after the same iterations as scipy with rtol=_BRENT_RTOL
    and maxiter=_BRENT_MAXITER.  It stops once half the bracket is below
    (xtol + _BRENT_RTOL |x|)/2; a zero of f at an endpoint takes 0 iterations.
    No sign change, a NaN f and no convergence raise PrecisionError."""
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise PrecisionError(f"root solve: f({x!r}) is NaN")
        return fx

    # Python floats throughout, so that a division by zero raises, not warns
    xpre, xcur, xtol, rtol = float(lo), float(hi), float(xtol), _BRENT_RTOL
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre, 0
    if fcur == 0:
        return xcur, 0
    if (fpre < 0) == (fcur < 0):
        raise PrecisionError(f"root solve: f has the same sign at {lo!r} and {hi!r}")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _BRENT_MAXITER + 1):
        if (fpre < 0) != (fcur < 0):  # the root lies between xpre and xcur
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the smaller |f| at xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an infinite or NaN step in C: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise PrecisionError(f"root solve did not converge in {_BRENT_MAXITER} iterations")


def beta_star(theta: float) -> RootReport:
    """Optimal box-area parameter of the beta(theta, 1) chain, for any finite
    theta > 0: the root in (0, 3) of e^z drift(z) = 1, at which
    drift(z) = e^{-z}, solved by brentq.  theta = 1 is the rectangular
    geometry and theta = 1/2 the triangular one."""
    _check_theta(theta)
    lo, hi = 1e-9, 3.0
    root, iterations = brentq(lambda z: _balance(theta, z) - 1.0, lo, hi, 1e-15)
    return RootReport(root, _balance(theta, root) - 1.0, (lo, hi), iterations)


def success_prob_boundary(theta: float, beta: float) -> float:
    """Success probability D + (J - D) P of the self-similar boundary with area
    parameter beta in the beta(theta, 1) chain, maximized at beta_star(theta).

    The rectangular geometry (theta = 1) has the hyperbolic boundary
    b(t) = beta/(1-t); the triangular one (theta = 1/2) the linear boundary
    b(t) = t + sqrt(2 beta).
    """
    _check_theta(theta)
    if not 0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite, got {beta}")
    j, d = jump_success(theta, beta), drift_success(theta, beta)
    return d + (j - d) * _passage(theta, beta)


def samuels_value() -> float:
    """Limit value of the full-information minimum game:
    e^{-b} + (e^b - 1 - b) E1(b) at b = beta_star(1)."""
    return gm_limit_finite_T(math.inf)


def gm_limit_finite_T(T: float) -> float:
    """Finite-horizon variant of samuels_value: the exponential integral is
    truncated at T.  Defined for T >= beta_star(1)."""
    from scipy import special
    b = beta_star(1.0).root
    if not T >= b:
        raise DomainError(f"T must be >= {b:.6f}, got {T}")
    tail = float(special.exp1(b)) - (0.0 if math.isinf(T) else float(special.exp1(T)))
    return math.exp(-b) + (math.exp(b) - 1.0 - b) * tail


def theta_limit(theta: float) -> float:
    """Limit best-choice probability for the trend family whose box-area jumps
    shrink by beta(theta, 1) factors:

        Gamma(1-theta, b, inf) * (-b^theta + e^b theta Gamma(theta, 0, b)) + e^{-b}

    at b = beta_star(theta): the chain's boundary value D + (J - D) P at its
    optimal area, where D = e^{-b}, J = theta b^{-theta} gamma(theta, b) and
    P = b^theta e^b Gamma(1-theta, b)."""
    return success_prob_boundary(theta, beta_star(theta).root)


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


def level_sum(k: int, lnz: float) -> float:
    """sum_{j=1}^k (z^j - 1)/j at ln z = lnz; expm1 keeps z ~ 1 exact.  At
    z = 1/(1 - b), level_sum = 1 is the full-information threshold equation;
    the level-k root of the ladder solves level_sum = z (the sum from j = 2 is 1).
    Once k lnz passes ln of the largest float, the top term overflows and the
    result is math.inf, with no warning."""
    _check_levels(k)
    if k * lnz > _LOG_FLOAT_MAX:
        return math.inf
    js = np.arange(1, k + 1, dtype=float)
    return float(np.sum(np.expm1(js * lnz) / js))


# Largest truncation the level series will build (8 bytes of roots per level).
MAX_LEVELS = 5_000_000
# Most cutoffs rect_general_boundary takes: its double sum is O(K^2).
MAX_BOUNDARY_LEVELS = 20_000
# Bound on the level-series mass dropped by truncation.
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
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    if k_max > MAX_LEVELS:
        raise ResourceLimitError(f"k_max={k_max} exceeds the cap of {MAX_LEVELS} levels")


def _check_lam(lam: float) -> None:
    # Roots are clamped at e^lam, which must be a finite float.
    if not 0 < lam < _LOG_FLOAT_MAX:
        raise DomainError(f"lam must lie in (0, {_LOG_FLOAT_MAX:.2f}), got {lam}")


def rect_roots(k_max: int, lam: float = 1.0) -> BoundaryLadder:
    """Ladder of boundary roots z_k and cutoffs t_k = 1 - ln(z_k)/lam for the
    integer-level model with intensity lam.  Level-1 stopping is always
    optimal (t_1 = 0); ln z_k is clamped at lam (z_k = e^lam, t_k = 0).  A
    k_max below 1 raises DomainError, one above MAX_LEVELS ResourceLimitError."""
    _check_levels(k_max)
    _check_lam(lam)
    logs = _log_roots(k_max)
    roots = np.minimum(np.exp(logs), math.exp(lam))
    cutoffs = 1.0 - np.minimum(logs, lam) / lam
    cutoffs[0] = math.nan
    return BoundaryLadder(cutoffs=cutoffs, roots=roots, lam=lam)


def rect_limit_tail_bound(lam: float, k_max: int | None = None) -> float:
    """Upper bound on the mass dropped by truncating the level series at k_max,
    by default at the truncation rect_limit picks.

    Per level k the drift term is at most (e^lam - 1) e^{-lam k} and the jump
    term at most beta e^beta e^{-lam k}/k < 2.3 e^{-lam k}/k, so a geometric
    tail bound applies: r^k_max + 2.3 r^(k_max+1) / (k_max (1 - r)) with
    r = e^{-lam}, written without e^lam so that it is finite for every lam.
    A lam that is not positive, or infinite with the automatic k_max, raises
    DomainError, and k_max is held to the rules of rect_limit.
    """
    if not lam > 0 or (k_max is None and lam == math.inf):
        raise DomainError(f"lam must be positive (and finite for the automatic k_max), got {lam}")
    if k_max is None:
        k_max = _auto_k_max(lam)
    _check_levels(k_max)
    r = math.exp(-lam)
    return r ** k_max + 2.3 * r ** (k_max + 1) / (k_max * -math.expm1(-lam))


def _auto_k_max(lam: float) -> int:
    """Smallest k >= 8 with r^k (1 + 2.3 r/(1 - r)) <= r * _TAIL_TOL, r = e^{-lam}:
    rect_limit_tail_bound(lam, k) is at most the left side, so k needs no search."""
    r = math.exp(-lam)
    if r == 1.0:  # lam below about 5.6e-17: no truncation reaches the tolerance
        raise ResourceLimitError(f"level series will not reach tol={_TAIL_TOL} at lam={lam}")
    # log((e^lam + 1.3) / (1 - r)) = lam + log1p(2.3 r / (1 - r))
    estimate = (lam + math.log1p(2.3 * r / -math.expm1(-lam)) - math.log(_TAIL_TOL)) / lam
    return max(8, math.ceil(estimate))


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


def rect_limit(lam: float, k_max: int | None = None) -> Decomposition:
    """Limit success probability for the integer-level model at intensity lam,
    split into jump and drift series over the levels.

    k_max defaults to the smallest truncation whose geometric tail bound is
    below _TAIL_TOL; an explicit k_max that cannot meet it raises
    PrecisionError.  A k_max, explicit or automatic, above MAX_LEVELS raises
    ResourceLimitError, and an explicit one below 1 DomainError.
    """
    _check_lam(lam)
    required = _auto_k_max(lam)
    explicit = k_max is not None
    k_max = k_max if explicit else required
    _check_levels(k_max)  # before the tail bound, whose r ** k_max overflows for k_max < 0
    if explicit and rect_limit_tail_bound(lam, k_max) > _TAIL_TOL:
        raise PrecisionError(
            f"k_max={k_max} leaves tail above tol={_TAIL_TOL}; need k_max >= {required}",
            required_k_max=required,
        )
    u = _log_roots(k_max + 1)
    np.minimum(u, lam, out=u)
    return Decomposition(*_level_series(u, lam, k_max))


def rect_general_boundary(cutoffs) -> Decomposition:
    """Success probability of an arbitrary integer-level boundary at unit
    intensity, given nondecreasing cutoffs (t_1, ..., t_K) in [0, 1].

    Levels above K are treated as never stoppable (t_k = 1 for k > K).  Level k
    adds sum_{j<=k} e^{-k} (e^{j a_k} - e^{j a_{k+1}})/j to the jump and
    (e^{t_k} - 1) sum_{j<=k} e^{-k} (e^{j a_k} - 1)/j to the drift, a_k = 1 - t_k.
    """
    t = np.asarray(cutoffs, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise InvalidPolicyError("cutoffs must be a nonempty 1-D sequence")
    if len(t) > MAX_BOUNDARY_LEVELS:
        raise ResourceLimitError(f"{len(t)} cutoffs exceed the cap of {MAX_BOUNDARY_LEVELS}")
    if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
        raise InvalidPolicyError("cutoffs must lie in [0, 1]")
    if np.any(np.diff(t) < 0.0):
        raise InvalidPolicyError("cutoffs must be nondecreasing")
    a = np.append(1.0 - t, 0.0)
    jump, drift = [], []
    # levels with t_k = 1, and all above them, add nothing
    for k in range(1, int(np.count_nonzero(a)) + 1):
        js = np.arange(1, k + 1, dtype=float)
        # exponents stay <= 0: j a_k <= k, so no term overflows.
        e_k = np.exp(js * a[k - 1] - k)
        if a[k - 1] != a[k]:
            jump.append(float(np.sum((e_k - np.exp(js * a[k] - k)) / js)))
        # e^{-k} expm1(j a_k) = e^{j a_k - k} (-expm1(-j a_k))
        inner = float(np.sum(e_k * -np.expm1(-js * a[k - 1]) / js))
        drift.append(math.expm1(t[k - 1]) * inner)
    return Decomposition(math.fsum(jump), math.fsum(drift))
