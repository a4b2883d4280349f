"""Shared domain types for the best-choice (sample minimum) toolkit.

Observation models describe a finite sequence of independent draws and carry
each draw's law (support, atoms, sampler, survival function); threshold
policies encode "stop at a record at or below b_j"; value tables hold the
stop/continuation probabilities on the running-minimum lattice; decompositions
split a success probability into jump and drift parts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StopRuleError",
    "StateRangeError",
    "InvalidPolicyError",
    "UnsupportedModelError",
    "ResourceLimitError",
    "PrecisionError",
    "DomainError",
    "ObservationModel",
    "ThresholdPolicy",
    "ValueTables",
    "Decomposition",
    "RootReport",
]

class StopRuleError(Exception):
    """Base class for all toolkit errors."""


class StateRangeError(StopRuleError, ValueError):
    """A (step, value) pair is outside the model's reachable lattice."""


class InvalidPolicyError(StopRuleError, ValueError):
    """A threshold policy violates monotonicity or range requirements."""


class UnsupportedModelError(StopRuleError, ValueError):
    """The operation is not defined for this observation model kind."""


class ResourceLimitError(StopRuleError, RuntimeError):
    """Problem size exceeds a configured cap (n cap, enumeration cap, memory)."""


class PrecisionError(StopRuleError, RuntimeError):
    """A requested tolerance cannot be met with the given truncation."""

    def __init__(self, message: str, required_k_max: int | None = None):
        super().__init__(message)
        self.required_k_max = required_k_max


class DomainError(StopRuleError, ValueError):
    """Scalar argument outside the mathematical domain of an operation."""


# Model kind tags and the parameters each kind takes.
IID_UNIFORM01 = "iid_uniform01"
TRIANGULAR = "triangular"
RECTANGULAR = "rectangular"
BERNOULLI_PYRAMID = "bernoulli_pyramid"
TREND_SHIFTED = "trend_shifted"
TREND_SCALED = "trend_scaled"
TREND_POWER = "trend_power"

MODEL_PARAMS = {
    IID_UNIFORM01: (),
    TRIANGULAR: (),
    RECTANGULAR: ("k",),
    BERNOULLI_PYRAMID: ("p",),
    TREND_SHIFTED: (),
    TREND_SCALED: ("rho",),
    TREND_POWER: ("theta",),
}

# Step cap of the exact and full-information solvers; the environment
# variable STOPRULE_MAX_N overrides it.
DEFAULT_MAX_N = 10_000


def check_step_cap(n: int) -> None:
    """Raise ResourceLimitError when n is above the step cap."""
    env = os.environ.get("STOPRULE_MAX_N")
    try:
        cap = int(env) if env else DEFAULT_MAX_N
    except ValueError:
        raise StopRuleError(f"STOPRULE_MAX_N must be an integer, got {env!r}") from None
    if n > cap:
        raise ResourceLimitError(f"n={n} above cap {cap} (set STOPRULE_MAX_N)")


@dataclass(frozen=True)
class ObservationModel:
    """Tagged description of n independent observations.

    kind        a key of MODEL_PARAMS
    n           number of observations
    k           support size for the rectangular model (uniform on 1..k)
    p           low-value probability for the Bernoulli pyramid
    rho / theta trend-model parameters
    """

    kind: str
    n: int
    k: int | None = None
    p: float | None = None
    rho: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in MODEL_PARAMS:
            raise UnsupportedModelError(f"unknown model kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n!r}")
        wanted = MODEL_PARAMS[self.kind]
        for name in ("k", "p", "rho", "theta"):
            value = getattr(self, name)
            if name in wanted and value is None:
                raise DomainError(f"{self.kind} model requires parameter {name}")
            if name not in wanted and value is not None:
                raise DomainError(f"{self.kind} model takes no parameter {name}")
        if self.kind == RECTANGULAR and (not isinstance(self.k, int) or self.k < 1):
            raise DomainError(f"support size k must be a positive integer, got {self.k!r}")
        if self.kind == BERNOULLI_PYRAMID and not 0.0 < self.p < 1.0:
            raise DomainError(f"p must lie in (0, 1), got {self.p!r}")
        if self.kind == TREND_SCALED and not 0 < self.rho * self.n < math.inf:
            raise DomainError(f"rho must be positive with rho * n finite, got {self.rho!r}")
        if self.kind == TREND_POWER and not 0 < self.theta < math.inf:
            raise DomainError(f"theta must be positive and finite, got {self.theta!r}")

    # Constructors ---------------------------------------------------------

    @classmethod
    def iid_uniform01(cls, n: int) -> "ObservationModel":
        return cls(IID_UNIFORM01, n)

    @classmethod
    def triangular(cls, n: int) -> "ObservationModel":
        """X_j uniform on the integers {j, ..., n}."""
        return cls(TRIANGULAR, n)

    @classmethod
    def rectangular(cls, n: int, k: int) -> "ObservationModel":
        """X_j uniform on the integers {1, ..., k}."""
        return cls(RECTANGULAR, n, k=k)

    @classmethod
    def bernoulli_pyramid(cls, n: int, p: float) -> "ObservationModel":
        """X_1 = 1; for j >= 2, X_j = 1/j with probability p, else j."""
        return cls(BERNOULLI_PYRAMID, n, p=float(p))

    @classmethod
    def trend_shifted(cls, n: int) -> "ObservationModel":
        """X_j uniform on the integers {j, ..., j + n - 1}."""
        return cls(TREND_SHIFTED, n)

    @classmethod
    def trend_scaled(cls, n: int, rho: float) -> "ObservationModel":
        """X_j = j + rho * n * U_j with U_j uniform on [0, 1]."""
        return cls(TREND_SCALED, n, rho=float(rho))

    @classmethod
    def trend_power(cls, n: int, theta: float) -> "ObservationModel":
        """X_j = j + n * U_j^(1/theta) with U_j uniform on [0, 1]."""
        return cls(TREND_POWER, n, theta=float(theta))

    # Structure ------------------------------------------------------------

    def support(self, j: int) -> tuple[int, int]:
        """Integer support bounds (lo, hi) of observation j, discrete kinds only."""
        if not 1 <= j <= self.n:
            raise StateRangeError(f"step {j} outside 1..{self.n}")
        return self._interval(j)

    def _interval(self, j):
        """(lo, hi) of the integer support of X_j; lo has the shape of j."""
        if self.kind == TRIANGULAR:
            return j, self.n
        if self.kind == RECTANGULAR:
            return 0 * j + 1, 0 * j + self.k
        if self.kind == TREND_SHIFTED:
            return j, j + self.n - 1
        raise UnsupportedModelError(f"{self.kind} has no integer support")

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map a (rows, cols) block of uniforms on [0, 1) to the observations
        X_1..X_cols, one replication per row.  The block u is consumed: the
        observations overwrite it in place and u itself is returned."""
        js = np.arange(1, u.shape[1] + 1, dtype=float)
        if self.kind == IID_UNIFORM01:
            return u
        if self.kind == BERNOULLI_PYRAMID:
            u[...] = np.where(u < self.p, 1.0 / js, js)
            u[:, 0] = 1.0
            return u
        lo = js
        if self.kind == TREND_SCALED:
            u *= self.rho * self.n
        elif self.kind == TREND_POWER:
            u **= 1.0 / self.theta
            u *= self.n
        else:
            lo, hi = self._interval(js)
            u *= (hi - lo) + 1
            np.floor(u, out=u)
        u += lo
        return u

    def survival(self, j, v):
        """P(X_j > v), broadcast over arrays of steps j and values v."""
        if self.kind == TREND_SCALED:
            return np.clip(1.0 - (v - j) / (self.rho * self.n), 0.0, 1.0)
        if self.kind == TREND_POWER:
            return 1.0 - np.clip((v - j) / self.n, 0.0, 1.0) ** self.theta
        lo, hi = self._interval(j)
        return np.clip((hi - np.floor(v)) / ((hi - lo) + 1), 0.0, 1.0)

    def atoms(self, j: int) -> list[tuple[float, float]]:
        """(value, probability) pairs of X_j, discrete kinds only."""
        if self.kind == BERNOULLI_PYRAMID and 1 <= j <= self.n:
            return [(1.0, 1.0)] if j == 1 else [(1.0 / j, self.p), (float(j), 1.0 - self.p)]
        lo, hi = self.support(j)
        return [(float(v), 1.0 / (hi - lo + 1)) for v in range(lo, hi + 1)]

    # Serialization --------------------------------------------------------

    def to_json(self) -> dict:
        params = {name: getattr(self, name) for name in MODEL_PARAMS[self.kind]}
        return {"kind": self.kind, "n": self.n, "params": params}


def _decode_threshold(b) -> float:
    if b == "inf":
        return math.inf
    if b == "-inf":
        return -math.inf
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        raise TypeError(f"not a threshold: {b!r}")
    return float(b)


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-step stopping thresholds: stop at a record value x at step j iff x <= b_j.

    Extended reals are allowed: -inf never stops at the step, +inf stops at
    every record.  Policies emitted by the solvers end with b_n = +inf.
    """

    thresholds: tuple[float, ...]

    def __post_init__(self):
        if len(self.thresholds) < 1:
            raise InvalidPolicyError("policy must have at least one threshold")
        values = tuple(float(b) for b in self.thresholds)
        if any(math.isnan(b) for b in values):
            raise InvalidPolicyError("thresholds must not be NaN")
        object.__setattr__(self, "thresholds", values)

    @property
    def n(self) -> int:
        return len(self.thresholds)

    def is_nondecreasing(self) -> bool:
        ts = self.thresholds
        return all(ts[i] <= ts[i + 1] for i in range(len(ts) - 1))

    def to_json(self) -> dict:
        return {"thresholds": [str(b) if math.isinf(b) else b for b in self.thresholds]}

    @classmethod
    def from_json(cls, obj: dict) -> "ThresholdPolicy":
        try:
            raw = obj["thresholds"]
            if not isinstance(raw, (list, tuple)):
                raise TypeError(f"thresholds must be a list, got {type(raw).__name__}")
            values = tuple(_decode_threshold(b) for b in raw)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidPolicyError(
                f"a policy is an object whose 'thresholds' lists numbers, 'inf' or '-inf' ({exc!r})"
            ) from exc
        return cls(values)


class ValueTables:
    """Dense stop/continuation value tables over the reachable lattice states.

    Backed by (n+1) x (x_max+1) float arrays indexed [j, x]; entries outside
    the reachable domain are NaN.  Immutable after construction.
    """

    def __init__(self, model: ObservationModel, stop: np.ndarray, cont: np.ndarray):
        self.model = model
        self._stop = stop
        self._cont = cont
        self._stop.setflags(write=False)
        self._cont.setflags(write=False)

    def _check(self, j: int, x: int):
        if not (1 <= j <= self.model.n):
            raise StateRangeError(f"step {j} outside 1..{self.model.n}")
        if not (0 <= x < self._stop.shape[1]) or math.isnan(self._stop[j, x]):
            raise StateRangeError(f"state ({j}, {x}) not on the lattice")

    def stop_value(self, j: int, x: int) -> float:
        self._check(j, x)
        return float(self._stop[j, x])

    def cont_value(self, j: int, x: int) -> float:
        self._check(j, x)
        return float(self._cont[j, x])

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw (stop, cont) arrays indexed [j, x]; NaN outside the domain."""
        return self._stop, self._cont


@dataclass(frozen=True)
class Decomposition:
    """Success probability split in two parts: total = jump + drift.

    dp and poisson split by first-passage mode, stopping by jump or by drift
    into the stopping region, so their parts are >= 0.  fullinfo.gm_success
    gives an algebraic split whose parts can be negative, even at the optimal
    thresholds.  The constructor only requires both parts to be finite.
    """

    jump: float
    drift: float

    def __post_init__(self):
        for name in ("jump", "drift"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")

    @property
    def total(self) -> float:
        return self.jump + self.drift

    def to_json(self) -> dict:
        return {"jump": self.jump, "drift": self.drift, "total": self.total}


@dataclass(frozen=True)
class RootReport:
    """Outcome of a bracketed one-dimensional root solve."""

    root: float
    residual: float
    bracket: tuple[float, float]
    iterations: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.root <= hi:
            raise DomainError(f"root {self.root} outside bracket {self.bracket}")
