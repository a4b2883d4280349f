import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from stoprule import dp, mc
from stoprule.models import (
    InvalidPolicyError,
    ObservationModel,
    PrecisionError,
    ResourceLimitError,
    StateRangeError,
    ThresholdPolicy,
    UnsupportedModelError,
)

from oracles import enumerate_outcomes, policy_oracle


@pytest.fixture
def own_records(monkeypatch):
    """Empty triangular records for one test, so that it sweeps from r = 0
    and leaves the shared records as they were."""
    records = dp._Sweep()
    monkeypatch.setattr(dp, "_TRIANGULAR", records)
    return records


def stop_value(model, j, x):
    return dp.solve(model, keep_tables=True).tables.stop_value(j, x)


class TestStopValue:
    def test_triangular_last_step_always_succeeds(self):
        for n in (1, 2, 5, 9):
            m = ObservationModel.triangular(n)
            for x in range(n, n + 1):
                assert stop_value(m, n, x) == 1.0

    def test_triangular_n2_edge(self):
        m = ObservationModel.triangular(2)
        assert stop_value(m, 1, 2) == 1.0  # X_2 = 2 surely

    def test_triangular_enumeration(self):
        # s(j, x) = P(all later observations >= x)
        m = ObservationModel.triangular(4)
        for j in range(1, 5):
            for x in range(j, 5):
                want = 0.0
                for prob, outcome in enumerate_outcomes(m):
                    if all(v >= x for v in outcome[j:]):
                        want += prob
                assert stop_value(m, j, x) == pytest.approx(want, abs=1e-12)

    def test_rectangular_direct(self):
        m = ObservationModel.rectangular(2, 2)
        # success iff X_2 >= 2, probability 1/2
        assert stop_value(m, 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_state_validation(self):
        m = ObservationModel.triangular(4)
        with pytest.raises(StateRangeError):
            stop_value(m, 2, 1)  # below the diagonal
        with pytest.raises(StateRangeError):
            stop_value(m, 5, 5)
        with pytest.raises(UnsupportedModelError):
            stop_value(ObservationModel.iid_uniform01(3), 1, 1)


def cont_value(model, j, x):
    return dp.solve(model, keep_tables=True).tables.cont_value(j, x)


class TestContValue:
    def test_rectangular_n2(self):
        m = ObservationModel.rectangular(2, 2)
        # v(1,2) = (1/2)(s(2,1) + s(2,2)) = 1
        assert cont_value(m, 1, 2) == pytest.approx(1.0, abs=1e-15)

    def test_last_step_zero(self):
        assert cont_value(ObservationModel.rectangular(3, 4), 3, 2) == 0.0
        assert cont_value(ObservationModel.triangular(5), 5, 5) == 0.0

    def test_matches_recursive_oracle(self):
        # Optimal continuation after skipping state (j, x), by recursion over
        # every future history, written independently of the solver.
        def continuation_oracle(model, j, x):
            sups = [model.atoms(i) for i in range(1, model.n + 1)]

            def stop_payoff(step, v):
                out = 1.0
                for later in range(step + 1, model.n + 1):
                    out *= sum(q for w, q in sups[later - 1] if w >= v)
                return out

            def go(step, cur_min):
                if step > model.n:
                    return 0.0
                total = 0.0
                for v, p in sups[step - 1]:
                    options = [go(step + 1, min(cur_min, v))]
                    if v <= cur_min:
                        options.append(stop_payoff(step, v))
                    total += p * max(options)
                return total

            return go(j + 1, x)

        m = ObservationModel.triangular(3)
        for j in range(1, 4):
            for x in range(j, 4):
                assert cont_value(m, j, x) == pytest.approx(
                    continuation_oracle(m, j, x), abs=1e-12
                )
        m = ObservationModel.rectangular(3, 3)
        for j in range(1, 4):
            for x in range(1, 4):
                assert cont_value(m, j, x) == pytest.approx(
                    continuation_oracle(m, j, x), abs=1e-12
                )


class TestSolve:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_triangular_matches_enumeration(self, n):
        m = ObservationModel.triangular(n)
        sol = dp.solve(m)
        assert sol.decomposition.total == pytest.approx(dp.brute_force_oracle(m), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rectangular_matches_enumeration(self, n):
        m = ObservationModel.rectangular(n, n)
        sol = dp.solve(m)
        assert sol.decomposition.total == pytest.approx(dp.brute_force_oracle(m), abs=1e-12)

    def test_rectangular_off_square_support(self):
        for n, k in ((3, 5), (5, 3), (2, 7)):
            m = ObservationModel.rectangular(n, k)
            sol = dp.solve(m)
            assert sol.decomposition.total == pytest.approx(dp.brute_force_oracle(m), abs=1e-12)

    def test_triangular_n1(self):
        sol = dp.solve(ObservationModel.triangular(1))
        assert sol.decomposition.total == 1.0

    def test_policies_validate_and_end_at_inf(self):
        for m in (
            ObservationModel.triangular(12),
            ObservationModel.rectangular(9, 6),
            ObservationModel.bernoulli_pyramid(8, 0.3),
        ):
            sol = dp.solve(m)
            assert sol.policy.is_nondecreasing()
            assert sol.policy.thresholds[-1] == math.inf

    def test_decomposition_invariants(self):
        for m in (
            ObservationModel.triangular(40),
            ObservationModel.rectangular(25, 40),
            ObservationModel.bernoulli_pyramid(15, 0.17),
        ):
            d = dp.solve(m).decomposition
            assert d.jump >= 0.0 and d.drift >= 0.0
            assert 0.0 <= d.total <= 1.0
            assert abs(d.total - (d.jump + d.drift)) <= 1e-12

    def test_n_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            dp.solve(ObservationModel.rectangular(dp.DEFAULT_MAX_N + 1, 5))
        monkeypatch.setenv("STOPRULE_MAX_N", "50")
        with pytest.raises(ResourceLimitError):
            dp.solve(ObservationModel.triangular(51))
        dp.solve(ObservationModel.triangular(50))
        with pytest.raises(ResourceLimitError):
            dp.policy_value(ObservationModel.bernoulli_pyramid(51, 0.5),
                            ThresholdPolicy((math.inf,) * 51))

    def test_lattice_width_cap(self, monkeypatch):
        # x_max is k for the rectangular kind and n for the triangular one
        monkeypatch.setattr(dp, "LATTICE_WIDTH_CAP", 12)
        dp.solve(ObservationModel.rectangular(3, 12))
        dp.solve(ObservationModel.triangular(12))
        for model in (ObservationModel.rectangular(3, 13), ObservationModel.triangular(13)):
            with pytest.raises(ResourceLimitError, match="lattice width 13"):
                dp.solve(model)
            with pytest.raises(ResourceLimitError, match="lattice width 13"):
                dp.policy_value(model, ThresholdPolicy((math.inf,) * model.n))

    def test_consistency_gate_raises_precision_error(self, monkeypatch):
        # No jump+drift total can be within a negative tolerance of v0.
        monkeypatch.setattr(dp, "_CONSISTENCY_TOL", -1.0)
        with pytest.raises(PrecisionError):
            dp.solve(ObservationModel.triangular(5))

    def test_overlapping_drift_windows_raise_precision_error(self, monkeypatch, own_records):
        # A stop column of ones at step 3 puts b_3 at the top of the support
        # while b_2 and b_4 stay low, so the drift window (b_2, b_3] overlaps
        # the windows of later steps.  The sweep runs on records of its own.
        lattice_for = dp._lattice_for

        def patched(model):
            lat = lattice_for(model)
            stop_col = lat.stop_col

            def ones_at_step_3(j, out):
                cut = stop_col(j, out)
                if j == 3:
                    out[j:] = 1.0
                    return len(out)  # no entry of the column is 0 any more
                return cut

            lat.stop_col = ones_at_step_3
            return lat

        monkeypatch.setattr(dp, "_lattice_for", patched)
        with pytest.raises(PrecisionError, match="overlap"):
            dp.solve(ObservationModel.triangular(30))

    def test_solution_json(self):
        sol = dp.solve(ObservationModel.rectangular(3, 3))
        obj = sol.to_json()
        assert obj["model"]["kind"] == "rectangular"
        assert obj["thresholds"][-1] == "inf"
        assert obj["total"] == pytest.approx(obj["jump"] + obj["drift"], abs=1e-12)


class TestTables:
    def test_monotonicity_invariants(self):
        for m in (ObservationModel.triangular(30), ObservationModel.rectangular(20, 15)):
            sol = dp.solve(m, keep_tables=True)
            stop, cont = sol.tables.as_arrays()
            n = m.n
            for j in range(1, n + 1):
                s_col = stop[j][~np.isnan(stop[j])]
                v_col = cont[j][~np.isnan(cont[j])]
                assert np.all(s_col >= -1e-15) and np.all(s_col <= 1 + 1e-15)
                assert np.all(v_col >= -1e-15) and np.all(v_col <= 1 + 1e-15)
                # s nonincreasing in x, v nondecreasing in x
                assert np.all(np.diff(s_col) <= 1e-12)
                assert np.all(np.diff(v_col) >= -1e-12)
            # s nondecreasing in j at fixed x
            for x in range(1, sol.tables.as_arrays()[0].shape[1]):
                col = stop[1 : n + 1, x]
                col = col[~np.isnan(col)]
                assert np.all(np.diff(col) >= -1e-12)

    def test_thresholds_equal_largest_stoppable_x(self):
        for m in (ObservationModel.triangular(25), ObservationModel.rectangular(18, 12)):
            sol = dp.solve(m, keep_tables=True)
            stop, cont = sol.tables.as_arrays()
            for j in range(1, m.n + 1):
                b = sol.policy.thresholds[j - 1]
                b = int(b) if math.isfinite(b) else stop.shape[1] - 1
                ok = ~np.isnan(stop[j])
                xs = np.nonzero(ok & (stop[j] >= cont[j]))[0]
                assert xs.max() == b

    def test_no_exit_property(self):
        # monotone thresholds + nonincreasing running minimum: once below the
        # threshold, always below it
        sol = dp.solve(ObservationModel.triangular(60))
        b = sol.policy.thresholds
        assert all(b[i] <= b[i + 1] for i in range(len(b) - 1))


class TestPyramid:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_enumeration(self, n):
        for p in (0.07, 0.4, 0.85) + ((1.0 / n,) if n >= 2 else ()):
            m = ObservationModel.bernoulli_pyramid(n, p)
            sol = dp.solve(m)
            assert sol.decomposition.total == pytest.approx(
                dp.brute_force_oracle(m), abs=1e-12
            )

    def test_worst_case_value(self):
        for n in (2, 3, 10, 47, 100):
            m = ObservationModel.bernoulli_pyramid(n, 1.0 / n)
            got = dp.solve(m).decomposition.total
            assert got == pytest.approx((1.0 - 1.0 / n) ** (n - 1), abs=1e-14)

    def test_n3_third(self):
        m = ObservationModel.bernoulli_pyramid(3, 1.0 / 3.0)
        assert dp.brute_force_oracle(m) == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_policy_regimes(self):
        # small p: stop immediately; large p: wait
        early = dp.solve(ObservationModel.bernoulli_pyramid(10, 0.05)).policy
        assert early.thresholds[0] == math.inf
        late = dp.solve(ObservationModel.bernoulli_pyramid(10, 0.9)).policy
        assert late.thresholds[0] == -math.inf


class TestPolicyValue:
    def test_optimal_policy_reproduces_solve(self):
        for m in (
            ObservationModel.triangular(35),
            ObservationModel.rectangular(30, 30),
            ObservationModel.bernoulli_pyramid(12, 0.21),
            ObservationModel.bernoulli_pyramid(10_000, 1 / 5001),
        ):
            sol = dp.solve(m)
            pv = dp.policy_value(m, sol.policy)
            assert pv.total == pytest.approx(sol.decomposition.total, abs=1e-10)
            assert pv.jump == pytest.approx(sol.decomposition.jump, abs=1e-10)

    def test_wait_for_minimum_policy(self):
        for n in (3, 10, 100):
            m = ObservationModel.rectangular(n, n)
            pol = ThresholdPolicy(tuple([1.0] * n))
            got = dp.policy_value(m, pol).total
            assert got == pytest.approx(1.0 - (1.0 - 1.0 / n) ** n, abs=1e-12)

    def test_dominated_policy_is_worse(self):
        m = ObservationModel.rectangular(12, 12)
        sol = dp.solve(m)
        shrunk = ThresholdPolicy(
            tuple(max(1.0, b - 1.0) if math.isfinite(b) else b for b in sol.policy.thresholds)
        )
        assert dp.policy_value(m, shrunk).total <= sol.decomposition.total + 1e-12

    def test_rejects_bad_policies(self):
        m = ObservationModel.rectangular(3, 3)
        with pytest.raises(InvalidPolicyError):
            dp.policy_value(m, ThresholdPolicy((2.0, 1.0, 3.0)))
        with pytest.raises(InvalidPolicyError):
            dp.policy_value(m, ThresholdPolicy((1.0, 2.0)))

    def test_extreme_finite_thresholds(self):
        m = ObservationModel.rectangular(4, 4)
        huge = ThresholdPolicy((-1e300, 1e300, 1e300, 1e300))
        got = dp.policy_value(m, huge).total
        same = ThresholdPolicy((-math.inf, math.inf, math.inf, math.inf))
        assert got == pytest.approx(dp.policy_value(m, same).total, abs=1e-15)
        assert got == pytest.approx(policy_oracle(m, huge), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_policies_match_enumeration_rect(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        k = data.draw(st.integers(1, 4), label="k")
        raw = data.draw(
            st.lists(st.floats(-1.0, k + 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        policy = ThresholdPolicy(tuple(sorted(raw)))
        m = ObservationModel.rectangular(n, k)
        assert dp.policy_value(m, policy).total == pytest.approx(
            policy_oracle(m, policy), abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_policies_match_enumeration_tri(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        raw = data.draw(
            st.lists(st.floats(0.0, n + 1.0, allow_nan=False), min_size=n, max_size=n)
        )
        policy = ThresholdPolicy(tuple(sorted(raw)))
        m = ObservationModel.triangular(n)
        assert dp.policy_value(m, policy).total == pytest.approx(
            policy_oracle(m, policy), abs=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_policies_match_enumeration_pyramid(self, data):
        n = data.draw(st.integers(1, 7), label="n")
        p = data.draw(st.floats(0.05, 0.95), label="p")
        raw = data.draw(
            st.lists(
                st.one_of(
                    st.floats(-2.0, 2.0, allow_nan=False),
                    st.sampled_from([-math.inf, math.inf]),
                ),
                min_size=n,
                max_size=n,
            )
        )
        policy = ThresholdPolicy(tuple(sorted(raw)))
        m = ObservationModel.bernoulli_pyramid(n, p)
        assert dp.policy_value(m, policy).total == pytest.approx(
            policy_oracle(m, policy), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_optimal_policy_value_is_exact(self, data):
        kind = data.draw(st.sampled_from(["triangular", "rectangular", "bernoulli_pyramid"]))
        n = data.draw(st.integers(1, 59), label="n")
        if kind == "triangular":
            m = ObservationModel.triangular(n)
        elif kind == "rectangular":
            m = ObservationModel.rectangular(n, data.draw(st.integers(1, 29), label="k"))
        else:
            m = ObservationModel.bernoulli_pyramid(n, data.draw(st.floats(0.01, 0.99), label="p"))
        sol = dp.solve(m)
        assert sol.policy.is_nondecreasing()
        assert dp.policy_value(m, sol.policy).total == sol.decomposition.total


class TestBruteForce:
    def test_enumeration_cap(self):
        with pytest.raises(ResourceLimitError):
            dp.brute_force_oracle(ObservationModel.rectangular(10, 10))

    def test_probabilities_sum_to_one(self):
        for m in (
            ObservationModel.bernoulli_pyramid(6, 0.3),
            ObservationModel.triangular(5),
            ObservationModel.rectangular(4, 3),
        ):
            total = math.fsum(prob for prob, _ in enumerate_outcomes(m))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_continuous(self):
        with pytest.raises(UnsupportedModelError):
            dp.brute_force_oracle(ObservationModel.iid_uniform01(3))

    @pytest.mark.parametrize("n, thresholds", [
        (3, (1.0, 3.0, math.inf)),
        (4, (-math.inf, 2.0, 4.0, math.inf)),
    ])
    def test_trend_shifted_agrees_with_simulation(self, n, thresholds):
        m = ObservationModel.trend_shifted(n)
        policy = ThresholdPolicy(thresholds)
        exact = policy_oracle(m, policy)
        sim = mc.simulate(mc.SimConfig(model=m, policy=policy, replications=200_000, seed=11))
        assert abs(sim.success_rate - exact) <= 4.0 * sim.std_error

    def test_step_cap(self):
        # one atom a step: the tuple count stays 1 and only the depth grows
        assert dp.brute_force_oracle(ObservationModel.rectangular(64, 1)) == 1.0
        for n in (65, 340):
            with pytest.raises(ResourceLimitError):
                dp.brute_force_oracle(ObservationModel.rectangular(n, 1))


# ---------------------------------------------------------------------------
# Pinned outputs of the lattice pass
# ---------------------------------------------------------------------------

PIN_FILE = Path(__file__).with_name("dp_pins.json")
PIN_SOLVES = {
    "triangular/1": ObservationModel.triangular(1),
    "triangular/2": ObservationModel.triangular(2),
    "triangular/3": ObservationModel.triangular(3),
    "triangular/50": ObservationModel.triangular(50),
    "triangular/777": ObservationModel.triangular(777),
    "rectangular/1/1": ObservationModel.rectangular(1, 1),
    "rectangular/4/1": ObservationModel.rectangular(4, 1),
    "rectangular/6/4": ObservationModel.rectangular(6, 4),
    "rectangular/50/50": ObservationModel.rectangular(50, 50),
    "rectangular/300/40": ObservationModel.rectangular(300, 40),
    "rectangular/40/300": ObservationModel.rectangular(40, 300),
}
# Policy evaluations pinned exactly: the perturbed optimal policy of each
# model, and the edge policies of EDGE_POLICIES on a few.  Triangular horizons
# from 1 to 5000 and rectangular ones with k < n, k = n and k > n.  Written
# by policy_pin_record while the policy pass still filled whole columns.
PIN_POLICIES = ("triangular/1", "triangular/2", "triangular/3", "triangular/50",
                "triangular/777", "triangular/5000", "rectangular/300/40",
                "rectangular/50/50", "rectangular/40/300")
EDGE_POLICY_MODELS = ("triangular/3", "triangular/777", "rectangular/6/4",
                      "rectangular/40/300")
EDGE_POLICIES = ("all-minus-1", "all-inf", "below-support", "flat-x-max",
                 "below-then-top")


def pin_model(name):
    """The model a pin name stands for: "triangular/50", "rectangular/6/4"."""
    kind, *args = name.split("/")
    return getattr(ObservationModel, kind)(*map(int, args))


def perturbed_policy(thresholds):
    """A nondecreasing integer policy near an optimal one: the finite
    thresholds move by -3..3 in a fixed pattern, clamped at 0."""
    out, top = [], 0.0
    for j, t in enumerate(thresholds[:-1]):
        top = max(top, t + (j * 5) % 7 - 3, 0.0)
        out.append(top)
    return ThresholdPolicy(tuple(out) + (math.inf,))


def edge_policy(model, edge):
    """Thresholds at the edges of the lattice: below every value, +inf, one
    below each step's support, flat at the top of the support, or one below
    the support for the first half of the steps and at the top after."""
    n, x_max = model.n, float(model.support(model.n)[1])
    below = tuple(model.support(j)[0] - 1.0 for j in range(1, n + 1))
    return ThresholdPolicy({
        "all-minus-1": (-1.0,) * n,
        "all-inf": (math.inf,) * n,
        "below-support": below,
        "flat-x-max": (x_max,) * n,
        "below-then-top": below[: n // 2] + (x_max,) * (n - n // 2),
    }[edge])


def pin_record(model):
    """What tests/dp_pins.json holds for one model: the optimal solve with
    tables.  The file was written by this function before the lattice pass
    reused its buffers, so it pins the outputs of the closed-form pass."""
    sol = dp.solve(model, keep_tables=True)
    stop, cont = sol.tables.as_arrays()
    d = sol.decomposition
    return {
        "thresholds": " ".join(repr(t) for t in sol.policy.thresholds),
        "stop_sha256": hashlib.sha256(stop.tobytes()).hexdigest(),
        "cont_sha256": hashlib.sha256(cont.tobytes()).hexdigest(),
        "jump": d.jump.hex(),
        "drift": d.drift,
        "total": d.total,
    }


def policy_pin_record(model, policy):
    """The exact jump and drift of one policy evaluation, as hex."""
    d = dp.policy_value(model, policy)
    return {"jump": d.jump.hex(), "drift": d.drift.hex()}


class TestPinnedPass:
    """Thresholds, both tables and the jump sum of a solve are bit-identical
    to the recorded pass, and its drift and total may move only in the last
    bit.  Policy evaluations keep every bit of jump and drift."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PIN_FILE.read_text())

    @pytest.mark.parametrize("name", sorted(PIN_SOLVES))
    def test_solve(self, pins, name):
        got, want = pin_record(PIN_SOLVES[name]), pins["solve"][name]
        for key in ("thresholds", "stop_sha256", "cont_sha256", "jump"):
            assert got[key] == want[key], key
        for key in ("drift", "total"):
            assert abs(got[key] - want[key]) <= 1e-15, key

    @pytest.mark.parametrize("name", PIN_POLICIES)
    def test_perturbed_policy(self, pins, name):
        model = pin_model(name)
        policy = perturbed_policy(dp.solve(model).policy.thresholds)
        assert policy_pin_record(model, policy) == pins["policy"][name]

    @pytest.mark.parametrize("edge", EDGE_POLICIES)
    @pytest.mark.parametrize("name", EDGE_POLICY_MODELS)
    def test_edge_policy(self, pins, name, edge):
        model = pin_model(name)
        got = policy_pin_record(model, edge_policy(model, edge))
        assert got == pins["policy"][f"{name}/{edge}"]


# ---------------------------------------------------------------------------
# Stop columns against their closed forms
# ---------------------------------------------------------------------------

def reference_stop_cols(model):
    """s(j, .) for j = 1..n from the closed forms, evaluated whole as
    exp(log s) with one fresh array per column, together with the log
    argument: triangular s(j, x) = prod_{i=0}^{x-j-1} (n-x+1)/(n-j-i) on
    [j..n] through lgamma differences, rectangular ((K-x+1)/K)^(n-j) on [1..K]."""
    n = model.n
    if model.kind == "triangular":
        lg = gammaln(np.arange(n + 3, dtype=float))
        for j in range(1, n + 1):
            col = np.full(n + 1, np.nan)
            x = np.arange(j, n + 1)
            arg = (x - j - 1) * np.log(n - x + 1.0) + lg[n - x + 2] - lg[n - j + 1]
            col[j:] = np.minimum(np.exp(arg), 1.0)
            yield j, col, arg
    else:
        k = model.k
        for j in range(1, n + 1):
            col = np.full(k + 1, np.nan)
            x = np.arange(1, k + 1)
            arg = (n - j) * (np.log(k - x + 1.0) - math.log(k))
            col[1:] = np.exp(arg)
            yield j, col, arg


@pytest.mark.parametrize("m", [*range(16), 986, 987, 988, 999, 1000, 1001, 1002,
                               dp.LATTICE_WIDTH_CAP + 3])
def test_log_gamma_table_is_scipy_gammaln_bit_for_bit(m):
    # Short tables around the end of the factorial part (k < 13) and the
    # switch of series at k = 1000, and every integer a triangular lattice
    # can read: 0..LATTICE_WIDTH_CAP + 2.
    got, want = dp._log_gamma_ints(m), gammaln(np.arange(m, dtype=float))
    assert np.all(got == want)  # inf at k = 0 included
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("model", [
    ObservationModel.triangular(1),
    ObservationModel.triangular(2),
    ObservationModel.triangular(50),
    ObservationModel.triangular(1500),
    ObservationModel.rectangular(1, 1),
    ObservationModel.rectangular(30, 1),
    ObservationModel.rectangular(200, 300),
], ids=str)
def test_stop_col_matches_closed_form_bit_for_bit(model):
    lat = dp._lattice_for(model)
    x_max = model.support(model.n)[1]
    out = np.full(x_max + 1, np.nan)
    cut_seen = False
    for j, want, arg in reference_stop_cols(model):
        lo = model.support(j)[0]
        cut = lat.stop_col(j, out)
        assert np.array_equal(out[lo:].view(np.int64), want[lo:].view(np.int64)), j
        # past the last argument >= -746, every entry is +0.0, and that is
        # where the returned exp prefix ends
        keep = np.flatnonzero(arg >= -746.0)
        assert cut == lo + (keep[-1] + 1 if len(keep) else 0), j
        tail = out[cut:]
        assert not np.any(np.isnan(tail))
        assert np.all(tail == 0.0) and not np.any(np.signbit(tail))
        cut_seen = cut_seen or len(tail) > 0
        # a column cut short, as a policy pass asks for, keeps its bits
        short = np.full(lo + (x_max + 2 - lo) // 2, np.nan)
        lat.stop_col(j, short)
        assert np.array_equal(short[lo:].view(np.int64), want[lo : len(short)].view(np.int64)), j
    if model.n == 1500:
        assert cut_seen


# ---------------------------------------------------------------------------
# Triangular records shared by every horizon
# ---------------------------------------------------------------------------

def bits(sol):
    """Thresholds and the exact bits of jump and drift of one solve."""
    d = sol.decomposition
    return sol.policy.thresholds, d.jump.hex(), d.drift.hex()


def cold_solve(n):
    """solve(triangular(n)) with the shared records emptied first, so that it
    sweeps from r = 0 to n alone."""
    dp._TRIANGULAR.clear()
    return dp.solve(ObservationModel.triangular(n))


class TestSharedTriangularRecords:
    @settings(max_examples=25, deadline=None)
    @given(ns=st.lists(st.integers(1, 300), min_size=1, max_size=8, unique=True),
           order=st.sampled_from(["ascending", "descending", "shuffled"]),
           data=st.data())
    def test_warm_solve_equals_cold_solve(self, ns, order, data):
        cold = {n: bits(cold_solve(n)) for n in ns}
        if order == "shuffled":
            ns = data.draw(st.permutations(ns), label="order")
        else:
            ns = sorted(ns, reverse=order == "descending")
        dp._TRIANGULAR.clear()
        for n in ns:
            # the consistency gate runs inside every solve
            assert bits(dp.solve(ObservationModel.triangular(n))) == cold[n], n
        assert dp._TRIANGULAR.steps == max(ns)

    @pytest.mark.parametrize("name", [name for name in PIN_SOLVES if name.startswith("tri")])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pins_hold_without_tables(self, name, warm):
        want = json.loads(PIN_FILE.read_text())["solve"][name]
        model = PIN_SOLVES[name]
        dp._TRIANGULAR.clear()
        if warm:
            dp.solve(ObservationModel.triangular(1000))
        sol = dp.solve(model)
        assert " ".join(repr(t) for t in sol.policy.thresholds) == want["thresholds"]
        assert sol.decomposition.jump.hex() == want["jump"]
        assert abs(sol.decomposition.drift - want["drift"]) <= 1e-15
        assert abs(sol.decomposition.total - want["total"]) <= 1e-15

    def test_threads_solving_different_horizons_get_cold_results(self):
        # more threads than cores, switching often, each extending the
        # records or reading them while another extends them
        ns = (120, 350, 500, 700, 260, 900)
        cold = {n: bits(cold_solve(n)) for n in ns}
        dp._TRIANGULAR.clear()
        barrier = threading.Barrier(len(ns))
        got = {}

        def solve(n):
            barrier.wait()
            got[n] = bits(dp.solve(ObservationModel.triangular(n)))

        threads = [threading.Thread(target=solve, args=(n,)) for n in ns]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == cold

    def test_cap_refusal_does_not_depend_on_earlier_calls(self, monkeypatch):
        dp.solve(ObservationModel.triangular(60))
        steps = dp._TRIANGULAR.steps
        monkeypatch.setattr(dp, "LATTICE_WIDTH_CAP", 40)
        with pytest.raises(ResourceLimitError, match="lattice width 41"):
            dp.solve(ObservationModel.triangular(41))
        dp.solve(ObservationModel.triangular(40))
        monkeypatch.setenv("STOPRULE_MAX_N", "30")
        with pytest.raises(ResourceLimitError, match="n=31"):
            dp.solve(ObservationModel.triangular(31))
        assert bits(dp.solve(ObservationModel.triangular(30))) == bits(cold_solve(30))
        dp._TRIANGULAR.clear()
        with pytest.raises(ResourceLimitError, match="n=31"):
            dp.solve(ObservationModel.triangular(31))
        assert dp._TRIANGULAR.steps == 0 < steps

    def test_interrupted_sweep_leaves_no_records(self, own_records, monkeypatch):
        dp.solve(ObservationModel.triangular(20))
        lattice_for = dp._lattice_for

        def failing(model):
            lat = lattice_for(model)

            def stop_col(j, out):
                raise KeyboardInterrupt

            lat.stop_col = stop_col
            return lat

        monkeypatch.setattr(dp, "_lattice_for", failing)
        with pytest.raises(KeyboardInterrupt):
            dp.solve(ObservationModel.triangular(25))
        assert own_records.steps == 0
        monkeypatch.setattr(dp, "_lattice_for", lattice_for)
        assert bits(dp.solve(ObservationModel.triangular(25))) == bits(cold_solve(25))
