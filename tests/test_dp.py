import hashlib
import json
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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

from oracles import enumerate_outcomes, exact_values, policy_oracle


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

    def test_table_cell_cap(self, monkeypatch):
        # (n + 1) * (x_max + 1) cells a table: one over 2^24 is refused before
        # either table (128 MiB each) is allocated
        assert dp.TABLE_CELL_CAP == 97 * 172961 - 1 == 1 << 24
        model = ObservationModel.rectangular(96, 172960)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="16777217 cells"):
                dp.solve(model, keep_tables=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 23
        # a lowered cap admits tables of exactly its size
        monkeypatch.setattr(dp, "TABLE_CELL_CAP", 4 * 6)
        assert dp.solve(ObservationModel.rectangular(3, 5), keep_tables=True).tables is not None
        with pytest.raises(ResourceLimitError, match="25 cells"):
            dp.solve(ObservationModel.triangular(4), keep_tables=True)

    def test_consistency_gate_raises_precision_error(self, monkeypatch):
        # No jump+drift total can be within a negative tolerance of v0.
        monkeypatch.setattr(dp, "_CONSISTENCY_TOL", -1.0)
        with pytest.raises(PrecisionError):
            dp.solve(ObservationModel.triangular(5))

    @staticmethod
    def ones_at_steps_left(monkeypatch, steps_left):
        """Make the stop row at steps_left = n - j all ones on [j, cut_j),
        which puts b_j at the top of its exp prefix while b_{j+1} stays low."""
        stop_rows = dp._stop_rows

        def ones(lat, j, x, cut, out):
            inside = stop_rows(lat, j, x, cut, out)
            row = lat.n - j[:, 0] == steps_left
            out[row] = np.where(inside[row] & (x >= j[row]), 1.0, out[row])
            return inside

        monkeypatch.setattr(dp, "_stop_rows", ones)
        return stop_rows

    @staticmethod
    def assert_no_records(records):
        assert records.steps == 0 and records.vsum == {}
        assert all(len(getattr(records, name)) == 0
                   for name in ("y_b", "ssum", "drift_cont", "stop", "cont"))

    def test_overlapping_drift_windows_raise_precision_error(self, monkeypatch, own_records):
        # b_3 > b_4 at n = 30, so the drift window (b_2, b_3] would overlap
        # the windows of later steps: the sweep stops there and keeps no
        # record.  The sweep runs on records of its own.
        self.ones_at_steps_left(monkeypatch, 27)
        with pytest.raises(PrecisionError, match="overlap"):
            dp.solve(ObservationModel.triangular(30))
        self.assert_no_records(own_records)

    def test_decreasing_threshold_clears_the_shared_records(self, monkeypatch):
        # Records of n = 20 are clean; extending them to n = 30 meets the
        # faulty column at 27 steps left and must drop them all.
        dp._TRIANGULAR.clear()
        stop_rows = self.ones_at_steps_left(monkeypatch, 27)
        dp.solve(ObservationModel.triangular(20))
        assert dp._TRIANGULAR.steps == 20
        with pytest.raises(PrecisionError, match="overlap"):
            dp.solve(ObservationModel.triangular(30))
        self.assert_no_records(dp._TRIANGULAR)
        monkeypatch.setattr(dp, "_stop_rows", stop_rows)
        assert bits(dp.solve(ObservationModel.triangular(30))) == bits(cold_solve(30))

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

    def test_thresholds_are_optimal_in_exact_arithmetic(self):
        # Every emitted threshold stops where s >= v and continues where
        # s <= v, in exact arithmetic.  It is the largest x with s >= v
        # except at the known exact ties s = v = 5/9 of rectangular(n, 9) at
        # step n - 1, where rounding puts b_{n-1} at 4; both are optimal.
        models = [*(ObservationModel.rectangular(n, k) for n in range(2, 11) for k in range(1, 11)),
                  *(ObservationModel.triangular(n) for n in range(2, 16))]
        deviations = set()
        for m in models:
            s, v = exact_values(m)
            x_max = m.support(m.n)[1]
            for j, b in enumerate(dp.solve(m).policy.thresholds[:-1], start=1):
                xs = range(m.support(j)[0], x_max + 1)
                assert all(s[j, x] >= v[j, x] if x <= b else s[j, x] <= v[j, x] for x in xs), (m, j)
                rule = max(x for x in xs if s[j, x] >= v[j, x])
                if rule != b:
                    deviations.add((m.kind, m.n, m.k, j, b, rule))
        assert deviations == {("rectangular", n, 9, n - 1, 4.0, 5) for n in range(2, 11)}

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


@pytest.mark.parametrize("start, stop", [(1, 5), (12, 14), (13, 40), (990, 1010), (1000, 1003),
                                         (1001, 1002), (4000, 4000)])
def test_log_gamma_range_keeps_the_bits_of_a_whole_table(start, stop):
    # a table grown in pieces: the factorial part ends at k = 13 and the
    # series switches at k = 1000
    want = gammaln(np.arange(start, stop, dtype=float))
    assert np.array_equal(dp._log_gamma_range(start, stop).view(np.int64), want.view(np.int64))


def test_log_gamma_table_is_shared_and_grown_in_place(monkeypatch):
    built = []
    log_gamma_range = dp._log_gamma_range

    def counted(start, stop):
        built.append((start, stop))
        return log_gamma_range(start, stop)

    monkeypatch.setattr(dp, "_log_gamma_range", counted)
    monkeypatch.setattr(dp, "_LOG_GAMMA", np.zeros(0))
    model = ObservationModel.triangular(50)
    sol = dp.solve(model, keep_tables=True)
    assert built == [(0, 53)]
    # a second solve, a smaller one and a policy evaluation read the table
    dp.solve(model, keep_tables=True)
    dp.solve(ObservationModel.triangular(40), keep_tables=True)
    dp.policy_value(model, sol.policy)
    assert built == [(0, 53)]
    # a larger one computes only the new entries, which keep their bits
    dp.solve(ObservationModel.triangular(60), keep_tables=True)
    assert built == [(0, 53), (53, 63)]
    want = gammaln(np.arange(63, dtype=float))
    assert np.array_equal(dp._log_gamma_ints(63).view(np.int64), want.view(np.int64))


def test_masked_exp_keeps_the_bits_of_exp():
    # `_stop_rows` sends the logs of a block through one exp into a strided
    # view of its box, masked at the cuts; on every row and every mask that
    # must give the bits of a plain exp, and leave the masked cells alone.
    rng = np.random.default_rng(29)
    for _ in range(300):
        rows, cols, pad = (int(v) for v in rng.integers(1, 80, 3))
        log = rng.uniform(-800.0, 1e-12, (rows, cols))
        log[rng.random((rows, cols)) < 0.5] *= 1e-3  # logs near 0 too
        cut = rng.integers(0, cols + 1, (rows, 1))
        mask = np.arange(cols) < cut if rng.random() < 0.5 else rng.random((rows, cols)) < 0.7
        box = np.full((rows, cols + pad), np.nan)
        np.exp(log, out=box[:, :cols], where=mask)
        want = np.where(mask, np.exp(log), np.nan)
        assert np.array_equal(box[:, :cols].view(np.int64), want.view(np.int64))
        assert np.all(np.isnan(box[:, cols:]))


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
    n, x_max = model.n, model.support(model.n)[1]
    cuts, _ = dp._windows(lat, model, 0)
    refs = list(reference_stop_cols(model))
    j = np.array([ref[0] for ref in refs])[:, None]
    lo = model._interval(j)[0] + 0 * j
    x = np.arange(1, x_max + 1)
    # The stop rows of all n steps as one box at x = 1..x_max, with each
    # step's whole column (a pass with tables), a column cut short (a policy
    # pass) and the optimal pass's cut: the closed form's bits on [lo, cut)
    # (+0.0 where exp underflows), and every cell from cut on and outside the
    # box left as it was (the pass fills its box with +0.0 first).  Below lo
    # no output reads a row.
    nan = np.float64(np.nan).view(np.int64)
    for cut in (np.full_like(j, x_max + 1), lo + (x_max + 2 - lo) // 2, cuts[n - j]):
        out = np.full((n, x_max + 2), np.nan)
        inside = dp._stop_rows(lat, j, x, cut, out[:, 1:-1])
        assert np.array_equal(inside, x < cut)
        assert np.all(out[:, [0, -1]].view(np.int64) == nan)
        for (jj, want, _), row, c, l in zip(refs, out[:, :-1], cut[:, 0], lo[:, 0]):
            assert np.array_equal(row[l:c].view(np.int64), want[l:c].view(np.int64)), jj
            assert np.all(row[c:].view(np.int64) == nan), jj
    floor_seen = False
    for j, want, arg in refs:
        lo = model.support(j)[0]
        # the log argument that the bisection reads is the one the stop rows
        # send through exp
        xs = np.arange(lo, x_max + 1)
        got = lat.log_stop(np.full_like(xs, j), xs)
        assert np.array_equal(got.view(np.int64), arg.view(np.int64)), j
        if j == n:
            assert cuts[0] == x_max + 1  # the last stop column is whole
            continue
        # The optimal pass's cut: the first argument below its floor
        # log(1 / (2 size_{j+1})) minus 1.  Past it the closed form is below
        # 1 / (2 size_{j+1}), so the +0.0 that the pass reads there is < v / 2.
        lo1, hi1 = model.support(j + 1)
        bound = 1.0 / (2 * (hi1 - lo1 + 1))
        below = np.flatnonzero(arg < math.log(bound) - 1)
        cut = cuts[n - j]
        assert cut == lo + (below[0] if len(below) else len(arg)), j
        assert np.all(want[cut:] < bound), j
        floor_seen = floor_seen or cut <= x_max
    if min(model.n, x_max) > 2:
        assert floor_seen


def test_stop_row_clamp_binds_at_the_bottom_of_the_triangular_support():
    # exp of the log-gamma differences overshoots 1 at x = lo_j on some steps,
    # so `_stop_rows` needs its clamp where the recursion needs none
    model = ObservationModel.triangular(50)
    lat, j = dp._lattice_for(model), np.arange(1, 51)[:, None]
    over = np.exp(lat.log_stop(j, j))[:, 0] > 1.0
    assert over.any()
    out = np.zeros((50, 50))
    dp._stop_rows(lat, j, np.arange(1, 51), np.full_like(j, 51), out)
    assert np.all(np.diag(out)[over] == 1.0) and out.max() == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 50, 777, 9050])
def test_prob_min_ge_is_exact_at_both_ends_of_its_range(n):
    # Callers pass y in [1, n + 1]: the formula itself gives 1.0 at y = 1 and
    # 0.0 at y = n + 1, except for the empty minimum M_0, which is +inf.
    lat, j = dp._TriLattice(n), np.arange(n + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bottom = lat.prob_min_ge(j, np.ones_like(j))
        top = lat.prob_min_ge(j, np.full_like(j, n + 1))
    assert np.all(bottom == 1.0)
    assert top[0] == 1.0 and np.all(top[1:] == 0.0)


@st.composite
def recursion_columns(draw):
    """A column of the recursion: the size S = size_{j+1}, the column length
    (its last cell has m = length terms, m <= S), and patterns of the terms
    max(s, v) (or s) and of v(j + 1, .), all in [0, 1]."""
    size = draw(st.integers(1, dp.LATTICE_WIDTH_CAP))
    length = draw(st.just(size) | st.integers(1, min(size, 4096)))
    unit = st.just(1.0) | st.floats(0.0, 1.0)
    return (size, length, draw(st.lists(unit, min_size=1, max_size=6)),
            draw(st.lists(unit, min_size=1, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(recursion_columns())
@example((dp.LATTICE_WIDTH_CAP, dp.LATTICE_WIDTH_CAP, [1.0], [1.0]))
@example((3, 3, [1.0], [1.0]))
@example((1, 1, [1.0], [1.0]))
def test_continuation_column_needs_no_clamp(column):
    # The float64 calls of `_Sweep.advance`: the sequential prefix sum of m
    # terms, divided by S, plus fl((S - m) / S) times v.  The sum is <= m, so
    # the two parts add up to at most 1 + 2^-53, which rounds to 1.0.
    size, length, terms, conts = column
    col = np.add.accumulate(np.resize(np.array(terms), length))
    np.divide(col, float(size), out=col)
    p_above = np.divide(np.arange(size - 1.0, size - length - 1.0, -1.0), float(size))
    np.multiply(p_above, np.resize(np.array(conts), length), out=p_above)
    np.add(col, p_above, out=col)
    assert col.max() <= 1.0


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

    def test_descending_ascending_and_mixed_solves_equal_cold_solves(self):
        ns = (3001, 1500, 777, 362, 361, 60)
        cold = {n: bits(cold_solve(n)) for n in ns}
        for order in (sorted(ns, reverse=True), sorted(ns), (777, 60, 3001, 361, 1500, 362)):
            for fresh in (True, False):  # from empty records, and after the orders before
                if fresh:
                    dp._TRIANGULAR.clear()
                for n in order:
                    assert bits(dp.solve(ObservationModel.triangular(n))) == cold[n], (order, n)

    def test_records_serve_no_smaller_horizon(self, monkeypatch):
        # Records swept for n serve every larger horizon, which extends them;
        # a smaller one gets a pass of its own and leaves them as they were.
        cold = {n: bits(cold_solve(n)) for n in (200, 500, 600, 800)}
        passes = []
        advance = dp._Sweep.advance

        def counted(sweep, lat, model, *args, **kwargs):
            passes.append((sweep is dp._TRIANGULAR, model.n))
            return advance(sweep, lat, model, *args, **kwargs)

        monkeypatch.setattr(dp._Sweep, "advance", counted)
        records = dp._TRIANGULAR
        records.clear()
        names = ("y_b", "ssum", "drift_cont", "stop", "cont")
        for n in (500, 200, 800, 500, 600, 800):
            before = [getattr(records, name).copy() for name in names], dict(records.vsum)
            assert bits(dp.solve(ObservationModel.triangular(n))) == cold[n], n
            if n < records.steps:
                arrays, vsum = before
                assert all(np.array_equal(a, getattr(records, name))
                           for a, name in zip(arrays, names)), n
                assert records.vsum == vsum, n
        assert passes == [(True, 500), (False, 200), (True, 800), (False, 600)]
        assert sorted(records.vsum) == [500, 800]  # the horizons the records serve

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
        stop_rows = dp._stop_rows

        def failing(lat, j, x, cut, out):
            raise KeyboardInterrupt

        monkeypatch.setattr(dp, "_stop_rows", failing)
        with pytest.raises(KeyboardInterrupt):
            dp.solve(ObservationModel.triangular(25))
        assert own_records.steps == 0
        monkeypatch.setattr(dp, "_stop_rows", stop_rows)
        assert bits(dp.solve(ObservationModel.triangular(25))) == bits(cold_solve(25))


# ---------------------------------------------------------------------------
# Windowed passes against whole ones
# ---------------------------------------------------------------------------

class _DiscardedTable:
    """A value table that drops what is written to it, so that a solve can
    take the whole-column pass of tables without holding them."""

    def __setitem__(self, key, value):
        pass


def pass_bits(model, whole):
    """Thresholds, jump and drift (as hex) and the backward value v0 of one
    cold pass: windowed, or whole columns as with keep_tables=True."""
    lat = dp._lattice_for(model)
    sweep = dp._Sweep()
    sweep.advance(lat, model, tables=(_DiscardedTable(),) * 2 if whole else None)
    b, jump, drift = sweep.horizon(lat, model)
    lo, hi = model.support(1)
    return (b.tolist(), jump.hex(), drift.hex()), sweep.vsum[model.n] / (hi - lo + 1)


@pytest.mark.parametrize("model", [
    *(ObservationModel.triangular(n) for n in (*range(1, 61), 361, 362, 1500, 4999)),
    ObservationModel.rectangular(1, 1),
    ObservationModel.rectangular(30, 1),
    ObservationModel.rectangular(300, 40),
    ObservationModel.rectangular(50, 50),
    ObservationModel.rectangular(40, 300),
    *(ObservationModel.triangular(n) for n in (*range(61, 80), 777, 2000)),
    *(ObservationModel.rectangular(n, k) for n, k in ((2, 9), (10, 3), (1000, 1000),
                                                      (2000, 500), (500, 2000))),
], ids=str)
def test_floored_pass_keeps_every_bit(model):
    # Every threshold, jump and drift bit of the windowed pass; its v0, which
    # only the consistency gate reads, within n * _REACH_EPS (the chance that
    # the chain visits a cell past the reach).
    (got, v0), (want, v0_whole) = pass_bits(model, whole=False), pass_bits(model, whole=True)
    assert got == want
    assert abs(v0 - v0_whole) <= model.n * dp._REACH_EPS
    if model.n <= 1500:
        # the public solves: shared records against real value tables
        dp._TRIANGULAR.clear()
        assert bits(dp.solve(model)) == bits(dp.solve(model, keep_tables=True))


def test_a_window_narrowed_below_the_cuts_moves_bits(monkeypatch):
    # The mutation: U_j one cell below max_{i <= j+1} cut_i wherever that is
    # not the whole column.  The pass must then lose a bit or fail its checks.
    windows = dp._windows

    def narrowed(lat, model, start):
        cut, end = windows(lat, model, start)
        need = np.maximum.accumulate(cut[::-1])[::-1][np.maximum(np.arange(len(cut)) - 1, 0)]
        return cut, np.where(need <= model.support(model.n)[1], np.minimum(end, need - 1), end)

    monkeypatch.setattr(dp, "_windows", narrowed)
    for model in (ObservationModel.triangular(361), ObservationModel.triangular(1500),
                  ObservationModel.rectangular(300, 40)):
        try:
            got = pass_bits(model, whole=False)[0]
        except PrecisionError as exc:
            got = exc
        assert got != pass_bits(model, whole=True)[0], model


FRONTIER_SHAPES = ((2, 9), (10, 3), (30, 1), (50, 50), (300, 40), (40, 300), (1000, 1000),
                   (2000, 500), (2000, 2000))


def test_the_frontier_of_an_optimal_pass_is_whole():
    # Step 1 reaches every lattice value, P(M_1 >= x) >= 1 / size_1 >
    # _REACH_EPS, so the frontier that an extension goes on from is filled on
    # the whole support.
    for model in (*(ObservationModel.triangular(n) for n in (*range(1, 2001), 5050, 9050)),
                  *(ObservationModel.rectangular(n, k) for n, k in FRONTIER_SHAPES)):
        x_max = model.support(model.n)[1]
        assert dp._windows(dp._lattice_for(model), model, 0)[1][-1] == x_max + 1, model


def test_rectangular_cuts_fall_as_steps_left_grow():
    # log s = r log P(X >= x) falls with r under a floor that does not move, so
    # the window U_j = max(R_j, cut_{j+1}) covers the cuts of all later steps.
    for n, k in FRONTIER_SHAPES:
        model = ObservationModel.rectangular(n, k)
        cut = dp._windows(dp._lattice_for(model), model, 0)[0]
        assert len(cut) == n and np.all(np.diff(cut) <= 0), (n, k)


def test_no_extension_cuts_past_an_old_window():
    # Counted from the top, y = n + 1 - cut, the cuts of the triangular
    # records never fall as the steps left r grow, and every record of a
    # horizon m was filled at least up to the cut of its frontier, r = m - 1.
    # So the frontier's cells up to any cut of the steps that an extension
    # adds were computed from filled cells only, as in a pass of its own.
    top = ObservationModel.triangular(20000)
    y_cut = top.n + 1 - dp._windows(dp._lattice_for(top), top, 0)[0]
    assert np.all(np.diff(y_cut) >= 0)
    for m in (*range(1, 80), 361, 362, 777, 1500, 4999, 5050, 9050):
        model = ObservationModel.triangular(m)
        end = dp._windows(dp._lattice_for(model), model, 0)[1]
        assert (m + 1 - end).max() <= y_cut[m - 1] <= y_cut[m:].min(), m


def test_extended_floored_records_keep_every_bit():
    dp._TRIANGULAR.clear()
    dp.solve(ObservationModel.triangular(300))
    warm = bits(dp.solve(ObservationModel.triangular(900)))
    assert warm == bits(cold_solve(900))
    assert warm == bits(dp.solve(ObservationModel.triangular(900), keep_tables=True))


# ---------------------------------------------------------------------------
# Blocks of steps
# ---------------------------------------------------------------------------

BLOCK_SOLVES = (*(ObservationModel.triangular(n) for n in (*range(1, 80), 361, 1500, 5050)),
                *(ObservationModel.rectangular(n, k) for n, k in ((2, 9), (300, 40), (40, 300),
                                                                 (2000, 500))))
BLOCK_POLICY_MODELS = ("triangular/2", "triangular/3", "triangular/50", "triangular/361",
                       "triangular/777", "triangular/1500", "rectangular/6/4",
                       "rectangular/300/40", "rectangular/40/300", "rectangular/2000/500")


def extended_bits(n):
    """Thresholds, jump and drift (as hex) of triangular(n) from records first
    swept to n // 3 + 1, which is not where a block of the cold pass starts."""
    sweep = dp._Sweep()
    for k in (n // 3 + 1, n):
        model = ObservationModel.triangular(k)
        sweep.advance(dp._lattice_for(model), model)
    b, jump, drift = sweep.horizon(dp._lattice_for(model), model)
    return b.tolist(), jump.hex(), drift.hex()


def block_outputs():
    """Every output the block size could move: cold passes with their v0,
    which reads the cells past each step's window as +0.0, extended passes,
    policy evaluations and one solve with its tables."""
    policies = [(name, policy) for name in BLOCK_POLICY_MODELS
                for policy in (perturbed_policy(dp.solve(pin_model(name)).policy.thresholds),
                               edge_policy(pin_model(name), "below-then-top"))]
    tables = dp.solve(ObservationModel.triangular(300), keep_tables=True)
    return {
        "cold": [pass_bits(model, whole=False) for model in BLOCK_SOLVES],  # v0 too
        "extended": [extended_bits(model.n) for model in BLOCK_SOLVES
                     if model.kind == "triangular" and model.n > 1],
        "policies": [policy_pin_record(pin_model(name), policy) for name, policy in policies],
        "tables": (bits(tables), [t.tobytes() for t in tables.tables.as_arrays()]),
    }


@pytest.mark.parametrize("cells", [1, 777])
def test_block_size_moves_no_bit(monkeypatch, cells):
    # One step a block, and blocks of an odd small size against the default.
    want = block_outputs()
    monkeypatch.setattr(dp, "_BLOCK_CELLS", cells)
    assert block_outputs() == want
