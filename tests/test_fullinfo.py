import hashlib
import itertools
import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from stoprule import dp, fullinfo, poisson
from stoprule.models import (
    DEFAULT_MAX_N,
    DomainError,
    InvalidPolicyError,
    ObservationModel,
    ResourceLimitError,
    ThresholdPolicy,
    UnsupportedModelError,
)

import oracles


class TestOptimalThresholds:
    def test_n2_half(self):
        th = fullinfo.gm_optimal_thresholds(2)
        assert th.thresholds[0] == pytest.approx(0.5, abs=1e-14)
        assert th.thresholds[1] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100])
    def test_residuals(self, n):
        th = fullinfo.gm_optimal_thresholds(n)
        for j in range(1, n):
            res = poisson.level_sum(n - j, -math.log1p(-th.thresholds[j - 1])) - 1.0
            assert abs(res) <= 1e-12

    def test_nondecreasing_up_to_1000(self):
        th = fullinfo.gm_optimal_thresholds(1000)
        assert np.all(np.diff(th.thresholds) >= 0.0)
        assert th.thresholds[-1] == 1.0

    def test_policy_export(self):
        pol = fullinfo.gm_optimal_thresholds(6)
        assert pol.is_nondecreasing()
        assert pol.thresholds[-1] == 1.0

    def test_roots_bit_identical_to_scipy_brentq(self):
        # every cached root, and the iterations that found it, as
        # scipy.optimize.brentq gives them on the same bracket
        from scipy import optimize

        roots = fullinfo._threshold_roots(3000)
        opts = dict(xtol=1e-16, rtol=4 * np.finfo(float).eps, maxiter=200)
        for m in range(2, 3001):
            def f(x):
                return poisson.level_sum(m, -math.log1p(-x)) - 1.0
            want, res = optimize.brentq(f, 1e-17, roots[m - 1], full_output=True, **opts)
            assert poisson.brentq(f, 1e-17, roots[m - 1], 1e-16) == (want, res.iterations), m
            assert roots[m].hex() == want.hex(), m

    def test_root_cache_filled_by_threads(self, monkeypatch):
        # threads that fill an empty cache at once must each get the serial
        # thresholds and leave one root per horizon distance
        want = list(fullinfo.gm_optimal_thresholds(600).thresholds)
        monkeypatch.setattr(fullinfo, "_ROOTS", [math.nan, 0.5])
        start, got = threading.Barrier(4), []

        def fill():
            start.wait()
            got.append(list(fullinfo.gm_optimal_thresholds(600).thresholds))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(fullinfo._ROOTS) == 600  # index 0 and m = 1..599
        assert got == [want] * 4

    def test_step_cap(self, monkeypatch):
        # The roots cost O(n^2) time, so n above the solvers' step cap is
        # refused before any root is computed.
        with pytest.raises(ResourceLimitError, match="STOPRULE_MAX_N"):
            fullinfo.gm_optimal_thresholds(DEFAULT_MAX_N + 1)
        monkeypatch.setenv("STOPRULE_MAX_N", "40")
        assert fullinfo.gm_optimal_thresholds(40).n == 40
        for solver in (fullinfo.gm_optimal_thresholds, fullinfo.sakaguchi_value,
                       lambda n: fullinfo.gm_success(n, np.ones(n))):
            with pytest.raises(ResourceLimitError):
                solver(41)


class TestGmSuccess:
    def test_all_ones_stops_immediately(self):
        for n in (1, 2, 7, 40):
            d = fullinfo.gm_success(n, np.ones(n))
            assert d.total == pytest.approx(1.0 / n, abs=1e-13)
            assert d.jump == pytest.approx(1.0 / n, abs=1e-13)
            assert d.drift == pytest.approx(0.0, abs=1e-13)

    def test_all_zeros_never_stops(self):
        # the displayed jump and drift parts cancel analytically
        for n in (1, 3, 11):
            d = fullinfo.gm_success(n, np.zeros(n))
            assert d.total == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 64, 200])
    def test_matches_sakaguchi_at_optimum(self, n):
        th = fullinfo.gm_optimal_thresholds(n)
        d = fullinfo.gm_success(n, th.thresholds)
        assert d.total == pytest.approx(fullinfo.sakaguchi_value(n), abs=1e-10)

    def test_suboptimal_thresholds_do_worse(self):
        n = 25
        best = fullinfo.sakaguchi_value(n)
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = np.sort(rng.uniform(0.0, 1.0, n))
            assert fullinfo.gm_success(n, b).total <= best + 1e-12

    def test_monte_carlo_oracle(self):
        n = 5
        th = fullinfo.gm_optimal_thresholds(n)
        rng = np.random.default_rng(42)
        x = rng.random((2_000_000, n))
        m = np.minimum.accumulate(x, axis=1)
        prev = np.hstack([np.full((len(x), 1), np.inf), m[:, :-1]])
        ok = (x <= prev) & (x <= np.asarray(th.thresholds)[None, :])
        has = ok.any(axis=1)
        val = x[np.arange(len(x)), ok.argmax(axis=1)]
        rate = float(np.mean(has & (val == m[:, -1])))
        se = math.sqrt(rate * (1 - rate) / len(x))
        assert abs(rate - fullinfo.sakaguchi_value(n)) < 4 * se

    def test_rejects_bad_thresholds(self):
        with pytest.raises(InvalidPolicyError):
            fullinfo.gm_success(3, [0.5, 0.4, 1.0])
        with pytest.raises(InvalidPolicyError):
            fullinfo.gm_success(3, [0.1, 0.5])
        with pytest.raises(InvalidPolicyError):
            fullinfo.gm_success(2, [0.1, 1.5])
        with pytest.raises(InvalidPolicyError):
            fullinfo.gm_success(3, [0.2, math.nan, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 10, 20])
    def test_first_passage_oracle_matches_fine_lattice(self, n):
        # The same rule on rectangular(n, K), K = 4*10^5, with thresholds
        # floor(K b_j): dp.policy_value splits its value by first passage,
        # within 4.4e-6 of the continuous game's split at these n.
        K = 400_000
        b = fullinfo.gm_optimal_thresholds(n).thresholds
        policy = ThresholdPolicy([math.floor(K * x) for x in b[:-1]] + [math.inf])
        d = dp.policy_value(ObservationModel.rectangular(n, K), policy)
        jump, drift = oracles.gm_first_passage(n, b)
        assert d.jump == pytest.approx(jump, abs=1e-5)
        assert d.drift == pytest.approx(drift, abs=1e-5)

    def test_parts_bounded_for_monotone_valid_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            b = np.sort(rng.uniform(0.0, 1.0, n))
            d = fullinfo.gm_success(n, b)
            assert -1e-12 <= d.total <= 1.0 + 1e-12


PIN_FILE = Path(__file__).with_name("fullinfo_pins.json")


def pin_record():
    """What tests/fullinfo_pins.json holds: the sha256 of the float64
    thresholds of gm_optimal_thresholds(3000) and the bits of gm_success at
    the optimal thresholds of n = 2000 and at sorted random ones of n = 300
    (some equal to 1).  The file was written by this function while the
    threshold equation and the power sums still had their own copies in
    fullinfo, so it pins the outputs of those copies."""
    b = np.asarray(fullinfo.gm_optimal_thresholds(3000).thresholds, dtype=np.float64)
    rand = np.sort(np.minimum(np.random.default_rng(1).uniform(0.0, 1.2, 300), 1.0))
    record = {"gm_optimal_thresholds/3000": hashlib.sha256(b.tobytes()).hexdigest()}
    for name, n, t in (("optimal", 2000, fullinfo.gm_optimal_thresholds(2000).thresholds),
                       ("random", 300, rand)):
        d = fullinfo.gm_success(n, t)
        record[f"gm_success/{n}/{name}"] = {"jump": d.jump.hex(), "drift": d.drift.hex()}
    return record


def test_pinned_outputs():
    # bit-identical thresholds, jump and drift
    assert pin_record() == json.loads(PIN_FILE.read_text())


class TestSakaguchi:
    def test_small_values(self):
        assert fullinfo.sakaguchi_value(1) == 1.0
        assert fullinfo.sakaguchi_value(2) == pytest.approx(0.75, abs=1e-13)

    def test_two_observation_integral_oracle(self):
        # stop at X_1 iff X_1 <= 1/2 (wins when X_2 >= X_1), otherwise take
        # X_2 (wins when X_2 <= X_1)
        first, _ = integrate.quad(lambda x: 1.0 - x, 0.0, 0.5)
        second, _ = integrate.quad(lambda x: x, 0.5, 1.0)
        assert fullinfo.sakaguchi_value(2) == pytest.approx(first + second, abs=1e-12)

    def test_strictly_decreasing_and_bounded(self):
        prev = 2.0
        for n in range(1, 400):
            v = fullinfo.sakaguchi_value(n)
            assert v < prev
            assert v > 0.580164
            prev = v

    def test_large_n_limit(self):
        v = fullinfo.sakaguchi_value(5000)
        assert v > 0.5801642
        assert abs(v - 0.580164) < 1e-3


class TestTieProbability:
    def test_continuous_no_ties(self):
        assert fullinfo.tie_probability(ObservationModel.iid_uniform01(10)) == 0.0

    def test_two_by_two_enumeration(self):
        m = ObservationModel.rectangular(2, 2)
        # enumerate the 4 equiprobable pairs: tie for the minimum iff X1 == X2
        ties = sum(
            1 for a, b in itertools.product((1, 2), repeat=2) if a == b
        ) / 4.0
        assert fullinfo.tie_probability(m) == pytest.approx(ties, abs=1e-15)

    # every n <= 4 with k <= 6, and one observation on a wide support, which
    # never ties
    @pytest.mark.parametrize(
        "n,k", list(itertools.product(range(1, 5), range(1, 7))) + [(5, 2), (1, 1000)])
    def test_matches_enumeration(self, n, k):
        m = ObservationModel.rectangular(n, k)
        count = 0
        for combo in itertools.product(range(1, k + 1), repeat=n):
            if sum(1 for v in combo if v == min(combo)) >= 2:
                count += 1
        assert abs(Fraction(fullinfo.tie_probability(m)) - Fraction(count, k**n)) <= 1e-15

    def test_square_support_ties_persist(self):
        # K = n keeps the tie probability away from zero
        values = [fullinfo.tie_probability(ObservationModel.rectangular(n, n))
                  for n in (50, 200, 800)]
        assert all(v > 0.4 for v in values)
        assert values[-1] == pytest.approx(1.0 - 1.0 / (math.e - 1.0), abs=2e-3)

    @pytest.mark.parametrize("n", [5, 50])
    def test_matches_survival_oracle(self, n):
        m = ObservationModel.rectangular(n, n)
        assert fullinfo.tie_probability(m) == pytest.approx(oracles.tie_probability(m), abs=1e-15)

    def test_triangular_ties_vanish(self):
        # X_j uniform on j..n: the minimum ties ever less often, while
        # sqrt(n) P(tie) still rises (0.62599 at n = 200, 0.62653 at 1000);
        # its limit is not asserted
        p200, p1000 = (oracles.tie_probability(ObservationModel.triangular(n))
                       for n in (200, 1000))
        assert p1000 < p200 < 0.05
        assert math.sqrt(200) * p200 < math.sqrt(1000) * p1000

    def test_wide_support_ties_vanish(self):
        assert fullinfo.tie_probability(ObservationModel.rectangular(10, 10**6)) < 1e-4

    def test_rejects_non_iid(self):
        with pytest.raises(UnsupportedModelError):
            fullinfo.tie_probability(ObservationModel.triangular(5))


class TestTieBreakTransform:
    def test_continuous_identity(self):
        m = ObservationModel.iid_uniform01(4)
        x = np.array([0.3, 0.9, 0.1, 0.5])
        u = np.array([0.7, 0.2, 0.9, 0.4])
        assert np.allclose(fullinfo.tie_break_transform(x, u, m), x)

    def test_spec_example_argmin(self):
        m = ObservationModel.rectangular(3, 3)
        x = np.array([2.0, 1.0, 1.0])
        u = np.array([0.5, 0.2, 0.9])
        y = fullinfo.tie_break_transform(x, u, m)
        i = int(np.argmin(y))
        assert i in (1, 2)
        assert x[i] == x.min()

    def test_argmin_preserved_uniform_near_one(self):
        # 0.75 - 0.25 * (1 - 2**-52) rounds to 0.5, the top of the x = 2 interval
        m = ObservationModel.rectangular(3, 4)
        x = np.array([3.0, 3.0, 2.0])
        u = np.array([0.0, 0.9999999999999998, 0.0])
        y = fullinfo.tie_break_transform(x, u, m)
        assert y[1] > 0.5
        assert int(np.argmin(y)) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_argmin_preserved(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        n = data.draw(st.integers(1, 8), label="n")
        x = np.array(data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n)), float)
        u = np.array(
            data.draw(
                st.lists(
                    st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
                    min_size=n, max_size=n,
                )
            )
        )
        m = ObservationModel.rectangular(n, k)
        y = fullinfo.tie_break_transform(x, u, m)
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert x[int(np.argmin(y))] == x.min()

    def test_output_inside_atom_interval(self):
        # Y lies in (F(x-), F(x)] with F = 1 - survival, and equals F(x) at U = 0
        for k in range(1, 200):
            m = ObservationModel.rectangular(2, k)
            x = np.arange(1.0, k + 1.0)
            f_hi, f_lo = 1.0 - m.survival(1, x), 1.0 - m.survival(1, x - 1.0)
            for u in (0.0, 0.5, 1.0):
                y = fullinfo.tie_break_transform(x, np.full(k, u), m)
                assert np.all((f_lo < y) & (y <= f_hi)), (k, u)
                if u == 0.0:
                    assert np.array_equal(y, f_hi), k

    def test_output_uniformity(self):
        # Y must be exactly uniform-[0,1]; Kolmogorov-Smirnov at the 1e-3 level
        from scipy import stats

        m = ObservationModel.rectangular(10, 10)
        rng = np.random.default_rng(2024)
        x = np.floor(rng.random(100_000) * 10) + 1
        u = rng.random(100_000)
        y = fullinfo.tie_break_transform(x, u, m)
        res = stats.kstest(y, "uniform")
        assert res.pvalue > 1e-3

    def test_shape_and_range_validation(self):
        m = ObservationModel.rectangular(2, 2)
        with pytest.raises(DomainError):
            fullinfo.tie_break_transform([1.0], [0.5, 0.5], m)
        for u in (1.5, -0.1, math.nan):
            with pytest.raises(DomainError):
                fullinfo.tie_break_transform([1.0], [u], m)
        with pytest.raises(DomainError):
            fullinfo.tie_break_transform([2.0], [math.nan], ObservationModel.rectangular(5, 5))
        # observations: NaN, off the support {1..5}, or between two atoms
        for x in (math.nan, 7.0, -1.0, 0.0, 2.5):
            with pytest.raises(DomainError):
                fullinfo.tie_break_transform([x], [0.5], ObservationModel.rectangular(3, 5))
        for x in (math.nan, -0.1, 1.5):
            with pytest.raises(DomainError):
                fullinfo.tie_break_transform([x], [0.5], ObservationModel.iid_uniform01(3))
