import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stoprule.models import (
    Decomposition,
    DomainError,
    InvalidPolicyError,
    ObservationModel,
    RootReport,
    StateRangeError,
    ThresholdPolicy,
    UnsupportedModelError,
)


class TestObservationModel:
    def test_constructors(self):
        assert ObservationModel.triangular(5).n == 5
        assert ObservationModel.rectangular(4, 7).k == 7
        assert ObservationModel.bernoulli_pyramid(3, 0.2).p == 0.2
        assert ObservationModel.trend_scaled(9, 2.5).rho == 2.5
        assert ObservationModel.trend_power(9, 0.5).theta == 0.5

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_bad_n(self, bad):
        with pytest.raises(DomainError):
            ObservationModel.triangular(bad)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            ObservationModel.rectangular(3, 0)
        with pytest.raises(DomainError):
            ObservationModel.bernoulli_pyramid(3, 1.0)
        with pytest.raises(DomainError):
            ObservationModel.trend_scaled(3, -1.0)
        with pytest.raises(DomainError):
            ObservationModel(kind="triangular", n=3, k=5)

    @pytest.mark.parametrize("make", [
        lambda: ObservationModel.trend_scaled(3, math.inf),
        lambda: ObservationModel.trend_scaled(3, 1e308),  # rho * n overflows
        lambda: ObservationModel.trend_scaled(3, math.nan),
        lambda: ObservationModel.trend_power(3, math.inf),
        lambda: ObservationModel.trend_power(3, math.nan),
    ], ids=["rho-inf", "rho-n-overflows", "rho-nan", "theta-inf", "theta-nan"])
    def test_trend_parameters_that_overflow(self, make):
        # every draw j + rho * n * U or j + n * U^(1/theta) must be finite
        with pytest.raises(DomainError):
            make()

    def test_largest_finite_trend_parameters(self):
        assert ObservationModel.trend_scaled(3, 1e308 / 3).rho == 1e308 / 3
        assert ObservationModel.trend_power(3, 1e308).theta == 1e308

    def test_support(self):
        m = ObservationModel.triangular(6)
        assert m.support(1) == (1, 6)
        assert m.support(4) == (4, 6)
        with pytest.raises(StateRangeError):
            m.support(7)
        r = ObservationModel.rectangular(3, 9)
        assert r.support(2) == (1, 9)
        s = ObservationModel.trend_shifted(4)
        assert s.support(3) == (3, 6)
        with pytest.raises(UnsupportedModelError):
            ObservationModel.iid_uniform01(3).support(1)

    @pytest.mark.parametrize("model", [
        ObservationModel.triangular(6),
        ObservationModel.rectangular(5, 4),
        ObservationModel.trend_shifted(5),
    ], ids=lambda m: m.kind)
    def test_survival_counts_support_above(self, model):
        for j in range(1, model.n + 1):
            lo, hi = model.support(j)
            for v in np.arange(lo - 2.0, hi + 2.5, 0.5):
                above = sum(1 for x in range(lo, hi + 1) if x > v)
                assert model.survival(j, v) == above / (hi - lo + 1)
        js = np.arange(1.0, model.n + 1.0)
        vs = np.arange(-1.0, 2.0 * model.n + 2.0)[:, None]
        table = model.survival(js, vs)
        assert table.shape == (len(vs), model.n)
        for j in range(1, model.n + 1):
            for i, v in enumerate(vs[:, 0]):
                assert table[i, j - 1] == model.survival(j, v)

    @pytest.mark.parametrize("model", [
        ObservationModel.triangular(6),
        ObservationModel.rectangular(5, 4),
        ObservationModel.trend_shifted(5),
    ], ids=lambda m: m.kind)
    def test_sample_stays_in_support(self, model):
        rng = np.random.default_rng(3)
        u = np.concatenate([rng.random((2000, model.n)), np.zeros((1, model.n)),
                            np.full((1, model.n), np.nextafter(1.0, 0.0))])
        x = model.sample(u)
        assert x.shape == u.shape
        assert np.array_equal(x, np.floor(x))
        for j in range(1, model.n + 1):
            lo, hi = model.support(j)
            col = x[:, j - 1]
            assert col.min() == lo and col.max() == hi

    @pytest.mark.parametrize("model", [
        ObservationModel.triangular(6),
        ObservationModel.rectangular(5, 4),
        ObservationModel.trend_shifted(5),
        ObservationModel.trend_scaled(5, 0.7),
        ObservationModel.trend_power(5, 2.5),
    ], ids=lambda m: m.kind)
    def test_sample_follows_survival(self, model):
        # empirical P(X_j > v) of sampled columns within 5 standard errors
        reps = 40_000
        x = model.sample(np.random.default_rng(8).random((reps, model.n)))
        for j in range(1, model.n + 1):
            for v in np.linspace(j - 0.5, j + model.n, 9):
                p = float(model.survival(j, v))
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / reps)
                assert abs(np.mean(x[:, j - 1] > v) - p) <= 5 * se

    def test_pyramid_and_uniform_samples(self):
        u = np.random.default_rng(2).random((500, 6))
        assert np.array_equal(ObservationModel.iid_uniform01(6).sample(u.copy()), u)
        x = ObservationModel.bernoulli_pyramid(6, 0.3).sample(u.copy())
        assert np.all(x[:, 0] == 1.0)
        for j in range(2, 7):
            assert np.array_equal(x[:, j - 1], np.where(u[:, j - 1] < 0.3, 1.0 / j, float(j)))

    def test_survival_needs_a_law(self):
        for m in (ObservationModel.iid_uniform01(3), ObservationModel.bernoulli_pyramid(3, 0.5)):
            with pytest.raises(UnsupportedModelError):
                m.survival(1, 0.5)

    def test_outcome_count(self):
        # the enumeration size is the product of the per-step atom counts
        for m, want in ((ObservationModel.triangular(4), 24),
                        (ObservationModel.rectangular(3, 3), 27),
                        (ObservationModel.bernoulli_pyramid(5, 0.1), 16),
                        (ObservationModel.trend_shifted(3), 27)):
            assert math.prod(len(m.atoms(j)) for j in range(1, m.n + 1)) == want

    def test_atoms(self):
        m = ObservationModel.bernoulli_pyramid(4, 0.3)
        assert m.atoms(1) == [(1.0, 1.0)]
        assert m.atoms(3) == [(1.0 / 3, 0.3), (3.0, 0.7)]
        assert ObservationModel.triangular(4).atoms(2) == [(2.0, 1 / 3), (3.0, 1 / 3), (4.0, 1 / 3)]
        for m in (ObservationModel.bernoulli_pyramid(4, 0.3), ObservationModel.rectangular(2, 3)):
            with pytest.raises(StateRangeError):
                m.atoms(m.n + 1)
        with pytest.raises(UnsupportedModelError):
            ObservationModel.iid_uniform01(3).atoms(1)


class TestThresholdPolicy:
    def test_monotone_examples(self):
        assert ThresholdPolicy((1.0, 2.0, 3.0, math.inf)).is_nondecreasing()
        assert not ThresholdPolicy((2.0, 1.0)).is_nondecreasing()

    def test_infinities_roundtrip(self):
        p = ThresholdPolicy((-math.inf, 0.5, math.inf))
        obj = json.loads(json.dumps(p.to_json()))
        assert obj["thresholds"] == ["-inf", 0.5, "inf"]
        assert ThresholdPolicy.from_json(obj) == p

    @pytest.mark.parametrize("obj", [{}, [1, 2], {"thresholds": ["x", "inf"]},
                                     {"thresholds": 3}, {"thresholds": "12"},
                                     {"thresholds": [None]}, "text",
                                     {"thresholds": [False, True, "inf"]},
                                     {"thresholds": ["1", "2", "Infinity"]}])
    def test_from_json_rejects_malformed(self, obj):
        with pytest.raises(InvalidPolicyError):
            ThresholdPolicy.from_json(obj)

    def test_rejects_empty_and_nan(self):
        with pytest.raises(InvalidPolicyError):
            ThresholdPolicy(())
        with pytest.raises(InvalidPolicyError):
            ThresholdPolicy((0.0, math.nan))

    @given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=12))
    def test_validate_matches_sortedness(self, values):
        policy = ThresholdPolicy(tuple(values))
        assert policy.is_nondecreasing() == (sorted(values) == list(values))


class TestDecomposition:
    def test_sum_identity_enforced(self):
        # total is derived, so it cannot disagree with its parts
        d = Decomposition(0.1, 0.2)
        assert d.total == 0.1 + 0.2
        assert d.to_json() == {"jump": 0.1, "drift": 0.2, "total": 0.1 + 0.2}
        for parts in ((math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                Decomposition(*parts)


class TestRootReport:
    def test_bracket_contains_root(self):
        RootReport(1.0, 0.0, (0.5, 2.0), 7)
        with pytest.raises(DomainError):
            RootReport(3.0, 0.0, (0.5, 2.0), 7)


def test_value_tables_access():
    from stoprule import dp

    model = ObservationModel.rectangular(3, 3)
    sol = dp.solve(model, keep_tables=True)
    tabs = sol.tables
    assert tabs.stop_value(3, 1) == 1.0
    assert tabs.cont_value(3, 2) == 0.0
    states = list(zip(*np.nonzero(~np.isnan(tabs.as_arrays()[0]))))
    assert (1, 1) in states and (3, 3) in states
    assert len(states) == 9
    with pytest.raises(StateRangeError):
        tabs.stop_value(0, 1)
    with pytest.raises(StateRangeError):
        tabs.stop_value(1, 4)
    stop, cont = tabs.as_arrays()
    assert not stop.flags.writeable
    assert np.isnan(stop[0]).all()
