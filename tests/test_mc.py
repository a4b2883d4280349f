import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoprule import dp, fullinfo, mc
from stoprule.models import (
    DomainError,
    InvalidPolicyError,
    ObservationModel,
    ResourceLimitError,
    ThresholdPolicy,
    UnsupportedModelError,
)

from oracles import policy_oracle, simulate_oracle, tie_probability


def run(model, reps=150_000, seed=0, **kw):
    return mc.simulate(mc.SimConfig(model=model, replications=reps, seed=seed, **kw))


class TestDeterminism:
    def test_identical_runs(self):
        cfg = mc.SimConfig(model=ObservationModel.rectangular(17, 9),
                           replications=50_001, seed=123)
        a, b = mc.simulate(cfg), mc.simulate(cfg)
        assert a == b

    def test_seed_changes_result(self):
        m = ObservationModel.rectangular(17, 9)
        a = run(m, reps=30_000, seed=1)
        b = run(m, reps=30_000, seed=2)
        assert a.success_rate != b.success_rate

    def test_block_boundaries_partition_replications(self):
        # an awkward reps count exercises the final partial block
        m = ObservationModel.triangular(7)
        r = run(m, reps=12_347, seed=9)
        assert r.replications == 12_347


MODEL_STRATEGIES = {
    "iid_uniform01": lambda n: st.just(ObservationModel.iid_uniform01(n)),
    "triangular": lambda n: st.just(ObservationModel.triangular(n)),
    "rectangular": lambda n: st.integers(1, 6).map(lambda k: ObservationModel.rectangular(n, k)),
    "bernoulli_pyramid": lambda n: st.floats(0.05, 0.95).map(
        lambda p: ObservationModel.bernoulli_pyramid(n, p)),
    "trend_shifted": lambda n: st.just(ObservationModel.trend_shifted(n)),
    "trend_scaled": lambda n: st.floats(0.1, 3.0).map(lambda r: ObservationModel.trend_scaled(n, r)),
    "trend_power": lambda n: st.floats(0.2, 5.0).map(lambda t: ObservationModel.trend_power(n, t)),
}


@st.composite
def small_configs(draw):
    """SimConfig arguments other than replications: a small model of any
    kind, the optimal policy where dp.solve or fullinfo provides one and an
    explicit one otherwise."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(sorted(MODEL_STRATEGIES)))
    model = draw(MODEL_STRATEGIES[kind](n))
    threshold = st.one_of(st.floats(-1.0, 2.0 * n + 2.0), st.sampled_from([-math.inf, math.inf]))
    explicit = st.lists(threshold, min_size=n, max_size=n).map(ThresholdPolicy)
    policy = draw(explicit if kind.startswith("trend") else st.one_of(st.just("optimal"), explicit))
    return dict(model=model, policy=policy, seed=draw(st.integers(0, 2**64 - 1)),
                record_semantics=draw(st.sampled_from(["weak", "strict"])))


class TestChunkedScan:
    # simulate draws each block in chunks and scans the blocks on a thread
    # pool; the whole-block scan in oracles.simulate_oracle fixes its output.
    @settings(max_examples=150, deadline=None)
    @given(args=small_configs(), data=st.data())
    def test_matches_whole_block_oracle(self, args, data):
        # Shrunk block and chunk targets put both edges within a few rows.
        n = args["model"].n
        block_rows = data.draw(st.integers(1, 40), label="block_rows")
        chunk_rows = data.draw(st.integers(1, block_rows), label="chunk_rows")
        edge = data.draw(st.sampled_from(
            [chunk_rows, block_rows, 2 * block_rows, 3 * block_rows + chunk_rows]), label="edge")
        reps = max(1, edge + data.draw(st.integers(-1, 1), label="offset"))
        config = mc.SimConfig(replications=reps, **args)
        with mock.patch.object(mc, "_BLOCK_TARGET", block_rows * n), \
                mock.patch.object(mc, "_CHUNK_TARGET", chunk_rows * n):
            got = mc.simulate(config)
        assert got == simulate_oracle(config, block_target=block_rows * n)

    @pytest.mark.parametrize("edge", ["chunk", "block"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("semantics", ["weak", "strict"])
    def test_matches_oracle_at_default_edges(self, edge, offset, semantics):
        n = 50
        rows = mc._CHUNK_TARGET // n if edge == "chunk" else mc._BLOCK_TARGET // n
        config = mc.SimConfig(model=ObservationModel.triangular(n), replications=rows + offset,
                              seed=2024, record_semantics=semantics)
        assert mc.simulate(config) == simulate_oracle(config)

    def test_one_cpu_gives_the_same_result(self, monkeypatch):
        config = mc.SimConfig(model=ObservationModel.rectangular(30, 7),
                              replications=400_003, seed=8)
        model = ObservationModel.trend_shifted(4000)
        pooled = mc.simulate(config), mc.scaling_check(model, replications=30_000, seed=4)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0})
        assert (mc.simulate(config), mc.scaling_check(model, replications=30_000, seed=4)) == pooled
        monkeypatch.delattr(mc.os, "sched_getaffinity")  # as on systems without it
        assert mc.simulate(config) == pooled[0]

    def test_peak_memory_is_bounded_by_chunks(self):
        # The whole-block scan peaked at about 170 MB here: a 4M-float block
        # and its full-size temporaries.
        config = mc.SimConfig(model=ObservationModel.triangular(50), replications=500_000)
        tracemalloc.start()
        try:
            mc.simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


_POL8 = ThresholdPolicy((2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, math.inf))


class TestPinnedResults:
    # Exact SimResult fields of one short seeded run per model kind, recorded
    # before the samplers moved onto ObservationModel; simulate output is
    # promised byte-identical across refactors of the sampling path.
    @pytest.mark.parametrize("model,policy,want", [
        (ObservationModel.triangular(12), "optimal",
         (0.8400533155614796, 0.1769410196601133, 0.26088526046873267,
          0.006691262202449373, 0.004508841450504978)),
        (ObservationModel.rectangular(9, 5), "optimal",
         (0.9270243252249251, 0.6674441852715761, 0.4651782739086971,
          0.004747900697682516, 0.00540122946458518)),
        (ObservationModel.bernoulli_pyramid(10, 0.2), "optimal",
         (0.4041986004665112, 0.0, 0.8373875374875042,
          0.008958084701651776, 0.002930558927576008)),
        (ObservationModel.iid_uniform01(8), "optimal",
         (0.627790736421193, 0.0, 0.617919026991003,
          0.008824051673258282, 0.005536588658750959)),
        (ObservationModel.trend_shifted(8), _POL8,
         (0.6767744085304899, 0.18427190936354548, 0.5098717094301899,
          0.008537718583830983, 0.00662086446768)),
        (ObservationModel.trend_scaled(8, 1.5), _POL8,
         (0.30956347884038654, 0.0, 0.7987337554148617,
          0.008439247804260015, 0.005907922948095108)),
        (ObservationModel.trend_power(8, 0.7), _POL8,
         (0.5531489503498833, 0.0, 0.5823475508163946,
          0.009075476567868153, 0.007086923320745136)),
    ], ids=["triangular", "rectangular", "pyramid", "uniform01", "shifted", "scaled", "power"])
    def test_seeded_run(self, model, policy, want):
        r = run(model, reps=3001, seed=42, policy=policy)
        assert r == mc.SimResult(*want, replications=3001)

    # Strict records, one multi-block weak run (80,000-row blocks at n = 50,
    # the last one partial) and scaling_check on the trend kinds, in several
    # blocks and in one short block: the same promise of identical output
    # covers the record scan and the block partition.
    @pytest.mark.parametrize("model,policy,want", [
        (ObservationModel.triangular(12), "optimal",
         (0.7874041986004665, 0.1769410196601133, 0.29973342219260246,
          0.00746866890442154, 0.005518474375803276)),
        (ObservationModel.rectangular(9, 5), "optimal",
         (0.878373875374875, 0.6674441852715761, 0.4773964234144174,
          0.005966506829238674, 0.0057174156036590195)),
        (ObservationModel.trend_shifted(8), _POL8,
         (0.5774741752749084, 0.18427190936354548, 0.5618543818727091,
          0.009016955263710049, 0.0070753562243262205)),
    ], ids=["triangular", "rectangular", "shifted"])
    def test_seeded_strict_run(self, model, policy, want):
        r = run(model, reps=3001, seed=42, policy=policy, record_semantics="strict")
        assert r == mc.SimResult(*want, replications=3001)

    def test_seeded_multi_block_run(self):
        r = run(ObservationModel.triangular(50), reps=200_001, seed=42)
        assert r == mc.SimResult(0.7665361673191634, 0.08757456212718936,
                                 0.1855884720576397, 0.0009459322827848919,
                                 0.0006416465826339813, replications=200_001)

    @pytest.mark.parametrize("model,reps,want", [
        (ObservationModel.trend_shifted(4000), 30_000,
         (0.009399318911632593, 0.0026655367928599683)),
        (ObservationModel.trend_shifted(4000), 777,
         (0.03694120354497443, 0.03653954029542206)),
        (ObservationModel.trend_scaled(4000, 2.0), 30_000,
         (0.004782938247035129, 0.004303965140353083)),
        (ObservationModel.trend_scaled(4000, 2.0), 777,
         (0.027733044585671274, 0.02519705840116432)),
        (ObservationModel.trend_power(4000, 1.0), 30_000,
         (0.005020544768532337, 0.003231857313283959)),
        (ObservationModel.trend_power(4000, 1.0), 777,
         (0.039146665969207795, 0.038743145425294445)),
    ], ids=["shifted-30000", "shifted-777", "scaled-30000", "scaled-777",
            "power-30000", "power-777"])
    def test_seeded_scaling_check(self, model, reps, want):
        rep = mc.scaling_check(model, replications=reps, seed=4)
        assert (rep.sup_limit, rep.sup_exact, rep.note) == (*want, "")


class TestAgreementWithExactSolvers:
    def test_triangular(self):
        m = ObservationModel.triangular(50)
        exact = dp.solve(m).decomposition.total
        r = run(m, seed=101)
        assert abs(r.success_rate - exact) < 4 * r.std_error

    def test_rectangular(self):
        m = ObservationModel.rectangular(50, 50)
        exact = dp.solve(m).decomposition.total
        r = run(m, seed=55)
        assert abs(r.success_rate - exact) < 4 * r.std_error

    def test_uniform01_success_and_mean_stop(self):
        m = ObservationModel.iid_uniform01(20)
        want = fullinfo.sakaguchi_value(20)
        r = run(m, seed=7)
        assert abs(r.success_rate - want) < 4 * r.std_error
        # the optimal rule's mean stop fraction coincides with its value
        assert abs(r.mean_stop_fraction - want) < 4 * r.mean_stop_std_error

    def test_pyramid(self):
        m = ObservationModel.bernoulli_pyramid(10, 0.1)
        r = run(m, seed=3)
        want = 0.9 ** 9
        assert abs(r.success_rate - want) < 4 * r.std_error

    def test_tie_rate_matches_formula(self):
        m = ObservationModel.rectangular(30, 30)
        delta = fullinfo.tie_probability(m)
        r = run(m, seed=17)
        se = math.sqrt(delta * (1 - delta) / r.replications)
        assert abs(r.tie_rate - delta) < 4 * se

    def test_triangular_tie_rate_matches_oracle(self):
        m = ObservationModel.triangular(50)
        delta = tie_probability(m)
        assert delta == pytest.approx(0.0882401744, abs=1e-10)
        r = run(m)
        se = math.sqrt(delta * (1 - delta) / r.replications)
        assert abs(r.tie_rate - delta) < 4 * se

    def test_explicit_policy(self):
        m = ObservationModel.rectangular(25, 25)
        pol = ThresholdPolicy(tuple([2.0] * 25))
        exact = dp.policy_value(m, pol).total
        r = run(m, seed=29, policy=pol)
        assert abs(r.success_rate - exact) < 4 * r.std_error

    def test_seed_battery(self):
        # at least 99% of seeds land within 4 standard errors
        m = ObservationModel.triangular(12)
        exact = dp.solve(m).decomposition.total
        hits = 0
        for seed in range(100):
            r = run(m, reps=20_000, seed=seed)
            if abs(r.success_rate - exact) < 4 * r.std_error:
                hits += 1
        assert hits >= 99


class TestRecordSemantics:
    def test_strict_never_beats_weak_in_aggregate(self):
        # the optimal weak rule is globally optimal, so restricting stops to
        # strict records cannot help on average (pathwise it sometimes does)
        for m in (
            ObservationModel.rectangular(12, 6),
            ObservationModel.rectangular(30, 30),
        ):
            weak = run(m, reps=200_000, seed=77, record_semantics="weak")
            strict = run(m, reps=200_000, seed=77, record_semantics="strict")
            assert strict.success_rate <= weak.success_rate + 4 * weak.std_error

    def test_strict_dominated_exactly_on_small_model(self):
        m = ObservationModel.rectangular(4, 3)
        pol = dp.solve(m).policy
        weak = policy_oracle(m, pol)
        strict = policy_oracle(m, pol, strict=True)
        assert strict <= weak + 1e-15

    def test_continuous_model_unaffected(self):
        m = ObservationModel.iid_uniform01(10)
        weak = run(m, reps=50_000, seed=5, record_semantics="weak")
        strict = run(m, reps=50_000, seed=5, record_semantics="strict")
        assert weak.success_rate == strict.success_rate


class TestTransformUniformity:
    def test_kolmogorov_smirnov(self):
        from scipy import stats

        m = ObservationModel.rectangular(8, 8)
        rng = np.random.Generator(np.random.Philox(key=99))
        x = np.floor(rng.random(100_000) * 8) + 1
        u = rng.random(100_000)
        y = fullinfo.tie_break_transform(x, u, m)
        assert stats.kstest(y, "uniform").pvalue > 1e-3

    def test_argmin_preserved_per_replication(self):
        m = ObservationModel.rectangular(15, 5)
        rng = np.random.Generator(np.random.Philox(key=100))
        x = np.floor(rng.random((4_000, 15)) * 5) + 1
        u = rng.random((4_000, 15))
        y = fullinfo.tie_break_transform(x, u, m)
        rows = np.arange(len(x))
        assert np.all(x[rows, np.argmin(y, axis=1)] == x.min(axis=1))


class TestScalingCheck:
    def test_triangular_rayleigh(self):
        rep = mc.scaling_check(ObservationModel.triangular(4000),
                               replications=40_000, seed=21)
        assert rep.sup_limit < 0.03
        assert rep.sup_exact < 0.02
        assert not rep.skipped

    def test_trend_kinds_supported(self):
        for m in (
            ObservationModel.trend_shifted(4000),
            ObservationModel.trend_scaled(4000, 2.0),
            ObservationModel.trend_power(4000, 1.0),
        ):
            rep = mc.scaling_check(m, replications=30_000, seed=4)
            assert rep.sup_limit < 0.05

    def test_power_one_matches_rayleigh_with_sqrt2_scale(self):
        # shape 2 / scale sqrt(2) Weibull written as the Rayleigh form
        m = ObservationModel.trend_power(4000, 1.0)
        _, cdf = mc._scaling_spec(m)
        xs = np.linspace(0.0, 5.0, 50)
        assert np.allclose(cdf(xs), -np.expm1(-xs * xs / 2.0), atol=1e-14)

    def test_small_n_skipped(self):
        rep = mc.scaling_check(ObservationModel.triangular(1), replications=10, seed=0)
        assert rep.skipped
        assert "small" in rep.note

    def test_unsupported_kind(self):
        with pytest.raises(UnsupportedModelError):
            mc.scaling_check(ObservationModel.rectangular(100, 100))

    @pytest.mark.parametrize("rho", [math.inf, 1e308], ids=["inf", "rho-n-overflows"])
    def test_overflowing_scale_is_a_domain_error(self, rho):
        # an infinite rho * n would give scale inf and no comparison range
        with pytest.raises(DomainError):
            mc.scaling_check(ObservationModel.trend_scaled(100, rho))

    def test_weibull_limit_where_the_power_overflows(self):
        # At theta = 1e308, x^(theta + 1) overflows at every x > 1, where the
        # Weibull cdf is exactly 1.0; the check runs with warnings as errors.
        model = ObservationModel.trend_power(100, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = mc._scaling_spec(model)[1](np.array([0.0, 0.5, 1.0 + 2**-52, 2.0, 1e300]))
            rep = mc.scaling_check(model, replications=2_000, seed=0)
        assert cdf.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert (rep.sup_limit, rep.sup_exact, rep.note) == (1.0, 1.0, "")

    def test_seeded_scaling_check_with_clipped_minima(self):
        # With rho n = 1000 the comparison range ends at 8 sqrt(rho n) = 253,
        # inside the draws' range, so 1123 minima read cap: one run of ties.
        rep = mc.scaling_check(ObservationModel.trend_scaled(10, 100.0), replications=20_000,
                               seed=4)
        assert (rep.sup_limit, rep.sup_exact, rep.note) == (
            0.4287418744856479, 0.05822856155879508, "1123 samples above the comparison range")

    def test_no_replications(self):
        with pytest.raises(DomainError, match="replications must be >= 1"):
            mc.scaling_check(ObservationModel.trend_shifted(100), replications=0)

    @staticmethod
    def sorted_sample_sups(model, reps, seed):
        """sup_limit and sup_exact from the whole clipped and sorted sample of
        minima, the same draws scaling_check makes."""
        scale, limit_cdf = mc._scaling_spec(model)
        cap = mc._X_HI * scale
        j_cut = min(model.n, math.ceil(cap) + 1)
        samples = np.sort(np.minimum(np.concatenate(mc._map_blocks(
            lambda chunks: np.concatenate([x.min(axis=1) for x in chunks]),
            model, seed, reps, j_cut)), cap))
        ranks = np.arange(1, reps + 1) / reps
        cdf = limit_cdf(samples / scale)
        sup_limit = float(np.max(np.maximum(ranks - cdf, cdf - (ranks - 1.0 / reps))))
        grid = np.arange(1.0, math.floor(cap) + 1.0)
        ecdf = np.searchsorted(samples, grid, side="right") / reps
        exact = 1.0 - mc._min_survival(model, grid, j_cut)
        return sup_limit, float(np.max(np.abs(ecdf - exact)))

    @pytest.mark.parametrize("x_hi", [8.0, 1.5, 1.0])
    @pytest.mark.parametrize("model", [ObservationModel.triangular(100),
                                       ObservationModel.triangular(50),
                                       ObservationModel.trend_shifted(300)], ids=str)
    def test_grid_counts_give_the_sorted_sample_bits(self, monkeypatch, model, x_hi):
        # The integer kinds count their minima on the grid.  Where x_hi
        # clips many minima, cap = x_hi sqrt(n) is on the grid at n = 100
        # (the clipped minima join the run at cap) and off it at n = 50.
        monkeypatch.setattr(mc, "_X_HI", x_hi)
        rep = mc.scaling_check(model, replications=20_000, seed=3)
        assert (rep.sup_limit, rep.sup_exact) == self.sorted_sample_sups(model, 20_000, 3)
        assert ("samples above" in rep.note) == (x_hi < 8.0)

    def test_integer_kinds_hold_no_sample(self):
        # holding and sorting 10^6 minima peaks near 64 MB; the counts on a
        # grid of 80 values take under 1 kB
        tracemalloc.start()
        try:
            mc.scaling_check(ObservationModel.triangular(100), replications=10**6, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("model, reps", [
        (ObservationModel.triangular(100), mc.MAX_SCALING_REPLICATIONS + 1),
        # j_cut = 8001: 1.6e10 draws
        (ObservationModel.trend_scaled(10**6, 1.0), 2_000_000),
        # grid and j_cut near 8 sqrt(n): 6.4e10 survival factors
        (ObservationModel.triangular(10**9), 10),
    ], ids=["replications", "draws", "grid"])
    def test_refused_before_any_draw(self, monkeypatch, model, reps):
        def unreachable(*args):
            raise AssertionError("a refused check must not draw")

        monkeypatch.setattr(mc, "_map_blocks", unreachable)
        monkeypatch.setattr(mc, "_min_survival", unreachable)
        with pytest.raises(ResourceLimitError, match="above cap"):
            mc.scaling_check(model, replications=reps)


class TestBoundsCheck:
    def test_exact_and_simulated_bounds(self):
        rep = mc.bounds_check(10, 10, reps=100_000, seed=6)
        assert rep.exact_in_bounds
        assert rep.simulated_in_bounds
        assert rep.v_lower <= rep.exact_value <= rep.v_lower + rep.tie_prob + 1e-12

    def test_wide_support_approaches_continuous_value(self):
        rep = mc.bounds_check(10, 10**6, reps=1_000, seed=6)
        assert rep.tie_prob < 1e-4
        assert abs(rep.exact_value - rep.v_lower) < 1e-3

    def test_universal_lower_bound(self):
        rep = mc.bounds_check(60, 60, reps=1_000, seed=1)
        assert rep.exact_value > 0.580164


class TestConfigValidation:
    def test_bad_config(self):
        m = ObservationModel.triangular(5)
        with pytest.raises(DomainError):
            mc.SimConfig(model=m, replications=0)
        with pytest.raises(DomainError):
            mc.SimConfig(model=m, record_semantics="both")
        with pytest.raises(DomainError):
            mc.SimConfig(model=m, policy="greedy")

    def test_draw_cap(self):
        m = ObservationModel.triangular(50)
        mc.SimConfig(model=m, replications=mc.MAX_DRAWS // 50)
        with pytest.raises(ResourceLimitError, match="above cap"):
            mc.SimConfig(model=m, replications=mc.MAX_DRAWS // 50 + 1)

    def test_policy_length_mismatch(self):
        m = ObservationModel.triangular(5)
        with pytest.raises(InvalidPolicyError):
            mc.simulate(mc.SimConfig(model=m, policy=ThresholdPolicy((1.0,)), replications=10))

    def test_no_optimal_policy_for_trend_models(self):
        with pytest.raises(UnsupportedModelError):
            mc.simulate(mc.SimConfig(model=ObservationModel.trend_shifted(5), replications=10))
