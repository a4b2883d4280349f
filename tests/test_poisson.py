import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special

from oracles import jump_series_double, ladder_residual
from stoprule import poisson
from stoprule.models import (
    DomainError,
    InvalidPolicyError,
    PrecisionError,
    ResourceLimitError,
)

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def drift_success_tri_first_form(z: float) -> float:
    """Independent single-integral route to poisson.drift_success(0.5, z),
    integrating the jump function along the sliding record location."""
    if z == 0.0:
        return 0.0
    w = math.sqrt(2.0 * z)

    def integrand(s):
        rest = (math.sqrt(z) - s / math.sqrt(2.0)) ** 2
        return math.exp(-w * s + 0.5 * s * s) * (w - s) * poisson.jump_success(0.5, rest)

    val, _ = integrate.quad(integrand, 0.0, w, **_QUAD_OPTS)
    return val


def jump_series_simplified(z: np.ndarray, k_max: int) -> float:
    """Telescoped jump series valid at lam = 1 with unclamped ladder roots:
    e^{-1}(z_1 - z_2) + sum_{k>=2} e^{-k} (z_k - z_{k+1} + (z_{k+1}^{k+1}-1)/(k+1))."""
    pieces = [math.exp(-1.0) * (z[1] - z[2])]
    for k in range(2, k_max + 1):
        zk1 = z[k + 1]
        corr = (math.exp((k + 1) * math.log(zk1)) - 1.0) / (k + 1)
        pieces.append(math.exp(-float(k)) * (z[k] - zk1 + corr))
    return math.fsum(pieces)


def brentq_ladder(k_max: int) -> np.ndarray:
    """Level roots solved one level at a time by brentq on the O(k) residual,
    bracketed by the root of the level below; [0] is NaN and [1] inf."""
    roots = [math.nan, math.inf]
    for k in range(2, k_max + 1):
        hi = roots[k - 1] if k > 2 else 2.0
        roots.append(optimize.brentq(
            lambda z: ladder_residual(k, z),
            1.0 + 1e-13, hi,
            xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200,
        ))
    return np.asarray(roots)


def mpmath_level_series(lam: float, k_max: int):
    """Jump and drift series of the integer-level limit at 30 digits, sharing
    no arithmetic with poisson: each root by Newton on the direct level sum
    from its double value, each jump inner sum term by term."""
    guess = poisson.rect_roots(k_max + 1, lam).roots
    with mpmath.workdps(30):
        lam_mp = mpmath.mpf(lam)
        cap = mpmath.exp(lam_mp)
        z = [None, cap]
        for k in range(2, k_max + 2):
            x = mpmath.mpf(float(guess[k]))
            for _ in range(50):
                power, value, slope = x, mpmath.mpf(-1), mpmath.mpf(0)
                for j in range(2, k + 1):
                    slope += power
                    power *= x
                    value += (power - 1) / j
                step = value / slope
                x -= step
                if abs(step) < mpmath.mpf(10) ** -28:
                    break
            z.append(min(x, cap))
        jump = drift = mpmath.mpf(0)
        for k in range(1, k_max + 1):
            pa = pb = mpmath.mpf(1)
            inner = mpmath.mpf(0)
            for j in range(1, k + 1):
                pa *= z[k]
                pb *= z[k + 1]
                inner += (pa - pb) / j
            jump += mpmath.exp(-lam_mp * k) * inner
            if k >= 2:
                drift += mpmath.exp(-lam_mp * k) * (cap - z[k])
        return float(jump), float(drift), float(jump + drift)


def mpmath_theta_limit(theta: float) -> float:
    """theta_limit at 30 digits, sharing no arithmetic with poisson: the
    balance int_0^z 1F1(1; theta+1; u) du = 1 by quadrature and findroot from
    the double root, the value in the paper's incomplete-gamma form."""
    with mpmath.workdps(30):
        t = mpmath.mpf(theta)
        b = mpmath.findroot(
            lambda z: mpmath.quad(lambda u: mpmath.hyp1f1(1, t + 1, u), [0, z]) - 1,
            mpmath.mpf(poisson.beta_star(theta).root),
        )
        upper = mpmath.gammainc(1 - t, b, mpmath.inf)
        lower = mpmath.gammainc(t, 0, b)
        return float(upper * (-b ** t + mpmath.exp(b) * t * lower) + mpmath.exp(-b))


def mpmath_boundary_value(theta: float, beta: float) -> float:
    """D + (J - D) P of the beta(theta, 1) chain at 40 digits, sharing no
    arithmetic with poisson: J = 1F1(theta; theta+1; -beta), D = e^{-beta}
    int_0^beta 1F1(1; theta+1; u) du by quadrature and P = beta^theta e^beta
    Gamma(1-theta, beta) by gammainc."""
    with mpmath.workdps(40):
        t, b = mpmath.mpf(theta), mpmath.mpf(beta)
        jump = mpmath.hyp1f1(t, t + 1, -b)
        # e^{-b} 1F1(1; theta+1; u) grows like e^{u-b}, on the unit scale below u = b
        cuts = [0] + [b - d for d in (64, 16, 4, 1) if d < b] + [b]
        drift = mpmath.quad(lambda u: mpmath.exp(-b) * mpmath.hyp1f1(1, t + 1, u), cuts)
        passage = b ** t * mpmath.exp(b) * mpmath.gammainc(1 - t, b)
        return float(drift + (jump - drift) * passage)


@pytest.fixture(scope="module")
def reference_ladder():
    return brentq_ladder(3001)


class TestSpecialFunctions:
    def test_erf_complement_identity(self):
        for x in np.linspace(-6, 6, 61):
            assert special.erf(x) + special.erfc(x) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.3, 0.9999, 1.0, 1.5, 4.0, 12.0, 30.0])
    def test_e1_against_quadrature(self, x):
        want, _ = integrate.quad(lambda s: math.exp(-s) / s, x, np.inf,
                                 epsabs=1e-14, epsrel=1e-13, limit=300)
        assert float(special.exp1(x)) == pytest.approx(want, abs=1e-12)

    def test_e1_against_mpmath(self):
        for x in np.geomspace(1e-6, 700.0, 120):
            want = float(mpmath.e1(float(x)))
            assert float(special.exp1(float(x))) == pytest.approx(want, rel=5e-15, abs=0.0)


class TestBoxFunctions:
    def test_zero_area_limits(self):
        assert poisson.jump_success(1.0, 0.0) == 1.0
        assert poisson.drift_success(1.0, 0.0) == 0.0
        assert poisson.jump_success(0.5, 0.0) == 1.0
        assert poisson.drift_success(0.5, 0.0) == 0.0

    def test_negative_area_rejected(self):
        for f in (poisson.jump_success, poisson.drift_success):
            for theta in (1.0, 0.5):
                for z in (-0.1, math.nan):
                    with pytest.raises(DomainError):
                        f(theta, z)

    @pytest.mark.parametrize("z", [0.05, 0.3, 0.8, 1.7, 3.0])
    def test_rect_against_quadrature(self, z):
        j_ref, _ = integrate.quad(lambda u: math.exp(-z * u), 0.0, 1.0, epsabs=1e-14)
        assert poisson.jump_success(1.0, z) == pytest.approx(j_ref, abs=1e-13)
        d_ref, _ = integrate.quad(
            lambda s: math.exp(-s) * poisson.jump_success(1.0, z - s), 0.0, z, epsabs=1e-13
        )
        assert poisson.drift_success(1.0, z) == pytest.approx(d_ref, abs=1e-11)

    @pytest.mark.parametrize("z", [0.05, 0.3, 0.8, 1.7, 3.0])
    def test_tri_jump_against_quadrature(self, z):
        j_ref, _ = integrate.quad(lambda u: math.exp(-z * u * u), 0.0, 1.0, epsabs=1e-14)
        assert poisson.jump_success(0.5, z) == pytest.approx(j_ref, abs=1e-13)

    @pytest.mark.parametrize("z", [0.1, 0.4, 0.76, 1.3, 2.5])
    def test_tri_drift_three_routes(self, z):
        one_d = poisson.drift_success(0.5, z)
        # independent single-integral route along the sliding record location
        first_form = drift_success_tri_first_form(z)
        assert one_d == pytest.approx(first_form, abs=1e-10)
        # raw 2-D quadrature of the defining double integral
        raw, _ = integrate.dblquad(
            lambda v, u: math.exp(0.5 * (u * u - v * v)),
            0.0, math.sqrt(2.0 * z), 0.0, lambda u: u,
            epsabs=1e-12,
        )
        assert one_d == pytest.approx(math.exp(-z) * raw, abs=1e-10)

    @pytest.mark.parametrize("z", [300.0, 500.0, 1000.0])
    def test_large_area_against_mpmath(self, z):
        with mpmath.workdps(40):
            zm, rz = mpmath.mpf(z), mpmath.sqrt(z)
            drift_rect = mpmath.exp(-zm) * (mpmath.ei(zm) - mpmath.euler - mpmath.log(zm))
            # int_0^sqrt(z) e^{t^2} erf(t) dt = z/sqrt(pi) 2F2(1, 1; 3/2, 2; z)
            drift_tri = mpmath.exp(-zm) * zm * mpmath.hyp2f2(1, 1, 1.5, 2, zm)
            jump_rect = -mpmath.expm1(-zm) / zm
            jump_tri = mpmath.sqrt(mpmath.pi) * mpmath.erf(rz) / (2 * rz)
            pass_rect = zm * mpmath.exp(zm) * mpmath.e1(zm)
            pass_tri = mpmath.sqrt(mpmath.pi * zm) * mpmath.exp(zm) * mpmath.erfc(rz)
            want = {
                1.0: (drift_rect, drift_rect + (jump_rect - drift_rect) * pass_rect),
                0.5: (drift_tri, drift_tri + (jump_tri - drift_tri) * pass_tri),
            }
        for theta in (1.0, 0.5):
            d, v = (float(x) for x in want[theta])
            assert poisson.drift_success(theta, z) == pytest.approx(d, rel=1e-14, abs=0)
            assert poisson.success_prob_boundary(theta, z) == pytest.approx(v, rel=1e-13, abs=0)

    def test_ordering_drift_below_jump_near_optimum(self):
        # drift < jump holds on the region containing the optimal area
        # (crossings sit near z = 1.50 rect / z = 1.90 tri, beyond which
        # waiting for the next arrival beats a uniformly placed record)
        for z in np.linspace(0.01, 1.4, 30):
            j, d = poisson.jump_success(1.0, z), poisson.drift_success(1.0, z)
            assert 0.0 < d < j < 1.0
            j, d = poisson.jump_success(0.5, z), poisson.drift_success(0.5, z)
            assert 0.0 < d < j < 1.0
        assert poisson.drift_success(1.0, 5.0) > poisson.jump_success(1.0, 5.0)
        assert poisson.drift_success(0.5, 5.0) > poisson.jump_success(0.5, 5.0)


class TestBetaStar:
    def test_rect_value(self):
        rep = poisson.beta_star(1.0)
        assert rep.root == pytest.approx(0.804352, abs=1e-5)
        assert abs(rep.residual) <= 1e-12
        assert rep.bracket[0] <= rep.root <= rep.bracket[1]
        assert rep.iterations > 0

    def test_tri_value(self):
        rep = poisson.beta_star(0.5)
        assert rep.root == pytest.approx(0.760660, abs=1e-5)
        assert abs(rep.residual) <= 1e-12

    def test_balance_equation(self):
        for theta in (1.0, 0.5):
            b = poisson.beta_star(theta).root
            assert poisson.drift_success(theta, b) == pytest.approx(math.exp(-b), abs=1e-12)

    def test_local_maximum(self):
        for theta in (1.0, 0.5):
            b = poisson.beta_star(theta).root
            peak = poisson.success_prob_boundary(theta, b)
            assert poisson.success_prob_boundary(theta, b - 1e-4) <= peak
            assert poisson.success_prob_boundary(theta, b + 1e-4) <= peak

    def test_maximum_over_log_grid(self):
        for theta in (1.0, 0.5):
            b = poisson.beta_star(theta).root
            peak = poisson.success_prob_boundary(theta, b)
            for beta in np.geomspace(0.01, 10.0, 120):
                assert poisson.success_prob_boundary(theta, float(beta)) <= peak + 1e-12

    def test_rect_path_bits(self):
        # the balance series at theta = 1 repeats the float operations of the
        # rectangular series it replaced, so these bits must not move
        assert poisson.beta_star(1.0).root == 0.8043522628456377
        assert poisson.samuels_value() == 0.5801642239208553
        assert poisson.drift_success(1.0, 0.8) == 0.4463294392423774

    def test_tri_against_40_digit_root(self):
        # root of int_0^z 1F1(1; 3/2; u) du = 1 by mpmath at 40 digits
        assert poisson.beta_star(0.5).root == pytest.approx(0.76066049640683363763, abs=2e-16)


class TestBrentq:
    # scipy at the stopping rule poisson.brentq fixes, with beta_star's xtol
    OPTS = dict(xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200)

    def test_beta_star_bit_identical_to_scipy_brentq(self):
        for theta in np.geomspace(1e-6, 1e5, 50):
            theta = float(theta)

            def f(z):
                return poisson._balance(theta, z) - 1.0
            root, res = optimize.brentq(f, 1e-9, 3.0, full_output=True, **self.OPTS)
            want = (root, f(root), (1e-9, 3.0), res.iterations)
            rep = poisson.beta_star(theta)
            assert (rep.root, rep.residual, rep.bracket, rep.iterations) == want, theta
            assert rep.root.hex() == root.hex(), theta

    def test_endpoint_root(self):
        # a zero at either end is returned at once, as by scipy, whose
        # iteration count is not set on that path
        for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):
            assert poisson.brentq(lambda x: x, lo, hi, 1e-15) == (0.0, 0)
            assert optimize.brentq(lambda x: x, lo, hi, **self.OPTS) == 0.0

    @pytest.mark.parametrize("f", [
        lambda x: 1e-200 * (x - 0.3) ** 3,
        lambda x: 1e-170 * (math.exp(x) - math.exp(0.3)),
    ])
    def test_underflowing_interpolation_bisects_as_scipy(self, f):
        # the interpolation denominator underflows to 0: scipy's C code then
        # gets an infinite or NaN step and bisects, and so must the port
        root, res = optimize.brentq(f, 0.0, 1.0, full_output=True, **self.OPTS)
        assert poisson.brentq(f, 0.0, 1.0, 1e-15) == (root, res.iterations)

    @pytest.mark.parametrize("f, lo, hi, maxiter", [
        (lambda x: x * x + 1.0, -1.0, 1.0, 200),  # no sign change
        (lambda x: math.nan if 0.2 < x < 0.9 else x - 0.25, 0.0, 1.0, 200),  # NaN inside
        (lambda x: math.nan, 0.0, 1.0, 200),  # NaN at the ends
        (lambda x: x - 0.3, 0.0, 1.0, 1),  # out of iterations
    ], ids=["same-sign", "nan-inside", "nan-ends", "maxiter"])
    def test_failures_raise_precision_error(self, monkeypatch, f, lo, hi, maxiter):
        monkeypatch.setattr(poisson, "_BRENT_MAXITER", maxiter)
        with pytest.raises(PrecisionError):
            poisson.brentq(f, lo, hi, 1e-15)


def mpmath_passage(theta: float, beta: float) -> float:
    """beta^theta e^beta Gamma(1-theta, beta) at 40 digits, by gammainc."""
    with mpmath.workdps(40):
        t, b = mpmath.mpf(theta), mpmath.mpf(beta)
        return float(b ** t * mpmath.exp(b) * mpmath.gammainc(1 - t, b))


class TestPassage:
    """The closed forms of the two named geometries: beta e^beta E1(beta) at
    theta = 1 and sqrt(pi beta) erfcx(sqrt(beta)) at theta = 1/2."""

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_closed_forms_against_mpmath(self, theta):
        for beta in np.geomspace(1e-8, 316.0, 200):
            beta = float(beta)
            assert poisson._passage(theta, beta) == pytest.approx(
                mpmath_passage(theta, beta), rel=2e-15, abs=0), beta

    @pytest.mark.parametrize("beta", [699.0, 700.0, 709.9, 710.0])
    def test_rect_around_the_overflow_cut(self, beta):
        # e^beta overflows past 709.78, so the quadrature takes over there
        got = poisson._passage(1.0, beta)
        assert math.isfinite(got)
        assert got == pytest.approx(mpmath_passage(1.0, beta), rel=1e-14, abs=0)

    def test_subnormal_area(self):
        beta = 5e-324
        # beta E1(beta) = 3.68e-321 is itself subnormal: within one step of it
        rect = poisson._passage(1.0, beta)
        assert rect > 0.0
        assert rect == pytest.approx(mpmath_passage(1.0, beta), rel=0, abs=5e-324)
        # sqrt(pi) sqrt(beta) keeps the digits that sqrt(pi beta) loses
        assert poisson._passage(0.5, beta) == pytest.approx(
            mpmath_passage(0.5, beta), rel=2e-15, abs=0)


class TestBoundaryValues:
    def test_samuels_value(self):
        assert poisson.samuels_value() == pytest.approx(0.580164, abs=1e-6)

    def test_rect_boundary_at_optimum_is_samuels(self):
        b = poisson.beta_star(1.0).root
        assert poisson.success_prob_boundary(1.0, b) == pytest.approx(
            poisson.samuels_value(), abs=1e-12
        )

    def test_tri_boundary_at_optimum(self):
        b = poisson.beta_star(0.5).root
        assert poisson.success_prob_boundary(0.5, b) == pytest.approx(0.703128, abs=1e-5)

    def test_small_beta_vanishes(self):
        assert poisson.success_prob_boundary(1.0, 1e-6) < 1e-4
        for beta in (0.0, math.nan):
            with pytest.raises(DomainError):
                poisson.success_prob_boundary(1.0, beta)

    @pytest.mark.parametrize("beta", [1e-300, 1e-100, 1e-12, 1e-8, 1e-3, 0.5, 2.0,
                                      40.0, 49.9, 60.0, 300.0])
    def test_against_mpmath(self, beta):
        # both sides of _LARGE_AREA, and areas small enough that the passage
        # term carries the value
        for theta in (1.0, 0.5):
            assert poisson.success_prob_boundary(theta, beta) == pytest.approx(
                mpmath_boundary_value(theta, beta), rel=1e-13, abs=0)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_infinite_beta_rejected(self, theta):
        # an infinite area would make the passage term inf * 0 = NaN
        with pytest.raises(DomainError):
            poisson.success_prob_boundary(theta, math.inf)

    def test_finite_horizon_variant(self):
        b = poisson.beta_star(1.0).root
        assert poisson.gm_limit_finite_T(b) == pytest.approx(math.exp(-b), abs=1e-14)
        assert poisson.gm_limit_finite_T(50.0) == pytest.approx(
            poisson.samuels_value(), abs=1e-9
        )
        assert poisson.gm_limit_finite_T(math.inf) == pytest.approx(
            poisson.samuels_value(), abs=1e-15
        )
        for T in (0.5, math.nan):
            with pytest.raises(DomainError):
                poisson.gm_limit_finite_T(T)

    def test_finite_horizon_monotone(self):
        values = [poisson.gm_limit_finite_T(t) for t in (0.81, 1.0, 2.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestThetaFamily:
    def test_anchor_theta_one(self):
        rep = poisson.beta_star(1.0)
        b_rect = poisson.beta_star(poisson.GEOMETRIES["rect"]).root
        assert rep.root == pytest.approx(b_rect, abs=1e-9)
        assert poisson.theta_limit(1.0) == pytest.approx(poisson.samuels_value(), abs=1e-6)

    def test_anchor_theta_half(self):
        rep = poisson.beta_star(0.5)
        b_tri = poisson.beta_star(poisson.GEOMETRIES["tri"]).root
        assert rep.root == pytest.approx(b_tri, abs=1e-9)
        value = poisson.theta_limit(0.5)
        # erf/erfc closed form of the triangular optimum
        closed = math.exp(-b_tri) + (
            math.exp(b_tri) * math.sqrt(math.pi) / (2.0 * math.sqrt(b_tri))
            * math.erf(math.sqrt(b_tri)) - 1.0
        ) * math.sqrt(math.pi * b_tri) * math.erfc(math.sqrt(b_tri))
        assert value == pytest.approx(closed, abs=1e-10)
        assert value == pytest.approx(
            poisson.success_prob_boundary(0.5, b_tri), abs=1e-8
        )
        # the gamma-function route evaluated directly at theta = 1/2
        direct = (
            float(mpmath.gammainc(0.5, b_tri, mpmath.inf))
            * (-math.sqrt(b_tri) + 0.5 * math.exp(b_tri) * float(mpmath.gammainc(0.5, 0, b_tri)))
            + math.exp(-b_tri)
        )
        assert value == pytest.approx(direct, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson.theta_limit(0.0)
        for theta in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                poisson.beta_star(theta)
            with pytest.raises(DomainError):
                poisson.success_prob_boundary(theta, 0.8)

    @pytest.mark.parametrize("theta", [1e-6, 0.01, 0.5, 1.0, 2.0, 3.0, 50.0, 100.0, 1000.0])
    def test_limit_against_mpmath(self, theta):
        assert poisson.theta_limit(theta) == pytest.approx(mpmath_theta_limit(theta), abs=1e-12)

    def test_limit_at_the_ends(self):
        # theta -> 0: b -> ln 2 and the value -> 1; theta -> inf: b -> 1 and
        # the value -> e^{-1}
        assert poisson.beta_star(5e-324).root == pytest.approx(math.log(2.0), abs=1e-15)
        assert poisson.theta_limit(5e-324) == pytest.approx(1.0, abs=1e-15)
        assert poisson.theta_limit(1e6) == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_values_decrease_in_theta(self):
        # smaller theta biases the area jumps toward zero, which helps
        v_quarter = poisson.theta_limit(0.25)
        v_half = poisson.theta_limit(0.5)
        v_one = poisson.theta_limit(1.0)
        v_four = poisson.theta_limit(4.0)
        assert v_quarter > v_half > v_one > v_four > 0.35


class TestLadder:
    def test_printed_roots(self):
        ladder = poisson.rect_roots(20, 1.0)
        assert ladder.root(1) == pytest.approx(math.e, abs=1e-12)
        assert ladder.root(2) == pytest.approx(math.sqrt(3.0), abs=1e-9)
        for k, z in ((3, 1.381554), (4, 1.258476), (5, 1.195517),
                     (10, 1.088218), (15, 1.056969), (20, 1.042069)):
            assert ladder.root(k) == pytest.approx(z, abs=1e-5)

    def test_residuals(self):
        ladder = poisson.rect_roots(200, 1.0)
        for k in range(2, 201):
            assert abs(ladder_residual(k, ladder.root(k))) <= 1e-12

    def test_decreasing_to_one(self):
        ladder = poisson.rect_roots(200, 1.0)
        roots = ladder.roots[1:]
        assert np.all(np.diff(roots) < 0.0)
        assert roots[-1] > 1.0
        assert ladder.root(200) < 1.01

    def test_cutoffs_increasing_in_unit_interval(self):
        ladder = poisson.rect_roots(50, 1.0)
        ts = ladder.cutoffs[1:]
        assert ts[0] == 0.0
        assert np.all(np.diff(ts) > 0.0)
        assert np.all((ts >= 0.0) & (ts <= 1.0))

    def test_clamping_below_unit_intensity(self):
        lam = 0.5  # e^lam < sqrt(3), so level 2 is clamped
        ladder = poisson.rect_roots(6, lam)
        assert ladder.root(1) == pytest.approx(math.exp(lam), abs=1e-14)
        assert ladder.root(2) == pytest.approx(math.exp(lam), abs=1e-14)
        assert ladder.cutoff(2) == 0.0
        assert ladder.root(3) < math.exp(lam)
        assert ladder.cutoff(3) > 0.0

    @pytest.mark.parametrize("lam", [1.0, 0.5, 0.003])
    def test_roots_match_brentq(self, reference_ladder, lam):
        got = poisson.rect_roots(3000, lam).roots[1:]
        want = np.minimum(reference_ladder[1:3001], math.exp(lam))
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_validation(self):
        with pytest.raises(DomainError):
            poisson.rect_roots(0)
        with pytest.raises(DomainError):
            poisson.rect_roots(5, -1.0)
        with pytest.raises(DomainError):
            ladder_residual(1, 2.0)


class TestLevelSum:
    @pytest.mark.parametrize("lnz, k", [
        *((lnz, k) for lnz in (1e-12, 1e-4, 0.3, math.log(3.0)) for k in (1, 2, 50, 10**4)),
        (math.log(1.7), 5000),
    ])
    def test_matches_mpmath(self, lnz, k):
        # the float lnz is exact in mpmath, so only the products j lnz, the
        # expm1 and the sum round: a few ulps, times j lnz once e^{j lnz} grows.
        # Past the float range the answer is inf, with no overflow warning
        # (the suite turns warnings into errors).
        with mpmath.workdps(30):
            x = mpmath.mpf(lnz)
            want = mpmath.fsum(mpmath.expm1(j * x) / j for j in range(1, k + 1))
        if want > np.finfo(float).max:
            assert poisson.level_sum(k, lnz) == math.inf
        else:
            rel = 8 * np.finfo(float).eps * max(1.0, k * lnz)
            assert poisson.level_sum(k, lnz) == pytest.approx(float(want), rel=rel, abs=0)

    def test_level_cap(self, monkeypatch):
        # refused before the O(k) array of levels is built
        with pytest.raises(ResourceLimitError):
            poisson.level_sum(poisson.MAX_LEVELS + 1, 0.1)
        monkeypatch.setattr(poisson, "MAX_LEVELS", 10)
        assert poisson.level_sum(10, 0.1) > 0.0
        with pytest.raises(ResourceLimitError):
            poisson.level_sum(11, 0.1)


class TestRectLimit:
    def test_unit_intensity_value(self):
        d = poisson.rect_limit(1.0)
        assert d.total == pytest.approx(0.761260, abs=1e-5)
        assert d.jump > 0 and d.drift > 0

    def test_jump_series_forms_agree(self):
        k_max = poisson._auto_k_max(1.0)
        z = np.minimum(np.exp(poisson._log_roots(k_max + 1)), math.e)
        simplified = jump_series_simplified(z, k_max)
        double = jump_series_double(z, 1.0, k_max)
        assert simplified == pytest.approx(double, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.003, 0.05, 1.0, 2.0, 5.0])
    def test_moment_jump_series_matches_double(self, lam):
        k_max = poisson._auto_k_max(lam)
        u = np.minimum(poisson._log_roots(k_max + 1), lam)
        jump, _ = poisson._level_series(u, lam, k_max)
        assert jump == pytest.approx(jump_series_double(np.exp(u), lam, k_max), abs=1e-13)

    def test_closed_series_total(self):
        # telescoped total with explicit constants
        k_max = 80
        z = np.minimum(np.exp(poisson._log_roots(k_max + 2)), math.e)
        tail = math.fsum(
            math.exp(-k) * (z[k + 1] - math.exp((k + 1) * math.log(z[k + 1])) / (k + 1))
            for k in range(2, k_max)
        )
        closed = (
            2.0 - math.e + 1.0 / (math.e - 1.0)
            + (1.0 - 2.0 * math.sqrt(3.0)) / (2.0 * math.e)
            + math.e * math.log(math.e - 1.0) - tail
        )
        assert poisson.rect_limit(1.0).total == pytest.approx(closed, abs=1e-8)

    def test_small_intensity_approaches_continuous_game(self):
        assert poisson.rect_limit(0.003).total == pytest.approx(
            poisson.samuels_value(), abs=5e-3
        )

    def test_series_against_mpmath(self):
        lam = 0.1
        d = poisson.rect_limit(lam)
        jump, drift, total = mpmath_level_series(lam, poisson._auto_k_max(lam))
        assert d.jump == pytest.approx(jump, abs=3e-16)
        assert d.drift == pytest.approx(drift, abs=3e-16)
        assert d.total == pytest.approx(total, abs=3e-16)

    def test_very_small_intensity(self):
        # k_max = 106,570 levels; the moment table is built in fixed blocks
        tracemalloc.start()
        try:
            total = poisson.rect_limit(3e-4).total
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert poisson.samuels_value() < total < poisson.samuels_value() + 1e-4
        assert peak < 64e6

    def test_monotone_in_intensity(self):
        lams = [0.02, 0.1, 0.3, 0.6, 1.0]
        values = [poisson.rect_limit(l).total for l in lams]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] >= poisson.samuels_value() - 5e-3

    def test_tail_bound_honest(self):
        for lam, k_small in ((1.0, 12), (0.5, 25)):
            # the two calls rect_limit makes, at a k_max it refuses
            u = np.minimum(poisson._log_roots(k_small + 1), lam)
            truncated = math.fsum(poisson._level_series(u, lam, k_small))
            full = poisson.rect_limit(lam).total
            assert abs(full - truncated) <= poisson.rect_limit_tail_bound(lam, k_small)

    def test_precision_error_reports_required_k(self):
        with pytest.raises(PrecisionError) as err:
            poisson.rect_limit(1.0, k_max=5)
        assert err.value.required_k_max is not None
        poisson.rect_limit(1.0, k_max=err.value.required_k_max)

    @pytest.mark.parametrize("lam", [1.0, 700.0])
    @pytest.mark.parametrize("k_max", [0, -4])
    def test_k_max_below_one(self, lam, k_max):
        # the rule of rect_roots, checked before r ** k_max can overflow
        with pytest.raises(DomainError, match="k_max must be >= 1"):
            poisson.rect_limit(lam, k_max=k_max)

    def test_domain(self):
        for lam in (0.0, 1000.0, math.nan):
            with pytest.raises(DomainError):
                poisson.rect_limit(lam)
            with pytest.raises(DomainError):
                poisson.rect_roots(5, lam)
        assert poisson.rect_limit(700.0).total == pytest.approx(1.0, abs=1e-15)
        assert poisson.rect_limit_tail_bound(1000.0, 8) == 0.0

    def test_auto_k_max_matches_expm1_form(self):
        # The bound used to be written with e^lam, which overflows for large
        # lam; the truncation it picks must not move where it was finite.
        def old_k_max(lam, tol):
            def bound(k):
                r = math.exp(-lam)
                return (math.expm1(lam) + 2.3 / max(k, 1)) * r ** (k + 1) / (1.0 - r)

            k = max(8, int(math.ceil(math.log(
                (math.expm1(lam) + 2.3) / (tol * (1.0 - math.exp(-lam)))) / lam)))
            while bound(k) > tol:
                k = int(k * 1.25) + 8
            return k

        # the cold-limit intensities of the benchmark and the default sweep grid
        lams = [float(f"{0.0029 + i * 1e-6:.6f}") for i in range(101)]
        lams += [0.01 + i * 0.01 for i in range(100)]
        lams += [1.0, 0.37, 2.0, 50.0, 600.0]
        # and a log grid up to where the e^lam form overflows (about 686)
        lams += [float(lam) for lam in np.logspace(-5, math.log10(680.0), 400)]
        for lam in lams:
            assert poisson._auto_k_max(lam) == old_k_max(lam, 1e-10), lam

    def test_level_cap(self):
        with pytest.raises(ResourceLimitError):
            poisson.rect_limit(1.0, k_max=poisson.MAX_LEVELS + 1)
        with pytest.raises(ResourceLimitError):  # automatic k_max near 7.2M
            poisson.rect_limit(5e-6)
        with pytest.raises(ResourceLimitError):
            poisson.rect_roots(poisson.MAX_LEVELS + 1)
        # where e^-lam rounds to 1 (lam below about 5.6e-17) no truncation
        # reaches the tolerance; near 4.5e-306 the old search loop overflowed
        for lam in (5e-324, 1e-310, 1e-307, 4e-306, 4.5e-306, 1e-305, 1e-100, 1e-20, 5e-17):
            with pytest.raises(ResourceLimitError, match="will not reach"):
                poisson.rect_limit(lam)
            with pytest.raises(ResourceLimitError, match="will not reach"):
                poisson.rect_limit_tail_bound(lam)


class TestGeneralBoundary:
    def test_optimal_cutoffs_reproduce_limit(self):
        ladder = poisson.rect_roots(45, 1.0)
        d = poisson.rect_general_boundary(ladder.cutoffs[1:])
        assert d.total == pytest.approx(poisson.rect_limit(1.0).total, abs=1e-8)

    def test_two_level_optimum(self):
        res = optimize.minimize_scalar(
            lambda t2: -poisson.rect_general_boundary([0.0, t2]).total,
            bounds=(0.0, 1.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert -res.fun == pytest.approx(0.730694, abs=1e-4)
        assert res.x == pytest.approx(0.450694, abs=1e-4)

    def test_all_zero_cutoffs_fail(self):
        # stopping at the first record up to level K from time zero: as K
        # grows this approaches "stop at the very first arrival", whose mark
        # is unbounded, so the value decays to zero; always far below optimal
        totals = [poisson.rect_general_boundary(np.zeros(k)).total for k in (5, 15, 40)]
        assert totals[0] > totals[1] > totals[2]
        assert totals[2] < 0.05
        assert all(t < poisson.rect_limit(1.0).total for t in totals)

    def test_long_cutoff_lists_do_not_overflow(self):
        # the drift sum of level k holds e^{k (1 - t_k)}, past float range
        # once k (1 - t_k) > 709.78 unless the e^{-k} weight is applied first
        totals = [poisson.rect_general_boundary(np.zeros(k)).total for k in (700, 709, 710, 2000)]
        assert all(math.isfinite(t) for t in totals)
        assert all(a > b for a, b in zip(totals, totals[1:]))
        half = poisson.rect_general_boundary(np.full(2000, 0.5)).total
        assert half == pytest.approx(poisson.rect_general_boundary(np.full(1400, 0.5)).total,
                                     rel=0, abs=1e-15)

    def test_suboptimal_cutoffs_do_worse(self):
        best = poisson.rect_limit(1.0).total
        rng = np.random.default_rng(5)
        for _ in range(10):
            t = np.sort(rng.uniform(0.0, 1.0, 12))
            t[0] = 0.0
            assert poisson.rect_general_boundary(t).total <= best + 1e-9

    def test_level_cap(self, monkeypatch):
        # the double sum is O(K^2), so a long cutoff list is refused up front
        with pytest.raises(ResourceLimitError):
            poisson.rect_general_boundary(np.zeros(poisson.MAX_BOUNDARY_LEVELS + 1))
        monkeypatch.setattr(poisson, "MAX_BOUNDARY_LEVELS", 5)
        assert poisson.rect_general_boundary(np.zeros(5)).total > 0.0
        with pytest.raises(ResourceLimitError):
            poisson.rect_general_boundary(np.zeros(6))

    def test_validation(self):
        with pytest.raises(InvalidPolicyError):
            poisson.rect_general_boundary([0.5, 0.4])
        with pytest.raises(InvalidPolicyError):
            poisson.rect_general_boundary([0.2, 1.4])
        with pytest.raises(InvalidPolicyError):
            poisson.rect_general_boundary([0.5, 1.0, math.nan])
        with pytest.raises(InvalidPolicyError):
            poisson.rect_general_boundary([1.0, 1.0, math.nan])
        with pytest.raises(InvalidPolicyError):
            poisson.rect_general_boundary([])
