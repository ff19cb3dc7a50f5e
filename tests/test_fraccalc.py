"""Fractional-derivative quadratures against closed-form oracles."""

from __future__ import annotations

import math
from math import gamma

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracref import (
    DomainError,
    MissingDerivativeError,
    SampledFunction,
    caputo_left,
    caputo_right,
    caputo_rl_residual,
    e1_rl_deriv,
    e1_unit_ref,
    ml_ref,
    ml_rl_deriv,
    rl_left,
    rl_right,
)
from gridutil import multi_graded_grid

from fracmix import fraccalc
from fracmix.fraccalc import (FracOrder, caputo_left_factored, graded_grid,
                              incomplete_beta)
from fracmix.specfun import e1, unit_family_params
from fracmix.verify import PDE_T_MARGIN, _caputo_grid


def power_caputo(m: int, alpha: float, x: float) -> float:
    """Caputo derivative of t^m from 0, for m above the order's ceiling."""
    return gamma(m + 1.0) / gamma(m + 1.0 - alpha) * x ** (m - alpha)


def make_poly(coeffs, a, b, n=2001, power=2.5):
    p = np.polynomial.Polynomial(coeffs)
    return SampledFunction.from_callable(
        p, a, b, n=n, df=p.deriv(1), d2f=p.deriv(2), power=power)


class TestFracOrder:
    def test_n(self):
        assert FracOrder(0.5).n == 1
        assert FracOrder(1.5).n == 2

    @pytest.mark.parametrize("bad", [0.0, 1.0, 2.0, -0.3, 2.4])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            FracOrder(bad)


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            SampledFunction([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            SampledFunction([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            SampledFunction([0.0, 0.5, 1.0], [1.0, 2.0])

    def test_missing_derivative_on_coarse_grid(self):
        f = SampledFunction([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(MissingDerivativeError):
            f.derivative_samples(1)

    def test_reflected_mirrors_supplied_and_differenced_derivatives(self):
        f = make_poly([0.3, -1.0, 0.5, 1.0], -1.0, 0.5, n=301)
        r = f.reflected()
        assert np.array_equal(r.grid, -f.grid[::-1])
        assert np.array_equal(r.values, f.values[::-1])
        assert np.array_equal(r.derivative_samples(1), -f.d1[::-1])
        assert np.array_equal(r.derivative_samples(2), f.d2[::-1])
        # the stencils mirror exactly, so differencing commutes with the flip
        g = SampledFunction(f.grid, np.exp(-2.0 * f.grid))
        assert np.array_equal(g.reflected().derivative_samples(1),
                              -g.derivative_samples(1)[::-1])
        assert np.array_equal(g.reflected().derivative_samples(2),
                              g.derivative_samples(2)[::-1])


class TestCaputoLeft:
    def test_constant_is_exactly_zero(self):
        x = np.linspace(0.0, 1.0, 101)
        f = SampledFunction(x, np.full_like(x, 3.7))
        for alpha in (0.3, 0.5, 0.9):
            assert caputo_left(f, FracOrder(alpha), 1.0) == 0.0

    def test_square_power_rule(self):
        f = make_poly([0.0, 0.0, 1.0], 0.0, 1.0)
        got = caputo_left(f, FracOrder(0.5), 1.0)
        assert got == pytest.approx(1.504505556127350, abs=1e-8)

    def test_cubic_power_rule_second_order(self):
        f = make_poly([0.0, 0.0, 0.0, 1.0], 0.0, 1.0)
        got = caputo_left(f, FracOrder(1.4), 0.8)
        assert got == pytest.approx(power_caputo(3, 1.4, 0.8), abs=1e-7)

    def test_mode_ode_profile(self):
        # f(t) = f2 t^a E_{a,a+1}(-mu t^a) + V2 E_{a,1}(-mu t^a) satisfies
        # caputo_a f + mu f = f2
        a, mu, f2, v2 = 0.7, (2 * math.pi) ** 2, 1.3, 0.8

        def prof(t):
            t = np.asarray(t, dtype=float)
            return np.array([
                f2 * ti**a * ml_ref(a, a + 1.0, -mu * ti**a)
                + v2 * ml_ref(a, 1.0, -mu * ti**a) if ti > 0
                else v2 for ti in np.atleast_1d(t)])

        def dprof(t):
            t = np.asarray(t, dtype=float)
            out = np.empty_like(np.atleast_1d(t))
            for i, ti in enumerate(np.atleast_1d(t)):
                if ti <= 0:
                    out[i] = 0.0  # unused endpoint sample
                else:
                    out[i] = ((f2 - mu * v2) * ti ** (a - 1.0)
                              * ml_ref(a, a, -mu * ti**a))
            return out

        f = SampledFunction.from_callable(prof, 0.0, 1.0, n=3001, df=dprof,
                                          power=4.0)
        for x in (0.35, 0.7, 0.95):
            got = caputo_left(f, FracOrder(a), x)
            expect = f2 - mu * float(prof(np.array([x]))[0])
            assert got == pytest.approx(expect, abs=2e-3)

    def test_domain_error(self):
        f = make_poly([0.0, 1.0], 0.0, 1.0, n=101)
        with pytest.raises(DomainError):
            caputo_left(f, FracOrder(0.5), 0.0)


_FACTORED_GRID = graded_grid(0.0, 1.0, 3001, power=2.0, cluster="left")


def power_poly_case(coeffs, order, frac, x):
    """(quadrature, exact) for the order-``order`` Caputo derivative at x of
    u = t^nu * sum_i coeffs[i] t^i, nu = n - 1 + frac: the n-th derivative
    is t^(nu-n) times a polynomial of the same degree."""
    ordv = FracOrder(order)
    n = ordv.n
    nu = n - 1 + frac
    g = sum(c * gamma(nu + i + 1.0) / gamma(nu + i + 1.0 - n)
            * _FACTORED_GRID**i for i, c in enumerate(coeffs))
    expect = sum(c * gamma(nu + i + 1.0) / gamma(nu + i + 1.0 - order)
                 * x ** (nu + i - order) for i, c in enumerate(coeffs))
    return caputo_left_factored(_FACTORED_GRID, g, nu - n, ordv, x), expect


class TestCaputoLeftFactored:
    """u = t^nu p(t) for a polynomial p of degree at most two: its n-th
    derivative is t^(nu-n) times a polynomial of the same degree, which the
    piecewise-quadratic product integration integrates exactly up to
    rounding."""

    @given(order=st.floats(0.05, 0.95) | st.floats(1.05, 1.95),
           frac=st.floats(0.1, 2.5), x=st.floats(0.05, 1.0))
    @example(order=0.5, frac=0.5, x=1.0)
    @example(order=1.5, frac=0.5, x=1.0)
    @example(order=0.3, frac=1.0, x=float(_FACTORED_GRID[1700]))
    def test_power_times_linear(self, order, frac, x):
        got, expect = power_poly_case((1.0, 2.0), order, frac, x)
        assert got == pytest.approx(expect, rel=1e-12)

    @given(order=st.floats(0.05, 0.95) | st.floats(1.05, 1.95),
           frac=st.floats(0.1, 2.5), x=st.floats(0.05, 1.0))
    @example(order=0.5, frac=0.5, x=1.0)
    @example(order=1.5, frac=0.5, x=1.0)
    @example(order=0.3, frac=1.0, x=float(_FACTORED_GRID[1700]))
    def test_power_times_quadratic(self, order, frac, x):
        got, expect = power_poly_case((1.0, 2.0, 3.0), order, frac, x)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            caputo_left_factored(_FACTORED_GRID + 0.5, _FACTORED_GRID, 0.0,
                                 FracOrder(0.5), 1.0)

    @pytest.mark.parametrize("grid", [
        [0.0, 0.5, 0.4, 1.0], [0.0, 0.5, np.nan, 1.0], [0.0, 0.5, np.inf]])
    def test_grid_must_increase_and_be_finite(self, grid):
        # the moments' series takes its length from the largest ratio t/x
        with pytest.raises(ValueError, match="finite increasing"):
            caputo_left_factored(np.array(grid), np.ones(len(grid)), 0.0,
                                 FracOrder(0.5), 0.45)

    @pytest.mark.parametrize("sigma", [-1.0, -1.5, np.nan])
    def test_sigma_must_exceed_minus_one(self, sigma):
        with pytest.raises(ValueError, match="must exceed -1"):
            caputo_left_factored(_FACTORED_GRID, _FACTORED_GRID, sigma,
                                 FracOrder(0.5), 0.5)

    @pytest.mark.parametrize("x", [0.0, -0.1, 1.5])
    def test_x_must_lie_on_the_grid(self, x):
        with pytest.raises(ValueError, match="must lie in"):
            caputo_left_factored(_FACTORED_GRID, _FACTORED_GRID, 0.0,
                                 FracOrder(0.5), x)

    @pytest.mark.parametrize("order,sigma", [(0.7, -0.3), (1.5, -0.5)])
    def test_batched_matches_scalar_calls(self, order, sigma):
        # grid nodes, the grid end and points between nodes, on rows that
        # are not polynomials
        xs = np.array([0.07, float(_FACTORED_GRID[1700]), 0.5, 0.99, 1.0])
        rows = np.array([np.cos(3.0 * _FACTORED_GRID) + k * _FACTORED_GRID
                         for k in range(4)])
        got = caputo_left_factored(_FACTORED_GRID, rows, sigma,
                                   FracOrder(order), xs)
        expect = np.array([[caputo_left_factored(_FACTORED_GRID, row, sigma,
                                                 FracOrder(order), x)
                            for x in xs] for row in rows])
        assert got.shape == (4, 5)
        np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("order", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("x", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_unfactored_matches_reference_quadrature(self, order, x):
        # at sigma = 0 the scheme is exact on a quadratic first derivative,
        # so it agrees to rounding with an independent high-precision
        # tanh-sinh quadrature of the Caputo integral
        c0, c1, c2 = 0.4, -1.3, 7.0
        s = graded_grid(0.0, 0.1, 801, power=2.0, cluster="left")
        got = caputo_left_factored(s, c0 + c1 * s + c2 * s**2, 0.0,
                                   FracOrder(order), x)
        with mp.workdps(30):
            # in v = (x - t)^(1 - order) the weak singularity is gone
            e = 1 / (1 - mp.mpf(order))

            def integrand(v):
                t = x - v**e
                return c0 + c1 * t + c2 * t**2

            ref = (mp.quad(integrand, [0, mp.mpf(x) ** (1 - mp.mpf(order))])
                   * e / mp.gamma(1 - mp.mpf(order)))
        assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("sigma,order", [(-0.3, 0.7), (-0.5, 1.5),
                                             (0.0, 0.5)])
    def test_rows_match_the_scipy_moments(self, monkeypatch, sigma, order):
        # scipy's betainc * beta, the moments' evaluator before the numpy
        # series, stays a test oracle.  Raw weights cannot be compared to
        # rounding: near x each weight takes a second divided difference of
        # the moments over cells of width ~1e-3, so a 1-ulp change of
        # betainc itself moves a row by up to 8e-8 of its largest weight.
        # What the verifier uses, the rows applied to smooth samples, holds
        # to rounding of the weighted sum.
        from scipy.special import beta, betainc

        grid = _caputo_grid(1.0, 2001)
        xs = np.linspace(PDE_T_MARGIN, 1.0 - PDE_T_MARGIN, 20)
        samples = np.array([np.cos(3.0 * grid) + k * grid for k in range(4)]
                           + [np.exp(-5.0 * grid)])
        eye = np.eye(grid.size)
        new = caputo_left_factored(grid, eye, sigma, FracOrder(order), xs)
        monkeypatch.setattr(fraccalc, "incomplete_beta",
                            lambda a, b, r: betainc(a, b, r) * beta(a, b))
        old = caputo_left_factored(grid, eye, sigma, FracOrder(order), xs)
        scale = np.abs(samples) @ np.abs(old)
        assert np.all(np.abs(samples @ (new - old)) <= 1e-13 * scale)


def _mp_incomplete_beta(a: float, b: float, r: float) -> float:
    with mp.workdps(30):
        return float(mp.betainc(a, b, 0, r))


class TestIncompleteBeta:
    """B(r; a, b) over the quadrature's box: a = sigma + 1 + k in (0, 3],
    b = 1 - mu in (0, 1), r in [0, 1], within 8 ulp of B(a, b) of a
    30-digit mpmath value.  Each example also takes r = 0, 1 and both
    sides of the 1/2 split of the two series."""

    FIXED_R = (0.0, 0.25, 0.5, float(np.nextafter(0.5, 1.0)), 0.75, 1.0)

    @given(a=st.floats(1e-3, 3.0), b=st.floats(1e-9, 1.0 - 1e-9),
           r=st.floats(0.0, 1.0))
    @example(a=0.1, b=0.3, r=0.9)  # alpha = 0.1
    @example(a=1.0, b=0.5, r=0.7)  # sigma = 0: terminating series
    @example(a=2.0, b=0.5, r=0.3)
    @example(a=3.0, b=0.2, r=0.6)
    @example(a=0.7, b=1e-9, r=0.999)  # order just below an integer
    @example(a=2.9, b=1.0 - 1e-9, r=0.001)
    def test_against_mpmath(self, a, b, r):
        rs = np.array(self.FIXED_R + (r,))
        got = incomplete_beta(a, b, rs)
        expect = np.array([_mp_incomplete_beta(a, b, v) for v in rs])
        complete = _mp_incomplete_beta(a, b, 1.0)
        assert np.all(np.abs(got - expect)
                      <= 8.0 * np.finfo(float).eps * complete)
        assert got[0] == 0.0


class TestCaputoRight:
    def test_linear_vanishes_for_orders_above_one(self):
        # zero up to the rounding dust of differencing 2 - 3x in floats
        x = np.linspace(-1.0, 0.0, 101)
        f = SampledFunction(x, 2.0 - 3.0 * x)
        assert caputo_right(f, FracOrder(1.5), -0.6) == pytest.approx(0.0, abs=1e-11)

    def test_w0_profile_gives_constant_source(self):
        # W0(t) = W0 - t W0p + f0 (-t)^beta / Gamma(beta+1)
        # has right Caputo of order beta equal to f0 for all t < 0
        beta, w0, w0p, f0, p = 1.5, 0.4, -0.7, 1.9, 1.0

        def prof(t):
            return w0 - t * w0p + f0 * (-t) ** beta / gamma(beta + 1.0)

        def d2prof(t):
            # singular like (-t)^(beta-2) at the upper endpoint: drop the
            # sample exactly there; the graded mesh keeps the lost mass tiny
            s = -np.asarray(t, dtype=float)
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = f0 * s[pos] ** (beta - 2.0) / gamma(beta - 1.0)
            return out

        f = SampledFunction.from_callable(prof, -p, 0.0, n=4001, d2f=d2prof,
                                          power=4.0)
        for x in (-0.8, -0.5, -0.2):
            assert caputo_right(f, FracOrder(beta), x) == pytest.approx(
                f0, abs=2e-4)

    def test_w2k_profile_matches_mode_ode(self):
        # W(t) = W0 E_{b,1}(-mu s^b) + W0p s E_{b,2}(-mu s^b)
        #        + f (-t)^b E_{b,b+1}(-mu s^b),  s = -t
        # satisfies caputo_b W + mu W = f
        b, k = 1.5, 1
        mu = (2 * k * math.pi) ** 2
        w0, w0p, fc = 0.9, -0.3, 2.1

        def phi(c, s):
            return s ** (c - 1.0) * ml_ref(b, c, -mu * s**b)

        def prof(t):
            s = -np.asarray(t, dtype=float)
            return np.array([w0 * phi(1.0, si) + w0p * phi(2.0, si)
                             + fc * phi(b + 1.0, si) if si > 0 else w0
                             for si in np.atleast_1d(s)])

        def d2prof(t):
            s = -np.asarray(t, dtype=float)
            out = np.empty_like(np.atleast_1d(s))
            for i, si in enumerate(np.atleast_1d(s)):
                if si <= 0:
                    out[i] = 0.0
                else:
                    out[i] = (w0 * phi(-1.0, si) + w0p * phi(0.0, si)
                              + fc * phi(b - 1.0, si))
            return out

        f = SampledFunction.from_callable(prof, -1.0, 0.0, n=4001, d2f=d2prof,
                                          power=4.0)
        for x in (-0.7, -0.4):
            got = caputo_right(f, FracOrder(b), x)
            expect = fc - mu * float(prof(np.array([x]))[0])
            assert got == pytest.approx(expect, abs=5e-3)

    @pytest.mark.parametrize("op", [
        caputo_right, rl_right,
        lambda f, o, x: caputo_rl_residual(f, o, "right", x)])
    def test_domain_error_in_caller_coordinates(self, op):
        # the operators work on the reflected grid [0, 1], but refuse in
        # the coordinates of the grid they were given, [-1, 0]
        f = make_poly([0.0, 1.0], -1.0, 0.0, n=101)
        with pytest.raises(DomainError,
                           match=r"^x=-1\.5 before grid start -1\.0$"):
            op(f, FracOrder(0.5), -1.5)
        with pytest.raises(DomainError,
                           match=r"^x=0\.0 must satisfy a <= x < b \(b=0\.0\)$"):
            op(f, FracOrder(0.5), 0.0)
        # the grid start itself is inside the range of a right derivative
        assert math.isfinite(op(f, FracOrder(0.5), -1.0))


class TestRL:
    def test_constant_left(self):
        x = np.linspace(0.0, 1.0, 1001)
        f = SampledFunction(x, np.ones_like(x))
        got = rl_left(f, FracOrder(0.5), 1.0)
        assert got == pytest.approx(1.0 / gamma(0.5), abs=1e-12)

    def test_linear_left(self):
        f = make_poly([0.0, 1.0], 0.0, 1.0)
        got = rl_left(f, FracOrder(0.5), 1.0)
        assert got == pytest.approx(1.0 / gamma(1.5), abs=1e-10)

    def test_square_left_order_above_one(self):
        f = make_poly([0.0, 0.0, 1.0], 0.0, 1.0, n=4001)
        got = rl_left(f, FracOrder(1.5), 1.0)
        assert got == pytest.approx(2.0 / gamma(1.5), abs=1e-6)

    def test_constant_right(self):
        x = np.linspace(-2.0, 0.0, 1001)
        f = SampledFunction(x, np.ones_like(x))
        got = rl_right(f, FracOrder(0.4), -1.0)
        assert got == pytest.approx(1.0 / gamma(0.6), abs=1e-12)

    def test_monomial_right_toward_zero(self):
        # (-t)^beta has right RL of order g equal to
        # Gamma(beta+1)/Gamma(beta+1-g) (-t)^(beta-g)
        beta, g = 1.5, 0.4
        t = -0.55
        x = multi_graded_grid(-1.0, 0.0, [t], n_per_segment=2501, power=3.0)
        f = SampledFunction(x, (-x) ** beta)
        expect = gamma(beta + 1.0) / gamma(beta + 1.0 - g) * (-t) ** (beta - g)
        assert rl_right(f, FracOrder(g), t) == pytest.approx(expect, abs=1e-6)

    def test_ml_profile_against_analytic_shift(self):
        # numeric left RL of t^beta E_{b,beta+1}(lam t^b) matches the
        # closed-form second-parameter downshift
        b, lam, g = 1.4, -2.0, 0.6

        def prof(t):
            t = np.asarray(t, dtype=float)
            return np.array([ti**b * ml_ref(b, b + 1.0, lam * ti**b)
                             if ti > 0 else 0.0 for ti in np.atleast_1d(t)])

        f = SampledFunction.from_callable(prof, 0.0, 1.0, n=4001, power=4.0)
        x = 0.7
        assert rl_left(f, FracOrder(g), x) == pytest.approx(
            ml_rl_deriv(b, b + 1.0, lam, g, x), abs=1e-4)


class TestCaputoRLRelation:
    def test_constant_left(self):
        x = np.linspace(0.0, 1.0, 801)
        f = SampledFunction(x, np.full_like(x, 2.5))
        assert caputo_rl_residual(f, FracOrder(0.5), "left", 0.6) <= 1e-10

    def test_affine_left(self):
        f = make_poly([1.0, 1.0], 0.0, 1.0)
        assert caputo_rl_residual(f, FracOrder(0.5), "left", 0.5) <= 1e-6

    @staticmethod
    def _poly_on_focused_grid(coeffs, x0):
        p = np.polynomial.Polynomial(coeffs)
        g = multi_graded_grid(0.0, 1.0, [x0], n_per_segment=2501, power=3.0)
        return SampledFunction(g, p(g), d1=p.deriv(1)(g), d2=p.deriv(2)(g))

    def test_cubic_both_sides_order_below_one(self):
        f = self._poly_on_focused_grid([0.3, -1.0, 0.5, 1.0], 0.5)
        assert caputo_rl_residual(f, FracOrder(0.5), "left", 0.5) <= 1e-6
        assert caputo_rl_residual(f, FracOrder(0.7), "right", 0.5) <= 1e-6

    def test_cubic_both_sides_order_above_one(self):
        f = self._poly_on_focused_grid([0.3, -1.0, 0.5, 1.0], 0.5)
        assert caputo_rl_residual(f, FracOrder(1.5), "left", 0.5) <= 1e-6
        assert caputo_rl_residual(f, FracOrder(1.5), "right", 0.5) <= 1e-6

    def test_w2k_form_right_side(self):
        b, mu = 1.5, (2 * math.pi) ** 2

        def prof(t):
            s = -np.asarray(t, dtype=float)
            return np.array([
                0.9 * ml_ref(b, 1.0, -mu * si**b)
                + 0.4 * si * ml_ref(b, 2.0, -mu * si**b) if si > 0 else 0.9
                for si in np.atleast_1d(s)])

        x0 = -0.5
        g = multi_graded_grid(-1.0, 0.0, [x0], n_per_segment=4001, power=2.0)
        f = SampledFunction(g, prof(g))
        assert caputo_rl_residual(f, FracOrder(0.5), "right", x0) <= 1e-6


class TestConvergenceOrder:
    @pytest.mark.parametrize("alpha,op", [(0.4, "caputo"), (0.6, "caputo"),
                                          (0.5, "rl"), (1.5, "caputo")])
    def test_halving_gains_order(self, alpha, op):
        coeffs = [0.0, 0.0, 1.0, 1.0, 0.5]
        exact = sum(c * power_caputo(m, alpha, 0.8)
                    for m, c in enumerate(coeffs) if m >= 2)
        if op == "rl":
            # supplement with the boundary terms that vanish here (f(0)=0,
            # f'(0)=0), so the Caputo power rule still applies
            pass
        errs = []
        for n in (257, 513):
            f = make_poly(coeffs, 0.0, 1.0, n=n, power=1.0)
            ordv = FracOrder(alpha)
            got = (caputo_left(f, ordv, 0.8) if op == "caputo"
                   else rl_left(f, ordv, 0.8))
            errs.append(abs(got - exact))
        assert errs[1] <= errs[0] / 2 ** 1.4, errs


class TestAnalyticOracles:
    def test_ml_rl_deriv_zero_order_is_identity(self):
        b, lam, t = 1.4, -2.0, 0.7
        expect = t**b * ml_ref(b, b + 1.0, lam * t**b)
        assert ml_rl_deriv(b, b + 1.0, lam, 0.0, t) == pytest.approx(
            expect, rel=1e-12)

    def test_e1_rl_deriv_zero_order_is_identity(self):
        b = 1.3
        params = unit_family_params(b, 2 * b + 1.0)
        mu = (2 * math.pi) ** 2
        t = -0.6
        expect = (-t) ** (2 * b) * e1(params, -mu * (-t) ** b, -mu * (-t) ** b)
        assert e1_rl_deriv(params, -mu, -mu, 0.0, t) == pytest.approx(
            expect, rel=1e-12)

    def test_e1_rl_deriv_against_numeric_rl(self):
        # right RL of (-t)^(2b) E1(2b+1; -mu (-t)^b twice) vs the closed-form
        # delta1 downshift
        b, g, k = 1.3, 0.4, 1
        mu = (2 * k * math.pi) ** 2
        params = unit_family_params(b, 2 * b + 1.0)

        def prof(t):
            s = -np.asarray(t, dtype=float)
            return np.array([
                si ** (2 * b) * e1_unit_ref(b, 2 * b + 1.0, -mu * si**b)
                if si > 0 else 0.0 for si in np.atleast_1d(s)])

        f = SampledFunction.from_callable(prof, -1.0, 0.0, n=3001, power=4.0)
        t = -0.6
        assert rl_right(f, FracOrder(g), t) == pytest.approx(
            e1_rl_deriv(params, -mu, -mu, g, t), abs=1e-4)

    def test_ml_rl_deriv_against_numeric_rl_mirrored(self):
        # E_{b,1}(-lam (-t)^b): mirror onto s = -t > 0 and compare the
        # numeric right RL against the closed-form shift evaluated in s
        b, g, lam = 1.6, 0.5, 5.0

        def prof(t):
            s = -np.asarray(t, dtype=float)
            return np.array([ml_ref(b, 1.0, -lam * si**b)
                             if si > 0 else 1.0 for si in np.atleast_1d(s)])

        f = SampledFunction.from_callable(prof, -1.0, 0.0, n=4001, power=4.0)
        t = -0.8
        assert rl_right(f, FracOrder(g), t) == pytest.approx(
            ml_rl_deriv(b, 1.0, -lam, g, -t), abs=1e-4)
