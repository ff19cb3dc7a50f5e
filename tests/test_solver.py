"""Mode evolution, transmitting-condition algebra, and the inverse solvers."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

import fracmix.specfun
from fracmix.basis import CoefficientSet, TrigPolynomial, project, synthesize
from fracmix.errors import DivisionError, SolvabilityError
from fracmix.fraccalc import FracOrder, SampledFunction, caputo_left, caputo_right
from fracmix.solver import (
    FracProblem,
    ModeState,
    SolutionField,
    _phi_e1,
    caputo_gamma_minus,
    caputo_limit_plus,
    forward_state,
    manufacture,
    mode_profile,
    solve_inverse,
    solve_inverse_gamma_eq1,
    solve_inverse_gamma_lt1,
    transmitting_source,
    v1k_convolution,
    w1k_convolution,
    w2k_convolution,
)
from fracmix.specfun import MLArgs, gamma, ml


COMPONENT_INDEX = {"zero": 0, "cos": 1, "xsin": 2}


def sample_problem(**kw) -> FracProblem:
    base = dict(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=4)
    base.update(kw)
    return FracProblem(**base)


def random_state(prob: FracProblem, seed: int = 7) -> ModeState:
    rng = np.random.default_rng(seed)
    st = ModeState.zeros(prob)
    st.f0, st.v0_0, st.w0p_0 = rng.normal(size=3)
    for name in ("f1", "f2", "v1_0", "v2_0", "w1p_0", "w2p_0"):
        getattr(st, name)[:] = rng.normal(size=prob.K)
    return st


class TestProblemValidation:
    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=1.2), dict(beta=1.0), dict(beta=2.3),
        dict(gamma=0.0), dict(gamma=1.4), dict(p=0.0), dict(q=-1.0),
        dict(K=0), dict(tol=0.0)])
    def test_ranges(self, bad):
        with pytest.raises(ValueError):
            sample_problem(**bad)


class TestProfiles:
    def test_v0_constant_when_sourceless(self):
        st = random_state(sample_problem())
        st.f0 = 0.0
        v0 = mode_profile(st, "plus", "zero")[0]
        assert v0(0.7) == v0(0.0) == st.v0_0

    def test_v0_alpha_one_linear(self):
        st = ModeState.zeros(sample_problem(alpha=1.0))
        st.v0_0, st.f0 = 1.0, 2.0
        v0 = mode_profile(st, "plus", "zero")[0]
        assert v0(0.5) == pytest.approx(2.0, abs=1e-14)

    def test_v2k_at_zero(self):
        st = random_state(sample_problem())
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        assert v2(0.0) == pytest.approx(st.v2_0[0], abs=1e-14)

    def test_v2k_stationary_when_balanced(self):
        # f2 = mu * v2(0) collapses the profile to a constant
        prob = sample_problem(alpha=0.6)
        st = ModeState.zeros(prob)
        mu = (2 * math.pi) ** 2
        st.v2_0[0] = 1.0
        st.f2[0] = mu
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        for t in (0.1, 0.5, 1.0):
            assert v2(t) == pytest.approx(1.0, abs=1e-11)

    def test_v2k_pure_decay(self):
        prob = sample_problem(alpha=0.6)
        st = ModeState.zeros(prob)
        st.v2_0[0] = 1.0
        mu = (2 * math.pi) ** 2
        expect = ml(MLArgs(0.6, 1.0, -mu * 0.5**0.6))
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        assert v2(0.5) == pytest.approx(expect, rel=1e-12)

    def test_v1k_at_zero_and_decoupled(self):
        st = random_state(sample_problem())
        assert mode_profile(st, "plus", "cos", 2)[0](0.0) == pytest.approx(
            st.v1_0[1], abs=1e-13)
        st.v2_0[:] = 0.0
        st.f2[:] = 0.0
        a = st.problem.alpha
        mu = (4 * math.pi) ** 2
        expect = (st.v1_0[1] * ml(MLArgs(a, 1.0, -mu * 0.4**a))
                  + st.f1[1] * 0.4**a * ml(MLArgs(a, a + 1.0, -mu * 0.4**a)))
        assert mode_profile(st, "plus", "cos", 2)[0](0.4) == pytest.approx(
            expect, rel=1e-11)

    def test_w_profiles_at_zero(self):
        st = random_state(sample_problem())
        assert mode_profile(st, "minus", "zero")[0](0.0) == st.v0_0
        assert mode_profile(st, "minus", "cos", 1)[0](0.0) == pytest.approx(
            st.v1_0[0], abs=1e-13)
        assert mode_profile(st, "minus", "xsin", 2)[0](0.0) == pytest.approx(
            st.v2_0[1], abs=1e-13)

    def test_w0_at_minus_p(self):
        st = random_state(sample_problem())
        p, b = st.problem.p, st.problem.beta
        expect = st.v0_0 + p * st.w0p_0 + st.f0 * p**b / gamma(b + 1.0)
        assert mode_profile(st, "minus", "zero")[0](-p) == pytest.approx(
            expect, rel=1e-13)


def e1_unit_series(nu: float, d1: float, w: float) -> float:
    """sum_n (n+1) w^n / Gamma(d1 + nu n) at 250 digits.  The Gamma arguments
    are built from the exact float inputs: a rounded float argument would be
    amplified by the peak term, about e^195 at nu = 0.7, |w| = 40."""
    with mp.workdps(250):
        nu_, d1_, w_ = mp.mpf(nu), mp.mpf(d1), mp.mpf(w)
        tiny = mp.mpf(10) ** -60
        total, wn, n, small = mp.mpf(0), mp.mpf(1), 0, 0
        while small < 3:
            term = (n + 1) * wn * mp.rgamma(d1_ + nu_ * n)
            total += term
            small = small + 1 if abs(term) < tiny else 0
            wn *= w_
            n += 1
        return float(total)


class TestE1Kernel:
    """The solver's unit-family E1 kernel, evaluated through its two-ML
    collapse, holds the 1e-12 envelope on the d1 values the term table
    reaches: the base values and their -1, -2 (time derivatives) and
    -gamma (Caputo) shifts."""

    @pytest.mark.parametrize("nu", [0.7, 1.0, 1.5, 2.0])
    def test_against_mp_series(self, nu):
        g = 0.5
        for base in (nu + 1.0, nu + 2.0, 2.0 * nu + 1.0):
            for d1 in (base, base - 1.0, base - 2.0, base - g):
                for w in -np.geomspace(0.01, 40.0, 10):
                    got = _phi_e1(nu, d1, -w, 1.0)
                    err = abs(got - e1_unit_series(nu, d1, w))
                    assert err <= 1e-12, (nu, d1, w, got, err)


class TestGeneralE1OffSolverPaths:
    def test_solver_paths_never_enter_general_e1(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("general E1 double-series route entered")

        for name in ("e1", "_e1_scan", "_e1_double_float", "_e1_double_mp"):
            monkeypatch.setattr(fracmix.specfun, name, forbidden)
        rng = np.random.default_rng(17)

        def coeffs(K):
            return CoefficientSet(rng.normal(), rng.normal(size=K),
                                  rng.normal(size=K))

        for g in (0.5, 1.0):
            prob = sample_problem(K=3, gamma=g)
            solve_inverse(coeffs(3), coeffs(3), prob)
        st = random_state(sample_problem(K=3))
        fld = SolutionField(st)
        fld.mode_values(0.4)
        fld.mode_values(-0.4)
        for branch, t in (("plus", 0.3), ("minus", -0.3)):
            _, d1, d2 = mode_profile(st, branch, "cos", 2)
            d1(t)
            d2(t)
        caputo_gamma_minus(st, 2, 0.5, -0.3)


class TestConvolutionOracles:
    def test_v1k_limit_at_zero(self):
        st = random_state(sample_problem())
        assert v1k_convolution(st, 1, 0.0) == pytest.approx(st.v1_0[0])

    def test_v1k_agreement(self):
        st = random_state(sample_problem(alpha=0.5))
        v1 = mode_profile(st, "plus", "cos", 1)[0]
        for t in (0.2, 0.8):
            assert v1k_convolution(st, 1, t) == pytest.approx(v1(t), abs=1e-7)

    def test_v1k_single_term(self):
        # only v2(0) nonzero isolates the first convolution integral
        prob = sample_problem(alpha=0.7)
        st = ModeState.zeros(prob)
        st.v2_0[0] = 1.0
        assert v1k_convolution(st, 1, 0.6) == pytest.approx(
            mode_profile(st, "plus", "cos", 1)[0](0.6), abs=1e-8)

    def test_w_profiles_agreement(self):
        st = random_state(sample_problem(beta=1.5), seed=3)
        w1 = mode_profile(st, "minus", "cos", 1)[0]
        w2 = mode_profile(st, "minus", "xsin", 1)[0]
        for t in (-0.3, -0.6):
            assert w2k_convolution(st, 1, t) == pytest.approx(w2(t), abs=1e-7)
            assert w1k_convolution(st, 1, t) == pytest.approx(w1(t), abs=1e-7)


class TestTransmitAlgebra:
    def test_zero_state(self):
        st = ModeState.zeros(sample_problem())
        assert caputo_limit_plus(st, 1) == (0.0, 0.0, 0.0)

    def test_solved_state_satisfies_condition(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.7), ("x-sine", 2, 0.4)])
        psi = TrigPolynomial.from_atoms([("cosine", 2, -0.5), ("x-sine", 1, 0.3)])
        fld = solve_inverse(project(phi, 3), project(psi, 3), prob)
        for k in (1, 2, 3):
            assert caputo_limit_plus(fld.state, k) == pytest.approx(
                (0.0, 0.0, 0.0), abs=1e-12)

    def test_minus_limits_vanish_for_gamma_lt1(self):
        st = random_state(sample_problem())
        vals = np.array([caputo_gamma_minus(st, 1, 0.5, -eps)
                         for eps in (1e-3, 1e-4, 1e-5)])
        assert np.max(np.abs(vals[-1])) <= np.max(np.abs(vals[0]))
        assert np.max(np.abs(vals[-1])) <= 2e-2

    @pytest.mark.parametrize("component", ["xsin", "zero"])
    def test_g2_matches_numeric_caputo(self, component):
        prob = sample_problem(beta=1.5)
        st = random_state(prob, seed=11)
        k, g, t0 = 1, 0.5, -0.3
        val, d1, _ = mode_profile(st, "minus", component, k)
        grid = np.unique(np.concatenate([
            -np.linspace(0.0, 1.0, 2001) ** 2 * prob.p, [t0]]))
        f = SampledFunction(grid, val(grid))
        got = caputo_right(f, FracOrder(g), t0)
        expect = caputo_gamma_minus(st, k, g, t0)[COMPONENT_INDEX[component]]
        assert got == pytest.approx(expect, abs=1e-4)

    @pytest.mark.parametrize("component", ["cos", "zero"])
    def test_g1_matches_numeric_caputo(self, component):
        prob = sample_problem(beta=1.5)
        st = random_state(prob, seed=13)
        k, g, t0 = 1, 0.5, -0.4
        val, _, _ = mode_profile(st, "minus", component, k)
        grid = np.unique(np.concatenate([
            -np.linspace(0.0, 1.0, 2501) ** 2 * prob.p, [t0]]))
        f = SampledFunction(grid, val(grid))
        got = caputo_right(f, FracOrder(g), t0)
        expect = caputo_gamma_minus(st, k, g, t0)[COMPONENT_INDEX[component]]
        assert got == pytest.approx(expect, abs=1e-4)

    def test_perturbed_source_moves_the_limit(self):
        st = ModeState.zeros(sample_problem())
        base = caputo_limit_plus(st, 1)[2]
        st.f2[0] += 0.01
        assert abs(caputo_limit_plus(st, 1)[2] - base) == pytest.approx(0.01)


class TestModeODEResiduals:
    @pytest.mark.parametrize("component,k", [("xsin", 1), ("cos", 2)])
    def test_plus_branch(self, component, k):
        prob = sample_problem(alpha=0.7, K=3)
        st = random_state(prob, seed=5)
        val, d1, _ = mode_profile(st, "plus", component, k)
        v2 = mode_profile(st, "plus", "xsin", k)[0]
        grid = np.unique(np.concatenate(
            [np.linspace(0.0, 1.0, 2501) ** 3 * prob.q, [prob.q]]))
        f = SampledFunction(grid, val(grid), d1=np.concatenate(
            [[0.0], d1(grid[1:])]))
        lam = 2 * math.pi * k
        mu = lam**2
        i = k - 1
        rhs = {"xsin": lambda t: st.f2[i],
               "cos": lambda t: st.f1[i] + 2 * lam * v2(t)}[component]
        for t in np.linspace(0.12, 0.92, 10):
            resid = (caputo_left(f, FracOrder(prob.alpha), t)
                     + mu * val(t) - rhs(t))
            assert abs(resid) <= 1e-3, (component, k, t, resid)

    @pytest.mark.parametrize("component,k", [("xsin", 1), ("cos", 1)])
    def test_minus_branch(self, component, k):
        prob = sample_problem(beta=1.5, K=3)
        st = random_state(prob, seed=6)
        val, _, d2 = mode_profile(st, "minus", component, k)
        w2 = mode_profile(st, "minus", "xsin", k)[0]
        grid = np.unique(np.concatenate(
            [-np.linspace(0.0, 1.0, 2501) ** 3 * prob.p, [-prob.p]]))
        d2_vals = np.concatenate([d2(grid[:-1]), [0.0]])
        f = SampledFunction(grid, val(grid), d2=d2_vals)
        lam = 2 * math.pi * k
        mu = lam**2
        i = k - 1
        rhs = {"xsin": lambda t: st.f2[i],
               "cos": lambda t: st.f1[i] + 2 * lam * w2(t)}[component]
        for t in np.linspace(-0.9, -0.1, 10):
            resid = (caputo_right(f, FracOrder(prob.beta), t)
                     + mu * val(t) - rhs(t))
            assert abs(resid) <= 1e-3, (component, k, t, resid)


class TestInverseGammaLT1:
    def test_zero_data_zero_solution(self):
        prob = sample_problem()
        z = CoefficientSet.zeros(prob.K)
        fld = solve_inverse_gamma_lt1(z, z, prob)
        assert fld.source.c0 == 0.0
        assert np.all(fld.source.c1 == 0.0) and np.all(fld.source.c2 == 0.0)
        assert fld.state.v0_0 == 0.0 and fld.state.w0p_0 == 0.0
        assert np.all(fld.state.w1p_0 == 0.0) and np.all(fld.state.w2p_0 == 0.0)

    def test_cos_mode_closed_form(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 1.0)])
        c = project(phi, 3)
        fld = solve_inverse_gamma_lt1(c, c, prob)
        xs = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(fld.eval_f(xs) - 4 * math.pi**2 * np.cos(
            2 * math.pi * xs))) <= 1e-9
        for t in (-1.0, -0.4, 0.0, 0.3, 1.0):
            assert np.max(np.abs(fld.eval_u(xs, t)
                                 - np.cos(2 * math.pi * xs))) <= 1e-10

    def test_f0_always_zero(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("constant", 0, 2.0),
                                         ("x-sine", 1, 0.5)])
        psi = TrigPolynomial.from_atoms([("constant", 0, -1.0),
                                         ("cosine", 2, 0.9)])
        fld = solve_inverse_gamma_lt1(project(phi, 3), project(psi, 3), prob)
        assert fld.source.c0 == 0.0

    def test_upper_branch_stationary(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.8), ("x-sine", 3, 0.6)])
        psi = TrigPolynomial.from_atoms([("cosine", 1, -0.2)])
        fld = solve_inverse_gamma_lt1(project(phi, 3), project(psi, 3), prob)
        ref = fld.mode_values(0.0)
        for t in (0.15, 0.6, 1.0):
            assert fld.mode_values(t).max_abs_diff(ref) <= 1e-9

    def test_boundary_reproduction(self):
        prob = sample_problem(K=6)
        phi = TrigPolynomial.from_atoms([
            ("constant", 0, 0.4), ("cosine", 1, 1.0), ("cosine", 3, -0.3),
            ("x-sine", 2, 0.7)])
        psi = TrigPolynomial.from_atoms([
            ("constant", 0, -0.1), ("cosine", 1, 0.2), ("x-sine", 1, 0.5),
            ("x-sine", 2, -0.2)])
        fld = solve_inverse_gamma_lt1(project(phi, 6), project(psi, 6), prob)
        xs = np.linspace(0.0, 1.0, 401)
        assert np.max(np.abs(fld.eval_u(xs, prob.q) - phi(xs))) <= 1e-8
        assert np.max(np.abs(fld.eval_u(xs, -prob.p) - psi(xs))) <= 1e-8

    def test_source_is_negated_second_derivative(self):
        prob = sample_problem(K=5)
        phi = TrigPolynomial.from_atoms([
            ("cosine", 1, 0.5), ("cosine", 4, 0.2), ("x-sine", 2, -0.9)])
        fld = solve_inverse_gamma_lt1(project(phi, 5), project(phi, 5), prob)
        xs = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(fld.eval_f(xs) + phi.deriv(xs, 2))) <= 1e-10

    def test_denominator_zero_raises(self):
        # E_{beta,2} has a real zero reachable for beta near 2; scan p to
        # bracket it, then solve there
        beta, k = 1.95, 1
        mu = (2 * math.pi) ** 2

        def den(p):
            return ml(MLArgs(beta, 2.0, -mu * p**beta))

        ps = np.linspace(0.3, 0.9, 400)
        vals = np.array([den(p) for p in ps])
        crossings = np.nonzero(np.diff(np.sign(vals)))[0]
        assert crossings.size > 0, "expected a zero of E_{beta,2}"
        j = int(crossings[0])
        from scipy.optimize import brentq
        p_star = brentq(den, ps[j], ps[j + 1])
        prob = FracProblem(alpha=0.7, beta=beta, gamma=0.5, p=p_star, q=1.0,
                           K=2, tol=1e-6)
        phi = project(TrigPolynomial.from_atoms([("cosine", 1, 1.0)]), 2)
        with pytest.raises(DivisionError) as exc:
            solve_inverse_gamma_lt1(phi, phi, prob)
        assert exc.value.k == 1

    def test_wrong_gamma_rejected(self):
        prob = sample_problem(gamma=1.0)
        z = CoefficientSet.zeros(prob.K)
        with pytest.raises(ValueError):
            solve_inverse_gamma_lt1(z, z, prob)


class TestInverseGammaEQ1:
    def test_zero_data(self):
        prob = sample_problem(gamma=1.0)
        z = CoefficientSet.zeros(prob.K)
        fld = solve_inverse_gamma_eq1(z, z, prob)
        assert fld.source.c0 == 0.0
        assert np.all(fld.source.c1 == 0.0) and np.all(fld.source.c2 == 0.0)

    def test_delta0_half_case(self):
        # alpha=1, beta=2, p=q=1: Delta_0 = 1 + 1/2 - 1 = 1/2, so a pure
        # zero-mode offset of 0.25 recovers f0 = 0.5
        prob = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=1.0, q=1.0, K=2)
        phi = CoefficientSet(0.0, np.zeros(2), np.zeros(2))
        psi = CoefficientSet(0.25, np.zeros(2), np.zeros(2))
        fld = solve_inverse_gamma_eq1(phi, psi, prob)
        assert fld.source.c0 == pytest.approx(0.5, rel=1e-14)

    def test_zero_mode_closed_form(self):
        prob = sample_problem(gamma=1.0)
        a, b, p, q = prob.alpha, prob.beta, prob.p, prob.q
        phi = CoefficientSet(0.7, np.zeros(prob.K), np.zeros(prob.K))
        psi = CoefficientSet(-0.2, np.zeros(prob.K), np.zeros(prob.K))
        fld = solve_inverse_gamma_eq1(phi, psi, prob)
        delta0 = p + p**b / gamma(b + 1.0) - q**a / gamma(a + 1.0)
        assert fld.source.c0 == pytest.approx((psi.c0 - phi.c0) / delta0,
                                              rel=1e-13)
        assert fld.state.v0_0 == pytest.approx(
            phi.c0 - q**a / gamma(a + 1.0) * fld.source.c0, rel=1e-13)

    def test_xsine_mode_closed_form(self):
        # the x-sine pair has the displayed closed form: slope equals the
        # data gap over the determinant
        prob = sample_problem(gamma=1.0, K=2)
        a, b, p, q = prob.alpha, prob.beta, prob.p, prob.q
        mu = (2 * math.pi) ** 2
        phi = CoefficientSet(0.0, np.zeros(2), np.array([0.8, 0.0]))
        psi = CoefficientSet(0.0, np.zeros(2), np.array([0.1, 0.0]))
        fld = solve_inverse_gamma_eq1(phi, psi, prob)
        term_q = q**a * ml(MLArgs(a, a + 1.0, -mu * q**a))
        delta1 = (p * ml(MLArgs(b, 2.0, -mu * p**b))
                  + p**b * ml(MLArgs(b, b + 1.0, -mu * p**b)) - term_q)
        w2p = (psi.c2[0] - phi.c2[0]) / delta1
        assert fld.state.w2p_0[0] == pytest.approx(w2p, rel=1e-12)
        assert fld.state.v2_0[0] == pytest.approx(
            phi.c2[0] - term_q * w2p, rel=1e-12)
        assert fld.source.c2[0] == pytest.approx(
            w2p + mu * fld.state.v2_0[0], rel=1e-12)

    def test_boundary_reproduction(self):
        prob = sample_problem(gamma=1.0, K=6)
        phi = TrigPolynomial.from_atoms([
            ("constant", 0, 0.4), ("cosine", 1, 1.0), ("x-sine", 2, 0.7)])
        psi = TrigPolynomial.from_atoms([
            ("constant", 0, -0.1), ("cosine", 2, 0.6), ("x-sine", 1, 0.5)])
        fld = solve_inverse_gamma_eq1(project(phi, 6), project(psi, 6), prob)
        xs = np.linspace(0.0, 1.0, 401)
        assert np.max(np.abs(fld.eval_u(xs, prob.q) - phi(xs))) <= 1e-8
        assert np.max(np.abs(fld.eval_u(xs, -prob.p) - psi(xs))) <= 1e-8

    def test_transmitting_condition_holds(self):
        prob = sample_problem(gamma=1.0, K=4)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.9), ("x-sine", 1, -0.4)])
        psi = TrigPolynomial.from_atoms([("cosine", 1, 0.1), ("x-sine", 2, 0.3)])
        fld = solve_inverse_gamma_eq1(project(phi, 4), project(psi, 4), prob)
        st = fld.state
        for k in range(1, prob.K + 1):
            l0, l1, l2 = caputo_limit_plus(st, k)
            assert l0 == pytest.approx(st.w0p_0, abs=1e-12)
            assert l1 == pytest.approx(st.w1p_0[k - 1], abs=1e-10)
            assert l2 == pytest.approx(st.w2p_0[k - 1], abs=1e-10)

    def test_solvability_error_delta0(self):
        # alpha=1, beta=2: Delta_0 = p + p^2/2 - q = 0 at q = p + p^2/2
        p = 1.0
        prob = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=p, q=p + p*p/2,
                           K=2)
        z = CoefficientSet.zeros(2)
        with pytest.raises(SolvabilityError) as exc:
            solve_inverse_gamma_eq1(z, z, prob)
        assert exc.value.k == 0

    def test_solvability_error_delta_k(self):
        # for the classical pair alpha=1, beta=2, Delta_1 crosses zero in p
        # at fixed q; root-find it and hit the degenerate geometry
        a, b, q = 1.0, 2.0, 1.0
        mu = (2 * math.pi) ** 2

        def delta1(p):
            return (p * ml(MLArgs(b, 2.0, -mu * p**b))
                    + p**b * ml(MLArgs(b, b + 1.0, -mu * p**b))
                    - q**a * ml(MLArgs(a, a + 1.0, -mu * q**a)))

        from scipy.optimize import brentq
        ps = np.linspace(0.4, 0.95, 200)
        vals = np.array([delta1(p) for p in ps])
        sign_change = np.nonzero(np.diff(np.sign(vals)))[0]
        assert sign_change.size > 0, "expected a Delta_1 sign change in p"
        j = int(sign_change[0])
        p_star = brentq(delta1, ps[j], ps[j + 1])
        prob = FracProblem(alpha=a, beta=b, gamma=1.0, p=p_star, q=q, K=2,
                           tol=1e-7)
        z = CoefficientSet.zeros(2)
        with pytest.raises(SolvabilityError) as exc:
            solve_inverse_gamma_eq1(z, z, prob)
        assert exc.value.k == 1

    def test_dispatcher(self):
        z = CoefficientSet.zeros(3)
        f1 = solve_inverse(z, z, sample_problem(K=3))
        f2 = solve_inverse(z, z, sample_problem(K=3, gamma=1.0))
        assert f1.problem.gamma == 0.5 and f2.problem.gamma == 1.0

    def test_truncation_mismatch_rejected(self):
        z3, z4 = CoefficientSet.zeros(3), CoefficientSet.zeros(4)
        with pytest.raises(ValueError):
            solve_inverse(z3, z4, sample_problem(K=3))
        with pytest.raises(ValueError):
            solve_inverse(z4, z4, sample_problem(K=3, gamma=1.0))


class TestForwardAndRoundTrip:
    @staticmethod
    def _data(K: int):
        rng = np.random.default_rng(42)
        u0 = CoefficientSet(rng.normal(), rng.normal(size=K) * 0.5,
                            rng.normal(size=K) * 0.5)
        slope = CoefficientSet(rng.normal(), rng.normal(size=K) * 0.3,
                               rng.normal(size=K) * 0.3)
        return u0, slope

    def test_zero_forward(self):
        prob = sample_problem()
        z = CoefficientSet.zeros(prob.K)
        st = forward_state(prob, z, z, z)
        fld = SolutionField(st)
        xs = np.linspace(0.0, 1.0, 50)
        for t in (-0.9, 0.0, 0.7):
            assert np.max(np.abs(fld.eval_u(xs, t))) == 0.0

    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_round_trip_recovers_source(self, gamma_):
        prob = sample_problem(gamma=gamma_, K=5)
        u0, slope = self._data(prob.K)
        fld0, phi_c, psi_c = manufacture(prob, u0, slope)
        fld1 = solve_inverse(phi_c, psi_c, prob)
        assert fld1.source.max_abs_diff(fld0.source) <= 1e-8
        assert abs(fld1.state.v0_0 - fld0.state.v0_0) <= 1e-9
        assert np.max(np.abs(fld1.state.w1p_0 - fld0.state.w1p_0)) <= 1e-8
        assert np.max(np.abs(fld1.state.w2p_0 - fld0.state.w2p_0)) <= 1e-8

    def test_transmitting_source_gamma_lt1_drops_slope(self):
        prob = sample_problem(K=3)
        u0, slope = self._data(3)
        src = transmitting_source(prob, u0, slope)
        lam = 2 * math.pi * np.arange(1, 4)
        assert src.c0 == 0.0
        assert src.c1 == pytest.approx(lam**2 * u0.c1 - 2 * lam * u0.c2)
        assert src.c2 == pytest.approx(lam**2 * u0.c2)


class TestFieldProperties:
    def test_continuity_at_interface(self):
        prob = sample_problem(K=4)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.6), ("x-sine", 2, 0.3)])
        psi = TrigPolynomial.from_atoms([("cosine", 1, -0.1)])
        fld = solve_inverse(project(phi, 4), project(psi, 4), prob)
        xs = np.linspace(0.0, 1.0, 101)
        jump = np.max(np.abs(synthesize(fld.mode_values(0.0, "plus"), xs)
                             - synthesize(fld.mode_values(0.0, "minus"), xs)))
        assert jump == 0.0
        for branch, t in (("plus", -1e-6), ("minus", 1e-6)):
            with pytest.raises(ValueError, match="outside branch"):
                fld.mode_values(t, branch)
        eps_seq = [1e-2, 1e-4, 1e-6]
        gaps = [np.max(np.abs(fld.eval_u(xs, +e) - fld.eval_u(xs, -e)))
                for e in eps_seq]
        assert gaps[0] >= gaps[1] >= gaps[2] or max(gaps) <= 1e-9

    def test_linearity_in_data(self):
        prob = sample_problem(K=4)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.6), ("x-sine", 2, 0.3)])
        psi = TrigPolynomial.from_atoms([("cosine", 2, -0.4), ("x-sine", 1, 0.8)])
        c1, c2 = project(phi, 4), project(psi, 4)
        base = solve_inverse(c1, c2, prob)
        scaled = solve_inverse(c1.scaled(3.0), c2.scaled(3.0), prob)
        assert scaled.source.max_abs_diff(base.source.scaled(3.0)) <= (
            1e-12 * max(1.0, np.max(np.abs(base.source.c2)) * 3))
        assert np.max(np.abs(scaled.state.w1p_0 - 3.0 * base.state.w1p_0)) <= 1e-11

    def test_periodic_boundary_identities(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.5), ("x-sine", 1, 0.2)])
        fld = solve_inverse(project(phi, 3), project(phi, 3), prob)
        for t in (-0.8, -0.1, 0.0, 0.5, 1.0):
            assert fld.eval_u(0.0, t) == pytest.approx(fld.eval_u(1.0, t),
                                                       abs=1e-12)
