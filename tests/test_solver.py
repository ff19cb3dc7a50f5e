"""Mode evolution, transmitting-condition algebra, and the inverse solvers."""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc
from math import gamma

import numpy as np
import pytest

from fracref import (
    SampledFunction,
    caputo_gamma_minus,
    caputo_left,
    caputo_limit_plus,
    caputo_right,
    ml_ref,
    mode_profile,
    trig_deriv,
)
from oracles import (
    e1_unit_series,
    manufacture,
    max_abs_diff,
    scaled,
    transmitting_source,
    v1k_convolution,
    w1k_convolution,
    w2k_convolution,
)

import fracmix.solver
import fracmix.specfun
from fracmix.basis import (CoefficientSet, TrigPolynomial, project,
                           synthesize)
from fracmix.errors import DivisionError, SolvabilityError
from fracmix.fraccalc import FracOrder
from fracmix.solver import (
    FracProblem,
    SolutionField,
    _branch_terms,
    _term_column,
    _term_table,
    forward_state,
    profile_table,
    solve_inverse,
    solve_inverse_gamma_eq1,
    solve_inverse_gamma_lt1,
)
from fracmix.verify import TRANSMIT_THETA, _interface_limits
from fracmix.specfun import (
    MLArgs,
    e1,
    ml,
    ml_array,
    unit_family_params,
)


COMPONENT_INDEX = {"zero": 0, "cos": 1, "xsin": 2}


def sample_problem(**kw) -> FracProblem:
    base = dict(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=4)
    base.update(kw)
    return FracProblem(**base)


def zero_field(prob: FracProblem) -> SolutionField:
    return SolutionField(prob,
                         *(CoefficientSet.zeros(prob.K) for _ in range(3)))


def random_field(prob: FracProblem, seed: int = 7) -> SolutionField:
    rng = np.random.default_rng(seed)
    c0 = rng.normal(size=3)
    f1, f2, v1, v2, w1, w2 = (rng.normal(size=prob.K) for _ in range(6))
    return SolutionField(prob, CoefficientSet(c0[0], f1, f2),
                         CoefficientSet(c0[1], v1, v2),
                         CoefficientSet(c0[2], w1, w2))


def _power(x: float, e: float) -> float:
    """x**e, or inf where it overflows."""
    try:
        return x**e
    except OverflowError:
        return math.inf


class TestProblemValidation:
    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=1.2), dict(beta=1.0), dict(beta=2.3),
        dict(gamma=0.0), dict(gamma=1.4), dict(p=0.0), dict(q=-1.0),
        dict(K=0), dict(tol=0.0), dict(K=2.7), dict(K=2.0), dict(K=True),
        dict(p=math.inf), dict(q=math.nan), dict(tol=math.inf),
        dict(alpha=True), dict(q=True), dict(p="1.0"), dict(tol=None),
        dict(p=10**400), dict(tol=-10**400)])
    def test_ranges(self, bad):
        with pytest.raises(ValueError):
            sample_problem(**bad)

    @pytest.mark.parametrize("name, beta, power", [
        ("p", 1.5, 3.0), ("p", 2.0, 4.0), ("q", 1.5, 2.0)])
    def test_extent_just_inside_its_power_bound(self, name, beta, power):
        # the largest extent whose largest power in the pipeline, p^(2 beta)
        # or q^2, is finite constructs; the next double up is refused
        x = sys.float_info.max ** (1.0 / power)
        while not math.isfinite(_power(x, power)):
            x = math.nextafter(x, 0.0)
        while math.isfinite(_power(math.nextafter(x, math.inf), power)):
            x = math.nextafter(x, math.inf)
        assert getattr(sample_problem(beta=beta, **{name: x}), name) == x
        with pytest.raises(ValueError, match=f"^{name}=.* is too large"):
            sample_problem(beta=beta, **{name: math.nextafter(x, math.inf)})

    @pytest.mark.parametrize("name", ["p", "q"])
    def test_extent_just_inside_its_small_bound(self, name):
        # the smallest extent s whose power (2.5e-7 s)^-2, the verifier's
        # s^-2 at the first point of its Caputo grids, is finite constructs;
        # the next double down is refused
        x = 1.0 / math.sqrt(sys.float_info.max) / 2.5e-7
        while math.isfinite(_power(2.5e-7 * x, -2.0)):
            x = math.nextafter(x, 0.0)
        while not math.isfinite(_power(2.5e-7 * x, -2.0)):
            x = math.nextafter(x, math.inf)
        assert getattr(sample_problem(**{name: x}), name) == x
        with pytest.raises(ValueError, match=f"^{name}=.* is too small"):
            sample_problem(**{name: math.nextafter(x, 0.0)})

    def test_reals_stored_as_floats(self):
        prob = sample_problem(alpha=1, beta=2, gamma=1, p=1, q=np.float64(2))
        for v in (prob.alpha, prob.beta, prob.gamma, prob.p, prob.q, prob.tol):
            assert type(v) is float


class TestProfiles:
    def test_v0_constant_when_sourceless(self):
        st = random_field(sample_problem())
        st.source.c0 = 0.0
        v0 = mode_profile(st, "plus", "zero")[0]
        assert v0(0.7) == v0(0.0) == st.value.c0

    def test_v0_alpha_one_linear(self):
        st = zero_field(sample_problem(alpha=1.0))
        st.value.c0, st.source.c0 = 1.0, 2.0
        v0 = mode_profile(st, "plus", "zero")[0]
        assert v0(0.5) == pytest.approx(2.0, abs=1e-14)

    def test_v2k_at_zero(self):
        st = random_field(sample_problem())
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        assert v2(0.0) == pytest.approx(st.value.c2[0], abs=1e-14)

    def test_v2k_stationary_when_balanced(self):
        # f2 = mu * v2(0) collapses the profile to a constant
        prob = sample_problem(alpha=0.6)
        st = zero_field(prob)
        mu = (2 * math.pi) ** 2
        st.value.c2[0] = 1.0
        st.source.c2[0] = mu
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        for t in (0.1, 0.5, 1.0):
            assert v2(t) == pytest.approx(1.0, abs=1e-11)

    def test_v2k_pure_decay(self):
        prob = sample_problem(alpha=0.6)
        st = zero_field(prob)
        st.value.c2[0] = 1.0
        mu = (2 * math.pi) ** 2
        expect = ml(MLArgs(0.6, 1.0, -mu * 0.5**0.6))
        v2 = mode_profile(st, "plus", "xsin", 1)[0]
        assert v2(0.5) == pytest.approx(expect, rel=1e-12)

    def test_v1k_at_zero_and_decoupled(self):
        st = random_field(sample_problem())
        assert mode_profile(st, "plus", "cos", 2)[0](0.0) == pytest.approx(
            st.value.c1[1], abs=1e-13)
        st.value.c2[:] = 0.0
        st.source.c2[:] = 0.0
        a = st.problem.alpha
        mu = (4 * math.pi) ** 2
        expect = (st.value.c1[1] * ml(MLArgs(a, 1.0, -mu * 0.4**a))
                  + st.source.c1[1] * 0.4**a
                  * ml(MLArgs(a, a + 1.0, -mu * 0.4**a)))
        assert mode_profile(st, "plus", "cos", 2)[0](0.4) == pytest.approx(
            expect, rel=1e-11)

    def test_w_profiles_at_zero(self):
        st = random_field(sample_problem())
        assert mode_profile(st, "minus", "zero")[0](0.0) == st.value.c0
        assert mode_profile(st, "minus", "cos", 1)[0](0.0) == pytest.approx(
            st.value.c1[0], abs=1e-13)
        assert mode_profile(st, "minus", "xsin", 2)[0](0.0) == pytest.approx(
            st.value.c2[1], abs=1e-13)

    def test_w0_at_minus_p(self):
        st = random_field(sample_problem())
        p, b = st.problem.p, st.problem.beta
        expect = (st.value.c0 + p * st.slope.c0
                  + st.source.c0 * p**b / gamma(b + 1.0))
        assert mode_profile(st, "minus", "zero")[0](-p) == pytest.approx(
            expect, rel=1e-13)


def scalar_profile_sum(order, mu, terms, s, shift=0.0) -> float:
    """One profile-table entry from the scalar reference: the terms at a single
    s >= 0, second parameters lowered by shift, summed left to right with
    zero coefficients skipped; NaN at s = 0 once a live term has c < 1."""
    tot = 0.0
    for coef, c, kind in terms:
        if coef == 0.0:
            continue
        cc = c - shift
        if s == 0.0:
            if cc < 1.0:
                return math.nan
            tot += coef * (1.0 if cc == 1.0 else 0.0)
            continue
        w = -mu * s**order
        if kind == "ml":
            kern = ml_ref(order, cc, w)
        else:
            kern = (ml_ref(order, cc - 1.0, w) / order
                    + (1.0 - (cc - 1.0) / order) * ml_ref(order, cc, w))
        tot += coef * (s ** (cc - 1.0) * kern)
    return tot


class TestProfileTable:
    """One table per branch equals the scalar sums of every row's terms bit
    for bit, NaN entries included."""

    @staticmethod
    def state():
        st = random_field(sample_problem(K=3))
        st.source.c1[1] = 0.0   # a dead term the table must skip
        st.slope.c2[2] = 0.0
        return st

    @staticmethod
    def expected(st, branch, s, shift):
        order, mu, terms = _branch_terms(st, branch)
        return np.array([[scalar_profile_sum(
            order, float(mu[r]),
            [(float(coef[r]), c, kind) for coef, c, kind in terms],
            float(si), shift) for si in s] for r in range(len(mu))])

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_shared_grid(self, branch, shift):
        st = self.state()
        s = np.array([0.0, 1e-4, 0.05, 0.3, 0.7, 1.0, 2.5])
        got = _term_table(*_branch_terms(st, branch), s, shift)
        want = self.expected(st, branch, s, shift)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_kernels_only_on_live_rows(self, branch, shift, monkeypatch):
        # one ml_array call holds, in row order, the nonzero points of
        # exactly the rows with a live term, at every c' the live terms
        # read, in order of first read
        st = self.state()
        st.value.c2[0] = st.source.c2[0] = st.slope.c2[0] = 0.0
        st.value.c0 = 0.0   # the zero mode's first live term is the second
        s = np.array([0.3, 0.0, 1e-4, 1.2, 0.0, 0.7])
        calls = []
        real = fracmix.solver.ml_array

        def spy(a, b, z):
            calls.append((a, b, np.array(z)))
            return real(a, b, z)

        monkeypatch.setattr(fracmix.solver, "ml_array", spy)
        _term_table(*_branch_terms(st, branch), s, shift)
        order, mu, terms = _branch_terms(st, branch)
        needs = {}
        for coef, c, kind in terms:
            cc = c - shift
            for r in np.flatnonzero(coef).tolist():
                for b in ((cc,) if kind == "ml" else (cc - 1.0, cc)):
                    needs.setdefault(b, set()).add(r)
        # x-sine k = 1 is dead on both branches
        assert all(2 not in rows for rows in needs.values())
        [(a, bs, z)] = calls
        assert a == order and bs == list(needs)
        want = [-mu[r] * v**order for r in sorted(set().union(*needs.values()))
                for v in s.tolist() if v != 0.0]
        assert np.array_equal(z.ravel(), want)

    def test_one_call_per_block_of_points(self, monkeypatch):
        # K = 300: 600 live rows of 601 (x-sine k = 1 dead) and 120
        # nonzero points, so blocks of at most 2**15 arguments (54 points)
        # make three calls, each at the same c'; the table is the one made
        # a point at a time, bit for bit
        st = random_field(sample_problem(K=300))
        st.value.c2[0] = st.source.c2[0] = st.slope.c2[0] = 0.0
        s = np.concatenate([[0.0], np.linspace(1e-3, 2.0, 120), [0.0]])
        minus = _branch_terms(st, "minus")
        calls = []
        real = fracmix.solver.ml_array

        def spy(a, bs, z):
            calls.append((tuple(bs), np.shape(z)))
            return real(a, bs, z)

        monkeypatch.setattr(fracmix.solver, "ml_array", spy)
        got = _term_table(*minus, s, 1)
        assert [shape for _, shape in calls] == [(600, 54), (600, 54),
                                                 (600, 12)]
        assert all(np.prod(shape) <= 2**15 for _, shape in calls)
        assert len({bs for bs, _ in calls}) == 1
        monkeypatch.undo()
        want = np.column_stack([_term_table(*minus, [v], 1)[:, 0]
                                for v in s.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shift", [0, 1, 2])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_each_power_and_kernel_made_once(self, branch, shift,
                                             monkeypatch):
        # one libm pow map per exponent s^e and one ml_array call per
        # kernel (a, b), exactly those the live terms read
        st = self.state()
        s = np.array([0.0, 1e-4, 0.05, 0.3, 0.7, 1.0, 2.5])
        pows, kernels = [], []
        real_map, real_ml = fracmix.solver._elementwise, fracmix.solver.ml_array

        def spy_map(fn, pts, *args):
            if fn is pow:
                pows.append(*args)
            return real_map(fn, pts, *args)

        def spy_ml(a, bs, z):
            kernels.extend((a, b) for b in bs)
            return real_ml(a, bs, z)

        monkeypatch.setattr(fracmix.solver, "_elementwise", spy_map)
        monkeypatch.setattr(fracmix.solver, "ml_array", spy_ml)
        _term_table(*_branch_terms(st, branch), s, shift)
        order, _, terms = _branch_terms(st, branch)
        live = [(c - shift, kind) for coef, c, kind in terms if coef.any()]
        assert sorted(pows) == sorted({order} | {cc - 1.0 for cc, _ in live})
        assert sorted(kernels) == sorted({
            (order, b) for cc, kind in live
            for b in ((cc,) if kind == "ml" else (cc - 1.0, cc))})

    def test_zero_state_is_zero(self):
        got = _term_table(*_branch_terms(zero_field(sample_problem(K=2)),
                                         "minus"), np.linspace(0.0, 1.0, 4), 2)
        assert got.shape == (5, 4) and not got.any()


class TestTermTableMemory:
    def test_peak_on_a_transmit_grid(self):
        # the upper probes of transmit_residual at K = 48: each row's three
        # offsets make three rescaled profiles on the shared 2000-point unit
        # grid, 291 x 2000 points (4.66 MB a table), every term live.  One
        # row of points per profile, each its offsets times the unit grid,
        # peaks at about 7.6 tables (35 MB); the rescaled profiles at about
        # 5.3 (25 MB).
        prob = sample_problem(K=48)
        fld = random_field(prob)
        table_nbytes = (2 * prob.K + 1) * 3 * 2000 * 8
        tracemalloc.start()
        try:
            _interface_limits(fld, "plus", TRANSMIT_THETA, 1.0 / prob.alpha,
                              prob.alpha - 1.0, prob.alpha, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * table_nbytes, peak / table_nbytes

    def test_frees_its_arrays_on_return(self):
        # a reference cycle left by a table call would hold its arrays, the
        # caller's grid included, until the cycle collector runs
        fld = random_field(sample_problem(K=3))
        gc.collect()
        gc.disable()
        try:
            _term_table(*_branch_terms(fld, "minus"),
                        np.linspace(0.0, 1.0, 9), 1)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestModeValues:
    def test_times_of_both_signs_equal_the_scalar_calls(self):
        # the table of an array of times, t >= 0 on branch 'plus' and t < 0
        # on 'minus', in the order given: column j is the scalar call at
        # ts[j], bit for bit
        fld = random_field(sample_problem(K=4))
        ts = np.array([0.7, -0.3, 0.0, -1.0, 0.2, -0.0, -1e-3])
        table = fld.mode_values(ts)
        assert table.shape == (9, ts.size)
        for j, t in enumerate(ts.tolist()):
            col = fld.mode_values(t)
            assert col.shape == (9,)
            assert np.array_equal(table[:, j].view(np.int64),
                                  col.view(np.int64)), t

    def test_field_values_synthesize_the_table(self):
        fld = random_field(sample_problem(K=3))
        xs, ts = np.linspace(0.0, 1.0, 11), np.array([0.4, -0.6, 0.0])
        table = fld.mode_values(ts)
        assert np.array_equal(fld.eval_u(xs, ts), synthesize(table, xs))
        assert np.array_equal(fld.eval_u(xs, -0.6),
                              synthesize(table[:, 1], xs))
        assert fld.eval_u(0.3, 0.4) == synthesize(table[:, 0], 0.3)


class TestE1Kernel:
    """The solver's unit-family E1 kernel, evaluated through its two-ML
    collapse, holds the 1e-12 envelope on the d1 values the term table
    reaches: the base values and their -1, -2 (time derivatives) and
    -gamma (Caputo) shifts."""

    @pytest.mark.parametrize("nu", [0.7, 1.0, 1.5, 2.0])
    def test_against_mp_series(self, nu):
        # the public e1 is the same collapse over scalar ml calls
        g = 0.5
        for base in (nu + 1.0, nu + 2.0, 2.0 * nu + 1.0):
            for d1 in (base, base - 1.0, base - 2.0, base - g):
                ws = -np.geomspace(0.01, 40.0, 10)
                p = unit_family_params(nu, d1)
                for w, got in zip(ws, _term_column(nu, -ws, 1.0,
                                                   [(d1, "e1")])[0]):
                    expect = e1_unit_series(nu, d1, w)
                    for v in (got, e1(p, w, w)):
                        err = abs(v - expect)
                        assert err <= 1e-12, (nu, d1, w, v, err)


class TestGeneralE1OffSolverPaths:
    def test_solver_paths_never_enter_general_e1(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("public e1 entered")

        monkeypatch.setattr(fracmix.specfun, "e1", forbidden)
        rng = np.random.default_rng(17)

        def coeffs(K):
            return CoefficientSet(rng.normal(), rng.normal(size=K),
                                  rng.normal(size=K))

        for g in (0.5, 1.0):
            prob = sample_problem(K=3, gamma=g)
            solve_inverse(coeffs(3), coeffs(3), prob)
        fld = random_field(sample_problem(K=3))
        fld.mode_values(0.4)
        fld.mode_values(-0.4)
        for branch, t in (("plus", 0.3), ("minus", -0.3)):
            _, d1, d2 = mode_profile(fld, branch, "cos", 2)
            d1(t)
            d2(t)
        caputo_gamma_minus(fld, 2, 0.5, -0.3)


class TestSolveEvaluations:
    @pytest.mark.parametrize("K", [4, 16])
    @pytest.mark.parametrize("g, most", [(0.5, 1), (1.0, 9)])
    def test_one_array_call_per_kernel(self, monkeypatch, K, g, most):
        # every O(K) constant of a solve comes from evaluator calls over
        # all modes at once, at most one per kernel
        calls = []
        real = fracmix.specfun._ml_band

        def spy(a, b, z):
            calls.append(z.size)
            return real(a, b, z)

        monkeypatch.setattr(fracmix.specfun, "_ml_band", spy)
        rng = np.random.default_rng(5)
        phi, psi = (CoefficientSet(rng.normal(), rng.normal(size=K),
                                   rng.normal(size=K)) for _ in range(2))
        solve_inverse(phi, psi, sample_problem(K=K, gamma=g))
        assert 0 < len(calls) <= most
        assert calls == [K] * len(calls)

    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_kernel_calls_are_the_per_mode_ones(self, monkeypatch, g):
        # the constants are term-table columns at s = p or q: one call per
        # column, in this order, over the second parameters its terms read,
        # in order of first read, each at the arguments -mu_k s^nu of the
        # per-mode formulas, mu_k = (2 pi k)**2 by the scalar power, once
        # per term of the column: at gamma < 1 one column at p holds both
        # terms, at gamma = 1 one column at q both q terms and one at p all
        # four p terms
        calls, solves = [], []
        real_ml, real_solve = fracmix.solver.ml_array, np.linalg.solve

        def spy_ml(a, b, z, *rest):
            calls.append((a, b if np.ndim(b) == 0 else tuple(b),
                          np.array(z).tobytes(), rest))
            return real_ml(a, b, z, *rest)

        def spy_solve(mat, rhs):
            solves.append(np.shape(mat))
            return real_solve(mat, rhs)

        monkeypatch.setattr(fracmix.solver, "ml_array", spy_ml)
        monkeypatch.setattr(np.linalg, "solve", spy_solve)
        K = 6
        prob = sample_problem(K=K, gamma=g, p=0.8, q=1.3)
        a, b, p, q = prob.alpha, prob.beta, prob.p, prob.q
        rng = np.random.default_rng(11)
        phi, psi = (CoefficientSet(rng.normal(), rng.normal(size=K),
                                   rng.normal(size=K)) for _ in range(2))
        solve_inverse(phi, psi, prob)
        mus = np.array([(2.0 * math.pi * k) ** 2 for k in range(1, K + 1)])
        zq, zp = (-mus * q**a).tobytes(), (-mus * p**b).tobytes()
        if g < 1.0:
            want = [(b, (2.0, b + 2.0 - 1.0, b + 2.0), zp * 2)]
        else:
            want = [(a, (a + 1.0, 2.0 * a + 1.0 - 1.0, 2.0 * a + 1.0), zq * 2),
                    (b, (2.0, b + 1.0, b + 2.0, 2.0 * b + 1.0 - 1.0,
                         2.0 * b + 1.0), zp * 4)]
        assert calls == [(aa, bb, z, ()) for aa, bb, z in want]
        assert solves == ([] if g < 1.0 else [(K, 2, 2)] * 2)


class TestConvolutionOracles:
    def test_v1k_limit_at_zero(self):
        st = random_field(sample_problem())
        assert v1k_convolution(st, 1, 0.0) == pytest.approx(st.value.c1[0])

    def test_v1k_agreement(self):
        st = random_field(sample_problem(alpha=0.5))
        v1 = mode_profile(st, "plus", "cos", 1)[0]
        for t in (0.2, 0.8):
            assert v1k_convolution(st, 1, t) == pytest.approx(v1(t), abs=1e-7)

    def test_v1k_single_term(self):
        # only v2(0) nonzero isolates the first convolution integral
        prob = sample_problem(alpha=0.7)
        st = zero_field(prob)
        st.value.c2[0] = 1.0
        assert v1k_convolution(st, 1, 0.6) == pytest.approx(
            mode_profile(st, "plus", "cos", 1)[0](0.6), abs=1e-8)

    def test_w_profiles_agreement(self):
        st = random_field(sample_problem(beta=1.5), seed=3)
        w1 = mode_profile(st, "minus", "cos", 1)[0]
        w2 = mode_profile(st, "minus", "xsin", 1)[0]
        for t in (-0.3, -0.6):
            assert w2k_convolution(st, 1, t) == pytest.approx(w2(t), abs=1e-7)
            assert w1k_convolution(st, 1, t) == pytest.approx(w1(t), abs=1e-7)


class TestTransmitAlgebra:
    def test_zero_state(self):
        st = zero_field(sample_problem())
        assert caputo_limit_plus(st, 1) == (0.0, 0.0, 0.0)

    def test_solved_state_satisfies_condition(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.7), ("x-sine", 2, 0.4)])
        psi = TrigPolynomial.from_atoms([("cosine", 2, -0.5), ("x-sine", 1, 0.3)])
        fld = solve_inverse(project(phi, 3), project(psi, 3), prob)
        for k in (1, 2, 3):
            assert caputo_limit_plus(fld, k) == pytest.approx(
                (0.0, 0.0, 0.0), abs=1e-12)

    def test_minus_limits_vanish_for_gamma_lt1(self):
        st = random_field(sample_problem())
        vals = np.array([caputo_gamma_minus(st, 1, 0.5, -eps)
                         for eps in (1e-3, 1e-4, 1e-5)])
        assert np.max(np.abs(vals[-1])) <= np.max(np.abs(vals[0]))
        assert np.max(np.abs(vals[-1])) <= 2e-2

    @pytest.mark.parametrize("component", ["xsin", "zero"])
    def test_g2_matches_numeric_caputo(self, component):
        prob = sample_problem(beta=1.5)
        st = random_field(prob, seed=11)
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
        st = random_field(prob, seed=13)
        k, g, t0 = 1, 0.5, -0.4
        val, _, _ = mode_profile(st, "minus", component, k)
        grid = np.unique(np.concatenate([
            -np.linspace(0.0, 1.0, 2501) ** 2 * prob.p, [t0]]))
        f = SampledFunction(grid, val(grid))
        got = caputo_right(f, FracOrder(g), t0)
        expect = caputo_gamma_minus(st, k, g, t0)[COMPONENT_INDEX[component]]
        assert got == pytest.approx(expect, abs=1e-4)

    def test_perturbed_source_moves_the_limit(self):
        st = zero_field(sample_problem())
        base = caputo_limit_plus(st, 1)[2]
        st.source.c2[0] += 0.01
        assert abs(caputo_limit_plus(st, 1)[2] - base) == pytest.approx(0.01)


class TestModeODEResiduals:
    @pytest.mark.parametrize("component,k", [("xsin", 1), ("cos", 2)])
    def test_plus_branch(self, component, k):
        prob = sample_problem(alpha=0.7, K=3)
        st = random_field(prob, seed=5)
        val, d1, _ = mode_profile(st, "plus", component, k)
        v2 = mode_profile(st, "plus", "xsin", k)[0]
        grid = np.unique(np.concatenate(
            [np.linspace(0.0, 1.0, 2501) ** 3 * prob.q, [prob.q]]))
        f = SampledFunction(grid, val(grid), d1=np.concatenate(
            [[0.0], d1(grid[1:])]))
        lam = 2 * math.pi * k
        mu = lam**2
        i = k - 1
        rhs = {"xsin": lambda t: st.source.c2[i],
               "cos": lambda t: st.source.c1[i] + 2 * lam * v2(t)}[component]
        for t in np.linspace(0.12, 0.92, 10):
            resid = (caputo_left(f, FracOrder(prob.alpha), t)
                     + mu * val(t) - rhs(t))
            assert abs(resid) <= 1e-3, (component, k, t, resid)

    @pytest.mark.parametrize("component,k", [("xsin", 1), ("cos", 1)])
    def test_minus_branch(self, component, k):
        prob = sample_problem(beta=1.5, K=3)
        st = random_field(prob, seed=6)
        val, _, d2 = mode_profile(st, "minus", component, k)
        w2 = mode_profile(st, "minus", "xsin", k)[0]
        grid = np.unique(np.concatenate(
            [-np.linspace(0.0, 1.0, 2501) ** 3 * prob.p, [-prob.p]]))
        d2_vals = np.concatenate([d2(grid[:-1]), [0.0]])
        f = SampledFunction(grid, val(grid), d2=d2_vals)
        lam = 2 * math.pi * k
        mu = lam**2
        i = k - 1
        rhs = {"xsin": lambda t: st.source.c2[i],
               "cos": lambda t: st.source.c1[i] + 2 * lam * w2(t)}[component]
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
        assert fld.value.c0 == 0.0 and fld.slope.c0 == 0.0
        assert np.all(fld.slope.c1 == 0.0)
        assert np.all(fld.slope.c2 == 0.0)

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
            assert np.max(np.abs(fld.mode_values(t) - ref)) <= 1e-9

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
        assert np.max(np.abs(fld.eval_f(xs)
                             + trig_deriv(phi, xs, 2))) <= 1e-10

    def test_denominator_zero_raises(self):
        # E_{beta,2} has a real zero reachable for beta near 2; scan p to
        # bracket it, then solve there
        beta, k = 1.95, 1
        mu = (2 * math.pi) ** 2

        def den(p):
            return ml(MLArgs(beta, 2.0, -mu * p**beta))

        ps = np.linspace(0.3, 0.9, 400)
        vals = ml_array(beta, 2.0, -mu * ps**beta)
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

    def test_exact_zero_at_integer_order(self):
        # E_{2,2}(-x^2) = sin x / x, and x = lambda_k p = 1.2 pi k at
        # p = 0.6 is a multiple of pi first at k = 5; the reported value
        # is the closed form's rounding
        prob = sample_problem(K=12, beta=2.0, p=0.6)
        z = CoefficientSet.zeros(prob.K)
        with pytest.raises(DivisionError, match="mode k=5 ") as exc:
            solve_inverse_gamma_lt1(z, z, prob)
        assert exc.value.k == 5 and abs(exc.value.value) < 1e-15

    def test_lowest_failing_mode_reported(self, monkeypatch):
        # modes 2 and 4 fail the check, mode 4 by the smaller value; the
        # kernels come in the shape of the one call at p, one row per
        # second parameter of the arguments, which hold the modes once per
        # term of the column, E_{b,2} as below and zero at the others; at
        # p = 0.5 the reported p E_{b,2} / p is E_{b,2} exactly
        denoms = np.array([0.3, -4e-11, 0.2, 1e-12, 0.1])
        prob = sample_problem(K=5, beta=1.6, p=0.5)
        monkeypatch.setattr(
            fracmix.solver, "ml_array", lambda order, bs, z: np.array([
                np.resize(denoms if c == 2.0 else 0.0, z.shape) for c in bs]))
        z = CoefficientSet.zeros(5)
        with pytest.raises(DivisionError) as exc:
            solve_inverse_gamma_lt1(z, z, prob)
        assert exc.value.k == 2
        assert type(exc.value.value) is float and exc.value.value == -4e-11
        assert str(exc.value) == ("E_(beta,2) vanishes at mode k=2 "
                                  "(beta=1.6, p=0.5): -4e-11")

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
        assert fld.value.c0 == pytest.approx(
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
        assert fld.slope.c2[0] == pytest.approx(w2p, rel=1e-12)
        assert fld.value.c2[0] == pytest.approx(
            phi.c2[0] - term_q * w2p, rel=1e-12)
        assert fld.source.c2[0] == pytest.approx(
            w2p + mu * fld.value.c2[0], rel=1e-12)

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
        st = fld
        for k in range(1, prob.K + 1):
            l0, l1, l2 = caputo_limit_plus(st, k)
            assert l0 == pytest.approx(st.slope.c0, abs=1e-12)
            assert l1 == pytest.approx(st.slope.c1[k - 1], abs=1e-10)
            assert l2 == pytest.approx(st.slope.c2[k - 1], abs=1e-10)

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
        zs = -mu * ps**b
        vals = (ps * ml_array(b, 2.0, zs) + ps**b * ml_array(b, b + 1.0, zs)
                - q**a * ml(MLArgs(a, a + 1.0, -mu * q**a)))
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

    def test_lowest_failing_mode_reported(self, monkeypatch):
        # with p = q = 1 each Delta_k is E_{b,2} + E_{b,b+1} - E_{a,a+1};
        # the kernels below make it 2^-40 at k = 2 and 0 at k = 4, both
        # within tolerance, and 0.2 elsewhere; each kernel comes in the
        # shape of its call, one row per second parameter of the arguments,
        # which hold the modes once per term of the column, and is zero at
        # the second parameters not listed
        prob = sample_problem(K=5, gamma=1.0)
        a, b = prob.alpha, prob.beta
        values = {(a, a + 1.0): np.ones(5), (b, 2.0): np.full(5, 0.5),
                  (b, b + 1.0): np.array([0.7, 0.5 + 2.0**-40, 0.7, 0.5,
                                          0.7])}
        monkeypatch.setattr(
            fracmix.solver, "ml_array", lambda order, bs, z: np.array([
                np.resize(values.get((order, c), 0.0), z.shape) for c in bs]))
        z = CoefficientSet.zeros(5)
        with pytest.raises(SolvabilityError) as exc:
            solve_inverse_gamma_eq1(z, z, prob)
        assert exc.value.k == 2
        assert type(exc.value.delta) is float
        assert exc.value.delta == 2.0**-40
        assert str(exc.value) == (
            f"Delta_2 = {2.0**-40} vanishes within tolerance "
            "(p=1.0, q=1.0, alpha=0.7, beta=1.5)")

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
        fld = forward_state(prob, z, z, z)
        xs = np.linspace(0.0, 1.0, 50)
        for t in (-0.9, 0.0, 0.7):
            assert np.max(np.abs(fld.eval_u(xs, t))) == 0.0

    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_round_trip_recovers_source(self, gamma_):
        prob = sample_problem(gamma=gamma_, K=5)
        u0, slope = self._data(prob.K)
        fld0, phi_c, psi_c = manufacture(prob, u0, slope)
        fld1 = solve_inverse(phi_c, psi_c, prob)
        assert max_abs_diff(fld1.source, fld0.source) <= 1e-8
        assert abs(fld1.value.c0 - fld0.value.c0) <= 1e-9
        assert np.max(np.abs(fld1.slope.c1
                             - fld0.slope.c1)) <= 1e-8
        assert np.max(np.abs(fld1.slope.c2
                             - fld0.slope.c2)) <= 1e-8

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
        plus, minus = (profile_table(fld, b, [0.0])[:, 0]
                       for b in ("plus", "minus"))
        jump = np.max(np.abs(synthesize(plus, xs) - synthesize(minus, xs)))
        assert jump == 0.0
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
        tripled = solve_inverse(scaled(c1, 3.0), scaled(c2, 3.0), prob)
        assert max_abs_diff(tripled.source, scaled(base.source, 3.0)) <= (
            1e-12 * max(1.0, np.max(np.abs(base.source.c2)) * 3))
        assert np.max(np.abs(tripled.slope.c1
                             - 3.0 * base.slope.c1)) <= 1e-11

    def test_periodic_boundary_identities(self):
        prob = sample_problem(K=3)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.5), ("x-sine", 1, 0.2)])
        fld = solve_inverse(project(phi, 3), project(phi, 3), prob)
        for t in (-0.8, -0.1, 0.0, 0.5, 1.0):
            assert fld.eval_u(0.0, t) == pytest.approx(fld.eval_u(1.0, t),
                                                       abs=1e-12)
