"""Special-function evaluators: examples, identities, and routing behavior."""

from __future__ import annotations

import gc
import importlib
import math
import os
import re
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fracmix.errors import CancellationError
from fracref import e1_unit_ref, ml_ref
from gridutil import recurrence_grid
from oracles import (
    ConstraintError,
    E1Params,
    TermBudgetError,
    e1_unit_series,
    e1_via_integral,
    lemma22_residual,
    ml4,
)
from fracmix import specfun
from fracmix.specfun import MLArgs, e1, ml, ml_array, unit_family_params

# frozen from an independent 220-digit plain summation of the series
ML_HALF_1_M2 = 0.2553956763105057438651
ML_16_26_M10 = 0.1203701006239658783604


def ml_oracle(a: float, b: float, z: float, dps: int = 220) -> float:
    """Independent oracle: term-by-term summation at >= 200 digits."""
    with mp.workdps(dps):
        a_, b_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s = mp.mpf(0)
        pk = mp.mpf(1)
        tiny = 0
        for k in range(200000):
            w = a_ * k + b_
            t = mp.mpf(0) if (w <= 0 and w == mp.floor(w)) else z_**k / mp.gamma(w)
            s += t
            pk = max(pk, abs(t))
            if abs(t) < mp.mpf(10) ** (-dps) * pk:
                tiny += 1
                if tiny >= 3 and k > 3:
                    break
            else:
                tiny = 0
        return float(s)


def rgamma(z: float) -> float:
    """1/Gamma(z), the evaluator's value of E_{a,z}(0)."""
    return specfun._ml_at_zero(z)


class TestGamma:
    # the package's one Gamma: 1/Gamma, E_{a,b}(0)
    def test_int_values(self):
        assert rgamma(1.0) == pytest.approx(1.0, abs=1e-15)
        assert rgamma(5.0) == pytest.approx(1.0 / 24.0, rel=1e-14)

    def test_half(self):
        assert rgamma(0.5) == pytest.approx(1.0 / 1.772453850905516, rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_pole(self, z):
        # 1/Gamma vanishes at the poles
        assert rgamma(z) == 0.0

    def test_recurrence(self):
        for z in np.linspace(0.1, 50.0, 197):
            assert rgamma(z) == pytest.approx(z * rgamma(z + 1.0), rel=1e-13)

    def test_largest_finite_value(self):
        assert rgamma(171.6) == pytest.approx(1.0 / 1.5858969096672565e308,
                                              rel=1e-14)

    @pytest.mark.parametrize("z, expect", [
        (171.7, math.inf), (200.0, math.inf), (1e300, math.inf),
        (math.inf, math.inf), (1e-310, math.inf), (-1e-310, -math.inf)])
    def test_overflow_is_infinite(self, z, expect):
        # where Gamma passes the float range, |1/Gamma| is below the
        # smallest normal float and the sign is Gamma's
        v = rgamma(z)
        assert abs(v) < 2.2250738585072014e-308
        assert math.copysign(1.0, v) == math.copysign(1.0, expect)

    def test_large_negative_is_refused(self):
        # Gamma(-200.5) is below the float range: |1/Gamma| past it, which
        # the band refuses with the arguments named
        assert math.isnan(rgamma(-200.5))
        with pytest.raises(CancellationError,
                           match=r"a=0\.5, b=-200\.5, z=0\.0\)"):
            ml_array(0.5, -200.5, [0.0])


class TestML:
    def test_exponential(self):
        assert ml(MLArgs(1.0, 1.0, 1.0)) == pytest.approx(math.e, abs=1e-12)

    def test_only_first_term_at_zero(self):
        assert ml(MLArgs(0.5, 1.5, 0.0)) == pytest.approx(1.0 / math.gamma(1.5), abs=1e-14)

    def test_negative_argument_oracle(self):
        assert ml(MLArgs(0.5, 1.0, -2.0)) == pytest.approx(ML_HALF_1_M2, abs=1e-12)

    @pytest.mark.parametrize("a,b,z", [
        (0.7, 1.0, -30.0),    # the contour, no pole
        (0.7, 1.7, -55.0),
        (1.5, 2.0, -300.0),   # the contour and the pole pair's residues
        (1.9, 1.0, -2000.0),
        (0.3, 1.3, -6.0),
        (2.0, 1.0, -400.0),   # order exactly two: the closed form
        (2.0, 2.0, -169.0),
    ])
    def test_routing_consistency(self, a, b, z):
        # oracle feasible because |z|**(1/a) stays modest on these points
        assert ml(MLArgs(a, b, z)) == pytest.approx(ml_oracle(a, b, z), abs=2e-12)

    @pytest.mark.parametrize("a,b,z", [
        (0.001, -0.5, 0.999),   # 2.85e-11 off when three small terms ended it
        (0.01, 0.5, 0.95),
        (0.005, 1.5, 0.97),
    ])
    def test_slow_geometric_tail(self, a, b, z):
        # the series' terms fall at a ratio near z for thousands of k, and
        # E is large (tens to hundreds): a value within 1e-12 of the
        # series, or a refusal that names the argument where the contour's
        # rounding bound, which grows with the value, cannot certify one
        try:
            got = ml(MLArgs(a, b, z))
        except CancellationError as exc:
            assert str(exc) == f"ml band misses 1e-12 (a={a}, b={b}, z={z})"
            return
        assert got == ml_ref(a, b, z)
        assert got == pytest.approx(ml_oracle(a, b, z, dps=30), abs=1e-12)

    def test_order_two_closed_forms(self):
        z = -169.0
        assert ml(MLArgs(2.0, 1.0, z)) == pytest.approx(math.cos(13.0), abs=1e-12)
        assert ml(MLArgs(2.0, 2.0, z)) == pytest.approx(math.sin(13.0) / 13.0, abs=1e-12)

    def test_recurrence_identity_grid(self):
        # E_{a,b}(z) - z E_{a,a+b}(z) = 1/Gamma(b)
        for a in (0.3, 0.5, 0.8, 1.0, 1.5, 1.9):
            for b in (1.0, 2.0, a + 1.0):
                zs = recurrence_grid(a)
                rs = ml_array(a, b, zs) - zs * ml_array(a, a + b, zs) - 1.0 / math.gamma(b)
                for z, r in zip(zs, rs):
                    assert abs(r) <= 1e-9, (a, b, z, r)

    def test_decay_bound_monotone(self):
        # |E(z)|*(1+|z|) stays bounded as z -> -inf (no growth in the tail)
        for a, b in ((0.5, 1.0), (0.8, 1.8), (1.5, 2.0), (1.9, 1.0)):
            zs = -np.logspace(0, 4, 25)
            vals = np.abs(ml_array(a, b, zs)) * (1 + np.abs(zs))
            assert np.all(np.isfinite(vals))
            assert vals[-6:].max() <= vals.max() + 1e-12, (a, b)

    def test_negative_second_parameter(self):
        # b <= 0 is reachable through derivative downshifts
        assert ml(MLArgs(1.5, 0.0, -7.0)) == pytest.approx(
            ml_oracle(1.5, 0.0, -7.0), abs=1e-12)
        assert ml(MLArgs(1.0, 0.0, -3.0)) == pytest.approx(
            -3.0 * math.exp(-3.0), abs=1e-13)  # E_{1,0}(z) = z e^z

    def test_overflow_past_float_range(self):
        # e^800, and the residue e**(30**2.5): past the float range, the
        # float value of E is infinite
        assert ml(MLArgs(1.0, 1.0, 800.0)) == math.inf
        assert ml(MLArgs(1.0, 0.0, 800.0)) == math.inf   # z e^z
        assert ml(MLArgs(0.4, 1.0, 30.0)) == math.inf

    def test_cancellation_error_beyond_cap(self):
        # the residues' long-double phase at |zeta| = sqrt(1e11) cannot
        # certify the band value
        with pytest.raises(CancellationError):
            ml(MLArgs(2.0, -0.5, -1e11))

    def test_deriv_zero_order_matches(self):
        # the order-zero derivative is the function: the scalar reference
        # that the closed-form derivative oracles evaluate
        assert ml_ref(0.8, 1.2, -3.0) == pytest.approx(
            ml(MLArgs(0.8, 1.2, -3.0)), abs=1e-13)

    @pytest.mark.parametrize("a", [1e-300, 1e-3])
    def test_tiny_order_below_unit_argument(self, a):
        # b < 0, |z| < 1: the terms shrink from the first on, about
        # 1/(Gamma(b) (1 - z)) for a tiny order
        assert ml(MLArgs(a, -0.5, 0.5)) == pytest.approx(
            ml_oracle(a, -0.5, 0.5), abs=1e-12)


class TestML4:
    def test_pochhammer_cancellation_reduces(self):
        assert ml4(1, 1, 0.7, 1.0, 1, 1, -3.0) == pytest.approx(
            ml(MLArgs(0.7, 1.0, -3.0)), abs=1e-13)

    def test_origin(self):
        assert ml4(1, 1, 1.0, 1.0, 1, 1, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_oracle_value(self):
        assert ml4(1, 1, 1.6, 2.6, 1, 1, -10.0) == pytest.approx(
            ML_16_26_M10, abs=1e-12)

    def test_reduction_grid(self):
        zs = np.concatenate([-np.logspace(-1, 2, 8), np.linspace(0.5, 4.0, 3)])
        for a in (0.3, 0.8, 1.5, 1.9):
            for b in (1.0, 2.0, a + 1.0):
                for z, v in zip(zs, ml_array(a, b, zs)):
                    assert ml4(1, 1, a, b, 1, 1, z) == pytest.approx(
                        v, abs=1e-11)

    def test_general_parameters_against_direct_sum(self):
        def oracle(g1, a1, a2, d1, a3, d2, x, dps=80):
            with mp.workdps(dps):
                s = mp.mpf(0)
                for m_ in range(2000):
                    t = (mp.gamma(g1 + a1 * m_) / mp.gamma(g1) * mp.mpf(x) ** m_
                         / mp.gamma(d1 + a2 * m_) / mp.gamma(d2 + a3 * m_))
                    s += t
                    if m_ > 10 and abs(t) < mp.mpf(10) ** (-70):
                        break
                return float(s)

        got = ml4(2.0, 1.0, 0.9, 1.4, 1.2, 1.1, -2.5)
        assert got == pytest.approx(oracle(2.0, 1.0, 0.9, 1.4, 1.2, 1.1, -2.5), abs=1e-12)

    def test_divergent_parameters_raise(self):
        # Pochhammer growth outpaces both gamma denominators
        with pytest.raises(TermBudgetError):
            ml4(1.0, 2.0, 0.5, 1.0, 0.5, 1.0, -3.0)


class TestE1:
    def test_origin(self):
        # 1/Gamma(d1) with its sign, and zero at the poles
        for d1, expect in ((1.7, 1.0 / math.gamma(1.7)),
                           (-0.3, 1.0 / math.gamma(-0.3)),
                           (0.0, 0.0), (-1.0, 0.0)):
            assert e1(unit_family_params(0.6, d1), 0.0, 0.0) == pytest.approx(
                expect, abs=1e-14), d1

    def test_shift_identity_collapses_to_ml(self):
        a, w = 0.8, -4.0
        lhs = (e1(unit_family_params(a, a + 1.0), w, w)
               - w * e1(unit_family_params(a, 2 * a + 1.0), w, w))
        assert lhs == pytest.approx(ml(MLArgs(a, a + 1.0, w)), abs=1e-11)

    def test_paper_case_vs_integral(self):
        p = unit_family_params(1.5, 2.5)
        assert e1(p, -9.0, -9.0) == pytest.approx(
            e1_via_integral(p, 1.5, 1.0, -9.0, -9.0), abs=1e-9)

    def test_collapsed_route_matches_double_series(self):
        p = unit_family_params(0.7, 1.7)
        w = -20.0
        direct = e1(p, w, w)
        assert direct == pytest.approx(e1_unit_series(0.7, 1.7, w), abs=1e-11)

    def test_invalid_params(self):
        # the eleven-parameter type of the test oracles checks its orders
        with pytest.raises(ValueError):
            E1Params(1, 1, 1, 1, 1.0, -0.5, 0.5, 1, 1, 1, 1)

    def test_cancellation_error_non_collapsible(self):
        # only the unit family at equal arguments is evaluated
        with pytest.raises(ValueError, match="unit family"):
            e1(unit_family_params(0.4, 1.5), -9000.0, -8999.0)


class TestE1Integral:
    def test_origin_beta_weight(self):
        a = 0.6
        p = unit_family_params(a, a + 1.0)
        expect = 1.0 / (math.gamma(a + 1.0) * math.gamma(1.0) * math.gamma(1.0))
        assert e1_via_integral(p, a, 1.0, 0.0, 0.0) == pytest.approx(expect, abs=1e-11)

    def test_matches_series_at_minus_one(self):
        a = 0.6
        p = unit_family_params(a, a + 1.0)
        assert e1_via_integral(p, a, 1.0, -1.0, -1.0) == pytest.approx(
            e1(p, -1.0, -1.0), abs=1e-10)

    def test_rho_split_independence(self):
        a = 0.6
        p = unit_family_params(a, a + 1.0)
        v1 = e1_via_integral(p, 0.5 * (a + 1.0), 0.5 * (a + 1.0), -2.0, -3.0, abs_tol=1e-11)
        v2 = e1_via_integral(p, a, 1.0, -2.0, -3.0, abs_tol=1e-11)
        assert v1 == pytest.approx(v2, abs=1e-10)

    def test_constraint_error(self):
        p = unit_family_params(0.6, 1.6)
        with pytest.raises(ConstraintError):
            e1_via_integral(p, 1.0, 1.0, -1.0, -1.0)

    @pytest.mark.parametrize("nu,d1", [(0.7, 1.7), (0.7, 2.4), (1.5, 2.5),
                                       (1.5, 3.5), (1.5, 4.0), (2.0, 3.0)])
    def test_agreement_on_solver_families(self, nu, d1):
        p = unit_family_params(nu, d1)
        for w in (-1.0, -30.0, -1000.0, -10000.0):
            lhs = e1(p, w, w)
            rhs = e1_via_integral(p, d1 - 1.0, 1.0, w, w)
            assert lhs == pytest.approx(rhs, abs=1e-8), (nu, d1, w)


class TestLemma22:
    def test_zero_argument(self):
        assert lemma22_residual(0.5, 0.0) <= 1e-14

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8, 1.5])
    @pytest.mark.parametrize("w", [-0.5, -5.0, -25.0, -80.0, -100.0])
    def test_residual_grid(self, a, w):
        assert lemma22_residual(a, w) <= 1e-9

    def test_oracle_on_feasible_subdomain(self):
        # the plain-summation oracles carry 220 and 250 digits, enough for
        # the ~213 nats that |w|**(1/a) reaches here
        a, w = 0.3, -5.0
        p1 = unit_family_params(a, a + 1.0)
        p2 = unit_family_params(a, 2 * a + 1.0)
        assert e1(p1, w, w) == pytest.approx(e1_unit_series(a, a + 1.0, w),
                                             abs=1e-12)
        assert e1(p2, w, w) == pytest.approx(
            e1_unit_series(a, 2 * a + 1.0, w), abs=1e-12)
        assert ml(MLArgs(a, a + 1.0, w)) == pytest.approx(
            ml_oracle(a, a + 1.0, w), abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lemma22_residual(2.5, -1.0)
        with pytest.raises(ValueError):
            lemma22_residual(0.5, 1.0)


class TestEvaluatorState:
    def test_band_calls_leave_no_allocation(self):
        # contours at three orders, with and without residues; a per-(a, b,
        # m) cache of their node factors would outlive the calls
        z = np.array([-30.0, -2.0, 0.5, 3.0])
        ml_array(1.2, 0.7, z)
        gc.collect()
        tracemalloc.start()
        orders = (0.4, 1.4, 1.9)
        try:
            got = [ml_array(a, 0.7, z) for a in orders]
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 64 * 1024
        for a, values in zip(orders, got):
            assert values.tolist() == [ml_ref(a, 0.7, v) for v in z.tolist()]

    def test_no_module_reads_the_environment(self):
        # the package's results depend on its arguments alone
        modules = sorted(Path(specfun.__file__).parent.glob("*.py"))
        assert len(modules) >= 8
        for path in modules:
            assert not re.search(r"\b(environ|getenv)\b",
                                 path.read_text(encoding="utf-8")), path.name


# x over the band the integer-order workloads sample, plus the points
# x = (2 pi k)^2 where E_{2,3}(-x) = (1 - cos sqrt(x)) / x cancels to ~1e-34
CLOSED_FORM_XS = np.concatenate([np.logspace(0.0, 4.0, 81),
                                 (2.0 * np.pi * np.arange(1, 17)) ** 2])


# the zeros of cos sqrt(x) over the same range, where E_{2,1}(-x) and the
# E_{2,b} below it are about 1e-16 of their scale
COS_ZERO_XS = (np.pi * (np.arange(32) + 0.5)) ** 2
INT_ORDER_PAIRS = [(1, b) for b in range(0, 4)] + [(2, b) for b in range(-1, 6)]


def ml_int_series(a: int, b: int, z: float) -> float:
    """E_{a,b}(z) at integral a >= 1 and b and z < 0, by its series in exact
    integer fixed point at |z|**(1/a)/ln 10 + 80 digits, rounded once.

    The digits are sized from the peak term, about exp(|z|**(1/a)), so the
    sum keeps 80 digits below it.  Each term comes from the one before by
    |z| / ((a*k + b)...(a*k + b + a - 1)), truncated, and the sum stops at
    the first term past the peak that truncates to zero."""
    num, den = (-z).as_integer_ratio()
    bits = math.ceil(((-z) ** (1.0 / a) / math.log(10.0) + 80)
                     * math.log2(10.0))
    k = max(0, -((b - 1) // a))   # the first k with a*k + b >= 1
    u = (num**k << bits) // (den**k * math.factorial(a * k + b - 1))
    s = 0
    while u:
        s += -u if k & 1 else u
        w = a * k + b
        u = u * num // (den * math.prod(range(w, w + a)))
        k += 1
    return s / (1 << bits)


class TestIntegerOrderClosedForms:
    @pytest.mark.parametrize("a,b,form", [
        (1.0, 1.0, lambda x: math.exp(-x)),
        (2.0, 1.0, lambda x: math.cos(math.sqrt(x))),
        (2.0, 2.0, lambda x: math.sin(math.sqrt(x)) / math.sqrt(x)),
        (2.0, 3.0, lambda x: 2.0 * math.sin(0.5 * math.sqrt(x)) ** 2 / x),
    ], ids=["E11", "E21", "E22", "E23"])
    def test_closed_form(self, a, b, form):
        for x, got in zip(CLOSED_FORM_XS.tolist(),
                          ml_array(a, b, -CLOSED_FORM_XS)):
            assert abs(got - form(x)) <= 1e-12, (a, b, x, got, form(x))

    @pytest.mark.parametrize("a,b", INT_ORDER_PAIRS)
    def test_band_path_is_the_rounded_series(self, a, b):
        # the band's long-double closed form at every x, certified, and
        # within its own error bound plus 4 ulp of max(1, |E|) of the float
        # rounding of the series (at a = 1 up to x = 2700, past which the
        # series keeps 10**4 bits a term)
        eps = np.finfo(float).eps
        xs = np.concatenate([CLOSED_FORM_XS, COS_ZERO_XS])
        (got,), (certified,) = specfun._ml_band(float(a), [float(b)], -xs)
        assert certified.all()
        _, bound = specfun._ml_int_order(a, b, -xs)
        for x, v, e in zip(xs.tolist(), got.tolist(), bound.tolist()):
            if a == 1 and x > 2700.0:
                continue
            want = ml_int_series(a, b, -x)
            assert abs(v - want) <= e + 4.0 * eps * max(1.0, abs(want)), (
                a, b, x, v, want, e)


class TestPolicy:
    def test_mlargs_validation(self):
        # ml_array checks the arguments MLArgs carries
        with pytest.raises(ValueError, match="alpha must be positive"):
            ml(MLArgs(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="z must be finite"):
            ml(MLArgs(0.5, 1.0, math.inf))

    def test_default_policy_fields(self):
        # the fixed accuracy envelope of every evaluation
        assert specfun._ABS_TOL == 1e-12


class TestBenchProbeImports:
    def test_probe_names_resolve_and_run(self, monkeypatch):
        # the bench probes import their specfun names at module load; a
        # removed or renamed name fails here
        bench = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
        monkeypatch.syspath_prepend(os.path.abspath(bench))
        probes = importlib.import_module("probes")
        workloads = importlib.import_module("workloads")
        for w in workloads.WORKLOADS.values():
            p = probes.unit_family_params(w.beta, w.beta + 1.0)
            assert probes.e1(p, -1.0, -1.0) == e1_unit_ref(w.beta, w.beta + 1.0,
                                                           -1.0)
            assert probes.ml(probes.MLArgs(w.alpha, 1.0, -0.5)) == ml_ref(
                w.alpha, 1.0, -0.5)
