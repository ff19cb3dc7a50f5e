"""Special-function evaluators: examples, identities, and routing behavior."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from fracmix.errors import (
    CancellationError,
    ConstraintError,
    ConvergenceError,
    PoleError,
)
from gridutil import recurrence_grid
from fracmix import specfun
from fracmix.specfun import (
    DEFAULT_POLICY,
    E1Params,
    MLArgs,
    SummationPolicy,
    e1,
    e1_via_integral,
    gamma,
    lemma22_residual,
    ml,
    ml4,
    ml_deriv,
    unit_family_params,
)

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


class TestGamma:
    def test_int_values(self):
        assert gamma(1.0) == pytest.approx(1.0, abs=1e-15)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-13)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_pole(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    def test_recurrence(self):
        for z in np.linspace(0.1, 50.0, 197):
            assert gamma(z + 1.0) == pytest.approx(z * gamma(z), rel=1e-13)


class TestML:
    def test_exponential(self):
        assert ml(MLArgs(1.0, 1.0, 1.0)) == pytest.approx(math.e, abs=1e-12)

    def test_only_first_term_at_zero(self):
        assert ml(MLArgs(0.5, 1.5, 0.0)) == pytest.approx(1.0 / gamma(1.5), abs=1e-14)

    def test_negative_argument_oracle(self):
        assert ml(MLArgs(0.5, 1.0, -2.0)) == pytest.approx(ML_HALF_1_M2, abs=1e-12)

    @pytest.mark.parametrize("a,b,z", [
        (0.7, 1.0, -30.0),    # mpmath fallback band
        (0.7, 1.7, -55.0),
        (1.5, 2.0, -300.0),   # asymptotic band, exponential pair present
        (1.9, 1.0, -2000.0),
        (0.3, 1.3, -6.0),
        (2.0, 1.0, -400.0),   # order exactly two: series route only
        (2.0, 2.0, -169.0),
    ])
    def test_routing_consistency(self, a, b, z):
        # oracle feasible because |z|**(1/a) stays modest on these points
        assert ml(MLArgs(a, b, z)) == pytest.approx(ml_oracle(a, b, z), abs=2e-12)

    def test_order_two_closed_forms(self):
        z = -169.0
        assert ml(MLArgs(2.0, 1.0, z)) == pytest.approx(math.cos(13.0), abs=1e-12)
        assert ml(MLArgs(2.0, 2.0, z)) == pytest.approx(math.sin(13.0) / 13.0, abs=1e-12)

    def test_recurrence_identity_grid(self):
        # E_{a,b}(z) - z E_{a,a+b}(z) = 1/Gamma(b)
        for a in (0.3, 0.5, 0.8, 1.0, 1.5, 1.9):
            for b in (1.0, 2.0, a + 1.0):
                for z in recurrence_grid(a):
                    r = ml(MLArgs(a, b, z)) - z * ml(MLArgs(a, a + b, z)) - 1.0 / gamma(b)
                    assert abs(r) <= 1e-9, (a, b, z, r)

    def test_decay_bound_monotone(self):
        # |E(z)|*(1+|z|) stays bounded as z -> -inf (no growth in the tail)
        for a, b in ((0.5, 1.0), (0.8, 1.8), (1.5, 2.0), (1.9, 1.0)):
            zs = -np.logspace(0, 4, 25)
            vals = np.array([abs(ml(MLArgs(a, b, z))) * (1 + abs(z)) for z in zs])
            assert np.all(np.isfinite(vals))
            assert vals[-6:].max() <= vals.max() + 1e-12, (a, b)

    def test_negative_second_parameter(self):
        # b <= 0 is reachable through derivative downshifts
        assert ml(MLArgs(1.5, 0.0, -7.0)) == pytest.approx(
            ml_oracle(1.5, 0.0, -7.0), abs=1e-12)
        assert ml(MLArgs(1.0, 0.0, -3.0)) == pytest.approx(
            -3.0 * math.exp(-3.0), abs=1e-13)  # E_{1,0}(z) = z e^z

    def test_overflow_past_float_range(self):
        # e^800: the float series overflows, the high-precision sum does not
        assert ml(MLArgs(1.0, 1.0, 800.0)) == math.inf
        assert ml(MLArgs(1.0, 0.0, 800.0)) == math.inf   # z e^z

    def test_convergence_error(self):
        # positive axis has no asymptotic shortcut, so the term budget binds
        with pytest.raises(ConvergenceError):
            ml(MLArgs(0.4, 1.0, 30.0), SummationPolicy(max_terms=10))

    def test_cancellation_error_beyond_cap(self):
        # no asymptotic route near order two, and the needed precision
        # exceeds the fallback cap
        with pytest.raises((CancellationError, ConvergenceError)):
            ml(MLArgs(1.99, 1.0, -1e9))

    def test_deriv_zero_order_matches(self):
        assert ml_deriv(0.8, 1.2, -3.0, 0) == pytest.approx(
            ml(MLArgs(0.8, 1.2, -3.0)), abs=1e-13)

    def test_deriv_first_order_fd(self):
        h = 1e-6
        fd = (ml(MLArgs(0.8, 1.2, -3.0 + h)) - ml(MLArgs(0.8, 1.2, -3.0 - h))) / (2 * h)
        assert ml_deriv(0.8, 1.2, -3.0, 1) == pytest.approx(fd, abs=1e-8)


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
                for z in zs:
                    assert ml4(1, 1, a, b, 1, 1, z) == pytest.approx(
                        ml(MLArgs(a, b, z)), abs=1e-11)

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
        with pytest.raises(ConvergenceError):
            ml4(1.0, 2.0, 0.5, 1.0, 0.5, 1.0, -3.0)


class TestE1:
    def test_origin(self):
        p = E1Params(1, 1, 1, 1, 1.7, 0.6, 0.6, 1.2, 1.0, 1.4, 1.0)
        expect = 1.0 / (gamma(1.7) * gamma(1.2) * gamma(1.4))
        assert e1(p, 0.0, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_shift_identity_collapses_to_ml(self):
        a, w = 0.8, -4.0
        lhs = (e1(unit_family_params(a, a + 1.0), w, w)
               - w * e1(unit_family_params(a, 2 * a + 1.0), w, w))
        assert lhs == pytest.approx(ml(MLArgs(a, a + 1.0, w)), abs=1e-11)

    def test_paper_case_vs_integral(self):
        p = unit_family_params(1.5, 2.5)
        assert e1(p, -9.0, -9.0) == pytest.approx(
            e1_via_integral(p, 1.5, 1.0, -9.0, -9.0), abs=1e-9)

    def test_block_swap_symmetry(self):
        p = E1Params(2.0, 1.0, 1.5, 1.0, 2.2, 0.9, 0.7, 1.1, 1.0, 1.3, 1.0)
        for x, y in ((-1.2, -0.7), (-0.3, -2.0), (0.4, -0.9)):
            assert e1(p, x, y) == pytest.approx(e1(p.swapped(), y, x), abs=1e-11)

    def test_collapsed_route_matches_double_series(self):
        # same value whether the anti-diagonal sum or the exact collapse runs
        p = unit_family_params(0.7, 1.7)
        w = -20.0
        direct = e1(p, w, w)

        def truth(dps=140, smax=600):
            with mp.workdps(dps):
                tot = mp.mpf(0)
                for s in range(smax):
                    blk = sum(mp.mpf(w) ** s / mp.gamma(mp.mpf(p.delta1)
                              + mp.mpf(p.alpha2) * s) for _ in range(1))
                    tot += (s + 1) * mp.mpf(w) ** s / mp.gamma(
                        mp.mpf(p.delta1) + mp.mpf(p.alpha2) * s)
                return float(tot)

        assert direct == pytest.approx(truth(), abs=1e-11)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            E1Params(1, 1, 1, 1, 1.0, -0.5, 0.5, 1, 1, 1, 1)

    def test_cancellation_error_non_collapsible(self):
        # x != y blocks the exact collapse; the cancellation is then beyond
        # the precision cap
        p = E1Params(1, 1, 1, 1, 1.5, 0.4, 0.4, 1, 1, 1, 1)
        with pytest.raises((CancellationError, ConvergenceError)):
            e1(p, -9000.0, -8999.0)


class TestE1Integral:
    def test_origin_beta_weight(self):
        a = 0.6
        p = unit_family_params(a, a + 1.0)
        expect = 1.0 / (gamma(a + 1.0) * gamma(1.0) * gamma(1.0))
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

    def test_normalization_for_non_unit_gammas(self):
        # bare integral (no reciprocal-gamma prefactor) reproduces the double
        # series even when gamma1, gamma2 differ from one
        p = E1Params(2.0, 1.0, 1.5, 1.0, 2.2, 0.9, 0.7, 1.1, 1.0, 1.3, 1.0)
        assert e1_via_integral(p, 1.0, 1.2, -1.2, -0.7) == pytest.approx(
            e1(p, -1.2, -0.7), abs=1e-9)

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
        # the 200-digit plain-summation oracle covers |w|**(1/a) up to ~460
        # nats; check the evaluator against it there
        a, w = 0.3, -5.0
        p1 = unit_family_params(a, a + 1.0)
        p2 = unit_family_params(a, 2 * a + 1.0)

        def e1_oracle(d1, dps=220):
            with mp.workdps(dps):
                tot = mp.mpf(0)
                pk = mp.mpf(1)
                tiny = 0
                for s in range(100000):
                    t = (s + 1) * mp.mpf(w) ** s / mp.gamma(mp.mpf(d1) + mp.mpf(a) * s)
                    tot += t
                    pk = max(pk, abs(t))
                    if abs(t) < mp.mpf(10) ** (-dps) * pk:
                        tiny += 1
                        if tiny >= 3:
                            break
                    else:
                        tiny = 0
                return float(tot)

        assert e1(p1, w, w) == pytest.approx(e1_oracle(a + 1.0), abs=1e-12)
        assert e1(p2, w, w) == pytest.approx(e1_oracle(2 * a + 1.0), abs=1e-12)
        assert ml(MLArgs(a, a + 1.0, w)) == pytest.approx(
            ml_oracle(a, a + 1.0, w), abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            lemma22_residual(2.5, -1.0)
        with pytest.raises(ValueError):
            lemma22_residual(0.5, 1.0)


class TestPrecisionEnv:
    def test_minimum_digits_from_env(self, monkeypatch):
        from fracmix.specfun import _min_fallback_dps
        monkeypatch.setenv("FRACMIX_PRECISION_DIGITS", "200")
        assert _min_fallback_dps() == 200
        monkeypatch.setenv("FRACMIX_PRECISION_DIGITS", "not-a-number")
        assert _min_fallback_dps() == 60
        monkeypatch.delenv("FRACMIX_PRECISION_DIGITS")
        assert _min_fallback_dps() == 60

    def test_value_stable_under_extra_digits(self, monkeypatch):
        # an argument in the arbitrary-precision band (peak too large for
        # float, too small for the asymptotic expansion to certify); both
        # memos are cleared so an earlier 60-digit evaluation cannot answer
        monkeypatch.setenv("FRACMIX_PRECISION_DIGITS", "120")
        specfun._ml_eval.cache_clear()
        specfun._gamma_table.cache_clear()
        assert ml(MLArgs(0.7, 1.0, -8.14)) == pytest.approx(
            ml_oracle(0.7, 1.0, -8.14), abs=1e-12)
        # the peak needs far fewer digits, so the floor of 120 sizes the sum
        assert len(specfun._gamma_table(0.7, 1.0, 120)) > 0
        assert specfun._gamma_table.cache_info().currsize == 1


def _seed_ml_series_mp(a, b, z, policy, peak_nats):
    """The mpmath-route loop as it was before the Gamma table: mp.gamma is
    called afresh for every term."""
    dps = max(specfun._min_fallback_dps(),
              int(peak_nats / specfun._LN10 - math.log10(0.1 * policy.abs_tol)) + 10)
    with mp.workdps(dps):
        a_, b_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s = mp.mpf(0)
        peak = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-dps)
        tiny_run = 0
        for k in range(policy.max_terms):
            w = a_ * k + b_
            if w <= 0 and w == mp.floor(w):
                t = mp.mpf(0)
            else:
                t = z_**k / mp.gamma(w)
            s += t
            peak = max(peak, abs(t))
            if abs(t) < cutoff * peak and k >= 4:
                tiny_run += 1
                if tiny_run >= 3:
                    return float(s)
            else:
                tiny_run = 0
        raise ConvergenceError("seed loop ran out of terms")


# every (a, b) the bench workloads evaluate on the mpmath route, plus one
# pair whose Gamma values are inexact where the band needs more than 60
# digits (at a=2 they are factorials, exact at any precision)
BAND_PAIRS = ([(0.7, b) for b in (0.0, 0.7, 1.0, 1.7)]
              + [(1.5, b) for b in (-1.0, 0.0, 0.5, 1.0, 2.0, 2.5, 4.0)]
              + [(1.0, b) for b in (0.0, 1.0, 2.0, 3.0)]
              + [(2.0, b) for b in (-1.0, 0.0, 1.0, 3.0, 5.0)]
              + [(1.98, 1.3)])


def _routed_ml(a, b, z):
    specfun._ml_eval.cache_clear()
    return ml(MLArgs(a, b, z))


class TestGammaTable:
    @pytest.fixture(autouse=True)
    def _default_digits(self, monkeypatch):
        monkeypatch.delenv("FRACMIX_PRECISION_DIGITS", raising=False)

    @pytest.fixture(scope="class")
    def band(self):
        """(a, b, z, seed value) at each grid point that the routed ml sends
        to the mpmath series, with the seed loop fed the same peak estimate."""
        calls = []
        real = specfun._ml_series_mp

        def spy(a, b, z, policy, peak_nats):
            calls.append((a, b, z, _seed_ml_series_mp(a, b, z, policy, peak_nats)))
            return real(a, b, z, policy, peak_nats)

        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("FRACMIX_PRECISION_DIGITS", raising=False)
            patch.setattr(specfun, "_ml_series_mp", spy)
            for a, b in BAND_PAIRS:
                for z in -np.logspace(0.0, 4.0, 41):
                    _routed_ml(a, b, float(z))
        assert {(a, b) for a, b, _, _ in calls} == set(BAND_PAIRS)
        assert max(-z for _, _, z, _ in calls) == 1e4
        return calls

    def test_cold_table_is_bit_identical(self, band):
        for a, b, z, want in band:
            specfun._gamma_table.cache_clear()
            assert _routed_ml(a, b, z) == want, (a, b, z)

    def test_warm_table_in_either_order_is_bit_identical(self, band):
        specfun._gamma_table.cache_clear()
        for points in (band, band[::-1]):
            for a, b, z, want in points:
                assert _routed_ml(a, b, z) == want, (a, b, z)

    def test_deriv_shares_the_table(self):
        args = [(a, b, z, k) for a, b in BAND_PAIRS[:11]
                for z in (-0.5, -3.0, -9.0) for k in (1, 2)]
        cold = []
        for a, b, z, k in args:
            specfun._gamma_table.cache_clear()
            cold.append(ml_deriv(a, b, z, k))
        specfun._gamma_table.cache_clear()
        for a, b in BAND_PAIRS[:11]:
            _routed_ml(a, b, -9.0)
        warm = [ml_deriv(a, b, z, k) for a, b, z, k in args]
        assert warm == cold
        assert ml_deriv(1.0, 1.0, -3.0, 2) == pytest.approx(
            math.exp(-3.0), abs=1e-13)

    def test_term_budget_binds_with_warm_table(self):
        # the full sum at this band point takes about 195 terms
        specfun._gamma_table.cache_clear()
        _routed_ml(0.7, 1.0, -8.14)
        table = specfun._gamma_table(0.7, 1.0, specfun._min_fallback_dps())
        assert len(table) > 150
        with pytest.raises(ConvergenceError, match="needs more than 150 terms"):
            ml(MLArgs(0.7, 1.0, -8.14), SummationPolicy(max_terms=150))

    def test_precision_cap_holds_with_warm_table(self):
        _routed_ml(2.0, 1.0, -400.0)
        tables = specfun._gamma_table.cache_info().currsize
        with pytest.raises(CancellationError):
            _routed_ml(2.0, 1.0, -1e7)
        assert specfun._gamma_table.cache_info().currsize == tables


def deriv_oracle(a, b, z, k, dps=250):
    """k-th derivative of E_{a,b} at z from its differentiated series,
    sum_j perm(j, k) z**(j-k) / Gamma(a*j + b), at dps digits."""
    with mp.workdps(dps):
        a_, b_, z_ = mp.mpf(a), mp.mpf(b), mp.mpf(z)
        s, zn, tiny = mp.mpf(0), mp.mpf(1), 0
        for j in range(k, 100000):
            t = math.perm(j, k) * zn * mp.rgamma(a_ * j + b_)
            s += t
            zn *= z_
            tiny = tiny + 1 if j > k + 4 and abs(t) < mp.mpf(10) ** -40 else 0
            if tiny >= 3:
                return float(s)
    raise AssertionError("oracle series did not settle")


class TestDerivOracle:
    @pytest.mark.parametrize("a,b", [(a, b) for a, b in BAND_PAIRS
                                     if a in (0.7, 1.5, 2.0)])
    def test_against_series_oracle(self, a, b):
        for z in (-0.5, -3.0, -9.0, -40.0):
            for k in (1, 2):
                got = ml_deriv(a, b, z, k)
                want = deriv_oracle(a, b, z, k)
                assert abs(got - want) <= 1e-13, (a, b, z, k, got, want)


# x over the band the integer-order workloads sample, plus the points
# x = (2 pi k)^2 where E_{2,3}(-x) = (1 - cos sqrt(x)) / x cancels to ~1e-34
CLOSED_FORM_XS = np.concatenate([np.logspace(0.0, 4.0, 81),
                                 (2.0 * np.pi * np.arange(1, 17)) ** 2])


class TestIntegerOrderClosedForms:
    @pytest.mark.parametrize("a,b,form", [
        (1.0, 1.0, lambda x: math.exp(-x)),
        (2.0, 1.0, lambda x: math.cos(math.sqrt(x))),
        (2.0, 2.0, lambda x: math.sin(math.sqrt(x)) / math.sqrt(x)),
        (2.0, 3.0, lambda x: 2.0 * math.sin(0.5 * math.sqrt(x)) ** 2 / x),
    ], ids=["E11", "E21", "E22", "E23"])
    def test_closed_form(self, a, b, form):
        for x in CLOSED_FORM_XS:
            x = float(x)
            got = ml(MLArgs(a, b, -x))
            assert abs(got - form(x)) <= 1e-12, (a, b, x, got, form(x))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SummationPolicy(abs_tol=0.0)
        with pytest.raises(ValueError):
            SummationPolicy(max_terms=0)
        with pytest.raises(ValueError):
            SummationPolicy(cancellation_guard=0.5)

    def test_mlargs_validation(self):
        with pytest.raises(ValueError):
            MLArgs(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            MLArgs(0.5, 1.0, math.inf)

    def test_default_policy_fields(self):
        assert DEFAULT_POLICY.abs_tol == 1e-12
        assert DEFAULT_POLICY.max_terms == 10**6
        assert DEFAULT_POLICY.cancellation_guard == 1e8
