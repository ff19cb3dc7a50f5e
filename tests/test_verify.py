"""A-posteriori residual checks on solved and perturbed fields."""

from __future__ import annotations

import importlib
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracref import caputo_alpha_plus, caputo_gamma_minus
from fracmix import solver, verify
from fracmix.basis import CoefficientSet, TrigPolynomial, project, synthesize
from fracmix.fraccalc import FracOrder, caputo_left_factored
from fracmix.solver import FracProblem, SolutionField, solve_inverse
from fracmix.verify import (
    DEFAULT_THRESHOLDS,
    ResidualReport,
    boundary_residual,
    checked_thresholds,
    continuity_residual,
    full_report,
    pde_residual,
    tail_report,
    transmit_residual,
)


def solved_field(gamma_=0.5, K=3, p=1.0, q=1.0):
    prob = FracProblem(alpha=0.7, beta=1.5, gamma=gamma_, p=p, q=q, K=K)
    phi = TrigPolynomial.from_atoms([
        ("constant", 0, 0.4), ("cosine", 1, 1.0), ("x-sine", 2, 0.7)])
    psi = TrigPolynomial.from_atoms([
        ("constant", 0, -0.1), ("cosine", 1, 0.2), ("x-sine", 1, 0.5)])
    fld = solve_inverse(project(phi, K), project(psi, K), prob)
    return fld, phi, psi


class TestPDEResidual:
    def test_zero_field(self):
        prob = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=2)
        z = CoefficientSet.zeros(prob.K)
        fld = SolutionField(prob, z, z, z)
        pde_p, pde_m = pde_residual(fld, nx=8, nt=6)
        assert pde_p == 0.0 and pde_m == 0.0

    def test_solved_field_gamma_lt1(self):
        fld, _, _ = solved_field()
        pde_p, pde_m = pde_residual(fld, nx=20, nt=20)
        # upper branch is stationary: residual at series tolerance
        assert pde_p <= 1e-9
        assert pde_m <= 5e-3

    def test_solved_field_gamma_eq1(self):
        fld, _, _ = solved_field(gamma_=1.0)
        pde_p, pde_m = pde_residual(fld, nx=16, nt=12)
        assert pde_p <= 5e-3
        assert pde_m <= 5e-3

    def test_integer_orders(self):
        prob = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=1.0, q=1.0, K=2)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.8)])
        psi = TrigPolynomial.from_atoms([("cosine", 1, -0.3)])
        fld = solve_inverse(project(phi, 2), project(psi, 2), prob)
        pde_p, pde_m = pde_residual(fld, nx=12, nt=10)
        assert pde_p <= 1e-8 and pde_m <= 1e-7

    @pytest.mark.parametrize("name", ["p", "q"])
    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_smallest_admitted_extent(self, gamma_, name):
        # FracProblem admits an extent s down to the last one whose
        # (2.5e-7 s)^-2, the s^-2 at the first point of the Caputo grids,
        # is finite; the residual runs there with no warning
        x = 2.9833362924800834e-148
        with pytest.raises(ValueError, match="too small"):
            solved_field(**{name: math.nextafter(x, 0.0)})
        fld, _, _ = solved_field(gamma_=gamma_, **{name: x})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = pde_residual(fld, nx=12, nt=10)
        assert all(map(math.isfinite, residuals)), residuals

    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_source_perturbation_is_detected(self, gamma_, monkeypatch):
        # the residual holds the profiles' Caputo derivatives against the
        # field's source: a source 0.1% off the one the profiles solve
        # fails both branches, and nothing else
        fld, phi, psi = solved_field(gamma_=gamma_)
        assert full_report(fld, phi, psi, nx=12, nt=10).failures() == []
        src = fld.source
        claimed = CoefficientSet(*(1.001 * c for c in (src.c0, src.c1,
                                                       src.c2)))
        monkeypatch.setattr(fld, "eval_f",
                            lambda x: synthesize(claimed.rows, x))
        failures = full_report(fld, phi, psi, nx=12, nt=10).failures()
        assert [f.split(":")[0] for f in failures] == ["pde_plus",
                                                       "pde_minus"]

    def test_closed_form_upper_branch_at_small_alpha(self, monkeypatch):
        # gamma = 1, K = 48 and (alpha, beta) = (0.55, 1.8), with the bench's
        # full-spectrum data: pde_plus reads 0.19 here, but the closed-form
        # order-alpha derivatives of the same profiles satisfy the equation
        # on the same grid, so the solve holds and the numeric quadrature
        # of _caputo_table is what falls short
        bench = Path(__file__).resolve().parent.parent / "bench"
        monkeypatch.syspath_prepend(str(bench))
        full_spectrum = importlib.import_module("workloads").full_spectrum
        rng = random.Random(5)
        phi, psi = (TrigPolynomial.from_atoms(
            (a["kind"], a["k"], a["amplitude"])
            for a in full_spectrum(rng, 48)) for _ in range(2))
        prob = FracProblem(alpha=0.55, beta=1.8, gamma=1.0, p=1.0, q=1.0,
                           K=48)
        fld = solve_inverse(project(phi, 48), project(psi, 48), prob)
        xs = np.linspace(0.0, 1.0, 20)
        ts = np.linspace(verify.PDE_T_MARGIN * prob.q,
                         (1.0 - verify.PDE_T_MARGIN) * prob.q, 20)
        resid = (synthesize(caputo_alpha_plus(fld, ts), xs)
                 - fld.eval_uxx(xs, ts) - fld.eval_f(xs))
        assert np.max(np.abs(resid)) <= 1e-9


class TestTransmitResidual:
    def test_gamma_lt1(self):
        fld, _, _ = solved_field()
        assert transmit_residual(fld) <= 1e-4

    def test_gamma_eq1(self):
        fld, _, _ = solved_field(gamma_=1.0)
        assert transmit_residual(fld) <= 1e-4

    def test_integer_orders(self):
        prob = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=1.0, q=1.0, K=2)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 0.8), ("x-sine", 1, 0.4)])
        psi = TrigPolynomial.from_atoms([("cosine", 2, -0.3)])
        fld = solve_inverse(project(phi, 2), project(psi, 2), prob)
        assert transmit_residual(fld) <= 1e-4

    @pytest.mark.parametrize("beta", [1.5, 1.8])
    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_smallest_order(self, beta, gamma_, monkeypatch):
        # at alpha = 0.01 the upper probe offsets (theta / mu_k)^100 of the
        # modes k >= 1 underflow: their powers come from their logs
        prob = FracProblem(alpha=0.01, beta=beta, gamma=gamma_, p=1.0,
                           q=1.0, K=2)
        phi = TrigPolynomial.from_atoms([("cosine", 1, 1.0)])
        psi = TrigPolynomial.from_atoms([("cosine", 1, 0.5)])
        fld = solve_inverse(project(phi, 2), project(psi, 2), prob)
        assert transmit_residual(fld) <= 1e-6
        (_, offsets, *_), = [c for c in recorded_limits(fld, monkeypatch)
                             if c[0] == "plus"]
        assert np.all(offsets[1:] < 1e-150)

    def test_perturbation_is_detected(self):
        fld, _, _ = solved_field()
        base = transmit_residual(fld)
        bump = 0.05
        fld.source.c2[0] += bump
        assert transmit_residual(fld) >= 0.99 * bump
        assert transmit_residual(fld) > 10 * max(base, 1e-12)


def probe_offsets(fld, branch, theta, power):
    """The Richardson offsets that _interface_limits documents, one row per
    profile-table row: min(cap, (theta / max(mu, 1))^power) / 2^j for
    j = 0, 1, 2, with cap = 0.1 min(p, q)."""
    cap = 0.1 * min(fld.problem.p, fld.problem.q)
    _, mus, _ = solver._branch_terms(fld, branch)
    return np.array([[min(cap, (theta / max(mu, 1.0)) ** power) / 2**j
                      for j in range(3)] for mu in mus.tolist()])


def recorded_limits(fld, monkeypatch):
    """Run transmit_residual and return every _interface_limits call as
    (branch, offsets, sigma, order, n, result), the offsets rebuilt by
    probe_offsets."""
    interface_limits = verify._interface_limits
    calls = []

    def recorded(fld, branch, theta, power, sigma, order, n):
        out = interface_limits(fld, branch, theta, power, sigma, order, n)
        calls.append((branch, probe_offsets(fld, branch, theta, power),
                      sigma, order, n, out))
        return out

    monkeypatch.setattr(verify, "_interface_limits", recorded)
    transmit_residual(fld)
    return calls


class TestTransmitLowerLimit:
    """The numeric order-gamma Caputo derivatives below the interface,
    against the solver's closed form at every probe offset that
    transmit_residual uses."""

    @pytest.mark.parametrize("gamma_", [0.3, 0.5, 0.8])
    def test_probes_match_closed_form(self, gamma_, monkeypatch):
        fld, _, _ = solved_field(gamma_=gamma_)
        (_, offsets, _, order, _, limits), = [
            c for c in recorded_limits(fld, monkeypatch) if c[0] == "minus"]
        assert order == gamma_
        # three Richardson offsets per profile-table row, in row order: the
        # zero mode, then the cosine and x-sine rows of each k
        assert offsets.shape == limits.shape == (2 * fld.problem.K + 1, 3)
        for r, (row, got_row) in enumerate(zip(offsets, limits)):
            k, slot = (r + 1) // 2, (0 if r == 0 else 2 - r % 2)
            for e, got in zip(row, got_row):
                expect = caputo_gamma_minus(fld, max(k, 1), gamma_, -e)[slot]
                if k == 3:
                    # no data on mode 3: both sides are identically zero
                    assert got == 0.0 and expect == 0.0
                else:
                    assert abs(got - expect) <= 1e-12 * abs(expect), (
                        r, e, got, expect)

    @pytest.mark.parametrize("gamma_", [0.5, 1.0])
    def test_scaled_unit_grid_is_the_offset_grid(self, gamma_, monkeypatch):
        # each probe, a profile rescaled to the unit grid, reads what the
        # branch's own profile reads on the grid e * unit, up to rounding;
        # random coefficients, since a solved field at gamma < 1 has a
        # stationary upper branch, whose derivatives are rounding noise
        prob = FracProblem(alpha=0.7, beta=1.5, gamma=gamma_, p=1.0, q=1.0,
                           K=3)
        rng = np.random.default_rng(11)
        fld = SolutionField(prob, *(CoefficientSet(
            rng.normal(), rng.normal(size=3), rng.normal(size=3))
            for _ in range(3)))
        calls = recorded_limits(fld, monkeypatch)
        assert [c[0] for c in calls] == ["plus", "minus"]
        for branch, offsets, sigma, order, n, limits in calls:
            unit = verify._caputo_grid(1.0, n)
            terms = solver._branch_terms(fld, branch)
            # the cosine and x-sine rows of a mode share their offsets
            for e in np.unique(offsets):
                rows = np.flatnonzero((offsets == e).any(axis=1))
                if float(order).is_integer():
                    want = solver._term_table(*terms, [e], 1)[rows, 0]
                else:
                    # the factored samples deriv * u^(-sigma), extended to
                    # u = 0 by their neighbour
                    table = solver._term_table(*terms, e * unit[1:], 1)
                    g = table[rows] * unit[1:] ** (-sigma)
                    g = np.concatenate([g[:, :1], g], axis=1)
                    want = caputo_left_factored(
                        unit, g, sigma, FracOrder(order), 1.0) * e ** (
                            1.0 - order)
                got = limits[offsets == e]
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (
                    branch, e, got, want)


class TestBoundaryResidual:
    def test_solved_field(self):
        fld, phi, psi = solved_field()
        assert boundary_residual(fld, phi, psi) <= 1e-8

    def test_wrong_data_flagged(self):
        fld, phi, psi = solved_field()
        bt = boundary_residual(fld, lambda x: phi(x) + 0.01, psi)
        assert bt >= 0.009

    def test_sampled_data_interpolate(self):
        # (x, values) pairs are read as their piecewise-linear interpolant,
        # as the projection reads them
        fld, phi, psi = solved_field()
        xs = np.linspace(0.0, 1.0, 401)
        assert (boundary_residual(fld, (xs, phi(xs)), (xs, psi(xs)))
                == boundary_residual(fld, phi, psi))


class TestContinuity:
    def test_interface_continuity(self):
        fld, _, _ = solved_field()
        assert continuity_residual(fld) <= 1e-9

    def test_gamma1_interface_continuity(self):
        fld, _, _ = solved_field(gamma_=1.0)
        assert continuity_residual(fld) <= 1e-9

    def test_lower_branch_jump_is_detected(self, monkeypatch):
        # The defect class continuity catches: branch terms whose t = 0 value
        # differs from the shared value set.  Both branches read
        # SolutionField.value, so a wrong solved coefficient cannot show here;
        # an extra c = 1 kernel on the k = 1 lower-branch cosine row can.
        fld, phi, psi = solved_field(K=2)
        bump = 1e-6
        branch_terms = solver._branch_terms

        def jumped(fld, branch):
            order, mu, terms = branch_terms(fld, branch)
            if branch == "minus":
                extra = np.zeros(len(mu))
                extra[1] = bump
                terms = terms + [(extra, 1.0, "ml")]
            return order, mu, terms

        monkeypatch.setattr(solver, "_branch_terms", jumped)
        assert continuity_residual(fld) == pytest.approx(bump, rel=1e-9)
        rep = full_report(fld, phi, psi, nx=8, nt=6)
        assert any(f.startswith("continuity:") for f in rep.failures())


class TestTails:
    def test_reference_constant(self):
        fld, _, _ = solved_field(K=16)
        tails = tail_report(fld)
        ref = tails["reference_inv_k2"]
        assert ref["limit"] == pytest.approx(1.0 / 6.0)
        assert ref["partial_sum"] == pytest.approx(1.0 / 6.0, abs=1e-2)

    def test_exact_span_has_zero_tail(self):
        fld, _, _ = solved_field(K=16)
        tails = tail_report(fld)
        for name in ("upper-cos", "upper-xsin", "source-cos", "source-xsin"):
            assert tails[name]["last_quartile_ratio"] <= 1e-12
        assert tails["nondecay_flags"] == []

    def test_slow_decay_flagged(self):
        # coefficients decaying like 1/k^2 leave visible weighted tails
        prob = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=16)
        ks = np.arange(1, 17)
        phi_c = CoefficientSet(0.0, 1.0 / ks**2, np.zeros(16))
        psi_c = CoefficientSet.zeros(16)
        fld = solve_inverse(phi_c, psi_c, prob)
        tails = tail_report(fld)
        assert tails["source-cos"]["last_quartile_ratio"] > 0.2
        assert "source-cos" in tails["nondecay_flags"]


class TestNaNField:
    STAGES = ("pde_plus", "pde_minus", "transmit", "boundary_t", "continuity")

    def test_every_stage_keeps_a_nan(self):
        # a NaN interface value reaches both branches, so every stage reads
        # NaN, and NaN is not within any threshold
        fld, phi, psi = solved_field(K=2)
        fld.value.c1[0] = math.nan
        rep = full_report(fld, phi, psi, nx=8, nt=6)
        for name in self.STAGES:
            assert math.isnan(getattr(rep, name)), name
        assert [f.split(":")[0] for f in rep.failures()] == list(self.STAGES)

    def test_one_nan_residual_fails(self):
        for name in self.STAGES:
            rep = ResidualReport(**{n: math.nan if n == name else 0.0
                                    for n in self.STAGES})
            assert rep.failures() == [f"{name}: nan > "
                                      f"{DEFAULT_THRESHOLDS[name]:.1e}"]


class TestFullReport:
    def test_solved_field_passes_thresholds(self):
        fld, phi, psi = solved_field()
        rep = full_report(fld, phi, psi, nx=12, nt=10)
        assert rep.failures() == []

    def test_report_serializes(self):
        fld, phi, psi = solved_field(K=2)
        rep = full_report(fld, phi, psi, nx=8, nt=6)
        d = rep.to_dict()
        assert set(d) == {"pde_plus", "pde_minus", "transmit", "boundary_t",
                          "continuity", "tails"}

    def test_threshold_equality_passes(self):
        rep = ResidualReport(pde_plus=5e-3, pde_minus=0.0, transmit=0.0,
                             boundary_t=0.0, continuity=0.0)
        assert rep.failures() == []

    @pytest.mark.parametrize("bad", [
        {"boundary_x": 1e-8}, {"pde_plus": "loose"}, {"pde_plus": True},
        {"transmit": float("nan")}])
    def test_bad_thresholds_rejected(self, bad):
        rep = ResidualReport(pde_plus=0.0, pde_minus=0.0, transmit=0.0,
                             boundary_t=0.0, continuity=0.0)
        with pytest.raises(ValueError, match="threshold"):
            rep.failures(bad)

    def test_unknown_threshold_lists_known_names(self):
        with pytest.raises(ValueError) as info:
            checked_thresholds({"boundary_x": 1e-8})
        assert "'boundary_x'" in str(info.value)
        for name in DEFAULT_THRESHOLDS:
            assert name in str(info.value)

    def test_overrides_merge_over_defaults(self):
        th = checked_thresholds({"transmit": 1})
        assert th == {**DEFAULT_THRESHOLDS, "transmit": 1}
        assert checked_thresholds() == DEFAULT_THRESHOLDS

    def test_threshold_violation_reported(self):
        rep = ResidualReport(pde_plus=1.0, pde_minus=0.0, transmit=0.0,
                             boundary_t=0.0, continuity=0.0)
        assert any("pde_plus" in f for f in rep.failures())
