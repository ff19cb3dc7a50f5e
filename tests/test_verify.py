"""A-posteriori residual checks on solved and perturbed fields."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fracmix import solver
from fracmix.basis import CoefficientSet, TrigPolynomial, project
from fracmix.solver import (
    FracProblem,
    ModeState,
    SolutionField,
    manufacture,
    solve_inverse,
)
from fracmix.verify import (
    ResidualReport,
    boundary_residual,
    continuity_residual,
    full_report,
    pde_residual,
    regularity_report,
    tail_report,
    transmit_residual,
)


def solved_field(gamma_=0.5, K=3):
    prob = FracProblem(alpha=0.7, beta=1.5, gamma=gamma_, p=1.0, q=1.0, K=K)
    phi = TrigPolynomial.from_atoms([
        ("constant", 0, 0.4), ("cosine", 1, 1.0), ("x-sine", 2, 0.7)])
    psi = TrigPolynomial.from_atoms([
        ("constant", 0, -0.1), ("cosine", 1, 0.2), ("x-sine", 1, 0.5)])
    fld = solve_inverse(project(phi, K), project(psi, K), prob)
    return fld, phi, psi


class TestPDEResidual:
    def test_zero_field(self):
        prob = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=2)
        fld = SolutionField(ModeState.zeros(prob))
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

    def test_perturbation_is_detected(self):
        fld, _, _ = solved_field()
        base = transmit_residual(fld)
        bump = 0.05
        fld.state.f2[0] += bump
        fld.source = fld.state.source_coefficients()
        assert transmit_residual(fld) >= 0.99 * bump
        assert transmit_residual(fld) > 10 * max(base, 1e-12)


class TestBoundaryResidual:
    def test_solved_field(self):
        fld, phi, psi = solved_field()
        bt, bx = boundary_residual(fld, phi, psi)
        assert bt <= 1e-8
        assert bx == 0.0

    def test_periodicity_is_termwise(self):
        fld, _, _ = solved_field(gamma_=1.0)
        _, bx = boundary_residual(fld, lambda x: 0 * x, lambda x: 0 * x)
        assert bx <= 1e-12

    def test_wrong_data_flagged(self):
        fld, phi, psi = solved_field()
        bt, _ = boundary_residual(fld, lambda x: phi(x) + 0.01, psi)
        assert bt >= 0.009


class TestContinuity:
    def test_interface_continuity(self):
        fld, _, _ = solved_field()
        assert continuity_residual(fld) <= 1e-9

    def test_gamma1_interface_continuity(self):
        fld, _, _ = solved_field(gamma_=1.0)
        assert continuity_residual(fld) <= 1e-9

    def test_lower_branch_jump_is_detected(self, monkeypatch):
        # one extra c = 1 kernel moves the lower branch's t = 0 value of the
        # k = 1 cosine mode and nothing on the upper branch
        fld, phi, psi = solved_field(K=2)
        bump = 1e-6
        profile_terms = solver._profile_terms

        def jumped(state, branch, component, k=0):
            order, mu, terms = profile_terms(state, branch, component, k)
            if branch == "minus" and component == "cos" and k == 1:
                terms = terms + [(bump, 1.0, "ml")]
            return order, mu, terms

        monkeypatch.setattr(solver, "_profile_terms", jumped)
        assert continuity_residual(fld) == pytest.approx(bump, rel=1e-9)
        rep = full_report(fld, phi, psi, nx=8, nt=6)
        assert any(f.startswith("continuity:") for f in rep.failures())


class TestRegularity:
    def test_cos_passes_all(self):
        f = TrigPolynomial.from_atoms([("cosine", 1, 1.0)])
        rep = regularity_report(f, f)
        assert all(r["satisfied"] for r in rep)

    def test_linear_fails_periodicity(self):
        rep = regularity_report(lambda x: np.asarray(x, dtype=float),
                                TrigPolynomial.constant(0.0))
        failed = {r["condition"] for r in rep if not r["satisfied"]}
        assert "phi(0) = phi(1)" in failed or any(
            "phi(0)" in c for c in failed)

    def test_sine_fails_slope(self):
        rep = regularity_report(lambda x: np.sin(2 * math.pi * np.asarray(x)),
                                TrigPolynomial.constant(0.0))
        slope = [r for r in rep if r["condition"] == "phi'(0) = 0"]
        assert slope and not slope[0]["satisfied"]
        assert slope[0]["magnitude"] == pytest.approx(2 * math.pi, rel=1e-4)

    def test_xsine_satisfies_all_conditions(self):
        # the associate root function is itself admissible data
        f = TrigPolynomial.from_atoms([("x-sine", 1, 1.0)])
        rep = regularity_report(f, TrigPolynomial.constant(0.0))
        assert all(r["satisfied"] for r in rep)

    def test_second_derivative_mismatch_flagged(self):
        # x^2 (1 - x): periodic values, zero slope at 0, but curvature
        # mismatch at the ends
        def f(x):
            x = np.asarray(x, dtype=float)
            return x**2 * (1.0 - x)

        rep = regularity_report(f, TrigPolynomial.constant(0.0))
        cond = [r for r in rep
                if r["condition"] == "phi\'\'(0) = phi\'\'(1)"][0]
        assert not cond["satisfied"]
        assert cond["magnitude"] == pytest.approx(6.0, rel=1e-2)
        weak = [r for r in rep if r["set"] == "weak"]
        assert all(r["satisfied"] for r in weak)


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
                          "boundary_x", "continuity", "tails"}

    def test_threshold_equality_passes(self):
        rep = ResidualReport(pde_plus=5e-3, pde_minus=0.0, transmit=0.0,
                             boundary_t=0.0, boundary_x=0.0, continuity=0.0)
        assert rep.failures() == []

    def test_threshold_violation_reported(self):
        rep = ResidualReport(pde_plus=1.0, pde_minus=0.0, transmit=0.0,
                             boundary_t=0.0, boundary_x=0.0, continuity=0.0)
        assert any("pde_plus" in f for f in rep.failures())
