"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to runtime
calibration.
"""

from __future__ import annotations

import math
from math import gamma

import numpy as np

from fracref import (
    SampledFunction,
    caputo_left,
    caputo_rl_residual,
    e1_rl_deriv,
    e1_unit_ref,
    ml_ref,
    ml_rl_deriv,
    mode_profile,
    rl_left,
    rl_right,
    trig_deriv,
)
from gridutil import multi_graded_grid, recurrence_grid
from oracles import (
    e1_via_integral,
    gram_deviation,
    lemma22_residual,
    max_abs_diff,
    ml4,
    scaled,
    v1k_convolution,
    w1k_convolution,
    w2k_convolution,
)

from fracmix.basis import CoefficientSet, TrigPolynomial, project, synthesize
from fracmix.errors import SolvabilityError
from fracmix.fraccalc import FracOrder
from fracmix.solver import (
    FracProblem,
    SolutionField,
    solve_inverse,
    solve_inverse_gamma_eq1,
    solve_inverse_gamma_lt1,
)
from fracmix.specfun import MLArgs, e1, ml, ml_array, unit_family_params
from fracmix.verify import boundary_residual, pde_residual, transmit_residual


def record(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


FIVE_MODE_ATOMS = [("constant", 0, 0.4), ("cosine", 1, 1.0),
                   ("cosine", 3, -0.3), ("x-sine", 2, 0.7),
                   ("x-sine", 5, 0.2)]


def test_criterion_01_special_function_identities():
    worst_rec = 0.0
    for a in (0.3, 0.5, 0.8, 1.0, 1.5, 1.9):
        for b in (1.0, 2.0, a + 1.0):
            zs = recurrence_grid(a)
            r = np.abs(ml_array(a, b, zs) - zs * ml_array(a, a + b, zs)
                       - 1.0 / gamma(b))
            worst_rec = max(worst_rec, float(r.max()))
    worst_red = 0.0
    for a in (0.3, 0.8, 1.5, 1.9):
        for b in (1.0, 2.0, a + 1.0):
            zs = recurrence_grid(a)
            for z, v in zip(zs, ml_array(a, b, zs)):
                worst_red = max(worst_red, abs(ml4(1, 1, a, b, 1, 1, z) - v))
    worst_lem = 0.0
    for a in (0.3, 0.5, 0.8, 1.5):
        for w in (-0.0, -1.0, -10.0, -40.0, -100.0):
            worst_lem = max(worst_lem, lemma22_residual(a, w))
    ok = worst_rec <= 1e-9 and worst_red <= 1e-11 and worst_lem <= 1e-9
    record(1, "special-function identity suite", ok,
           f"recurrence {worst_rec:.1e}, reduction {worst_red:.1e}, "
           f"shift identity {worst_lem:.1e}")


def test_criterion_02_e1_cross_validation():
    worst = 0.0
    for nu, d1s in ((0.7, (1.7, 2.4, 2.7)), (1.5, (2.5, 3.5, 4.0)),
                    (2.0, (3.0, 4.0))):
        for d1 in d1s:
            for w in (-1.0, -100.0, -10000.0):
                p = unit_family_params(nu, d1)
                diff = abs(e1(p, w, w)
                           - e1_via_integral(p, d1 - 1.0, 1.0, w, w))
                worst = max(worst, diff)
    record(2, "e1 collapse vs integral representation", worst <= 1e-8,
           f"max diff {worst:.1e}")


def test_criterion_03_fractional_calculus_oracles():
    # analytic second-parameter shift vs numeric left RL
    b, lam, g = 1.4, -2.0, 0.6

    def prof(t):
        t = np.asarray(t, dtype=float)
        return np.array([ti**b * ml_ref(b, b + 1.0, lam * ti**b)
                         if ti > 0 else 0.0 for ti in np.atleast_1d(t)])

    f = SampledFunction.from_callable(prof, 0.0, 1.0, n=4001, power=4.0)
    err26 = abs(rl_left(f, FracOrder(g), 0.7) - ml_rl_deriv(b, b + 1.0,
                                                            lam, g, 0.7))

    # analytic delta1 shift of the two-variable profile vs numeric right RL
    bb, gg, k = 1.3, 0.4, 1
    mu = (2 * k * math.pi) ** 2
    params = unit_family_params(bb, 2 * bb + 1.0)

    def prof2(t):
        s = -np.asarray(t, dtype=float)
        return np.array([si ** (2 * bb) * e1_unit_ref(bb, 2 * bb + 1.0,
                                                      -mu * si**bb)
                         if si > 0 else 0.0 for si in np.atleast_1d(s)])

    f2 = SampledFunction.from_callable(prof2, -1.0, 0.0, n=3001, power=4.0)
    err29 = abs(rl_right(f2, FracOrder(gg), -0.6)
                - e1_rl_deriv(params, -mu, -mu, gg, -0.6))

    # Caputo/RL relation residual, both sides and both order ranges
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 1.0])
    grid = multi_graded_grid(0.0, 1.0, [0.5], n_per_segment=2501, power=3.0)
    sf = SampledFunction(grid, poly(grid), d1=poly.deriv(1)(grid),
                         d2=poly.deriv(2)(grid))
    err215 = max(caputo_rl_residual(sf, FracOrder(0.5), "left", 0.5),
                 caputo_rl_residual(sf, FracOrder(0.7), "right", 0.5),
                 caputo_rl_residual(sf, FracOrder(1.5), "left", 0.5),
                 caputo_rl_residual(sf, FracOrder(1.5), "right", 0.5))

    # Caputo annihilates constants exactly at the scheme level
    xs = np.linspace(0.0, 1.0, 101)
    const = SampledFunction(xs, np.full_like(xs, 3.7))
    exact_zero = all(caputo_left(const, FracOrder(a), 1.0) == 0.0
                     for a in (0.3, 0.5, 0.9))

    ok = err26 <= 1e-4 and err29 <= 1e-4 and err215 <= 1e-6 and exact_zero
    record(3, "fractional-calculus oracles", ok,
           f"shift {err26:.1e}/{err29:.1e}, relation {err215:.1e}, "
           f"const zero {exact_zero}")


def test_criterion_04_biorthogonality():
    gram_err = gram_deviation(20)
    tp = TrigPolynomial.from_atoms(FIVE_MODE_ATOMS)
    c = project(tp, 8)
    xs = np.linspace(0.0, 1.0, 501)
    round_trip = float(np.max(np.abs(synthesize(c.rows, xs) - tp(xs))))
    ok = gram_err <= 1e-10 and round_trip <= 1e-10
    record(4, "bi-orthogonality and round trip", ok,
           f"gram {gram_err:.1e}, round trip {round_trip:.1e}")


def test_criterion_05_convolution_oracles():
    rng = np.random.default_rng(20)
    prob = FracProblem(alpha=0.6, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=8)
    c0 = rng.normal(size=3)
    f1, f2, v1, v2, w1, w2 = (rng.normal(size=prob.K) for _ in range(6))
    st = SolutionField(prob, CoefficientSet(c0[0], f1, f2),
                       CoefficientSet(c0[1], v1, v2),
                       CoefficientSet(c0[2], w1, w2))
    worst = 0.0
    ts = np.linspace(0.08, 0.98, 10)
    for k in (1, 3, 8):
        v1 = mode_profile(st, "plus", "cos", k)[0]
        w1 = mode_profile(st, "minus", "cos", k)[0]
        w2 = mode_profile(st, "minus", "xsin", k)[0]
        for t in ts:
            worst = max(worst, abs(v1(t) - v1k_convolution(st, k, t)))
            worst = max(worst, abs(w1(-t) - w1k_convolution(st, k, -t)))
            worst = max(worst, abs(w2(-t) - w2k_convolution(st, k, -t)))
    record(5, "closed forms vs convolution integrals", worst <= 1e-7,
           f"max diff {worst:.1e} at 10 times, k up to 8")


def test_criterion_06_inverse_round_trip_gamma_half():
    prob = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=5)
    phi = TrigPolynomial.from_atoms(FIVE_MODE_ATOMS)
    phi_c = project(phi, 5)
    fld = solve_inverse_gamma_lt1(phi_c, phi_c, prob)
    lam = 2 * math.pi * np.arange(1, 6)
    f1_expect = lam**2 * phi_c.c1 - 2 * lam * phi_c.c2
    f2_expect = lam**2 * phi_c.c2
    coef_err = max(abs(fld.source.c0 - 0.0),
                   float(np.max(np.abs(fld.source.c1 - f1_expect))),
                   float(np.max(np.abs(fld.source.c2 - f2_expect))))
    xs = np.linspace(0.0, 1.0, 401)
    f_err = float(np.max(np.abs(fld.eval_f(xs) + trig_deriv(phi, xs, 2))))
    u_err_plus = max(float(np.max(np.abs(fld.eval_u(xs, t) - phi(xs))))
                     for t in (0.0, 0.3, 0.7, 1.0))
    u_err_minus = float(np.max(np.abs(fld.eval_u(xs, -1.0) - phi(xs))))
    ok = (coef_err <= 1e-8 and f_err <= 1e-8 and u_err_plus <= 1e-9
          and u_err_minus <= 1e-8)
    record(6, "inverse round trip at gamma = 1/2", ok,
           f"coef {coef_err:.1e}, f vs -phi'' {f_err:.1e}, "
           f"upper {u_err_plus:.1e}, lower {u_err_minus:.1e}")


def test_criterion_07_gamma_one_path():
    prob = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=1.0, q=1.0, K=4)
    # Delta_0 = p + p^beta/Gamma(beta+1) - q^alpha/Gamma(alpha+1) = 1/2,
    # reproduced exactly in floating point by the zero-mode recovery
    phi_c = CoefficientSet(0.0, np.zeros(4), np.zeros(4))
    psi_c = CoefficientSet(0.25, np.zeros(4), np.zeros(4))
    delta0_exact = solve_inverse_gamma_eq1(phi_c, psi_c, prob).source.c0 == 0.5

    phi = TrigPolynomial.from_atoms([("constant", 0, 0.4),
                                     ("cosine", 1, 1.0), ("x-sine", 2, 0.7)])
    psi = TrigPolynomial.from_atoms([("constant", 0, -0.1),
                                     ("cosine", 2, 0.6), ("x-sine", 1, 0.5)])
    fld = solve_inverse_gamma_eq1(project(phi, 4), project(psi, 4), prob)
    bt = boundary_residual(fld, phi, psi)
    tr = transmit_residual(fld)

    raised0 = False
    try:
        bad = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=1.0, q=1.5, K=2)
        solve_inverse_gamma_eq1(CoefficientSet.zeros(2),
                                CoefficientSet.zeros(2), bad)
    except SolvabilityError as exc:
        raised0 = exc.k == 0

    # per-mode determinant: root-find a degenerate p for k = 1 and hit it
    from scipy.optimize import brentq
    mu = (2 * math.pi) ** 2

    def delta1(p):
        return (p * ml(MLArgs(2.0, 2.0, -mu * p**2))
                + p**2 * ml(MLArgs(2.0, 3.0, -mu * p**2))
                - ml(MLArgs(1.0, 2.0, -mu)))

    p_star = brentq(delta1, 0.4, 0.95)
    raised_k = False
    try:
        bad_k = FracProblem(alpha=1.0, beta=2.0, gamma=1.0, p=p_star, q=1.0,
                            K=2, tol=1e-7)
        solve_inverse_gamma_eq1(CoefficientSet.zeros(2),
                                CoefficientSet.zeros(2), bad_k)
    except SolvabilityError as exc:
        raised_k = exc.k == 1
    ok = delta0_exact and bt <= 1e-8 and tr <= 1e-4 and raised0 and raised_k
    record(7, "gamma = 1 path", ok,
           f"Delta0 exact {delta0_exact}, boundary {bt:.1e}, "
           f"transmit {tr:.1e}, solvability raised {raised0}/{raised_k}")


def test_criterion_08_pde_residuals():
    phi = TrigPolynomial.from_atoms(FIVE_MODE_ATOMS)
    psi = TrigPolynomial.from_atoms([("constant", 0, -0.1),
                                     ("cosine", 1, 0.2), ("x-sine", 1, 0.5)])
    prob_l = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=5)
    fld_l = solve_inverse(project(phi, 5), project(psi, 5), prob_l)
    pp_l, pm_l = pde_residual(fld_l, nx=20, nt=20)
    prob_1 = FracProblem(alpha=0.7, beta=1.5, gamma=1.0, p=1.0, q=1.0, K=5)
    fld_1 = solve_inverse(project(phi, 5), project(psi, 5), prob_1)
    pp_1, pm_1 = pde_residual(fld_1, nx=20, nt=20)
    ok = (pp_l <= 1e-9 and pm_l <= 5e-3 and pp_1 <= 5e-3 and pm_1 <= 5e-3)
    record(8, "equation residuals on 20x20 grids", ok,
           f"gamma<1 ({pp_l:.1e}, {pm_l:.1e}), gamma=1 ({pp_1:.1e}, {pm_1:.1e})")


def test_criterion_09_zero_data_uniqueness():
    z = CoefficientSet.zeros(6)
    ok = True
    for g in (0.5, 1.0):
        prob = FracProblem(alpha=0.7, beta=1.5, gamma=g, p=1.0, q=1.0, K=6)
        fld = solve_inverse(z, z, prob)
        sets = (fld.source, fld.value, fld.slope)
        vals = [c.c0 for c in sets] + [
            float(np.max(np.abs(arr))) for c in sets for arr in (c.c1, c.c2)]
        ok = ok and all(v == 0.0 for v in vals)
    record(9, "zero data forces zero coefficients", ok)


def test_criterion_10_linearity():
    prob = FracProblem(alpha=0.7, beta=1.5, gamma=0.5, p=1.0, q=1.0, K=4)
    phi = TrigPolynomial.from_atoms([
        ("cosine", 1, 0.6), ("x-sine", 2, 0.3),
        ("cosine", 6, 0.2)])  # the k=6 atom lies beyond K: truncation residual
    psi = TrigPolynomial.from_atoms([("cosine", 2, -0.4), ("x-sine", 1, 0.8)])
    c_phi, c_psi = project(phi, 4), project(psi, 4)
    base = solve_inverse(c_phi, c_psi, prob)
    tripled = solve_inverse(scaled(c_phi, 3.0), scaled(c_psi, 3.0), prob)
    scale_ref = 3.0 * max(1.0, float(np.max(np.abs(base.source.c2))))
    coef_err = (max_abs_diff(tripled.source, scaled(base.source, 3.0))
                / scale_ref)

    def phi3(x):
        return 3.0 * phi(x)

    def psi3(x):
        return 3.0 * psi(x)

    bt_base = boundary_residual(base, phi, psi)
    bt_scaled = boundary_residual(tripled, phi3, psi3)
    resid_rel = abs(bt_scaled - 3.0 * bt_base) / (3.0 * bt_base)
    xs = np.linspace(0.0, 1.0, 101)
    u_rel = float(np.max(np.abs(tripled.eval_u(xs, -0.6)
                                - 3.0 * base.eval_u(xs, -0.6))))
    u_rel /= max(1.0, float(np.max(np.abs(base.eval_u(xs, -0.6)))) * 3.0)
    ok = coef_err <= 1e-12 and resid_rel <= 1e-12 and u_rel <= 1e-12
    record(10, "pipeline is homogeneous of degree one in the data", ok,
           f"coef {coef_err:.1e}, residual ratio {resid_rel:.1e}, "
           f"field {u_rel:.1e}")
