"""Forward mode evolution and the two inverse source solvers.

The field splits over the interface t = 0 into a sub-diffusive branch of
order alpha in (0,1] on t > 0 and a diffusive-wave branch of order beta in
(1,2] on t < 0, coupled mode-by-mode in the bi-orthogonal family.  Three
coefficient sets fix every mode's time profile (``ModeState``): the
source, the interface values and the lower-branch slopes.  Each mode
profile is a short sum of Mittag-Leffler kernels s^(c-1) E_{nu,c} and of
their coupled two-variable counterparts, built by one rule from a
per-branch table of (set, c) rows (``_profile_terms``).  Profile values,
exact time derivatives (c lowered by one per order), the closed-form
order-gamma Caputo derivatives (c lowered by gamma) and the inverse
solvers' coupling constants all read those term lists.  The two-variable
kernels are only ever needed for the unit parameter family at equal
arguments, evaluated through its exact collapse to two classical
Mittag-Leffler values.

The inverse problem recovers the space-only source and the full field from
the two boundary snapshots u(x, q) and u(x, -p).  For transmitting order
gamma < 1 the recovery is explicit; for gamma = 1 it reduces to per-mode
2x2 linear systems whose determinants must stay away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .basis import CoefficientSet, synthesize, synthesize_second_deriv
from .errors import DivisionError, SolvabilityError
from .specfun import MLArgs, gamma, ml


def mode_wavenumber(k: int) -> float:
    return 2.0 * math.pi * k


@dataclass(frozen=True)
class FracProblem:
    """Problem parameters: orders (alpha, beta, gamma), rectangle extents
    (p, q), truncation K, and the solvability tolerance."""

    alpha: float
    beta: float
    gamma: float
    p: float
    q: float
    K: int = 16
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 1.0 < self.beta <= 2.0:
            raise ValueError("beta must lie in (1, 2]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if not all(math.isfinite(v) for v in (self.p, self.q, self.tol)):
            raise ValueError("p, q and tol must be finite")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if isinstance(self.K, bool) or not isinstance(self.K, Integral):
            raise ValueError(f"K must be an integer, got {self.K!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _phi_ml(a: float, c: float, mu: float, s: float) -> float:
    """s^(c-1) * E_{a,c}(-mu s^a) for s >= 0; the building block whose
    s-derivative just lowers c by one."""
    if s == 0.0:
        if c == 1.0:
            return 1.0
        return 0.0 if c > 1.0 else math.inf
    return s ** (c - 1.0) * ml(MLArgs(a, c, -mu * s**a))


def _phi_e1(nu: float, d1: float, mu: float, s: float) -> float:
    """s^(d1-1) * E1(d1; w, w), w = -mu s^nu, for the unit-parameter family
    sum_n (n+1) w^n / Gamma(d1 + nu n), through its exact collapse
    E_{nu,d1-1}(w) / nu + (1 - (d1-1)/nu) E_{nu,d1}(w); its s-derivative
    lowers d1 by one."""
    if s == 0.0:
        if d1 == 1.0:
            return 1.0
        return 0.0 if d1 > 1.0 else math.inf
    w = -mu * s**nu
    return s ** (d1 - 1.0) * (ml(MLArgs(nu, d1 - 1.0, w)) / nu
                              + (1.0 - (d1 - 1.0) / nu)
                              * ml(MLArgs(nu, d1, w)))


@dataclass
class ModeState:
    """Per-mode data of the two-branch evolution, as three coefficient sets:
    the source f, the interface values u(x, 0) and the lower-branch slopes
    u_t(x, 0-).

    Continuity at t = 0 makes the upper and lower branch values at 0
    coincide, so ``value`` serves both."""

    problem: FracProblem
    source: CoefficientSet
    value: CoefficientSet
    slope: CoefficientSet

    def __post_init__(self) -> None:
        K = self.problem.K
        for name in ("source", "value", "slope"):
            if getattr(self, name).K != K:
                raise ValueError(f"{name} must have truncation K={K}")


# ---------------------------------------------------------------------------
# closed-form mode profiles


def _profile_terms(state: ModeState, branch: str, component: str, k: int = 0):
    """(order, mu, terms) of one mode profile.

    The profile is sum coef * s^(c-1) K_c(-mu s^order) over the terms
    (coef, c, kind), where K_c is E_{order,c} for kind 'ml' and the unit
    two-variable E1(c; ., .) for kind 'e1'; s = t on branch 'plus' (t >= 0)
    and s = -t on branch 'minus' (t <= 0).  The zero mode has mu = 0.

    Each branch reads its coefficient sets through rows (set, c_ml, c_e1).
    A mode component takes its own entry of every set as an 'ml' term at
    c_ml; the cosine component adds 2 lam times the x-sine entry of every
    set as an 'e1' term at c_e1, the coupling to the x-sine profile."""
    if branch == "plus":
        order = state.problem.alpha
        rows = ((state.value, 1.0, order + 1.0),
                (state.source, order + 1.0, 2.0 * order + 1.0))
    elif branch == "minus":
        order = state.problem.beta
        rows = ((state.value, 1.0, order + 1.0),
                (state.slope, 2.0, order + 2.0),
                (state.source, order + 1.0, 2.0 * order + 1.0))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    i = k - 1
    lam = mode_wavenumber(k)
    if component == "zero":
        return order, 0.0, [(cs.c0, c_ml, "ml") for cs, c_ml, _ in rows]
    if component == "xsin":
        terms = [(cs.c2[i], c_ml, "ml") for cs, c_ml, _ in rows]
    elif component == "cos":
        terms = ([(cs.c1[i], c_ml, "ml") for cs, c_ml, _ in rows]
                 + [(2.0 * lam * cs.c2[i], c_e1, "e1")
                    for cs, _, c_e1 in rows])
    else:
        raise ValueError(f"unknown component {component!r}")
    return order, lam**2, terms


def _profile_sum(order: float, mu: float, terms, s: float,
                 shift: float = 0.0) -> float:
    """Sum of the terms at s >= 0 with every second parameter lowered by
    shift, left to right; zero coefficients are skipped."""
    tot = 0.0
    for coef, c, kind in terms:
        if coef == 0.0:
            continue
        cc = c - shift
        if s == 0.0 and cc < 1.0:
            # singular limit: callers sample strictly inside
            return math.nan
        tot += coef * (_phi_ml if kind == "ml" else _phi_e1)(order, cc, mu, s)
    return tot


def _caputo_terms(order: float, mu: float, terms):
    """Terms of the profile whose order-g Caputo derivative is the shift of
    every c by g: each c = 1 kernel sheds its constant through
    E_{order,1}(z) = 1 + z E_{order,order+1}(z), so its coefficient becomes
    -mu * coef at c = order + 1 (and vanishes when mu = 0)."""
    return [(-mu * coef, order + 1.0, kind) if c == 1.0 else (coef, c, kind)
            for coef, c, kind in terms]


def mode_profile(state: ModeState, branch: str, component: str, k: int = 0):
    """(value, d1, d2) callables in t for one mode profile.

    branch 'plus' covers t >= 0, 'minus' t <= 0; derivatives come from the
    exact one-step-down shift of the second parameters, so they are exact
    up to evaluator tolerance."""
    order, mu, terms = _profile_terms(state, branch, component, k)
    sign = 1.0 if branch == "plus" else -1.0

    def evaluator(shift: int):
        dsign = sign**shift

        def fn(t):
            t_arr = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.empty_like(t_arr)
            for i, ti in enumerate(t_arr):
                out[i] = dsign * _profile_sum(order, mu, terms, sign * ti,
                                              shift)
            return out if np.ndim(t) else float(out[0])

        return fn

    return evaluator(0), evaluator(1), evaluator(2)


# ---------------------------------------------------------------------------
# transmitting-condition algebra


def caputo_limit_plus(state: ModeState, k: int) -> tuple[float, float, float]:
    """t -> 0+ limits of the order-alpha Caputo derivatives of the three
    upper-branch profiles: after the shift by alpha only the kernels at
    c = alpha + 1 survive at s = 0, each with value one."""
    out = []
    for component, kk in (("zero", 0), ("cos", k), ("xsin", k)):
        order, mu, terms = _profile_terms(state, "plus", component, kk)
        out.append(sum(coef for coef, c, _ in _caputo_terms(order, mu, terms)
                       if c == order + 1.0))
    return tuple(out)


def caputo_gamma_minus(state: ModeState, k: int, gamma_ord: float,
                       t: float) -> tuple[float, float, float]:
    """Closed-form order-gamma right Caputo derivatives of the three
    lower-branch profiles at t < 0."""
    if not 0.0 < gamma_ord < 1.0:
        raise ValueError("gamma_ord must lie in (0, 1)")
    if t >= 0.0:
        raise ValueError("t must be negative")
    out = []
    for component, kk in (("zero", 0), ("cos", k), ("xsin", k)):
        order, mu, terms = _profile_terms(state, "minus", component, kk)
        out.append(_profile_sum(order, mu, _caputo_terms(order, mu, terms),
                                -t, gamma_ord))
    return tuple(out)


# ---------------------------------------------------------------------------
# inverse solvers


@dataclass
class SolutionField:
    """Solved (or forward-constructed) field, evaluable on the rectangle."""

    state: ModeState

    @property
    def source(self) -> CoefficientSet:
        return self.state.source

    @property
    def problem(self) -> FracProblem:
        return self.state.problem

    def mode_values(self, t: float, branch: str | None = None) -> CoefficientSet:
        """Time slice of the mode profiles as a coefficient set.

        The branch is 'plus' for t >= 0 and 'minus' for t < 0 unless given;
        at t = 0 either may be asked for."""
        if branch is None:
            branch = "plus" if t >= 0.0 else "minus"
        elif (branch == "plus" and t < 0.0) or (branch == "minus" and t > 0.0):
            raise ValueError(f"t={t} lies outside branch {branch!r}")
        s = t if branch == "plus" else -t

        def value(component: str, k: int) -> float:
            return _profile_sum(*_profile_terms(self.state, branch, component,
                                                k), s)

        ks = range(1, self.problem.K + 1)
        return CoefficientSet(value("zero", 0),
                              np.array([value("cos", k) for k in ks]),
                              np.array([value("xsin", k) for k in ks]))

    def eval_u(self, x, t: float):
        return synthesize(self.mode_values(t), x)

    def eval_f(self, x):
        return synthesize(self.source, x)

    def eval_uxx(self, x, t: float):
        return synthesize_second_deriv(self.mode_values(t), x)


def _check_coeff_shapes(prob: FracProblem, phi_c: CoefficientSet,
                        psi_c: CoefficientSet) -> None:
    if phi_c.K != prob.K or psi_c.K != prob.K:
        raise ValueError(
            f"coefficient truncation ({phi_c.K}, {psi_c.K}) must match "
            f"problem K={prob.K}")


def solve_inverse_gamma_lt1(phi_c: CoefficientSet, psi_c: CoefficientSet,
                            prob: FracProblem) -> SolutionField:
    """Inverse solve for transmitting order gamma in (0, 1).

    The transmitting condition forces the upper branch to be stationary, so
    the interface values equal the upper snapshot's coefficients and the
    source is its negated second derivative, mode by mode.  The lower-branch
    slopes come from the t = -p snapshot; each cosine slope needs the
    corresponding x-sine slope and divides by E_{beta,2} at the mode
    argument, which is checked against zero.
    """
    if not prob.gamma < 1.0:
        raise ValueError("gamma must be < 1 for this path")
    _check_coeff_shapes(prob, phi_c, psi_c)
    b, p = prob.beta, prob.p
    K = prob.K
    source, slope = CoefficientSet.zeros(K), CoefficientSet.zeros(K)
    slope.c0 = (psi_c.c0 - phi_c.c0) / p
    for k in range(1, K + 1):
        lam = mode_wavenumber(k)
        mu = lam**2
        i = k - 1
        denom = ml(MLArgs(b, 2.0, -mu * p**b))
        if abs(denom) < prob.tol:
            raise DivisionError(
                f"E_(beta,2) vanishes at mode k={k} "
                f"(beta={b}, p={p}): {denom}", k=k, value=denom)
        source.c1[i] = mu * phi_c.c1[i] - 2.0 * lam * phi_c.c2[i]
        source.c2[i] = mu * phi_c.c2[i]
        slope.c2[i] = (psi_c.c2[i] - phi_c.c2[i]) / (p * denom)
        coupling = 2.0 * lam * _phi_e1(b, b + 2.0, mu, p)
        slope.c1[i] = (psi_c.c1[i] - phi_c.c1[i]
                       - coupling * slope.c2[i]) / (p * denom)
    return SolutionField(ModeState(prob, source, phi_c.copy(), slope))


def solve_inverse_gamma_eq1(phi_c: CoefficientSet, psi_c: CoefficientSet,
                            prob: FracProblem) -> SolutionField:
    """Inverse solve for transmitting order gamma = 1.

    Per mode, the two snapshot equations reduce to 2x2 linear systems in the
    interface value and slope; their shared determinant must stay away from
    zero (the solvability condition on p, q), checked with a relative
    tolerance against the sizes of its three terms.
    """
    if prob.gamma != 1.0:
        raise ValueError("gamma must equal 1 for this path")
    _check_coeff_shapes(prob, phi_c, psi_c)
    a, b, p, q = prob.alpha, prob.beta, prob.p, prob.q
    K = prob.K
    t_q = q**a / gamma(a + 1.0)
    t_p1, t_p2 = p, p**b / gamma(b + 1.0)
    delta0 = t_p1 + t_p2 - t_q
    if abs(delta0) < prob.tol * (abs(t_p1) + abs(t_p2) + abs(t_q)):
        raise SolvabilityError(
            f"Delta_0 = p + p^beta/Gamma(beta+1) - q^alpha/Gamma(alpha+1) "
            f"= {delta0} vanishes within tolerance", k=0, delta=delta0)
    source, value, slope = (CoefficientSet.zeros(K) for _ in range(3))
    slope.c0 = (psi_c.c0 - phi_c.c0) / delta0
    source.c0 = slope.c0
    value.c0 = phi_c.c0 - t_q * slope.c0
    for k in range(1, K + 1):
        lam = mode_wavenumber(k)
        mu = lam**2
        i = k - 1
        zq = -mu * q**a
        zp = -mu * p**b
        term_q = q**a * ml(MLArgs(a, a + 1.0, zq))
        term_p1 = p * ml(MLArgs(b, 2.0, zp))
        term_p2 = p**b * ml(MLArgs(b, b + 1.0, zp))
        delta_k = term_p1 + term_p2 - term_q
        if abs(delta_k) < prob.tol * (abs(term_p1) + abs(term_p2)
                                      + abs(term_q)):
            raise SolvabilityError(
                f"Delta_{k} = {delta_k} vanishes within tolerance "
                f"(p={p}, q={q}, alpha={a}, beta={b})", k=k, delta=delta_k)
        mat = np.array([[1.0, term_q], [1.0, term_p1 + term_p2]])
        w2_0, w2p = np.linalg.solve(mat, [phi_c.c2[i], psi_c.c2[i]])
        # snapshot equations for the cosine pair after eliminating the
        # x-sine coupling through the shift identity
        psi_bar = (phi_c.c1[i]
                   - 2.0 * lam * _phi_e1(a, 2.0 * a + 1.0, mu, q) * w2p)
        psi_tilde = (psi_c.c1[i]
                     - 2.0 * lam * (_phi_e1(b, b + 2.0, mu, p)
                                    + _phi_e1(b, 2.0 * b + 1.0, mu, p)) * w2p)
        w1_0, w1p = np.linalg.solve(mat, [psi_bar, psi_tilde])
        value.c1[i], value.c2[i] = w1_0, w2_0
        slope.c1[i], slope.c2[i] = w1p, w2p
        source.c2[i] = w2p + mu * w2_0
        source.c1[i] = w1p + mu * w1_0 - 2.0 * lam * w2_0
    return SolutionField(ModeState(prob, source, value, slope))


def solve_inverse(phi_c: CoefficientSet, psi_c: CoefficientSet,
                  prob: FracProblem) -> SolutionField:
    """Dispatch on the transmitting order."""
    if prob.gamma < 1.0:
        return solve_inverse_gamma_lt1(phi_c, psi_c, prob)
    return solve_inverse_gamma_eq1(phi_c, psi_c, prob)


# ---------------------------------------------------------------------------
# forward construction


def forward_state(prob: FracProblem, source_c: CoefficientSet,
                  u0_c: CoefficientSet, slope_c: CoefficientSet) -> ModeState:
    """Mode data straight from a source, interface values u(x, 0) and
    lower-branch slope coefficients (copied, so the state owns its sets)."""
    return ModeState(prob, source_c.copy(), u0_c.copy(), slope_c.copy())
