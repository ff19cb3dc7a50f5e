"""Forward mode evolution and the two inverse source solvers.

The field splits over the interface t = 0 into a sub-diffusive branch of
order alpha in (0,1] on t > 0 and a diffusive-wave branch of order beta in
(1,2] on t < 0, coupled mode-by-mode in the bi-orthogonal family.  Each
mode profile is a short sum of Mittag-Leffler kernels s^(c-1) E_{nu,c}
and of their coupled two-variable counterparts, listed once in a term
table (``_profile_terms``).  Profile values, exact time derivatives (c
lowered by one per order), the closed-form order-gamma Caputo derivatives
(c lowered by gamma) and the inverse solvers' coupling constants all read
that table.  The two-variable kernels are only ever needed for the unit
parameter family at equal arguments, evaluated through its exact collapse
to two classical Mittag-Leffler values.  The convolution-integral solution
forms are kept alongside as independent oracles.

The inverse problem recovers the space-only source and the full field from
the two boundary snapshots u(x, q) and u(x, -p).  For transmitting order
gamma < 1 the recovery is explicit; for gamma = 1 it reduces to per-mode
2x2 linear systems whose determinants must stay away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .basis import CoefficientSet, synthesize, synthesize_second_deriv
from .errors import DivisionError, QuadratureError, SolvabilityError
from .specfun import DEFAULT_POLICY, MLArgs, SummationPolicy, gamma, ml

ORACLE_POLICY = SummationPolicy(abs_tol=1e-10)


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
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _phi_ml(a: float, c: float, mu: float, s: float,
            policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """s^(c-1) * E_{a,c}(-mu s^a) for s >= 0; the building block whose
    s-derivative just lowers c by one."""
    if s == 0.0:
        if c == 1.0:
            return 1.0
        return 0.0 if c > 1.0 else math.inf
    return s ** (c - 1.0) * ml(MLArgs(a, c, -mu * s**a), policy)


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
    """Per-mode constants of the two-branch evolution.

    Interface values are stored once: continuity at t = 0 makes the upper
    and lower branch values at 0 coincide, so v*_0 serve as both."""

    problem: FracProblem
    f0: float
    v0_0: float
    w0p_0: float
    f1: np.ndarray
    f2: np.ndarray
    v1_0: np.ndarray
    v2_0: np.ndarray
    w1p_0: np.ndarray
    w2p_0: np.ndarray

    def __post_init__(self) -> None:
        K = self.problem.K
        for name in ("f1", "f2", "v1_0", "v2_0", "w1p_0", "w2p_0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (K,):
                raise ValueError(f"{name} must have length K={K}")
            setattr(self, name, arr)

    @classmethod
    def zeros(cls, problem: FracProblem) -> "ModeState":
        K = problem.K
        z = np.zeros(K)
        return cls(problem, 0.0, 0.0, 0.0, z.copy(), z.copy(), z.copy(),
                   z.copy(), z.copy(), z.copy())

    def source_coefficients(self) -> CoefficientSet:
        return CoefficientSet(self.f0, self.f1.copy(), self.f2.copy())


# ---------------------------------------------------------------------------
# closed-form mode profiles


def _profile_terms(state: ModeState, branch: str, component: str, k: int = 0):
    """(order, mu, terms) of one mode profile.

    The profile is sum coef * s^(c-1) K_c(-mu s^order) over the terms
    (coef, c, kind), where K_c is E_{order,c} for kind 'ml' and the unit
    two-variable E1(c; ., .) for kind 'e1'; s = t on branch 'plus' (t >= 0)
    and s = -t on branch 'minus' (t <= 0).  The zero mode has mu = 0."""
    i = k - 1
    lam = mode_wavenumber(k)
    if branch == "plus":
        order = a = state.problem.alpha
        if component == "zero":
            terms = [(state.v0_0, 1.0, "ml"), (state.f0, a + 1.0, "ml")]
        elif component == "cos":
            terms = [(state.v1_0[i], 1.0, "ml"),
                     (state.f1[i], a + 1.0, "ml"),
                     (2.0 * lam * state.v2_0[i], a + 1.0, "e1"),
                     (2.0 * lam * state.f2[i], 2.0 * a + 1.0, "e1")]
        elif component == "xsin":
            terms = [(state.v2_0[i], 1.0, "ml"),
                     (state.f2[i], a + 1.0, "ml")]
        else:
            raise ValueError(f"unknown component {component!r}")
    elif branch == "minus":
        order = b = state.problem.beta
        if component == "zero":
            terms = [(state.v0_0, 1.0, "ml"), (state.w0p_0, 2.0, "ml"),
                     (state.f0, b + 1.0, "ml")]
        elif component == "cos":
            terms = [(state.v1_0[i], 1.0, "ml"),
                     (state.w1p_0[i], 2.0, "ml"),
                     (state.f1[i], b + 1.0, "ml"),
                     (2.0 * lam * state.v2_0[i], b + 1.0, "e1"),
                     (2.0 * lam * state.w2p_0[i], b + 2.0, "e1"),
                     (2.0 * lam * state.f2[i], 2.0 * b + 1.0, "e1")]
        elif component == "xsin":
            terms = [(state.v2_0[i], 1.0, "ml"),
                     (state.w2p_0[i], 2.0, "ml"),
                     (state.f2[i], b + 1.0, "ml")]
        else:
            raise ValueError(f"unknown component {component!r}")
    else:
        raise ValueError(f"unknown branch {branch!r}")
    mu = 0.0 if component == "zero" else lam**2
    return order, mu, terms


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
# convolution-integral oracles


def _qaws(fn, lo: float, hi: float, wexp: float, abs_tol: float = 1e-10) -> float:
    val, err = quad(fn, lo, hi, weight="alg", wvar=(0.0, wexp),
                    epsabs=abs_tol, epsrel=abs_tol, limit=400)
    if not math.isfinite(val) or err > max(100 * abs_tol, 1e-6 * abs(val)):
        raise QuadratureError(f"convolution quadrature error estimate {err}")
    return val


def v1k_convolution(state: ModeState, k: int, t: float) -> float:
    """Convolution-integral form of the coupled cosine mode on t > 0; the
    weakly singular factor (t-z)^(alpha-1) is handled by weighted adaptive
    quadrature."""
    a = state.problem.alpha
    lam = mode_wavenumber(k)
    mu = lam**2
    base = (state.v1_0[k - 1] * _phi_ml(a, 1.0, mu, t, ORACLE_POLICY)
            + state.f1[k - 1] * _phi_ml(a, a + 1.0, mu, t, ORACLE_POLICY))
    if t == 0.0:
        return base

    def kern(z: float) -> float:
        return ml(MLArgs(a, a, -mu * max(t - z, 0.0) ** a), ORACLE_POLICY)

    i1 = _qaws(lambda z: ml(MLArgs(a, 1.0, -mu * z**a), ORACLE_POLICY)
               * kern(z), 0.0, t, a - 1.0)
    i2 = _qaws(lambda z: z**a * ml(MLArgs(a, a + 1.0, -mu * z**a),
                                   ORACLE_POLICY) * kern(z), 0.0, t, a - 1.0)
    return base + 2.0 * lam * (state.v2_0[k - 1] * i1 + state.f2[k - 1] * i2)


def w2k_convolution(state: ModeState, k: int, t: float) -> float:
    """Convolution form of the lower-branch x-sine mode on t < 0."""
    b = state.problem.beta
    mu = mode_wavenumber(k) ** 2
    s = -t
    base = (state.v2_0[k - 1] * _phi_ml(b, 1.0, mu, s, ORACLE_POLICY)
            + state.w2p_0[k - 1] * _phi_ml(b, 2.0, mu, s, ORACLE_POLICY))
    if s == 0.0:
        return base
    i0 = _qaws(lambda u: ml(MLArgs(b, b, -mu * max(s - u, 0.0) ** b),
                            ORACLE_POLICY), 0.0, s, b - 1.0)
    return base + state.f2[k - 1] * i0


def w1k_convolution(state: ModeState, k: int, t: float) -> float:
    """Convolution form of the lower-branch cosine mode on t < 0."""
    b = state.problem.beta
    lam = mode_wavenumber(k)
    mu = lam**2
    s = -t
    base = (state.v1_0[k - 1] * _phi_ml(b, 1.0, mu, s, ORACLE_POLICY)
            + state.w1p_0[k - 1] * _phi_ml(b, 2.0, mu, s, ORACLE_POLICY))
    if s == 0.0:
        return base

    def kern(u: float) -> float:
        return ml(MLArgs(b, b, -mu * max(s - u, 0.0) ** b), ORACLE_POLICY)

    i0 = _qaws(kern, 0.0, s, b - 1.0)
    i1 = _qaws(lambda u: ml(MLArgs(b, 1.0, -mu * u**b), ORACLE_POLICY)
               * kern(u), 0.0, s, b - 1.0)
    i2 = _qaws(lambda u: u * ml(MLArgs(b, 2.0, -mu * u**b), ORACLE_POLICY)
               * kern(u), 0.0, s, b - 1.0)
    i3 = _qaws(lambda u: u**b * ml(MLArgs(b, b + 1.0, -mu * u**b),
                                   ORACLE_POLICY) * kern(u), 0.0, s, b - 1.0)
    return (base + state.f1[k - 1] * i0
            + 2.0 * lam * (state.v2_0[k - 1] * i1
                           + state.w2p_0[k - 1] * i2
                           + state.f2[k - 1] * i3))


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
    source: CoefficientSet = field(init=False)

    def __post_init__(self) -> None:
        self.source = self.state.source_coefficients()

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
    state = ModeState.zeros(prob)
    state.f0 = 0.0
    state.v0_0 = phi_c.c0
    state.w0p_0 = (psi_c.c0 - phi_c.c0) / p
    for k in range(1, K + 1):
        lam = mode_wavenumber(k)
        mu = lam**2
        i = k - 1
        denom = ml(MLArgs(b, 2.0, -mu * p**b))
        if abs(denom) < prob.tol:
            raise DivisionError(
                f"E_(beta,2) vanishes at mode k={k} "
                f"(beta={b}, p={p}): {denom}", k=k, value=denom)
        state.v1_0[i] = phi_c.c1[i]
        state.v2_0[i] = phi_c.c2[i]
        state.f1[i] = mu * phi_c.c1[i] - 2.0 * lam * phi_c.c2[i]
        state.f2[i] = mu * phi_c.c2[i]
        state.w2p_0[i] = (psi_c.c2[i] - phi_c.c2[i]) / (p * denom)
        coupling = 2.0 * lam * _phi_e1(b, b + 2.0, mu, p)
        state.w1p_0[i] = (psi_c.c1[i] - phi_c.c1[i]
                          - coupling * state.w2p_0[i]) / (p * denom)
    return SolutionField(state)


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
    state = ModeState.zeros(prob)
    state.w0p_0 = (psi_c.c0 - phi_c.c0) / delta0
    state.f0 = state.w0p_0
    state.v0_0 = phi_c.c0 - t_q * state.w0p_0
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
        state.v1_0[i], state.v2_0[i] = w1_0, w2_0
        state.w1p_0[i], state.w2p_0[i] = w1p, w2p
        state.f2[i] = w2p + mu * w2_0
        state.f1[i] = w1p + mu * w1_0 - 2.0 * lam * w2_0
    return SolutionField(state)


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
    """Populate mode constants directly from a source, interface values
    u(x, 0), and lower-branch slope coefficients."""
    for c in (source_c, u0_c, slope_c):
        if c.K != prob.K:
            raise ValueError("coefficient truncations must match problem K")
    state = ModeState.zeros(prob)
    state.f0 = source_c.c0
    state.v0_0 = u0_c.c0
    state.w0p_0 = slope_c.c0
    state.f1[:] = source_c.c1
    state.f2[:] = source_c.c2
    state.v1_0[:] = u0_c.c1
    state.v2_0[:] = u0_c.c2
    state.w1p_0[:] = slope_c.c1
    state.w2p_0[:] = slope_c.c2
    return state


def transmitting_source(prob: FracProblem, u0_c: CoefficientSet,
                        slope_c: CoefficientSet) -> CoefficientSet:
    """Source coefficients consistent with the transmitting condition for
    the given interface data (gamma < 1 kills the slope contribution)."""
    K = prob.K
    lam = 2.0 * math.pi * np.arange(1, K + 1)
    mu = lam**2
    if prob.gamma < 1.0:
        f0 = 0.0
        f1 = mu * u0_c.c1 - 2.0 * lam * u0_c.c2
        f2 = mu * u0_c.c2
    else:
        f0 = slope_c.c0
        f1 = slope_c.c1 + mu * u0_c.c1 - 2.0 * lam * u0_c.c2
        f2 = slope_c.c2 + mu * u0_c.c2
    return CoefficientSet(f0, f1, f2)


def manufacture(prob: FracProblem, u0_c: CoefficientSet,
                slope_c: CoefficientSet
                ) -> tuple[SolutionField, CoefficientSet, CoefficientSet]:
    """Forward-run transmitting-consistent data and return the field with
    its two boundary snapshots (the inverse solver's inputs)."""
    source_c = transmitting_source(prob, u0_c, slope_c)
    state = forward_state(prob, source_c, u0_c, slope_c)
    fld = SolutionField(state)
    phi_c = fld.mode_values(prob.q)
    psi_c = fld.mode_values(-prob.p)
    return fld, phi_c, psi_c
