"""Test oracles for the solver: the convolution-integral forms of the mode
profiles and a forward run that manufactures consistent boundary data.

The product evaluates every profile from the closed-form term table in
``fracmix.solver``; these forms compute the same profiles by weighted
adaptive quadrature of the Duhamel convolutions, so the two share nothing
but the two-parameter Mittag-Leffler evaluator.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from fracmix.basis import CoefficientSet
from fracmix.errors import QuadratureError
from fracmix.solver import (
    FracProblem,
    ModeState,
    SolutionField,
    forward_state,
    mode_wavenumber,
)
from fracmix.specfun import MLArgs, SummationPolicy, ml

ORACLE_POLICY = SummationPolicy(abs_tol=1e-10)


def _phi_ml(a: float, c: float, mu: float, s: float) -> float:
    """s^(c-1) * E_{a,c}(-mu s^a) for s >= 0 under ORACLE_POLICY, with the
    s = 0 limits of ``fracmix.solver.profile_table``."""
    if s == 0.0:
        if c == 1.0:
            return 1.0
        return 0.0 if c > 1.0 else math.inf
    return s ** (c - 1.0) * ml(MLArgs(a, c, -mu * s**a), ORACLE_POLICY)


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
    base = (state.value.c1[k - 1] * _phi_ml(a, 1.0, mu, t)
            + state.source.c1[k - 1] * _phi_ml(a, a + 1.0, mu, t))
    if t == 0.0:
        return base

    def kern(z: float) -> float:
        return ml(MLArgs(a, a, -mu * max(t - z, 0.0) ** a), ORACLE_POLICY)

    i1 = _qaws(lambda z: ml(MLArgs(a, 1.0, -mu * z**a), ORACLE_POLICY)
               * kern(z), 0.0, t, a - 1.0)
    i2 = _qaws(lambda z: z**a * ml(MLArgs(a, a + 1.0, -mu * z**a),
                                   ORACLE_POLICY) * kern(z), 0.0, t, a - 1.0)
    return base + 2.0 * lam * (state.value.c2[k - 1] * i1
                               + state.source.c2[k - 1] * i2)


def w2k_convolution(state: ModeState, k: int, t: float) -> float:
    """Convolution form of the lower-branch x-sine mode on t < 0."""
    b = state.problem.beta
    mu = mode_wavenumber(k) ** 2
    s = -t
    base = (state.value.c2[k - 1] * _phi_ml(b, 1.0, mu, s)
            + state.slope.c2[k - 1] * _phi_ml(b, 2.0, mu, s))
    if s == 0.0:
        return base
    i0 = _qaws(lambda u: ml(MLArgs(b, b, -mu * max(s - u, 0.0) ** b),
                            ORACLE_POLICY), 0.0, s, b - 1.0)
    return base + state.source.c2[k - 1] * i0


def w1k_convolution(state: ModeState, k: int, t: float) -> float:
    """Convolution form of the lower-branch cosine mode on t < 0."""
    b = state.problem.beta
    lam = mode_wavenumber(k)
    mu = lam**2
    s = -t
    base = (state.value.c1[k - 1] * _phi_ml(b, 1.0, mu, s)
            + state.slope.c1[k - 1] * _phi_ml(b, 2.0, mu, s))
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
    return (base + state.source.c1[k - 1] * i0
            + 2.0 * lam * (state.value.c2[k - 1] * i1
                           + state.slope.c2[k - 1] * i2
                           + state.source.c2[k - 1] * i3))


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
