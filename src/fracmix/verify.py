"""A-posteriori checks of a solved field against the problem statement.

Everything here recomputes from the field's mode profiles with machinery
independent of the solve itself: time-fractional derivatives numerically by
product integration, spatial derivatives termwise, interface limits by
Richardson extrapolation toward t = 0 from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Union

import numpy as np

from .basis import CoefficientSet, TrigPolynomial, synthesize
from .fraccalc import (
    FracOrder,
    SampledFunction,
    caputo_left_factored,
    caputo_right,
    caputo_right_factored,
    graded_grid,
)
from .solver import SolutionField, mode_profile

DEFAULT_THRESHOLDS = {
    "pde_plus": 5e-3,
    "pde_minus": 5e-3,
    "transmit": 1e-4,
    "boundary_t": 1e-8,
    "boundary_x": 1e-8,
    "continuity": 1e-9,
}

FunctionLike = Union[TrigPolynomial, Callable]


@dataclass
class ResidualReport:
    """Max-norm residuals of the equation, boundary, interface, and
    transmitting conditions, plus series-tail diagnostics."""

    pde_plus: float
    pde_minus: float
    transmit: float
    boundary_t: float
    boundary_x: float
    continuity: float
    tails: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "pde_plus": self.pde_plus,
            "pde_minus": self.pde_minus,
            "transmit": self.transmit,
            "boundary_t": self.boundary_t,
            "boundary_x": self.boundary_x,
            "continuity": self.continuity,
            "tails": self.tails,
        }

    def failures(self, thresholds: dict | None = None) -> list[str]:
        th = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            th.update(thresholds)
        out = []
        for name, limit in th.items():
            value = getattr(self, name)
            # values sitting exactly on a threshold count as passing
            if value > limit:
                out.append(f"{name}: {value:.3e} > {limit:.1e}")
        return out


def _mode_components(K: int):
    yield "zero", 0
    for k in range(1, K + 1):
        yield "cos", k
        yield "xsin", k


def _factored_deriv_samples(fld: SolutionField, branch: str, component: str,
                            k: int, upto: float, n: int = 3001):
    """Graded s-grid on [0, upto] and samples of the branch derivative's
    smooth part after pulling out its leading interface power.

    Above the interface the order-one derivative behaves like
    t^(alpha-1) x (analytic in t^alpha); below, the second derivative like
    s^(beta-2) x (analytic).  The smooth part extends to s = 0 by its
    neighbor (the graded first cell carries negligible mass)."""
    prob = fld.problem
    _, d1, d2 = mode_profile(fld.state, branch, component, k)
    # the factored part is analytic away from s = 0, so all clustering goes
    # to the interface end
    s = graded_grid(0.0, upto, n, power=2.0, cluster="left")
    g = np.empty_like(s)
    if branch == "plus":
        sigma = prob.alpha - 1.0
        g[1:] = d1(s[1:]) * s[1:] ** (-sigma)
    else:
        sigma = prob.beta - 2.0
        g[1:] = d2(-s[1:]) * s[1:] ** (-sigma)
    g[0] = g[1]
    return s, g, sigma


def _caputo_time(fld: SolutionField, branch: str, component: str, k: int,
                 ts: np.ndarray) -> np.ndarray:
    """Numeric branch-order Caputo derivative of one mode profile on ts.

    Integer orders fall back to the exact profile derivatives (the operator
    degenerates to +d/dt above and +d^2/dt^2 below the interface); the
    fractional orders run the factored product integration from fraccalc."""
    prob = fld.problem
    _, d1, d2 = mode_profile(fld.state, branch, component, k)
    if branch == "plus":
        if prob.alpha == 1.0:
            return np.asarray(d1(ts), dtype=float)
        s, g, sigma = _factored_deriv_samples(fld, branch, component, k,
                                              prob.q)
        return np.array([caputo_left_factored(s, g, sigma,
                                              FracOrder(prob.alpha), t)
                         for t in ts])
    if prob.beta == 2.0:
        return np.asarray(d2(ts), dtype=float)
    s, g, sigma = _factored_deriv_samples(fld, branch, component, k, prob.p)
    grid_t, gv = -s[::-1], g[::-1]
    return np.array([caputo_right_factored(grid_t, gv, sigma,
                                           FracOrder(prob.beta), t)
                     for t in ts])


def pde_residual(fld: SolutionField, nx: int = 20, nt: int = 20,
                 t_margin: float = 0.05) -> tuple[float, float]:
    """Max-norm equation residual on both branches over an (nx x nt) grid
    that keeps a margin away from the interface and the outer edges."""
    prob = fld.problem
    K = prob.K
    xs = np.linspace(0.0, 1.0, nx)
    fs = fld.eval_f(xs)
    out = []
    for branch, extent in (("plus", prob.q), ("minus", -prob.p)):
        ts = np.linspace(t_margin * extent, (1.0 - t_margin) * extent, nt)
        caputo_rows = {}
        for component, k in _mode_components(K):
            caputo_rows[(component, k)] = _caputo_time(fld, branch, component,
                                                       k, ts)
        worst = 0.0
        for j, t in enumerate(ts):
            c0 = caputo_rows[("zero", 0)][j]
            c1 = np.array([caputo_rows[("cos", k)][j] for k in range(1, K + 1)])
            c2 = np.array([caputo_rows[("xsin", k)][j] for k in range(1, K + 1)])
            du = synthesize(CoefficientSet(c0, c1, c2), xs)
            resid = du - fld.eval_uxx(xs, t) - fs
            worst = max(worst, float(np.max(np.abs(resid))))
        out.append(worst)
    return out[0], out[1]


def _richardson(f_eps: float, f_half: float, order: float) -> float:
    r = 2.0**order
    return (r * f_half - f_eps) / (r - 1.0)


def _richardson2(f_eps: float, f_half: float, f_quarter: float,
                 order1: float, order2: float) -> float:
    """Two-stage extrapolation removing the leading pair of correction
    exponents; the second coefficient scales with the mode eigenvalue, so a
    single stage cannot reach the interface tolerance on high modes."""
    g1 = _richardson(f_eps, f_half, order1)
    g2 = _richardson(f_half, f_quarter, order1)
    return _richardson(g1, g2, order2)


def transmit_residual(fld: SolutionField, theta: float = 1e-3) -> float:
    """Componentwise gap between the two interface limits of the branch
    fractional derivatives, each extrapolated from eps and eps/2.

    The probe offset shrinks per mode like (theta / mu_k)^(1/order): the
    profiles' interface corrections scale with the eigenvalue mu_k, so a
    fixed offset would lose accuracy on high modes."""
    prob = fld.problem
    g = prob.gamma
    cap = 0.1 * min(prob.p, prob.q)
    theta_m = 1e-6
    worst = 0.0
    for component, k in _mode_components(prob.K):
        mu = max((2.0 * math.pi * k) ** 2, 1.0)
        # upper limit: order-alpha Caputo toward t -> 0+,
        # correction ladder (alpha, 2 alpha)
        if prob.alpha == 1.0:
            eps = min(cap, theta / mu)
            _, d1, _ = mode_profile(fld.state, "plus", component, k)
            vals = [float(d1(eps / 2**j)) for j in range(3)]
            plus = _richardson2(*vals, 1.0, 2.0)
        else:
            eps = min(cap, (theta / mu) ** (1.0 / prob.alpha))
            vals = []
            for j in range(3):
                e = eps / 2**j
                s, gs, sigma = _factored_deriv_samples(fld, "plus", component,
                                                       k, e, n=2001)
                vals.append(caputo_left_factored(s, gs, sigma,
                                                 FracOrder(prob.alpha), e))
            plus = _richardson2(*vals, prob.alpha, 2.0 * prob.alpha)
        # lower limit: order-gamma Caputo toward t -> 0-,
        # ladder (beta-1, beta) at gamma = 1 and (1-gamma, beta-gamma) below
        if g == 1.0:
            eps = min(cap, (theta_m / mu) ** (1.0 / prob.beta))
            _, d1, _ = mode_profile(fld.state, "minus", component, k)
            vals = [-float(d1(-eps / 2**j)) for j in range(3)]
            minus = _richardson2(*vals, prob.beta - 1.0, prob.beta)
        else:
            eps = min(cap, (theta_m / mu) ** (1.0 / (prob.beta - g)))
            vals = [_minus_gamma_numeric(fld, component, k, g, eps / 2**j)
                    for j in range(3)]
            minus = _richardson2(*vals, 1.0 - g, prob.beta - g)
        worst = max(worst, abs(plus - minus))
    return worst


def _minus_gamma_numeric(fld: SolutionField, component: str, k: int,
                         g: float, e: float, n: int = 801) -> float:
    """Numeric order-g right Caputo of a lower-branch profile at t = -e.

    The profile's first derivative is continuous at the interface (the
    branch order exceeds one), so the endpoint sample extends by its
    neighbor."""
    val, d1, _ = mode_profile(fld.state, "minus", component, k)
    grid = graded_grid(-8.0 * e, 0.0, n, power=3.0, cluster="both")
    dvals = np.empty_like(grid)
    dvals[:-1] = d1(grid[:-1])
    dvals[-1] = dvals[-2]
    sf = SampledFunction(grid, val(grid), d1=dvals)
    return caputo_right(sf, FracOrder(g), -e)


def boundary_residual(fld: SolutionField, phi: FunctionLike,
                      psi: FunctionLike, nx: int = 401,
                      nt: int = 41) -> tuple[float, float]:
    """(snapshot mismatch at t = q and t = -p, periodicity/flux mismatch in x)."""
    prob = fld.problem
    xs = np.linspace(0.0, 1.0, nx)
    bt = max(float(np.max(np.abs(fld.eval_u(xs, prob.q)
                                 - np.asarray(phi(xs), dtype=float)))),
             float(np.max(np.abs(fld.eval_u(xs, -prob.p)
                                 - np.asarray(psi(xs), dtype=float)))))
    bx = 0.0
    lam = 2.0 * math.pi * np.arange(1, prob.K + 1)
    for t in np.linspace(-prob.p, prob.q, nt):
        c = fld.mode_values(t)
        bx = max(bx, abs(float(synthesize(c, 0.0)) - float(synthesize(c, 1.0))))
        # u_x(0,t): cosine atoms have zero slope at 0; x sin atoms
        # differentiate to sin + lam x cos, also zero at 0; evaluate the
        # termwise formula to keep this an actual computation
        ux0 = float(np.sum(c.c1 * (-lam) * np.sin(lam * 0.0))
                    + np.sum(c.c2 * (np.sin(lam * 0.0) + lam * 0.0)))
        bx = max(bx, abs(ux0))
    return bt, bx


def continuity_residual(fld: SolutionField, nx: int = 201) -> float:
    """Largest gap between the upper and lower branch values of u at t = 0."""
    xs = np.linspace(0.0, 1.0, nx)
    gap = np.abs(synthesize(fld.mode_values(0.0, "plus"), xs)
                 - synthesize(fld.mode_values(0.0, "minus"), xs))
    return float(np.max(gap))


def _fd_derivs(f: Callable, x: float, side: str):
    """(f', f'') by one-sided stencils at an endpoint; the slope uses a
    finer step than the curvature to balance truncation against roundoff."""
    s = 1.0 if side == "left" else -1.0
    h1 = 1e-5
    a0, a1, a2 = (float(f(x + s * i * h1)) for i in range(3))
    d1 = s * (-3 * a0 + 4 * a1 - a2) / (2 * h1)
    h2 = 1e-3
    b = [float(f(x + s * i * h2)) for i in range(4)]
    d2 = (2 * b[0] - 5 * b[1] + 4 * b[2] - b[3]) / h2**2
    return d1, d2


def regularity_report(phi: FunctionLike, psi: FunctionLike,
                      tol: float = 1e-6) -> list[dict]:
    """Endpoint compatibility screening of the two snapshots.

    Checks the full set (periodic values, zero slope at 0, periodic second
    derivatives, for both snapshots) and separately the weaker set that only
    constrains the upper snapshot's values and slope."""
    out = []

    def derivs(f, x, side):
        if isinstance(f, TrigPolynomial):
            return float(f.deriv(x, 1)), float(f.deriv(x, 2))
        return _fd_derivs(f, x, side)

    for name, f in (("phi", phi), ("psi", psi)):
        v0 = float(np.asarray(f(np.array([0.0])))[0])
        v1 = float(np.asarray(f(np.array([1.0])))[0])
        d1_0, d2_0 = derivs(f, 0.0, "left")
        _, d2_1 = derivs(f, 1.0, "right")
        checks = [
            (f"{name}(0) = {name}(1)", abs(v0 - v1)),
            (f"{name}'(0) = 0", abs(d1_0)),
            (f"{name}''(0) = {name}''(1)", abs(d2_0 - d2_1)),
        ]
        for cond, mag in checks:
            out.append({"condition": cond, "set": "full",
                        "magnitude": mag, "satisfied": mag <= tol})
    # weaker set: upper snapshot only, values and slope
    v0 = float(np.asarray(phi(np.array([0.0])))[0])
    v1 = float(np.asarray(phi(np.array([1.0])))[0])
    d1_0, _ = derivs(phi, 0.0, "left")
    for cond, mag in (("phi(0) = phi(1)", abs(v0 - v1)),
                      ("phi'(0) = 0", abs(d1_0))):
        out.append({"condition": cond, "set": "weak",
                    "magnitude": mag, "satisfied": mag <= tol})
    return out


def tail_report(fld: SolutionField, nondecay_ratio: float = 0.2) -> dict:
    """Weighted partial sums (2 k pi)^2 |coefficient| per series, the share
    carried by the last quartile of modes, and non-decay flags.

    A weighted series from admissible data decays with k, putting well under
    a fifth of its mass in the last quartile; stagnant or growing weighted
    coefficients (under-regular data) cross that share."""
    prob = fld.problem
    K = prob.K
    lam2 = (2.0 * math.pi * np.arange(1, K + 1)) ** 2
    slices = {
        "upper": [fld.mode_values(t) for t in (0.0, 0.5 * prob.q, prob.q)],
        "lower": [fld.mode_values(t) for t in (-prob.p, -0.5 * prob.p)],
    }
    series = {}
    for branch, cs in slices.items():
        c1 = np.max(np.abs(np.stack([c.c1 for c in cs])), axis=0)
        c2 = np.max(np.abs(np.stack([c.c2 for c in cs])), axis=0)
        series[f"{branch}-cos"] = lam2 * c1
        series[f"{branch}-xsin"] = lam2 * c2
    src = fld.source
    series["source-cos"] = lam2 * np.abs(src.c1)
    series["source-xsin"] = lam2 * np.abs(src.c2)
    q_start = max(1, (3 * K) // 4)
    tails = {}
    flags = []
    for name, weighted in series.items():
        total = float(np.sum(weighted))
        last_quartile = float(np.sum(weighted[q_start:]))
        ratio = last_quartile / total if total > 0 else 0.0
        tails[name] = {"partial_sum": total, "last_quartile_ratio": ratio}
        if ratio > nondecay_ratio:
            flags.append(name)
    tails["reference_inv_k2"] = {
        "partial_sum": float(np.sum(1.0 / (np.arange(1, K + 1) * math.pi) ** 2)),
        "limit": 1.0 / 6.0,
    }
    tails["nondecay_flags"] = flags
    return tails


def full_report(fld: SolutionField, phi: FunctionLike, psi: FunctionLike,
                nx: int = 20, nt: int = 20) -> ResidualReport:
    pde_p, pde_m = pde_residual(fld, nx=nx, nt=nt)
    bt, bx = boundary_residual(fld, phi, psi)
    return ResidualReport(
        pde_plus=pde_p,
        pde_minus=pde_m,
        transmit=transmit_residual(fld),
        boundary_t=bt,
        boundary_x=bx,
        continuity=continuity_residual(fld),
        tails=tail_report(fld),
    )
