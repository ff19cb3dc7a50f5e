"""A-posteriori checks of a solved field against the problem statement.

Everything here recomputes from the field's mode profiles with machinery
independent of the solve itself: time-fractional derivatives numerically,
spatial derivatives termwise, interface limits by Richardson extrapolation
toward t = 0 from both sides.  Every numeric Caputo derivative, of order
alpha, beta or gamma on either branch, goes through ``_caputo_s``: the
left derivative in s = |t| by the factored product integration of
``fracmix.fraccalc.caputo_left_factored`` (below the interface the right
derivative in t is the left one in s = -t).  One call per branch and stage
serves every mode profile, and its samples come from one table of
profiles on one shared grid: ``solver.profile_table`` on the s-grid in
``pde_residual``, and in ``transmit_residual`` the profiles rescaled to the
unit grid, one per Richardson offset of each profile.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .basis import (FunctionLike, as_callable, finite_real, synthesize,
                    table_rows)
from .fraccalc import FracOrder, caputo_left_factored, graded_grid
from .solver import (SolutionField, _branch_terms, _term_table,
                     mode_wavenumbers, profile_table)

DEFAULT_THRESHOLDS = {
    "pde_plus": 5e-3,
    "pde_minus": 5e-3,
    "transmit": 1e-4,
    "boundary_t": 1e-8,
    "continuity": 1e-9,
}

# pde_residual keeps this share of each branch extent clear of the interface
# and of the outer edge
PDE_T_MARGIN = 0.05
# pde_residual samples this many x and t points unless given others
PDE_GRID = 20
# boundary_residual and continuity_residual sample x at this many even points
BOUNDARY_NX = 401
CONTINUITY_NX = 201
# transmit_residual's probe offsets shrink like (theta / mu_k)^(1/order),
# with TRANSMIT_THETA above the interface and TRANSMIT_THETA_M below it
TRANSMIT_THETA = 1e-3
TRANSMIT_THETA_M = 1e-6
# tail_report flags a weighted series whose last quartile of modes carries
# more than this share of its mass
NONDECAY_RATIO = 0.2


def checked_thresholds(overrides: dict | None = None) -> dict:
    """DEFAULT_THRESHOLDS updated by overrides, each of which must name a
    known check and be a finite number; ValueError otherwise."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, dict):
        raise ValueError("thresholds must be a mapping of check names")
    for name, v in overrides.items():
        if name not in DEFAULT_THRESHOLDS:
            raise ValueError(f"unknown threshold {name!r}; known: "
                             + ", ".join(DEFAULT_THRESHOLDS))
        finite_real(v, f"threshold {name}")
    return {**DEFAULT_THRESHOLDS, **overrides}


@dataclass
class ResidualReport:
    """Max-norm residuals of the equation, boundary, interface, and
    transmitting conditions, plus series-tail diagnostics."""

    pde_plus: float
    pde_minus: float
    transmit: float
    boundary_t: float
    continuity: float
    tails: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def failures(self, thresholds: dict | None = None) -> list[str]:
        out = []
        for name, limit in checked_thresholds(thresholds).items():
            value = getattr(self, name)
            # values sitting exactly on a threshold count as passing, and
            # a NaN fails
            if not value <= limit:
                out.append(f"{name}: {value:.3e} > {limit:.1e}")
        return out


def _caputo_grid(upto: float, n: int) -> np.ndarray:
    """The s-grid of a numeric Caputo derivative: n points on [0, upto],
    graded toward the interface end."""
    return graded_grid(0.0, upto, n, power=2.0, cluster="left")


def _caputo_s(s: np.ndarray, deriv: np.ndarray, sigma: float, order: float,
              xs) -> np.ndarray:
    """Order-``order`` fractional left Caputo derivatives in s of branch
    profiles at the points xs in (0, s[-1]], s = |t|, on the grid s of
    :func:`_caputo_grid`: one row per profile, one column per point.

    Each row of ``deriv`` holds a profile's n-th s-derivative on s[1:], n
    the ceiling of the order; near the interface it behaves like s^sigma.
    The factor deriv * s^(-sigma), extended to s = 0 by its neighbour, is
    integrated as a piecewise quadratic, but it is a series in mu_k s^order,
    not analytic, so the error grows with mu_k as the order falls: 0.19 at
    gamma = 1, K = 48 and alpha = 0.55, where the closed form leaves
    4.6e-11.  One quadrature call serves every row and point."""
    g = np.empty(deriv.shape[:-1] + s.shape)
    np.multiply(deriv, s[1:] ** (-sigma), out=g[..., 1:])
    g[..., 0] = g[..., 1]
    return caputo_left_factored(s, g, sigma, FracOrder(order), xs)


def pde_residual(fld: SolutionField, nx: int = PDE_GRID,
                 nt: int = PDE_GRID) -> tuple[float, float]:
    """Max-norm equation residual on both branches over an (nx x nt) grid
    that keeps a margin away from the interface and the outer edges.

    The time part takes the branch-order Caputo derivatives of every mode
    profile at s = |t|: order alpha of d1 above the interface, where it
    behaves like t^(alpha-1), and order beta of d2 below it, where it
    behaves like s^(beta-2) in s = -t (the second derivative is the same
    in t and in s).  An integer order is the derivative itself."""
    prob = fld.problem
    xs = np.linspace(0.0, 1.0, nx)
    fs = fld.eval_f(xs)
    out = []
    for branch, extent, shift, sigma, order in (
            ("plus", prob.q, 1, prob.alpha - 1.0, prob.alpha),
            ("minus", -prob.p, 2, prob.beta - 2.0, prob.beta)):
        ts = np.linspace(PDE_T_MARGIN * extent,
                         (1.0 - PDE_T_MARGIN) * extent, nt)
        if float(order).is_integer():
            table = profile_table(fld, branch, np.abs(ts), shift)
        else:
            s = _caputo_grid(abs(extent), 2001)
            table = _caputo_s(s, profile_table(fld, branch, s[1:], shift),
                              sigma, order, np.abs(ts))
            del s
        resid = synthesize(table, xs) - fld.eval_uxx(xs, ts) - fs
        out.append(float(np.max(np.abs(resid))))
    return out[0], out[1]


def _richardson(f_eps, f_half, order: float):
    """One extrapolation stage, elementwise over arrays of samples."""
    r = 2.0**order
    return (r * f_half - f_eps) / (r - 1.0)


def _richardson2(f_eps, f_half, f_quarter, order1: float, order2: float):
    """Two-stage extrapolation removing the leading pair of correction
    exponents; the second coefficient scales with the mode eigenvalue, so a
    single stage cannot reach the interface tolerance on high modes."""
    g1 = _richardson(f_eps, f_half, order1)
    g2 = _richardson(f_half, f_quarter, order1)
    return _richardson(g1, g2, order2)


def _interface_limits(fld: SolutionField, branch: str, offsets: np.ndarray,
                      sigma: float, order: float, n: int) -> np.ndarray:
    """Order-``order`` Caputo derivatives in s of every mode profile of the
    branch, the order in (0, 1], each at its own offsets e (one row of
    offsets per profile).

    On s = e * u a kernel's argument -mu s^nu is -(mu e^nu) u^nu, and a
    power s^(c-2) of the first s-derivative is e^(c-2) u^(c-2).  So each
    probe's first derivative on the grid e * u is a profile of eigenvalue
    mu e^nu and coefficients times e^(c-2), read on the one grid u shared
    by every probe: the :func:`_caputo_grid` up to 1.  In s = e * tau the
    derivative at e is e^(1-order) times the one at tau = 1 of those
    samples, so one profile table and one quadrature call give them all.
    An integer order is the first derivative itself, read at u = 1."""
    nu, mu, terms = _branch_terms(fld, branch)

    def scaled(rows: np.ndarray, power: float) -> np.ndarray:
        return (rows[:, None] * offsets**power).ravel()

    probes = (nu, scaled(mu, nu),
              [(scaled(coef, c - 2.0), c, kind) for coef, c, kind in terms])
    if float(order).is_integer():
        at_one = _term_table(*probes, [1.0], 1)
    else:
        unit = _caputo_grid(1.0, n)
        at_one = _caputo_s(unit, _term_table(*probes, unit[1:], 1), sigma,
                           order, 1.0)
    return at_one.reshape(offsets.shape) * offsets ** (1.0 - order)


def transmit_residual(fld: SolutionField) -> float:
    """Componentwise gap between the two interface limits of the branch
    fractional derivatives, each extrapolated from eps, eps/2 and eps/4.

    The probe offset shrinks per mode like (theta / mu_k)^(1/order): the
    profiles' interface corrections scale with the eigenvalue mu_k, so a
    fixed offset would lose accuracy on high modes."""
    prob = fld.problem
    g = prob.gamma
    cap = 0.1 * min(prob.p, prob.q)
    _, lam2 = mode_wavenumbers(prob.K)
    mus = np.maximum(table_rows(0.0, lam2, lam2), 1.0).tolist()

    def offsets(theta: float, power: float) -> np.ndarray:
        return np.array([[e / 2**j for j in range(3)] for e in
                         (min(cap, (theta / mu) ** power) for mu in mus)])

    # upper limit: order-alpha Caputo toward t -> 0+,
    # correction ladder (alpha, 2 alpha)
    plus = _interface_limits(fld, "plus",
                             offsets(TRANSMIT_THETA, 1.0 / prob.alpha),
                             prob.alpha - 1.0, prob.alpha, 2001)
    # lower limit: order-gamma Caputo toward t -> 0-, of the first
    # s-derivative, which is continuous at the interface;
    # ladder (beta-1, beta) at gamma = 1 and (1-gamma, beta-gamma) below
    if g == 1.0:
        power = 1.0 / prob.beta
        ladder = (prob.beta - 1.0, prob.beta)
    else:
        power = 1.0 / (prob.beta - g)
        ladder = (1.0 - g, prob.beta - g)
    minus = _interface_limits(fld, "minus", offsets(TRANSMIT_THETA_M, power),
                              0.0, g, 801)
    gaps = (_richardson2(*plus.T, prob.alpha, 2.0 * prob.alpha)
            - _richardson2(*minus.T, *ladder))
    return float(np.max(np.abs(gaps)))


def boundary_residual(fld: SolutionField, phi: FunctionLike,
                      psi: FunctionLike) -> float:
    """Snapshot mismatch at t = q and t = -p, for data given in any form
    that :func:`fracmix.basis.project` accepts.

    The x conditions u(0,t) = u(1,t) and u_x(0,t) = 0 are not checked here:
    every cosine and x sine atom satisfies them by construction."""
    prob = fld.problem
    xs = np.linspace(0.0, 1.0, BOUNDARY_NX)
    phi, psi = as_callable(phi), as_callable(psi)
    return float(np.max(np.abs([fld.eval_u(xs, prob.q) - phi(xs),
                                fld.eval_u(xs, -prob.p) - psi(xs)])))


def continuity_residual(fld: SolutionField) -> float:
    """Largest gap between the upper and lower branch values of u at t = 0,
    each read from its branch's profile table at s = 0."""
    xs = np.linspace(0.0, 1.0, CONTINUITY_NX)
    plus, minus = (synthesize(profile_table(fld, b, [0.0])[:, 0], xs)
                   for b in ("plus", "minus"))
    return float(np.max(np.abs(plus - minus)))


def tail_report(fld: SolutionField) -> dict:
    """Weighted partial sums (2 k pi)^2 |coefficient| per series, the share
    carried by the last quartile of modes, and non-decay flags.

    A weighted series from admissible data decays with k, putting well under
    a fifth of its mass in the last quartile; stagnant or growing weighted
    coefficients (under-regular data) cross that share."""
    prob = fld.problem
    K = prob.K
    _, lam2 = mode_wavenumbers(K)
    table = fld.mode_values(np.array([0.0, 0.5 * prob.q, prob.q,
                                      -prob.p, -0.5 * prob.p]))
    series = {}
    for name, cols in (("upper", table[:, :3]), ("lower", table[:, 3:]),
                       ("source", fld.source.rows[:, None])):
        peak = np.max(np.abs(cols), axis=1)
        series[f"{name}-cos"] = lam2 * peak[1::2]
        series[f"{name}-xsin"] = lam2 * peak[2::2]
    q_start = max(1, (3 * K) // 4)
    tails = {}
    flags = []
    for name, weighted in series.items():
        total = float(np.sum(weighted))
        last_quartile = float(np.sum(weighted[q_start:]))
        ratio = last_quartile / total if total > 0 else 0.0
        tails[name] = {"partial_sum": total, "last_quartile_ratio": ratio}
        if ratio > NONDECAY_RATIO:
            flags.append(name)
    tails["reference_inv_k2"] = {
        "partial_sum": float(np.sum(1.0 / (np.arange(1, K + 1) * math.pi) ** 2)),
        "limit": 1.0 / 6.0,
    }
    tails["nondecay_flags"] = flags
    return tails


def full_report(fld: SolutionField, phi: FunctionLike, psi: FunctionLike,
                nx: int = PDE_GRID, nt: int = PDE_GRID) -> ResidualReport:
    pde_p, pde_m = pde_residual(fld, nx=nx, nt=nt)
    return ResidualReport(
        pde_plus=pde_p,
        pde_minus=pde_m,
        transmit=transmit_residual(fld),
        boundary_t=boundary_residual(fld, phi, psi),
        continuity=continuity_residual(fld),
        tails=tail_report(fld),
    )
