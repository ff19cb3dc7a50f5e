"""A-posteriori checks of a solved field against the problem statement.

Everything here recomputes from the field's mode profiles with machinery
independent of the solve itself: time-fractional derivatives numerically,
spatial derivatives termwise, interface limits by Richardson extrapolation
toward t = 0 from both sides.  Every Caputo derivative, of order alpha,
beta or gamma on either branch, goes through ``_caputo_table``: the
derivative itself at an integer order, and otherwise the left derivative
in s = |t| by the factored product integration of
``fracmix.fraccalc.caputo_left_factored`` (below the interface the right
derivative in t is the left one in s = -t).  One call per branch and stage
serves every mode profile, and its samples come from one profile table on
one shared grid: the branch's own profiles on the s-grid in
``pde_residual``, and in ``transmit_residual`` the profiles rescaled to the
unit grid, one per Richardson offset of each profile.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .basis import FunctionLike, as_callable, finite_real, synthesize
from .fraccalc import FracOrder, caputo_left_factored, graded_grid
from .solver import (SolutionField, _branch_terms, _elementwise,
                     _term_table, mode_wavenumbers, profile_table)

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
# the interface probes' offsets shrink like (theta / mu_k)^(1/order), with
# theta TRANSMIT_THETA above the interface and TRANSMIT_THETA_M below it
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


def _caputo_table(profiles, sigma: float, order: float, upto: float, n: int,
                  xs) -> np.ndarray:
    """Order-``order`` left Caputo derivatives in s = |t| of the profiles
    (order, mu, terms) of ``solver._branch_terms`` at the points xs in
    (0, upto]: one row per profile, one column per point.

    An integer order is the ceil(order)-th s-derivative itself.  Otherwise
    that derivative, like s^sigma near the interface, is read on the
    n-point :func:`_caputo_grid` up to upto, and deriv * s^(-sigma),
    extended to s = 0 by its neighbour, is integrated as a piecewise
    quadratic by one quadrature call.  That factor is a series in
    mu_k s^order, not analytic, so the error grows with mu_k as the order
    falls: 0.19 at gamma = 1, K = 48 and alpha = 0.55, where the closed
    form leaves 4.6e-11."""
    shift = math.ceil(order)
    if float(order).is_integer():
        return _term_table(*profiles, xs, shift)
    s = _caputo_grid(upto, n)
    deriv = _term_table(*profiles, s[1:], shift)
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
    for branch, extent, sigma, order in (
            ("plus", prob.q, prob.alpha - 1.0, prob.alpha),
            ("minus", -prob.p, prob.beta - 2.0, prob.beta)):
        ts = np.linspace(PDE_T_MARGIN * extent,
                         (1.0 - PDE_T_MARGIN) * extent, nt)
        table = _caputo_table(_branch_terms(fld, branch), sigma, order,
                              abs(extent), 2001, np.abs(ts))
        resid = synthesize(table, xs) - fld.eval_uxx(xs, ts) - fs
        out.append(float(np.max(np.abs(resid))))
    return out[0], out[1]


def _richardson2(f_eps, f_half, f_quarter, order1: float, order2: float):
    """Two-stage extrapolation removing the leading pair of correction
    exponents; the second coefficient scales with the mode eigenvalue, so a
    single stage cannot reach the interface tolerance on high modes."""
    r1, r2 = 2.0**order1, 2.0**order2
    g1 = (r1 * f_half - f_eps) / (r1 - 1.0)
    g2 = (r1 * f_quarter - f_half) / (r1 - 1.0)
    return (r2 * g2 - g1) / (r2 - 1.0)


def _interface_limits(fld: SolutionField, branch: str, theta: float,
                      power: float, sigma: float, order: float,
                      n: int) -> np.ndarray:
    """Order-``order`` Caputo derivatives in s of every mode profile of the
    branch, the order in (0, 1], at its three Richardson offsets: one row
    per profile, one column per offset.

    A profile of eigenvalue mu takes the offsets e = min(cap, (theta /
    max(mu, 1))^power) / 2^j, j = 0, 1, 2, with cap = 0.1 min(p, q) and
    libm's pow: the profile's interface corrections scale with mu, so a
    fixed offset would lose accuracy on high modes.

    On s = e * u a kernel's argument -mu s^nu is -(mu e^nu) u^nu, and a
    power s^(c-2) of the first s-derivative is e^(c-2) u^(c-2).  So each
    probe's first derivative on the grid e * u is a profile of eigenvalue
    mu e^nu and coefficients times e^(c-2), read on the one grid u shared
    by every probe: the :func:`_caputo_grid` up to 1.  In s = e * tau the
    derivative at e is e^(1-order) times the one at tau = 1 of those
    samples, so one profile table and one quadrature call give them all.

    Where an offset is below 1e-150 (at orders near 0.01), its powers come
    from its log, and e^(1-order) moves into the coefficients, as
    e^(c-1-order): there e^(c-2) alone could overflow, and the offset
    itself underflow."""
    nu, mu, terms = _branch_terms(fld, branch)
    cap = 0.1 * min(fld.problem.p, fld.problem.q)
    mus = np.maximum(mu, 1.0)
    offsets = (np.minimum(cap, _elementwise(pow, theta / mus, power))[:, None]
               / [1.0, 2.0, 4.0])
    ln_offsets = np.minimum(math.log(cap), power * (
        math.log(theta) - np.log(mus)))[:, None] - math.log(2.0) * np.arange(3)
    tiny = offsets < 1e-150

    def scaled(rows: np.ndarray, exponent: float, fold: float) -> np.ndarray:
        with np.errstate(divide="ignore"):
            factor = offsets**exponent
        factor[tiny] = np.exp((exponent + fold) * ln_offsets[tiny])
        return (rows[:, None] * factor).ravel()

    probes = (nu, scaled(mu, nu, 0.0),
              [(scaled(coef, c - 2.0, 1.0 - order), c, kind)
               for coef, c, kind in terms])
    at_one = _caputo_table(probes, sigma, order, 1.0, n, [1.0])
    return at_one.reshape(offsets.shape) * np.where(
        tiny, 1.0, offsets ** (1.0 - order))


def transmit_residual(fld: SolutionField) -> float:
    """Componentwise gap between the two interface limits of the branch
    fractional derivatives, each extrapolated from the offsets eps, eps/2
    and eps/4 of :func:`_interface_limits`, which shrink per mode like
    (theta / mu_k)^(1/order), order the ladder's second exponent."""
    prob = fld.problem
    g = prob.gamma
    # upper limit: order-alpha Caputo toward t -> 0+,
    # correction ladder (alpha, 2 alpha)
    plus = _interface_limits(fld, "plus", TRANSMIT_THETA, 1.0 / prob.alpha,
                             prob.alpha - 1.0, prob.alpha, 2001)
    # lower limit: order-gamma Caputo toward t -> 0-, of the first
    # s-derivative, which is continuous at the interface
    ladder = ((prob.beta - 1.0, prob.beta) if g == 1.0
              else (1.0 - g, prob.beta - g))
    minus = _interface_limits(fld, "minus", TRANSMIT_THETA_M, 1.0 / ladder[1],
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
    return ResidualReport(pde_p, pde_m, transmit_residual(fld),
                          boundary_residual(fld, phi, psi),
                          continuity_residual(fld), tail_report(fld))
