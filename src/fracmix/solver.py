"""Forward mode evolution and the two inverse source solvers.

The field splits over the interface t = 0 into a sub-diffusive branch of
order alpha in (0,1] on t > 0 and a diffusive-wave branch of order beta in
(1,2] on t < 0, coupled mode-by-mode in the bi-orthogonal family.  Three
coefficient sets fix every mode's time profile (``SolutionField``): the
source, the interface values and the lower-branch slopes.  On each branch
every mode profile is the same short sum of Mittag-Leffler kernels
s^(c-1) E_{nu,c}(-mu_k s^nu) and of their coupled two-variable
counterparts, which enter only in their unit family at equal arguments and
collapse exactly to two E_{nu,c}; only the coefficients differ.  So one
term set per branch, built from its table of (set, c) rows
(``_branch_terms``), holds the row eigenvalues and each term's
coefficients as arrays over the 2K+1 profile rows, laid out by
``basis.table_rows``.  Profile values and exact time derivatives (c
lowered by one per order) read those arrays, as do the tests' closed-form
Caputo derivatives (c lowered by the order), on one grid shared by every
row, and one ``ml_array`` call per block of points gives every kernel a
table reads.  The verifier's interface probes are such rows too, each
profile rescaled to the unit grid.  A field at a set of times is one table
of those rows by times (``SolutionField.mode_values``), which
``basis.synthesize`` reads whole.  The inverse solvers' per-mode constants,
the gamma < 1 denominator among them, are one-point columns of such tables
(``_term_column``), and E_{a,1}(z) = 1 + z*E_{a,a+1}(z) reduces the
interface value's terms in each snapshot equation to the value itself.

The inverse problem recovers the space-only source and the full field from
the two boundary snapshots u(x, q) and u(x, -p).  For transmitting order
gamma < 1 the recovery is explicit; for gamma = 1 it reduces to 2x2 linear
systems, solved for every mode at once, whose determinants must not vanish.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral

import numpy as np

from .basis import (CoefficientSet, finite_real, synthesize,
                    synthesize_second_deriv, table_rows)
from .errors import DivisionError, SolvabilityError
from .specfun import _e1_collapse, ml_array


def mode_wavenumbers(K: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_k, mu_k = lambda_k^2) of the modes k = 1..K as arrays."""
    lam = 2.0 * math.pi * np.arange(1, K + 1)
    return lam, lam**2


@dataclass(frozen=True)
class FracProblem:
    """Problem parameters: orders (alpha, beta, gamma), rectangle extents
    (p, q), truncation K, and the solvability tolerance.  The five reals
    and the tolerance must be finite real numbers (not bools) and are
    stored as floats; K must be an integer (not a bool) from 1 to
    sys.maxsize, the largest array length.  Every power of an extent that
    the solve and the verifier take must be finite: p^(2 beta) (the E1
    couplings) and q^2 (the verifier's moments), which bound p^2 and
    q^(2 alpha) from an extent of 1 up, and (2.5e-7 s)^-2 at s = p, q: the
    verifier's s^-2 and squared spacings at its Caputo grids' first point."""

    alpha: float
    beta: float
    gamma: float
    p: float
    q: float
    K: int = 16
    tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "p", "q", "tol"):
            object.__setattr__(self, name,
                               finite_real(getattr(self, name), name))
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 1.0 < self.beta <= 2.0:
            raise ValueError("beta must lie in (1, 2]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        for name, e in (("p", 2.0 * self.beta), ("q", 2.0)):
            v = getattr(self, name)
            try:
                v ** e, (2.5e-7 * v) ** -2.0
            except OverflowError:
                raise ValueError(f"{name}={v!r} is too " + (
                    f"large: {name}^{e:g}" if v > 1.0 else
                    f"small: (2.5e-7 {name})^-2") + " overflows") from None
        if isinstance(self.K, bool) or not isinstance(self.K, Integral):
            raise ValueError(f"K must be an integer, got {self.K!r}")
        if not 1 <= self.K <= sys.maxsize:
            raise ValueError(f"K must lie in [1, {sys.maxsize}]")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


# ---------------------------------------------------------------------------
# closed-form mode profiles


def _branch_terms(fld: SolutionField, branch: str):
    """(order, mu, terms) of every mode profile of one branch, an array
    over the profile-table rows (``basis.table_rows``) for mu and for each
    term's coefficient.

    Row r holds sum coef[r] * s^(c-1) K_c(-mu[r] s^order) over the terms
    (coef, c, kind), where K_c is E_{order,c} for kind 'ml' and the unit
    two-variable E1(c; ., .) for kind 'e1'; s = t on branch 'plus' (t >= 0)
    and s = -t on branch 'minus' (t <= 0).  The zero mode has mu = 0.

    Each branch lists its coefficient sets as (set, c_ml, c_e1).
    Every profile takes its own entry of every set as an 'ml' term at c_ml;
    a cosine profile adds 2 lam times the x-sine entry of every set as an
    'e1' term at c_e1, the coupling to the x-sine profile."""
    if branch == "plus":
        order = fld.problem.alpha
        sets = ((fld.value, 1.0, order + 1.0),
                (fld.source, order + 1.0, 2.0 * order + 1.0))
    elif branch == "minus":
        order = fld.problem.beta
        sets = ((fld.value, 1.0, order + 1.0),
                (fld.slope, 2.0, order + 2.0),
                (fld.source, order + 1.0, 2.0 * order + 1.0))
    else:
        raise ValueError(f"unknown branch {branch!r}")
    lam, mus = mode_wavenumbers(fld.problem.K)
    return order, table_rows(0.0, mus, mus), (
        [(cs.rows, c_ml, "ml") for cs, c_ml, _ in sets]
        + [(table_rows(0.0, 2.0 * lam * cs.c2, 0.0), c_e1, "e1")
           for cs, _, c_e1 in sets])


def _elementwise(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) at every element v of x, as Python floats, 4096 at a
    time: the libm call, the same on every CPU (numpy's exp, log and pow
    follow its SIMD dispatch; with AVX-512 some differ in the last bit)."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, 4096):
        part = flat[lo:lo + 4096].tolist()
        out[lo:lo + len(part)] = np.fromiter(
            map(fn, part, *map(repeat, args)), float, len(part))
    return out.reshape(x.shape)


def _term_table(order: float, mu: np.ndarray, terms, s,
                shift: float = 0.0) -> np.ndarray:
    """Values of the profiles (order, mu, terms) of :func:`_branch_terms`,
    or of a subset of their rows, at the points s >= 0 of one grid shared
    by every row, with every second parameter c lowered by shift: a
    (len(mu), len(s)) array.

    A term is live on the rows where its coefficient is nonzero.  The terms
    are summed in their order on their live rows, each coef * s^(c-1) *
    K_c, K_c the kernel for kind 'ml' and the two-kernel collapse of E1 for
    'e1'.  At s = 0 a kernel takes its limit, one at c = 1 and zero above;
    a live term with c < 1 makes the entry NaN, a singular limit callers
    avoid.

    Each power s^e is the libm pow at each nonzero point, made once.  The
    kernels are one ``ml_array`` call per block of nonzero points, over
    every second parameter the terms read and every row with a live term:
    each call takes at most 2**15 arguments (rows x points), or one point
    where the rows alone are more, which bounds the kernels held at once."""
    s = np.asarray(s, dtype=float)
    nz = np.flatnonzero(s)
    terms = [(coef, c - shift, kind, coef != 0.0) for coef, c, kind in terms
             if np.any(coef)]
    out = np.zeros((len(mu), s.size))
    if not terms:
        return out
    bs = list(dict.fromkeys(b for _, cc, kind, _ in terms for b in
                            ([cc] if kind == "ml" else [cc - 1.0, cc])))
    rows = np.any([live for *_, live in terms], axis=0)
    pows = {e: _elementwise(pow, s[nz], e)
            for e in {order} | {cc - 1.0 for _, cc, _, _ in terms}}
    step = max(1, 2**15 // np.count_nonzero(rows))
    for lo in range(0, nz.size, step):
        at = slice(lo, lo + step)
        kernels = dict(zip(bs, ml_array(order, bs, np.multiply.outer(
            -mu[rows], pows[order][at]))))
        for coef, cc, kind, live in terms:
            phi = (kernels[cc] if kind == "ml" else _e1_collapse(
                order, cc, kernels[cc - 1.0], kernels[cc]))[live[rows]]
            phi *= pows[cc - 1.0][at]
            phi *= coef[live, None]
            out[np.ix_(live, nz[at])] += phi
    for coef, cc, _, live in terms:
        out[np.ix_(live, s == 0.0)] += coef[live, None] * (
            1.0 if cc == 1.0 else 0.0 if cc > 1.0 else math.nan)
    return out


def _term_column(order: float, mu: np.ndarray, s: float, terms):
    """s^(c-1) K_c(-mu s^order) at one s > 0, one row per term (c, kind): a
    :func:`_term_table` column whose row block i is term i at coefficient 1."""
    unit = np.eye(len(terms)).repeat(mu.size, axis=1)
    return _term_table(order, np.tile(mu, len(terms)), [
        (u, *t) for u, t in zip(unit, terms)], [s]).reshape(len(terms), -1)


def profile_table(fld: SolutionField, branch: str, s) -> np.ndarray:
    """Profiles of one branch at s >= 0 (s = t on 'plus', s = -t on
    'minus'): one row per profile in ``basis.table_rows`` order and one
    column per point of the grid s."""
    return _term_table(*_branch_terms(fld, branch), s)


# ---------------------------------------------------------------------------
# inverse solvers


@dataclass
class SolutionField:
    """Solved (or forward-constructed) field, evaluable on the rectangle:
    the source f, the interface values u(x, 0), shared by both branches by
    continuity, and the lower-branch slopes u_t(x, 0-)."""

    problem: FracProblem
    source: CoefficientSet
    value: CoefficientSet
    slope: CoefficientSet

    def __post_init__(self) -> None:
        K = self.problem.K
        for name in ("source", "value", "slope"):
            if getattr(self, name).K != K:
                raise ValueError(f"{name} must have truncation K={K}")

    def mode_values(self, t):
        """The mode profiles at the times t: a profile table, one row per
        profile in ``basis.table_rows`` order and one column per time, or
        its single column at a scalar t.

        A time t >= 0 reads branch 'plus' and t < 0 branch 'minus' (the
        lower branch's value at t = 0 is :func:`profile_table` at s = 0).
        Each branch evaluates all its times in one :func:`profile_table`."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        plus = ts >= 0.0
        table = np.empty((2 * self.problem.K + 1, ts.size))
        for name, sign, at in (("plus", 1.0, plus), ("minus", -1.0, ~plus)):
            if at.any():
                table[:, at] = profile_table(self, name, sign * ts[at])
        return table if np.ndim(t) else table[:, 0]

    def eval_u(self, x, t):
        """u at the points x, at one time t or, for an array of times, one
        row per time: the synthesis of :meth:`mode_values`."""
        return synthesize(self.mode_values(t), x)

    def eval_f(self, x):
        return synthesize(self.source.rows, x)

    def eval_uxx(self, x, t):
        """u_xx at the points x, at one time t or, for an array of times,
        one row per time."""
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
    source is their negated second derivative, all modes at once.  The
    lower-branch slopes come from the t = -p snapshot; each cosine slope
    needs its mode's x-sine slope and divides by p E_{beta,2} at the mode
    argument, which is checked against zero relative to p.
    """
    if not prob.gamma < 1.0:
        raise ValueError("gamma must be < 1 for this path")
    _check_coeff_shapes(prob, phi_c, psi_c)
    b, p = prob.beta, prob.p
    lam, mus = mode_wavenumbers(prob.K)
    scaled, coupling = _term_column(b, mus, p, [(2.0, "ml"), (b + 2.0, "e1")])
    bad = np.flatnonzero(np.abs(scaled) < prob.tol * p)
    if bad.size:
        k, denom = int(bad[0]) + 1, float(scaled[bad[0]] / p)
        raise DivisionError(
            f"E_(beta,2) vanishes at mode k={k} "
            f"(beta={b}, p={p}): {denom}", k=k, value=denom)
    slope2 = (psi_c.c2 - phi_c.c2) / scaled
    slope = CoefficientSet(
        (psi_c.c0 - phi_c.c0) / p,
        (psi_c.c1 - phi_c.c1 - 2.0 * lam * coupling * slope2) / scaled, slope2)
    source = CoefficientSet(0.0, mus * phi_c.c1 - 2.0 * lam * phi_c.c2,
                            mus * phi_c.c2)
    return SolutionField(prob, source, phi_c.copy(), slope)


def _solve_pairs(mats: np.ndarray, first, second) -> np.ndarray:
    """(x, y) with mats[i] (x, y) = (first[i], second[i]) for every mode i,
    in one batched solve, as two contiguous rows."""
    rhs = np.stack([first, second], axis=-1)[..., None]
    return np.linalg.solve(mats, rhs)[..., 0].T.copy()


def solve_inverse_gamma_eq1(phi_c: CoefficientSet, psi_c: CoefficientSet,
                            prob: FracProblem) -> SolutionField:
    """Inverse solve for transmitting order gamma = 1.

    Per mode, the two snapshot equations reduce to 2x2 linear systems in the
    interface value and slope; their shared determinant must stay away from
    zero (the solvability condition on p, q), checked with a relative
    tolerance against the sizes of its three terms.  One batched solve
    takes every mode's x-sine pair, a second the cosine pairs.
    """
    if prob.gamma != 1.0:
        raise ValueError("gamma must equal 1 for this path")
    _check_coeff_shapes(prob, phi_c, psi_c)
    a, b, p, q = prob.alpha, prob.beta, prob.p, prob.q
    t_q = q**a / math.gamma(a + 1.0)
    t_p1, t_p2 = p, p**b / math.gamma(b + 1.0)
    delta0 = t_p1 + t_p2 - t_q
    if abs(delta0) < prob.tol * (abs(t_p1) + abs(t_p2) + abs(t_q)):
        raise SolvabilityError(
            f"Delta_0 = p + p^beta/Gamma(beta+1) - q^alpha/Gamma(alpha+1) "
            f"= {delta0} vanishes within tolerance", k=0, delta=delta0)
    slope0 = (psi_c.c0 - phi_c.c0) / delta0
    lam, mus = mode_wavenumbers(prob.K)
    terms_q, phis_q = _term_column(a, mus, q, [(a + 1.0, "ml"),
                                               (2.0 * a + 1.0, "e1")])
    terms_p1, terms_p2, *phis_p = _term_column(b, mus, p, [
        (2.0, "ml"), (b + 1.0, "ml"), (b + 2.0, "e1"), (2.0 * b + 1.0, "e1")])
    deltas = terms_p1 + terms_p2 - terms_q
    bad = np.flatnonzero(np.abs(deltas) < prob.tol * (
        np.abs(terms_p1) + np.abs(terms_p2) + np.abs(terms_q)))
    if bad.size:
        k, delta_k = int(bad[0]) + 1, float(deltas[bad[0]])
        raise SolvabilityError(
            f"Delta_{k} = {delta_k} vanishes within tolerance "
            f"(p={p}, q={q}, alpha={a}, beta={b})", k=k, delta=delta_k)
    ones = np.ones_like(mus)
    mats = np.stack([ones, terms_q, ones, terms_p1 + terms_p2],
                    axis=-1).reshape(-1, 2, 2)
    w2_0, w2p = _solve_pairs(mats, phi_c.c2, psi_c.c2)
    # snapshot equations for the cosine pair after eliminating the
    # x-sine coupling through the shift identity
    w1_0, w1p = _solve_pairs(mats, phi_c.c1 - 2.0 * lam * phis_q * w2p,
                             psi_c.c1 - 2.0 * lam * sum(phis_p) * w2p)
    source = CoefficientSet(slope0, w1p + mus * w1_0 - 2.0 * lam * w2_0,
                            w2p + mus * w2_0)
    value = CoefficientSet(phi_c.c0 - t_q * slope0, w1_0, w2_0)
    return SolutionField(prob, source, value,
                         CoefficientSet(slope0, w1p, w2p))


def solve_inverse(phi_c: CoefficientSet, psi_c: CoefficientSet,
                  prob: FracProblem) -> SolutionField:
    """Dispatch on the transmitting order."""
    if prob.gamma < 1.0:
        return solve_inverse_gamma_lt1(phi_c, psi_c, prob)
    return solve_inverse_gamma_eq1(phi_c, psi_c, prob)


# ---------------------------------------------------------------------------
# forward construction


def forward_state(prob: FracProblem, source_c: CoefficientSet,
                  u0_c: CoefficientSet, slope_c: CoefficientSet) -> SolutionField:
    """The field straight from a source, interface values u(x, 0) and
    lower-branch slope coefficients (copied, so the field owns its sets)."""
    return SolutionField(prob, source_c.copy(), u0_c.copy(), slope_c.copy())
