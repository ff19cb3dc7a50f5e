"""Reference fractional operators on sampled functions, for tests.

Left Riemann-Liouville and Caputo derivatives of orders in (0,1) or (1,2),
by product integration that treats the weakly singular weight exactly
against piecewise-linear data (an L1-type scheme).  The Caputo forms
integrate interpolated derivative samples; the Riemann-Liouville forms
differentiate the product integral of the value interpolant in closed form,
so the two sides of the Caputo/RL relation come from genuinely different
quadrature constructions.

The right-sided operators are not separate quadratures: under t -> -t the
right derivative of f at x is the left derivative of f(-t) at -x, so each
one applies the left form to :meth:`SampledFunction.reflected`.

The package computes every numeric fractional derivative with
``fracmix.fraccalc.caputo_left_factored``; tests check it, and the solver's
closed forms, against this second, independent quadrature.

Also provides the closed-form fractional derivatives of Mittag-Leffler-type
profiles, one mode profile of a solution at a time (``mode_profile``, a row
of the solver's branch terms) with its closed-form Caputo derivatives at
the interface and below it, and
``ml_ref``: the routes of ``fracmix.specfun.ml_array`` written for one
argument at a time, the band handed to the package's band evaluator.
``ml_array`` equals it bit for bit at every element; it is cheap per call,
so the scalar-heavy oracles call it.  It reads the package's tolerance and
term budget (``specfun._ABS_TOL``, ``specfun._MAX_TERMS``) at call time, so
a test that lowers the budget lowers it on both sides.

The errors these references raise, ``DomainError`` and
``MissingDerivativeError``, are defined here, under ``FracmixError``; the
package raises neither.  ``trig_deriv`` gives the closed-form x-derivatives
of a ``fracmix.basis.TrigPolynomial`` up to order two.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from math import exp, lgamma, log
from typing import Callable

import numpy as np

from fracmix import specfun
from fracmix.basis import KIND_CONSTANT, KIND_COSINE, TrigPolynomial
from fracmix.errors import CancellationError, ConvergenceError, FracmixError
from fracmix.fraccalc import FracOrder, graded_grid
from fracmix.solver import SolutionField, _branch_terms, _term_table
from fracmix.specfun import (
    _ASYM_JMAX,
    _CANCELLATION_GUARD,
    _LN_PI,
    _OVERFLOW_LN,
    _TINY_LN,
    UnitFamily,
    _e1_collapse,
    _float_ok,
    _log_abs_rgamma,
    _ml_at_zero,
    _ml_band,
    _ml_k_star,
    _ml_residues,
    e1,
)


class DomainError(FracmixError, ValueError):
    """Evaluation point outside a reference operator's admissible interval."""


class MissingDerivativeError(FracmixError):
    """A Caputo form needs derivative samples that are unavailable and cannot
    be finite-differenced on the given grid."""


class _Kahan:
    """Compensated scalar accumulator."""

    __slots__ = ("s", "c")

    def __init__(self) -> None:
        self.s = 0.0
        self.c = 0.0

    def add(self, v: float) -> None:
        y = v - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _fd1(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a nonuniform grid, difference-first."""
    h = np.diff(x)
    dv = np.diff(v)
    out = np.empty_like(v)
    hl, hr = h[:-1], h[1:]
    out[1:-1] = (hr / (hl * (hl + hr))) * dv[:-1] + (hl / (hr * (hl + hr))) * dv[1:]
    # one-sided 3-point ends, written on the two leading/trailing differences
    h0, h1 = h[0], h[1]
    out[0] = (dv[0] * (2 * h0 + h1) / (h0 * (h0 + h1))
              - dv[1] * h0 / (h1 * (h0 + h1)))
    hm, hn = h[-2], h[-1]
    out[-1] = (dv[-1] * (2 * hn + hm) / (hn * (hn + hm))
               - dv[-2] * hn / (hm * (hn + hm)))
    return out


def _fd2(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second derivative on a nonuniform grid from slope differences."""
    h = np.diff(x)
    slope = np.diff(v) / h
    out = np.empty_like(v)
    out[1:-1] = 2.0 * np.diff(slope) / (h[:-1] + h[1:])
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def trig_deriv(tp: TrigPolynomial, x, order: int = 1):
    """Derivative of the given order (0..2) of a trig polynomial, termwise
    closed forms."""
    if not 0 <= order <= 2:
        raise ValueError("derivative order must be in 0..2")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for kind, k, amp in tp.atoms:
        w = 2.0 * math.pi * k
        if kind == KIND_CONSTANT:
            term = np.ones_like(x) if order == 0 else np.zeros_like(x)
        elif kind == KIND_COSINE:
            cycle = [np.cos(w * x), -np.sin(w * x), -np.cos(w * x)]
            term = w**order * cycle[order]
        else:
            sin, cos = np.sin(w * x), np.cos(w * x)
            if order == 0:
                term = x * sin
            elif order == 1:
                term = sin + w * x * cos
            else:
                term = 2 * w * cos - w**2 * x * sin
        out = out + amp * term
    return out


class SampledFunction:
    """Function known on a strictly increasing grid, with optional first and
    second derivative samples for the Caputo forms."""

    def __init__(self, grid, values, d1=None, d2=None):
        self.grid = np.asarray(grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 3:
            raise ValueError("grid must be one-dimensional with >= 3 points")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if self.values.shape != self.grid.shape:
            raise ValueError("values must match grid length")
        self.d1 = None if d1 is None else np.asarray(d1, dtype=float)
        self.d2 = None if d2 is None else np.asarray(d2, dtype=float)
        for name, arr in (("d1", self.d1), ("d2", self.d2)):
            if arr is not None and arr.shape != self.grid.shape:
                raise ValueError(f"{name} must match grid length")

    @classmethod
    def from_callable(cls, f: Callable[[np.ndarray], np.ndarray],
                      a: float, b: float, n: int = 2001,
                      df: Callable | None = None,
                      d2f: Callable | None = None,
                      power: float = 3.0,
                      cluster: str = "both") -> "SampledFunction":
        x = graded_grid(a, b, n, power=power, cluster=cluster)
        vals = np.asarray(f(x), dtype=float)
        d1 = None if df is None else np.asarray(df(x), dtype=float)
        d2 = None if d2f is None else np.asarray(d2f(x), dtype=float)
        return cls(x, vals, d1=d1, d2=d2)

    @property
    def a(self) -> float:
        return float(self.grid[0])

    @property
    def b(self) -> float:
        return float(self.grid[-1])

    def derivative_samples(self, order: int) -> np.ndarray:
        """Derivative samples of the requested order, finite-differenced from
        the values when not supplied.

        The stencils act on value differences, so constants differentiate to
        exactly zero (and linears under the second difference)."""
        if order == 1 and self.d1 is not None:
            return self.d1
        if order == 2 and self.d2 is not None:
            return self.d2
        if self.grid.size < 5:
            raise MissingDerivativeError(
                f"derivative of order {order} unavailable and the grid has "
                f"only {self.grid.size} points")
        if order == 1:
            return _fd1(self.grid, self.values)
        if order == 2:
            return _fd2(self.grid, self.values)
        raise ValueError(f"unsupported derivative order {order}")

    def reflected(self) -> "SampledFunction":
        """The function t -> f(-t) on the grid -grid, reversed to increase.

        Derivative samples follow the chain rule (d1 changes sign, d2 does
        not); the finite-difference stencils mirror exactly, so derivatives
        that were not supplied stay consistent too."""
        return SampledFunction(
            -self.grid[::-1], self.values[::-1],
            d1=None if self.d1 is None else -self.d1[::-1],
            d2=None if self.d2 is None else self.d2[::-1])


def _check_interior(f: SampledFunction, x: float, side: str = "left") -> None:
    """x must lie in (a, b] for a left derivative and in [a, b) for a right
    one; the right test mirrors the left one exactly, so a right operator
    refuses in the caller's coordinates before its reflection could."""
    tol = 1e-12 * (f.b - f.a)
    if side == "left":
        if x <= f.a + tol:
            raise DomainError(f"x={x} must satisfy a < x <= b (a={f.a})")
        if x > f.b + tol:
            raise DomainError(f"x={x} beyond grid end {f.b}")
    else:
        if x >= f.b - tol:
            raise DomainError(f"x={x} must satisfy a <= x < b (b={f.b})")
        if x < f.a - tol:
            raise DomainError(f"x={x} before grid start {f.a}")


def _nodes_left(f: SampledFunction, x: float, samples: np.ndarray):
    """Nodes of [a, x] with x spliced in, and the samples interpolated there."""
    idx = np.searchsorted(f.grid, x)
    t = np.concatenate([f.grid[:idx], [x]])
    g = np.concatenate([samples[:idx], [float(np.interp(x, f.grid, samples))]])
    if t.size >= 2 and t[-1] - t[-2] <= 1e-15 * max(1.0, abs(x)):
        t, g = t[:-1], g[:-1]
    return t, g


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _moment0(ubase: np.ndarray, h: np.ndarray, mu: float) -> np.ndarray:
    """integral_0^h (ubase + tau)^(-mu) dtau, stable for h << ubase."""
    p = 1.0 - mu
    out = np.empty_like(h)
    zero = ubase <= 0.0
    out[zero] = np.power(h[zero], p) / p
    nz = ~zero
    if np.any(nz):
        out[nz] = (np.power(ubase[nz], p)
                   * np.expm1(p * np.log1p(h[nz] / ubase[nz])) / p)
    return out


def _moment1(ubase: np.ndarray, h: np.ndarray, mu: float) -> np.ndarray:
    """integral_0^h tau * (ubase + tau)^(-mu) dtau.

    Near the singular end (h comparable to ubase) the closed form is safe;
    thin far intervals use Gauss-Legendre on the then-smooth integrand to
    dodge the cancellation in the closed form."""
    p2 = 2.0 - mu
    out = np.empty_like(h)
    thick = h >= 0.5 * ubase
    if np.any(thick):
        ub, hh = ubase[thick], h[thick]
        d2 = np.empty_like(hh)
        z = ub <= 0.0
        d2[z] = np.power(hh[z], p2) / p2
        if np.any(~z):
            d2[~z] = (np.power(ub[~z], p2)
                      * np.expm1(p2 * np.log1p(hh[~z] / ub[~z])) / p2)
        out[thick] = d2 - ub * _moment0(ub, hh, mu)
    thin = ~thick
    if np.any(thin):
        tau = 0.5 * h[thin, None] * (_GL_NODES[None, :] + 1.0)
        vals = tau * np.power(ubase[thin, None] + tau, -mu)
        out[thin] = 0.5 * h[thin] * (vals @ _GL_WEIGHTS)
    return out


def _prod_int_left(t: np.ndarray, g: np.ndarray, x: float, mu: float) -> float:
    """integral over [t0, t[-1]] of (piecewise-linear g)(s) * (x - s)^(-mu) ds;
    requires t[-1] <= x and mu < 1."""
    h = np.diff(t)
    u1 = np.maximum(x - t[1:], 0.0)
    s = np.diff(g) / h
    m0 = _moment0(u1, h, mu)
    m1 = _moment1(u1, h, mu)
    return float(np.sum(g[1:] * m0 - s * m1))


def caputo_left(f: SampledFunction, ord: FracOrder, x: float) -> float:
    """Left Caputo derivative at x: weighted integral of the n-th derivative
    samples over [a, x]."""
    _check_interior(f, x)
    n = ord.n
    mu = ord.order - n + 1
    d = f.derivative_samples(n)
    t, g = _nodes_left(f, x, d)
    return _prod_int_left(t, g, x, mu) / math.gamma(n - ord.order)


def caputo_right(f: SampledFunction, ord: FracOrder, x: float) -> float:
    """Right Caputo derivative at x, with the (-1)^n orientation factor:
    the left Caputo derivative of the reflected function at -x."""
    _check_interior(f, x, "right")
    return caputo_left(f.reflected(), ord, -x)


def _rl_left_core(t: np.ndarray, v: np.ndarray, x: float, alpha: float) -> float:
    """Left RL of order alpha in (0,1), exact for the piecewise-linear
    interpolant of the node data (t, v)."""
    slopes = np.diff(v) / np.diff(t)
    h = np.diff(t)
    u1 = np.maximum(x - t[1:], 0.0)
    w = _moment0(u1, h, alpha)
    return (v[0] * (x - t[0]) ** (-alpha)
            + float(np.sum(slopes * w))) / math.gamma(1.0 - alpha)


def rl_left(f: SampledFunction, ord: FracOrder, x: float) -> float:
    """Left Riemann-Liouville derivative at x.

    For orders in (0,1) this is the exact fractional derivative of the
    piecewise-linear value interpolant.  For orders in (1,2) it peels one
    integer derivative off exactly,
    RL^a f = f(a_0)(x-a_0)^(-a)/Gamma(1-a) + RL^(a-1) f', and applies the
    same construction to the first-derivative samples."""
    _check_interior(f, x)
    alpha = ord.order
    if ord.n == 1:
        t, v = _nodes_left(f, x, f.values)
        return _rl_left_core(t, v, x, alpha)
    t, g = _nodes_left(f, x, f.derivative_samples(1))
    boundary = f.values[0] * (x - f.a) ** (-alpha) / math.gamma(1.0 - alpha)
    return boundary + _rl_left_core(t, g, x, alpha - 1.0)


def rl_right(f: SampledFunction, ord: FracOrder, x: float) -> float:
    """Right Riemann-Liouville derivative at x, with the (-d/dx)^n
    orientation: the left one of the reflected function at -x."""
    _check_interior(f, x, "right")
    return rl_left(f.reflected(), ord, -x)


def caputo_rl_residual(f: SampledFunction, ord: FracOrder, side: str,
                       x: float) -> float:
    """|Caputo - (RL - boundary sum)| at x.

    The right side is the left side of the reflected function at -x; its
    boundary terms pick up the (-1)^k of the (-d/dx)^n orientation through
    the reflected derivative samples.
    """
    if side == "right":
        _check_interior(f, x, "right")
        return caputo_rl_residual(f.reflected(), ord, "left", -x)
    if side != "left":
        raise ValueError("side must be 'left' or 'right'")
    cap = caputo_left(f, ord, x)
    rl = rl_left(f, ord, x)
    dist = x - f.a
    correction = 0.0
    for k in range(ord.n):
        fk = f.values[0] if k == 0 else f.derivative_samples(k)[0]
        correction += fk * dist ** (k - ord.order) / math.gamma(k - ord.order + 1)
    return abs(cap - (rl - correction))


# ---------------------------------------------------------------------------
# the scalar Mittag-Leffler reference


def _log_rgamma_env(w: float) -> float:
    """Upper envelope of log|1/Gamma(w)| (the |sin| factor dropped); the
    package evaluates it over arrays (``specfun._log_rgamma_env_array``)."""
    if w > 0.5:
        return -lgamma(w)
    return lgamma(1.0 - w) - _LN_PI


def _ml_term_env(a: float, b: float, ln_absz: float, k: float) -> float:
    return k * ln_absz + _log_rgamma_env(a * k + b)


def _ml_peak_and_horizon(a: float, b: float,
                         z: float) -> tuple[float, int | None]:
    """Estimated peak log-magnitude of the series terms and the index where
    they drop below 0.05*_ABS_TOL for good (None if past _MAX_TERMS)."""
    max_terms = specfun._MAX_TERMS
    ln_target = log(0.05 * specfun._ABS_TOL)
    absz = abs(z)
    ln_absz = log(absz)
    k_star = _ml_k_star(a, b, absz)
    probes = {0, 1, 2}
    if math.isfinite(k_star):
        probes |= {int(k_star * 0.5), int(k_star), int(k_star) + 1,
                   int(k_star * 1.5) + 1}
    peak = 0.0
    for k in probes:
        if 0 <= k <= max_terms * 4:
            peak = max(peak, _ml_term_env(a, b, ln_absz, k))
    k = max(4.0, k_star)
    while k <= max_terms:
        if _ml_term_env(a, b, ln_absz, k) < ln_target and k > k_star:
            return peak, int(k) + 1
        k = k * 1.25 + 4
    return peak, None


def _ml_series_float(a: float, b: float, z: float) -> tuple[float, float] | None:
    """Direct Kahan summation; (value, peak |term|), or None on overflow.
    It stops after three tiny terms in a row from k = 4 on."""
    ln_absz = log(abs(z))
    neg = z < 0
    acc = _Kahan()
    peak = before = 0.0
    tiny_run = 0
    target = 0.1 * specfun._ABS_TOL
    for k in range(specfun._MAX_TERMS):
        lr, sgn = _log_abs_rgamma(a * k + b)
        lt = k * ln_absz + lr
        if lt > _OVERFLOW_LN:
            return None
        t = 0.0 if sgn == 0.0 or lt < _TINY_LN else sgn * exp(lt)
        if neg and (k & 1):
            t = -t
        acc.add(t)
        at = abs(t)
        peak = max(peak, at)
        # tiny: zero, or below target with the geometric tail it bounds,
        # |t| r / (1 - r) at r = |t / previous term|
        tiny = at == 0.0 or (at < target and at * at < target * (before - at))
        before = at
        if tiny and k >= 4:
            tiny_run += 1
            if tiny_run >= 3:
                return acc.s, peak
        else:
            tiny_run = 0
    raise ConvergenceError(
        f"ml series needs more than {specfun._MAX_TERMS} terms "
        f"(a={a}, b={b}, z={z})")


def _ml_asym(a: float, b: float, z: float) -> float | None:
    """Large-|z| expansion on the negative axis; None when it cannot certify
    _ABS_TOL from its own envelope minimum."""
    ln_absz = log(-z)
    ln_certify = log(0.02 * specfun._ABS_TOL)
    jsum, emin = 0, 0.0
    grow = 0
    prev = 0.0
    for j in range(1, _ASYM_JMAX + 1):
        e = -j * ln_absz + _log_rgamma_env(b - a * j)
        if e < emin:
            emin, jsum = e, j
            grow = 0
        else:
            grow += 1
            if grow >= 6 and j > 3:
                break
        if e < ln_certify and e <= prev and j > 2:
            break
        prev = e
    if emin > log(0.1 * specfun._ABS_TOL):
        return None
    total = float(_ml_residues(a, b, np.array([z]))[0][0])
    acc = _Kahan()
    for j in range(1, jsum + 1):
        lr, sgn = _log_abs_rgamma(b - a * j)
        if sgn == 0.0:
            continue
        lt = -j * ln_absz + lr
        if lt < _TINY_LN:
            continue
        t = sgn * exp(lt)
        # -(z**-j) = (-1)^(j+1) |z|^-j for z < 0
        if j % 2 == 0:
            t = -t
        acc.add(t)
    return total + acc.s


def ml_route(a: float, b: float, z: float) -> tuple[str, float | None, float]:
    """(route, value, peak): 'zero', 'asym' or 'float' with its value, or
    with None 'diverges' (no horizon) or one the band takes: 'band',
    'float-overflow' or 'float-guard' (cancelled past the guard)."""
    if z == 0.0:
        return "zero", _ml_at_zero(b), 0.0
    peak, horizon = _ml_peak_and_horizon(a, b, z)
    float_ok = _float_ok(peak)
    # the peak misses terms past 4*_MAX_TERMS: with no horizon, the
    # expansion is tried whatever the peak says
    if z < 0 and a < 1.97 and (not float_ok or horizon is None):
        v = _ml_asym(a, b, z)
        if v is not None:
            return "asym", v, peak
    if horizon is None:
        return "diverges", None, peak
    if not float_ok:
        return "band", None, peak
    r = _ml_series_float(a, b, z)
    if r is None:
        return "float-overflow", None, peak
    if r[1] <= _CANCELLATION_GUARD * max(abs(r[0]), specfun._ABS_TOL):
        return "float", r[0], peak
    return "float-guard", None, peak


@lru_cache(maxsize=250000)
def ml_ref(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) by :func:`ml_route` and the package's band evaluator,
    memoised (a test that changes the term budget empties the memo); raises
    what ``ml_array`` raises at z."""
    a, b, z = float(a), float(b), float(z)
    route, value, _ = ml_route(a, b, z)
    if route == "diverges":
        raise ConvergenceError(
            f"ml series does not converge within {specfun._MAX_TERMS} terms "
            f"(a={a}, b={b}, z={z})")
    if value is None:
        band, certified = _ml_band(a, b, np.array([z]))
        if not certified[0]:
            raise CancellationError(
                f"ml band misses {specfun._ABS_TOL:g} (a={a}, b={b}, z={z})")
        return float(band[0])
    return value


def clear_memos() -> None:
    """Empty the memo of :func:`ml_ref`."""
    ml_ref.cache_clear()


def e1_unit_ref(nu: float, d1: float, w: float) -> float:
    """E1(d1; w, w) of the unit two-variable family, sum_n (n+1) w^n /
    Gamma(d1 + nu n), through the package's collapse of two reference
    values."""
    return _e1_collapse(nu, d1, ml_ref(nu, d1 - 1.0, w), ml_ref(nu, d1, w))


def ml_rl_deriv(alpha: float, beta: float, lam: float, gamma_ord: float,
                t: float) -> float:
    """Closed-form left RL derivative of order gamma_ord of
    t^(beta - 1) * E_{alpha,beta}(lam t^alpha): the second parameter shifts
    down by gamma_ord and the power drops by it."""
    if t <= 0:
        raise DomainError("t must be positive")
    power = beta - gamma_ord - 1.0
    return t**power * ml_ref(alpha, beta - gamma_ord, lam * t**alpha)


def e1_rl_deriv(params: UnitFamily, omega1: float, omega2: float,
                gamma_ord: float, t: float) -> float:
    """Closed-form right RL derivative (toward 0) of order gamma_ord of
    (-t)^(delta1 - 1) * E1(delta1; omega1 (-t)^nu, omega2 (-t)^nu) in the
    unit family: delta1 shifts down by gamma_ord."""
    if t >= 0:
        raise DomainError("t must be negative")
    shifted = dataclasses.replace(params, delta1=params.delta1 - gamma_ord)
    s = -t
    return (s ** (params.delta1 - gamma_ord - 1.0)
            * e1(shifted, omega1 * s**params.nu, omega2 * s**params.nu))


# ---------------------------------------------------------------------------
# one mode profile at a time, from rows of the solver's branch terms


def profile_row(component: str, k: int = 0) -> int:
    """The profile-table row of one mode profile: 0 for the zero mode, then
    the cosine and x-sine profiles of each k in turn."""
    return {"zero": 0, "cos": 2 * k - 1, "xsin": 2 * k}[component]


def branch_rows(fld: SolutionField, branch: str, rows):
    """(order, mu, terms) of the branch's profiles at the table rows
    ``rows``, in that order, as ``solver._term_table`` reads them."""
    order, mu, terms = _branch_terms(fld, branch)
    return order, mu[rows], [(coef[rows], c, kind) for coef, c, kind in terms]


def mode_profile(fld: SolutionField, branch: str, component: str,
                 k: int = 0):
    """(value, d1, d2) callables in t for one mode profile.

    branch 'plus' covers t >= 0, 'minus' t <= 0; derivatives come from the
    exact one-step-down shift of the second parameters, so they are exact
    up to evaluator tolerance."""
    order, mu, terms = branch_rows(fld, branch, [profile_row(component, k)])
    sign = 1.0 if branch == "plus" else -1.0

    def evaluator(shift: int):
        dsign = sign**shift

        def fn(t):
            t_arr = np.asarray(t, dtype=float)
            row = _term_table(order, mu, terms, sign * t_arr.ravel(),
                              shift)[0]
            out = (dsign * row).reshape(t_arr.shape)
            return out if np.ndim(t) else float(out)

        return fn

    return evaluator(0), evaluator(1), evaluator(2)


def _caputo_terms(order: float, mu: np.ndarray, terms):
    """Terms of the profiles whose order-g Caputo derivatives are the shift
    of every c by g: each c = 1 kernel sheds its constant through
    E_{order,1}(z) = 1 + z E_{order,order+1}(z), so its coefficients become
    -mu * coef at c = order + 1 (and vanish where mu = 0)."""
    return [(-mu * coef, order + 1.0, kind) if c == 1.0 else (coef, c, kind)
            for coef, c, kind in terms]


def _mode_rows(k: int) -> list[int]:
    """The zero-mode row and the two rows of mode k."""
    return [profile_row(component, k) for component in ("zero", "cos", "xsin")]


def caputo_limit_plus(fld: SolutionField,
                      k: int) -> tuple[float, float, float]:
    """t -> 0+ limits of the order-alpha Caputo derivatives of the three
    upper-branch profiles: after the shift by alpha only the kernels at
    c = alpha + 1 survive at s = 0, each with value one."""
    order, mu, terms = branch_rows(fld, "plus", _mode_rows(k))
    return tuple(float(v) for v in sum(
        coef for coef, c, _ in _caputo_terms(order, mu, terms)
        if c == order + 1.0))


def caputo_alpha_plus(fld: SolutionField, ts) -> np.ndarray:
    """Closed-form order-alpha Caputo derivatives of every upper-branch
    profile at the times ts > 0: a profile table, one row per profile."""
    order, mu, terms = _branch_terms(fld, "plus")
    return _term_table(order, mu, _caputo_terms(order, mu, terms), ts, order)


def caputo_gamma_minus(fld: SolutionField, k: int, gamma_ord: float,
                       t: float) -> tuple[float, float, float]:
    """Closed-form order-gamma right Caputo derivatives of the three
    lower-branch profiles at t < 0."""
    if not 0.0 < gamma_ord < 1.0:
        raise ValueError("gamma_ord must lie in (0, 1)")
    if t >= 0.0:
        raise ValueError("t must be negative")
    order, mu, terms = branch_rows(fld, "minus", _mode_rows(k))
    return tuple(float(v) for v in _term_table(
        order, mu, _caputo_terms(order, mu, terms), [-t], gamma_ord)[:, 0])
