"""The one fractional quadrature of the verifier.

``caputo_left_factored`` is the left Caputo derivative of order in (0,1) or
(1,2) for derivative samples factored as t^sigma * g(t): product integration
that treats both the t^sigma factor and the weakly singular weight exactly
against the piecewise-quadratic interpolant of g (an L1-2-type scheme),
with one weight row per point shared by every row of samples.  Its moments
are incomplete beta functions, which ``incomplete_beta`` sums as one numpy
series over every (point, node) ratio, so the module needs numpy alone.
``FracOrder`` carries the order and ``graded_grid`` builds the clustered
sample grids.  Right-sided derivatives are taken as left ones in s = -t by
the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FracOrder:
    """Fractional order in (0,1) or (1,2) with its ceiling integer n."""

    order: float

    def __post_init__(self) -> None:
        if not (0.0 < self.order < 1.0 or 1.0 < self.order < 2.0):
            raise ValueError(
                f"order must lie in (0,1) or (1,2), got {self.order}")

    @property
    def n(self) -> int:
        return int(math.floor(self.order)) + 1


def graded_grid(a: float, b: float, n: int, power: float = 3.0,
                cluster: str = "both") -> np.ndarray:
    """Grid on [a, b] with nodes clustered at a (``cluster="left"``) or at
    both endpoints (``"both"``)."""
    s = np.linspace(0.0, 1.0, n)
    if cluster == "left":
        w = s**power
    elif cluster == "both":
        w = np.where(s < 0.5, 0.5 * (2 * s) ** power,
                     1.0 - 0.5 * (2 * (1 - s)) ** power)
    else:
        raise ValueError(f"unknown cluster mode {cluster!r}")
    # extreme clustering can collapse neighbors below float resolution
    return np.unique(a + (b - a) * w)


def incomplete_beta(a: float, b: float, r: np.ndarray) -> np.ndarray:
    """B(r; a, b), the integral of t^(a-1) (1-t)^(b-1) over [0, r], for
    a in (0, 3], b in (0, 1) and every r of an array in [0, 1].

    At r <= 1/2 it is r^a times the series of :func:`_beta_series` in r
    with (c, e) = (1 - b, a); above 1/2 it is B(a, b) - B(1 - r; b, a), the
    same series in 1 - r with (c, e) = (1 - a, b); r = 1 gives B(a, b),
    the product of ``math.gamma`` values.  Every value lies within 8 ulp
    of B(a, b) of the exact one."""
    complete = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    out = np.full(r.shape, complete)
    low = r <= 0.5
    y = r[low]
    out[low] = y**a * _beta_series(1.0 - b, a, y)
    high = (r > 0.5) & (r < 1.0)
    y = 1.0 - r[high]
    out[high] = complete - y**b * _beta_series(1.0 - a, b, y)
    return out


def _beta_series(c: float, e: float, y: np.ndarray) -> np.ndarray:
    """sum_n (c)_n / n! y^n / (e + n) elementwise for y in [0, 1/2], in
    increasing n up to the first term under 1e-17 / (4 e) at the largest
    y, about 50 terms.  In the box of :func:`incomplete_beta` every sum is
    at least 1/(4 e), and from there on each term is at most half the one
    before at every y, so the terms left out add under 1e-17 of the sum."""
    top = float(np.max(y, initial=0.0))
    coef = np.ones_like(y)
    total = np.full_like(y, 1.0 / e)
    n, term = 0, 1.0 / e  # term: the last one added, at the largest y
    while abs(term) >= 0.25e-17 / e:
        step = (c + n) / (n + 1)
        coef *= y * step
        n += 1
        total += coef / (e + n)
        term *= top * step * (e + n - 1) / (e + n)
    return total


def caputo_left_factored(grid: np.ndarray, gvals: np.ndarray, sigma: float,
                         ord: FracOrder,
                         x: float | np.ndarray) -> float | np.ndarray:
    """Left Caputo at x for derivative samples factored as t^sigma * g(t).

    Both the t^sigma factor at the lower end and the (x-t)^(-mu) weight at
    the upper end integrate exactly against the piecewise-quadratic
    interpolant of g, through incomplete-beta moments; this keeps accuracy
    when the n-th derivative is singular at the interval start (profiles
    behaving like t^alpha).  The moments of t^(sigma + k), k = 0, 1, 2, are
    differences of x^(a - mu) B(t/x; a, 1 - mu) at a = sigma + 1 + k, each
    from one :func:`incomplete_beta` call over every point and node.

    The derivative is linear in g: each point x gets one weight row over
    the grid, and the result is gvals @ rows.T.  gvals is one row of
    samples or an (m, n) stack of rows and x one point or an array of p
    points, so the result is a float, (m,), (p,) or (m, p).
    """
    t0 = np.asarray(grid, dtype=float)
    if (t0.size < 3 or t0[0] != 0.0 or not np.all(np.diff(t0) > 0.0)
            or not np.isfinite(t0[-1])):
        raise ValueError("factored form expects a finite increasing grid of "
                         "at least 3 points starting at 0")
    if not sigma > -1.0:
        raise ValueError(f"sigma={sigma} must exceed -1: t^sigma is not "
                         "integrable at 0")
    xs = np.asarray(x, dtype=float)
    outside = xs[~((xs > 0.0) & (xs <= t0[-1]))]
    if outside.size:
        raise ValueError(f"x={outside[0]} must lie in (0, {t0[-1]}]")
    mu = ord.order - ord.n + 1
    points = xs.reshape(-1, 1)
    # a node at or past its point reads ratio 1, so each point's row up to
    # its first such node holds the ratios of its cell ends, x last
    ratios = np.minimum(t0 / points, 1.0)
    cum = np.array([incomplete_beta(a, 1.0 - mu, ratios) * points ** (a - mu)
                    for a in sigma + 1.0 + np.arange(3.0)])
    rows = np.array([_weight_row(t0, xv, cum[:, i])
                     for i, xv in enumerate(xs.ravel())])
    rows /= math.gamma(ord.n - ord.order)
    out = np.asarray(gvals, dtype=float) @ rows.reshape(xs.shape
                                                        + t0.shape).T
    return float(out) if out.ndim == 0 else out


def _weight_row(t0: np.ndarray, x: float, cum: np.ndarray) -> np.ndarray:
    """Quadrature weights at x in (0, t0[-1]] over the grid t0
    (unnormalised by Gamma), from the three rows ``cum`` whose per-cell
    differences are the moments of t^(sigma + k), k = 0, 1, 2.

    The cells are those of t0 below x, the last one closed at x.  On cell j
    the interpolant is the Newton form g_j + s_j (t - t_j) + b_j (t - t_j)
    (t - t_{j+1}), with s_j the cell slope and b_j the second divided
    difference over t_{j-1}, t_j, t_{j+1}; cell 0 takes cell 1's b (the
    L1-2 construction of Gao, Sun & Zhang, J. Comput. Phys. 259 (2014));
    an x in the first grid cell leaves one cell and no b.  g(x) is the
    quadratic through the three grid nodes nearest x."""
    n = t0.size
    idx = int(np.searchsorted(t0, x))  # t0[idx - 1] < x <= t0[idx]
    t = np.append(t0[:idx], x)
    m0, m1, m2 = np.diff(cum[:, :idx + 1])
    h = np.diff(t)
    lo, hi = t[:-1], t[1:]
    # weights on the nodes t: g_j M0 + s_j (M1 - t_j M0) per cell, then
    # b_j times the moment of (t - t_j)(t - t_{j+1})
    up = (m1 - lo * m0) / h
    w = np.zeros(idx + 1)
    w[:-1] += m0 - up
    w[1:] += up
    if idx >= 2:
        q = m2 - (lo + hi) * m1 + lo * hi * m0
        q[1] += q[0]
        q, hl, hr = q[1:], h[:-1], h[1:]
        w[:-2] += q / (hl * (hl + hr))
        w[1:-1] -= q / (hl * hr)
        w[2:] += q / (hr * (hl + hr))
    row = np.zeros(n)
    row[:idx] = w[:-1]
    third = (idx - 2 if idx + 1 == n
             or (idx >= 2 and x - t0[idx - 2] < t0[idx + 1] - x) else idx + 1)
    near = (idx - 1, idx, third)
    for i in near:
        others = [t0[j] for j in near if j != i]
        row[i] += w[-1] * math.prod((x - o) / (t0[i] - o) for o in others)
    return row
