"""The one fractional quadrature of the verifier.

``caputo_left_factored`` is the left Caputo derivative of order in (0,1) or
(1,2) for derivative samples factored as t^sigma * g(t): product integration
that treats both the t^sigma factor and the weakly singular weight exactly
against the piecewise-quadratic interpolant of g (an L1-2-type scheme),
with one weight row per point shared by every row of samples.
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


def caputo_left_factored(grid: np.ndarray, gvals: np.ndarray, sigma: float,
                         ord: FracOrder,
                         x: float | np.ndarray) -> float | np.ndarray:
    """Left Caputo at x for derivative samples factored as t^sigma * g(t).

    Both the t^sigma factor at the lower end and the (x-t)^(-mu) weight at
    the upper end integrate exactly against the piecewise-quadratic
    interpolant of g, through incomplete-beta moments; this keeps accuracy
    when the n-th derivative is singular at the interval start (profiles
    behaving like t^alpha).

    The derivative is linear in g: each point x gets one weight row over
    the grid, and the result is gvals @ rows.T.  gvals is one row of
    samples or an (m, n) stack of rows and x one point or an array of p
    points, so the result is a float, (m,), (p,) or (m, p).
    """
    # only the fractional-order verifier stages get here: scipy stays off
    # the import path of every other command
    from scipy.special import beta as _beta_fn
    from scipy.special import betainc as _betainc

    t0 = np.asarray(grid, dtype=float)
    if t0.size < 3 or t0[0] != 0.0:
        raise ValueError("factored form expects a grid of at least 3 points "
                         "starting at 0")
    xs = np.asarray(x, dtype=float)
    mu = ord.order - ord.n + 1
    a, b = sigma + 1.0, 1.0 - mu
    betas = [_beta_fn(a + k, b) for k in range(3)]

    def moments(t: np.ndarray, xv: float):
        """Per-cell integrals of (xv - t)^(-mu) t^(sigma + k), k = 0, 1, 2."""
        ratios = t / xv
        return [np.diff(_betainc(a + k, b, ratios)) * betas[k]
                * xv ** (a + k - mu) for k in range(3)]

    rows = np.array([_weight_row(t0, float(xv), moments)
                     for xv in xs.ravel()]) / math.gamma(ord.n - ord.order)
    out = np.asarray(gvals, dtype=float) @ rows.reshape(xs.shape
                                                        + t0.shape).T
    return float(out) if out.ndim == 0 else out


def _weight_row(t0: np.ndarray, x: float, moments) -> np.ndarray:
    """Quadrature weights at x over the grid t0 (unnormalised by Gamma).

    The cells are those of t0 below x, the last one closed at x.  On cell j
    the interpolant is the Newton form g_j + s_j (t - t_j) + b_j (t - t_j)
    (t - t_{j+1}), with s_j the cell slope and b_j the second divided
    difference over t_{j-1}, t_j, t_{j+1}; cell 0 takes cell 1's b (the
    L1-2 construction of Gao, Sun & Zhang, J. Comput. Phys. 259 (2014));
    an x in the first grid cell leaves one cell and no b.  g(x) is the
    quadratic through the three grid nodes nearest x."""
    n = t0.size
    idx = int(np.searchsorted(t0, x))  # t0[idx - 1] < x <= t0[idx]
    if not 0 < idx < n:
        raise ValueError(f"x={x} must lie in (0, {t0[-1]}]")
    t = np.append(t0[:idx], x)
    m0, m1, m2 = moments(t, x)
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
