"""The one fractional quadrature of the verifier.

``caputo_left_factored`` is the left Caputo derivative of order in (0,1) or
(1,2) for derivative samples factored as t^sigma * g(t): product integration
that treats both the t^sigma factor and the weakly singular weight exactly
against piecewise-linear g (an L1-type scheme).  ``FracOrder`` carries the
order and ``graded_grid`` builds the clustered sample grids.  Right-sided
derivatives are taken as left ones in s = -t by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gamma


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
    """Grid on [a, b] with nodes clustered at one or both endpoints."""
    s = np.linspace(0.0, 1.0, n)
    if cluster == "left":
        w = s**power
    elif cluster == "right":
        w = 1.0 - (1.0 - s) ** power
    elif cluster == "both":
        w = np.where(s < 0.5, 0.5 * (2 * s) ** power,
                     1.0 - 0.5 * (2 * (1 - s)) ** power)
    else:
        raise ValueError(f"unknown cluster mode {cluster!r}")
    # extreme clustering can collapse neighbors below float resolution
    return np.unique(a + (b - a) * w)


def caputo_left_factored(grid: np.ndarray, gvals: np.ndarray, sigma: float,
                         ord: FracOrder, x: float) -> float:
    """Left Caputo at x for derivative samples factored as t^sigma * g(t).

    Both the t^sigma factor at the lower end and the (x-t)^(-mu) weight at
    the upper end integrate exactly against the piecewise-linear g, through
    incomplete-beta increments; this keeps accuracy when the n-th derivative
    is singular at the interval start (profiles behaving like t^alpha).
    """
    # only the fractional-order verifier stages get here: scipy stays off
    # the import path of every other command
    from scipy.special import beta as _beta_fn
    from scipy.special import betainc as _betainc

    t0 = np.asarray(grid, dtype=float)
    g0 = np.asarray(gvals, dtype=float)
    if t0[0] != 0.0:
        raise ValueError("factored form expects the grid to start at 0")
    idx = int(np.searchsorted(t0, x))
    t = np.concatenate([t0[:idx], [x]])
    g = np.concatenate([g0[:idx], [float(np.interp(x, t0, g0))]])
    if t.size >= 2 and t[-1] - t[-2] <= 0.0:
        t, g = t[:-1], g[:-1]
    mu = ord.order - ord.n + 1
    a0, b0 = sigma + 1.0, 1.0 - mu
    ratios = np.clip(t / x, 0.0, 1.0)
    inc0 = (np.diff(_betainc(a0, b0, ratios)) * _beta_fn(a0, b0)
            * x ** (sigma + 1.0 - mu))
    inc1 = (np.diff(_betainc(a0 + 1.0, b0, ratios)) * _beta_fn(a0 + 1.0, b0)
            * x ** (sigma + 2.0 - mu))
    slopes = np.diff(g) / np.diff(t)
    total = float(np.sum((g[:-1] - slopes * t[:-1]) * inc0 + slopes * inc1))
    return total / gamma(ord.n - ord.order)


