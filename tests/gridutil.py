"""Shared test grids."""

from __future__ import annotations

import math

import numpy as np

from fracmix.fraccalc import graded_grid


def recurrence_grid(alpha: float) -> np.ndarray:
    """Sample points in [-100, 5] for the two-term recurrence identity.

    On the positive side the function grows like exp(z**(1/alpha)); an
    absolute 1e-9 residual stops being representable in float64 once the
    value passes ~1e5 (ulp exceeds the tolerance), so the positive extent is
    capped per alpha at that representability boundary.
    """
    z_pos_max = min(5.0, math.log(1e5) ** alpha)
    neg = -np.logspace(-1.0, 2.0, 12)
    pos = np.linspace(0.25 * z_pos_max, z_pos_max, 4)
    return np.concatenate([neg, pos])


def multi_graded_grid(a: float, b: float, foci, n_per_segment: int = 800,
                      power: float = 3.0) -> np.ndarray:
    """Grid on [a, b] clustered at every focus point (and both ends).

    Useful when a sampled function must resolve both a data singularity and
    the weight singularity at the evaluation point."""
    pts = sorted({float(a), float(b), *(float(x) for x in foci
                                        if a < float(x) < b)})
    pieces = [graded_grid(lo, hi, n_per_segment, power=power, cluster="both")
              for lo, hi in zip(pts[:-1], pts[1:])]
    return np.unique(np.concatenate(pieces))
