"""Bi-orthogonal trigonometric system on [0, 1].

The spatial problem X'' + mu X = 0 with X(0) = X(1), X'(0) = 0 is not
self-adjoint: its root family {1, cos(2k pi x), x sin(2k pi x)} needs the
adjoint family {2(1-x), 4(1-x) cos(2k pi x), 4 sin(2k pi x)} to project.
This module evaluates the root family, projects onto it against the adjoint
weights (exactly for trig-polynomial data, by composite Gauss-Legendre
otherwise; ``project`` applies the adjoint family inline) and synthesizes
truncated expansions from their 2K+1 coefficient rows (``table_rows``, the
one row layout of the package), one column of rows or a table of columns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import QuadratureError

KIND_CONSTANT = "constant"
KIND_COSINE = "cosine"
KIND_XSINE = "x-sine"
_KINDS = (KIND_CONSTANT, KIND_COSINE, KIND_XSINE)


@dataclass
class CoefficientSet:
    """Expansion coefficients (c0; c1_k cosine; c2_k x-sine) up to K modes."""

    c0: float
    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self) -> None:
        self.c1 = np.asarray(self.c1, dtype=float)
        self.c2 = np.asarray(self.c2, dtype=float)
        if self.c1.shape != self.c2.shape or self.c1.ndim != 1:
            raise ValueError("c1 and c2 must be one-dimensional, same length")
        if self.c1.size < 1:
            raise ValueError("truncation K must be >= 1")

    @property
    def K(self) -> int:
        return int(self.c1.size)

    @classmethod
    def zeros(cls, K: int) -> "CoefficientSet":
        return cls(0.0, np.zeros(K), np.zeros(K))

    def copy(self) -> "CoefficientSet":
        return CoefficientSet(self.c0, self.c1.copy(), self.c2.copy())

    @property
    def rows(self) -> np.ndarray:
        """The coefficients as one column of :func:`table_rows`."""
        return table_rows(self.c0, self.c1, self.c2)


def table_rows(c0, c1, c2) -> np.ndarray:
    """The rows of an expansion: c0 for the constant, then c1 and c2 for
    the cosine and x-sine of each k in turn.  c1 and c2 hold one entry per
    k, or one row of entries per k for a table of columns."""
    out = np.empty((2 * len(c1) + 1,) + np.shape(c1)[1:])
    out[0], out[1::2], out[2::2] = c0, c1, c2
    return out


def finite_real(v, what: str) -> float:
    """v as a float if it is a finite real number and not a bool (an integer
    past the float range is not finite); ValueError naming ``what`` else."""
    try:
        if (isinstance(v, Real) and not isinstance(v, bool)
                and math.isfinite(v)):
            return float(v)
    except OverflowError:
        pass
    raise ValueError(f"{what} must be a finite real number, got {v!r}")


Atom = tuple[str, int, float]


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite combination of root-function atoms (kind, k, amplitude)."""

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        for kind, k, _amp in self.atoms:
            if kind not in _KINDS:
                raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
            if not 0 <= k <= sys.maxsize:
                raise ValueError(f"atom k must lie in [0, {sys.maxsize}]")
            if (kind == KIND_CONSTANT) != (k == 0):
                raise ValueError("constant kind requires k = 0 and vice versa")

    @classmethod
    def from_atoms(cls, atoms: Iterable[Sequence]) -> "TrigPolynomial":
        """Atoms (kind, k, amplitude) with an integer k and a finite real
        amplitude, neither a bool; ValueError otherwise."""
        out = []
        for kind, k, amp in atoms:
            if isinstance(k, bool) or not isinstance(k, Integral):
                raise ValueError(f"atom k must be an integer, got {k!r}")
            out.append((str(kind), int(k),
                        finite_real(amp, "atom amplitude")))
        return cls(tuple(out))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for kind, k, amp in self.atoms:
            out = out + amp * root_function(kind, k, x)
        return out


def _phase(x, k):
    """2 pi (k x mod 1): exact periodicity at integer k x (notably x = 1)."""
    return 2.0 * math.pi * np.mod(np.multiply.outer(x, k), 1.0)


def root_function(kind: str, k: int, x):
    """1, cos(2k pi x), or x sin(2k pi x)."""
    x = np.asarray(x, dtype=float)
    if kind == KIND_CONSTANT:
        return np.ones_like(x)
    ph = _phase(x, k)
    if kind == KIND_COSINE:
        return np.cos(ph)
    return x * np.sin(ph)


_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl_nodes(panels: int) -> tuple[np.ndarray, np.ndarray]:
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    x = (mid + half * _PANEL_NODES[None, :]).ravel()
    w = (half * _PANEL_WEIGHTS[None, :]).ravel()
    return x, w


FunctionLike = Union[TrigPolynomial, Callable, tuple]


def as_callable(f: FunctionLike) -> Callable:
    """f itself when callable; sampled (x, values) data, x strictly
    increasing and values finite, interpolate piecewise-linearly."""
    if callable(f):
        return f
    if isinstance(f, tuple) and len(f) == 2:
        xs = np.asarray(f[0], dtype=float)
        vs = np.asarray(f[1], dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
            raise ValueError("sampled data must be two equal-length 1-d arrays")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("sampled x must be strictly increasing")
        if not np.all(np.isfinite(vs)):
            raise ValueError("sampled values must be finite")
        return lambda x: np.interp(x, xs, vs)
    raise TypeError(f"cannot project object of type {type(f)!r}")


def project(f: FunctionLike, K: int) -> CoefficientSet:
    """Coefficients of f against the adjoint family up to K modes.

    Trig-polynomial input projects exactly (the families are bi-orthonormal,
    so amplitudes read off; atoms beyond K are truncated).  Callables and
    sampled (x, values) pairs go through max(32, 4K) composite 16-point
    Gauss-Legendre panels.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if isinstance(f, TrigPolynomial):
        c = CoefficientSet.zeros(K)
        for kind, k, amp in f.atoms:
            if kind == KIND_CONSTANT:
                c.c0 += amp
            elif k <= K:
                if kind == KIND_COSINE:
                    c.c1[k - 1] += amp
                else:
                    c.c2[k - 1] += amp
        return c
    fn = as_callable(f)
    x, w = _gl_nodes(max(32, 4 * K))
    vals = np.asarray(fn(x), dtype=float)
    if vals.shape != x.shape or not np.all(np.isfinite(vals)):
        raise QuadratureError("projection integrand is not finite on [0, 1]")
    ks = np.arange(1, K + 1)[:, None]
    cos_kx = np.cos(2.0 * math.pi * ks * x[None, :])
    sin_kx = np.sin(2.0 * math.pi * ks * x[None, :])
    c0 = 2.0 * float(np.sum(w * vals * (1.0 - x)))
    c1 = 4.0 * (cos_kx * (w * vals * (1.0 - x))[None, :]).sum(axis=1)
    c2 = 4.0 * (sin_kx * (w * vals)[None, :]).sum(axis=1)
    return CoefficientSet(c0, c1, c2)


def synthesize(rows, x):
    """Evaluate c0 + sum c1_k cos(2k pi x) + sum c2_k x sin(2k pi x) at
    one column of :func:`table_rows`, or at each column of a (2K+1, m)
    table, one output row per column.  The phases, cosines and sines are
    computed once; each column takes contiguous matrix-vector products (one
    product over the whole table would round differently)."""
    rows = np.asarray(rows, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = _phase(x, np.arange(1, len(rows) // 2 + 1))
    cos, sin = np.cos(phase), np.sin(phase)
    cols = rows.reshape(len(rows), -1).T
    out = np.empty((len(cols),) + x.shape)
    for j, col in enumerate(cols):
        c1, c2 = col[1::2].copy(), col[2::2].copy()
        out[j] = col[0] + cos @ c1 + (sin @ c2) * x
    if rows.ndim == 2:
        return out
    return out[0] if x.ndim else float(out[0])


def synthesize_second_deriv(rows, x):
    """Termwise second spatial derivative of the truncated expansion, as
    :func:`synthesize` reads its rows.

    cos(2k pi x) maps to -(2k pi)^2 cos(2k pi x); the associate x sin(2k pi x)
    maps to 4 k pi cos(2k pi x) - (2k pi)^2 x sin(2k pi x)."""
    rows = np.asarray(rows, dtype=float)
    lam = 2.0 * math.pi * np.arange(1, len(rows) // 2 + 1)
    if rows.ndim == 2:
        lam = lam[:, None]
    c1, c2 = rows[1::2], rows[2::2]
    return synthesize(table_rows(0.0, -(lam**2) * c1 + 2.0 * lam * c2,
                                 -(lam**2) * c2), x)
