"""Exception types the package raises, all under ``FracmixError``."""

from __future__ import annotations


class FracmixError(Exception):
    """Base class for all package-specific errors."""


class CancellationError(FracmixError):
    """A Mittag-Leffler band value whose error bound misses the tolerance.

    The message names the offending (a, b, z).  Within |z| <= 1e4 a bound
    misses at positive z near 1 at small orders (about (0.85, 1.1) at
    a <= 0.3), at the smallest orders far out (a = 0.01 from z = -1.3e3
    down), at E_{3,-1}(z) for z in [4.5, 4.8], at large b (from about
    a + 26, less at some z) and where 1/Gamma(b) passes the float range (b
    below about -171.5); past it, as |z|**(1/a) grows, at E_{2,-0.5}(-1e11)."""


class QuadratureError(FracmixError):
    """A quadrature could not produce a finite or accurate value.

    In the package, raised only by ``basis.project`` when the projection
    integrand is not finite on [0, 1]; the test oracles' adaptive
    quadratures (``tests/oracles.py``) raise it when their value is not
    finite or their error estimate is too large."""


class DivisionError(FracmixError):
    """A Mittag-Leffler denominator in the reconstruction formulas vanished.

    Carries the mode index and the offending value so callers can report
    which (k, p, beta) combination is degenerate.
    """

    def __init__(self, message: str, k: int | None = None, value: float | None = None):
        super().__init__(message)
        self.k = k
        self.value = value


class SolvabilityError(FracmixError):
    """A solvability determinant is zero within tolerance (degenerate data)."""

    def __init__(self, message: str, k: int | None = None, delta: float | None = None):
        super().__init__(message)
        self.k = k
        self.delta = delta
