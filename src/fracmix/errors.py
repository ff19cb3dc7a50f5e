"""Exception types the package raises, all under ``FracmixError``."""

from __future__ import annotations


class FracmixError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(FracmixError):
    """A series did not reach the requested tolerance within the term budget."""


class CancellationError(FracmixError):
    """A Mittag-Leffler band value whose error bound misses the tolerance.

    The band is where the float series cancels and the asymptotic expansion
    cannot certify; its contour integral or integer-order closed form
    carries a bound, and the message names the offending (a, b, z)."""


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
