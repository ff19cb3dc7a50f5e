"""Series solver and verifier for an inverse source problem on a rectangle
where the time order is fractional of order alpha in (0,1] above the interface
and beta in (1,2] below it, coupled through a fractional transmitting
condition of order gamma in (0,1]."""

from .errors import (
    CancellationError,
    DivisionError,
    FracmixError,
    QuadratureError,
    SolvabilityError,
)

__version__ = "0.1.0"

__all__ = [
    "CancellationError",
    "DivisionError",
    "FracmixError",
    "QuadratureError",
    "SolvabilityError",
    "__version__",
]
