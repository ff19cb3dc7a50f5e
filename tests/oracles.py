"""Test oracles: the convolution-integral forms of the mode profiles, a
forward run that manufactures consistent boundary data, the Gram matrix of
the bi-orthogonal system by projection, and the special functions that only
check others (``ml4``, the integral representation of E_a(-x) for
0 < a < 1, the integral representation of the two-variable function over
its eleven parameters ``E1Params``, and its shift identity), with the
errors ``ml4`` and the integral representation raise (``TermBudgetError``,
``ConstraintError``) and three coefficient-set
helpers (``column_set``, ``scaled``, ``max_abs_diff``).

The product evaluates every profile from the closed-form term table in
``fracmix.solver``; these forms compute the same profiles by weighted
adaptive quadrature of the Duhamel convolutions, so the two share nothing
but the Mittag-Leffler routes (here through the scalar reference
``fracref.ml_ref``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from math import exp, lgamma, log

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from fracref import ml_ref
from fracmix import specfun
from fracmix.basis import (
    CoefficientSet,
    TrigPolynomial,
    project,
    root_function,
)
from fracmix.errors import CancellationError, FracmixError, QuadratureError
from fracmix.solver import (
    FracProblem,
    SolutionField,
    forward_state,
)
from fracmix.specfun import MLArgs, UnitFamily, e1, ml, unit_family_params


@dataclass(frozen=True)
class E1Params:
    """The eleven parameters of the two-variable Mittag-Leffler-type function.

    Order follows the display convention
    (gamma1, alpha1; gamma2, beta1 | delta1, alpha2, beta2; delta2, alpha3;
    delta3, beta3).
    """

    gamma1: float
    alpha1: float
    gamma2: float
    beta1: float
    delta1: float
    alpha2: float
    beta2: float
    delta2: float
    alpha3: float
    delta3: float
    beta3: float

    def __post_init__(self) -> None:
        least = min(self.alpha1, self.alpha2, self.alpha3,
                    self.beta1, self.beta2, self.beta3)
        if not least > 0:
            raise ValueError("alpha1..alpha3 and beta1..beta3 must be positive")

    @classmethod
    def of(cls, params: "E1Params | UnitFamily") -> "E1Params":
        """params itself, or the unit family (nu, delta1) expanded: every
        block 1 but delta1, and alpha2 = beta2 = nu."""
        if isinstance(params, E1Params):
            return params
        nu = params.nu
        return cls(1.0, 1.0, 1.0, 1.0, params.delta1, nu, nu, 1.0, 1.0, 1.0,
                   1.0)


class ConstraintError(FracmixError, ValueError):
    """A parameter constraint (e.g. rho1 + rho2 = delta1) is violated."""


class TermBudgetError(FracmixError):
    """``ml4``'s series does not reach its tolerance within its term
    budget."""


def column_set(rows) -> CoefficientSet:
    """One column of profile-table rows as a coefficient set."""
    rows = np.asarray(rows, dtype=float)
    return CoefficientSet(float(rows[0]), rows[1::2], rows[2::2])


def scaled(c: CoefficientSet, s: float) -> CoefficientSet:
    """The coefficient set s * c."""
    return CoefficientSet(s * c.c0, s * c.c1, s * c.c2)


def max_abs_diff(a: CoefficientSet, b: CoefficientSet) -> float:
    """Largest entrywise gap between two coefficient sets."""
    return max(abs(a.c0 - b.c0), float(np.max(np.abs(a.c1 - b.c1))),
               float(np.max(np.abs(a.c2 - b.c2))))


def _phi_ml(a: float, c: float, mu: float, s: float) -> float:
    """s^(c-1) * E_{a,c}(-mu s^a) for s >= 0, with the
    s = 0 limits of ``fracmix.solver.profile_table``."""
    if s == 0.0:
        if c == 1.0:
            return 1.0
        return 0.0 if c > 1.0 else math.inf
    return s ** (c - 1.0) * ml_ref(a, c, -mu * s**a)


def _qaws(fn, lo: float, hi: float, wexp: float, abs_tol: float = 1e-10) -> float:
    val, err = quad(fn, lo, hi, weight="alg", wvar=(0.0, wexp),
                    epsabs=abs_tol, epsrel=abs_tol, limit=400)
    if not math.isfinite(val) or err > max(100 * abs_tol, 1e-6 * abs(val)):
        raise QuadratureError(f"convolution quadrature error estimate {err}")
    return val


def v1k_convolution(fld: SolutionField, k: int, t: float) -> float:
    """Convolution-integral form of the coupled cosine mode on t > 0; the
    weakly singular factor (t-z)^(alpha-1) is handled by weighted adaptive
    quadrature."""
    a = fld.problem.alpha
    lam = 2.0 * math.pi * k
    mu = lam**2
    base = (fld.value.c1[k - 1] * _phi_ml(a, 1.0, mu, t)
            + fld.source.c1[k - 1] * _phi_ml(a, a + 1.0, mu, t))
    if t == 0.0:
        return base

    def kern(z: float) -> float:
        return ml_ref(a, a, -mu * max(t - z, 0.0) ** a)

    i1 = _qaws(lambda z: ml_ref(a, 1.0, -mu * z**a)
               * kern(z), 0.0, t, a - 1.0)
    i2 = _qaws(lambda z: z**a * ml_ref(a, a + 1.0, -mu * z**a)
               * kern(z), 0.0, t, a - 1.0)
    return base + 2.0 * lam * (fld.value.c2[k - 1] * i1
                               + fld.source.c2[k - 1] * i2)


def w2k_convolution(fld: SolutionField, k: int, t: float) -> float:
    """Convolution form of the lower-branch x-sine mode on t < 0."""
    b = fld.problem.beta
    mu = (2.0 * math.pi * k) ** 2
    s = -t
    base = (fld.value.c2[k - 1] * _phi_ml(b, 1.0, mu, s)
            + fld.slope.c2[k - 1] * _phi_ml(b, 2.0, mu, s))
    if s == 0.0:
        return base
    i0 = _qaws(lambda u: ml_ref(b, b, -mu * max(s - u, 0.0) ** b),
               0.0, s, b - 1.0)
    return base + fld.source.c2[k - 1] * i0


def w1k_convolution(fld: SolutionField, k: int, t: float) -> float:
    """Convolution form of the lower-branch cosine mode on t < 0."""
    b = fld.problem.beta
    lam = 2.0 * math.pi * k
    mu = lam**2
    s = -t
    base = (fld.value.c1[k - 1] * _phi_ml(b, 1.0, mu, s)
            + fld.slope.c1[k - 1] * _phi_ml(b, 2.0, mu, s))
    if s == 0.0:
        return base

    def kern(u: float) -> float:
        return ml_ref(b, b, -mu * max(s - u, 0.0) ** b)

    i0 = _qaws(kern, 0.0, s, b - 1.0)
    i1 = _qaws(lambda u: ml_ref(b, 1.0, -mu * u**b)
               * kern(u), 0.0, s, b - 1.0)
    i2 = _qaws(lambda u: u * ml_ref(b, 2.0, -mu * u**b)
               * kern(u), 0.0, s, b - 1.0)
    i3 = _qaws(lambda u: u**b * ml_ref(b, b + 1.0, -mu * u**b)
               * kern(u), 0.0, s, b - 1.0)
    return (base + fld.source.c1[k - 1] * i0
            + 2.0 * lam * (fld.value.c2[k - 1] * i1
                           + fld.slope.c2[k - 1] * i2
                           + fld.source.c2[k - 1] * i3))


def transmitting_source(prob: FracProblem, u0_c: CoefficientSet,
                        slope_c: CoefficientSet) -> CoefficientSet:
    """Source coefficients consistent with the transmitting condition for
    the given interface data (gamma < 1 kills the slope contribution)."""
    K = prob.K
    lam = 2.0 * math.pi * np.arange(1, K + 1)
    mu = lam**2
    if prob.gamma < 1.0:
        f0 = 0.0
        f1 = mu * u0_c.c1 - 2.0 * lam * u0_c.c2
        f2 = mu * u0_c.c2
    else:
        f0 = slope_c.c0
        f1 = slope_c.c1 + mu * u0_c.c1 - 2.0 * lam * u0_c.c2
        f2 = slope_c.c2 + mu * u0_c.c2
    return CoefficientSet(f0, f1, f2)


def manufacture(prob: FracProblem, u0_c: CoefficientSet,
                slope_c: CoefficientSet
                ) -> tuple[SolutionField, CoefficientSet, CoefficientSet]:
    """Forward-run transmitting-consistent data and return the field with
    its two boundary snapshots (the inverse solver's inputs)."""
    source_c = transmitting_source(prob, u0_c, slope_c)
    fld = forward_state(prob, source_c, u0_c, slope_c)
    phi_c = column_set(fld.mode_values(prob.q))
    psi_c = column_set(fld.mode_values(-prob.p))
    return fld, phi_c, psi_c


def gram_deviation(K: int) -> float:
    """max |G - I| over the Gram matrix of the root family against the
    adjoint family up to K modes.  Row by row: the Gauss-Legendre
    projection of one root function (passed as a plain callable) less its
    exact projection, the unit vector of its atom."""
    atoms = [("constant", 0)] + [(kind, k) for k in range(1, K + 1)
                                 for kind in ("cosine", "x-sine")]
    return max(
        max_abs_diff(project(lambda x, kind=kind, k=k:
                             root_function(kind, k, x), K),
                     project(TrigPolynomial.from_atoms([(kind, k, 1.0)]), K))
        for kind, k in atoms)


# ---------------------------------------------------------------------------
# special functions that only check others

# digits of ml4's high-precision sum, at most _MAX_DPS; the lock serializes
# it, as mpmath's working precision is process-global
_MAX_DPS = 1200
_mp_lock = threading.Lock()
# ml4's term budget, and its float sum: its terms' log-magnitudes past
# which exp overflows or underflows, and the float sum kept only where the
# predicted peak term times a few ulp stays below the tolerance and the
# largest term seen is within _CANCELLATION_GUARD of the result
_MAX_TERMS = 10**6
_OVERFLOW_LN = 708.0
_TINY_LN = -745.0
_FLOAT_EPS_LN = log(5e-16)
_CANCELLATION_GUARD = 1e8


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


def ml4(gamma1: float, alpha1: float, alpha2: float, delta1: float,
        alpha3: float, delta2: float, x: float) -> float:
    """One-variable Mittag-Leffler-type function with generalized Pochhammer
    weight (gamma1)_{alpha1 m} and two gamma denominators, to the package's
    tolerance within its term budget.

    Reduces exactly to the two-parameter function when
    gamma1 = alpha1 = alpha3 = delta2 = 1.
    """
    tol, max_terms = specfun._ABS_TOL, _MAX_TERMS
    if min(alpha1, alpha2, alpha3) <= 0:
        raise ValueError("alpha1, alpha2, alpha3 must be positive")
    if gamma1 <= 0 or delta1 <= 0 or delta2 <= 0:
        raise ValueError("gamma1, delta1, delta2 must be positive")
    if gamma1 == alpha1 == alpha3 == delta2 == 1.0:
        return ml_ref(alpha2, delta1, x)
    if x == 0.0:
        return exp(-lgamma(delta1) - lgamma(delta2))
    ln_absx = log(abs(x))

    def env(m: float) -> float:
        return (lgamma(gamma1 + alpha1 * m) - lgamma(gamma1) + m * ln_absx
                - lgamma(delta1 + alpha2 * m) - lgamma(delta2 + alpha3 * m))

    peak = max(env(m) for m in (0.0, 1.0, 2.0, 4.0))
    m = 4.0
    prev = env(m)
    while m <= max_terms:
        e = env(m)
        peak = max(peak, e)
        if e < log(0.05 * tol) and e < prev:
            break
        prev = e
        m = m * 1.25 + 4
    else:
        raise TermBudgetError(
            "ml4 series does not converge within max_terms "
            f"(alpha2+alpha3 vs alpha1 growth; x={x})")

    def run_float() -> tuple[float, float] | None:
        acc = _Kahan()
        pk = 0.0
        tiny_run = 0
        neg = x < 0
        for mm in range(max_terms):
            lt = env(float(mm))
            if lt > _OVERFLOW_LN:
                return None
            t = 0.0 if lt < _TINY_LN else exp(lt)
            if neg and (mm & 1):
                t = -t
            acc.add(t)
            pk = max(pk, abs(t))
            if abs(t) < 0.1 * tol and mm >= 4:
                tiny_run += 1
                if tiny_run >= 3:
                    return acc.s, pk
            else:
                tiny_run = 0
        return None

    if peak + _FLOAT_EPS_LN <= log(0.05 * tol):
        r = run_float()
        if r is not None:
            val, pk = r
            if pk <= _CANCELLATION_GUARD * max(abs(val), tol):
                return val
    # the digits that keep peak-sized terms 0.1 * tol accurate, with ten
    # guard digits and at least 60
    dps = max(60, int(peak / math.log(10.0) - math.log10(0.1 * tol)) + 10)
    if dps > _MAX_DPS:
        raise CancellationError(f"ml4 needs ~{dps} digits (x={x})")
    with _mp_lock, mp.workdps(dps):
        g1, a1, a2, d1, a3, d2 = (mp.mpf(v) for v in
                                  (gamma1, alpha1, alpha2, delta1, alpha3, delta2))
        x_ = mp.mpf(x)
        s = mp.mpf(0)
        pk = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-dps)
        tiny_run = 0
        for mm in range(max_terms):
            t = (mp.gamma(g1 + a1 * mm) / mp.gamma(g1) * x_**mm
                 / mp.gamma(d1 + a2 * mm) / mp.gamma(d2 + a3 * mm))
            s += t
            pk = max(pk, abs(t))
            if abs(t) < cutoff * pk and mm >= 4:
                tiny_run += 1
                if tiny_run >= 3:
                    return float(s)
            else:
                tiny_run = 0
    raise TermBudgetError(f"ml4 series exceeded max_terms (x={x})")


def ml_neg_integral(a: float, x: float) -> float:
    """E_a(-x) = E_{a,1}(-x) for 0 < a < 1 and x > 0 by its integral
    representation

        sin(pi a) / (a pi) * int_0^inf exp(-(u x)^(1/a))
                                       / (u^2 + 2 u cos(pi a) + 1) du

    at 30 digits, the range split where the exponential turns over; it
    shares nothing with the series or the contour integral."""
    if not 0.0 < a < 1.0 or not x > 0.0:
        raise ValueError("needs 0 < a < 1 and x > 0")
    with mp.workdps(30):
        a_, x_ = mp.mpf(a), mp.mpf(x)
        c = mp.cos(mp.pi * a_)

        def integrand(u):
            return mp.exp(-(u * x_) ** (1 / a_)) / (u * u + 2 * u * c + 1)

        val = mp.quad(integrand, [0, 1 / x_, 2 / x_, mp.inf])
        return float(mp.sin(mp.pi * a_) / (a_ * mp.pi) * val)


def e1_via_integral(params: E1Params | UnitFamily, rho1: float, rho2: float,
                    x: float, y: float, abs_tol: float = 1e-10) -> float:
    """Beta-weighted integral representation of the two-variable
    Mittag-Leffler-type double series, for any of its eleven parameters
    (a unit family is expanded to them).

    The split exponents must satisfy rho1 + rho2 = delta1.  The plain
    algebraic-weight integral of the two one-variable kernels ``ml4``
    stands for the double series, with no reciprocal-gamma prefactor in the
    first parameters.  The test suite checks it only in the unit family,
    against ``fracmix.specfun.e1`` at equal arguments and by the
    independence of the rho split at unequal ones; the normalization for
    non-unit gamma1/gamma2 is not pinned down.
    """
    p = E1Params.of(params)
    if rho1 <= 0 or rho2 <= 0:
        raise ConstraintError("rho1 and rho2 must be positive")
    if abs(rho1 + rho2 - p.delta1) > 1e-12 * max(1.0, abs(p.delta1)):
        raise ConstraintError(
            f"rho1 + rho2 = {rho1 + rho2} must equal delta1 = {p.delta1}")

    def integrand(t: float) -> float:
        left = ml4(p.gamma1, p.alpha1, p.alpha2, rho1, p.alpha3, p.delta2,
                   x * t ** p.alpha2)
        right = ml4(p.gamma2, p.beta1, p.beta2, rho2, p.beta3, p.delta3,
                    y * (1.0 - t) ** p.beta2)
        return left * right

    val, err = quad(integrand, 0.0, 1.0, weight="alg",
                    wvar=(rho1 - 1.0, rho2 - 1.0),
                    epsabs=abs_tol, epsrel=abs_tol, limit=400)
    if not math.isfinite(val) or err > max(50 * abs_tol, 1e-8 * abs(val)):
        raise QuadratureError(
            f"integral representation did not converge (err={err})")
    return val


def e1_unit_series(nu: float, d1: float, w: float) -> float:
    """sum_n (n+1) w^n / Gamma(d1 + nu n) at 250 digits.  The Gamma arguments
    are built from the exact float inputs: a rounded float argument would be
    amplified by the peak term, about e^195 at nu = 0.7, |w| = 40."""
    with mp.workdps(250):
        nu_, d1_, w_ = mp.mpf(nu), mp.mpf(d1), mp.mpf(w)
        tiny = mp.mpf(10) ** -60
        total, wn, n, small = mp.mpf(0), mp.mpf(1), 0, 0
        while small < 3:
            term = (n + 1) * wn * mp.rgamma(d1_ + nu_ * n)
            total += term
            small = small + 1 if abs(term) < tiny else 0
            wn *= w_
            n += 1
        return float(total)



def lemma22_residual(alphaML: float, w: float) -> float:
    """Residual of the contiguous-shift identity for the two-variable
    function at equal arguments:

        E1(delta1 = a+1; w, w) - w * E1(delta1 = 2a+1; w, w) = E_{a,a+1}(w)

    The second shift is delta1 + lambda with lambda equal to the inner order,
    i.e. 2a + 1.
    """
    if not (0 < alphaML < 2):
        raise ValueError("alphaML must lie in (0, 2)")
    if w > 0:
        raise ValueError("w must be <= 0")
    a = alphaML
    lhs1 = e1(unit_family_params(a, a + 1.0), w, w)
    lhs2 = e1(unit_family_params(a, 2.0 * a + 1.0), w, w)
    rhs = ml(MLArgs(a, a + 1.0, w))
    return abs(lhs1 - w * lhs2 - rhs)
