"""Gamma and Mittag-Leffler-type special functions on the real line.

Evaluators for the two-parameter Mittag-Leffler function, its four-parameter
one-variable generalization, and the Garg-type two-variable double series,
together with the Beta-weighted integral representation of the latter.

Negative arguments are the hard case: the defining series loses roughly
``|z|**(1/alpha)`` nats to cancellation, so evaluation is routed between
three regimes:

* plain float summation with compensated (Kahan) accumulation, accepted only
  when the predicted peak term cannot pollute the absolute tolerance;
* high-precision re-summation for the intermediate band, with the precision
  sized from the predicted peak: the terms are summed exactly in Python-integer
  fixed point, 1/Gamma(a*k + b) rounded from mpmath's Gamma at that precision;
* an envelope-truncated algebraic asymptotic expansion, plus the conjugate
  pair of exponential contributions for orders in (1, 2), once the expansion
  can certify the requested tolerance on its own.

All values are pure functions of their arguments. The high-precision
fallback serializes on a lock because mpmath's working precision is
process-global, and under that lock it reads 1/Gamma(a*k + b) from a table
per (a, b, precision); the table is only a memo of the values a fresh
``mp.gamma`` call returns, rounded to the fixed-point scale and filled
lazily one term at a time.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import exp, floor, lgamma, log, pi

import mpmath as mp
from scipy.integrate import quad
from scipy.special import gamma as _scipy_gamma

from .errors import (
    CancellationError,
    ConstraintError,
    ConvergenceError,
    PoleError,
    QuadratureError,
)

_LN10 = log(10.0)
_LOG2_10 = math.log2(10.0)
_LN_PI = log(pi)
_OVERFLOW_LN = 708.0
_TINY_LN = -745.0
_MAX_DPS = 1200
_ASYM_JMAX = 20000
# float summation is trusted only while peak_term * O(eps) stays below tol
_FLOAT_EPS_LN = log(5e-16)

_mp_lock = threading.Lock()


def _min_fallback_dps() -> int:
    try:
        return max(15, int(os.environ.get("FRACMIX_PRECISION_DIGITS", "60")))
    except ValueError:
        return 60


@dataclass(frozen=True)
class SummationPolicy:
    """Stopping and fallback controls for the series evaluators."""

    abs_tol: float = 1e-12
    max_terms: int = 10**6
    cancellation_guard: float = 1e8

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.cancellation_guard < 1:
            raise ValueError("cancellation_guard must be >= 1")


DEFAULT_POLICY = SummationPolicy()


@dataclass(frozen=True)
class MLArgs:
    """Arguments of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float
    z: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not math.isfinite(self.z):
            raise ValueError("z must be finite")


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

    def swapped(self) -> "E1Params":
        """Exchange the m-indexed and n-indexed parameter blocks."""
        return E1Params(self.gamma2, self.beta1, self.gamma1, self.alpha1,
                        self.delta1, self.beta2, self.alpha2,
                        self.delta3, self.beta3, self.delta2, self.alpha3)


def gamma(z: float) -> float:
    """Gamma function on the reals, with explicit pole detection."""
    if z <= 0 and z == floor(z):
        raise PoleError(f"gamma pole at z={z}")
    return float(_scipy_gamma(z))


def _sinpi(w: float) -> float:
    """sin(pi*w) with exact integer-part reduction."""
    m = floor(w + 0.5)
    s = math.sin(pi * (w - m))
    return -s if (int(m) & 1) else s


def _log_abs_rgamma(w: float) -> tuple[float, float]:
    """(log|1/Gamma(w)|, sign) for real w; sign 0 at the poles."""
    if w > 0.5:
        return -lgamma(w), 1.0
    if w <= 0 and w == floor(w):
        return -math.inf, 0.0
    s = _sinpi(w)
    return lgamma(1.0 - w) + log(abs(s)) - _LN_PI, math.copysign(1.0, s)


def _log_rgamma_env(w: float) -> float:
    """Upper envelope of log|1/Gamma(w)| (the |sin| factor dropped)."""
    if w > 0.5:
        return -lgamma(w)
    return lgamma(1.0 - w) - _LN_PI


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


# ---------------------------------------------------------------------------
# two-parameter Mittag-Leffler machinery


def _ml_term_env(a: float, b: float, ln_absz: float, k: float) -> float:
    return k * ln_absz + _log_rgamma_env(a * k + b)


def _ml_peak_and_horizon(
    a: float, b: float, z: float, ln_target: float, max_terms: int
) -> tuple[float, int | None]:
    """Estimated peak log-magnitude of the series terms and the index where
    they drop below ln_target for good (None if past max_terms)."""
    absz = abs(z)
    ln_absz = log(absz)
    # continuous peak location: a*k + b == |z|**(1/a)
    k_star = max(0.0, (absz ** (1.0 / a) - b) / a)
    peak = 0.0
    for k in {0, 1, 2, int(k_star * 0.5), int(k_star), int(k_star) + 1,
              int(k_star * 1.5) + 1}:
        if 0 <= k <= max_terms * 4:
            peak = max(peak, _ml_term_env(a, b, ln_absz, k))
    k = max(4.0, k_star)
    while k <= max_terms:
        if _ml_term_env(a, b, ln_absz, k) < ln_target and k > k_star:
            return peak, int(k) + 1
        k = k * 1.25 + 4
    return peak, None


def _ml_series_float(
    a: float, b: float, z: float, policy: SummationPolicy
) -> tuple[float, float] | None:
    """Direct Kahan summation; returns (value, peak |term|) or None on overflow."""
    ln_absz = log(abs(z))
    neg = z < 0
    acc = _Kahan()
    peak = 0.0
    tiny_run = 0
    target = 0.1 * policy.abs_tol
    for k in range(policy.max_terms):
        lr, sgn = _log_abs_rgamma(a * k + b)
        lt = k * ln_absz + lr
        if lt > _OVERFLOW_LN:
            return None
        t = 0.0 if sgn == 0.0 or lt < _TINY_LN else sgn * exp(lt)
        if neg and (k & 1):
            t = -t
        acc.add(t)
        peak = max(peak, abs(t))
        if abs(t) < target and k >= 4:
            tiny_run += 1
            if tiny_run >= 3:
                return acc.s, peak
        else:
            tiny_run = 0
    raise ConvergenceError(
        f"ml series needs more than {policy.max_terms} terms (a={a}, b={b}, z={z})")


def _fallback_dps(peak_nats: float, abs_tol: float) -> int:
    """Decimal digits that keep peak-sized terms ``0.1 * abs_tol`` accurate,
    with ten guard digits and the configured floor."""
    return max(_min_fallback_dps(),
               int(peak_nats / _LN10 - math.log10(0.1 * abs_tol)) + 10)


def _fixed_bits(dps: int) -> int:
    """Fraction bits of the fixed-point sums at ``dps`` digits."""
    return math.ceil(dps * _LOG2_10) + 16


@lru_cache(maxsize=128)
def _gamma_table(a: float, b: float, dps: int) -> list:
    """Memo of 1/Gamma(a*k + b) from ``mp.gamma`` at ``dps`` digits, indexed
    by k: integer pairs (m, e) with 1/Gamma ~ m * 2**e and |m| of
    ``_fixed_bits(dps) + 1`` bits, None at the poles. Grown only by
    :func:`_rgamma_upto`."""
    return []


def _rgamma_upto(table: list, a: float, b: float, k: int,
                 bits: int) -> tuple[int, int] | None:
    """table[k], extending the table through index k first.

    The caller holds ``_mp_lock`` inside ``mp.workdps`` at the table's
    precision, so each entry is rounded from exactly the value ``mp.gamma``
    returns there, by one exact integer division.
    """
    a_, b_ = mp.mpf(a), mp.mpf(b)
    while len(table) <= k:
        w = a_ * len(table) + b_
        if w <= 0 and w == mp.floor(w):
            table.append(None)
            continue
        sign, man, exp_, bc = mp.gamma(w)._mpf_
        q, r = divmod(1 << (bits + bc), man)
        q += 2 * r >= man   # round to nearest
        table.append((-q if sign else q, -bits - bc - exp_))
    return table[k]


def _ml_fixed_sum(a: float, b: float, z: float, order: int, dps: int,
                  max_terms: int) -> float | None:
    """Sum over j >= order of perm(j, order) * z**(j - order) / Gamma(a*j + b),
    the order-th derivative of the E_{a,b} series, in exact integer fixed
    point at ``dps`` digits; None when max_terms terms do not stop it.

    z = zm * 2**ze_step exactly, and |z|**n = zk * 2**ze is a running
    integer product truncated to 64 bits beyond the fixed-point scale 2**bits,
    at which every term is added. The sum stops after three consecutive
    terms, from the fifth on, below 10**-dps of the largest so far (at
    least 1).
    """
    bits = _fixed_bits(dps)
    keep = bits + 64
    frac, ze_step = math.frexp(abs(z))
    zm, ze_step = int(frac * 2.0**53), ze_step - 53
    flip = z < 0
    scale = 10**dps
    with _mp_lock, mp.workdps(dps):
        table = _gamma_table(a, b, dps)
        zk, ze = 1, 0
        s = 0
        peak = 1 << bits
        bound = -(-peak // scale)   # at * scale < peak  <=>  at < bound
        tiny_run = 0
        for n in range(max_terms):
            j = n + order
            g = table[j] if j < len(table) else _rgamma_upto(table, a, b, j, bits)
            if g is None:
                at = 0
            else:
                m, e = g
                t = zk * m
                if order:
                    t *= math.perm(j, order)
                sh = ze + e + bits
                t = t << sh if sh >= 0 else t >> -sh
                s += -t if flip and n & 1 else t
                at = abs(t)
                if at > peak:
                    peak = at
                    bound = -(-peak // scale)
            if at < bound and n >= 4:
                tiny_run += 1
                if tiny_run >= 3:
                    try:
                        return s / (1 << bits)
                    except OverflowError:   # as float() of an mpf past 1e308
                        return math.inf if s > 0 else -math.inf
            else:
                tiny_run = 0
            zk *= zm
            ze += ze_step
            excess = zk.bit_length() - keep
            if excess > 0:
                zk >>= excess
                ze += excess
    return None


def _ml_series_mp(
    a: float, b: float, z: float, policy: SummationPolicy, peak_nats: float
) -> float:
    dps = _fallback_dps(peak_nats, policy.abs_tol)
    if dps > _MAX_DPS:
        raise CancellationError(
            f"ml needs ~{dps} digits (a={a}, b={b}, z={z}); beyond fallback cap")
    v = _ml_fixed_sum(a, b, z, 0, dps, policy.max_terms)
    if v is None:
        raise ConvergenceError(
            f"ml series needs more than {policy.max_terms} terms (a={a}, b={b}, z={z})")
    return v


def _ml_asym(a: float, b: float, z: float, abs_tol: float) -> float | None:
    """Large-|z| expansion on the negative axis; None when it cannot certify
    abs_tol from its own envelope minimum.

    The scan stops at the first index whose (still descending) envelope is
    already below the certification target; the true envelope minimum is only
    chased when that never happens.
    """
    x = -z
    ln_absz = log(x)
    ln_certify = log(0.02 * abs_tol)
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
    if emin > log(0.1 * abs_tol):
        return None
    total = 0.0
    if 1.0 < a < 2.0:
        # conjugate pair of decaying exponential branches
        zeta = x ** (1.0 / a) * cmath.exp(1j * pi / a)
        total += (2.0 / a) * (zeta ** (1.0 - b) * cmath.exp(zeta)).real
    elif a == 1.0:
        zc = complex(z)
        total += (zc ** (1.0 - b) * cmath.exp(zc)).real
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


def _float_ok(peak_nats: float, abs_tol: float) -> bool:
    return peak_nats + _FLOAT_EPS_LN <= log(0.05 * abs_tol)


@lru_cache(maxsize=250000)
def _ml_eval(a: float, b: float, z: float,
             abs_tol: float, max_terms: int, guard: float) -> float:
    policy = SummationPolicy(abs_tol, max_terms, guard)
    if z == 0.0:
        lr, sgn = _log_abs_rgamma(b)
        return 0.0 if sgn == 0.0 else sgn * exp(lr)
    peak, horizon = _ml_peak_and_horizon(a, b, z, log(0.05 * abs_tol), max_terms)
    float_ok = _float_ok(peak, abs_tol)
    if z < 0 and a < 1.97 and not float_ok:
        v = _ml_asym(a, b, z, abs_tol)
        if v is not None:
            return v
    if horizon is None:
        raise ConvergenceError(
            f"ml series does not converge within {max_terms} terms "
            f"(a={a}, b={b}, z={z})")
    if float_ok:
        r = _ml_series_float(a, b, z, policy)
        if r is not None:
            val, peak_obs = r
            if peak_obs <= guard * max(abs(val), abs_tol):
                return val
    return _ml_series_mp(a, b, z, policy, peak)


def ml(args: MLArgs, policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z)."""
    return _ml_eval(args.alpha, args.beta, args.z,
                    policy.abs_tol, policy.max_terms, policy.cancellation_guard)


def _ml_f(a: float, b: float, z: float,
          policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """Scalar-argument convenience wrapper around :func:`ml`."""
    if not a > 0:
        raise ValueError("alpha must be positive")
    return _ml_eval(a, b, z, policy.abs_tol, policy.max_terms,
                    policy.cancellation_guard)


def ml_deriv(a: float, b: float, z: float, k: int,
             policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """k-th classical derivative of E_{a,b} at z, by the differentiated series.

    Only modest arguments are supported for k >= 1 (no asymptotic route);
    k = 0 delegates to the fully routed evaluator.
    """
    if k < 0:
        raise ValueError("derivative order k must be >= 0")
    if k == 0:
        return _ml_f(a, b, z, policy)
    peak, horizon = _ml_peak_and_horizon(a, b, z if z != 0 else 1e-300,
                                         log(0.05 * policy.abs_tol),
                                         policy.max_terms)
    if horizon is None:
        raise ConvergenceError(f"ml_deriv series does not converge (z={z})")
    dps = _fallback_dps(peak, policy.abs_tol)
    if dps > _MAX_DPS:
        raise CancellationError(f"ml_deriv needs ~{dps} digits (z={z})")
    v = _ml_fixed_sum(a, b, z, k, dps, policy.max_terms)
    if v is None:
        raise ConvergenceError(f"ml_deriv series exceeded max_terms (z={z})")
    return v


# ---------------------------------------------------------------------------
# one-variable four-parameter function


def _ml4_reduces(gamma1: float, alpha1: float, alpha3: float, delta2: float) -> bool:
    return gamma1 == 1.0 and alpha1 == 1.0 and alpha3 == 1.0 and delta2 == 1.0


def _ml4_term_log(gamma1: float, alpha1: float, alpha2: float, delta1: float,
                  alpha3: float, delta2: float, ln_absx: float, m: float) -> float:
    return (lgamma(gamma1 + alpha1 * m) - lgamma(gamma1) + m * ln_absx
            - lgamma(delta1 + alpha2 * m) - lgamma(delta2 + alpha3 * m))


def ml4(gamma1: float, alpha1: float, alpha2: float, delta1: float,
        alpha3: float, delta2: float, x: float,
        policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """One-variable Mittag-Leffler-type function with generalized Pochhammer
    weight (gamma1)_{alpha1 m} and two gamma denominators.

    Reduces exactly to the two-parameter function when
    gamma1 = alpha1 = alpha3 = delta2 = 1.
    """
    if min(alpha1, alpha2, alpha3) <= 0:
        raise ValueError("alpha1, alpha2, alpha3 must be positive")
    if gamma1 <= 0 or delta1 <= 0 or delta2 <= 0:
        raise ValueError("gamma1, delta1, delta2 must be positive")
    if _ml4_reduces(gamma1, alpha1, alpha3, delta2):
        return _ml_f(alpha2, delta1, x, policy)
    if x == 0.0:
        return exp(-lgamma(delta1) - lgamma(delta2))
    ln_absx = log(abs(x))

    def env(m: float) -> float:
        return _ml4_term_log(gamma1, alpha1, alpha2, delta1, alpha3, delta2,
                             ln_absx, m)

    peak = max(env(m) for m in (0.0, 1.0, 2.0, 4.0))
    horizon = None
    m = 4.0
    prev = env(m)
    while m <= policy.max_terms:
        e = env(m)
        peak = max(peak, e)
        if e < log(0.05 * policy.abs_tol) and e < prev:
            horizon = int(m) + 1
            break
        prev = e
        m = m * 1.25 + 4
    if horizon is None:
        raise ConvergenceError(
            "ml4 series does not converge within max_terms "
            f"(alpha2+alpha3 vs alpha1 growth; x={x})")

    def run_float() -> tuple[float, float] | None:
        acc = _Kahan()
        pk = 0.0
        tiny_run = 0
        neg = x < 0
        for mm in range(policy.max_terms):
            lt = env(float(mm))
            if lt > _OVERFLOW_LN:
                return None
            t = 0.0 if lt < _TINY_LN else exp(lt)
            if neg and (mm & 1):
                t = -t
            acc.add(t)
            pk = max(pk, abs(t))
            if abs(t) < 0.1 * policy.abs_tol and mm >= 4:
                tiny_run += 1
                if tiny_run >= 3:
                    return acc.s, pk
            else:
                tiny_run = 0
        return None

    if _float_ok(peak, policy.abs_tol):
        r = run_float()
        if r is not None:
            val, pk = r
            if pk <= policy.cancellation_guard * max(abs(val), policy.abs_tol):
                return val
    dps = _fallback_dps(peak, policy.abs_tol)
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
        for mm in range(policy.max_terms):
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
    raise ConvergenceError(f"ml4 series exceeded max_terms (x={x})")


# ---------------------------------------------------------------------------
# two-variable function


def _e1_is_collapsible(p: E1Params, x: float, y: float) -> bool:
    """Parameter family whose double series collapses to classical
    Mittag-Leffler evaluations: unit Pochhammer/denominator blocks, equal
    inner orders, equal arguments."""
    return (p.gamma1 == 1.0 and p.gamma2 == 1.0 and p.alpha1 == 1.0
            and p.beta1 == 1.0 and p.delta2 == 1.0 and p.delta3 == 1.0
            and p.alpha3 == 1.0 and p.beta3 == 1.0 and p.alpha2 == p.beta2
            and x == y)


def _e1_collapsed(p: E1Params, w: float, policy: SummationPolicy) -> float:
    """Exact collapse sum_s (s+1) w^s / Gamma(delta1 + nu s), rewritten in
    terms of two classical Mittag-Leffler values."""
    nu, d1 = p.alpha2, p.delta1
    if w == 0.0:
        return exp(-lgamma(d1))
    v1 = _ml_f(nu, d1 - 1.0, w, policy)
    v2 = _ml_f(nu, d1, w, policy)
    return v1 / nu + (1.0 - (d1 - 1.0) / nu) * v2


def _e1_term_log_parts(p: E1Params, ln_ax: float, ln_ay: float,
                       m: float, n: float) -> float:
    return (lgamma(p.gamma1 + p.alpha1 * m) - lgamma(p.gamma1)
            + lgamma(p.gamma2 + p.beta1 * n) - lgamma(p.gamma2)
            + m * ln_ax + n * ln_ay
            - lgamma(p.delta1 + p.alpha2 * m + p.beta2 * n)
            - lgamma(p.delta2 + p.alpha3 * m)
            - lgamma(p.delta3 + p.beta3 * n))


def _e1_block_env(p: E1Params, ln_ax: float, ln_ay: float, s: int) -> float:
    best = -math.inf
    for m in {0, s // 4, s // 2, (3 * s) // 4, s}:
        best = max(best, _e1_term_log_parts(p, ln_ax, ln_ay, float(m),
                                            float(s - m)))
    return best + log(s + 1.0)


def _e1_scan(p: E1Params, x: float, y: float, ln_target: float,
             max_terms: int) -> tuple[float, int | None]:
    ln_ax = log(abs(x)) if x != 0 else -math.inf
    ln_ay = log(abs(y)) if y != 0 else -math.inf
    peak = _e1_block_env(p, ln_ax, ln_ay, 0)
    s = 1
    prev = peak
    while s * (s + 1) // 2 <= max_terms:
        e = _e1_block_env(p, ln_ax, ln_ay, s)
        peak = max(peak, e)
        if e < ln_target and e < prev:
            return peak, s + 1
        prev = e
        s = int(s * 1.3) + 2
    return peak, None


def _e1_double_float(p: E1Params, x: float, y: float,
                     policy: SummationPolicy) -> tuple[float, float] | None:
    ln_ax = log(abs(x)) if x != 0 else -math.inf
    ln_ay = log(abs(y)) if y != 0 else -math.inf
    acc = _Kahan()
    peak = 0.0
    small_blocks = 0
    terms = 0
    s = 0
    while terms <= policy.max_terms:
        block_max = 0.0
        for m in range(s + 1):
            n = s - m
            if (x == 0.0 and m > 0) or (y == 0.0 and n > 0):
                continue
            lt = _e1_term_log_parts(p, ln_ax, ln_ay, float(m), float(n))
            if lt > _OVERFLOW_LN:
                return None
            t = 0.0 if lt < _TINY_LN else exp(lt)
            if x < 0 and (m & 1):
                t = -t
            if y < 0 and (n & 1):
                t = -t
            acc.add(t)
            block_max = max(block_max, abs(t))
            terms += 1
        peak = max(peak, block_max)
        # stop once three consecutive anti-diagonal blocks are negligible
        if block_max * (s + 1) < policy.abs_tol and s >= 2:
            small_blocks += 1
            if small_blocks >= 3:
                return acc.s, peak
        else:
            small_blocks = 0
        s += 1
    raise ConvergenceError(
        f"e1 double series exceeded max_terms={policy.max_terms} (x={x}, y={y})")


def _e1_double_mp(p: E1Params, x: float, y: float, policy: SummationPolicy,
                  peak_nats: float, s_horizon: int) -> float:
    dps = _fallback_dps(peak_nats, policy.abs_tol)
    if dps > _MAX_DPS:
        raise CancellationError(f"e1 needs ~{dps} digits (x={x}, y={y})")
    if (s_horizon + 2) * (s_horizon + 3) // 2 > policy.max_terms:
        raise ConvergenceError("e1 anti-diagonal horizon exceeds max_terms")
    with _mp_lock, mp.workdps(dps):
        g1, a1, g2, b1 = (mp.mpf(v) for v in (p.gamma1, p.alpha1, p.gamma2, p.beta1))
        d1, a2, b2 = (mp.mpf(v) for v in (p.delta1, p.alpha2, p.beta2))
        d2, a3, d3, b3 = (mp.mpf(v) for v in (p.delta2, p.alpha3, p.delta3, p.beta3))
        x_, y_ = mp.mpf(x), mp.mpf(y)
        s_acc = mp.mpf(0)
        pk = mp.mpf(1)
        cutoff = mp.mpf(10) ** (-dps)
        small_blocks = 0
        s = 0
        while s <= s_horizon + 8:
            block_max = mp.mpf(0)
            for m in range(s + 1):
                n = s - m
                if (x == 0.0 and m > 0) or (y == 0.0 and n > 0):
                    continue
                t = (mp.gamma(g1 + a1 * m) / mp.gamma(g1)
                     * mp.gamma(g2 + b1 * n) / mp.gamma(g2)
                     * x_**m * y_**n
                     / mp.gamma(d1 + a2 * m + b2 * n)
                     / mp.gamma(d2 + a3 * m) / mp.gamma(d3 + b3 * n))
                s_acc += t
                block_max = max(block_max, abs(t))
            pk = max(pk, block_max)
            if block_max * (s + 1) < cutoff * pk and s >= 2:
                small_blocks += 1
                if small_blocks >= 3:
                    return float(s_acc)
            else:
                small_blocks = 0
            s += 1
        return float(s_acc)


def e1(params: E1Params, x: float, y: float,
       policy: SummationPolicy = DEFAULT_POLICY) -> float:
    """Two-variable Mittag-Leffler-type double series.

    Summed by anti-diagonals m + n = s with compensated accumulation.  For
    the collapsible parameter family at equal arguments, large-cancellation
    inputs are rewritten exactly as two classical Mittag-Leffler values so
    the asymptotic machinery applies.
    """
    if x == 0.0 and y == 0.0:
        return exp(-lgamma(params.delta1) - lgamma(params.delta2)
                   - lgamma(params.delta3))
    peak, s_horizon = _e1_scan(params, x, y, log(0.05 * policy.abs_tol),
                               policy.max_terms)
    collapsible = _e1_is_collapsible(params, x, y)
    if _float_ok(peak, policy.abs_tol):
        r = _e1_double_float(params, x, y, policy)
        if r is not None:
            val, pk = r
            if pk <= policy.cancellation_guard * max(abs(val), policy.abs_tol):
                return val
    if collapsible:
        return _e1_collapsed(params, x, policy)
    if s_horizon is None:
        raise ConvergenceError(f"e1 double series does not converge (x={x}, y={y})")
    return _e1_double_mp(params, x, y, policy, peak, s_horizon)


def e1_via_integral(params: E1Params, rho1: float, rho2: float,
                    x: float, y: float, abs_tol: float = 1e-10) -> float:
    """Beta-weighted integral representation of :func:`e1`.

    The split exponents must satisfy rho1 + rho2 = delta1.  The plain
    algebraic-weight integral of the two one-variable kernels reproduces the
    double series exactly, with no reciprocal-gamma prefactor in the first
    parameters; the test suite pins this normalization down numerically for
    non-unit gamma1/gamma2 as well.
    """
    if rho1 <= 0 or rho2 <= 0:
        raise ConstraintError("rho1 and rho2 must be positive")
    if abs(rho1 + rho2 - params.delta1) > 1e-12 * max(1.0, abs(params.delta1)):
        raise ConstraintError(
            f"rho1 + rho2 = {rho1 + rho2} must equal delta1 = {params.delta1}")
    p = params
    inner_policy = SummationPolicy(abs_tol=max(1e-13, abs_tol / 30.0))

    def integrand(t: float) -> float:
        left = ml4(p.gamma1, p.alpha1, p.alpha2, rho1, p.alpha3, p.delta2,
                   x * t ** p.alpha2, inner_policy)
        right = ml4(p.gamma2, p.beta1, p.beta2, rho2, p.beta3, p.delta3,
                    y * (1.0 - t) ** p.beta2, inner_policy)
        return left * right

    val, err = quad(integrand, 0.0, 1.0, weight="alg",
                    wvar=(rho1 - 1.0, rho2 - 1.0),
                    epsabs=abs_tol, epsrel=abs_tol, limit=400)
    if not math.isfinite(val) or err > max(50 * abs_tol, 1e-8 * abs(val)):
        raise QuadratureError(
            f"integral representation did not converge (err={err})")
    return val


def unit_family_params(nu: float, delta1: float) -> E1Params:
    """E1 parameter set with all unit blocks except delta1 and the two inner
    orders alpha2 = beta2 = nu; the family every solver evaluation uses."""
    return E1Params(1.0, 1.0, 1.0, 1.0, delta1, nu, nu, 1.0, 1.0, 1.0, 1.0)


def lemma22_residual(alphaML: float, w: float,
                     policy: SummationPolicy = DEFAULT_POLICY) -> float:
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
    lhs1 = e1(unit_family_params(a, a + 1.0), w, w, policy)
    lhs2 = e1(unit_family_params(a, 2.0 * a + 1.0), w, w, policy)
    rhs = _ml_f(a, a + 1.0, w, policy)
    return abs(lhs1 - w * lhs2 - rhs)
