"""Mittag-Leffler-type special functions on the real line.

Evaluators for the two-parameter Mittag-Leffler function and for the
two-variable Mittag-Leffler-type function of the solution, in its unit
family at equal arguments.

Negative arguments are the hard case: the defining series loses roughly
``|z|**(1/alpha)`` nats to cancellation, so evaluation is routed between
three regimes:

* plain float summation with compensated (Kahan) accumulation, accepted only
  when the predicted peak term cannot pollute the absolute tolerance;
* high-precision re-summation for the intermediate band, with the precision
  sized from the predicted peak: the terms are summed exactly in Python-integer
  fixed point, 1/Gamma(a*k + b) rounded from mpmath's Gamma at that precision;
  at the integer orders a = 1, 2 with integral b and z < 0 the elementary
  closed forms (exp, cos and sin) at that precision take the place of the
  sum; where one call holds enough band elements of one (a, b), a Chebyshev
  interpolant of those band values, certified against them, stands in for
  the rest;
* an envelope-truncated algebraic asymptotic expansion, plus the conjugate
  pair of exponential contributions for orders in (1, 2), once the expansion
  can certify the requested tolerance on its own.

All values are pure functions of the arguments of the call. The high-precision
fallback serializes on a lock because mpmath's working precision is
process-global, and under that lock it reads 1/Gamma(a*k + b) from a table
per (a, b, precision); the table is only a memo of the values a fresh
``mp.gamma`` call returns, rounded to the fixed-point scale and filled
lazily one term at a time.  That table and the memo of band values
(``_ml_band``) are the evaluator's only state.

``ml_array`` is the one evaluator of E_{a,b}, over a whole array of
arguments; ``ml`` is ``ml_array`` at one argument.  It selects the route of
each distinct element by that element's own predicates, runs the
float-series and asymptotic routes for all their elements at once (one
column of terms after another, each element with its own Kahan pair),
computes the z-independent log-Gamma factors of each block of columns
afresh, applies every transcendental as the libm call element by element,
and hands each band element, with the peak it has already estimated, to one
memoised exact sum (``_ml_band``), unless a certified Chebyshev proxy of the
call's band covers it (``_ml_proxy``).  The test suite keeps the same routes
written for one scalar at a time as the reference ``ml_array`` equals bit
for bit at every element the proxy does not cover.

The two-variable function enters the solution only in its unit family at
equal arguments, which collapses exactly to two E_{a,b} values
(``_e1_collapse``): the solver applies the collapse to ``ml_array`` values,
and ``e1``, kept with ``ml``, ``MLArgs`` and ``unit_family_params`` for the
bench's per-call probes, to ``ml`` values.  The unit family is two numbers,
nu and delta1 (``UnitFamily``); the general eleven-parameter double series
and its parameter type are test oracles (``ml4`` and the integral
representation).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import exp, floor, lgamma, log, pi

import mpmath as mp
import numpy as np

from .errors import CancellationError, ConvergenceError

_LN10 = log(10.0)
_LOG2_10 = math.log2(10.0)
_LN_PI = log(pi)
_OVERFLOW_LN = 708.0
_TINY_LN = -745.0
# digits of the high-precision fallback: at least _MIN_DPS, at most _MAX_DPS
_MIN_DPS = 60
_MAX_DPS = 1200
_ASYM_JMAX = 20000
# float summation is trusted only while peak_term * O(eps) stays below tol
_FLOAT_EPS_LN = log(5e-16)
# a float sum is kept only while its largest observed term is within this
# factor of the result; beyond it the sum re-runs in high precision
_CANCELLATION_GUARD = 1e8

# the accuracy envelope of every evaluation: the absolute tolerance and the
# term budget of the series, read at call time
_ABS_TOL = 1e-12
_MAX_TERMS = 10**6

_mp_lock = threading.Lock()


@dataclass(frozen=True)
class MLArgs:
    """Arguments of the two-parameter Mittag-Leffler function."""

    alpha: float
    beta: float
    z: float


@dataclass(frozen=True)
class UnitFamily:
    """The unit family of the two-variable Mittag-Leffler-type function:
    inner orders alpha2 = beta2 = nu, delta1, and every other of its eleven
    parameters 1."""

    nu: float
    delta1: float


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


# ---------------------------------------------------------------------------
# two-parameter Mittag-Leffler machinery


def _ml_k_star(a: float, b: float, absz: float) -> float:
    """Continuous peak location of the series terms, a*k + b == |z|**(1/a),
    clipped at zero; infinite where |z|**(1/a) passes the float range.

    Zero also where that location lies past _MAX_TERMS with b < 0 and
    |z| < 1 (a tiny order puts it at about -b/a): a*k + b then stays below
    |z|**(1/a) < 1 within the budget, where the term envelope falls with k
    while a*k + b < -0.46 and stays below |z|**k above, so the peak is at
    the start."""
    try:
        root = absz ** (1.0 / a)
    except OverflowError:
        return math.inf
    k_star = max(0.0, (root - b) / a)
    if k_star > _MAX_TERMS and absz < 1.0 and b < 0.0:
        return 0.0
    return k_star


def _fallback_dps(peak_nats: float) -> int:
    """Decimal digits that keep peak-sized terms ``0.1 * _ABS_TOL`` accurate,
    with ten guard digits and at least _MIN_DPS."""
    return max(_MIN_DPS,
               int(peak_nats / _LN10 - math.log10(0.1 * _ABS_TOL)) + 10)


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


def _ml_fixed_sum(a: float, b: float, z: float, dps: int) -> float | None:
    """The E_{a,b} series, the sum over k of z**k / Gamma(a*k + b), in exact
    integer fixed point at ``dps`` digits; None when _MAX_TERMS terms do not
    stop it.

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
        for n in range(_MAX_TERMS):
            g = table[n] if n < len(table) else _rgamma_upto(table, a, b, n, bits)
            if g is None:
                at = 0
            else:
                m, e = g
                t = zk * m
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


def _ml_int_order(a: int, b: int, z: float, dps: int) -> float:
    """E_{a,b}(z) for a in {1, 2}, integral b and z < 0, at ``dps`` digits
    from its elementary base values E_{1,1}(z) = e**z, E_{2,1}(-x**2) =
    cos x and E_{2,2}(-x**2) = sin x / x, rounded once.

    The other b follow from E_{a,b}(z) = z*E_{a,a+b}(z) + 1/Gamma(b)
    (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, 2014,
    sec. 4.2): downward, where 1/Gamma(b) = 0 at b <= 0, as z times the
    value above; upward as (E_{a,b}(z) - 1/(b-1)!)/z, which divides the
    absolute error by |z| at each step."""
    with _mp_lock, mp.workdps(dps):
        z_ = mp.mpf(z)
        if a == 1:
            base = [mp.exp(z_)]
        else:
            x = mp.sqrt(-z_)
            cos_x, sin_x = mp.cos_sin(x)
            base = [cos_x, sin_x / x]
        c = (b - 1) % a + 1   # the base value's b, c = b (mod a)
        v = base[c - 1]
        while c > b:
            c -= a
            v *= z_
        while c < b:
            v = (v - mp.mpf(1) / math.factorial(c - 1)) / z_
            c += a
        return float(v)


def _ml_series_mp(a: float, b: float, z: float, peak_nats: float) -> float:
    """E_{a,b}(z) at one band element, at the digits its peak term needs:
    the integer-order closed form where a is 1 or 2, b is integral and
    z < 0, the exact sum otherwise."""
    dps = _fallback_dps(peak_nats)
    if dps > _MAX_DPS:
        raise CancellationError(
            f"ml needs ~{dps} digits (a={a}, b={b}, z={z}); beyond fallback cap")
    if z < 0.0 and a in (1.0, 2.0) and b == floor(b):
        return _ml_int_order(int(a), int(b), z, dps)
    v = _ml_fixed_sum(a, b, z, dps)
    if v is None:
        raise ConvergenceError(
            f"ml series needs more than {_MAX_TERMS} terms (a={a}, b={b}, z={z})")
    return v


@lru_cache(maxsize=250000)
def _ml_band(a: float, b: float, z: float, peak_nats: float) -> float:
    """:func:`_ml_series_mp` at one band element, memoised: the evaluator's
    one memo of values (``_ml_band.cache_clear()`` empties it)."""
    return _ml_series_mp(a, b, z, peak_nats)


def _ml_asym_exp(a: float, b: float, z: float) -> float:
    """Exponential part of the large-|z| expansion at z < 0: the conjugate
    pair of decaying branches for 1 < a < 2, z^(1-b) e^z at a = 1, and
    zero otherwise."""
    total = 0.0
    if 1.0 < a < 2.0:
        zeta = (-z) ** (1.0 / a) * cmath.exp(1j * pi / a)
        total += (2.0 / a) * (zeta ** (1.0 - b) * cmath.exp(zeta)).real
    elif a == 1.0:
        zc = complex(z)
        total += (zc ** (1.0 - b) * cmath.exp(zc)).real
    return total


def _float_ok(peak_nats):
    """Whether float summation is trusted at the predicted peak (in nats);
    elementwise on an array of peaks."""
    return peak_nats + _FLOAT_EPS_LN <= log(0.05 * _ABS_TOL)


def _ml_at_zero(b: float) -> float:
    """E_{a,b}(0) = 1/Gamma(b), zero at the poles."""
    lr, sgn = _log_abs_rgamma(b)
    return 0.0 if sgn == 0.0 else sgn * exp(lr)


# ---------------------------------------------------------------------------
# the evaluator, over an array of arguments


# columns of j or k, and distinct arguments, taken per pass of the array
# routes: they bound the (elements x columns) temporaries to about 256 kB
# each whatever the size of z
_BLOCK = 8
_CHUNK = 4096


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn at every element of x, as a Python float: the libm call a scalar
    evaluation makes (numpy's own exp, log and pow differ from it in the
    last bit on some inputs)."""
    return np.fromiter(map(fn, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


def _log_rgamma_env_array(w: np.ndarray) -> np.ndarray:
    """Upper envelope of log|1/Gamma(w)| (the |sin| factor dropped) at every
    element of w."""
    up = w > 0.5
    lg = _elementwise(lgamma, np.where(up, w, 1.0 - w))
    return np.where(up, -lg, lg - _LN_PI)


def _log_abs_rgamma_columns(ws) -> tuple[np.ndarray, np.ndarray]:
    """(log|1/Gamma|, sign) at every point of ws: :func:`_log_abs_rgamma`
    at the points the scalar routes build."""
    lr, sgn = zip(*map(_log_abs_rgamma, ws))
    return np.array(lr), np.array(sgn)


def _ml_peak_array(a: float, b: float, absz: np.ndarray, ln_absz: np.ndarray):
    """(peak, k*) at every element: the peak is the largest term envelope
    k*ln|z| + log|1/Gamma(a*k + b)| (the |sin| factor dropped) over the
    integer probes k = 0, 1, 2, floor(k*/2), floor(k*), floor(k*) + 1 and
    floor(3k*/2) + 1 up to 4*_MAX_TERMS, and at least zero; the envelope is
    evaluated once per distinct probe."""
    k_star = _elementwise(lambda v: _ml_k_star(a, b, v), absz)
    fl = np.floor(k_star)
    ones = np.ones_like(k_star)
    ks = np.stack([0.0 * ones, ones, 2.0 * ones, np.floor(k_star * 0.5), fl,
                   fl + 1.0, np.floor(k_star * 1.5) + 1.0], axis=1)
    valid = ks <= _MAX_TERMS * 4
    k = ks[valid]
    ku, inv = np.unique(k, return_inverse=True)
    env = _log_rgamma_env_array(a * ku + b)[inv]
    probes = np.full(ks.shape, -math.inf)
    probes[valid] = k * np.broadcast_to(ln_absz[:, None], ks.shape)[valid] + env
    return np.maximum(0.0, probes.max(axis=1)), k_star


def _ml_has_horizon(a: float, b: float, ln_absz: np.ndarray,
                    k_star: np.ndarray) -> np.ndarray:
    """Whether the term envelope drops below 0.05*_ABS_TOL past k* within
    _MAX_TERMS terms, per element: probed at k = max(4, k*), then at
    k -> 1.25*k + 4."""
    ln_target = log(0.05 * _ABS_TOL)
    k = np.maximum(4.0, k_star)
    found = np.zeros(k.shape, dtype=bool)
    live = np.flatnonzero(k <= _MAX_TERMS)
    while live.size:
        kk = k[live]
        e = kk * ln_absz[live] + _log_rgamma_env_array(a * kk + b)
        hit = (e < ln_target) & (kk > k_star[live])
        found[live[hit]] = True
        kk = kk * 1.25 + 4
        k[live] = kk
        live = live[~hit & (kk <= _MAX_TERMS)]
    return found


def _kahan_columns(s: np.ndarray, c: np.ndarray, t: np.ndarray,
                   use: np.ndarray) -> None:
    """Add t[:, i] to the Kahan pairs (s, c) column by column, in place,
    where use[:, i]; elsewhere a pair stays as it is (adding 0.0 would
    move it)."""
    for i in range(t.shape[1]):
        u = use[:, i]
        if not u.any():
            continue
        y = t[:, i] - c
        tt = s + y
        cn = (tt - s) - y
        if u.all():
            s[:], c[:] = tt, cn
        else:
            s[u], c[u] = tt[u], cn[u]


def _ml_asym_array(a: float, b: float, z: np.ndarray, ln_absz: np.ndarray):
    """The large-|z| expansion at every element of z < 0: (values,
    certified).

    An element is certified where the smallest envelope -j*ln|z| +
    log|1/Gamma(b - a*j)| of the scan is at most 0.1*_ABS_TOL.  The scan
    stops at the first j > 2 whose envelope, not rising, is below
    0.02*_ABS_TOL, or at the sixth j > 3 in a row with no new minimum.  The
    value is the exponential part plus the Kahan sum of the terms
    -z**-j / Gamma(b - a*j) up to the index of the minimum.  The scan runs
    a block of j at a time: a running minimum gives each element's emin
    and jsum, and its first stop index ends it."""
    n = z.size
    ln_certify = log(0.02 * _ABS_TOL)
    emin, prev = np.zeros(n), np.zeros(n)
    jsum, grow = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    live = np.arange(n)
    j0 = 1
    while live.size and j0 <= _ASYM_JMAX:
        j1 = min(j0 + _BLOCK, _ASYM_JMAX + 1)
        js = np.arange(j0, j1)
        e = -js * ln_absz[live, None] + _log_rgamma_env_array(b - a * js)
        running = np.minimum.accumulate(
            np.concatenate([emin[live, None], e], axis=1), axis=1)
        new = e < running[:, :-1]
        col = np.arange(j1 - j0)
        last = np.maximum.accumulate(np.where(new, col, -1), axis=1)
        g = np.where(last >= 0, col - last, grow[live, None] + col + 1)
        before = np.concatenate([prev[live, None], e[:, :-1]], axis=1)
        stop = ((~new & (g >= 6) & (js > 3))
                | ((e < ln_certify) & (e <= before) & (js > 2)))
        ended = stop.any(axis=1)
        at = np.where(ended, stop.argmax(axis=1), j1 - j0 - 1)
        rows = np.arange(live.size)
        emin[live] = running[rows, at + 1]
        last_at = last[rows, at]
        jsum[live] = np.where(last_at >= 0, j0 + last_at, jsum[live])
        grow[live] = g[rows, at]
        prev[live] = e[rows, at]
        live = live[~ended]
        j0 = j1
    certified = ~(emin > log(0.1 * _ABS_TOL))
    out = np.zeros(n)
    order = np.flatnonzero(certified)
    if not order.size:
        return out, certified
    # Kahan sums over j = 1..jsum, longest first, so the sums still running
    # at any j are a prefix
    order = order[np.argsort(-jsum[order], kind="stable")]
    stops = jsum[order]
    lnv = ln_absz[order]
    s, c = np.zeros(order.size), np.zeros(order.size)
    j0 = 1
    while j0 <= stops[0]:
        j1 = min(j0 + _BLOCK, int(stops[0]) + 1)
        m = int(np.count_nonzero(stops >= j0))
        js = np.arange(j0, j1)
        lr, sgn = _log_abs_rgamma_columns(b - a * j for j in range(j0, j1))
        lt = -js * lnv[:m, None] + lr
        use = (js <= stops[:m, None]) & (sgn != 0.0) & ~(lt < _TINY_LN)
        t = np.zeros(lt.shape)
        t[use] = (np.broadcast_to(sgn, lt.shape)[use]
                  * _elementwise(exp, lt[use]))
        # -(z**-j) = (-1)^(j+1) |z|^-j for z < 0
        t[:, js % 2 == 0] *= -1.0
        _kahan_columns(s[:m], c[:m], t, use)
        j0 = j1
    if 1.0 < a < 2.0 or a == 1.0:
        total = _elementwise(lambda v: _ml_asym_exp(a, b, v), z[order])
    else:
        total = np.zeros(order.size)
    out[order] = total + s
    return out, certified


def _ml_series_float_array(a: float, b: float, z: np.ndarray,
                           ln_absz: np.ndarray):
    """Kahan summation of the series at every element: (values, peak
    |term|, status), status 0 where the sum stopped (three terms in a row
    tiny, from k = 4 on), 1 where a term overflowed, 2 where _MAX_TERMS
    terms did not stop it.  A term t_k is tiny where it is zero, or where
    it is below 0.1*_ABS_TOL and so is the geometric tail it bounds at its
    ratio r = |t_k / t_(k-1)| < 1, |t_k| r / (1 - r): written
    t_k**2 < 0.1*_ABS_TOL * (|t_(k-1)| - |t_k|), so that a slow tail, small
    terms at a ratio near one, keeps summing.

    Each block of k computes its terms for all running elements at once;
    the Kahan pairs then take the block's columns in order, up to each
    element's stop."""
    n = z.size
    s, c, peak, last = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    run = np.zeros(n, dtype=np.intp)
    status = np.full(n, 2)
    neg = z < 0
    target = 0.1 * _ABS_TOL
    live = np.arange(n)
    k0 = 0
    while live.size and k0 < _MAX_TERMS:
        k1 = min(k0 + _BLOCK, _MAX_TERMS)
        width = k1 - k0
        ks = np.arange(k0, k1)
        lr, sgn = _log_abs_rgamma_columns(a * k + b for k in range(k0, k1))
        lt = ks * ln_absz[live, None] + lr
        over = lt > _OVERFLOW_LN
        nonzero = ~over & (sgn != 0.0) & ~(lt < _TINY_LN)
        t = np.zeros(lt.shape)
        t[nonzero] = (np.broadcast_to(sgn, lt.shape)[nonzero]
                      * _elementwise(exp, lt[nonzero]))
        flip = neg[live, None] & (ks % 2 == 1)
        t[flip] = -t[flip]
        at = np.abs(t)
        before = np.concatenate([last[live, None], at[:, :-1]], axis=1)
        tiny = (ks >= 4) & ((at == 0.0) | ((at < target)
                                          & (at * at < target * (before - at))))
        last[live] = at[:, -1]
        # three tiny terms in a row, the first two possibly carried over
        # from the previous block
        tr = np.concatenate([(run[live] >= 2)[:, None],
                             (run[live] >= 1)[:, None], tiny], axis=1)
        done = tr[:, 2:] & tr[:, 1:-1] & tr[:, :-2]
        first_over = np.where(over.any(axis=1), over.argmax(axis=1), width)
        first_done = np.where(done.any(axis=1), done.argmax(axis=1), width)
        stopped = first_done < first_over
        overflowed = ~stopped & (first_over < width)
        upto = np.where(stopped, first_done, width - 1)
        use = np.arange(width) <= upto[:, None]
        sl, cl = s[live], c[live]
        _kahan_columns(sl, cl, t, use)
        s[live], c[live] = sl, cl
        peak[live] = np.maximum(peak[live],
                                np.where(use, np.abs(t), 0.0).max(axis=1))
        run[live] = np.where(tr[:, -1], np.where(tr[:, -2], 2, 1), 0)
        status[live[stopped]] = 0
        status[live[overflowed]] = 1
        live = live[~stopped & ~overflowed]
        k0 = k1
    return s, peak, status


def ml_array(a: float, b: float, z) -> np.ndarray:
    """E_{a,b} at every element of z; an array of z's shape.

    Each distinct z takes the route its own predicates choose, whatever
    else z holds: 1/Gamma(b) at zero; for z < 0 and a < 1.97, the
    asymptotic expansion where float summation cannot be trusted, or the
    series has no horizon within _MAX_TERMS terms, and the expansion
    certifies _ABS_TOL; the float series where its predicted peak
    term cannot pollute _ABS_TOL and its largest term stays within
    _CANCELLATION_GUARD of the sum; the band, the exact sum at a precision
    sized from the peak, otherwise.  The asymptotic and float-series routes
    run for all their elements at once, one column of j or k after
    another, with each element's own Kahan pair; every transcendental is
    the libm call, element by element.  At a = 1 or 2 with integral b, a
    band element with z < 0 takes the closed form from e**z, or from cos x
    and sin x / x at x = sqrt(-z), at the same precision instead of the
    sum (:func:`_ml_int_order`).  Where the call holds enough band
    elements of negative z, a certified Chebyshev interpolant of their band
    values covers them (:func:`_ml_proxy`), within _PROXY_TOL times
    max(1, max|node value|) of the band value; the other band elements go
    one by one, in the order of z, through the memo :func:`_ml_band`.  The
    first offending element, in the order of z, raises its error: a
    ConvergenceError where the series does not stop within _MAX_TERMS
    terms (the closed form takes none), a CancellationError where the band
    needs more than _MAX_DPS digits.  The distinct z come from a stable
    argsort, whose sorted copy is freed before any route runs."""
    if not a > 0:
        raise ValueError("alpha must be positive")
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("z must be finite")
    perm = np.argsort(flat, kind="stable")
    zs = flat[perm]
    head = np.ones(zs.size, dtype=bool)
    np.not_equal(zs[1:], zs[:-1], out=head[1:])
    del zs
    head = np.flatnonzero(head)
    first = perm[head]
    vals = _ml_distinct(float(a), float(b), flat[first], first)
    out = np.empty(flat.size)
    out[perm] = np.repeat(vals, np.diff(head, append=flat.size))
    return out.reshape(z.shape)


def ml(args: MLArgs) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z): ``ml_array``
    at one argument."""
    return float(ml_array(args.alpha, args.beta, [args.z])[0])


def _ml_distinct(a: float, b: float, z: np.ndarray,
                 first: np.ndarray) -> np.ndarray:
    """ml_array on distinct z; first[i] is z[i]'s position in the caller's
    array, which orders the errors.  The array routes take _CHUNK elements
    at a time; unless they found an error, the proxy then covers what band
    elements it can certify, and the exact band sums run over the rest in
    the order of z."""
    out = np.empty_like(z)
    errors: dict = {}
    band, peaks = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for lo in range(0, z.size, _CHUNK):
        idx, peak = _ml_array_routes(a, b, z[lo:lo + _CHUNK], first[lo:lo + _CHUNK],
                                     out[lo:lo + _CHUNK], errors)
        band.append(lo + idx)
        peaks.append(peak)
    band, peaks = np.concatenate(band), np.concatenate(peaks)
    if not errors:
        vals, bounds = _ml_proxy(a, b, z[band], peaks)
        covered = ~np.isnan(bounds)
        out[band[covered]] = vals[covered]
        band, peaks = band[~covered], peaks[~covered]
    for j in np.argsort(first[band]):
        i = band[j]
        if errors and min(errors) < first[i]:
            break
        try:
            out[i] = _ml_band(a, b, float(z[i]), float(peaks[j]))
        except (CancellationError, ConvergenceError) as exc:
            errors[int(first[i])] = exc
            break
    if errors:
        raise errors[min(errors)]
    return out


def _ml_array_routes(a: float, b: float, z: np.ndarray, first: np.ndarray,
                     out: np.ndarray, errors: dict) -> tuple[np.ndarray, np.ndarray]:
    """The zero, asymptotic and float-series routes for the distinct z:
    their values go to out, the errors found before any band sum to
    errors (by first); returns the indices of the band elements and their
    peaks."""
    zero = z == 0.0
    out[zero] = _ml_at_zero(b)
    nz = np.flatnonzero(~zero)
    zz = z[nz]
    ln_absz = _elementwise(log, np.abs(zz))
    peak, k_star = _ml_peak_array(a, b, np.abs(zz), ln_absz)
    float_ok = _float_ok(peak)
    series = np.ones(zz.size, dtype=bool)

    def asym(tried: np.ndarray) -> None:
        if a < 1.97:
            val, ok = _ml_asym_array(a, b, zz[tried], ln_absz[tried])
            out[nz[tried[ok]]] = val[ok]
            series[tried[ok]] = False

    def fail(i, what: str) -> None:
        errors[int(first[nz[i]])] = ConvergenceError(
            f"ml series {what} (a={a}, b={b}, z={float(zz[i])})")

    asym(np.flatnonzero((zz < 0) & ~float_ok))
    sr = np.flatnonzero(series)
    bounded = _ml_has_horizon(a, b, ln_absz[sr], k_star[sr])
    # the peak misses terms past 4*_MAX_TERMS, so a negative element with
    # no horizon tries the expansion before it fails
    asym(sr[~bounded & (zz[sr] < 0)])
    keep = series[sr]
    sr, bounded = sr[keep], bounded[keep]
    for i in sr[~bounded]:
        fail(i, f"does not converge within {_MAX_TERMS} terms")
    sr = sr[bounded]
    fl = sr[float_ok[sr]]
    val, peak_obs, status = _ml_series_float_array(a, b, zz[fl], ln_absz[fl])
    kept = (status == 0) & (peak_obs <= _CANCELLATION_GUARD
                            * np.maximum(np.abs(val), _ABS_TOL))
    out[nz[fl[kept]]] = val[kept]
    for i in fl[status == 2]:
        fail(i, f"needs more than {_MAX_TERMS} terms")
    band = np.concatenate([sr[~float_ok[sr]], fl[(status != 2) & ~kept]])
    return nz[band], peak[band]


# ---------------------------------------------------------------------------
# certified Chebyshev proxies of the band

# first-kind Chebyshev nodes per interval; an interval costs the exact sums
# at its nodes and at the midpoints between them
_PROXY_NODES = 48
_PROXY_COST = 2 * _PROXY_NODES - 1
# an interval is certified where the interpolant is within this factor of
# max(1, max|node value|), and within half of _ABS_TOL, of the
# exact sum at every midpoint
_PROXY_TOL = 1e-15
# exponential type times half-width of x that one interval resolves
_PROXY_REACH = 16.0


def _ml_exact_at(a: float, b: float, s: np.ndarray) -> np.ndarray:
    """The band's values at z = -s, through its memo: exact sums, or the
    closed form at the integer orders."""
    peak, _ = _ml_peak_array(a, b, s, _elementwise(log, s))
    return np.array([_ml_band(a, b, -v, p)
                     for v, p in zip(s.tolist(), peak.tolist())])


def _x_gaps(a: float, s: np.ndarray, sn: np.ndarray) -> np.ndarray:
    """x(s) - x(sn), x = s**(1/a), for every s (rows) against every sn
    (columns), each to a few ulp of itself in long double: rounding x itself
    would cost |x f'(x)| ulp in the interpolant."""
    s, sn, inv = (np.asarray(v, dtype=np.longdouble) for v in (s, sn, a))
    inv = 1 / inv
    return sn**inv * np.expm1(np.log1p((s[:, None] - sn) / sn) * inv)


def _barycentric(a: float, sn: np.ndarray, fn: np.ndarray, w: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """The polynomial in x through the node values fn at x(sn), with its
    barycentric weights w, at x(s), summed in long double so that rounding
    adds about an ulp to the node values' own.  It takes as many points at
    a time as keep its (points x nodes) long-double temporaries at the size
    of the array routes'."""
    out = np.empty(s.size)
    fn_ld = fn.astype(np.longdouble)
    step = _CHUNK * _BLOCK // (2 * len(sn))
    for lo in range(0, s.size, step):
        d = _x_gaps(a, s[lo:lo + step], sn)
        hit = d == 0.0
        d[hit] = 1.0
        q = w / d
        v = (q @ fn_ld) / q.sum(axis=1)
        rows, cols = np.nonzero(hit)
        v[rows] = fn_ld[cols]
        out[lo:lo + step] = v
    return out


def _ml_piece(a: float, b: float, x0: float, half: float):
    """The interpolant over x in [x0, x0 + 2*half] from the exact sums at
    _PROXY_NODES first-kind Chebyshev nodes: (node |z|, node values,
    barycentric weights, bound) where it is within bound, min(_PROXY_TOL *
    max(1, max|node value|), 0.5 * _ABS_TOL), of the exact sum at every
    midpoint between the nodes, None where it is not."""
    xn = x0 + half * (1.0 + np.cos((2.0 * np.arange(_PROXY_NODES) + 1.0)
                                   * (pi / (2 * _PROXY_NODES))))
    sn = xn**a
    fn = _ml_exact_at(a, b, sn)
    sm = (0.5 * (xn[:-1] + xn[1:]))**a
    fm = _ml_exact_at(a, b, sm)
    gaps = _x_gaps(a, sn, sn) / half
    np.fill_diagonal(gaps, 1.0)
    w = 1.0 / gaps.prod(axis=1)
    bound = min(_PROXY_TOL * max(1.0, float(np.abs(fn).max())),
                0.5 * _ABS_TOL)
    if np.abs(_barycentric(a, sn, fn, w, sm) - fm).max() <= bound:
        return sn, fn, w, bound
    return None


def _ml_proxy(a: float, b: float, z: np.ndarray,
              peaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified interpolants of the band elements z (distinct) with their
    peaks: (values, bounds), each value valid where its bound, the
    certified tolerance of the piece that covers it, is not NaN.

    The candidates are the elements with z < 0 whose own exact sum stays
    within _MAX_DPS digits, taken in x = |z|**(1/a), where E_{a,b}(-x**a) is
    of exponential type 1 for a >= 1 (the pair exp(x e^(+-i pi/a)):
    frequency sin(pi/a), decay rate -cos(pi/a)) and of none for a < 1.  Their
    interval is split into the ceil(type * half-width / _PROXY_REACH) equal
    pieces that type needs, and the proxy goes on only where the pieces'
    _PROXY_COST exact sums come to at most a third of the candidates.  Each
    piece of at least 3 * _PROXY_COST elements is tried once: it
    interpolates over its elements' x range (:func:`_ml_piece`) and, where
    that certifies, covers the elements between its outer nodes; where it
    does not, they stay with the exact loop.  The gaps x - x_node and the
    barycentric sums are taken in long double, so the interpolant adds
    about an ulp of rounding to its node values.  Elements no piece covers
    are left to the exact loop, and so are all of them when any node or
    midpoint sum raises."""
    values = np.empty(z.size)
    bounds = np.full(z.size, math.nan)
    cand = np.flatnonzero(z < 0.0)
    if cand.size < 3 * _PROXY_COST:
        return values, bounds
    cand = cand[[_fallback_dps(p) <= _MAX_DPS
                 for p in peaks[cand].tolist()]]
    if cand.size < 3 * _PROXY_COST:
        return values, bounds
    s = -z[cand]
    order = np.argsort(s, kind="stable")
    cand, s = cand[order], s[order]
    x = s ** (1.0 / a)
    exp_type = 1.0 if a >= 1.0 else 0.0
    half = 0.5 * (x[-1] - x[0])
    pieces = max(1, math.ceil(exp_type * half / _PROXY_REACH))
    if 3 * _PROXY_COST * pieces > cand.size:
        return values, bounds
    cuts = np.searchsorted(x, x[0] + 2.0 * half * np.arange(1, pieces) / pieces)
    edges = [0, *cuts.tolist(), cand.size]
    try:
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (x[hi - 1] - x[lo])
            if not half > 0.0 or 3 * _PROXY_COST > hi - lo:
                continue
            fit = _ml_piece(a, b, x[lo], half)
            if fit is not None:
                sn, fn, w, bound = fit
                i0 = lo + np.searchsorted(s[lo:hi], sn[-1], "left")
                i1 = lo + np.searchsorted(s[lo:hi], sn[0], "right")
                values[cand[i0:i1]] = _barycentric(a, sn, fn, w, s[i0:i1])
                bounds[cand[i0:i1]] = bound
    except (CancellationError, ConvergenceError):
        bounds[:] = math.nan
    return values, bounds


# ---------------------------------------------------------------------------
# two-variable function


def _e1_collapse(nu: float, d1: float, e_lo, e_hi):
    """E1(d1; w, w) of the unit two-variable family, sum_n (n+1) w^n /
    Gamma(d1 + nu n), from e_lo = E_{nu,d1-1}(w) and e_hi = E_{nu,d1}(w):
    its exact collapse E_{nu,d1-1}(w) / nu + (1 - (d1-1)/nu) E_{nu,d1}(w)."""
    return e_lo / nu + (1.0 - (d1 - 1.0) / nu) * e_hi


def e1(params: UnitFamily, x: float, y: float) -> float:
    """The two-variable Mittag-Leffler-type function of the solution, in its
    unit family at equal arguments: E1(delta1; w, w) = sum_n (n+1) w^n /
    Gamma(delta1 + nu n), the :func:`_e1_collapse` of E_{nu,delta1-1}(w) and
    E_{nu,delta1}(w) from the evaluator.  At w = 0 that is 1/Gamma(delta1),
    up to rounding and with its sign, and zero at the poles.

    x != y raises ValueError: the general double series is left to the
    test oracles (its integral representation over ``ml4``)."""
    if x != y:
        raise ValueError(f"e1 evaluates only the unit family at equal "
                         f"arguments; got x={x}, y={y}")
    nu, d1 = params.nu, params.delta1
    return _e1_collapse(nu, d1, ml(MLArgs(nu, d1 - 1.0, x)),
                        ml(MLArgs(nu, d1, x)))


def unit_family_params(nu: float, delta1: float) -> UnitFamily:
    """The unit-family parameters (nu, delta1) every solver evaluation
    uses."""
    return UnitFamily(nu, delta1)
