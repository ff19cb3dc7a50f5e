"""Mittag-Leffler-type special functions on the real line.

Evaluators for the two-parameter Mittag-Leffler function and for the
two-variable Mittag-Leffler-type function of the solution, in its unit
family at equal arguments.

Negative arguments are the hard case: the defining series loses roughly
``|z|**(1/alpha)`` nats to cancellation, so evaluation is routed between
two regimes:

* plain float summation with compensated (Kahan) accumulation, accepted only
  when the predicted peak term cannot pollute the absolute tolerance, the
  terms fall below it within the term budget and the sum stops there;
* the band, every other argument, in floats: the Bromwich integral of
  e**s s**(a-b) / (s**a - z) by the trapezoidal rule on a parabola
  s = m(1 + iu)**2 (Weideman & Trefethen, Math. Comp. 76, 2007; Garrappa,
  SIAM J. Numer. Anal. 53, 2015), plus the residues of the poles right of
  it; at the integer orders a = 1, 2 with integral b and z < 0, the
  elementary closed forms (exp, cos and sin) in long double instead.  Each
  band value carries an error bound from the same sums, and one that
  misses the tolerance raises a CancellationError.  The band needs numpy's
  long double wider than a double (x87 extended or quad): where it is a
  double (MSVC, macOS on arm64) values near the envelope's edge raise.

All values are pure functions of the arguments of the call, and the
evaluator keeps no state.

``ml_array`` is the one evaluator of E_{a,b}, over a whole array of
arguments; ``ml`` is ``ml_array`` at one argument.  It selects the route of
each distinct element by that element's own predicates, runs the float
series for all its elements at once (one column of terms after another,
each element with its own Kahan pair), computes the z-independent
log-Gamma factors of each block of columns afresh, applies each
transcendental of that route as the libm call element by element, and
evaluates the band elements of each chunk of arguments together, each
contour's nodes computed once.  The test suite keeps the same routes
written for one scalar at a time as the reference ``ml_array`` equals bit
for bit at every element.

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

import math
from dataclasses import dataclass
from itertools import repeat
from math import exp, floor, lgamma, log, pi

import numpy as np

from .errors import CancellationError, ConvergenceError

_LN_PI = log(pi)
_OVERFLOW_LN = 708.0
_TINY_LN = -745.0
# float summation is trusted only while peak_term * O(eps) stays below tol
_FLOAT_EPS_LN = log(5e-16)
# a float sum is kept only while its largest observed term is within this
# factor of the result; beyond it the band takes the element
_CANCELLATION_GUARD = 1e8

# the accuracy envelope of every evaluation: the absolute tolerance and the
# term budget of the series, read at call time
_ABS_TOL = 1e-12
_MAX_TERMS = 10**6

_EPS = float(np.finfo(float).eps)
_EPS_LD = float(np.finfo(np.longdouble).eps)
_PI_LD = 4 * np.arctan(np.longdouble(1))


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


def _ml_residues(a: float, b: float, z: np.ndarray, m: np.ndarray):
    """(sum, sum of moduli) of the residues (1/a) zeta**(1-b) e**zeta, real
    parts in the sum, at the poles zeta = |z|**(1/a) e**(+-i c pi/a) of
    s -> 1/(s**a - z) on the principal sheet (c = 0, 2, ... for z > 0 and
    1, 3, ... for z < 0, up to a; a pair where 0 < c < a) right of the
    parabola s = m(1 + iu)**2, |zeta| cos(c pi/2a)**2 >= m, at every
    element of z and m (m = 0 takes them all).  In long double, pi
    included: the phase (1-b) c pi/a + |zeta| sin(c pi/a) runs to |zeta|
    radians, where a float phase would be off by about |zeta| ulp."""
    ld = np.longdouble
    total, modulus = np.zeros(z.size, ld), np.zeros(z.size, ld)
    for first, side in ((0, z > 0.0), (1, z < 0.0)):
        if not side.any():
            continue
        r = np.abs(z[side]).astype(ld) ** (1 / ld(a))
        for c in range(first, floor(a) + 1, 2):
            theta = c * _PI_LD / ld(a)
            weight = (2.0 if 0 < c < a else 1.0) / ld(a)
            mod = weight * r ** (1 - ld(b)) * np.exp(r * np.cos(theta))
            term = mod * np.cos((1 - ld(b)) * theta + r * np.sin(theta))
            keep = r * np.cos(theta / 2) ** 2 >= m[side]
            total[side] += np.where(keep, term, 0)
            modulus[side] += np.where(keep, mod, 0)
    return total.astype(float), modulus.astype(float)


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


# columns of k, and distinct arguments, taken per pass of the array
# routes: they bound the (elements x columns) temporaries to about 256 kB
# each whatever the size of z
_BLOCK = 8
_CHUNK = 4096


def _pow_inf(v: float, e: float) -> float:
    """v**e by the libm pow, infinite past the float range."""
    try:
        return v ** e
    except OverflowError:
        return math.inf


def _elementwise(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(v, *args) at every element v of x, as Python floats, _CHUNK
    elements at a time: the libm call a scalar evaluation makes (numpy's
    own exp, log and pow differ from it in the last bit on some inputs)."""
    flat = x.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo:lo + _CHUNK].tolist()
        out[lo:lo + len(part)] = np.fromiter(
            map(fn, part, *map(repeat, args)), float, len(part))
    return out.reshape(x.shape)


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
    evaluated once per distinct probe.

    k* is the continuous peak location, a*k + b = |z|**(1/a), clipped at
    zero; infinite where |z|**(1/a) passes the float range.  It is zero
    also where it lies past _MAX_TERMS with b < 0 and |z| < 1 (a tiny order
    puts it at about -b/a): a*k + b then stays below |z|**(1/a) < 1 within
    the budget, where the term envelope falls with k while a*k + b < -0.46
    and stays below |z|**k above, so the peak is at the start."""
    # |z|**(1/a) by the libm pow, which can overflow only past e**709
    near = ln_absz > 709.0 * a
    root = np.empty(absz.shape)
    root[~near] = _elementwise(pow, absz[~near], 1.0 / a)
    root[near] = _elementwise(_pow_inf, absz[near], 1.0 / a)
    with np.errstate(over="ignore"):
        k_star = np.maximum(0.0, (root - b) / a)
        k_star[(k_star > _MAX_TERMS) & (absz < 1.0) & (b < 0.0)] = 0.0
        fl = np.floor(k_star)
        ones = np.ones_like(k_star)
        ks = np.stack([0.0 * ones, ones, 2.0 * ones, np.floor(k_star * 0.5),
                       fl, fl + 1.0, np.floor(k_star * 1.5) + 1.0], axis=1)
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
    else z holds: 1/Gamma(b) at zero; the float series where its predicted
    peak term cannot pollute _ABS_TOL, its terms fall below it within
    _MAX_TERMS terms (a horizon), and the sum stops with its largest term
    within _CANCELLATION_GUARD of it; the band, which holds on the whole
    axis, otherwise (:func:`_ml_band`).  The float series runs for all its
    elements at once, one column of k after another, with each element's
    own Kahan pair; each of its transcendentals is the libm call, element
    by element.  The first offending element, in the order of z, raises
    its error: a ConvergenceError where the float series does not stop
    within _MAX_TERMS terms, a CancellationError where a band value's
    error bound misses the tolerance.  The distinct z come from a stable
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
    """ml_array on distinct z, _CHUNK elements at a time; first[i] is
    z[i]'s position in the caller's array, which orders the errors."""
    out = np.empty_like(z)
    errors: dict = {}
    for lo in range(0, z.size, _CHUNK):
        _ml_array_routes(a, b, z[lo:lo + _CHUNK], first[lo:lo + _CHUNK],
                         out[lo:lo + _CHUNK], errors)
    if errors:
        cancelled, message = errors[min(errors)]
        if cancelled:
            raise CancellationError(message)
        raise ConvergenceError(message)
    return out


def _ml_array_routes(a: float, b: float, z: np.ndarray, first: np.ndarray,
                     out: np.ndarray, errors: dict) -> None:
    """Every route for the distinct z: the values go to out, and each
    error to errors (by first) as (whether the band raised it, message)."""
    zero = z == 0.0
    out[zero] = _ml_at_zero(b)
    nz = np.flatnonzero(~zero)
    zz = z[nz]
    ln_absz = _elementwise(log, np.abs(zz))
    peak, k_star = _ml_peak_array(a, b, np.abs(zz), ln_absz)
    fl = np.flatnonzero(_float_ok(peak))
    fl = fl[_ml_has_horizon(a, b, ln_absz[fl], k_star[fl])]

    def fail(i, cancelled: bool, what: str) -> None:
        errors[int(first[nz[i]])] = (
            cancelled, f"ml {what} (a={a}, b={b}, z={float(zz[i])})")

    val, peak_obs, status = _ml_series_float_array(a, b, zz[fl], ln_absz[fl])
    kept = (status == 0) & (peak_obs <= _CANCELLATION_GUARD
                            * np.maximum(np.abs(val), _ABS_TOL))
    out[nz[fl[kept]]] = val[kept]
    for i in fl[status == 2]:
        fail(i, False, f"series needs more than {_MAX_TERMS} terms")
    band = np.ones(zz.size, dtype=bool)
    band[fl[kept | (status == 2)]] = False
    band = np.flatnonzero(band)
    if band.size:
        val, certified = _ml_band(a, b, zz[band])
        out[nz[band]] = val
        for i in band[~certified]:
            fail(i, True, f"band misses {_ABS_TOL:g}")


# ---------------------------------------------------------------------------
# the band: a contour integral in floats, closed forms at the integer orders

# trapezoid step in u on the contour s = m(1 + iu)**2, which ends where
# e**Re(s) = e**(m(1 - u*u)) has fallen to e**-_TAIL_LN
_H = 0.04
_TAIL_LN = 80.0


def _ml_band(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, certified) at the band elements z: the closed form
    (:func:`_ml_int_order`) where a is 1 or 2, b is integral and z < 0, the
    contour (:func:`_ml_contour`) elsewhere.  A value is certified where
    its error bound, with the final rounding, is within _ABS_TOL + 4 ulp
    of it."""
    val, bound = np.empty(z.size), np.empty(z.size)
    closed = (z < 0.0) & (a in (1.0, 2.0)) & (b == floor(b))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if closed.any():
            val[closed], bound[closed] = _ml_int_order(int(a), int(b),
                                                       z[closed])
        val[~closed], bound[~closed] = _ml_contour(a, b, z[~closed])
        err = bound + 0.5 * _EPS * np.abs(val)
        return val, err <= _ABS_TOL + 4.0 * _EPS * np.abs(val)


def _ml_int_order(a: int, b: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds) of E_{a,b}(z) for a in {1, 2}, integral b and z < 0,
    in long double from the elementary base values E_{1,1}(z) = e**z,
    E_{2,1}(-x**2) = cos x and E_{2,2}(-x**2) = sin x / x.

    The other b follow from E_{a,b}(z) = z*E_{a,a+b}(z) + 1/Gamma(b)
    (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, 2014,
    sec. 4.2): downward, where 1/Gamma(b) = 0 at b <= 0, as z times the
    value above; upward as (E_{a,b}(z) - 1/(b-1)!)/z, which divides the
    absolute error by |z| at each step.  The bound starts at 4 long-double
    ulp of the base value's argument, x or |z|, times e**z at a = 1, and
    takes the same steps with each subtraction's rounding."""
    ld = np.longdouble
    zl = z.astype(ld)
    if a == 1:
        base = [np.exp(zl)]
        err = (4 * _EPS_LD * (1 - zl) * base[0]).astype(float)
    else:
        x = np.sqrt(-zl)
        base = [np.cos(x), np.sin(x) / x]
        err = 4.0 * _EPS_LD * (1.0 + x.astype(float))
    c = (b - 1) % a + 1   # the base value's b, c = b (mod a)
    v = base[c - 1]
    while c > b:
        c -= a
        v = v * zl
        err = err * -z
    while c < b:
        v = v - 1 / ld(math.factorial(c - 1))
        err = (err + _EPS_LD * np.abs(v.astype(float))) / -z
        v = v / zl
        c += a
    return v.astype(float), err


def _ml_contour(a: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds) of E_{a,b}(z) = (1/2 pi i) int e**s s**(a-b) /
    (s**a - z) ds on the parabola s = m(1 + iu)**2, plus the residues of
    the poles right of it (:func:`_ml_residues`).

    For real z and b the integrand at -u is minus the conjugate of that at
    u, so the trapezoidal rule at u = k*_H is (_H/pi) Im of its sum over
    k >= 0, the k = 0 node halved.  The integrand is analytic in the strip
    |Im u| < 1, up to the branch cut of s**a, but for the poles
    s = |z|**(1/a) e**(+-i theta) off the cut, theta < pi (0, 2 pi/a, ...
    for z > 0 and pi/a, 3 pi/a, ... for z < 0), which lie at
    Im u = 1 - sqrt(|z|**(1/a)/m) cos(theta/2).  m is the grid value
    2**(j/4) nearest 1 that keeps them all 0.3 clear, each to the left or
    to the right; the step 0.04 then leaves an error near
    e**(-2 pi 0.3/_H) = e**-47, about 4e-21, far below the rounding.

    Each contour's node factors are made once, and an element then costs a
    subtraction, a division and a few products per node, as many elements
    at a time as keep the (elements x nodes) temporaries at _CHUNK *
    _BLOCK floats.  The bound is the rounding of each node's term, eps
    |A|(|P| + |z|)/|P - z|**2 per unit of error with A and P the node's
    numerator and s**a, summed with weight 24 (a few ulp each of A and P,
    the products, the quotient and the pairwise sum), plus the residues'
    own: their rounding to float and, on their moduli, 8 long-double ulps
    per unit of |zeta|, the error of the exponent and the phase, whose
    relative error grows like log |zeta|."""
    absz = np.abs(z)
    root = absz ** (1.0 / a)
    # rho: |zeta| cos(theta/2)**2 of each pole off the cut, > m right of it
    rho = np.zeros((z.size, floor(a) // 2 + 1))
    for first, side in ((0, z > 0.0), (1, z < 0.0)):
        for i, c in enumerate(range(first, floor(a) + 1, 2)):
            cos_half = math.cos(c * pi / (2.0 * a)) if c < a else 0.0
            rho[side, i] = root[side] * (cos_half * cos_half)
    with np.errstate(divide="ignore"):
        j4 = 4.0 * np.log2(rho)
    # each pole rules out the j in (lo, hi): from j = 0, step up (left) or
    # down (right) past every range that holds j
    lo, hi = j4 - 4.0 * math.log2(1.69), j4 - 4.0 * math.log2(0.49)
    left, right = np.zeros(z.size), np.zeros(z.size)
    for _ in range(rho.shape[1]):
        inside = (lo < left[:, None]) & (left[:, None] < hi)
        left = np.where(inside, np.ceil(hi), left[:, None]).max(axis=1)
        inside = (lo < right[:, None]) & (right[:, None] < hi)
        right = np.where(inside, np.floor(lo), right[:, None]).min(axis=1)
    m = 2.0 ** (np.where(left <= -right, left, right) / 4.0)
    sums, rounding = np.empty(z.size), np.empty(z.size)
    for mj in np.unique(m):
        ar, ai, pr, pim, abs_a, abs_p = _ml_nodes(a, b, float(mj))
        q, pim2, ap = ar * pim, pim * pim, abs_a * abs_p
        at = np.flatnonzero(m == mj)
        step = max(1, _CHUNK * _BLOCK // pr.size)
        for lo in range(0, at.size, step):
            i = at[lo:lo + step]
            d = pr - z[i, None]
            inv = 1.0 / (d * d + pim2)
            sums[i] = ((ai * d - q) * inv).sum(axis=1)
            rounding[i] = inv @ ap + absz[i] * (inv @ abs_a)
    poles = (rho > m[:, None]).any(axis=1)
    res, modulus = np.zeros(z.size), np.zeros(z.size)
    res[poles], modulus[poles] = _ml_residues(a, b, z[poles], m[poles])
    val = (_H / pi) * sums + res
    bound = (24.0 * _EPS * (_H / pi) * rounding + 0.5 * _EPS * np.abs(res)
             + 8.0 * _EPS_LD * (1.0 + root) * modulus)
    return val, bound


def _ml_nodes(a: float, b: float, m: float) -> list[np.ndarray]:
    """The contour's nodes u = k*_H, k = 0, 1, ..., up to
    e**(m(1 - u*u)) = e**-_TAIL_LN, as float arrays: Re A, Im A, Re P,
    Im P, |A| and |P| for A = e**s s**(a-b) ds/du, halved at u = 0, and
    P = s**a.  From |s| = m(1 + u*u), arg s = 2 atan u and
    ds/du = 2m(i - u): the moduli in long double, and the phases, tens of
    radians at the far nodes, reduced to [-pi, pi] in long double before
    their float cosines and sines."""
    ld = np.longdouble
    u = np.arange(int(math.sqrt(1.0 + _TAIL_LN / m) / _H) + 1) * ld(_H)
    t = np.arctan(u)
    ln_mod = np.log(ld(m) * (1 + u * u))
    c = ld(a) - ld(b)
    abs_a = (2 * ld(m) * np.sqrt(1 + u * u)
             * np.exp(ld(m) * (1 - u * u) + c * ln_mod)).astype(float)
    abs_a[0] /= 2
    abs_p = np.exp(ld(a) * ln_mod).astype(float)
    arg_a, arg_p = (
        (v - 2 * _PI_LD * np.rint(v / (2 * _PI_LD))).astype(float)
        for v in (2 * ld(m) * u + (2 * c + 1) * t + _PI_LD / 2, 2 * ld(a) * t))
    return [abs_a * np.cos(arg_a), abs_a * np.sin(arg_a),
            abs_p * np.cos(arg_p), abs_p * np.sin(arg_p), abs_a, abs_p]


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
