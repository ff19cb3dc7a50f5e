"""Mittag-Leffler-type special functions on the real line: the
two-parameter Mittag-Leffler function and the two-variable one of the
solution, in its unit family at equal arguments.

E_{a,b}(z) takes one route, the band: 1/Gamma(b) at zero and, at every
other argument, the Bromwich integral of e**s s**(a-b) / (s**a - z) by the
trapezoidal rule on a parabola s = m(1 + iu)**2 in floats (Weideman &
Trefethen, Math. Comp. 76, 2007; Garrappa, SIAM J. Numer. Anal. 53, 2015),
plus the residues of the poles right of it; at the integer orders a = 1, 2
with integral b and z <= -1, the elementary closed forms (exp, cos and sin)
in long double instead.  The defining series is not summed: at negative z
it loses about ``|z|**(1/a)`` nats to cancellation, and the contour's cost
and accuracy do not depend on |z|.  Each value carries an error bound from
the same sums, the trapezoid's own error included, and one that misses the
tolerance raises a CancellationError: so do large b (from about a + 26,
less at some z) and 1/Gamma(b) past the float range.  Non-finite a, b or z raise
ValueError.  The band needs numpy's long double wider than a double (x87
extended or quad): where it is a double (MSVC, macOS on arm64) values near
the envelope's edge raise.  The evaluator keeps no state.

``ml_array`` is the one evaluator of E_{a,b}, over a whole array of
arguments in one pass, at one b or at a sequence of b that share the
contour's denominators; ``ml`` is ``ml_array`` at one argument.  Each
(b, z) element's value and bound depend on that element alone, so both
equal its own one-element call bit for bit.

The two-variable function enters the solution only in its unit family at
equal arguments, which collapses exactly to two E_{a,b} values
(``_e1_collapse``): the solver applies the collapse to ``ml_array`` values,
and ``e1``, kept with ``ml``, ``MLArgs`` and ``unit_family_params`` for the
bench's per-call probes, to the two values of one ``ml_array`` call.  The
unit family is two numbers, nu and delta1 (``UnitFamily``); the general
eleven-parameter double series and its parameter type are test oracles
(``ml4`` and the integral representation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, floor, lgamma, log, pi

import numpy as np

from .errors import CancellationError

_LN_PI = log(pi)

# the accuracy envelope of every evaluation: the absolute tolerance
_ABS_TOL = 1e-12

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


# ---------------------------------------------------------------------------
# the evaluator, over an array of arguments


def ml_array(a: float, b, z) -> np.ndarray:
    """E_{a,b}(z) at every element of z: an array of z's shape or, for a
    sequence b, one such row per b, of shape (len(b),) + z.shape.

    The distinct z, from one stable ``np.unique``, are evaluated by one
    band pass (:func:`_ml_band`) at every b; the caller bounds their
    number.  The first element, in the order of z, whose bound misses the
    tolerance at some b raises a CancellationError that names it and the
    first such b."""
    a, bs = float(a), [float(v) for v in np.ravel(b)]
    if not (0.0 < a < math.inf and bs and all(map(math.isfinite, bs))):
        raise ValueError("alpha must be positive and finite, and beta finite "
                         f"(a={a}, b={b})")
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("z must be finite")
    zs, first, at = np.unique(flat, return_index=True, return_inverse=True)
    vals, certified = _ml_band(a, bs, zs)
    if not certified.all():
        k = np.argmin(np.where(certified.all(axis=0), flat.size, first))
        raise CancellationError(
            f"ml band misses {_ABS_TOL:g} (a={a}, "
            f"b={bs[np.argmin(certified[:, k])]}, z={float(zs[k])})")
    return vals[:, at].reshape(np.shape(b) + z.shape)


def ml(args: MLArgs) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z): ``ml_array``
    at one argument."""
    return float(ml_array(args.alpha, args.beta, [args.z])[0])


# ---------------------------------------------------------------------------
# the band: a contour integral in floats, closed forms at the integer orders

# trapezoid step in u on the contour s = m(1 + iu)**2, which ends where
# e**Re(s) = e**(m(1 - u*u)) has fallen to e**-_TAIL_LN
_H = 0.04
_TAIL_LN = 80.0

# the floats of each (elements x nodes) temporary of the contour: about
# 256 kB each whatever the number of elements
_TEMP = 2**15


def _ml_band(a: float, bs, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, certified) at the distinct z, one row per b of bs:
    :func:`_ml_at_zero` at zero, the closed form (:func:`_ml_int_order`)
    where a is 1 or 2, b is integral and z <= -1 (nearer zero its upward
    steps, each dividing by |z|, would multiply the error), the contour
    (:func:`_ml_contour`) elsewhere, at every b in one call.  At 0 < |z| < 1
    the contour is taken at a + b and lifted by the recurrence
    E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z): its absolute error, about eps
    whatever the value, is then multiplied by |z|, so a value that vanishes
    with z (b = 0, -1, ...) keeps its relative accuracy.  A value is
    certified where its bound, with the final rounding, is within
    _ABS_TOL + 4 ulp of it, which a NaN never is."""
    val, bound = np.empty((2, len(bs), z.size))
    zero, low = z == 0.0, z <= -1.0
    closed = [a in (1.0, 2.0) and b == floor(b) for b in bs]
    near = (np.abs(z) < 1.0) & ~zero
    # where some b takes the closed form, the contour's value is overwritten
    far = ~near & ~zero & ~(low & all(closed))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val[:, far], bound[:, far] = _ml_contour(a, bs, z[far])
        lifted, lifted_bound = _ml_contour(a, [a + b for b in bs], z[near])
        for j, b in enumerate(bs):
            head = _ml_at_zero(b)
            val[j, zero], bound[j, zero] = head, 0.0
            if closed[j]:
                val[j, low], bound[j, low] = _ml_int_order(int(a), int(b),
                                                           z[low])
            tail = z[near] * lifted[j]
            val[j, near] = head + tail
            bound[j, near] = (np.abs(z[near]) * lifted_bound[j]
                              + _EPS * (abs(head) + np.abs(tail)))
        err = bound + 0.5 * _EPS * np.abs(val)
        return val, err <= _ABS_TOL + 4.0 * _EPS * np.abs(val)


def _ml_at_zero(b: float) -> float:
    """E_{a,b}(0) = 1/Gamma(b): zero at the poles, by reflection below b =
    1/2 (sin(pi b) reduced exactly), NaN past the float range (b below about
    -171.5), which the band refuses."""
    if b > 0.5:
        return exp(-lgamma(b))
    if b == floor(b):
        return 0.0
    m = floor(b + 0.5)
    s = math.sin(pi * (b - m)) * (-1.0 if int(m) & 1 else 1.0)
    try:
        return math.copysign(exp(lgamma(1.0 - b) + log(abs(s)) - _LN_PI), s)
    except OverflowError:
        return math.nan


def _ml_int_order(a: int, b: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds) of E_{a,b}(z) for a in {1, 2}, integral b and z < 0,
    in long double from the elementary base values E_{1,1}(z) = e**z,
    E_{2,1}(-x**2) = cos x and E_{2,2}(-x**2) = sin x / x.

    The other b follow from E_{a,b}(z) = z*E_{a,a+b}(z) + 1/Gamma(b)
    (Gorenflo, Kilbas, Mainardi & Rogosin, Mittag-Leffler Functions, 2014,
    sec. 4.2): downward, where 1/Gamma(b) = 0 at b <= 0, as z times the
    value above; upward as (E_{a,b}(z) - 1/(b-1)!)/z, which divides the
    absolute error by |z| at each step (so the band takes them only at
    z <= -1).  The bound starts at 4 long-double ulp of the base value's
    argument, x or |z|, times e**z at a = 1, and takes the same steps with
    each subtraction's rounding."""
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


def _ml_contour(a: float, bs, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, bounds) of E_{a,b}(z) = (1/2 pi i) int e**s s**(a-b) /
    (s**a - z) ds on the parabola s = m(1 + iu)**2, plus the residues of
    the poles right of it (:func:`_ml_residues`), one row per b of bs.

    For real z and b the integrand at -u is minus the conjugate of that at
    u, so the trapezoidal rule at u = k*_H is (_H/pi) Im of its sum over
    k >= 0, the k = 0 node halved.  The integrand is analytic in the strip
    |Im u| < 1, up to the branch cut of s**a, but for the poles
    s = |z|**(1/a) e**(+-i theta) off the cut, theta < pi (0, 2 pi/a, ...
    for z > 0 and pi/a, 3 pi/a, ... for z < 0), at Im u = 1 -
    sqrt(|z|**(1/a)/m) cos(theta/2).  m is the grid value 2**(j/4) nearest
    1, the smaller of two as near, that keeps them all 0.3 clear, each to
    the left or to the right.  The step 0.04 then leaves an error of
    e**(-2 pi 0.3/_H) = 4e-21 times the integrand's size on the edge
    Im u = 0.3, where |s| >= 0.49 m, about e**(0.49 m) (0.49 m)**(a-b),
    and of e**(-2 pi d/_H) times the residue of each pole left of the
    edge at Im u = d < 0.5.

    Each contour's node factors are made once per call, b and m.  An
    element then costs a subtraction and a division per node, 1/|P - z|**2,
    shared by every b (only the numerator A depends on b), and a few
    products per node and b, as many elements at a time as keep the
    (elements x nodes) temporaries at _TEMP floats.  Every sum runs over
    one element's nodes (a row sum or einsum, never BLAS, whose blocking
    depends on the array), so no element's value or bound reads another's.
    The bound is the rounding of each node's term, eps |A|(|P| + |z|)/|P -
    z|**2 per unit of error with A and P the node's numerator and s**a,
    summed with weight 24 (a few ulp each of A and P, the products, the
    quotient and the pairwise sum); the residues' rounding to float and, on
    their moduli, 8 long-double ulps per unit of |zeta|, the error of the
    exponent and the phase, whose relative error grows like log |zeta|; and
    twice the trapezoid's error (the largest measured is 0.87 of it)."""
    if not z.size:
        return np.empty((2, len(bs), 0))
    absz = np.abs(z)
    root = absz ** (1.0 / a)
    # the c of each pole, column i: 2i at z > 0, 2i + 1 at z < 0; rho:
    # |zeta| cos(theta/2)**2 off the cut (c < a, else 0), > m right of it
    pole_c = 2 * np.arange(floor(a) // 2 + 1) + (z < 0.0)[:, None]
    cos_half = np.array([math.cos(c * pi / (2.0 * a)) if c < a else 0.0
                         for c in range(floor(a) + 2)])
    rho = root[:, None] * (cos_half * cos_half)[pole_c]
    with np.errstate(divide="ignore"):
        j4 = 4.0 * np.log2(rho)
    # each pole rules out the j in (lo, hi): from j = 0, step up (left) or
    # down (right) past every range that holds j, until a pass moves neither
    lo, hi = j4 - 4.0 * math.log2(1.69), j4 - 4.0 * math.log2(0.49)
    left, right = np.zeros(z.size), np.zeros(z.size)
    for _ in range(rho.shape[1]):
        last = left, right
        inside = (lo < left[:, None]) & (left[:, None] < hi)
        left = np.where(inside, np.ceil(hi), left[:, None]).max(axis=1)
        inside = (lo < right[:, None]) & (right[:, None] < hi)
        right = np.where(inside, np.floor(lo), right[:, None]).min(axis=1)
        if np.array_equal(last[0], left) and np.array_equal(last[1], right):
            break
    m = 2.0 ** (np.where(left < -right, left, right) / 4.0)
    del j4, lo, hi, left, right, inside   # freed before the sums start
    # the trapezoid sums and their rounding, until the values and bounds
    val, bound = np.empty((2, len(bs), z.size))
    for mj in np.unique(m):
        nodes = [_ml_nodes(a, b, float(mj)) for b in bs]
        pr, pim, abs_p = nodes[0][2], nodes[0][3], nodes[0][5]
        at = np.flatnonzero(m == mj)
        step = max(1, _TEMP // pr.size)
        for lo in range(0, at.size, step):
            i = at[lo:lo + step]
            d = pr - z[i, None]
            inv = 1.0 / (d * d + pim * pim)
            for (ar, ai, _, _, abs_a, _), v, r in zip(nodes, val, bound):
                v[i] = ((ai * d - ar * pim) * inv).sum(axis=1)
                r[i] = (np.einsum("ij,j->i", inv, abs_a * abs_p)
                        + absz[i] * np.einsum("ij,j->i", inv, abs_a))
    taken = rho > m[:, None]
    poles = taken.any(axis=1)
    # a pole left of the contour, at Im u = d >= 0.3 by the choice of m,
    # adds about e**(-2 pi d/_H) times its residue's modulus, at most
    # (2/a) |zeta|**(1-b) e**(Re zeta), Re zeta = 2 rho - |zeta|
    im_u = 1.0 - np.sqrt(rho / m[:, None])
    for j, b in enumerate(bs):
        res, modulus = np.zeros((2, z.size))
        res[poles], modulus[poles] = _ml_residues(
            a, b, z[poles], pole_c[poles], taken[poles])
        beside = (2.0 / a) * np.where((im_u > 0.0) & (im_u < 0.5), np.exp(
            2.0 * rho - root[:, None] - 2.0 * pi * im_u / _H)
            * root[:, None] ** (1.0 - b), 0.0).sum(axis=1)
        val[j] = (_H / pi) * val[j] + res
        bound[j] = (24.0 * _EPS * (_H / pi) * bound[j]
                    + 0.5 * _EPS * np.abs(res)
                    + 8.0 * _EPS_LD * (1.0 + root) * modulus
                    + 2.0 * (math.exp(-2.0 * pi * 0.3 / _H) * np.exp(0.49 * m)
                             * (0.49 * m) ** (a - b) + beside))
    return val, bound


def _ml_residues(a: float, b: float, z: np.ndarray, poles, right):
    """(sum, sum of moduli) of the residues (1/a) zeta**(1-b) e**zeta, real
    parts in the sum, at the poles zeta = |z|**(1/a) e**(+-i c pi/a) of
    s -> 1/(s**a - z) on the principal sheet (c = 0, 2, ... for z > 0 and
    1, 3, ... for z < 0, up to a; a pair where 0 < c < a) right of the
    contour: column i of ``poles`` holds the c of each element's i-th pole,
    taken where ``right`` is set.  In long double, pi included: the phase
    (1-b) c pi/a + |zeta| sin(c pi/a) runs to |zeta| radians, where a float
    phase would be off by about |zeta| ulp."""
    ld = np.longdouble
    total, modulus = np.zeros(z.size, ld), np.zeros(z.size, ld)
    r = np.abs(z).astype(ld) ** (1 / ld(a))
    for c, take in zip(poles.T, right.T):
        theta = c * _PI_LD / ld(a)
        weight = np.where((0 < c) & (c < a), 2.0, 1.0) / ld(a)
        mod = weight * r ** (1 - ld(b)) * np.exp(r * np.cos(theta))
        term = mod * np.cos((1 - ld(b)) * theta + r * np.sin(theta))
        total += np.where(take, term, 0)
        modulus += np.where(take, mod, 0)
    return total.astype(float), modulus.astype(float)


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
    E_{nu,delta1}(w) from one ``ml_array`` call.  At w = 0 that is
    1/Gamma(delta1), up to rounding and with its sign, and zero at the poles.

    x != y raises ValueError: the general double series is left to the
    test oracles (its integral representation over ``ml4``)."""
    if x != y:
        raise ValueError(f"e1 evaluates only the unit family at equal "
                         f"arguments; got x={x}, y={y}")
    nu, d1 = params.nu, params.delta1
    return float(_e1_collapse(nu, d1, *ml_array(nu, [d1 - 1.0, d1], [x])[:, 0]))


def unit_family_params(nu: float, delta1: float) -> UnitFamily:
    """The unit-family parameters (nu, delta1) every solver evaluation
    uses."""
    return UnitFamily(nu, delta1)
