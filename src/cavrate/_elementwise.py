"""The one place that tells a Python number from a numpy array.

Formulas are written once, with operators that work on both.  The type is
decided once per call, where the call enters: an elementary function and
a guard test their argument, and a rate report and a layer stack test all
their inputs at once (`route`), then run, as does the amplitude engine on
their route, on the forms of `Numbers` or of `Mixed` alone.  A number goes
through cmath and plain comparisons, keeping its exact bits and its cost;
an array goes through numpy, a series runs only if some element needs it
(`np.where` picks per element), and a guard raises if any element is bad.
The input rule is here too: `positive` for a length or a frequency,
`finite` for a permittivity, and `require`, which names a bad input.
"""

import cmath
import functools
import math
import operator

import numpy as np

from .errors import DomainError


def _range_error(kind, flag):
    raise OverflowError("math range error")  # what cmath raises


class _ArrayMath:
    """cmath's elementary functions for arrays."""
    exp, sin, cos, sqrt = map(
        np.errstate(over="call", invalid="call", call=_range_error),
        (np.exp, np.sin, np.cos, np.sqrt))


# the reductions of the guards skip NaN, so that it cannot hide a bad value
def smallest(x) -> float:
    return x if type(x) is float else float(np.fmin.reduce(x, None))


def largest(x) -> float:
    return x if type(x) is float else float(np.fmax.reduce(x, None))


_INF = math.inf
X_MIN, X_MAX = 2.0 ** -340, 2.0 ** 340  # k0 r with normal cube and 1/cube
K0 = "k0 must be positive"  # the messages that several modules share
RADII = "the radii must be positive and increasing"
FINITE_EPS = "eps = {} must be finite"


def positive(x, above=operator.lt) -> bool:
    """The rule for a length or a frequency: x, or each of its elements, is
    real, finite and > 0 (>= 0 with above=operator.le)."""
    if type(x) is float or type(x) is int:
        return above(0, x) and x < _INF
    x = np.asarray(x)  # min and max keep NaN
    return x.dtype.kind in "iuf" and (not x.size or bool(
        above(0, x.min()) and x.max() < _INF))


def nonnegative(x) -> bool:
    return positive(x, operator.le)


def finite(x) -> bool:
    """The rule for a permittivity: x, or each of its elements, is finite."""
    return bool(np.isfinite(x).all()) if type(x) is np.ndarray \
        else cmath.isfinite(x)


def require(x, message: str, test=positive, *context):
    """x, once test(x) holds; else DomainError(message), formatted only then
    with the first element of x that fails (x for a number) and context."""
    if not test(x):
        bad = next((v for v in np.ravel(x) if not test(v)), x)
        raise DomainError(message.format(bad, *context))
    return x


def _peak(group) -> float:
    """The largest of a group of numbers, or its first NaN."""
    peak = group[0]
    for value in group:
        if not value <= peak:  # larger, or NaN
            peak = value
            if value != value:
                break
    return peak


def peak_ratio(defects, sources, norms=(), amps=()) -> float:
    """max defects / (max norms * max amps + max sources), the maxima taken
    elementwise over arrays, then the largest element: the amplitude
    residual.  Without norms and amps, the bound B = max defects / max
    sources, which the residual never exceeds: its denominator adds a
    non-negative term, and rounded division is monotone.  Unlike the
    guards' reductions it keeps NaN, from any group.  The last defect, of
    the innermost interface, tells numbers from arrays: the recursion
    carries an array in any layer inward to it."""
    peak = _peak if type(defects[-1]) is float else functools.partial(
        functools.reduce, np.maximum)
    scale = peak(sources)
    if norms:
        scale = peak(norms) * peak(amps) + scale
    ratio = peak(defects) / scale
    return ratio if type(ratio) is float else float(np.max(ratio))


def exp(z):
    return _ArrayMath.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)


class Numbers:
    """The forms of a call whose values are all float or complex numbers."""
    exp = cmath.exp
    positive = (0.0).__lt__  # 0 < x; largest(x) < inf bounds it above
    smallest = largest = float  # a float is its own smallest element


class Mixed:
    """The forms of a call whose values may include numpy arrays."""
    exp, positive, smallest, largest = exp, positive, smallest, largest


def scaled(x, name: str):
    """x = k0 r, once it or each of its elements lies in [X_MIN, X_MAX]."""
    for bad in (smallest(x), largest(x)):
        if not X_MIN <= bad <= X_MAX:
            raise DomainError(f"k0*{name} = {bad:g} must lie in [2**-340, "
                              "2**340], where its cube is a normal float")
    return x


def widths(radii, m=Mixed):
    """The layer widths r_1, r_2 - r_1, ... of radii on route m, once each
    is > 0 and the outermost radius, their sum, finite."""
    gaps = (radii[0], *map(operator.sub, radii[1:], radii))
    if not (all(map(m.positive, gaps)) and m.largest(radii[-1]) < _INF):
        raise DomainError(RADII)
    return gaps


def route(reals, values, messages):
    """Numbers if every one of reals is a float in (0, inf) and every one
    of values a float or complex number, else Mixed, once each of reals
    passes require with the message in its place (numbers need no call)."""
    for x in reals:
        if type(x) is not float or not 0 < x < _INF:
            for x, message in zip(reals, messages):
                require(x, message)
            return Mixed
    for z in values:
        if type(z) is not complex and type(z) is not float:
            return Mixed
    return Numbers


def elementwise(series=None, radius=0.0, *, pole=None, im_limit=None):
    """Decorate f(z, m) into a function of a complex number or array z.

    f gets z as complex with m = cmath, or as a complex array with m =
    _ArrayMath.  With a series, series(z, m) replaces f(z, m) where |z| <
    radius; with a pole, z == 0 raises DomainError(pole); with an
    im_limit, |Im z| above it raises OverflowError.
    """
    def decorate(fn):
        def call(z):
            if type(z) is not complex:
                if isinstance(z, np.ndarray):
                    return on_array(z.astype(complex, copy=False))
                z = complex(z)
            if pole is not None and z == 0:
                raise DomainError(pole)
            if im_limit is not None:
                guard_im(z, im_limit)
            if series is not None and abs(z) < radius:
                return series(z, cmath)
            return fn(z, cmath)

        def on_array(z):
            if pole is not None and (z == 0).any():
                raise DomainError(pole)
            if im_limit is not None:
                guard_im(z, im_limit)
            if series is None:
                return fn(z, _ArrayMath)
            small = abs(z) < radius
            if not small.any():
                return np.asarray(fn(z, _ArrayMath))
            # each form sees only its own points, the others a stand-in
            return np.where(small, series(np.where(small, z, 0), _ArrayMath),
                            fn(np.where(small, radius, z), _ArrayMath))

        functools.update_wrapper(call, fn)
        del call.__wrapped__  # callers pass z alone, not (z, m)
        return call
    return decorate


def guard_im(z, limit) -> None:
    """Raise OverflowError if |Im z|, or that of an element, exceeds limit."""
    if (im := largest(abs(z.imag))) > limit:
        raise OverflowError(
            f"|Im z| = {im:g} exceeds the overflow guard {limit:g}")
