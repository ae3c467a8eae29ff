"""The one place that tells a Python number from a numpy array.

Formulas are written once, with operators that work on both.  The type is
decided once per call, where the call enters: an elementary function and
a guard test their argument, and a rate report and a layer stack test all
their inputs at once (`route`), then run, as does the amplitude engine on
their route, on the forms of `Numbers` or of `Mixed` alone.  A number goes
through cmath and plain comparisons, keeping its exact bits and its cost;
an array goes through numpy, a series runs only if some element needs it
(`np.where` picks per element), and a guard raises if any element is bad.
"""

import cmath
import functools

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


def positive(x) -> bool:
    """True when x, or every element of x, is > 0; NaN is not."""
    return x > 0 if type(x) is float else bool(np.greater(x, 0).all())


def nonnegative(x) -> bool:
    """True when x, or every element of x, is >= 0; NaN is not."""
    return x >= 0 if type(x) is float else bool(np.greater_equal(x, 0).all())


def _peak(group) -> float:
    """The largest of a group of numbers, or its first NaN."""
    peak = group[0]
    for value in group:
        if not value <= peak:  # larger, or NaN
            peak = value
            if value != value:
                break
    return peak


def peak_ratio(defects, norms, amps, sources) -> float:
    """max defects / (max norms * max amps + max sources), the maxima taken
    elementwise over arrays, then the largest element: the amplitude
    residual.  Unlike the guards' reductions it keeps NaN, from any group.
    The last defect, of the innermost interface, tells numbers from arrays:
    the recursion carries an array in any layer inward to it."""
    if type(defects[-1]) is float:
        return _peak(defects) / (_peak(norms) * _peak(amps) + _peak(sources))
    defect, norm, amp, source = (functools.reduce(np.maximum, g)
                                 for g in (defects, norms, amps, sources))
    return float(np.max(defect / (norm * amp + source)))


def exp(z):
    return _ArrayMath.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)


class Numbers:
    """The forms of a call whose values are all float or complex numbers."""
    exp = cmath.exp
    positive = (0.0).__lt__  # 0 < x
    smallest = float  # a float is its own smallest element


class Mixed:
    """The forms of a call whose values may include numpy arrays."""
    exp, positive, smallest = exp, positive, smallest


def route(reals, values):
    """Numbers if every one of reals is a float and every one of values a
    float or complex number, else Mixed: the type decision of one call."""
    for x in reals:
        if type(x) is not float:
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
