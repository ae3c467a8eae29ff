"""The one place that tells a Python number from a numpy array.

Formulas are written once, with operators that work on both.  Only the
elementary functions, the guards, the residual's reduction and the
small-argument series switch see the type: a number goes through cmath
and a plain `if`, keeping its exact bits and its cost; an array goes
through numpy, a form runs only if some element needs it (`np.where` picks
when both do), and a guard raises if any element is bad.
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


def peak_ratio(defects, norms, amps, sources) -> float:
    """max defects / (max norms * max amps + max sources), the maxima taken
    elementwise over arrays, then the largest element: the amplitude
    residual.  Unlike the guards' reductions it keeps NaN, from any group."""
    if type(defects[0]) is float:
        ratio = max(defects) / (max(norms) * max(amps) + max(sources))
        # max skips a NaN that is not first; every value is >= 0 or NaN,
        # so the sum is NaN exactly when one of them is
        total = sum(defects + norms + amps + sources)
        return ratio if total == total else total
    defect, norm, amp, source = (functools.reduce(np.maximum, g)
                                 for g in (defects, norms, amps, sources))
    return float(np.max(defect / (norm * amp + source)))


def exp(z):
    return _ArrayMath.exp(z) if isinstance(z, np.ndarray) else cmath.exp(z)


def elementwise(series=None, radius=0.0, *, pole=None, im_limit=None):
    """Decorate f(z, m) into a function of a complex number or array z.

    f gets z as complex with m = cmath, or as a complex array with m =
    _ArrayMath.  With a series, series(z) replaces f(z, m) where |z| <
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
                return series(z)
            return fn(z, cmath)

        def on_array(z):
            if pole is not None and (z == 0).any():
                raise DomainError(pole)
            if im_limit is not None:
                guard_im(z, im_limit)
            if series is None:
                return fn(z, _ArrayMath)
            small = abs(z) < radius
            if small.all():
                return np.asarray(series(z))
            if not small.any():
                return np.asarray(fn(z, _ArrayMath))
            # each form sees only its own points, the others a stand-in
            return np.where(small, series(np.where(small, z, 0)),
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
