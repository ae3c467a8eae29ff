"""The one place that tells a Python number from a numpy array.

Formulas are written once, with operators that work on both.  Only the
elementary functions, the guards and the small-argument series switch see
the type: a number goes through cmath and a plain `if`, keeping its exact
bits and its cost; an array goes through numpy and `np.where`, and a guard
raises if any element is bad.
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
            if im_limit is not None and abs(z.imag) > im_limit:
                raise _overflow(abs(z.imag), im_limit)
            if series is not None and abs(z) < radius:
                return series(z)
            return fn(z, cmath)

        def on_array(z):
            if pole is not None and (z == 0).any():
                raise DomainError(pole)
            if im_limit is not None and largest(abs(z.imag)) > im_limit:
                raise _overflow(largest(abs(z.imag)), im_limit)
            if series is None:
                return fn(z, _ArrayMath)
            small = abs(z) < radius
            # each form sees only its own points, the others a stand-in
            return np.where(small, series(np.where(small, z, 0)),
                            fn(np.where(small, radius, z), _ArrayMath))

        functools.update_wrapper(call, fn)
        del call.__wrapped__  # callers pass z alone, not (z, m)
        return call
    return decorate


def _overflow(im, im_limit) -> OverflowError:
    return OverflowError(
        f"|Im z| = {im:g} exceeds the overflow guard {im_limit:g}")
