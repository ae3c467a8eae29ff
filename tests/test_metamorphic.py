"""The scaling relation of the layered engine (ROADMAP item 26).

A length enters the problem only through k0 r.  Multiplying every radius
by 2**s and dividing k0 by 2**s is exact in binary floating point, and it
leaves each k0 r product, and so each rounding, as it was.  So the
amplitudes, their residual and every rate built from them keep their
bits.  Seeded passive stacks of N = 2..11 layers check this for s = -3..3
on the number route and on the array route (SAMPLES per solve), through
coefficients, external_power, gamma_hat_total (on the stack with a vacuum
core) and rate_report (for the sphere of the stack's innermost and
outermost media, its radius, r_c and r_m scaled too).
"""

import dataclasses
import functools

import numpy as np
import pytest

from cavrate import multilayer as ml
from cavrate import rates

STACKS = {"numbers": 100, "arrays": 20}  # per route
SAMPLES = {"numbers": None, "arrays": 4}  # per solve


@functools.cache
def draws(route):
    """(radii, eps, k0, r_c, r_m) of each seeded stack on route, its layer
    count cycling through 2..11: numbers, or arrays of SAMPLES entries."""
    rng, samples = np.random.default_rng(26), SAMPLES[route]
    out = []
    for i in range(STACKS[route]):
        n = 2 + i % 10
        shape = () if samples is None else (samples,)
        radii = np.cumsum(rng.uniform(0.05, 2.0, (n - 1, *shape)), axis=0)
        eps = rng.uniform(0.5, 9.0, (n, *shape)) \
            + 1j * rng.uniform(0.0, 3.0, (n, *shape))
        lengths = rng.uniform(0.2, 3.0, (3, *shape))  # k0, r_c, r_m
        if samples is None:
            radii, eps, lengths = (x.tolist() for x in (radii, eps, lengths))
        out.append((tuple(radii), tuple(eps), *lengths))
    return out


def bits(value):
    """What a scaled call must share with the unscaled one: the repr of
    each number (which round-trips it), the bytes of each array, field by
    field."""
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def results(radii, eps, k0, r_c, r_m):
    stack = ml.LayerStack(radii, eps)
    cavity = ml.LayerStack(radii, (1.0, *eps[1:]))
    return bits((ml.coefficients(stack, k0), rates.external_power(stack, k0),
                 rates.gamma_hat_total(cavity, k0),
                 rates.rate_report(eps[0], eps[-1], radii[-1], r_c, r_m,
                                   k0)))


@functools.cache
def unscaled(route):
    return [results(*draw) for draw in draws(route)]


@pytest.mark.parametrize("s", [-3, -2, -1, 1, 2, 3])
@pytest.mark.parametrize("route", ["numbers", "arrays"])
def test_scaling_lengths_and_wavenumber_keeps_every_bit(route, s):
    scale = 2.0 ** s
    for (radii, eps, k0, r_c, r_m), expected in zip(draws(route),
                                                    unscaled(route)):
        scaled = tuple(r * scale for r in radii)
        assert results(scaled, eps, k0 / scale, r_c * scale,
                       r_m * scale) == expected, (radii, eps, k0)


def test_the_draws_take_each_route():
    """Numbers are Python floats and complexes, arrays hold the samples."""
    for route, real, layer in (("numbers", float, complex),
                               ("arrays", np.ndarray, np.ndarray)):
        radii, eps, k0, r_c, r_m = draws(route)[-1]
        assert len(eps) == 11
        assert {type(x) for x in (*radii, k0, r_c, r_m)} == {real}
        assert {type(x) for x in eps} == {layer}
