"""The accuracy contract of w_ext_hat, judged by the 50-digit twin
(ROADMAP item 16).

DRAWS configurations span the validated space of the CLI (the ranges of
tests/test_cli.py's valid_configs): a Lorentz medium's eps at k0, k0
log-uniform on [0.05, 13], R log-uniform on [0.5, 2000], a host
eps_ext = U(1, 4) + i U(0, 2), and r_c = r_m = the fraction times 2 pi/k0.
The draws are fixed by a seed and never filtered by outcome.  Each goes
through rate_report on the number route, and again in blocks of BLOCK on
the array route.  Nothing may raise, every value must be finite, and a
value whose true size is above 1e-290 must lie within 1000 u (1 + |z|) of
it, relative: u = 2**-53 and z is the larger of sqrt(eps) k0 R and
sqrt(eps_ext) k0 R.  A flush of such a value to 0 is an error of 1.
"""

import functools
import math

import numpy as np
import pytest

import mpref
from cavrate import rates
from cavrate.dielectric import LorentzMedium, eval_lorentz

DRAWS, BLOCK = 300, 50
U = 2.0 ** -53
FLOOR = 1e-290


def log_uniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


@functools.cache
def draws():
    """(eps, eps_ext, R, r_c, k0) per draw, then the twin's w_ext and the
    bound of each."""
    rng = np.random.default_rng(16)
    args, refs, bounds = [], [], []
    for _ in range(DRAWS):
        medium = LorentzMedium(rng.uniform(1.0, 20.0), 1.0,
                               rng.uniform(0.0, 3.0), rng.uniform(1e-4, 2.0))
        k0 = log_uniform(rng, 0.05, 13.0)
        radius = log_uniform(rng, 0.5, 2000.0)
        eps_ext = complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 2.0))
        r_c = rng.uniform(1e-3, 0.159) * 2 * math.pi / k0
        eps = complex(eval_lorentz(medium, k0).eps)
        args.append((eps, eps_ext, radius, r_c, k0))
        refs.append(mp_w_ext(eps, eps_ext, radius, k0))
        z = max(abs(e) ** 0.5 for e in (eps, eps_ext)) * k0 * radius
        bounds.append(1000 * U * (1 + z))
    return args, refs, bounds


def mp_w_ext(eps, eps_ext, radius, k0):
    """_power_beyond's form at R for the twin's outer amplitude."""
    _, c_outer = mpref.two_layer(eps, eps_ext, radius, k0)
    eps, eps_ext = mpref.to_mpc(eps), mpref.to_mpc(eps_ext)
    k = mpref.sqrt_eps(eps_ext) * k0
    moment = eps / eps_ext * c_outer * mpref.mp.exp(mpref.I * k * radius)
    x = mpref.mp.mpf(k0) * radius
    return abs(moment) ** 2 * (
        eps_ext.imag / abs(eps_ext) ** 2 * abs(1 - mpref.I * k * radius) ** 2
        / x ** 3 + k.real / k0)


def errors(values, start=0):
    """The relative error of each value, from draw start on, against the
    twin where the true size is above FLOOR (0 below it), in units of its
    bound."""
    _, refs, bounds = draws()
    assert all(map(math.isfinite, values))
    return [float(abs(v - ref) / ref) / bound if ref > FLOOR else 0.0
            for v, ref, bound in zip(values, refs[start:], bounds[start:])]


def test_number_route_matches_the_twin():
    values = [rates.rate_report(eps, eps_ext, radius, r_c, r_c, k0).w_ext_hat
              for eps, eps_ext, radius, r_c, k0 in draws()[0]]
    assert all(type(v) is float for v in values)
    assert max(errors(values)) <= 1


@pytest.mark.parametrize("block", range(DRAWS // BLOCK))
def test_array_route_matches_the_twin(block):
    start = block * BLOCK
    rows = draws()[0][start:start + BLOCK]
    eps, eps_ext, radius, r_c, k0 = map(np.array, zip(*rows))
    values = rates.rate_report(eps, eps_ext, radius, r_c, r_c, k0).w_ext_hat
    assert max(errors(values.tolist(), start)) <= 1
