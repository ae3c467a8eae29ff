"""Spherical Bessel/Hankel functions of orders 0 and 1 for complex argument.

Only the closed forms needed by the electric-dipole problem are provided,
together with d/dz [z f(z)] (the combination entering the tangential-field
boundary conditions).  The j1 ratios j1(z)/z and [z j1(z)]'/z are continued
analytically through z = 0.  All functions are pure and thread-safe.
"""

import cmath

from .errors import DomainError

# e^{|Im z|} overflows double precision near |Im z| ~ 709.
IM_GUARD = 700.0

# series crossover: below this the sin/cos closed forms of j1 lose digits
# to cancellation, the Taylor series is exact to machine precision
_SERIES_RADIUS = 0.5

_J1_OVER_Z = (1 / 3, -1 / 30, 1 / 840, -1 / 45360, 1 / 3991680,
              -1 / 518918400, 1 / 93405312000)
_RICCATI_J1_OVER_Z = (2 / 3, -2 / 15, 1 / 140, -1 / 5670, 1 / 399168,
                      -1 / 43243200, 1 / 6671808000)


def _check_hankel_arg(z: complex) -> complex:
    z = complex(z)
    if z == 0:
        raise DomainError("Hankel functions have a pole at z = 0")
    if abs(z.imag) > IM_GUARD:
        raise OverflowError(
            f"|Im z| = {abs(z.imag):g} exceeds the overflow guard {IM_GUARD:g}")
    return z


def _even_series(coeffs, z: complex) -> complex:
    z2 = z * z
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z2 + c
    return acc


def sph_j0(z: complex) -> complex:
    """j0(z) = sin(z)/z, with j0(0) = 1."""
    z = complex(z)
    if abs(z) < 1e-4:
        z2 = z * z
        return 1 - z2 / 6 * (1 - z2 / 20)
    return cmath.sin(z) / z


def sph_j1(z: complex) -> complex:
    """j1(z) = sin(z)/z**2 - cos(z)/z, with j1(0) = 0."""
    z = complex(z)
    if abs(z) < _SERIES_RADIUS:
        return z * _even_series(_J1_OVER_Z, z)
    return cmath.sin(z) / (z * z) - cmath.cos(z) / z


def j1_over_z(z: complex) -> complex:
    """j1(z)/z, finite at the origin (limit 1/3)."""
    z = complex(z)
    if abs(z) < _SERIES_RADIUS:
        return _even_series(_J1_OVER_Z, z)
    return sph_j1(z) / z


def sph_h1_0(z: complex) -> complex:
    """h0(z) of the first kind: -i e^{iz}/z."""
    z = _check_hankel_arg(z)
    return -1j * cmath.exp(1j * z) / z


def sph_h1_1(z: complex) -> complex:
    """h1(z) of the first kind: -(e^{iz}/z)(1 + i/z)."""
    z = _check_hankel_arg(z)
    return -(cmath.exp(1j * z) / z) * (1 + 1j / z)


def sph_h2_0(z: complex) -> complex:
    """h0(z) of the second kind: +i e^{-iz}/z."""
    z = _check_hankel_arg(z)
    return 1j * cmath.exp(-1j * z) / z


def sph_h2_1(z: complex) -> complex:
    """h1(z) of the second kind: -(e^{-iz}/z)(1 - i/z)."""
    z = _check_hankel_arg(z)
    return -(cmath.exp(-1j * z) / z) * (1 - 1j / z)


def riccati_j1(z: complex) -> complex:
    """d/dz [z j1(z)], evaluated in closed form (z j0(z) - j1(z))."""
    z = complex(z)
    if abs(z) < _SERIES_RADIUS:
        return z * _even_series(_RICCATI_J1_OVER_Z, z)
    return cmath.sin(z) - sph_j1(z)


def riccati_j1_over_z(z: complex) -> complex:
    """d/dz [z j1(z)] divided by z, finite at the origin (limit 2/3)."""
    z = complex(z)
    if abs(z) < _SERIES_RADIUS:
        return _even_series(_RICCATI_J1_OVER_Z, z)
    return riccati_j1(z) / z


def riccati_h1(z: complex) -> complex:
    """d/dz [z h1^(1)(z)] = e^{iz} (-i + 1/z + i/z**2)."""
    z = _check_hankel_arg(z)
    return cmath.exp(1j * z) * (-1j + 1 / z + 1j / (z * z))


def riccati_h2(z: complex) -> complex:
    """d/dz [z h1^(2)(z)] = e^{-iz} (i + 1/z - i/z**2)."""
    z = _check_hankel_arg(z)
    return cmath.exp(-1j * z) * (1j + 1 / z - 1j / (z * z))

