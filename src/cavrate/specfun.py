"""Spherical Bessel/Hankel functions of orders 0 and 1 for complex argument.

Only the closed forms needed by the electric-dipole problem are provided,
together with d/dz [z f(z)] (the combination entering the tangential-field
boundary conditions).  The j1 ratios j1(z)/z and [z j1(z)]'/z are continued
analytically through z = 0.  Every function takes a complex scalar or a
numpy array of arguments.  All functions are pure and thread-safe.
"""

from ._elementwise import elementwise

# e^{|Im z|} overflows double precision near |Im z| ~ 709.
IM_GUARD = 700.0

# series crossover: below this the sin/cos closed forms of j1 lose digits
# to cancellation, the Taylor series is exact to machine precision
_SERIES_RADIUS = 0.5

_J1_OVER_Z = (1 / 3, -1 / 30, 1 / 840, -1 / 45360, 1 / 3991680,
              -1 / 518918400, 1 / 93405312000)
_RICCATI_J1_OVER_Z = (2 / 3, -2 / 15, 1 / 140, -1 / 5670, 1 / 399168,
                      -1 / 43243200, 1 / 6671808000)

_hankel = elementwise(pole="Hankel functions have a pole at z = 0",
                      im_limit=IM_GUARD)


def _even_series(coeffs, z: complex) -> complex:
    z2 = z * z
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z2 + c
    return acc


@elementwise(lambda z: 1 - z * z / 6 * (1 - z * z / 20), 1e-4)
def sph_j0(z, m):
    """j0(z) = sin(z)/z, with j0(0) = 1."""
    return m.sin(z) / z


@elementwise(lambda z: z * _even_series(_J1_OVER_Z, z), _SERIES_RADIUS)
def sph_j1(z, m):
    """j1(z) = sin(z)/z**2 - cos(z)/z, with j1(0) = 0."""
    return m.sin(z) / (z * z) - m.cos(z) / z


@elementwise(lambda z: _even_series(_J1_OVER_Z, z), _SERIES_RADIUS)
def j1_over_z(z, m):
    """j1(z)/z, finite at the origin (limit 1/3)."""
    return sph_j1(z) / z


@_hankel
def sph_h1_0(z, m):
    """h0(z) of the first kind: -i e^{iz}/z."""
    return -1j * m.exp(1j * z) / z


@_hankel
def sph_h1_1(z, m):
    """h1(z) of the first kind: -(e^{iz}/z)(1 + i/z)."""
    return -(m.exp(1j * z) / z) * (1 + 1j / z)


@_hankel
def sph_h2_0(z, m):
    """h0(z) of the second kind: +i e^{-iz}/z."""
    return 1j * m.exp(-1j * z) / z


@_hankel
def sph_h2_1(z, m):
    """h1(z) of the second kind: -(e^{-iz}/z)(1 - i/z)."""
    return -(m.exp(-1j * z) / z) * (1 - 1j / z)


@elementwise(lambda z: z * _even_series(_RICCATI_J1_OVER_Z, z), _SERIES_RADIUS)
def riccati_j1(z, m):
    """d/dz [z j1(z)], evaluated in closed form (z j0(z) - j1(z))."""
    return m.sin(z) - sph_j1(z)


@elementwise(lambda z: _even_series(_RICCATI_J1_OVER_Z, z), _SERIES_RADIUS)
def riccati_j1_over_z(z, m):
    """d/dz [z j1(z)] divided by z, finite at the origin (limit 2/3)."""
    return riccati_j1(z) / z


@_hankel
def riccati_h1(z, m):
    """d/dz [z h1^(1)(z)] = e^{iz} (-i + 1/z + i/z**2)."""
    return m.exp(1j * z) * (-1j + 1 / z + 1j / (z * z))


@_hankel
def riccati_h2(z, m):
    """d/dz [z h1^(2)(z)] = e^{-iz} (i + 1/z - i/z**2)."""
    return m.exp(-1j * z) * (1j + 1 / z - 1j / (z * z))
