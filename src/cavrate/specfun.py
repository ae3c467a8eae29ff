"""Spherical Bessel/Hankel functions of order 1 for complex argument.

Only the closed forms needed by the electric-dipole problem are provided,
together with d/dz [z f(z)] (the combination entering the tangential-field
boundary conditions).  Every function takes a complex scalar or a numpy
array of arguments.  All functions are pure and thread-safe.

Amplitudes and fields use only j1_scaled, through the scaled-wave kernel
of multilayer.  The unscaled waves (sph_j1, riccati_j1, sph_h*_1,
riccati_h*) are the reference route only: the N = 2 and N = 3 closed
forms and the battery's Hankel identities.
"""

from ._elementwise import elementwise

# e^{|Im z|} overflows double precision near |Im z| ~ 709.
IM_GUARD = 700.0

# series crossover: below this the sin/cos closed forms of j1 lose digits
# to cancellation, the Taylor series is exact to machine precision; each
# series is an unrolled Horner form in z**2, with no loop or generator
_SERIES_RADIUS = 0.5

_J1_OVER_Z = (1 / 3, -1 / 30, 1 / 840, -1 / 45360, 1 / 3991680,
              -1 / 518918400, 1 / 93405312000)
_RICCATI_J1_OVER_Z = (2 / 3, -2 / 15, 1 / 140, -1 / 5670, 1 / 399168,
                      -1 / 43243200, 1 / 6671808000)

_hankel = elementwise(pole="Hankel functions have a pole at z = 0",
                      im_limit=IM_GUARD)


def _even_series(coeffs, z2):
    """sum_k coeffs[k] z2**k by Horner's rule, from 0j."""
    c0, c1, c2, c3, c4, c5, c6 = coeffs
    return ((((((0j * z2 + c6) * z2 + c5) * z2 + c4) * z2 + c3) * z2 + c2)
            * z2 + c1) * z2 + c0


@elementwise(lambda z, m: z * _even_series(_J1_OVER_Z, z * z), _SERIES_RADIUS)
def sph_j1(z, m):
    """j1(z) = sin(z)/z**2 - cos(z)/z, with j1(0) = 0."""
    return m.sin(z) / (z * z) - m.cos(z) / z


@_hankel
def sph_h1_1(z, m):
    """h1(z) of the first kind: -(e^{iz}/z)(1 + i/z)."""
    return -(m.exp(1j * z) / z) * (1 + 1j / z)


@_hankel
def sph_h2_1(z, m):
    """h1(z) of the second kind: -(e^{-iz}/z)(1 - i/z)."""
    return -(m.exp(-1j * z) / z) * (1 - 1j / z)


@elementwise(lambda z, m: z * _even_series(_RICCATI_J1_OVER_Z, z * z),
             _SERIES_RADIUS)
def riccati_j1(z, m):
    """d/dz [z j1(z)], evaluated in closed form (z j0(z) - j1(z))."""
    return m.sin(z) - sph_j1(z)


@_hankel
def riccati_h1(z, m):
    """d/dz [z h1^(1)(z)] = e^{iz} (-i + 1/z + i/z**2)."""
    return m.exp(1j * z) * (-1j + 1 / z + 1j / (z * z))


@_hankel
def riccati_h2(z, m):
    """d/dz [z h1^(2)(z)] = e^{-iz} (i + 1/z - i/z**2)."""
    return m.exp(-1j * z) * (1j + 1 / z - 1j / (z * z))


def _j1_scaled_series(z, m):
    phase, z2 = m.exp(1j * z), z * z
    return (z * _even_series(_J1_OVER_Z, z2) * phase,
            z * _even_series(_RICCATI_J1_OVER_Z, z2) * phase)


@elementwise(_j1_scaled_series, _SERIES_RADIUS)
def j1_scaled(z, m):
    """(j1(z) e^{iz}, d/dz [z j1(z)] e^{iz}), finite for any Im z >= 0; an
    array z gives a (2,) + z.shape array."""
    w = m.exp(2j * z)
    sin_w = (w - 1) / 2j  # sin(z) e^{iz}
    j1 = (sin_w / z - (w + 1) / 2) / z
    return j1, sin_w - j1
