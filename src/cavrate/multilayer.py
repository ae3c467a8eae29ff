"""Scattering coefficients and fields of a dipole centered in a layered sphere.

The dipole sits at the origin, oscillates along z with unit moment, and the
sphere consists of N concentric layers (possibly absorbing).  The magnetic
field in every layer is B_phi = eps_1 k0**3 f(r) sin(theta) with a radial
profile built from order-1 spherical waves,

    f_l(r) = delta_{l,1} h1(k_1 r) + c_{l+} h1(k_l r) + c_{l-} h2(k_l r),

where the l = 1 scattered part collapses to c_1 j1(k_1 r) by regularity at
the origin and the outermost layer carries no incoming wave.  The c
coefficients follow from continuity of f and of [r f(r)]'/eps at every
interface.  One inward pass over the interfaces, on scaled waves that stay
finite in thick absorbing layers, then a short outward product give them
for any N, from a LayerStack of numbers or of numpy arrays (one entry per
frequency); the fields use the same scaled waves.  The closed forms for
N = 2 and N = 3 are the independent route it is checked against.

Conventions: unit dipole moment, c = 1, lengths and 1/k0 in the same unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun as sf
from ._elementwise import (K0, RADII, Mixed, Numbers, exp, guard_im, largest,
                           nonnegative, peak_ratio, require, route,
                           smallest, widths as _widths)
from .dielectric import sqrt_eps
from .errors import DomainError, IllConditioned, SingularDenominator

# guards against literal division blow-up; passive media never get close
_DENOMINATOR_FLOOR = 1e-300
_RESIDUAL_LIMIT = 1e-8
# radii of these types take LayerStack's checked branch
_CHECKED = {np.ndarray, complex, np.complex64, np.complex128, np.clongdouble}


@dataclass(frozen=True)
class LayerStack:
    """Concentric-sphere geometry: interface radii and per-layer permittivity.

    radii are the N-1 interface radii, strictly increasing; eps holds the N
    layer permittivities, innermost first.  Each is a number, kept as float
    or complex, or a numpy array with one entry per sample; a bad sample
    raises as a bad number would.  A stack of arrays is neither hashable
    nor comparable.  It keeps the route (over radii and eps together) and
    the widths that validating it decides, and every solve takes them.
    """

    radii: tuple[float | np.ndarray, ...]
    eps: tuple[complex | np.ndarray, ...]
    _route: type = field(init=False, repr=False, compare=False)
    _widths: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, radii, eps):
        radii, eps = tuple(radii), tuple(eps)
        if not _CHECKED.isdisjoint(map(type, radii)) \
                or np.ndarray in map(type, eps):  # a complex radius raises
            radii = _entries((require(r, RADII) for r in radii), float)
            eps, m = _entries(eps, complex), Mixed
        else:
            radii, eps = tuple(map(float, radii)), tuple(map(complex, eps))
            m = Numbers
        if len(eps) != len(radii) + 1 or len(eps) < 2:
            raise DomainError(
                f"need len(eps) == len(radii) + 1 >= 2, got "
                f"{len(eps)} permittivities for {len(radii)} radii")
        # frozen: the fields go into the instance dict directly
        vars(self).update(radii=radii, eps=eps, _route=m,
                          _widths=_widths(radii, m))

    @property
    def n_layers(self) -> int:
        return len(self.eps)

    def layer_at(self, r: float) -> int:
        """1-based index of the layer containing radius r (boundaries go out)."""
        require(r, "radius must be non-negative", nonnegative)
        if np.ndarray in map(type, self.radii):
            raise DomainError("the layer lookup takes permittivity samples "
                              "only: pass layer= for radius arrays")
        for i, ri in enumerate(self.radii):
            if r < ri:
                return i + 1
        return self.n_layers


@dataclass
class WaveCoefficients:
    """Amplitudes of the scattered partial waves, one pair per layer.

    c1 is the amplitude of the regular (j1) wave reflected back into the
    central layer; c_plus/c_minus hold the outgoing/incoming amplitudes for
    layers 2..N.  The last incoming amplitude is identically zero (outgoing
    condition at infinity).  Of the continuity equations A c = b, rows
    divided by the outgoing wave of their inner layer, residual is what
    passed the check against 1e-8 (NaN fails): B = |A c - b| / |b|, or
    where B fails, |A c - b| / (|A| |c| + |b|) <= B (infinity norms).
    A plain record: equality ignores residual; no field is reassigned.
    """

    c1: complex
    c_plus: tuple[complex, ...]
    c_minus: tuple[complex, ...]
    residual: float = field(default=0.0, compare=False)

    def __post_init__(self):
        if not self.c_plus or len(self.c_plus) != len(self.c_minus):
            raise DomainError(
                "need one (outgoing, incoming) amplitude pair per outer layer")
        if self.c_minus[-1] != 0:
            raise DomainError(
                "the outermost layer cannot carry an incoming wave")

    @property
    def c_outer(self) -> complex:
        """Outgoing amplitude in the outermost layer."""
        return self.c_plus[-1]


def _entries(values, kind):
    """values as kind (float or complex), numpy arrays as arrays of kind."""
    return tuple(np.asarray(v, kind) if type(v) is np.ndarray else kind(v)
                 for v in values)


def _wavenumbers(eps, k0):
    return [root * k0 for root in map(sqrt_eps, eps)]


def coeffs_two_layer(eps1: complex, eps2: complex, r1: float,
                     k0: float) -> WaveCoefficients:
    """Closed-form amplitudes for a sphere (eps1) in a host (eps2).

    Parameters
    ----------
    eps1, eps2 : complex or complex array
        Permittivity of the central sphere and of the surrounding medium.
    r1 : float
        Sphere radius.
    k0 : float or float array
        Vacuum wavenumber omega/c; arrays broadcast with eps1 and eps2.

    Returns
    -------
    WaveCoefficients with the central reflection amplitude c1 and the
    transmitted outgoing amplitude in the host.
    """
    route((k0, r1), (), (K0, RADII))
    k1, k2 = _wavenumbers((eps1, eps2), k0)
    z1, z2 = k1 * r1, k2 * r1
    # the first evaluation of each argument in the order of the formula,
    # so that the same guard raises first
    j1, rh2, h2 = sf.sph_j1(z1), sf.riccati_h1(z2), sf.sph_h1_1(z2)
    den = eps1 * j1 * rh2 - eps2 * h2 * sf.riccati_j1(z1)
    small = smallest(abs(den))
    if small < _DENOMINATOR_FLOOR:
        raise SingularDenominator(f"two-layer determinant |D| = {small:g}")
    c1 = (eps2 * h2 * sf.riccati_h1(z1) - eps1 * sf.sph_h1_1(z1) * rh2) / den
    c2p = 1j * eps2 / (z1 * den)
    return WaveCoefficients(c1=c1, c_plus=(c2p,), c_minus=(0j,))


def _three_layer(eps1, eps2, eps3, r1, r2, k0):
    """The interface determinants ((a1, a2), (b1, b2)), then what the
    closed form reuses: z11, z22, j1(z11) and the middle layer's (h1, h2)
    at r1.  Each wave is evaluated once per argument.  a_j (b_j) couples
    the inner (outer) interface to the outgoing (j = 1) and incoming
    (j = 2) waves of the middle layer; 2 b1 / (b1 + b2) is minus the
    central reflection amplitude of the bare sphere (eps2 | eps3) at r2."""
    k1, k2, k3 = _wavenumbers((eps1, eps2, eps3), k0)
    z11, z21, z22, z32 = k1 * r1, k2 * r1, k2 * r2, k3 * r2
    # the arguments in the order the determinants first use them, so that
    # the same guard raises first; the middle layer's waves as (outgoing,
    # incoming) at r1, then at r2
    j11, rj11 = sf.sph_j1(z11), sf.riccati_j1(z11)
    rh21 = sf.riccati_h1(z21), sf.riccati_h2(z21)
    h21 = sf.sph_h1_1(z21), sf.sph_h2_1(z21)
    h32, rh32 = sf.sph_h1_1(z32), sf.riccati_h1(z32)
    rh22 = sf.riccati_h1(z22), sf.riccati_h2(z22)
    h22 = sf.sph_h1_1(z22), sf.sph_h2_1(z22)
    a = tuple(-1j * z11 / eps2 * (eps1 * j11 * rh - eps2 * h * rj11)
              for h, rh in zip(h21, rh21))
    b = tuple(eps3 * h32 * rh - eps2 * h * rh32 for h, rh in zip(h22, rh22))
    return (a, b), z11, z22, j11, h21


def coeffs_three_layer(eps1: complex, eps2: complex, eps3: complex,
                       r1: float, r2: float, k0: float) -> WaveCoefficients:
    """Closed-form amplitudes for sphere / shell / host at radii r1 < r2.

    Every argument may be a numpy array (one entry per sample); they
    broadcast together, and a bad element raises as one number would.
    """
    require(k0, K0)
    _widths((r1, r2))
    ((a1, a2), (b1, b2)), z11, z22, j11, (h1, h2) = _three_layer(
        eps1, eps2, eps3, r1, r2, k0)
    den = a1 * b2 - a2 * b1
    small = smallest(abs(den))
    if small < _DENOMINATOR_FLOOR:
        raise SingularDenominator(
            f"three-layer determinant |a1 b2 - a2 b1| = {small:g}")
    c1 = ((b2 * h1 - b1 * h2) / den - sf.sph_h1_1(z11)) / j11
    c2p = b2 / den
    c2m = -b1 / den
    c3p = -1j * eps3 / z22 * 2 / den
    return WaveCoefficients(c1=c1, c_plus=(c2p, c3p), c_minus=(c2m, 0j))


def coeffs_general_n(stack: LayerStack, k0) -> WaveCoefficients:
    """Amplitudes for any layer count in one O(N) pass over the interfaces.

    The waves are scaled (h1 e^{-iz}, h2 e^{iz}, j1 e^{iz}).  Inward from
    R_N = 0, matching f and [r f(r)]'/eps at each interface gives the ratio
    R_l of incoming to outgoing wave there in the layer inside, moved to
    its inner interface by e^{2ik_l(r_l - r_{l-1})}, and t, the outgoing
    wave outside per one inside; c1 = R_1 e^{2iz_1}.  An outward product
    then gives each c_{l+} (times e^{i(z_in - z_out)} t per interface) and
    c_{l-} = R_l e^{2ik_l r_l} c_{l+}.  stack is a LayerStack, or any
    object with radii and eps, which becomes one; a radius, a permittivity
    or k0 may be an (F,) array, one entry per sample.  The route (Mixed at
    a k0 that is not a float) and the widths are the stack's.
    """
    if not isinstance(stack, LayerStack):
        stack = LayerStack(stack.radii, stack.eps)
    steps, residual, m, _ = _solve(stack, k0)
    # outward, from the innermost interface: each c_{l-}, c1 first, then
    # each c_{l+}
    c_minus, c_plus, cp = [], [], 1 + 0j
    for r_phase, zin, zout, t in steps:
        c_minus.append(r_phase * cp)
        cp = cp * m.exp(1j * (zin - zout)) * t
        c_plus.append(cp)
    return WaveCoefficients(c_minus[0], (*c_plus,), (*c_minus[1:], 0j),
                            residual)


def _solve(stack: LayerStack, k0):
    """_amplitudes' steps and residual for stack at k0, their route and
    each layer's sqrt(eps), which every solve of a stack takes from here."""
    m = stack._route if route((k0,), (), (K0,)) is Numbers else Mixed
    roots = tuple(map(sqrt_eps, stack.eps))
    return (*_amplitudes(stack.radii, stack.eps, roots, k0, m,
                         stack._widths), m, roots)


def _amplitudes(radii, eps, roots, k0, m, gaps):
    """coeffs_general_n's inward pass, pure arithmetic on checked inputs:
    each layer's sqrt(eps) in roots, a positive k0, the layer widths in
    gaps, all on route m.  It forms no amplitude: it returns the outward
    step (R e^{2iz_in}, z_in, z_out, t) of each interface, innermost
    first, and WaveCoefficients.residual (the norms from the kept terms
    only where B fails), so that a caller forms e^{i(z_in - z_out)} only
    where it needs the unreferenced amplitude."""
    last = len(radii) - 1
    exp, smallest = m.exp, m.smallest
    # inward, per interface: each scaled wave as (f, [z f]'/eps), the inner
    # layer's lead wave a (h1; the source in layer 1) and wave b (h2; j1 in
    # layer 1), the outer layer's h1 wave p and h2 wave q (none outermost);
    # the outer profile p + P q per unit outgoing wave (P: the outer R here)
    # fixes R, t fits the inner profile a + R b to it; row defects, and the
    # terms of the residual's norms; each layer's wavenumber k = sqrt(eps) k0
    # is formed once, as k_in, and is the next interface's k_out
    ratio, qf, qd, steps, defects, terms = 0j, 0j, 0j, [], [], []
    k_out = roots[-1] * k0
    for i in range(last, -1, -1):
        k_in = roots[i] * k0
        zin, zout = k_in * radii[i], k_out * radii[i]
        try:
            iz, iz_out = 1j / zin, 1j / zout
        except ZeroDivisionError:  # a number z = k r is 0
            raise DomainError(
                f"k0*r underflows to 0 at r = {radii[i]:g}") from None
        af = (-1 - iz) / zin
        bf, bd = ((h2 := (iz - 1) / zin), 1j - h2) if i else sf.j1_scaled(zin)
        ad, bd = (-1j - af) / eps[i], bd / eps[i]
        pf = (-1 - iz_out) / zout
        if i < last:
            qf = (iz_out - 1) / zout
            qd = (1j - qf) / eps[i + 1]
        pd = (-1j - pf) / eps[i + 1]
        shift = exp(2j * k_in * gaps[i]) if i else 0j
        f, d = pf + ratio * qf, pd + ratio * qd
        den = bf * d - bd * f
        if (small := smallest(abs(den))) < _DENOMINATOR_FLOOR:
            raise IllConditioned(f"recursion denominator |D| = {small:g}")
        r_in = (ad * f - af * d) / den
        gf, gd = af + r_in * bf, ad + r_in * bd
        fc, dc = f.conjugate(), d.conjugate()
        t = (gf * fc + gd * dc) / (f * fc + d * dc)
        defects += abs(gf - t * f), abs(gd - t * d)
        terms.append((af, bf, pf, qf, ad, bd, pd, qd, r_in, t, ratio))
        steps.append((r_in * exp(2j * zin), zin, zout, t))
        ratio, k_out = r_in * shift, k_in

    residual = peak_ratio(defects, sources := (abs(af), abs(ad)))  # B
    if not residual <= _RESIDUAL_LIMIT:  # B did not decide: the residual
        norms, amps = [], [1.0 if last else 0.0]
        for j, (af, bf, pf, qf, ad, bd, pd, qd, r_in, t, ratio) in enumerate(
                terms):  # the first interface's sources belong to b, not A
            norms += ((j < last) * abs(af) + abs(bf) + abs(pf) + abs(qf),
                      (j < last) * abs(ad) + abs(bd) + abs(pd) + abs(qd))
            amps += abs(r_in), abs(t), abs(t * ratio)
        residual = peak_ratio(defects, sources, norms, amps)
        if not residual <= _RESIDUAL_LIMIT:
            raise IllConditioned(f"recursion residual {residual:.3e} "
                                 f"exceeds {_RESIDUAL_LIMIT:g}")
    return steps[::-1], residual


coefficients = coeffs_general_n


def field_in_layer(stack: LayerStack, coeffs: WaveCoefficients, r,
                   theta, k0, include_source: bool = True,
                   layer: int | None = None):
    """Dipole field at (r, theta): spherical components (E_r, E_theta, B_phi).

    r and theta may be numpy arrays; the components then take their
    broadcast shape, and all radii must lie inside one layer.  An (S,)
    k0, a stack of (S,) permittivity arrays and its amplitudes hold one
    sample per entry along the first axis of r, and an r without that
    axis raises DomainError.  In the central layer the
    source wave is included unless include_source is False (useful for
    isolating the scattered field near the origin, where the j1-based part
    stays finite).  layer overrides the automatic layer lookup, which lets
    both sides of an interface be evaluated at exactly the same radius.
    The profile f and [z f]'/z come from the scaled waves of the amplitude
    recursion, times e^{iz} for the outgoing wave and e^{-iz} for the
    other one (z = k_layer r), skipping a wave whose amplitude is an
    exact 0; |Im z| above specfun.IM_GUARD raises OverflowError.
    """
    route((k0, r), (), (
        K0, "r must be positive (use field_center_limit at 0)"))
    if layer is None:
        layer = stack.layer_at(smallest(r))
        if stack.layer_at(largest(r)) != layer:
            raise DomainError("radii span an interface")
    elif not 1 <= layer <= stack.n_layers:
        raise DomainError(f"layer {layer} outside 1..{stack.n_layers}")
    # amplitudes of the outgoing wave and of the other one (h2; j1 in layer 1)
    a, b = ((float(include_source), coeffs.c1) if layer == 1 else
            (coeffs.c_plus[layer - 2], coeffs.c_minus[layer - 2]))
    eps1, eps_l = stack.eps[0], stack.eps[layer - 1]
    samples = [x.shape[:1] for x in (eps1, eps_l, a, b, k0)
               if type(x) is np.ndarray and x.ndim]
    if samples and np.shape(r)[:1] != samples[0]:
        raise DomainError(f"r must hold the sample axis first: {samples[0][0]}"
                          f" samples, r of shape {np.shape(r)}")
    if type(r) is np.ndarray and r.ndim > 1:
        # a sample's values broadcast along r's first axis
        eps1, eps_l, a, b, k0 = (
            x.reshape(x.shape + (1,) * (r.ndim - 1))
            if type(x) is np.ndarray else x for x in (eps1, eps_l, a, b, k0))
    k_l = sqrt_eps(eps_l) * k0
    z = k_l * r
    guard_im(z, sf.IM_GUARD)
    # each wave's scaled (f, [z f]'/z): h1 e^{-iz}, h2 e^{iz} or j1 e^{iz};
    # an amplitude that is an exact 0 is a number
    iz = 1j / z
    f = df_over_z = 0
    if type(a) is np.ndarray or a != 0:
        af = (-1 - iz) / z
        a = a * exp(1j * z)
        f, df_over_z = a * af, a * ((-1j - af) / z)
    if type(b) is np.ndarray or b != 0:
        bf, bd = sf.j1_scaled(z) if layer == 1 else (
            h2 := (iz - 1) / z, 1j - h2)
        b = b * exp(-1j * z)
        f, df_over_z = f + b * bf, df_over_z + b * (bd / z)
    theta = np.asarray(theta)
    pref = 1j * k0 * k0 * (eps1 / eps_l) * k_l
    sin_theta = np.sin(theta)
    e_r = pref * 2 * (f / z) * np.cos(theta)
    e_theta = -pref * df_over_z * sin_theta
    b_phi = eps1 * k0 ** 3 * f * sin_theta
    return e_r, e_theta, b_phi


def field_center_limit(coeffs: WaveCoefficients, eps1: complex, k0):
    """z-component of the scattered field at the dipole position.

    The scattered wave of the central layer is regular at the origin and
    parallel to the dipole there; its value is i k_1 k0**2 c1 * 2/3.
    eps1, k0 and c1 may be (S,) arrays, one entry per sample.
    """
    k1 = sqrt_eps(eps1) * require(k0, K0)
    return 1j * k1 * k0 * k0 * coeffs.c1 * (2 / 3)


def homogeneous_field(eps, k0):
    """Field evaluator (r, theta) -> components for a dipole in an infinite
    medium; eps and k0 may be (S,) arrays, one sample per entry along r's
    first axis."""
    stack = LayerStack(radii=(1.0,), eps=(eps, eps))
    coeffs = WaveCoefficients(c1=0j, c_plus=(1 + 0j,), c_minus=(0j,))

    def fields(r, theta):
        # layer 2 (h1) gives the bits of layer 1 (0 j1 + h1) at any radius
        return field_in_layer(stack, coeffs, r, theta, k0, layer=2)

    return fields


def stack_field_evaluator(stack: LayerStack, k0):
    """Field evaluator (r, theta) -> components for a layered stack; an
    (S,) k0 and a stack of (S,) permittivity arrays hold one sample per
    entry along r's first axis."""
    coeffs = coefficients(stack, k0)

    def fields(r, theta):
        return field_in_layer(stack, coeffs, r, theta, k0)

    return fields
