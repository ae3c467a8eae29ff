"""Scattering coefficients and fields of a dipole centered in a layered sphere.

The dipole sits at the origin, oscillates along z with unit moment, and the
sphere consists of N concentric layers (possibly absorbing).  The magnetic
field in every layer is B_phi = eps_1 k0**3 f(r) sin(theta) with a radial
profile built from order-1 spherical waves,

    f_l(r) = delta_{l,1} h1(k_1 r) + c_{l+} h1(k_l r) + c_{l-} h2(k_l r),

where the l = 1 scattered part collapses to c_1 j1(k_1 r) by regularity at
the origin and the outermost layer carries no incoming wave.  The c
coefficients follow from continuity of f and of [r f(r)]'/eps at every
interface.  Closed forms are provided for N = 2 and N = 3; any N is handled
by a dense linear solve of the same continuity conditions.  The closed forms
also take numpy arrays, one entry per frequency.

Conventions: unit dipole moment, c = 1, lengths and 1/k0 in the same unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import specfun as sf
from ._elementwise import smallest
from .dielectric import sqrt_eps
from .errors import DomainError, IllConditioned, SingularDenominator

# guards against literal division blow-up; passive media never get close
_DENOMINATOR_FLOOR = 1e-300
_RESIDUAL_LIMIT = 1e-8


@dataclass(frozen=True)
class LayerStack:
    """Concentric-sphere geometry: interface radii and per-layer permittivity.

    radii are the N-1 interface radii, strictly increasing; eps holds the N
    layer permittivities, innermost first.
    """

    radii: tuple[float, ...]
    eps: tuple[complex, ...]

    def __init__(self, radii, eps):
        object.__setattr__(self, "radii", tuple(float(r) for r in radii))
        object.__setattr__(self, "eps", tuple(complex(e) for e in eps))
        if len(self.eps) != len(self.radii) + 1 or len(self.eps) < 2:
            raise DomainError(
                f"need len(eps) == len(radii) + 1 >= 2, got "
                f"{len(self.eps)} permittivities for {len(self.radii)} radii")
        if any(r <= 0 for r in self.radii):
            raise DomainError("all interface radii must be positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise DomainError("interface radii must be strictly increasing")

    @property
    def n_layers(self) -> int:
        return len(self.eps)

    def layer_at(self, r: float) -> int:
        """1-based index of the layer containing radius r (boundaries go out)."""
        if r < 0:
            raise DomainError("radius must be non-negative")
        for i, ri in enumerate(self.radii):
            if r < ri:
                return i + 1
        return self.n_layers


@dataclass(frozen=True)
class WaveCoefficients:
    """Amplitudes of the scattered partial waves, one pair per layer.

    c1 is the amplitude of the regular (j1) wave reflected back into the
    central layer; c_plus/c_minus hold the outgoing/incoming amplitudes for
    layers 2..N.  The last incoming amplitude is identically zero (outgoing
    condition at infinity).
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
    def n_layers(self) -> int:
        return len(self.c_plus) + 1

    @property
    def c_outer(self) -> complex:
        """Outgoing amplitude in the outermost layer."""
        return self.c_plus[-1]


def _wavenumbers(eps, k0):
    return [sqrt_eps(e) * k0 for e in eps]


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
    if smallest(r1) <= 0 or smallest(k0) <= 0:
        raise DomainError("r1 and k0 must be positive")
    k1, k2 = _wavenumbers((eps1, eps2), k0)
    z1, z2 = k1 * r1, k2 * r1
    den = eps1 * sf.sph_j1(z1) * sf.riccati_h1(z2) \
        - eps2 * sf.sph_h1_1(z2) * sf.riccati_j1(z1)
    small = smallest(abs(den))
    if small < _DENOMINATOR_FLOOR:
        raise SingularDenominator(f"two-layer determinant |D| = {small:g}")
    c1 = (eps2 * sf.sph_h1_1(z2) * sf.riccati_h1(z1)
          - eps1 * sf.sph_h1_1(z1) * sf.riccati_h1(z2)) / den
    c2p = 1j * eps2 / (z1 * den)
    return WaveCoefficients(c1=c1, c_plus=(c2p,), c_minus=(0j,))


def three_layer_interface_terms(eps1, eps2, eps3, r1, r2, k0):
    """Interface determinants of the three-layer geometry.

    Returns ((a1, a2), (b1, b2)): a_j couples the inner interface to the
    outgoing (j = 1) and incoming (j = 2) waves of the middle layer, b_j
    does the same for the outer interface.  The combination
    2 b1 / (b1 + b2) equals minus the central reflection amplitude of the
    bare two-layer system (eps2 | eps3) at radius r2.
    """
    k1, k2, k3 = _wavenumbers((eps1, eps2, eps3), k0)
    z11, z21, z22, z32 = k1 * r1, k2 * r1, k2 * r2, k3 * r2

    def inner(h, rh):
        return -1j * z11 / eps2 * (
            eps1 * sf.sph_j1(z11) * rh(z21) - eps2 * h(z21) * sf.riccati_j1(z11))

    def outer(h, rh):
        return eps3 * sf.sph_h1_1(z32) * rh(z22) \
            - eps2 * h(z22) * sf.riccati_h1(z32)

    a1 = inner(sf.sph_h1_1, sf.riccati_h1)
    a2 = inner(sf.sph_h2_1, sf.riccati_h2)
    b1 = outer(sf.sph_h1_1, sf.riccati_h1)
    b2 = outer(sf.sph_h2_1, sf.riccati_h2)
    return (a1, a2), (b1, b2)


def coeffs_three_layer(eps1: complex, eps2: complex, eps3: complex,
                       r1: float, r2: float, k0: float) -> WaveCoefficients:
    """Closed-form amplitudes for sphere / shell / host at radii r1 < r2."""
    if not 0 < r1 < r2:
        raise DomainError(f"need 0 < r1 < r2, got r1 = {r1:g}, r2 = {r2:g}")
    if smallest(k0) <= 0:
        raise DomainError("k0 must be positive")
    k1, k2, k3 = _wavenumbers((eps1, eps2, eps3), k0)
    z11, z21, z22 = k1 * r1, k2 * r1, k2 * r2
    (a1, a2), (b1, b2) = three_layer_interface_terms(
        eps1, eps2, eps3, r1, r2, k0)
    den = a1 * b2 - a2 * b1
    small = smallest(abs(den))
    if small < _DENOMINATOR_FLOOR:
        raise SingularDenominator(
            f"three-layer determinant |a1 b2 - a2 b1| = {small:g}")
    c1 = ((b2 * sf.sph_h1_1(z21) - b1 * sf.sph_h2_1(z21)) / den
          - sf.sph_h1_1(z11)) / sf.sph_j1(z11)
    c2p = b2 / den
    c2m = -b1 / den
    c3p = -1j * eps3 / z22 * 2 / den
    return WaveCoefficients(c1=c1, c_plus=(c2p, c3p), c_minus=(c2m, 0j))


def coeffs_general_n(stack: LayerStack, k0: float) -> WaveCoefficients:
    """Amplitudes for any layer count from the continuity conditions.

    Assembles the 2(N-1)-dimensional complex linear system expressing
    continuity of f and [r f(r)]'/eps at every interface, with the source
    wave of the central layer on the right-hand side, and solves it with
    partial pivoting.  The backward-error residual of the solve is stored
    on the result and must stay below 1e-8.
    """
    if k0 <= 0:
        raise DomainError("k0 must be positive")
    n_layers = stack.n_layers
    ks = _wavenumbers(stack.eps, k0)
    n = 2 * (n_layers - 1)
    mat = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)

    def col(layer: int, incoming: bool) -> int:
        # unknown order: c1, c2+, c2-, c3+, c3-, ..., cN+
        if layer == 1:
            return 0
        return 1 + 2 * (layer - 2) + (1 if incoming else 0)

    for i, r in enumerate(stack.radii):
        lin, lout = i + 1, i + 2
        zin, zout = ks[lin - 1] * r, ks[lout - 1] * r
        ein, eout = stack.eps[lin - 1], stack.eps[lout - 1]
        row_f, row_d = 2 * i, 2 * i + 1
        if lin == 1:
            mat[row_f, 0] = sf.sph_j1(zin)
            mat[row_d, 0] = sf.riccati_j1(zin) / ein
            rhs[row_f] = -sf.sph_h1_1(zin)
            rhs[row_d] = -sf.riccati_h1(zin) / ein
        else:
            mat[row_f, col(lin, False)] = sf.sph_h1_1(zin)
            mat[row_f, col(lin, True)] = sf.sph_h2_1(zin)
            mat[row_d, col(lin, False)] = sf.riccati_h1(zin) / ein
            mat[row_d, col(lin, True)] = sf.riccati_h2(zin) / ein
        mat[row_f, col(lout, False)] -= sf.sph_h1_1(zout)
        mat[row_d, col(lout, False)] -= sf.riccati_h1(zout) / eout
        if lout != n_layers:
            mat[row_f, col(lout, True)] -= sf.sph_h2_1(zout)
            mat[row_d, col(lout, True)] -= sf.riccati_h2(zout) / eout

    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise IllConditioned(f"boundary-condition solve failed: {exc}") from exc

    defect = mat @ sol - rhs
    scale = np.linalg.norm(mat, np.inf) * np.linalg.norm(sol, np.inf) \
        + np.linalg.norm(rhs, np.inf)
    residual = float(np.linalg.norm(defect, np.inf) / scale) if scale else 0.0
    if residual > _RESIDUAL_LIMIT:
        raise IllConditioned(
            f"solve residual {residual:.3e} exceeds {_RESIDUAL_LIMIT:g}")

    c_plus = []
    c_minus = []
    for layer in range(2, n_layers):
        c_plus.append(complex(sol[col(layer, False)]))
        c_minus.append(complex(sol[col(layer, True)]))
    c_plus.append(complex(sol[col(n_layers, False)]))
    c_minus.append(0j)
    return WaveCoefficients(c1=complex(sol[0]), c_plus=tuple(c_plus),
                            c_minus=tuple(c_minus), residual=residual)


def coefficients(stack: LayerStack, k0: float) -> WaveCoefficients:
    """Amplitudes for a stack, closed forms for N = 2, 3 and solver beyond."""
    if stack.n_layers == 2:
        return coeffs_two_layer(stack.eps[0], stack.eps[1],
                                stack.radii[0], k0)
    if stack.n_layers == 3:
        return coeffs_three_layer(stack.eps[0], stack.eps[1], stack.eps[2],
                                  stack.radii[0], stack.radii[1], k0)
    return coeffs_general_n(stack, k0)


def _radial_profile(stack, coeffs, layer, z, include_source):
    """(f, [z f]') of the layer's wave combination at z = k_layer * r."""
    if layer == 1:
        f = coeffs.c1 * sf.sph_j1(z)
        df = coeffs.c1 * sf.riccati_j1(z)
        if include_source:
            f += sf.sph_h1_1(z)
            df += sf.riccati_h1(z)
        return f, df
    cp = coeffs.c_plus[layer - 2]
    cm = coeffs.c_minus[layer - 2]
    f = cp * sf.sph_h1_1(z)
    df = cp * sf.riccati_h1(z)
    if cm != 0:
        f += cm * sf.sph_h2_1(z)
        df += cm * sf.riccati_h2(z)
    return f, df


def field_in_layer(stack: LayerStack, coeffs: WaveCoefficients, r: float,
                   theta, k0: float, include_source: bool = True,
                   layer: int | None = None):
    """Dipole field at (r, theta): spherical components (E_r, E_theta, B_phi).

    theta may be a numpy array; the components then share its shape.  In the
    central layer the source wave is included unless include_source is
    False (useful for isolating the scattered field near the origin, where
    the j1-based part stays finite).  layer overrides the automatic layer
    lookup, which lets both sides of an interface be evaluated at exactly
    the same radius.
    """
    if r <= 0:
        raise DomainError("r must be positive (use field_center_limit at 0)")
    if layer is None:
        layer = stack.layer_at(r)
    elif not 1 <= layer <= stack.n_layers:
        raise DomainError(f"layer {layer} outside 1..{stack.n_layers}")
    eps1 = stack.eps[0]
    eps_l = stack.eps[layer - 1]
    k_l = sqrt_eps(eps_l) * k0
    z = k_l * r
    if layer == 1 and not include_source:
        # ratio forms stay finite down to r = 0
        f_over_z = coeffs.c1 * sf.j1_over_z(z)
        df_over_z = coeffs.c1 * sf.riccati_j1_over_z(z)
        f = f_over_z * z
    else:
        f, df = _radial_profile(stack, coeffs, layer, z, include_source)
        f_over_z = f / z
        df_over_z = df / z
    theta = np.asarray(theta)
    pref = 1j * k0 * k0 * (eps1 / eps_l) * k_l
    e_r = pref * 2 * f_over_z * np.cos(theta)
    e_theta = -pref * df_over_z * np.sin(theta)
    b_phi = eps1 * k0 ** 3 * f * np.sin(theta)
    return e_r, e_theta, b_phi


def field_center_limit(coeffs: WaveCoefficients, eps1: complex,
                       k0: float) -> complex:
    """z-component of the scattered field at the dipole position.

    The scattered wave of the central layer is regular at the origin and
    parallel to the dipole there; its value is i k_1 k0**2 c1 * 2/3.
    """
    k1 = sqrt_eps(eps1) * k0
    return 1j * k1 * k0 * k0 * coeffs.c1 * (2 / 3)


def homogeneous_field(eps: complex, k0: float):
    """Field evaluator (r, theta) -> components for a dipole in an infinite medium."""
    stack = LayerStack(radii=(1.0,), eps=(eps, eps))
    coeffs = WaveCoefficients(c1=0j, c_plus=(1 + 0j,), c_minus=(0j,))

    def fields(r, theta):
        layer = 2 if r >= 1.0 else 1
        return field_in_layer(stack, coeffs, r, theta, k0, layer=layer)

    return fields


def stack_field_evaluator(stack: LayerStack, k0: float,
                          coeffs: WaveCoefficients | None = None):
    """Field evaluator (r, theta) -> components for a layered stack."""
    if coeffs is None:
        coeffs = coefficients(stack, k0)

    def fields(r, theta):
        return field_in_layer(stack, coeffs, r, theta, k0)

    return fields
