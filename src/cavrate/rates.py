"""Decay rates, level shifts and power losses of the centered dipole.

Every quantity is normalized to the free-space radiated power of the same
dipole, W_free = c k0**4 |p|**2 / 3, so a value of 1 means the free-space
spontaneous-emission rate.  Two local-field pictures appear throughout:

* macroscopic rates, computed from the macroscopic field regularized over
  a molecule-scale volume of radius r_m, and
* real-cavity rates, computed exactly from the field of a dipole centered
  in a small empty cavity of radius r_c carved out of the medium.

The real-cavity results carry the correction factor |3 eps/(2 eps + 1)|**2
plus absorption terms that survive even as r_c -> 0.

The rate functions also take numpy arrays, one entry per frequency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import multilayer as ml
from ._elementwise import (FINITE_EPS, K0, RADII, X_MAX, X_MIN, Mixed, exp,
                           finite, largest, require, route, scaled)
from .dielectric import eta_kappa, sqrt_eps
from .errors import DomainError, ExpansionRangeWarning

# beyond k0*r_c ~ 0.3 the omitted expansion orders reach the percent level
EXPANSION_LIMIT = 0.3

_ONSAGER_POLE_TOL = 1e-12


def lorentz_factor(eps: complex) -> float:
    """Virtual-cavity local-field factor |(eps + 2)/3|**2."""
    return _lorentz(require(eps, FINITE_EPS, finite))


def _lorentz(eps):
    return abs((eps + 2) / 3) ** 2  # lorentz_factor of a checked eps


# the _kernels take root = sqrt(eps), abs2 = |eps|**2 and _real_cavity(eps)
def _real_cavity(eps, m=Mixed):
    """(den, |den|, |3 eps/den|**2), den = 2 eps + 1, off its pole."""
    den = 2 * eps + 1
    if m.smallest(abs_den := abs(den)) < _ONSAGER_POLE_TOL:
        raise DomainError("real-cavity factor has a pole at eps = -1/2")
    return den, abs_den, abs(3 * eps / den) ** 2


def onsager_factor(eps: complex) -> float:
    """Real-cavity local-field factor |3 eps/(2 eps + 1)|**2."""
    return _real_cavity(require(eps, FINITE_EPS, finite))[2]


def _warn_outside_range(x, what: str, stacklevel=3) -> None:
    """Warn, as what, if k0 r_c = x or its largest element is outside the
    small-cavity range; the warning names the line that called the caller."""
    if what and (x_max := largest(x)) >= EXPANSION_LIMIT:
        warnings.warn(
            f"{what}: k0*r_c = {x_max:.3g} is outside the small-cavity range "
            f"(< {EXPANSION_LIMIT:g}); omitted orders may reach percents",
            ExpansionRangeWarning, stacklevel=stacklevel)


def _medium_x(eps, k0, r, what=None, name="r_c"):
    """k0 r of a medium-only rate, once eps, k0, r (named name) and k0 r pass
    their checks in turn; warns as what, if given, outside the expansion."""
    require(eps, FINITE_EPS, finite)
    x = scaled(require(k0, K0) * require(r, name + " must be positive"), name)
    _warn_outside_range(x, what, 4)
    return x


def cavity_nearfield(eps: complex, k0: float, r_c: float) -> float:
    """Real-cavity near-field term, (eps''/|eps|^2)(k0 r_c)^-3, before the
    overall local-field factor."""
    x = _medium_x(eps, k0, r_c)
    return eps.imag / abs(eps) ** 2 / x ** 3


def gamma0_macroscopic(eps: complex, k0: float, r_m: float) -> float:
    """Infinite-medium rate from the regularized macroscopic field.

    Near-field (nonradiative) transfer plus the radiative rate eta; r_m is
    the effective molecule-medium distance of the regularization.
    """
    _medium_x(eps, k0, r_m, name="r_m")
    return _gamma0(eps, sqrt_eps(eps).real, abs(eps) ** 2, k0, r_m)


def _gamma0(eps, eta, abs2, k0, r_m):
    return 1.5 * eps.imag / abs2 / (k0 * r_m) ** 3 + eta


def _power_beyond(eps, root, k0, r, moment) -> float:
    """Power crossing radius r in an infinite medium eps (root = sqrt(eps)),
    the flux out plus all absorption beyond, from a dipole whose outgoing
    amplitude at r is moment (the dipole moment times e^{i root k0 r}).
    That amplitude carries the decay, so the power needs no exponential
    and is finite wherever the amplitude is."""
    return abs(moment) ** 2 * (eps.imag / abs(eps) ** 2
                               * abs(1 - 1j * root * k0 * r) ** 2
                               / (k0 * r) ** 3 + root.real)


def w0_cutoff(eps: complex, k0: float, r_c: float) -> float:
    """Infinite-medium power loss with the field cut off inside radius r_c.

    Exact energy-balance result: flux through any sphere of radius r >= r_c
    plus the absorption in the shell between r_c and r, independent of r.
    """
    _medium_x(eps, k0, r_c)
    root = sqrt_eps(eps)
    return _power_beyond(eps, root, k0, r_c, exp(1j * root * k0 * r_c))


def w0_expanded(eps: complex, k0: float, r_c: float) -> float:
    """Small-cutoff form of the infinite-medium power loss.

    Keeps the (k0 r_c)^-3 and (k0 r_c)^-1 near-field terms, the cutoff-free
    absorption term -(2/3)(eta eps'' + kappa eps'), and the radiative rate
    eta.  The first omitted order is linear in k0 r_c.
    """
    x = _medium_x(eps, k0, r_c, "w0_expanded")
    eta, kappa = eta_kappa(eps)
    bracket = x ** -3 + eps.real / x \
        - (2 / 3) * (eta * eps.imag + kappa * eps.real)
    return eps.imag / abs(eps) ** 2 * bracket + eta


def gamma0_loc(eps: complex, k0: float, r_c: float) -> float:
    """Infinite-medium rate with real-cavity local-field corrections.

    The local-field factor multiplies the radiative rate and a bracket of
    absorption terms: the near-field (k0 r_c)^-3 term, a (k0 r_c)^-1 term,
    and a cutoff-free negative contribution that survives as r_c -> 0.
    """
    x = _medium_x(eps, k0, r_c, "gamma0_loc")
    _, abs_den, factor = _real_cavity(eps)
    return _gamma0_loc(eps, sqrt_eps(eps), abs(eps) ** 2, abs_den, factor, x)


def _gamma0_loc(eps, root, abs2, abs_den, factor, x):
    eta, kappa = root.real, root.imag
    den2 = abs_den ** 2
    bracket = x ** -3 \
        + (28 * abs2 + 16 * eps.real + 1) / (5 * den2) / x \
        - 2 * (2 * kappa * abs2 + kappa * eps.real + eta * eps.imag) / den2
    return factor * (eta + eps.imag / abs2 * bracket)


def p_eff_expansion(eps: complex, k0: float, r_c: float) -> complex:
    """Effective moment driving the medium outside a small empty cavity.

    Small-cavity expansion of the transmitted amplitude (divided by eps):
    the leading term is the static factor 3 eps/(2 eps + 1); corrections
    start at (k0 r_c)**2 and the first omitted order is (k0 r_c)**4.
    """
    x = _medium_x(eps, k0, r_c, "p_eff_expansion")
    den = _real_cavity(eps)[0]
    quad = (10 * eps * eps - 9 * eps - 1) / (10 * den)
    cubic = (2 / 3) * (eps * sqrt_eps(eps)) * (eps - 1) / den  # eps^{3/2}
    return 3 * eps / den * (1 - quad * x ** 2 - 1j * cubic * x ** 3)


def gamma_hat_total(stack: ml.LayerStack, k0: float) -> float:
    """Exact normalized rate 1 + Re c1 for a vacuum-centered stack.

    The innermost layer must be vacuum (the empty cavity hosting the
    dipole); the central power loss is then W_free times this value.
    """
    if largest(abs(stack.eps[0] - 1)) > 1e-12:
        raise DomainError(
            f"innermost layer must be vacuum, got eps1 = {stack.eps[0]}")
    return 1 + ml.coefficients(stack, k0).c1.real


def _bare_sphere(eps, eps_ext, radius, k0, m=None):
    """The bare sphere's cavity-induced rate Re[sqrt(eps) c1] and level
    shift Im[sqrt(eps) c1]/2, c1, its external dipole times e^{i k_ext R}
    (the outgoing amplitude at its surface, (eps/eps_ext) e^{iz_in} t from
    the engine's one step), sqrt(eps) and sqrt(eps_ext), after checking
    k0, then the radius (the recursion's one width), unless route m did;
    each root is formed once."""
    m = m or route((k0, radius), (eps, eps_ext), (K0, RADII))
    roots, radii = (sqrt_eps(eps), sqrt_eps(eps_ext)), (radius,)
    ((c1, z, _, t),), _ = ml._amplitudes(radii, (eps, eps_ext), roots, k0,
                                         m, radii)
    root_c1 = roots[0] * c1
    return (root_c1.real, 0.5 * root_c1.imag, c1,
            eps / eps_ext * m.exp(1j * z) * t, *roots)


def gamma_sc(eps: complex, eps_ext: complex, radius: float,
             k0: float) -> float:
    """Cavity-induced rate of the bare sphere: Re[sqrt(eps) c1]."""
    return _bare_sphere(eps, eps_ext, radius, k0)[0]


def gamma_sc_loc_from_bare(eps: complex, gamma_sc_hat: float,
                           delta_sc_hat: float) -> float:
    """Local-field-corrected cavity rate from the bare-sphere rate and shift.

    The correction has the same shape as the cutoff-free absorption term of
    the infinite-medium rate, with the radiative rate replaced by the bare
    cavity rate and the extinction coefficient by twice the bare shift.
    """
    _, abs_den, factor = _real_cavity(require(eps, FINITE_EPS, finite))
    correction = 2 * eps.imag / abs(eps) ** 2 * (
        2 * (2 * abs(eps) ** 2 + eps.real) * delta_sc_hat
        + eps.imag * gamma_sc_hat) / abs_den ** 2
    return factor * (gamma_sc_hat - correction)


def _c1_weight(eps, root, den):
    """9 eps^{5/2}/(2 eps + 1)**2: gamma_sc_loc is Re[weight c1]."""
    return 9 * (eps * eps * root) / (den * den)


def gamma_sc_loc(eps: complex, eps_ext: complex, radius: float,
                 k0: float) -> float:
    """Cavity-induced rate with real-cavity local-field corrections.

    Computed directly as Re[9 eps^{5/2}/(2 eps + 1)**2 c1] for the bare
    sphere.  gamma_sc_loc_from_bare is the algebraically identical form,
    built from the bare rate and shift, that the verification battery
    checks this one against.
    """
    _, _, c1, _, root, _ = _bare_sphere(eps, eps_ext, radius, k0)
    return (_c1_weight(eps, root, _real_cavity(eps)[0]) * c1).real


def identity_rep_decomposition(eps: complex) -> tuple[float, float]:
    """Both sides of the cutoff-free-term identity.

    Re[9 eps^{5/2}/(2 eps + 1)**2] equals the local-field factor times eta
    minus an absorption correction; the two expressions are algebraically
    identical and are returned for verification.
    """
    den, abs_den, factor = _real_cavity(eps)
    root = sqrt_eps(eps)
    lhs = _c1_weight(eps, root, den).real
    rhs = factor * root.real - 18 * eps.imag * (
        (2 * abs(eps) ** 2 + eps.real) * root.imag + eps.imag * root.real
    ) / (abs_den * abs_den) ** 2  # not ** 4: AVX-512's pow moves a bit
    return lhs, rhs


def external_dipole(stack: ml.LayerStack, k0: float) -> complex:
    """Effective moment radiating in the outermost medium.

    The field there equals that of a dipole of moment (eps1/epsN) c_outer
    immersed in the infinite outer medium.
    """
    c_outer = ml.coefficients(stack, k0).c_outer
    return stack.eps[0] / stack.eps[-1] * c_outer


def _moment_at(stack: ml.LayerStack, k0: float, r, name: str):
    """eps_N, sqrt(eps_N) and the external dipole times e^{i k_N r}, once
    r (named name) is real, finite and not inside the outermost radius."""
    outer_radius = stack.radii[-1]
    require(r, name + " = {:g} lies inside the outermost interface {:g}",
            lambda r: np.greater_equal(np.real(r), outer_radius).all(),
            largest(outer_radius))  # NaN lies inside too
    require(r, name + " = {:g} must be real and finite")
    p_n, root = external_dipole(stack, k0), sqrt_eps(stack.eps[-1])
    return stack.eps[-1], root, p_n * exp(1j * root * k0 * r)


def external_power(stack: ml.LayerStack, k0: float,
                   r_obs: float | None = None) -> float:
    """Power lost to the region beyond radius r_obs (units of W_free).

    r_obs defaults to the outermost interface, giving the total external
    power loss; any larger radius gives the flux crossing it plus all
    absorption beyond, which the analytic form combines into a single
    expression for the effective external dipole.
    """
    r_obs = stack.radii[-1] if r_obs is None else r_obs
    eps_n, root, moment = _moment_at(stack, k0, r_obs, "r_obs")
    return _power_beyond(eps_n, root, k0, r_obs, moment)


def angular_radiation(stack: ml.LayerStack, k0: float, r: float, theta):
    """Angular density of the radiated power at (r, theta), per solid angle.

    Only the far-field (1/r) part of the external field contributes; the
    density carries the sin**2 dipole pattern and the exterior attenuation.
    Units of W_free, so the full-sphere integral in a lossless exterior
    equals the radiation part of external_power.
    """
    _, root, moment = _moment_at(stack, k0, r, "r")
    density = (3 / (8 * math.pi)) * root.real * abs(moment) ** 2 \
        * np.sin(theta) ** 2
    # np.sin makes a numpy scalar of a number
    return density if isinstance(density, np.ndarray) else float(density)


@dataclass
class RateReport:
    """All normalized rates and shifts for one frequency and geometry, in
    a plain record: nothing assigns to a field after construction.  x_c is
    k0 r_c, whose range the report's caller checks (EXPANSION_LIMIT)."""

    gamma0_hat: float
    gamma0_loc_hat: float
    gamma_sc_hat: float
    delta_sc_hat: float
    gamma_sc_loc_hat: float
    gamma_loc_hat: float
    w_ext_hat: float
    w_ext_loc_hat: float
    onsager_factor: float
    lorentz_factor: float
    x_c: float

    @property
    def gamma_hat(self) -> float:
        """Total uncorrected rate: infinite-medium plus cavity-induced."""
        return self.gamma0_hat + self.gamma_sc_hat


def rate_report(eps: complex, eps_ext: complex, radius: float, r_c: float,
                r_m: float, k0: float) -> RateReport:
    """Assemble every reported rate for a sphere in a host medium.

    eps is the sphere permittivity, eps_ext the host, radius the sphere
    radius; r_c is the empty-cavity radius of the local-field model and r_m
    the regularization distance of the macroscopic rate.  It issues no
    ExpansionRangeWarning, however large k0 r_c (its x_c) is.
    """
    m = route((k0, radius, r_m, r_c), (eps, eps_ext),
              (K0, RADII, "r_m must be positive", "r_c must be positive"))
    g_sc, d_sc, c1, moment, root, root_ext = _bare_sphere(eps, eps_ext,
                                                          radius, k0, m)
    abs2 = abs(eps) ** 2
    den, abs_den, factor = _real_cavity(eps, m)
    g_sc_loc = (_c1_weight(eps, root, den) * c1).real
    x_m, x = k0 * r_m, k0 * r_c
    if m is Mixed or not (X_MIN <= x_m <= X_MAX and X_MIN <= x <= X_MAX):
        scaled(x_m, "r_m"), scaled(x, "r_c")
    g0 = _gamma0(eps, root.real, abs2, k0, r_m)
    g0_loc = _gamma0_loc(eps, root, abs2, abs_den, factor, x)
    w_ext = _power_beyond(eps_ext, root_ext, k0, radius, moment)
    # positional, in field order
    return RateReport(g0, g0_loc, g_sc, d_sc, g_sc_loc, g0_loc + g_sc_loc,
                      w_ext, factor * w_ext, factor, _lorentz(eps), x)
