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
from ._elementwise import exp, largest, smallest
from .dielectric import eps_pow_3_2, eps_pow_5_2, eta_kappa, sqrt_eps
from .errors import DomainError, ExpansionRangeWarning

# beyond k0*r_c ~ 0.3 the omitted expansion orders reach the percent level
EXPANSION_LIMIT = 0.3

_ONSAGER_POLE_TOL = 1e-12


def lorentz_factor(eps: complex) -> float:
    """Virtual-cavity local-field factor |(eps + 2)/3|**2."""
    return abs((eps + 2) / 3) ** 2


def onsager_factor(eps: complex) -> float:
    """Real-cavity local-field factor |3 eps/(2 eps + 1)|**2."""
    den = 2 * eps + 1
    if smallest(abs(den)) < _ONSAGER_POLE_TOL:
        raise DomainError("real-cavity factor has a pole at eps = -1/2")
    return abs(3 * eps / den) ** 2


def _expansion_guard(k0: float, r_c: float, what: str) -> float:
    x = k0 * r_c
    x_max = largest(x)
    if x_max >= EXPANSION_LIMIT:
        warnings.warn(
            f"{what}: k0*r_c = {x_max:.3g} is outside the small-cavity range "
            f"(< {EXPANSION_LIMIT:g}); omitted orders may reach percents",
            ExpansionRangeWarning, stacklevel=3)
    return x


def nonradiative_nearfield(eps: complex, k0: float, r_m: float) -> float:
    """Macroscopic near-field transfer rate, (3/2)(eps''/|eps|^2)(k0 r_m)^-3."""
    return 1.5 * eps.imag / abs(eps) ** 2 / (k0 * r_m) ** 3


def cavity_nearfield(eps: complex, k0: float, r_c: float) -> float:
    """Real-cavity near-field term, (eps''/|eps|^2)(k0 r_c)^-3, before the
    overall local-field factor."""
    return eps.imag / abs(eps) ** 2 / (k0 * r_c) ** 3


def gamma0_macroscopic(eps: complex, k0: float, r_m: float) -> float:
    """Infinite-medium rate from the regularized macroscopic field.

    Near-field (nonradiative) transfer plus the radiative rate eta; r_m is
    the effective molecule-medium distance of the regularization.
    """
    if smallest(r_m) <= 0:
        raise DomainError("r_m must be positive")
    eta, _ = eta_kappa(eps)
    return nonradiative_nearfield(eps, k0, r_m) + eta


def _power_beyond(eps: complex, k0: float, r: float) -> float:
    """Analytic power crossing radius r in an infinite medium (unit dipole).

    Equals the flux through the sphere of radius r, or equivalently the
    total power dissipated beyond r (flux out plus downstream absorption).
    """
    eta, kappa = eta_kappa(eps)
    k = (eta + 1j * kappa) * k0
    x = k0 * r
    envelope = abs((1 - 1j * k * r) * exp(1j * k * r)) ** 2
    absorption = eps.imag / abs(eps) ** 2 * envelope / x ** 3
    radiation = eta * exp(-2 * kappa * x).real
    return absorption + radiation


def w0_cutoff(eps: complex, k0: float, r_c: float) -> float:
    """Infinite-medium power loss with the field cut off inside radius r_c.

    Exact energy-balance result: flux through any sphere of radius r >= r_c
    plus the absorption in the shell between r_c and r, independent of r.
    """
    if smallest(r_c) <= 0:
        raise DomainError("r_c must be positive")
    return _power_beyond(eps, k0, r_c)


def w0_expanded(eps: complex, k0: float, r_c: float) -> float:
    """Small-cutoff form of the infinite-medium power loss.

    Keeps the (k0 r_c)^-3 and (k0 r_c)^-1 near-field terms, the cutoff-free
    absorption term -(2/3)(eta eps'' + kappa eps'), and the radiative rate
    eta.  The first omitted order is linear in k0 r_c.
    """
    if smallest(r_c) <= 0:
        raise DomainError("r_c must be positive")
    x = _expansion_guard(k0, r_c, "w0_expanded")
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
    if smallest(r_c) <= 0:
        raise DomainError("r_c must be positive")
    x = _expansion_guard(k0, r_c, "gamma0_loc")
    factor = onsager_factor(eps)
    eta, kappa = eta_kappa(eps)
    abs2 = abs(eps) ** 2
    den2 = abs(2 * eps + 1) ** 2
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
    if smallest(r_c) <= 0:
        raise DomainError("r_c must be positive")
    x = _expansion_guard(k0, r_c, "p_eff_expansion")
    den = 2 * eps + 1
    if smallest(abs(den)) < _ONSAGER_POLE_TOL:
        raise DomainError("expansion has a pole at eps = -1/2")
    quad = (10 * eps * eps - 9 * eps - 1) / (10 * den)
    cubic = (2 / 3) * eps_pow_3_2(eps) * (eps - 1) / den
    return 3 * eps / den * (1 - quad * x ** 2 - 1j * cubic * x ** 3)


def gamma_hat_total(stack: ml.LayerStack, k0: float) -> float:
    """Exact normalized rate 1 + Re c1 for a vacuum-centered stack.

    The innermost layer must be vacuum (the empty cavity hosting the
    dipole); the central power loss is then W_free times this value.
    """
    if abs(stack.eps[0] - 1) > 1e-12:
        raise DomainError(
            f"innermost layer must be vacuum, got eps1 = {stack.eps[0]}")
    coeffs = ml.coefficients(stack, k0)
    return 1 + coeffs.c1.real


def gamma_sc(eps: complex, eps_ext: complex, radius: float,
             k0: float) -> float:
    """Cavity-induced rate of the bare sphere: Re[sqrt(eps) c1]."""
    coeffs = ml.coeffs_two_layer(eps, eps_ext, radius, k0)
    return (sqrt_eps(eps) * coeffs.c1).real


def delta_sc(eps: complex, eps_ext: complex, radius: float,
             k0: float) -> float:
    """Cavity-induced level shift of the bare sphere: Im[sqrt(eps) c1]/2."""
    coeffs = ml.coeffs_two_layer(eps, eps_ext, radius, k0)
    return 0.5 * (sqrt_eps(eps) * coeffs.c1).imag


def gamma_sc_loc_from_bare(eps: complex, gamma_sc_hat: float,
                           delta_sc_hat: float) -> float:
    """Local-field-corrected cavity rate from the bare-sphere rate and shift.

    The correction has the same shape as the cutoff-free absorption term of
    the infinite-medium rate, with the radiative rate replaced by the bare
    cavity rate and the extinction coefficient by twice the bare shift.
    """
    factor = onsager_factor(eps)
    den2 = abs(2 * eps + 1) ** 2
    correction = 2 * eps.imag / abs(eps) ** 2 * (
        2 * (2 * abs(eps) ** 2 + eps.real) * delta_sc_hat
        + eps.imag * gamma_sc_hat) / den2
    return factor * (gamma_sc_hat - correction)


def _gamma_sc_loc_of_c1(eps: complex, c1: complex) -> float:
    """Re[9 eps^{5/2}/(2 eps + 1)**2 c1] for the bare-sphere amplitude c1."""
    den = 2 * eps + 1
    if smallest(abs(den)) < _ONSAGER_POLE_TOL:
        raise DomainError("local-field factor has a pole at eps = -1/2")
    return (9 * eps_pow_5_2(eps) / (den * den) * c1).real


def gamma_sc_loc(eps: complex, eps_ext: complex, radius: float,
                 k0: float) -> float:
    """Cavity-induced rate with real-cavity local-field corrections.

    Computed directly as Re[9 eps^{5/2}/(2 eps + 1)**2 c1] for the bare
    sphere.  gamma_sc_loc_from_bare is the algebraically identical form,
    built from the bare rate and shift, that the verification battery
    checks this one against.
    """
    coeffs = ml.coeffs_two_layer(eps, eps_ext, radius, k0)
    return _gamma_sc_loc_of_c1(eps, coeffs.c1)


def identity_rep_decomposition(eps: complex) -> tuple[float, float]:
    """Both sides of the cutoff-free-term identity.

    Re[9 eps^{5/2}/(2 eps + 1)**2] equals the local-field factor times eta
    minus an absorption correction; the two expressions are algebraically
    identical and are returned for verification.
    """
    den = 2 * eps + 1
    if smallest(abs(den)) < _ONSAGER_POLE_TOL:
        raise DomainError("identity has a pole at eps = -1/2")
    lhs = (9 * eps_pow_5_2(eps) / (den * den)).real
    eta, kappa = eta_kappa(eps)
    rhs = onsager_factor(eps) * eta - 18 * eps.imag * (
        (2 * abs(eps) ** 2 + eps.real) * kappa + eps.imag * eta
    ) / abs(den) ** 4
    return lhs, rhs


def external_dipole(stack: ml.LayerStack, k0: float) -> complex:
    """Effective moment radiating in the outermost medium.

    The field there equals that of a dipole of moment (eps1/epsN) c_outer
    immersed in the infinite outer medium.
    """
    coeffs = ml.coefficients(stack, k0)
    return stack.eps[0] / stack.eps[-1] * coeffs.c_outer


def external_power(stack: ml.LayerStack, k0: float,
                   r_obs: float | None = None) -> float:
    """Power lost to the region beyond radius r_obs (units of W_free).

    r_obs defaults to the outermost interface, giving the total external
    power loss; any larger radius gives the flux crossing it plus all
    absorption beyond, which the analytic form combines into a single
    expression for the effective external dipole.
    """
    outer_radius = stack.radii[-1]
    if r_obs is None:
        r_obs = outer_radius
    elif r_obs < outer_radius:
        raise DomainError(
            f"r_obs = {r_obs:g} lies inside the outermost interface "
            f"{outer_radius:g}")
    p_n = external_dipole(stack, k0)
    return abs(p_n) ** 2 * _power_beyond(stack.eps[-1], k0, r_obs)


def angular_radiation(stack: ml.LayerStack, k0: float, r: float, theta):
    """Angular density of the radiated power at (r, theta), per solid angle.

    Only the far-field (1/r) part of the external field contributes; the
    density carries the sin**2 dipole pattern and the exterior attenuation.
    Units of W_free, so the full-sphere integral in a lossless exterior
    equals the radiation part of external_power.
    """
    if r < stack.radii[-1]:
        raise DomainError(f"r = {r:g} lies inside the outermost interface")
    eps_n = stack.eps[-1]
    eta_n, kappa_n = eta_kappa(eps_n)
    p_n = external_dipole(stack, k0)
    theta = np.asarray(theta)
    return (3 / (8 * math.pi)) * eta_n * abs(p_n) ** 2 \
        * math.exp(-2 * kappa_n * k0 * r) * np.sin(theta) ** 2


def approx_rates(eps: complex, gamma_sc_hat: float, k0: float, r_c: float,
                 mode: str = "resonance") -> float:
    """Shorthand forms of the corrected total rate, for diagnostics.

    mode 'resonance' keeps only the radiative pieces, valid when absorption
    corrections are small; 'intermediate' adds the near-field term, for
    cavity radii where nonradiative and radiative losses are comparable.
    """
    eta, _ = eta_kappa(eps)
    factor = onsager_factor(eps)
    if mode == "resonance":
        return factor * (eta + gamma_sc_hat)
    if mode == "intermediate":
        return factor * (cavity_nearfield(eps, k0, r_c) + eta + gamma_sc_hat)
    raise DomainError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class RateReport:
    """All normalized rates and shifts for one frequency and geometry."""

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

    @property
    def gamma_hat(self) -> float:
        """Total uncorrected rate: infinite-medium plus cavity-induced."""
        return self.gamma0_hat + self.gamma_sc_hat


def rate_report(eps: complex, eps_ext: complex, radius: float, r_c: float,
                r_m: float, k0: float) -> RateReport:
    """Assemble every reported rate for a sphere in a host medium.

    eps is the sphere permittivity, eps_ext the host, radius the sphere
    radius; r_c is the empty-cavity radius of the local-field model and r_m
    the regularization distance of the macroscopic rate.
    """
    coeffs = ml.coeffs_two_layer(eps, eps_ext, radius, k0)
    root_c1 = sqrt_eps(eps) * coeffs.c1
    g_sc = root_c1.real
    d_sc = 0.5 * root_c1.imag
    g_sc_loc = _gamma_sc_loc_of_c1(eps, coeffs.c1)
    g0 = gamma0_macroscopic(eps, k0, r_m)
    g0_loc = gamma0_loc(eps, k0, r_c)
    p_ext = eps / eps_ext * coeffs.c_outer
    w_ext = abs(p_ext) ** 2 * _power_beyond(eps_ext, k0, radius)
    factor = onsager_factor(eps)
    return RateReport(
        gamma0_hat=g0,
        gamma0_loc_hat=g0_loc,
        gamma_sc_hat=g_sc,
        delta_sc_hat=d_sc,
        gamma_sc_loc_hat=g_sc_loc,
        gamma_loc_hat=g0_loc + g_sc_loc,
        w_ext_hat=w_ext,
        w_ext_loc_hat=factor * w_ext,
        onsager_factor=factor,
        lorentz_factor=lorentz_factor(eps),
    )
