"""Dielectric-function models and derived optical quantities.

Internally the package works in dimensionless units: frequencies in units
of the resonance frequency of the medium model, lengths in units of
c / omega0 (so k0 = omega numerically), and c = 1.

The complex refractive index is the principal square root of eps, which
for passive media (Im eps >= 0) has a non-negative imaginary part.  That
branch makes outgoing waves e^{ikr} decay, as they must in an absorbing
medium.  Fractional powers such as eps^{3/2} are built as eps times this
root, so frequency sweeps never jump across a branch cut.  Permittivities
and frequencies may be numpy arrays: a whole grid is evaluated at once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from ._elementwise import FINITE_EPS, elementwise, finite, nonnegative, require


_sqrt = elementwise(pole="square root branch undefined at eps = 0")(
    lambda z, m: m.sqrt(z))


def sqrt_eps(eps):
    """Complex refractive index: principal square root of eps.

    The real part is the refraction coefficient eta, the imaginary part
    the extinction coefficient kappa; (eta + i kappa)**2 reconstructs eps.
    For real positive eps the positive real root is returned.  A NaN or
    infinite part of eps raises DomainError.
    """
    if type(eps) is complex and eps and cmath.isfinite(eps):  # fast path
        return cmath.sqrt(eps)
    return _sqrt(require(eps, FINITE_EPS, finite))


def eta_kappa(eps: complex) -> tuple[float, float]:
    """(eta, kappa) pair for a given permittivity."""
    root = sqrt_eps(eps)
    return root.real, root.imag


@dataclass(frozen=True)
class ComplexPermittivity:
    """Permittivity at one frequency with its derived optical quantities."""

    eps: complex
    eta: float
    kappa: float


@dataclass(frozen=True)
class LorentzMedium:
    """Single-resonance oscillator permittivity.

    eps(omega) = eps_b + Omega**2 / (omega0**2 - omega**2 - i omega gamma)

    eps_b is the background (high-frequency) dielectric constant, omega0
    the resonance center, gamma its width and Omega**2 its strength.  All
    frequencies share the same unit (omega0 itself in the CLI).
    """

    eps_b: float
    omega0: float
    Omega: float
    gamma: float

    def __post_init__(self):
        require(self.eps_b, "eps_b = {:g} must be >= 1",
                lambda eps_b: nonnegative(eps_b - 1))
        require(self.omega0, "omega0 = {:g} must be > 0")
        require(self.gamma, "gamma = {:g} must be > 0")
        require(self.Omega, "Omega = {:g} must be >= 0", nonnegative)


def eval_lorentz(medium: LorentzMedium, omega: float) -> ComplexPermittivity:
    """Oscillator permittivity at a (positive) frequency.

    Im eps is strictly positive for every omega > 0 whenever Omega > 0,
    so the model is passive at all frequencies.  omega may be an array.
    """
    require(omega, "omega = {:g} must be > 0")
    den = medium.omega0 ** 2 - omega ** 2 - 1j * omega * medium.gamma
    eps = medium.eps_b + medium.Omega ** 2 / den
    return ComplexPermittivity(eps, *eta_kappa(eps))

