"""Dielectric-function models and derived optical quantities.

Internally the package works in dimensionless units: frequencies in units
of the resonance frequency of the medium model, lengths in units of
c / omega0 (so k0 = omega numerically), and c = 1.

The complex refractive index is the principal square root of eps, which
for passive media (Im eps >= 0) has a non-negative imaginary part.  That
branch makes outgoing waves e^{ikr} decay, as they must in an absorbing
medium.  Fractional powers eps^{3/2} and eps^{5/2} are built from the same
root so frequency sweeps never jump across a branch cut.  Permittivities
and frequencies may be numpy arrays: a whole grid is evaluated at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._elementwise import elementwise, smallest
from .errors import DomainError


@elementwise(pole="square root branch undefined at eps = 0")
def sqrt_eps(eps, m):
    """Complex refractive index: principal square root of eps.

    The real part is the refraction coefficient eta, the imaginary part
    the extinction coefficient kappa; (eta + i kappa)**2 reconstructs eps.
    For real positive eps the positive real root is returned.
    """
    return m.sqrt(eps)


def eta_kappa(eps: complex) -> tuple[float, float]:
    """(eta, kappa) pair for a given permittivity."""
    root = sqrt_eps(eps)
    return root.real, root.imag


def eps_pow_3_2(eps: complex) -> complex:
    """eps^{3/2} through the passive square-root branch."""
    return eps * sqrt_eps(eps)


def eps_pow_5_2(eps: complex) -> complex:
    """eps^{5/2} through the passive square-root branch."""
    return eps * eps * sqrt_eps(eps)


@dataclass(frozen=True)
class ComplexPermittivity:
    """Permittivity at one frequency with its derived optical quantities."""

    eps: complex
    eta: float
    kappa: float

    @classmethod
    def from_eps(cls, eps: complex) -> "ComplexPermittivity":
        eta, kappa = eta_kappa(eps)
        return cls(eps=eps, eta=eta, kappa=kappa)

    def wavenumber(self, k0: float) -> complex:
        """Complex wavenumber sqrt(eps) * k0."""
        return (self.eta + 1j * self.kappa) * k0


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
        if self.eps_b < 1:
            raise DomainError(f"eps_b = {self.eps_b:g} must be >= 1")
        if self.omega0 <= 0:
            raise DomainError(f"omega0 = {self.omega0:g} must be > 0")
        if self.gamma <= 0:
            raise DomainError(f"gamma = {self.gamma:g} must be > 0")
        if self.Omega < 0:
            raise DomainError(f"Omega = {self.Omega:g} must be >= 0")


def eval_lorentz(medium: LorentzMedium, omega: float) -> ComplexPermittivity:
    """Oscillator permittivity at a (positive) frequency.

    Im eps is strictly positive for every omega > 0 whenever Omega > 0,
    so the model is passive at all frequencies.  omega may be an array.
    """
    if smallest(omega) <= 0:
        raise DomainError(f"omega = {smallest(omega):g} must be > 0")
    den = medium.omega0 ** 2 - omega ** 2 - 1j * omega * medium.gamma
    eps = medium.eps_b + medium.Omega ** 2 / den
    return ComplexPermittivity.from_eps(eps)


def constant_medium(eps: complex) -> ComplexPermittivity:
    """Frequency-independent permittivity (must be passive: Im eps >= 0)."""
    eps = complex(eps)
    if eps.imag < 0:
        raise DomainError(f"eps = {eps} is not passive (Im eps < 0)")
    return ComplexPermittivity.from_eps(eps)
