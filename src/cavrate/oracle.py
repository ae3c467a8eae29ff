"""Independent power-loss verification by direct Poynting integration.

The routines here never touch the closed-form power expressions; they only
consume a field evaluator (r, theta) -> (E_r, E_theta, B_phi) and integrate
the radial Poynting flux c/(8 pi) Re[E x B*] . r_hat over spheres and the
ohmic dissipation omega eps''/(8 pi) |E|**2 over shells.

The configuration is axisymmetric, so the azimuthal integral is the exact
factor 2 pi, and the polar integrand is a low-degree polynomial in
cos(theta), which fixed-order Gauss-Legendre integrates exactly.  Only the
radial integration is adaptive.  Results are in units of the free-space
radiated power W_free = c k0**4 / 3 of the unit dipole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure

_GAUSS_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
_GL_THETA = np.arccos(_GL_NODES)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive radial integration."""

    rel_tol: float = 1e-10
    max_depth: int = 30

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise DomainError(f"rel_tol = {self.rel_tol:g} must be > 0")
        if self.max_depth < 1:
            raise DomainError(f"max_depth = {self.max_depth} must be >= 1")


def _adaptive_simpson(fn, a: float, b: float, quad: QuadratureSpec) -> float:
    """Adaptive Simpson integration of a real scalar function on [a, b]."""
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    # absolute budget anchored to the coarse estimate of the whole integral
    budget = quad.rel_tol * max(abs(whole), 1e-300)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15 * tol:
            return left + right + err / 15
        if depth >= quad.max_depth:
            raise QuadratureFailure(
                f"radial integral not converged on [{a:g}, {b:g}] at depth "
                f"{depth} (local error {abs(err):.3e}, budget {tol:.3e})")
        return (recurse(a, fa, lm, flm, m, fm, left, tol / 2, depth + 1)
                + recurse(m, fm, rm, frm, b, fb, right, tol / 2, depth + 1))

    return recurse(a, fa, m, fm, b, fb, whole, budget, 1)


def flux_through_sphere(fields, r: float, k0: float) -> float:
    """Power crossing the sphere of radius r, in units of W_free.

    Integrates r**2 r_hat . P over the full solid angle, with
    P = c/(8 pi) Re[E x B*]; the radial component reduces to
    Re[E_theta B_phi*] for the axisymmetric dipole field.
    """
    if r <= 0:
        raise DomainError("r must be positive")
    _, e_theta, b_phi = fields(r, _GL_THETA)
    integrand = (e_theta * np.conj(b_phi)).real
    # (c/8pi) * 2pi * r^2 * integral over cos(theta)
    power = 0.25 * r * r * float(np.dot(_GL_WEIGHTS, integrand))
    return power / (k0 ** 4 / 3)


def absorbed_power(fields, r_inner: float, r_outer: float, eps_local: complex,
                   k0: float, quad: QuadratureSpec | None = None) -> float:
    """Power absorbed in the shell r_inner <= r <= r_outer, units of W_free.

    Integrates omega eps''/(8 pi) |E|**2 over the shell volume; the shell
    must lie inside a single layer so eps_local is constant on it.
    """
    if not 0 < r_inner <= r_outer:
        raise DomainError("need 0 < r_inner <= r_outer")
    eps_local = complex(eps_local)
    if eps_local.imag < 0:
        raise DomainError("eps'' must be non-negative for a passive layer")
    if eps_local.imag == 0 or r_inner == r_outer:
        return 0.0
    if quad is None:
        quad = QuadratureSpec()

    def shell_density(r):
        e_r, e_theta, _ = fields(r, _GL_THETA)
        mag = (e_r * np.conj(e_r)).real + (e_theta * np.conj(e_theta)).real
        return r * r * float(np.dot(_GL_WEIGHTS, mag))

    integral = _adaptive_simpson(shell_density, r_inner, r_outer, quad)
    # omega eps''/(8 pi) times the 2 pi azimuthal factor, with omega = c k0
    power = k0 * eps_local.imag / 4 * integral
    return power / (k0 ** 4 / 3)


def energy_balance(fields, r_inner: float, r_outer: float, eps_local: complex,
                   k0: float, quad: QuadratureSpec | None = None) -> float:
    """Relative defect of energy conservation across a shell.

    Power entering at r_inner either leaves at r_outer or is absorbed in
    between; returns |flux(out) + absorbed - flux(in)| / flux(in).
    """
    w_in = flux_through_sphere(fields, r_inner, k0)
    w_out = flux_through_sphere(fields, r_outer, k0)
    w_abs = absorbed_power(fields, r_inner, r_outer, eps_local, k0, quad)
    return abs(w_out + w_abs - w_in) / abs(w_in)
