"""Independent power-loss verification by direct Poynting integration.

The routines here never touch the closed-form power expressions; they only
consume a field evaluator (r, theta) -> (E_r, E_theta, B_phi) and integrate
the radial Poynting flux c/(8 pi) Re[E x B*] . r_hat over spheres and the
ohmic dissipation omega eps''/(8 pi) |E|**2 over shells.

The configuration is axisymmetric, so the azimuthal integral is the exact
factor 2 pi, and the polar integrand is a low-degree polynomial in
cos(theta), which fixed-order Gauss-Legendre integrates exactly.  Only the
radial integration is adaptive, with one field call per bisection level
on the 16- and 32-node rules of every open panel.  Results are in units
of the free-space radiated power W_free = c k0**4 / 3 of the unit dipole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureFailure

_GAUSS_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
# math.acos: numpy's AVX-512 arccos moves a last bit, and the battery with it
_GL_THETA = np.array([math.acos(x) for x in _GL_NODES])
# radial panels: the 16-node rule's nodes and weights, then the 32-node rule's
_PANEL_NODES, _PANEL_WEIGHTS = map(np.concatenate, zip(
    np.polynomial.legendre.leggauss(16), np.polynomial.legendre.leggauss(32)))
# more open panels at one level than this: the integral does not converge
_MAX_OPEN_PANELS = 512


@dataclass(frozen=True)
class QuadratureSpec:
    """Radial integration tolerances; max_depth counts bisection levels."""

    rel_tol: float = 1e-10
    max_depth: int = 30

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol = {self.rel_tol:g} must be > 0")
        if not self.max_depth >= 1:
            raise DomainError(f"max_depth = {self.max_depth} must be >= 1")


def _adaptive_gauss(fn, a: float, b: float, quad: QuadratureSpec) -> float:
    """Breadth-first adaptive Gauss-Legendre integral of fn on [a, b].

    fn maps a 1-d array of points to the integrand's values.  A panel is
    accepted when its 16- and 32-node rules differ by at most its width's
    share of rel_tol * |G32 over [a, b]|, and then adds its G32.
    """
    lo, half = np.array([a]), 0.5 * (b - a)
    total = 0.0
    for depth in range(1, quad.max_depth + 1):
        nodes = (lo + half)[:, None] + half * _PANEL_NODES
        values = half * fn(nodes.ravel()).reshape(nodes.shape)
        g16 = values[:, :16] @ _PANEL_WEIGHTS[:16]
        g32 = values[:, 16:] @ _PANEL_WEIGHTS[16:]
        if depth == 1:
            # absolute budget anchored to the estimate of the whole integral
            budget = quad.rel_tol * max(abs(g32[0]), 1e-300)
        err = abs(g32 - g16)
        done = err <= budget
        total += float(g32[done].sum())
        if done.all():
            return total
        if depth == quad.max_depth or 2 * (~done).sum() > _MAX_OPEN_PANELS:
            worst = int(np.argmax(err))
            raise QuadratureFailure(
                f"radial integral not converged on [{lo[worst]:g}, "
                f"{lo[worst] + 2 * half:g}] at depth {depth} (local error "
                f"{err[worst]:.3e}, budget {budget:.3e})")
        # every panel of a level has the same width, hence the same share
        budget, half = 0.5 * budget, 0.5 * half
        lo = np.concatenate([lo[~done], lo[~done] + 2 * half])


def flux_through_sphere(fields, r: float, k0: float) -> float:
    """Power crossing the sphere of radius r, in units of W_free.

    Integrates r**2 r_hat . P over the full solid angle, with
    P = c/(8 pi) Re[E x B*]; the radial component reduces to
    Re[E_theta B_phi*] for the axisymmetric dipole field.
    """
    if not r > 0:
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
    must lie inside a single layer so eps_local is constant on it.  fields
    gets radii as an (n, 1) array and returns (n, len(theta)) components.
    """
    if not 0 < r_inner <= r_outer:
        raise DomainError("need 0 < r_inner <= r_outer")
    eps_local = complex(eps_local)
    if not eps_local.imag >= 0:
        raise DomainError("eps'' must be non-negative for a passive layer")
    if eps_local.imag == 0 or r_inner == r_outer:
        return 0.0
    if quad is None:
        quad = QuadratureSpec()

    def shell_density(r):
        e_r, e_theta, _ = fields(r[:, None], _GL_THETA)
        mag = (e_r * np.conj(e_r)).real + (e_theta * np.conj(e_theta)).real
        return r * r * (mag @ _GL_WEIGHTS)

    integral = _adaptive_gauss(shell_density, r_inner, r_outer, quad)
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
