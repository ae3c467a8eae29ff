"""Independent power-loss verification by direct Poynting integration.

The routines here never touch the closed-form power expressions; they only
consume a field evaluator (r, theta) -> (E_r, E_theta, B_phi) and integrate
the radial Poynting flux c/(8 pi) Re[E x B*] . r_hat over spheres and the
ohmic dissipation omega eps''/(8 pi) |E|**2 over shells.

The configuration is axisymmetric, so the azimuthal integral is the exact
factor 2 pi, and the polar integrand is a low-degree polynomial in
cos(theta), which fixed-order Gauss-Legendre integrates exactly.  Only the
radial integration is adaptive, with one field call per bisection level
on the 16- and 32-node rules of every open panel.  Radii, shells and
losses may be (S,) arrays of samples, whose evaluator (a homogeneous
medium or a stack of (S,) permittivity arrays) takes the radii with the
sample axis first: then one field call per level serves every sample.
Results are in units of the free-space radiated power W_free = c k0**4 / 3
of the unit dipole.
"""

from __future__ import annotations

import math

import numpy as np

from ._elementwise import K0, nonnegative, require, route
from .errors import QuadratureFailure

_GAUSS_ORDER = 8
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
# math.acos: numpy's AVX-512 arccos moves a last bit, and the battery with it
_GL_THETA = np.array([math.acos(x) for x in _GL_NODES])
# radial panels: the 16-node rule's nodes and weights, then the 32-node rule's
_PANEL_NODES, _PANEL_WEIGHTS = map(np.concatenate, zip(
    np.polynomial.legendre.leggauss(16), np.polynomial.legendre.leggauss(32)))
_G16_WEIGHTS, _G32_WEIGHTS = np.split(_PANEL_WEIGHTS, [16])
# more open panels at one level than this: the integral does not converge
_MAX_OPEN_PANELS = 512
_MAX_DEPTH = 30  # bisection levels of a radial integral
REL_TOL = 1e-10  # the radial integral's default relative tolerance
_ONE_K0 = "k0 must be one frequency, not an array"  # fields take one k0


def _adaptive_gauss(fn, a, b, rel_tol: float):
    """Breadth-first adaptive Gauss-Legendre integral of fn on [a, b].

    a and b are numbers, or (S,) arrays of samples: the result is then an
    (S,) array of integrals, one on each [a_s, b_s].  fn maps points shaped
    (n,), or (S, n) with row s inside [a_s, b_s], to the integrand's values.
    Each level makes one call for the open panels of every sample, a row
    shorter than the longest padded with panels at its sample's a_s.  A
    panel is accepted when its 16- and 32-node rules differ by at most its
    width's share of rel_tol * |G32 over [a_s, b_s]|, and then adds its
    G32.  Each sample has its own budget, panel limit and
    QuadratureFailure, and reduces its own panels as a number interval
    would, so it keeps that interval's bits.
    """
    shape = getattr(a, "shape", ())
    a, half = np.array(a, float, ndmin=1), np.array(0.5 * (b - a), ndmin=1)
    open_lo = [a[s:s + 1] for s in range(a.size)]  # each sample's panels
    total, budget = np.zeros(a.size), np.empty(a.size)
    for depth in range(1, _MAX_DEPTH + 1):
        lo = np.repeat(a[:, None], max(map(len, open_lo)), axis=1)
        for s, panels in enumerate(open_lo):
            lo[s, :len(panels)] = panels
        h = half[:, None, None]
        nodes = (lo[..., None] + h) + h * _PANEL_NODES
        values = h * fn(nodes.reshape(*shape, -1)).reshape(nodes.shape)
        for s, panels in enumerate(open_lo):
            if not len(panels):
                continue
            rows = values[s, :len(panels)]
            g16, g32 = rows[:, :16] @ _G16_WEIGHTS, rows[:, 16:] @ _G32_WEIGHTS
            if depth == 1:
                # absolute budget anchored to the estimate of the integral
                budget[s] = rel_tol * max(abs(g32[0]), 1e-300)
            err = abs(g32 - g16)
            done = err <= budget[s]
            total[s] += float(g32[done].sum())
            # each open panel splits in two at its midpoint
            kept = panels[~done]
            open_lo[s] = np.concatenate([kept, kept + half[s]])
            if len(open_lo[s]) and (depth == _MAX_DEPTH
                                    or len(open_lo[s]) > _MAX_OPEN_PANELS):
                worst = int(np.argmax(err))
                sample = f" of sample {s}" if shape else ""
                raise QuadratureFailure(
                    f"radial integral{sample} not converged on "
                    f"[{panels[worst]:g}, {panels[worst] + 2 * half[s]:g}] "
                    f"at depth {depth} (local error {err[worst]:.3e}, "
                    f"budget {budget[s]:.3e})")
        if not any(map(len, open_lo)):
            return total.reshape(shape)
        # every panel of a level has the same width, hence the same share
        budget, half = 0.5 * budget, 0.5 * half


def flux_through_sphere(fields, r, k0: float):
    """Power crossing the sphere of radius r, in units of W_free.

    Integrates r**2 r_hat . P over the full solid angle, with
    P = c/(8 pi) Re[E x B*]; the radial component reduces to
    Re[E_theta B_phi*] for the axisymmetric dipole field.  r may be an (S,)
    array, one sphere per sample of fields, which then gets the radii as
    an (S, 1) array; the result is then an (S,) array.
    """
    route((k0, r), (), (K0, "r must be positive"))
    require(k0, _ONE_K0, np.isscalar)
    samples = type(r) is np.ndarray
    _, e_theta, b_phi = fields(r[..., None] if samples else r, _GL_THETA)
    integrand = (e_theta * np.conj(b_phi)).real
    # (c/8pi) * 2pi * r^2 * integral over cos(theta)
    power = 0.25 * r * r * (integrand @ _GL_WEIGHTS) / (k0 ** 4 / 3)
    return power if samples else float(power)


def absorbed_power(fields, r_inner, r_outer, eps_local, k0: float,
                   rel_tol: float = REL_TOL):
    """Power absorbed in the shell r_inner <= r <= r_outer, units of W_free.

    Integrates omega eps''/(8 pi) |E|**2 over the shell volume; the shell
    must lie inside a single layer so eps_local is constant on it.  fields
    gets radii as an (n, 1) array and returns (n, len(theta)) components.
    r_inner, r_outer and eps_local may be (S,) arrays, one shell per sample
    of fields, which then gets radii as an (S, n, 1) array: the result is
    then an (S,) array, and a bad element raises as a bad number would.
    rel_tol, one number, is the radial integral's relative tolerance.
    """
    route((k0, r_inner, rel_tol), (), (K0, "need 0 < r_inner <= r_outer",
                                       "rel_tol = {:g} must be > 0"))
    require(k0, _ONE_K0, np.isscalar)
    require(rel_tol, "rel_tol must be one number, not an array", np.isscalar)
    require(r_outer - r_inner, "need 0 < r_inner <= r_outer", nonnegative)
    loss = require(eps_local.imag, "eps'' must be non-negative for a "
                   "passive layer", nonnegative)
    # a lossless or empty shell absorbs nothing; a sample's shrinks to its
    # inner radius, where its first panel converges
    live = (loss != 0) & (r_inner != r_outer)
    samples = type(live) is np.ndarray
    if not (live.any() if samples else live):
        return np.zeros(live.shape) if samples else 0.0
    if samples:
        r_inner, r_outer = np.broadcast_arrays(
            r_inner, np.where(live, r_outer, r_inner))

    def shell_density(r):
        e_r, e_theta, _ = fields(r[..., None], _GL_THETA)
        mag = (e_r * np.conj(e_r)).real + (e_theta * np.conj(e_theta)).real
        return r * r * (mag @ _GL_WEIGHTS)

    integral = _adaptive_gauss(shell_density, r_inner, r_outer, rel_tol)
    # omega eps''/(8 pi) times the 2 pi azimuthal factor, with omega = c k0
    power = k0 * loss / 4 * integral / (k0 ** 4 / 3)
    return power if samples else float(power)


def energy_balance(fields, r_inner: float, r_outer: float, eps_local: complex,
                   k0: float) -> float:
    """Relative defect of energy conservation across a shell.

    Power entering at r_inner either leaves at r_outer or is absorbed in
    between; returns |flux(out) + absorbed - flux(in)| / flux(in), an (S,)
    array for (S,) arrays of samples.
    """
    w_in = flux_through_sphere(fields, r_inner, k0)
    w_out = flux_through_sphere(fields, r_outer, k0)
    w_abs = absorbed_power(fields, r_inner, r_outer, eps_local, k0)
    return abs(w_out + w_abs - w_in) / abs(w_in)
