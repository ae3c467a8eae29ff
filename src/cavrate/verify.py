"""Built-in invariant battery: runs every cross-check the library rests on.

Each check compares an analytic expression against an independent route
(numerical quadrature, the layer recursion, an algebraic identity, a limit)
and records the worst measured error against its tolerance.  The battery
is deterministic: random samples come from a seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multilayer as ml
from . import oracle, rates
from .dielectric import eta_kappa, eval_lorentz, sqrt_eps
from .errors import (ConfigError, IllConditioned, QuadratureFailure,
                     SingularDenominator)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status}  {self.name}: measured {self.measured:.3e} "
                f"(tolerance {self.tolerance:.3e})")
        if self.detail:
            text += f"  [{self.detail}]"
        return text


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        yield from (c.line() for c in self.checks)
        n_fail = sum(not c.passed for c in self.checks)
        yield (f"{len(self.checks)} checks, {n_fail} failed" if n_fail
               else f"{len(self.checks)} checks, all passed")


def _sample_passive_eps(rng, n, min_den=1.0):
    """Passive eps away from the -1/2 pole; block draws equal pair draws."""
    out = []
    while len(out) < n:
        pairs = rng.uniform((-3.0, 0.0), (10.0, 5.0), (n - len(out), 2))
        eps = pairs.view(complex).ravel()
        out += eps[(abs(eps) <= 10.0) & (abs(eps) >= 0.05)
                   & (abs(2 * eps + 1) >= min_den)].tolist()
    return out


def _slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    lx = np.log(np.asarray(xs))
    ly = np.log(np.abs(np.asarray(ys)))
    return float(np.polyfit(lx, ly, 1)[0])


def _check(name, measured, tolerance, detail="", larger_is_better=False):
    passed = measured >= tolerance if larger_is_better else measured <= tolerance
    return CheckResult(name=name, passed=bool(passed), measured=float(measured),
                       tolerance=float(tolerance), detail=detail)


def check_specfun_identities(rng) -> list[CheckResult]:
    from . import specfun as sf
    worst_wronskian = 0.0
    worst_sum = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
        if not 0.05 < abs(z) < 30:
            continue
        dh1 = sf.sph_h1_0(z) - 2 * sf.sph_h1_1(z) / z   # d/dz h1^(1)_1
        dh2 = sf.sph_h2_0(z) - 2 * sf.sph_h2_1(z) / z
        wron = sf.sph_h1_1(z) * dh2 - sf.sph_h2_1(z) * dh1
        target = -2j / (z * z)
        worst_wronskian = max(worst_wronskian, abs(wron - target) / abs(target))
        total = sf.sph_h1_1(z) + sf.sph_h2_1(z)
        worst_sum = max(worst_sum,
                        abs(total - 2 * sf.sph_j1(z)) / max(abs(total), 1e-30))
    return [
        _check("hankel_wronskian", worst_wronskian, 1e-10),
        _check("hankel_superposition", worst_sum, 1e-10),
    ]


def check_sqrt_branch(rng) -> CheckResult:
    worst = 0.0
    for eps in _sample_passive_eps(rng, 200, min_den=0.0):
        root = sqrt_eps(eps)
        worst = max(worst, abs(root * root - eps) / abs(eps))
        if root.imag < 0:
            worst = math.inf
    return _check("sqrt_branch_reconstruction", worst, 1e-14)


def check_solver_vs_closed_forms(rng, samples=60) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        e1 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        e2 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        e3 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        r1 = rng.uniform(0.05, 1.5)
        r2 = r1 + rng.uniform(0.2, 2.0)
        k0 = rng.uniform(0.3, 2.5)
        closed = ml.coeffs_two_layer(e1, e2, r1, k0)
        solved = ml.coeffs_general_n(ml.LayerStack((r1,), (e1, e2)), k0)
        worst = max(worst, abs(solved.c1 - closed.c1) / abs(closed.c1),
                    abs(solved.c_outer - closed.c_outer) / abs(closed.c_outer))
        closed = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
        solved = ml.coeffs_general_n(ml.LayerStack((r1, r2), (e1, e2, e3)), k0)
        pairs = [(closed.c1, solved.c1)]
        pairs += list(zip(closed.c_plus, solved.c_plus))
        pairs += [(closed.c_minus[0], solved.c_minus[0])]
        worst = max(worst, *(abs(a - b) / abs(a) for a, b in pairs))
    return _check("solver_matches_closed_forms", worst, 1e-10)


def check_oracle_power(rng, samples=4) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        eps = complex(rng.uniform(0.5, 9), rng.uniform(0.1, 5))
        k0 = 1.0
        for x in (0.3, 1.0):
            r_c = x / k0
            r = r_c + 2.0 / k0
            fields = ml.homogeneous_field(eps, k0)
            total = oracle.flux_through_sphere(fields, r, k0) \
                + oracle.absorbed_power(fields, r_c, r, eps, k0)
            analytic = rates.w0_cutoff(eps, k0, r_c)
            worst = max(worst, abs(total - analytic) / abs(analytic))
    return _check("oracle_matches_analytic_power", worst, 1e-8)


def check_energy_balance(eps_sphere, eps_ext, radius, r_c, k0) -> CheckResult:
    """Conservation in every layer of the cavity + sphere + host stack."""
    stack = ml.LayerStack((r_c, radius), (1.0, eps_sphere, eps_ext))
    fields = ml.stack_field_evaluator(stack, k0)
    worst = 0.0
    shells = [
        (1.05 * r_c, 0.95 * radius, stack.eps[1]),
        (1.05 * radius, radius + 3.0 / k0, stack.eps[2]),
    ]
    if k0 * r_c >= 0.05:
        # in the lossless cavity the near-field flux cancels only to
        # float precision; skip when the cavity is too small to resolve
        shells.insert(0, (0.35 * r_c, 0.9 * r_c, stack.eps[0]))
    for r_in, r_out, eps_layer in shells:
        worst = max(worst, oracle.energy_balance(fields, r_in, r_out,
                                                 eps_layer, k0))
    # homogeneous absorbing medium over a wide radial range
    fields = ml.homogeneous_field(eps_sphere, k0)
    worst = max(worst, oracle.energy_balance(fields, 0.3 / k0, 10.0 / k0,
                                             eps_sphere, k0))
    return _check("energy_balance_layers", worst, 1e-8)


def check_cutoff_free_identity(rng, samples=500) -> CheckResult:
    eps = np.array(_sample_passive_eps(rng, samples))
    lhs, rhs = rates.identity_rep_decomposition(eps)
    worst = np.max(abs(lhs - rhs) / np.maximum(1.0, abs(lhs)))
    return _check("cutoff_free_identity", worst, 1e-12)


def check_cavity_rate_forms(rng, samples=500) -> CheckResult:
    eps = np.array(_sample_passive_eps(rng, samples))
    # row by row, the same draws as one (radius, k0) pair per sample
    radius, k0 = rng.uniform((0.5, 0.5), (4.0, 2.0), size=(samples, 2)).T
    # both forms from the same amplitudes: the identity, not two solvers
    g_sc = rates.gamma_sc(eps, 1.0, radius, k0)
    d_sc = rates.delta_sc(eps, 1.0, radius, k0)
    direct = rates.gamma_sc_loc(eps, 1.0, radius, k0)
    alt = rates.gamma_sc_loc_from_bare(eps, g_sc, d_sc)
    worst = np.max(abs(direct - alt) / np.maximum(1.0, abs(direct)))
    return _check("cavity_rate_forms_agree", worst, 1e-12)


def check_lossless_collapse(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        eps = complex(rng.uniform(1.0, 9.0), 0.0)
        radius, r_c, k0 = rng.uniform(1, 3), 0.05, 1.0
        eta, _ = eta_kappa(eps)
        factor = rates.onsager_factor(eps)
        worst = max(worst, abs(rates.gamma0_loc(eps, k0, r_c) - factor * eta))
        g_sc = rates.gamma_sc(eps, 1.0, radius, k0)
        g_sc_loc = rates.gamma_sc_loc(eps, 1.0, radius, k0)
        worst = max(worst, abs(g_sc_loc - factor * g_sc) / max(1.0, abs(g_sc)))
    return _check("lossless_collapse", worst, 1e-13)


def check_expansion_orders(eps) -> list[CheckResult]:
    """Contact order of the small-cavity expansions against exact amplitudes.

    Sampled at radii where double precision still resolves the residuals;
    the acceptance suite repeats this at smaller radii in high precision.
    The linear residual terms of the rate expansions are proportional to
    the absorption, so the caller must supply an absorbing permittivity.
    """
    xs = (3e-2, 1e-2, 3e-3)
    eps_ext, radius, k0 = 1.0, 2.0, 1.0
    res_peff, res_g0loc, res_c1 = [], [], []
    for x in xs:
        r_c = x / k0
        coeffs2 = ml.coefficients(ml.LayerStack((r_c,), (1.0, eps)), k0)
        res_peff.append(abs(coeffs2.c_outer / eps
                            - rates.p_eff_expansion(eps, k0, r_c)))
        res_g0loc.append(abs(1 + coeffs2.c1.real - rates.gamma0_loc(eps, k0, r_c)))
        coeffs3 = ml.coefficients(
            ml.LayerStack((r_c, radius), (1.0, eps, eps_ext)), k0)
        expansion = rates.gamma0_loc(eps, k0, r_c) \
            + rates.gamma_sc_loc(eps, eps_ext, radius, k0) - 1
        res_c1.append(abs(coeffs3.c1.real - expansion))
    out = []
    for name, order, res in (("expansion_order_p_eff", 4, res_peff),
                             ("expansion_order_gamma0_loc", 1, res_g0loc),
                             ("expansion_order_central_c1", 1, res_c1)):
        slope = _slope(xs, res)
        out.append(_check(name, abs(slope - order), 0.15,
                          detail=f"slope {slope:.3f}, expected {order}"))
    return out


def check_decomposition(eps, radius, k0) -> CheckResult:
    """Total central rate splits into medium and cavity parts as r_c -> 0."""
    xs = (3e-2, 1e-2, 3e-3)
    diffs = []
    for x in xs:
        r_c = x / k0
        stack = ml.LayerStack((r_c, radius), (1.0, eps, 1.0))
        exact = rates.gamma_hat_total(stack, k0)
        split = rates.gamma0_loc(eps, k0, r_c) \
            + rates.gamma_sc_loc(eps, 1.0, radius, k0)
        diffs.append(exact - split)
    slope = _slope(xs, diffs)
    return _check("rate_decomposition_slope", slope, 1.0 - 0.15,
                  detail=f"slope {slope:.3f}, expected >= 1",
                  larger_is_better=True)


def check_external_scaling(eps, radius, k0) -> CheckResult:
    """Outer field with/without the empty cavity scales by 3 eps/(2 eps+1)."""
    r_c = 1e-3 / k0
    with_cavity = ml.coefficients(
        ml.LayerStack((r_c, radius), (1.0, eps, 1.0)), k0)
    bare = ml.coefficients(ml.LayerStack((radius,), (eps, 1.0)), k0)
    ratio = with_cavity.c_outer / (eps * bare.c_outer)
    target = 3 * eps / (2 * eps + 1)
    err = abs(ratio / target - 1)
    err = max(err, abs(abs(ratio) ** 2 / rates.onsager_factor(eps) - 1))
    return _check("external_field_scaling", err, 1e-4)


def check_green_restatement(eps, eps_ext, radius, k0) -> CheckResult:
    """Bare-sphere rate equals the Green-function trace of the field route.

    Reconstructs the scattered Green element at the dipole from a raw field
    evaluation near the origin and compares 3/(2 k0) times its imaginary
    part with the closed-form rate.
    """
    stack = ml.LayerStack((radius,), (eps, eps_ext))
    coeffs = ml.coefficients(stack, k0)
    r_small = 1e-8 / k0
    e_r, _, _ = ml.field_in_layer(stack, coeffs, r_small, 0.0, k0,
                                  include_source=False)
    g_zz = complex(e_r) / (k0 * k0)
    from_field = 3 / (2 * k0) * g_zz.imag
    closed = rates.gamma_sc(eps, eps_ext, radius, k0)
    return _check("green_function_restatement",
                  abs(from_field - closed) / max(1.0, abs(closed)), 1e-10)


def check_quadrature_convergence(eps, k0) -> CheckResult:
    fields = ml.homogeneous_field(eps, k0)
    spec = oracle.QuadratureSpec()
    a = oracle.absorbed_power(fields, 0.5 / k0, 2.0 / k0, eps, k0, spec)
    tight = oracle.QuadratureSpec(rel_tol=spec.rel_tol / 16,
                                  max_depth=spec.max_depth + 4)
    # no bisection of [0.5, 2]/k0 reaches 1/k0: b shares no panel with a
    b = sum(oracle.absorbed_power(fields, lo / k0, hi / k0, eps, k0, tight)
            for lo, hi in ((0.5, 1.0), (1.0, 2.0)))
    return _check("quadrature_convergence", abs(a - b) / abs(b), spec.rel_tol)


def run_battery(config=None, seed: int = 20260810) -> VerificationReport:
    """Run every invariant check and collect the results.

    config (a SweepConfig) supplies the medium and geometry for the
    system-specific checks; without one, the reference sphere (eps obtained
    at the absorption resonance of the standard oscillator) is used.  A
    check that fails numerically is recorded as a failed check in its place.
    """
    rng = np.random.default_rng(seed)
    reference_eps = 5 + 2.5j
    if config is not None:
        medium = config.medium
        omega = medium.omega0
        eps = eval_lorentz(medium, omega).eps
        radius = config.sphere_radius
        k0 = omega
        r_c = config.onsager_radius(omega)
        eps_ext = config.eps_ext
        if r_c >= radius:
            raise ConfigError(
                f"cavity radius {r_c:g} reaches the sphere radius "
                f"{radius:g} at the resonance frequency")
    else:
        eps, radius, k0, r_c, eps_ext = reference_eps, 2.0, 1.0, \
            0.2 * math.pi, 1.0
    # order checks need a visibly absorbing medium (the linear residual
    # terms carry the absorption); fall back to the reference otherwise
    eps_orders = eps if abs(eps.imag) > 0.05 * abs(eps) else reference_eps

    checks: list[CheckResult] = []

    def run(fn, *args):
        try:
            result = fn(*args)
        except (QuadratureFailure, IllConditioned, SingularDenominator) as exc:
            result = CheckResult(
                name=fn.__name__, passed=False, measured=math.inf,
                tolerance=0.0, detail=f"numeric failure: {exc}")
        if isinstance(result, list):
            checks.extend(result)
        else:
            checks.append(result)

    run(check_specfun_identities, rng)
    run(check_sqrt_branch, rng)
    run(check_solver_vs_closed_forms, rng)
    run(check_oracle_power, rng)
    run(check_energy_balance, eps, eps_ext, radius, r_c, k0)
    run(check_cutoff_free_identity, rng)
    run(check_cavity_rate_forms, rng)
    run(check_lossless_collapse, rng)
    run(check_expansion_orders, eps_orders)
    run(check_decomposition, eps_orders, radius, k0)
    run(check_external_scaling, eps, radius, k0)
    run(check_green_restatement, eps, eps_ext, radius, k0)
    run(check_quadrature_convergence, eps_orders, k0)
    return VerificationReport(checks=tuple(checks))
