"""Built-in invariant battery: runs every cross-check the library rests on.

Each check compares an analytic expression against an independent route
(numerical quadrature, the layer recursion, an algebraic identity, a limit)
and records the worst measured error against its tolerance.  The battery
is deterministic: random samples come from a seeded generator, and its
report reads the same under numpy's AVX2 and AVX-512 kernels.  A sampled
check draws all its samples in one block, in the order of one draw after
another, and evaluates each route once on the arrays of samples: the
oracle integrates every shell of check_oracle_power in one adaptive pass.
A NaN error counts as the worst: its check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multilayer as ml
from . import oracle, rates
from .dielectric import eta_kappa, eval_lorentz, sqrt_eps
from .errors import ConfigError, DomainError, QuadratureFailure


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
    """Least-squares slope of log|y| against log x, in closed form."""
    lx, ly = np.log(xs), np.log(np.abs(ys))
    dx = lx - lx.mean()
    return float(dx @ (ly - ly.mean()) / (dx @ dx))


def _check(name, measured, tolerance, detail="", larger_is_better=False):
    passed = measured >= tolerance if larger_is_better else measured <= tolerance
    return CheckResult(name=name, passed=bool(passed), measured=float(measured),
                       tolerance=float(tolerance), detail=detail)


_HANKEL_CHECKS = ("hankel_wronskian", "hankel_superposition")


def check_specfun_identities(rng) -> list[CheckResult]:
    from . import specfun as sf
    # row by row, the same draws as one (re, im) pair per sample
    z = rng.uniform((-10, -5), (10, 5), size=(100, 2)).view(complex).ravel()
    z = z[(0.05 < abs(z)) & (abs(z) < 30)]
    h1, h2 = sf.sph_h1_1(z), sf.sph_h2_1(z)
    # z W{h1, h2} = -2i/z (A&S 10.1.6), on the Riccati waves d/dz [z h]
    target = -2j / z
    wronskian = abs(h1 * sf.riccati_h2(z) - h2 * sf.riccati_h1(z) - target) \
        / abs(target)
    total = h1 + h2
    superposition = abs(total - 2 * sf.sph_j1(z)) \
        / np.maximum(abs(total), 1e-30)
    return [_check(name, np.max(error), 1e-10)
            for name, error in zip(_HANKEL_CHECKS, (wronskian, superposition))]


def check_sqrt_branch(rng) -> CheckResult:
    eps = np.array(_sample_passive_eps(rng, 200, min_den=0.0))
    root = sqrt_eps(eps)
    errors = np.where(root.imag < 0, math.inf,
                      abs(root * root - eps) / abs(eps))
    return _check("sqrt_branch_reconstruction", np.max(errors), 1e-14)


def check_solver_vs_closed_forms(rng) -> CheckResult:
    # row by row, the draws of one sample: e1, e2, e3 as (re, im), r1,
    # r2 - r1, k0
    draws = rng.uniform((0.5, 0, 0.5, 0, 0.5, 0, 0.05, 0.2, 0.3),
                        (8, 4, 8, 4, 8, 4, 1.5, 2.0, 2.5), size=(60, 9))
    e1, e2, e3 = draws[:, :6].view(complex).T
    r1, gap, k0 = draws[:, 6:].T
    r2 = r1 + gap
    closed2 = ml.coeffs_two_layer(e1, e2, r1, k0)
    solved2 = ml.coeffs_general_n(ml.LayerStack((r1,), (e1, e2)), k0)
    closed3 = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
    solved3 = ml.coeffs_general_n(ml.LayerStack((r1, r2), (e1, e2, e3)), k0)
    pairs = [(closed2.c1, solved2.c1), (closed2.c_outer, solved2.c_outer),
             (closed3.c1, solved3.c1), *zip(closed3.c_plus, solved3.c_plus),
             (closed3.c_minus[0], solved3.c_minus[0])]
    worst = np.max([abs(b - a) / abs(a) for a, b in pairs])
    return _check("solver_matches_closed_forms", worst, 1e-10)


def check_oracle_power(rng) -> CheckResult:
    # row by row, the draws of one medium: eps as (re, im); each medium
    # is cut off at two radii, with one shell and one sphere each
    eps = rng.uniform((0.5, 0.1), (9, 5), size=(4, 2)).view(complex)
    eps = np.repeat(eps.ravel(), 2)
    k0 = 1.0
    r_c = np.tile((0.3, 1.0), 4) / k0
    r = r_c + 2.0 / k0
    fields = ml.homogeneous_field(eps, k0)
    total = oracle.flux_through_sphere(fields, r, k0) \
        + oracle.absorbed_power(fields, r_c, r, eps, k0)
    # numbers: the array forms of w0_cutoff move bits with numpy's SIMD level
    analytic = np.array([rates.w0_cutoff(complex(e), k0, float(x))
                         for e, x in zip(eps, r_c)])
    return _check("oracle_matches_analytic_power",
                  np.max(abs(total - analytic) / abs(analytic)), 1e-8)


def check_energy_balance(eps_sphere, eps_ext, radius, r_c, k0) -> CheckResult:
    """Conservation in every layer of the cavity + sphere + host stack."""
    stack = ml.LayerStack((r_c, radius), (1.0, eps_sphere, eps_ext))
    fields = ml.stack_field_evaluator(stack, k0)
    shells = [
        (1.05 * r_c, 0.95 * radius, stack.eps[1]),
        # 1.05 R alone would leave the host shell empty for R > 60/k0
        (min(1.05 * radius, radius + 1.5 / k0), radius + 3.0 / k0,
         stack.eps[2]),
    ]
    if k0 * r_c >= 0.05:
        # in the lossless cavity the near-field flux cancels only to
        # float precision; skip when the cavity is too small to resolve
        shells.insert(0, (0.35 * r_c, 0.9 * r_c, stack.eps[0]))
    errors = [oracle.energy_balance(fields, r_in, r_out, eps_layer, k0)
              for r_in, r_out, eps_layer in shells]
    # homogeneous absorbing medium over a wide radial range
    fields = ml.homogeneous_field(eps_sphere, k0)
    errors.append(oracle.energy_balance(fields, 0.3 / k0, 10.0 / k0,
                                        eps_sphere, k0))
    return _check("energy_balance_layers", np.max(errors), 1e-8)


def check_cutoff_free_identity(rng) -> CheckResult:
    eps = np.array(_sample_passive_eps(rng, 500))
    lhs, rhs = rates.identity_rep_decomposition(eps)
    worst = np.max(abs(lhs - rhs) / np.maximum(1.0, abs(lhs)))
    return _check("cutoff_free_identity", worst, 1e-12)


def check_cavity_rate_forms(rng) -> CheckResult:
    eps = np.array(_sample_passive_eps(rng, 500))
    # row by row, the same draws as one (radius, k0) pair per sample
    radius, k0 = rng.uniform((0.5, 0.5), (4.0, 2.0), size=(eps.size, 2)).T
    # both forms from the same amplitudes, those of the report the sweep
    # writes from: the identity, not two solvers; k0 r_c = 0.1 keeps the
    # report's expansions in range
    report = rates.rate_report(eps, 1.0, radius, 0.1 / k0, 0.1 / k0, k0)
    direct = report.gamma_sc_loc_hat
    alt = rates.gamma_sc_loc_from_bare(eps, report.gamma_sc_hat,
                                       report.delta_sc_hat)
    worst = np.max(abs(direct - alt) / np.maximum(1.0, abs(direct)))
    return _check("cavity_rate_forms_agree", worst, 1e-12)


def check_lossless_collapse(rng) -> CheckResult:
    # row by row, the same draws as one (eps, radius) pair per sample
    eps, radius = rng.uniform((1.0, 1), (9.0, 3), size=(20, 2)).T
    eps = eps + 0j
    r_c, k0 = 0.05, 1.0
    eta, _ = eta_kappa(eps)
    report = rates.rate_report(eps, 1.0, radius, r_c, r_c, k0)
    factor, g_sc = report.onsager_factor, report.gamma_sc_hat
    worst = np.max([
        abs(report.gamma0_loc_hat - factor * eta),
        abs(report.gamma_sc_loc_hat - factor * g_sc)
        / np.maximum(1.0, abs(g_sc))])
    return _check("lossless_collapse", worst, 1e-13)


_ORDER_CHECKS = ("expansion_order_p_eff", "expansion_order_gamma0_loc",
                 "expansion_order_central_c1")


def check_expansion_orders(eps) -> list[CheckResult]:
    """Contact order of the small-cavity expansions against exact amplitudes.

    Sampled at radii where double precision still resolves the residuals;
    the acceptance suite repeats this at smaller radii in high precision.
    The linear residual terms of the rate expansions are proportional to
    the absorption, so the caller must supply an absorbing permittivity.
    """
    xs = (3e-2, 1e-2, 3e-3)
    eps_ext, radius, k0 = 1.0, 2.0, 1.0
    g_sc_loc = rates.gamma_sc_loc(eps, eps_ext, radius, k0)
    res_peff, res_g0loc, res_c1 = [], [], []
    for x in xs:
        r_c = x / k0
        coeffs2 = ml.coefficients(ml.LayerStack((r_c,), (1.0, eps)), k0)
        res_peff.append(abs(coeffs2.c_outer / eps
                            - rates.p_eff_expansion(eps, k0, r_c)))
        g0_loc = rates.gamma0_loc(eps, k0, r_c)
        res_g0loc.append(abs(1 + coeffs2.c1.real - g0_loc))
        coeffs3 = ml.coefficients(
            ml.LayerStack((r_c, radius), (1.0, eps, eps_ext)), k0)
        expansion = g0_loc + g_sc_loc - 1
        res_c1.append(abs(coeffs3.c1.real - expansion))
    out = []
    for name, order, res in zip(_ORDER_CHECKS, (4, 1, 1),
                                (res_peff, res_g0loc, res_c1)):
        slope = _slope(xs, res)
        out.append(_check(name, abs(slope - order), 0.15,
                          detail=f"slope {slope:.3f}, expected {order}"))
    return out


def check_decomposition(eps, radius, k0) -> CheckResult:
    """Total central rate splits into medium and cavity parts as r_c -> 0."""
    xs = (3e-2, 1e-2, 3e-3)
    g_sc_loc = rates.gamma_sc_loc(eps, 1.0, radius, k0)
    diffs = []
    for x in xs:
        r_c = x / k0
        stack = ml.LayerStack((r_c, radius), (1.0, eps, 1.0))
        exact = rates.gamma_hat_total(stack, k0)
        diffs.append(exact - (rates.gamma0_loc(eps, k0, r_c) + g_sc_loc))
    slope = _slope(xs, diffs)
    return _check("rate_decomposition_slope", slope, 1.0 - 0.15,
                  detail=f"slope {slope:.3f}, expected >= 1",
                  larger_is_better=True)


def check_external_scaling(eps, radius, k0) -> CheckResult:
    """Outer field with/without the empty cavity scales by 3 eps/(2 eps+1)."""
    # moments at one R and host, so e^{ikR} cancels; the bare is w_ext_hat's
    stack = ml.LayerStack((1e-3 / k0, radius), (1.0, eps, 1.0))
    steps, _, m, _ = ml._solve(stack, k0)
    _, with_cavity = rates._outer(stack.eps, steps, m)
    bare = rates._bare_sphere(eps, 1.0, radius, k0)[3]
    if bare == 0:
        raise ArithmeticError(
            f"the bare sphere's outer moment underflows to 0 at |Im k R| = "
            f"{abs((sqrt_eps(eps) * k0 * radius).imag):.1f}")
    ratio = with_cavity / bare
    target = 3 * eps / (2 * eps + 1)
    err = np.max([abs(ratio / target - 1),
                  abs(abs(ratio) ** 2 / rates.onsager_factor(eps) - 1)])
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
    a = oracle.absorbed_power(fields, 0.5 / k0, 2.0 / k0, eps, k0)
    # no bisection of [0.5, 2]/k0 reaches 1/k0: b shares no panel with a
    b = np.sum(oracle.absorbed_power(fields, np.array([0.5, 1.0]) / k0,
                                     np.array([1.0, 2.0]) / k0, eps, k0,
                                     oracle.REL_TOL / 16))
    return _check("quadrature_convergence", abs(a - b) / abs(b),
                  oracle.REL_TOL)


# in report order: the names a check reports, its function's name (looked
# up as the battery runs, so a replaced check_* runs) and the values it takes
CHECKS = (
    (_HANKEL_CHECKS, "check_specfun_identities", ("rng",)),
    (("sqrt_branch_reconstruction",), "check_sqrt_branch", ("rng",)),
    (("solver_matches_closed_forms",), "check_solver_vs_closed_forms",
     ("rng",)),
    (("oracle_matches_analytic_power",), "check_oracle_power", ("rng",)),
    (("energy_balance_layers",), "check_energy_balance",
     ("eps", "eps_ext", "radius", "r_c", "k0")),
    (("cutoff_free_identity",), "check_cutoff_free_identity", ("rng",)),
    (("cavity_rate_forms_agree",), "check_cavity_rate_forms", ("rng",)),
    (("lossless_collapse",), "check_lossless_collapse", ("rng",)),
    (_ORDER_CHECKS, "check_expansion_orders", ("eps_orders",)),
    (("rate_decomposition_slope",), "check_decomposition",
     ("eps_orders", "radius", "k0")),
    (("external_field_scaling",), "check_external_scaling",
     ("eps", "radius", "k0")),
    (("green_function_restatement",), "check_green_restatement",
     ("eps", "eps_ext", "radius", "k0")),
    (("quadrature_convergence",), "check_quadrature_convergence",
     ("eps_orders", "k0")),
)
CHECK_NAMES = tuple(name for names, _, _ in CHECKS for name in names)
# the seed of the random-sample checks unless the caller names one
DEFAULT_SEED = 20260810


def run_battery(config=None, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run every check of CHECKS and collect the results.

    config (a SweepConfig, by default SweepConfig(), the fig3 sphere)
    supplies the medium and geometry for the system-specific checks, at
    the medium's resonance.  A check that fails numerically (an
    ArithmeticError such as OverflowError, a QuadratureFailure or a
    DomainError) is recorded as a failed check in its place, one per name
    it reports and under the names of a passing run, so the report always
    holds the same verdicts.
    """
    if config is None:
        from .cli import SweepConfig  # cli imports this module
        config = SweepConfig()
    k0 = config.medium.omega0  # the resonance, with k0 = omega
    eps = eval_lorentz(config.medium, k0).eps
    radius = config.sphere_radius
    r_c = config.onsager_radius(k0)
    if r_c >= radius:
        raise ConfigError(
            f"cavity radius {r_c:g} reaches the sphere radius "
            f"{radius:g} at the resonance frequency")
    values = dict(
        rng=np.random.default_rng(seed), eps=eps, eps_ext=config.eps_ext,
        radius=radius, r_c=r_c, k0=k0,
        # the order checks' residuals need absorption: else fig3's eps
        eps_orders=eps if abs(eps.imag) > 0.05 * abs(eps) else 5 + 2.5j)
    checks: list[CheckResult] = []
    for names, function, args in CHECKS:
        try:
            result = globals()[function](*(values[arg] for arg in args))
        except (ArithmeticError, QuadratureFailure, DomainError) as exc:
            result = [CheckResult(
                name=name, passed=False, measured=math.inf, tolerance=0.0,
                detail=f"numeric failure: {exc}") for name in names]
        checks += result if isinstance(result, list) else [result]
    return VerificationReport(checks=tuple(checks))
