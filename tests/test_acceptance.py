"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; each test also carries the criterion number in its name.
"""

import io
import time

import numpy as np
import pytest

import mpref
from cavrate import cli
from cavrate import multilayer as ml
from cavrate import oracle, rates
from cavrate.dielectric import eval_lorentz
from conftest import passive_eps_samples

EPS_RES = 5 + 2.5j


def _verdict(num, text):
    print(f"criterion {num:02d}: PASS  {text}")


def fig_rows(name):
    return cli.run_sweep(cli.get_preset(name))


def test_criterion_01_oracle_equivalence_homogeneous(rng):
    started = time.monotonic()
    worst = 0.0
    for eps in passive_eps_samples(rng, 10, min_pole_distance=0.0):
        k0 = 1.0
        fields = ml.homogeneous_field(eps, k0)
        for x in (0.3, 1.0, 3.0):
            r_c = x / k0
            r = r_c + 2.0 / k0
            quadr = oracle.flux_through_sphere(fields, r, k0) \
                + oracle.absorbed_power(fields, r_c, r, eps, k0)
            analytic = rates.w0_cutoff(eps, k0, r_c)
            worst = max(worst, abs(quadr - analytic) / abs(analytic))
    elapsed = time.monotonic() - started
    assert worst < 1e-8
    assert elapsed < 10.0
    _verdict(1, f"flux+absorption vs analytic: worst rel {worst:.2e}, "
                f"{elapsed:.2f} s")


def test_criterion_02_energy_balance():
    k0 = 1.0
    worst = 0.0
    # absorbing homogeneous medium, wide radial range
    eps, r_c = EPS_RES, 0.3 / k0
    fields = ml.homogeneous_field(eps, k0)
    totals = [oracle.flux_through_sphere(fields, r, k0)
              + oracle.absorbed_power(fields, r_c, r, eps, k0)
              for r in np.linspace(r_c, 10.0 / k0, 12)]
    worst = max(worst, np.ptp(totals) / abs(totals[0]))
    # every layer of the standard cavity/sphere/host stack
    config = cli.get_preset("fig3")
    omega = 1.0
    eps_sphere = eval_lorentz(config.medium, omega).eps
    r_cav = config.onsager_radius(omega)
    radius = config.sphere_radius
    stack = ml.LayerStack((r_cav, radius), (1.0, eps_sphere, 1.0))
    fields = ml.stack_field_evaluator(stack, k0)
    shells = [(0.3 * r_cav, 0.95 * r_cav, 1.0),
              (1.05 * r_cav, 0.95 * radius, eps_sphere),
              (1.05 * radius, radius + 4.0 / k0, 1.0)]
    for r_in, r_out, eps_layer in shells:
        totals = [oracle.flux_through_sphere(fields, r, k0)
                  + oracle.absorbed_power(fields, r_in, r, eps_layer, k0)
                  for r in np.linspace(r_in, r_out, 7)]
        worst = max(worst, np.ptp(totals) / abs(totals[0]))
    assert worst < 1e-8
    _verdict(2, f"combined flow+absorption radius-independent to {worst:.2e}")


def test_criterion_03_closed_forms_vs_solver(rng):
    worst = 0.0
    for _ in range(200):
        e1 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        e2 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        e3 = complex(rng.uniform(0.5, 8), rng.uniform(0, 4))
        r1 = rng.uniform(0.05, 1.5)
        r2 = r1 + rng.uniform(0.2, 2.0)
        k0 = rng.uniform(0.3, 2.5)
        closed = ml.coeffs_two_layer(e1, e2, r1, k0)
        solved = ml.coeffs_general_n(ml.LayerStack((r1,), (e1, e2)), k0)
        worst = max(worst,
                    abs(solved.c1 - closed.c1) / abs(closed.c1),
                    abs(solved.c_outer - closed.c_outer) / abs(closed.c_outer))
        closed = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
        solved = ml.coeffs_general_n(ml.LayerStack((r1, r2), (e1, e2, e3)),
                                     k0)
        for a, b in [(closed.c1, solved.c1),
                     *zip(closed.c_plus, solved.c_plus),
                     (closed.c_minus[0], solved.c_minus[0])]:
            worst = max(worst, abs(a - b) / abs(a))
    assert worst < 1e-10
    _verdict(3, f"closed forms vs boundary-condition solve: worst rel "
                f"{worst:.2e} over 200 samples")


def test_criterion_04_expansion_orders():
    """Contact orders of the three small-cavity expansions.

    Evaluated in 50-digit arithmetic: at the smallest radius the residuals
    sit far below double-precision resolution of the exact amplitudes.
    The double-precision implementations are pinned to the same reference
    values at the largest radius.
    """
    mp = mpref.mp
    eps, eps_ext, radius, k0 = EPS_RES, 1.0, 2.0, 1.0
    xs = [mp.mpf("1e-2"), mp.mpf("1e-3"), mp.mpf("1e-4")]

    res_peff, res_g0loc, res_c1re = [], [], []
    for x in xs:
        c1_two, c2p = mpref.two_layer(1.0, eps, x / k0, k0)
        res_peff.append(abs(c2p / mpref.to_mpc(eps)
                            - mpref.p_eff_expansion(eps, x)))
        res_g0loc.append(abs(1 + c1_two.real
                             - mpref.gamma0_loc_expansion(eps, x)))
        c1_three, *_ = mpref.three_layer(1.0, eps, eps_ext, x / k0, radius, k0)
        res_c1re.append(abs(c1_three.real - mpref.central_c1_re_expansion(
            eps, eps_ext, radius, k0, x)))

    slopes = {
        "transmitted amplitude": (mpref.fit_slope(xs, res_peff), 4),
        "corrected medium rate": (mpref.fit_slope(xs, res_g0loc), 1),
        "central amplitude (real part)": (mpref.fit_slope(xs, res_c1re), 1),
    }
    for name, (slope, order) in slopes.items():
        assert abs(slope - order) <= 0.15, (name, slope)

    # double precision agrees with the high-precision reference
    x = 1e-2
    xm = mp.mpf("1e-2")
    assert abs(rates.p_eff_expansion(eps, k0, x)
               - complex(mpref.p_eff_expansion(eps, xm))) < 1e-12
    assert rates.gamma0_loc(eps, k0, x) == pytest.approx(
        float(mpref.gamma0_loc_expansion(eps, xm)), rel=1e-13)
    got = ml.coeffs_two_layer(1.0, eps, x / k0, k0)
    ref, _ = mpref.two_layer(1.0, eps, x / k0, k0)
    assert abs(got.c1 - complex(ref)) <= 1e-12 * abs(ref)
    detail = ", ".join(f"{name} slope {s:.3f} (expect {o})"
                       for name, (s, o) in slopes.items())
    _verdict(4, detail)


def test_criterion_05_algebraic_identities(rng):
    from cavrate.dielectric import sqrt_eps
    worst27 = worst_forms = 0.0
    for eps in passive_eps_samples(rng, 500):
        lhs, rhs = rates.identity_rep_decomposition(eps)
        worst27 = max(worst27, abs(lhs - rhs))
        radius, k0 = rng.uniform(0.5, 4.0), rng.uniform(0.5, 2.0)
        coeffs = ml.coeffs_two_layer(eps, 1.0, radius, k0)
        root_c1 = sqrt_eps(eps) * coeffs.c1
        direct = rates.gamma_sc_loc(eps, 1.0, radius, k0)
        alt = rates.gamma_sc_loc_from_bare(eps, root_c1.real,
                                           0.5 * root_c1.imag)
        worst_forms = max(worst_forms, abs(direct - alt))
    assert worst27 < 1e-12
    assert worst_forms < 1e-12
    _verdict(5, f"cutoff-free identity {worst27:.2e}, corrected-rate forms "
                f"{worst_forms:.2e} over 500 samples")


def test_criterion_06_scalar_anchors():
    """Off-resonance anchors of the corrected and uncorrected rates.

    The anchors are the background-permittivity values: the local-field
    factor 1.859 at eps = 5, the medium rate sqrt(5) = 2.236, and their
    product 4.157.  The oscillator medium reaches eps = eps_b only on the
    high-frequency side of the sweep (omega = 2 omega0); at the
    low-frequency edge (omega = 0.2 omega0) it plateaus at
    eps_b + Omega**2/omega0**2 = 5.25 instead, which puts the computed
    rates 2.6 and 3.6 percent above the anchors.  Both edges are reported;
    the anchor comparison binds on the high-frequency side.
    """
    assert rates.onsager_factor(5.0) == pytest.approx(1.859, rel=0.01)

    config = cli.get_preset("fig3")
    # formula-level anchors at the background permittivity itself
    omega_probe = 2.0
    r_c = config.onsager_radius(omega_probe)
    assert rates.gamma0_macroscopic(5.0, omega_probe, r_c) \
        == pytest.approx(2.236, rel=0.02)
    assert rates.gamma0_loc(5.0, omega_probe, r_c) \
        == pytest.approx(4.157, rel=0.02)

    rows = {row["omega"]: row for row in fig_rows("fig3")}
    high = rows[2.0]
    assert high["gamma0_hat"] == pytest.approx(2.236, rel=0.02)
    assert high["gamma0_loc_hat"] == pytest.approx(4.157, rel=0.02)

    low = rows[0.2]
    low_dev0 = abs(low["gamma0_hat"] / 2.236 - 1)
    low_devl = abs(low["gamma0_loc_hat"] / 4.157 - 1)
    _verdict(6, f"L(5) = {rates.onsager_factor(5.0):.4f}; sweep edge "
                f"omega = 2: {high['gamma0_hat']:.4f} / "
                f"{high['gamma0_loc_hat']:.4f} vs 2.236 / 4.157; "
                f"low edge deviates {low_dev0:.1%} / {low_devl:.1%} "
                f"(eps plateau 5.25, informational)")


def test_criterion_07_external_field_scaling():
    eps, radius, k0 = EPS_RES, 2.0, 1.0
    target = 3 * eps / (2 * eps + 1)
    bare = ml.coeffs_two_layer(eps, 1.0, radius, k0)
    p_bare = eps * bare.c_outer
    xs = (1e-2, 1e-3, 1e-4)
    residuals = []
    for x in xs:
        stack = ml.LayerStack((x / k0, radius), (1.0, eps, 1.0))
        ratio = rates.external_dipole(stack, k0) / p_bare
        residuals.append(abs(ratio / target - 1))
    slope = float(np.polyfit(np.log(xs), np.log(residuals), 1)[0])
    assert slope == pytest.approx(2.0, abs=0.15)
    stack = ml.LayerStack((1e-3 / k0, radius), (1.0, eps, 1.0))
    ratio = rates.external_dipole(stack, k0) / p_bare
    factor_err = abs(abs(ratio) ** 2 / rates.onsager_factor(eps) - 1)
    assert factor_err < 1e-4
    _verdict(7, f"field ratio residual slope {slope:.3f}; power factor "
                f"matches to {factor_err:.2e} at k0 r_c = 1e-3")


def test_criterion_08_rate_decomposition():
    mp = mpref.mp
    eps, eps_ext, radius, k0 = EPS_RES, 1.0, 2.0, 1.0
    xs = [mp.mpf("1e-2"), mp.mpf("1e-3"), mp.mpf("1e-4")]
    cavity_part = mpref.gamma_sc_loc(eps, eps_ext, radius, k0)
    diffs = [mpref.gamma_hat_total_three(eps, eps_ext, radius, k0, x)
             - (mpref.gamma0_loc_expansion(eps, x) + cavity_part)
             for x in xs]
    slope = mpref.fit_slope(xs, diffs)
    assert slope >= 1.0
    _verdict(8, f"decomposition residual vanishes with slope {slope:.3f}")


def test_criterion_09_shape_reproduction():
    # asymmetric double peak of the corrected cavity rate near resonance
    rows = fig_rows("fig2")
    window = [(row["omega"], row["gamma_sc_loc_hat"]) for row in rows
              if 0.7 <= row["omega"] <= 1.3]
    values = np.array([v for _, v in window])
    interior_max = np.flatnonzero((values[1:-1] > values[:-2])
                                  & (values[1:-1] > values[2:])) + 1
    interior_min = np.flatnonzero((values[1:-1] < values[:-2])
                                  & (values[1:-1] < values[2:])) + 1
    assert len(interior_max) == 2
    assert len(interior_min) == 1
    assert interior_max[0] < interior_min[0] < interior_max[1]
    peaks = [window[i][0] for i in interior_max]
    dip = window[interior_min[0]][0]

    # the macroscopic near-field term exceeds the cavity one by exactly 3/2
    config = cli.get_preset("fig4")
    worst = 0.0
    for omega in (0.4, 1.0, 1.7):
        eps = eval_lorentz(config.medium, omega).eps
        r_c = config.onsager_radius(omega)
        r_m = config.rm_radius(omega)
        ratio = rates._gamma0(eps, 0.0, abs(eps) ** 2, omega, r_m) \
            / rates.cavity_nearfield(eps, omega, r_c)
        worst = max(worst, abs(ratio - 1.5))
    assert worst <= 1e-12
    _verdict(9, f"double peak at omega = {peaks[0]:.3f}, {peaks[1]:.3f} with "
                f"dip at {dip:.3f}; near-field ratio 3/2 to {worst:.1e}")


def test_criterion_10_determinism():
    for name in cli.PRESET_NAMES:
        config = cli.get_preset(name)
        first, second = io.StringIO(), io.StringIO()
        cli.write_csv(cli.run_sweep(config), config, first)
        cli.write_csv(cli.run_sweep(config), config, second)
        assert first.getvalue() == second.getvalue()
        assert len(first.getvalue().splitlines()) == config.omega_count + 1
    _verdict(10, "byte-identical CSV for fig2, fig3, fig4 reruns")
