"""What the invariant battery guards.

Each mutant replaces one function that `run_battery` reaches, in every
cavrate module that imports it, with a wrong version, and must make the
checks listed with it fail at fig3.  A mutant listed with no check is a
known survivor: every check passes, so when a check starts catching it
this test fails and the mutant moves to the caught ones.  README lists the
checks of `verify.CHECKS`, each with its independent route.
"""

import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from cavrate import cli, dielectric, rates, verify

ROOT = Path(__file__).resolve().parent.parent


def bare_sphere(change):
    """A mutant of rates._bare_sphere that changes its result tuple."""
    def wrap(original):
        def mutant(eps, eps_ext, *args):
            return change(eps, eps_ext, *original(eps, eps_ext, *args))
        return mutant
    return wrap


def report_field(name, value):
    """A mutant of rates.rate_report that writes value(report) as name."""
    def wrap(original):
        def mutant(*args):
            report = original(*args)
            return replace(report, **{name: value(report)})
        return mutant
    return wrap


def probe():
    """Values that each mutant changes, at fig3's sphere at resonance."""
    eps = 5 + 2.5j
    return (vars(rates.rate_report(eps, 1.0, 2.0, 0.1, 0.1, 1.0)),
            rates.w0_cutoff(eps, 1.0, 0.1), rates.onsager_factor(eps),
            dielectric.sqrt_eps(eps))


# id: the module and name of the function, the mutant made from the
# original, and the checks that fail (none for a known survivor)
MUTANTS = {
    "p_ext_eps_ext_over_eps": (
        rates, "_bare_sphere", bare_sphere(
            lambda eps, eps_ext, g, d, c1, p, *roots:
            (g, d, c1, p * (eps_ext / eps) ** 2, *roots)),
        ("external_field_scaling",)),
    "w_ext_loc_lorentz_factor": (
        rates, "rate_report", report_field(
            "w_ext_loc_hat", lambda r: r.lorentz_factor * r.w_ext_hat),
        ()),
    "gamma0_prefactor_1": (
        rates, "_gamma0",
        lambda f: lambda eps, eta, *args: (f(eps, eta, *args) - eta) / 1.5
        + eta,
        ()),
    "gamma_loc_from_g0": (
        rates, "rate_report", report_field(
            "gamma_loc_hat", lambda r: r.gamma0_hat + r.gamma_sc_loc_hat),
        ()),
    "delta_sc_doubled": (
        rates, "_bare_sphere", bare_sphere(
            lambda eps, eps_ext, g, d, *rest: (g, 2 * d, *rest)),
        ("cavity_rate_forms_agree",)),
    "root_c1_conjugated": (
        rates, "_bare_sphere", bare_sphere(
            lambda eps, eps_ext, g, d, *rest: (g, -d, *rest)),
        ("cavity_rate_forms_agree",)),
    "power_beyond_no_absorption": (
        # a real eps zeroes the absorption term; the root is passed apart
        rates, "_power_beyond",
        lambda f: lambda eps, *args: f(eps.real + 0j, *args),
        ("oracle_matches_analytic_power",)),
    "sqrt_eps_lower_root": (
        dielectric, "sqrt_eps", lambda f: lambda eps: -f(eps),
        ("sqrt_branch_reconstruction", "expansion_order_gamma0_loc",
         "expansion_order_central_c1", "rate_decomposition_slope")),
    "external_dipole_epsN_over_eps1": (
        # the outer moment with eps_N/eps_1 in place of eps_1/eps_N
        rates, "_outer",
        lambda f: lambda eps, *args: (
            lambda c1, p: (c1, p * (eps[-1] / eps[0]) ** 2))(*f(eps, *args)),
        ("external_field_scaling",)),
    "onsager_factor_lorentz": (
        rates, "onsager_factor", lambda f: rates.lorentz_factor,
        ("external_field_scaling",)),
}


@pytest.mark.parametrize("module, name, make, failing", MUTANTS.values(),
                         ids=MUTANTS)
def test_mutant_fails_its_checks(monkeypatch, module, name, make, failing):
    original, unmutated = getattr(module, name), probe()
    mutant = make(original)
    for key, imported in list(sys.modules.items()):
        if key.split(".")[0] == "cavrate" \
                and getattr(imported, name, None) is original:
            monkeypatch.setattr(imported, name, mutant)
    assert probe() != unmutated  # the mutant is live
    report = verify.run_battery(cli.get_preset("fig3"))
    assert tuple(c.name for c in report.checks if not c.passed) == failing


def test_readme_lists_the_battery():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### The battery's checks\n")[1].split("\n#")[0]
    names = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    assert tuple(names) == verify.CHECK_NAMES
