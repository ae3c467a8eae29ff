"""The input contract of every public function that takes a length or a
frequency (after Claessen & Hughes, "QuickCheck", ICFP 2000).

A length or a frequency is valid when it is real, finite and > 0 (eps_b of
a LorentzMedium when >= 1, Omega when >= 0), and so is the oracle's
rel_tol, which must also be one number (an array of valid values raises
DomainError, as the call allows).  For each such argument, the
other arguments kept valid, the draws are fixed by a seed and never
filtered by outcome:

* "invalid": NaN, an infinity, a zero or a negative value, a complex value
  whose parts are such values, or an array that mixes valid and invalid
  values.  The call raises DomainError, exactly as for one bad number.
* "valid": 1e-300, 1e300, or an array of these and a moderate value.  The
  call returns finite values or raises a cavrate error (DomainError,
  IllConditioned, SingularDenominator or QuadratureFailure), or
  OverflowError until the referenced outer amplitudes of ROADMAP item 2
  land.  The cases that cannot pass yet are strict expected failures.

RuntimeWarning stays an error, as everywhere in the suite.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cavrate import dielectric, oracle, rates
from cavrate import multilayer as ml
from cavrate.errors import (DomainError, IllConditioned, QuadratureFailure,
                            SingularDenominator)

EPS, HOST = 5 + 2.5j, 1.5 + 0.1j
MEDIUM = dict(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
ALLOWED = (DomainError, IllConditioned, SingularDenominator,
           QuadratureFailure, OverflowError)


def stack(r1=0.6, r2=2.0):
    """A vacuum cavity in a sphere of EPS in an absorbing host."""
    return ml.LayerStack((r1, r2), (1.0, EPS, HOST))


def medium_only(name):
    return lambda k0=1.0, r=0.1: getattr(rates, name)(EPS, k0, r)


def lorentz(name):
    return lambda value=MEDIUM[name]: dielectric.LorentzMedium(
        **{**MEDIUM, name: value})


# name -> a call whose keyword arguments, all valid by default, are the
# lengths and frequencies drawn
CASES = {
    **{name: medium_only(name) for name in (
        "cavity_nearfield", "gamma0_macroscopic", "w0_cutoff",
        "w0_expanded", "gamma0_loc", "p_eff_expansion")},
    "rate_report": lambda radius=2.0, r_c=0.2, r_m=0.3, k0=1.1:
        rates.rate_report(EPS, HOST, radius, r_c, r_m, k0),
    "gamma_sc": lambda radius=2.0, k0=1.1:
        rates.gamma_sc(EPS, HOST, radius, k0),
    "gamma_sc_loc": lambda radius=2.0, k0=1.1:
        rates.gamma_sc_loc(EPS, HOST, radius, k0),
    "gamma_hat_total": lambda r1=0.6, r2=2.0, k0=1.1:
        rates.gamma_hat_total(stack(r1, r2), k0),
    "external_power": lambda r2=2.0, k0=1.1, r_obs=3.0:
        rates.external_power(stack(r2=r2), k0, r_obs),
    "angular_radiation": lambda k0=1.1, r=3.0:
        rates.angular_radiation(stack(), k0, r, 0.5),
    "coefficients": lambda r1=0.6, r2=2.0, k0=1.1:
        ml.coefficients(stack(r1, r2), k0),
    "field_in_layer": lambda k0=1.1, r=1.0: ml.field_in_layer(
        stack(), ml.coefficients(stack(), 1.1), r, 0.3, k0),
    "field_center_limit": lambda k0=1.1: ml.field_center_limit(
        ml.coefficients(stack(), 1.1), 1.0, k0),
    "homogeneous_field": lambda k0=1.1, r=1.0:
        ml.homogeneous_field(EPS, k0)(r, 0.3),
    "stack_field_evaluator": lambda k0=1.1, r=1.0:
        ml.stack_field_evaluator(stack(), k0)(r, 0.3),
    "flux_through_sphere": lambda k0=1.1, r=1.0: oracle.flux_through_sphere(
        ml.homogeneous_field(EPS, 1.1), r, k0),
    "absorbed_power": (
        lambda k0=1.1, r_inner=0.5, r_outer=1.0, rel_tol=1e-10:
        oracle.absorbed_power(ml.homogeneous_field(EPS, 1.1), r_inner,
                              r_outer, EPS, k0, rel_tol)),
    "energy_balance": lambda k0=1.1, r_inner=0.5, r_outer=1.0:
        oracle.energy_balance(ml.homogeneous_field(EPS, 1.1), r_inner,
                              r_outer, EPS, k0),
    "eval_lorentz": lambda omega=1.0: dielectric.eval_lorentz(
        dielectric.LorentzMedium(**MEDIUM), omega),
    **{f"LorentzMedium_{name}": lorentz(name) for name in MEDIUM},
}

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 1e300)
# the special values that an argument's rule accepts, 1e-300 and 1e300 for
# a length or a frequency
VALID = {"LorentzMedium_eps_b": (1e300,),
         "LorentzMedium_Omega": (0.0, -0.0, 1e-300, 1e300)}


def arguments(name):
    code = CASES[name].__code__
    return code.co_varnames[:code.co_argcount]


def draws(name, argument, kind):
    """The strategy of one argument's draws of the given kind."""
    default = CASES[name].__defaults__[arguments(name).index(argument)]
    valid = VALID.get(name, (1e-300, 1e300))
    good = st.sampled_from((*valid, default))
    if kind == "valid":
        return st.sampled_from(valid) | st.lists(
            good, min_size=1, max_size=4).map(np.array)
    parts = st.sampled_from((*SPECIAL, default))
    invalid = st.sampled_from([x for x in SPECIAL if x not in valid]) \
        | st.builds(complex, parts, parts)
    # an array holds one invalid value among valid ones
    return invalid | st.tuples(
        st.lists(good, max_size=2), invalid, st.lists(good, max_size=2)).map(
            lambda drawn: np.array([*drawn[0], drawn[1], *drawn[2]]))


def finite(result) -> bool:
    if dataclasses.is_dataclass(result):
        return all(finite(getattr(result, f.name))
                   for f in dataclasses.fields(result))
    if isinstance(result, tuple):
        return all(map(finite, result))
    return bool(np.isfinite(result).all())


# (name, argument) -> why some valid draw still ends in a non-finite value,
# a RuntimeWarning or a foreign exception (ROADMAP item 18)
ENGINE = "an array k0 r near 1e-300 overflows 1/z in the amplitude engine"
FIELD = "the field at k0 r near 1e-300 leaves the double range"
ORACLE = "k0**4 leaves the double range"
OPEN = {
    **{(name, argument): ENGINE for name, arguments_ in (
        ("rate_report", ("radius", "k0")), ("gamma_sc", ("radius", "k0")),
        ("gamma_sc_loc", ("radius", "k0")),
        ("gamma_hat_total", ("r1", "k0")), ("external_power", ("k0",)),
        ("angular_radiation", ("k0",)), ("coefficients", ("r1", "k0")),
        ("stack_field_evaluator", ("k0",))) for argument in arguments_},
    **{(name, argument): FIELD for name, arguments_ in (
        ("field_in_layer", ("k0", "r")), ("homogeneous_field", ("k0", "r")),
        ("stack_field_evaluator", ("r",)), ("flux_through_sphere", ("r",)),
        ("energy_balance", ("r_inner", "r_outer"))) for argument in arguments_},
    **{(name, "k0"): ORACLE for name in (
        "flux_through_sphere", "absorbed_power", "energy_balance")},
    ("field_center_limit", "k0"): "k0**3 overflows at k0 = 1e300",
    ("external_power", "r_obs"): "(k0 r_obs)**3 overflows at r_obs = 1e300",
    ("eval_lorentz", "omega"): "omega**2 overflows in an array at 1e300",
}


@pytest.mark.parametrize("name, argument, kind", [
    pytest.param(name, argument, kind, marks=pytest.mark.xfail(
        strict=True, reason=OPEN[name, argument]))
    if kind == "valid" and (name, argument) in OPEN
    else (name, argument, kind)
    for name in CASES for argument in arguments(name)
    for kind in ("invalid", "valid")])
def test_input_contract(name, argument, kind):
    @seed(20260)
    @settings(max_examples=25, deadline=None, database=None)
    @given(draws(name, argument, kind))
    def check(value):
        try:
            result = CASES[name](**{argument: value})
        except ALLOWED as exc:
            assert kind == "valid" or type(exc) is DomainError, exc
        else:
            assert kind == "valid", f"{value!r} was accepted"
            assert finite(result), f"{value!r} gave {result!r}"

    check()


def _cube(name, x):
    return (f"k0*{name} = {x:g} must lie in [2**-340, 2**340], where its "
            "cube is a normal float")


RADII = "the radii must be positive and increasing"


def radius_samples():
    """A sphere of EPS in vacuum whose radius is an array of samples."""
    return ml.LayerStack((np.array([1.0, 1.1]),), (EPS, 1.0))


# inputs that a function took, or failed on with a foreign exception,
# before the one rule: the call and the DomainError message it raises
PROBES = {
    "absorbed_power_negative_k0": (lambda: oracle.absorbed_power(
        ml.homogeneous_field(2 + 0.1j, 1.0), 0.5, 1.0, 2 + 0.1j, -1.0),
        "k0 must be positive"),
    "flux_nan_k0": (lambda: oracle.flux_through_sphere(
        ml.homogeneous_field(EPS, 1.0), 1.0, math.nan), "k0 must be positive"),
    "homogeneous_field_zero_k0": (lambda: oracle.flux_through_sphere(
        ml.homogeneous_field(EPS, 0.0), 1.0, 1.0), "k0 must be positive"),
    "coeffs_general_n_complex_k0": (lambda: ml.coeffs_general_n(
        stack(), 1 + 0.01j), "k0 must be positive"),
    "gamma0_loc_complex_k0": (lambda: rates.gamma0_loc(
        EPS, 1 + 0.01j, 0.1), "k0 must be positive"),
    "w0_cutoff_lossy_inf_r_c": (lambda: rates.w0_cutoff(
        5 - 1j, 1.0, math.inf), "r_c must be positive"),
    "w0_cutoff_inf_r_c": (lambda: rates.w0_cutoff(EPS, 1.0, math.inf),
                          "r_c must be positive"),
    "coeffs_two_layer_inf_r1": (lambda: ml.coeffs_two_layer(
        EPS, HOST, math.inf, 1.0), RADII),
    "p_eff_expansion_inf_r_c": (lambda: rates.p_eff_expansion(
        EPS, 1.0, math.inf), "r_c must be positive"),
    "eval_lorentz_inf_omega": (lambda: dielectric.eval_lorentz(
        dielectric.LorentzMedium(**MEDIUM), math.inf),
        "omega = inf must be > 0"),
    "external_power_inf_r_obs": (lambda: rates.external_power(
        stack(), 1.0, r_obs=math.inf), "r_obs = inf must be real and finite"),
    "field_in_layer_inf_r": (lambda: ml.field_in_layer(
        stack(), ml.coefficients(stack(), 1.0), math.inf, 0.3, 1.0),
        "r must be positive (use field_center_limit at 0)"),
    "rate_report_inf_r_c": (lambda: rates.rate_report(
        EPS, 1.0, 2.0, math.inf, 0.2, 1.0), "r_c must be positive"),
    "lorentz_inf_eps_b": (lambda: dielectric.LorentzMedium(
        **{**MEDIUM, "eps_b": math.inf}), "eps_b = inf must be >= 1"),
    "lorentz_inf_gamma": (lambda: dielectric.LorentzMedium(
        **{**MEDIUM, "gamma": math.inf}), "gamma = inf must be > 0"),
    "stack_complex_radius": (lambda: stack(r2=2 + 0.1j), RADII),
    "stack_complex_radius_array": (lambda: stack(
        r2=np.array([2.0, 2 + 0.1j])), RADII),
    **{f"stack_{kind.__name__}_radius": ((lambda kind=kind: stack(
        r2=kind(2 + 0.1j))), RADII) for kind in (np.complex128, np.complex64)},
    # the oracle checks an (S,) k0 sample by sample
    **{f"{name}_array_k0": (call, "k0 must be positive")
       for name, call in (
           ("flux_through_sphere", lambda: oracle.flux_through_sphere(
               ml.homogeneous_field(EPS, np.array([1.1, 1.1])), 1.0,
               np.array([1.1, -1.1]))),
           ("absorbed_power", lambda: oracle.absorbed_power(
               ml.homogeneous_field(EPS, np.array([1.1, 1.1])), 0.5, 1.0,
               EPS, np.array([1.1, -1.1]))),
           ("energy_balance", lambda: oracle.energy_balance(
               ml.homogeneous_field(EPS, np.array([1.1, 1.1])), 0.5, 1.0,
               EPS, np.array([1.1, -1.1]))))},
    "absorbed_power_array_rel_tol": (lambda: oracle.absorbed_power(
        ml.homogeneous_field(EPS, 1.1), 0.5, 1.0, EPS, 1.1,
        np.array([1e-10, 1e-10])), "rel_tol must be one number, not an array"),
    # the fields find a radius's layer in a stack of number radii only
    **{f"{name}_radius_arrays": (call, "the layer lookup takes permittivity "
                                 "samples only: pass layer= for radius arrays")
       for name, call in (
           ("field_in_layer", lambda: ml.field_in_layer(
               radius_samples(), ml.coefficients(radius_samples(), 1.0), 0.5,
               0.3, 1.0)),
           ("stack_field_evaluator", lambda: ml.stack_field_evaluator(
               radius_samples(), 1.0)(0.5, 0.3)))},
    # k r of the amplitude engine underflows to 0
    **{f"{name}_k0_r_underflow": (call, "k0*r underflows to 0 at r = 1e-300")
       for name, call in (
        ("gamma_sc", lambda: rates.gamma_sc(EPS, 1.0, 1e-300, 1e-300)),
        ("rate_report", lambda: rates.rate_report(
            EPS, 1.0, 1e-300, 0.2, 0.2, 1e-300)),
        ("coefficients", lambda: ml.coefficients(
            stack(1e-300, 1.0), 1e-300)))},
    # k0 r whose cube underflows, or whose inverse cube overflows
    **{f"{name}_{k0:g}": ((lambda name=name, k0=k0, r=r: getattr(
        rates, name)(EPS, k0, r)), _cube(
            "r_m" if name == "gamma0_macroscopic" else "r_c", k0 * r))
       for name in ("gamma0_macroscopic", "w0_cutoff", "cavity_nearfield",
                    "gamma0_loc", "w0_expanded")
       for k0, r in ((1e-300, 1e-300), (1e-110, 1.0))},
    "rate_report_r_m_underflow": (lambda: rates.rate_report(
        EPS, 1.0, 2.0, 0.2, 1e-300, 1.0), _cube("r_m", 1e-300)),
    "rate_report_r_c_underflow_array": (lambda: rates.rate_report(
        EPS, 1.0, 2.0, np.array([0.2, 1e-300]), 0.2, 1.0),
        _cube("r_c", 1e-300)),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_probe_names_its_argument(name):
    call, message = PROBES[name]
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


# an (S,) k0 is one frequency per sample of the field and of the oracle:
# each sample's value is the number call's at its k0
ORACLE_K0 = {
    "flux_through_sphere": lambda k0: oracle.flux_through_sphere(
        ml.homogeneous_field(EPS, k0), 1.0, k0),
    "absorbed_power": lambda k0: oracle.absorbed_power(
        ml.homogeneous_field(EPS, k0), 0.5, 1.0, EPS, k0),
    "energy_balance": lambda k0: oracle.energy_balance(
        ml.homogeneous_field(EPS, k0), 0.5, 1.0, EPS, k0),
}


@pytest.mark.parametrize("name", list(ORACLE_K0))
def test_array_k0_is_one_frequency_per_sample(name):
    k0 = np.array([0.7, 1.1, 1.1, 2.3])
    got = ORACLE_K0[name](k0)
    expected = np.array([ORACLE_K0[name](k) for k in k0.tolist()])
    assert got.shape == (4,)
    assert np.all(abs(got - expected) <= 1e-14 * np.maximum(1, abs(expected)))
