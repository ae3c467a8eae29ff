import math

import numpy as np
import pytest

from cavrate import cli, oracle, rates, verify
from cavrate import multilayer as ml
from cavrate.dielectric import eval_lorentz
from cavrate.errors import DomainError, QuadratureFailure


def test_quadrature_spec_validation():
    # rel_tol takes the rule of a length: real, finite and > 0, one number
    fields = ml.homogeneous_field(5 + 2.5j, 1.0)
    for rel_tol, message in (
            (0.0, "rel_tol = 0 must be > 0"),
            (math.nan, "rel_tol = nan must be > 0"),
            (math.inf, "rel_tol = inf must be > 0"),
            (-1e-10, "rel_tol = -1e-10 must be > 0"),
            (1e-10 + 0j, "rel_tol = 1e-10+0j must be > 0"),
            (np.array([1e-10, 1e-12]),
             "rel_tol must be one number, not an array")):
        with pytest.raises(DomainError) as caught:
            oracle.absorbed_power(fields, 0.5, 2.0, 5 + 2.5j, 1.0, rel_tol)
        assert str(caught.value) == message
    assert oracle.REL_TOL == 1e-10


def test_polar_nodes_do_not_depend_on_the_simd_level():
    # numpy's AVX-512 arccos rounds the third node one unit higher than
    # its AVX2 kernel and than libm's acos, which give these bits
    assert [x.hex() for x in oracle._GL_THETA] == [
        "0x1.6dee5319d63acp+1", "0x1.3f0c13d0c484ap+1",
        "0x1.0fe3b996a38e1p+1", "0x1.c159bd74cb47bp+0",
        "0x1.62e5ad13ba5b5p+0", "0x1.0477f75b3e86ep+0",
        "0x1.4c4e85cdf9338p-1", "0x1.218b115364b5fp-2"]


def test_vacuum_dipole_radiates_unit_power():
    fields = ml.homogeneous_field(1.0, 1.0)
    for r in (0.5, 2.0, 10.0):
        assert oracle.flux_through_sphere(fields, r, 1.0) \
            == pytest.approx(1.0, rel=1e-12)


def test_flux_matches_analytic_flow(rng):
    for _ in range(5):
        eps = complex(rng.uniform(0.5, 9), rng.uniform(0, 5))
        k0 = rng.uniform(0.5, 2.0)
        fields = ml.homogeneous_field(eps, k0)
        r = 1.0 / k0
        assert oracle.flux_through_sphere(fields, r, k0) \
            == pytest.approx(rates.w0_cutoff(eps, k0, r), rel=1e-10)


def test_absorbed_matches_analytic_difference():
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    got = oracle.absorbed_power(fields, 0.5, 1.5, eps, k0)
    expected = rates.w0_cutoff(eps, k0, 0.5) - rates.w0_cutoff(eps, k0, 1.5)
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("r_inner, r_outer", [
    (0.5, 1.5), (0.3, 3.0), (0.05, 5.0), (0.3, 10.0), (0.5, 2.0)])
def test_absorbed_matches_analytic_difference_on_wide_shells(r_inner,
                                                             r_outer):
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    got = oracle.absorbed_power(fields, r_inner, r_outer, eps, k0)
    expected = rates.w0_cutoff(eps, k0, r_inner) \
        - rates.w0_cutoff(eps, k0, r_outer)
    assert abs(got - expected) <= 1e-12 * abs(expected)


def counting(fields, calls):
    """fields, recording the shape of the radii of every call."""
    def counted(r, theta):
        calls.append(np.shape(r))
        return fields(r, theta)
    return counted


@pytest.mark.parametrize("max_depth", [30, 12])
def test_one_field_call_per_bisection_level(monkeypatch, max_depth):
    eps, k0 = 5 + 2.5j, 1.0
    monkeypatch.setattr(oracle, "_MAX_DEPTH", max_depth)
    for shell in ((0.05, 5.0), (0.3, 10.0), (1.0, 1.0002)):
        calls = []
        oracle.absorbed_power(counting(ml.homogeneous_field(eps, k0), calls),
                              *shell, eps, k0)
        assert 1 <= len(calls) <= max_depth
        # every call holds whole panels of 16 + 32 radii
        assert all(s[0] % 48 == 0 and s[1:] == (1,) for s in calls)


def test_dipole_pattern_is_sin_squared():
    fields = ml.homogeneous_field(3 + 1j, 1.0)
    _, e_theta, b_phi = fields(1.3, np.array([math.pi / 4, math.pi / 2]))
    radial = (e_theta * np.conj(b_phi)).real
    assert radial[0] / radial[1] == pytest.approx(0.5, rel=1e-14)


def test_lossless_shell_absorbs_nothing():
    fields = ml.homogeneous_field(4.0, 1.0)
    assert oracle.absorbed_power(fields, 0.5, 2.0, 4.0, 1.0) == 0.0


def test_absorption_vanishes_linearly_with_shell_width():
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    wide = oracle.absorbed_power(fields, 1.0, 1.0 + 2e-4, eps, k0)
    narrow = oracle.absorbed_power(fields, 1.0, 1.0 + 1e-4, eps, k0)
    assert wide / narrow == pytest.approx(2.0, rel=1e-3)
    assert oracle.absorbed_power(fields, 1.0, 1.0, eps, k0) == 0.0


def test_energy_balance_lossless_shell():
    fields = ml.homogeneous_field(4.0, 1.0)
    assert oracle.energy_balance(fields, 0.5, 3.0, 4.0, 1.0) < 1e-9


def test_energy_balance_absorbing_medium():
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    assert oracle.energy_balance(fields, 0.3, 3.0, eps, k0) < 1e-8


def test_energy_balance_inside_stack_shell():
    stack = ml.LayerStack((0.628, 2.0), (1.0, 5 + 2.5j, 1.0))
    fields = ml.stack_field_evaluator(stack, 1.0)
    assert oracle.energy_balance(fields, 0.7, 1.9, 5 + 2.5j, 1.0) < 1e-8


def test_total_power_is_radius_independent():
    eps, k0, r_c = 5 + 2.5j, 1.0, 0.3
    fields = ml.homogeneous_field(eps, k0)
    totals = []
    for r in (0.3, 0.7, 1.5, 4.0, 8.0):
        total = oracle.flux_through_sphere(fields, r, k0)
        if r > r_c:
            total += oracle.absorbed_power(fields, r_c, r, eps, k0)
        totals.append(total)
    base = totals[0]
    assert all(abs(t / base - 1) < 1e-8 for t in totals)


def test_cavity_flux_equals_total_rate():
    """Flux through the lossless central cavity is the total decay rate.

    Direct Poynting check of the normalized-rate formula 1 + Re c1, with
    no analytic power expression on the numerical side.
    """
    eps, k0 = 5 + 2.5j, 1.0
    stack = ml.LayerStack((0.628, 2.0), (1.0, eps, 1.0))
    fields = ml.stack_field_evaluator(stack, k0)
    total = rates.gamma_hat_total(stack, k0)
    for r in (0.19, 0.38, 0.6):
        assert oracle.flux_through_sphere(fields, r, k0) \
            == pytest.approx(total, rel=1e-10)
    small = ml.LayerStack((0.05,), (1.0, eps))
    fields = ml.stack_field_evaluator(small, k0)
    assert oracle.flux_through_sphere(fields, 0.03, k0) \
        == pytest.approx(rates.gamma_hat_total(small, k0), rel=1e-10)


def test_one_flux_call_checks_a_whole_sweep():
    """fig3's 601 rows, each with its own eps and k0, as samples of one
    bare-sphere field: the flux just outside the sphere is each row's
    w_ext_hat (a vacuum host absorbs nothing beyond it)."""
    config = cli.get_preset("fig3")
    omega = config._omega_array()
    eps = eval_lorentz(config.medium, omega).eps
    radius = config.sphere_radius
    fields = ml.stack_field_evaluator(
        ml.LayerStack((radius,), (eps, config.eps_ext)), omega)
    flux = oracle.flux_through_sphere(fields, radius * (1 + 1e-7), omega)
    w_ext = rates.rate_report(eps, config.eps_ext, radius,
                              config.onsager_radius(omega),
                              config.rm_radius(omega), omega).w_ext_hat
    assert flux.shape == (601,)
    assert np.max(abs(flux - w_ext) / w_ext) <= 1e-14


def test_tighter_tolerance_changes_nothing():
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    a = oracle.absorbed_power(fields, 0.5, 2.0, eps, k0)
    tight = oracle.REL_TOL / 16
    # no bisection of [0.5, 2] reaches 1, so b shares no panel with a
    b = (oracle.absorbed_power(fields, 0.5, 1.0, eps, k0, tight)
         + oracle.absorbed_power(fields, 1.0, 2.0, eps, k0, tight))
    assert 0 < abs(a - b) <= oracle.REL_TOL * abs(b)


def test_convergence_check_sees_an_unconverged_rule(monkeypatch):
    # one 4-node panel per integral; a reference on the same panels agrees
    nodes, weights = np.polynomial.legendre.leggauss(4)

    def coarse(fn, a, b, rel_tol):
        half = 0.5 * (np.asarray(b) - a)
        points = (a + half)[..., None] + half[..., None] * nodes
        return half * (fn(points) @ weights)

    monkeypatch.setattr(oracle, "_adaptive_gauss", coarse)
    result = verify.check_quadrature_convergence(5 + 2.5j, 1.0)
    assert not result.passed and result.measured > 1e3 * result.tolerance


def test_quadrature_failure_reported(monkeypatch):
    eps, k0 = 5 + 2.5j, 1.0
    fields = ml.homogeneous_field(eps, k0)
    monkeypatch.setattr(oracle, "_MAX_DEPTH", 2)
    with pytest.raises(QuadratureFailure, match="at depth 2 "):
        oracle.absorbed_power(fields, 0.05, 5.0, eps, k0, 1e-13)


def nan_fields(r, theta):
    nan = np.full(np.broadcast(r, theta).shape, complex(math.nan, math.nan))
    return nan, nan, nan


@pytest.mark.parametrize("fields, shell, rel_tol", [
    (ml.homogeneous_field(5 + 2.5j, 1.0), (0.05, 5.0), 1e-17),  # below
    (ml.homogeneous_field(5 + 2.5j, 1.0), (0.3, 3.0), 1e-17),   # rounding
    (nan_fields, (0.5, 2.0), 1e-10)])
def test_unconverging_integral_fails_within_bounded_work(fields, shell,
                                                         rel_tol):
    calls = []
    with pytest.raises(QuadratureFailure):
        oracle.absorbed_power(counting(fields, calls), *shell, 5 + 2.5j, 1.0,
                              rel_tol)
    # no level evaluates more panels than the limit, nor runs past the depth
    assert max(n for n, _ in calls) <= 48 * oracle._MAX_OPEN_PANELS
    assert len(calls) <= oracle._MAX_DEPTH


# four samples, one shell each, that converge at different depths: in a
# homogeneous medium and in the middle layer of a cavity / sphere / vacuum
# stack, each evaluator made from a number or an (S,) array eps
SAMPLE_EPS = np.array([5 + 2.5j, 2 + 0.3j, 8 + 4j, 3 + 1j])
SAMPLE_CASES = {
    "homogeneous": (ml.homogeneous_field,
                    ((0.3, 0.5), (0.05, 5.0), (0.5, 2.0), (1.0, 10.0))),
    "stack": (lambda eps, k0: ml.stack_field_evaluator(
        ml.LayerStack((0.05, 8.0), (1.0, eps, 1.0)), k0),
              ((0.06, 7.5), (1.0, 1.2), (0.5, 2.0), (2.0, 7.9))),
}
DEEPEST = {"homogeneous": 1, "stack": 0}  # the sample of the most levels


def sample_case(name):
    make, shells = SAMPLE_CASES[name]
    return (make, *np.array(shells).T)


def number_levels(make, shells, eps):
    """The field calls of each shell's number-input integral."""
    out = []
    for (r_inner, r_outer), e in zip(shells, eps.tolist()):
        calls = []
        oracle.absorbed_power(counting(make(e, 1.0), calls), r_inner,
                              r_outer, e, 1.0)
        out.append(calls)
    return out


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_samples_match_their_number_results(name):
    make, r_inner, r_outer = sample_case(name)
    fields = make(SAMPLE_EPS, 1.0)
    flux = oracle.flux_through_sphere(fields, r_outer, 1.0)
    absorbed = oracle.absorbed_power(fields, r_inner, r_outer, SAMPLE_EPS,
                                     1.0)
    defect = oracle.energy_balance(fields, r_inner, r_outer, SAMPLE_EPS, 1.0)
    for s, eps in enumerate(SAMPLE_EPS.tolist()):
        one, shell = make(eps, 1.0), (r_inner[s], r_outer[s])
        expected = oracle.flux_through_sphere(one, r_outer[s], 1.0)
        assert abs(flux[s] - expected) <= 1e-13 * abs(expected)
        expected = oracle.absorbed_power(one, *shell, eps, 1.0)
        assert abs(absorbed[s] - expected) <= 1e-13 * abs(expected)
        assert abs(defect[s] - oracle.energy_balance(one, *shell, eps, 1.0)) \
            <= 1e-13
    assert flux.shape == absorbed.shape == defect.shape == (4,)


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_one_field_call_per_level_for_all_samples(name):
    make, r_inner, r_outer = sample_case(name)
    calls = []
    oracle.absorbed_power(counting(make(SAMPLE_EPS, 1.0), calls), r_inner,
                          r_outer, SAMPLE_EPS, 1.0)
    levels = list(map(len, number_levels(make, SAMPLE_CASES[name][1],
                                         SAMPLE_EPS)))
    assert min(levels) < max(levels) == len(calls)
    # every call holds whole panels of 16 + 32 radii for each sample
    assert all(len(s) == 3 and s[0] == 4 and s[1] % 48 == 0 and s[2] == 1
               for s in calls)


def test_idle_samples_absorb_nothing():
    fields = ml.homogeneous_field(np.array([4.0, 5 + 2.5j, 2 + 1j]), 1.0)
    got = oracle.absorbed_power(fields, np.array([0.5, 1.0, 0.3]),
                                np.array([2.0, 1.0, 0.6]),
                                np.array([4.0, 5 + 2.5j, 2 + 1j]), 1.0)
    assert got[0] == got[1] == 0.0 and got[2] > 0
    assert np.array_equal(oracle.absorbed_power(
        fields, np.full(3, 0.5), np.full(3, 2.0), 4.0, 1.0), np.zeros(3))


@pytest.mark.parametrize("name", SAMPLE_CASES)
@pytest.mark.parametrize("function, position, bad", [
    ("absorbed_power", 0, 0.0), ("absorbed_power", 0, math.nan),
    ("absorbed_power", 1, 0.01), ("absorbed_power", 2, 2 - 1j),
    ("absorbed_power", 2, complex(2, math.nan)),
    ("flux_through_sphere", 0, 0.0), ("flux_through_sphere", 0, math.nan)])
def test_a_bad_sample_raises_as_a_bad_number(name, function, position, bad):
    make, r_inner, r_outer = sample_case(name)
    args = ([r_inner, r_outer, SAMPLE_EPS] if function == "absorbed_power"
            else [r_outer])
    numbers = [x[2].item() for x in args]
    args[position] = args[position].copy()
    args[position][2], numbers[position] = bad, bad
    errors = []
    for fields, values in ((make(SAMPLE_EPS, 1.0), args),
                           (make(SAMPLE_EPS[2].item(), 1.0), numbers)):
        with pytest.raises(DomainError) as caught:
            getattr(oracle, function)(fields, *values, 1.0)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


def failure_place(message):
    """Where a QuadratureFailure message says its integral stopped."""
    return message.split(" (local error")[0]


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_an_unconverged_sample_is_named(monkeypatch, name):
    make, r_inner, r_outer = sample_case(name)
    monkeypatch.setattr(oracle, "_MAX_DEPTH", 2)
    s = DEEPEST[name]
    with pytest.raises(QuadratureFailure) as batched:
        oracle.absorbed_power(make(SAMPLE_EPS, 1.0), r_inner, r_outer,
                              SAMPLE_EPS, 1.0, 1e-13)
    eps = SAMPLE_EPS[s].item()
    with pytest.raises(QuadratureFailure) as number:
        oracle.absorbed_power(make(eps, 1.0), r_inner[s], r_outer[s], eps,
                              1.0, 1e-13)
    assert failure_place(str(batched.value)) == failure_place(
        str(number.value)).replace("integral", f"integral of sample {s}")


@pytest.mark.parametrize("name", SAMPLE_CASES)
def test_the_panel_limit_counts_per_sample(name):
    # two copies of a shell that runs into the limit below rounding, in the
    # same number-eps field: a limit on both samples' panels together would
    # stop them before any level held more than half of it for each
    make, r_inner, r_outer = sample_case(name)
    s = DEEPEST[name]
    eps = SAMPLE_EPS[s].item()
    calls = []
    with pytest.raises(QuadratureFailure) as batched:
        oracle.absorbed_power(counting(make(eps, 1.0), calls),
                              np.full(2, r_inner[s]), np.full(2, r_outer[s]),
                              eps, 1.0, 1e-17)
    with pytest.raises(QuadratureFailure) as number:
        oracle.absorbed_power(make(eps, 1.0), r_inner[s], r_outer[s], eps,
                              1.0, 1e-17)
    assert str(batched.value) == str(number.value).replace(
        "integral", "integral of sample 0")
    assert 48 * oracle._MAX_OPEN_PANELS // 2 < max(n for _, n, _ in calls) \
        <= 48 * oracle._MAX_OPEN_PANELS

def pinned_fields():
    """A homogeneous absorbing medium and a cavity / sphere / vacuum stack."""
    stack = ml.LayerStack((0.628, 2.0), (1.0, 5 + 2.5j, 1.0))
    return (ml.homogeneous_field(5 + 2.5j, 1.0),
            ml.stack_field_evaluator(stack, 1.0))


# float.hex of number-input results at k0 = 1; like the array digests of
# test_scalar_bits, they assume numpy's AVX2 dispatch or above
FLUX_BITS = {  # (field, radius)
    (0, 0.3): "0x1.64ad6c31b822cp+2", (0, 2.3): "0x1.a7e708bb6b18ap-3",
    (1, 0.38): "0x1.501b06c6c8ed6p+1", (1, 1.3): "0x1.f010726bb9d5cp-1",
    (1, 3.0): "0x1.a034be96bf635p-2"}
ABSORBED_BITS = {  # (field, r_inner, r_outer)
    (0, 0.3, 2.3): "0x1.576e33ebdccb1p+2",
    (0, 0.05, 5.0): "0x1.44dd628149833p+9",
    (1, 0.7, 1.9): "0x1.cc3eff4d736dap+0"}
BALANCE_BITS = {  # (field, r_inner, r_outer)
    (0, 0.3, 3.0): "0x1.588351ba93c63p-49",
    (1, 0.7, 1.9): "0x1.17b5d9498a1b9p-50"}


def test_number_input_bits():
    fields = pinned_fields()
    for (i, r), bits in FLUX_BITS.items():
        assert oracle.flux_through_sphere(fields[i], r, 1.0).hex() == bits
    for function, table in ((oracle.absorbed_power, ABSORBED_BITS),
                            (oracle.energy_balance, BALANCE_BITS)):
        for (i, *shell), bits in table.items():
            assert function(fields[i], *shell, 5 + 2.5j, 1.0).hex() == bits


def test_shell_validation():
    fields = ml.homogeneous_field(2 + 1j, 1.0)
    with pytest.raises(DomainError):
        oracle.absorbed_power(fields, 2.0, 1.0, 2 + 1j, 1.0)
    with pytest.raises(DomainError):
        oracle.absorbed_power(fields, 1.0, 2.0, 2 - 1j, 1.0)
    with pytest.raises(DomainError):
        oracle.flux_through_sphere(fields, 0.0, 1.0)
