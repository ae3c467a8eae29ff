import dataclasses
import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpref
from cavrate import multilayer as ml
from cavrate import cli, dielectric, oracle, rates
from cavrate.errors import (DomainError, ExpansionRangeWarning,
                            SingularDenominator)
from conftest import passive_eps_samples

EPS_RES = 5 + 2.5j  # oscillator medium at its absorption resonance


def cavity_stack(eps):
    """A vacuum cavity inside a sphere of eps in an absorbing host."""
    return ml.LayerStack((0.3, 2.0), (1.0, eps, 1.5 + 0.1j))

bounded_eps = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=5.0),
).filter(lambda e: abs(e) >= 0.05 and abs(2 * e + 1) >= 1.0)


class TestLocalFieldFactors:
    def test_vacuum(self):
        assert rates.lorentz_factor(1.0) == 1.0
        assert rates.onsager_factor(1.0) == 1.0

    def test_reference_values(self):
        assert rates.onsager_factor(5.0) == pytest.approx((15 / 11) ** 2,
                                                          rel=1e-15)
        assert rates.lorentz_factor(5.0) == pytest.approx((7 / 3) ** 2,
                                                          rel=1e-15)

    def test_pole(self):
        with pytest.raises(DomainError):
            rates.onsager_factor(-0.5)
        # the bare sphere's rate and shift have no pole there; the
        # local-field rate shares their solve but not their definition
        with pytest.raises(DomainError, match="pole"):
            rates.gamma_sc_loc(-0.5, 1.0, 2.0, 1.0)
        assert rates.gamma_sc(-0.5, 1.0, 2.0, 1.0) \
            == pytest.approx(0.20907, abs=1e-5)
        assert rates._bare_sphere(-0.5, 1.0, 2.0, 1.0)[1] \
            == pytest.approx(0.11661, abs=1e-5)


class TestGamma0Macroscopic:
    def test_lossless_reduces_to_eta(self):
        assert rates.gamma0_macroscopic(5.0, 1.0, 0.01) \
            == pytest.approx(math.sqrt(5), rel=1e-15)
        assert rates.gamma0_macroscopic(5.0, 1.0, 7.0) \
            == pytest.approx(math.sqrt(5), rel=1e-15)

    def test_hand_substitution(self):
        # independent route: eta from the half-angle form of the root,
        # near-field term assembled from scratch
        eps, k0, r_m = EPS_RES, 1.0, 0.6283
        eta = math.sqrt((abs(eps) + eps.real) / 2)
        expected = 1.5 * eps.imag / abs(eps) ** 2 / (k0 * r_m) ** 3 + eta
        assert rates.gamma0_macroscopic(eps, k0, r_m) \
            == pytest.approx(expected, rel=1e-14)

    def test_rm_validation(self):
        with pytest.raises(DomainError):
            rates.gamma0_macroscopic(5.0, 1.0, 0.0)


class TestW0:
    def test_lossless_cutoff_value(self):
        assert rates.w0_cutoff(4.0, 1.0, 0.37) == pytest.approx(2.0, rel=1e-15)

    def test_cutoff_must_be_positive(self):
        for r_c in (0.0, np.array([0.1, 0.0])):
            with pytest.raises(DomainError, match="r_c must be positive"):
                rates.w0_cutoff(EPS_RES, 1.0, r_c)

    def test_matches_poynting_oracle(self, rng):
        for eps in passive_eps_samples(rng, 5):
            eps += 0.2j  # keep a visible absorption signal
            k0 = 1.0
            for x in (0.4, 1.1):
                fields = ml.homogeneous_field(eps, k0)
                r = x + 1.5
                quadr = oracle.flux_through_sphere(fields, r, k0) \
                    + oracle.absorbed_power(fields, x, r, eps, k0)
                assert quadr == pytest.approx(rates.w0_cutoff(eps, k0, x),
                                              rel=1e-8)

    def test_expansion_first_omitted_order_is_linear(self):
        # difference from the exact cutoff form shrinks linearly
        xs = (1e-1, 1e-2, 1e-3)
        diffs = [abs(rates.w0_cutoff(EPS_RES, 1.0, x)
                     - rates.w0_expanded(EPS_RES, 1.0, x)) for x in xs]
        slope = np.polyfit(np.log(xs), np.log(diffs), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_expansion_lossless_is_eta(self):
        assert rates.w0_expanded(4.0, 1.0, 0.01) == pytest.approx(2.0,
                                                                  rel=1e-15)

    def test_cutoff_free_term_persists(self):
        # after removing the diverging terms, the limit is eta plus a
        # nonzero absorption offset
        eps, k0 = EPS_RES, 1.0
        eta, kappa = mpref.sqrt_eps(eps).real, mpref.sqrt_eps(eps).imag
        offset = -2 / 3 * (float(eta) * eps.imag + float(kappa) * eps.real) \
            * eps.imag / abs(eps) ** 2
        assert offset != 0
        pref = eps.imag / abs(eps) ** 2
        for x in (1e-1, 1e-2):
            remainder = rates.w0_expanded(eps, k0, x) \
                - pref * (x ** -3 + eps.real / x)
            assert remainder == pytest.approx(float(eta) + offset, rel=1e-9)
        # the exact cutoff form approaches the same nonzero limit
        remainder = rates.w0_cutoff(eps, k0, 1e-2) \
            - pref * (1e-2 ** -3 + eps.real / 1e-2)
        assert remainder == pytest.approx(float(eta) + offset, abs=0.05)
        assert abs(remainder - float(eta)) > 0.05

    def test_expansion_warns_outside_range(self):
        with pytest.warns(ExpansionRangeWarning):
            rates.w0_expanded(EPS_RES, 1.0, 0.35)
        with pytest.warns(ExpansionRangeWarning):
            rates.gamma0_loc(EPS_RES, 1.0, 0.7)

    @pytest.mark.parametrize("r_c, warns", [(0.3, True),
                                            (math.nextafter(0.3, 0), False)])
    def test_expansion_range_excludes_its_limit(self, r_c, warns):
        # k0 r_c = EXPANSION_LIMIT itself lies outside the range
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            rates.gamma0_loc(EPS_RES, 1.0, r_c)
        assert [w.category for w in record] \
            == [ExpansionRangeWarning] * warns


class TestGamma0Loc:
    def test_lossless_collapse(self, rng):
        for _ in range(10):
            eps = complex(rng.uniform(1, 9), 0)
            eta = math.sqrt(eps.real)
            expected = rates.onsager_factor(eps) * eta
            assert abs(rates.gamma0_loc(eps, 1.0, 0.01) - expected) < 1e-13

    def test_reference_value_at_eps_5(self):
        expected = (15 / 11) ** 2 * math.sqrt(5)
        assert rates.gamma0_loc(5.0, 1.0, 0.2 * math.pi) \
            == pytest.approx(expected, rel=1e-14)

    def test_matches_exact_cavity_coefficient(self):
        # exact empty-cavity amplitude, residual is first order in k0 r_c
        eps, k0 = EPS_RES, 1.0
        for x, bound in ((1e-2, 0.1), (1e-3, 0.01)):
            coeffs = ml.coeffs_two_layer(1.0, eps, x / k0, k0)
            assert abs(1 + coeffs.c1.real - rates.gamma0_loc(eps, k0, x / k0)) \
                < bound

    def test_matches_mp_expansion(self, rng):
        for eps in passive_eps_samples(rng, 10):
            got = rates.gamma0_loc(eps, 1.0, 0.01)
            ref = float(mpref.gamma0_loc_expansion(eps, mpref.mp.mpf("0.01")))
            assert got == pytest.approx(ref, rel=1e-13)


class TestPEffExpansion:
    def test_static_limit(self):
        eps = EPS_RES
        got = rates.p_eff_expansion(eps, 1.0, 1e-9)
        assert got == pytest.approx(3 * eps / (2 * eps + 1), rel=1e-12)

    def test_vacuum_is_exactly_one(self):
        for x in (1e-3, 1e-2, 0.1):
            assert rates.p_eff_expansion(1.0, 1.0, x) == 1.0

    def test_matches_exact_transmitted_amplitude(self):
        eps, k0 = EPS_RES, 1.0
        for x, bound in ((3e-2, 1e-5), (1e-2, 2e-7)):
            coeffs = ml.coeffs_two_layer(1.0, eps, x / k0, k0)
            exact = coeffs.c_outer / eps
            assert abs(exact - rates.p_eff_expansion(eps, k0, x / k0)) < bound


class TestGammaHatTotal:
    def test_free_space(self):
        for core in (1.0, np.array([1 + 0j, 1 + 0j])):
            stack = ml.LayerStack((1.0,), (core, 1.0))
            assert rates.gamma_hat_total(stack, 1.0) \
                == pytest.approx(1.0, abs=1e-12)

    def test_requires_vacuum_core(self):
        for core in (2.0, np.array([1.0, 2.0])):
            stack = ml.LayerStack((1.0,), (core, 1.0))
            with pytest.raises(DomainError):
                rates.gamma_hat_total(stack, 1.0)

    def test_two_layer_agrees_with_expansion(self):
        eps, k0, x = EPS_RES, 1.0, 1e-3
        stack = ml.LayerStack((x / k0,), (1.0, eps))
        assert abs(rates.gamma_hat_total(stack, k0)
                   - rates.gamma0_loc(eps, k0, x / k0)) < 0.01

    def test_three_layer_decomposes(self):
        eps, k0, x, radius = EPS_RES, 1.0, 1e-3, 2.0
        stack = ml.LayerStack((x / k0, radius), (1.0, eps, 1.0))
        split = rates.gamma0_loc(eps, k0, x / k0) \
            + rates.gamma_sc_loc(eps, 1.0, radius, k0)
        assert abs(rates.gamma_hat_total(stack, k0) - split) < 0.01

    @given(bounded_eps,
           st.floats(min_value=0.005, max_value=0.9))
    def test_total_rate_positive_for_passive_media(self, eps, k0_r):
        # a dipole in a vacuum bubble inside any passive medium can only
        # lose energy
        stack = ml.LayerStack((k0_r,), (1.0, eps))
        assert rates.gamma_hat_total(stack, 1.0) > -1e-10

    @pytest.mark.parametrize("samples", [None, 3], ids=["numbers", "arrays"])
    def test_is_one_plus_the_engines_c1(self, samples):
        """Bit for bit 1 + Re c1 of coefficients, on 400 seeded
        vacuum-centred passive stacks (N = 3..8) per route."""
        rng = np.random.default_rng(41)
        for _ in range(400):
            n = int(rng.integers(3, 9))
            shape = (n - 1,) if samples is None else (n - 1, samples)
            radii = np.cumsum(rng.uniform(0.05, 2.0, n - 1)).tolist()
            layers = rng.uniform((0.5, 0.0), (9.0, 3.0),
                                 (*shape, 2)).view(complex)[..., 0]
            k0 = rng.uniform(0.2, 3.0, samples)
            stack = ml.LayerStack(radii, (1.0, *(
                layers.tolist() if samples is None else layers)))
            got = rates.gamma_hat_total(stack, k0)
            expected = 1 + ml.coefficients(stack, k0).c1.real
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() \
                == np.asarray(expected).tobytes()

    @staticmethod
    def bug_b_stack(omega):
        """A 0.2 cavity in bug (b)'s sphere of radius 300, whose host of
        eps = 1+0.5j absorbs more than the sphere."""
        eps = dielectric.eval_lorentz(dielectric.LorentzMedium(**MEDIUM),
                                      omega).eps
        return ml.LayerStack((0.2, 300.0), (1.0, eps, 1 + 0.5j))

    @pytest.mark.parametrize("omega", [11.0, np.linspace(1.0, 11.0, 11)],
                             ids=["omega_11", "omega_1_to_11"])
    def test_finite_where_the_unreferenced_amplitude_overflows(self, omega):
        # the outer amplitude that coefficients forms leaves the double
        # range at omega = 11; the rate needs only c1
        with pytest.raises(OverflowError):
            ml.coefficients(self.bug_b_stack(11.0), 11.0)
        total = rates.gamma_hat_total(self.bug_b_stack(omega), omega)
        assert np.isfinite(total).all()

    @pytest.mark.parametrize("omega", [4.0, 11.0])
    def test_bug_b_stack_matches_the_twin(self, omega):
        """Within item 16's 1000 u (1 + |z|), z the larger of sqrt(eps)
        k0 R and sqrt(eps_ext) k0 R."""
        stack = self.bug_b_stack(omega)
        eps, eps_ext = stack.eps[1:]
        ref = mpref.gamma_hat_total_three(eps, eps_ext, 300.0, omega,
                                          0.2 * omega)
        z = max(abs(e) ** 0.5 for e in (eps, eps_ext)) * omega * 300.0
        error = abs(rates.gamma_hat_total(stack, omega) - ref) / abs(ref)
        assert error <= 1000 * 2.0 ** -53 * (1 + z)


class TestCavityRates:
    def test_no_sphere_no_rate(self):
        assert rates.gamma_sc(3.0, 3.0, 2.0, 1.0) == pytest.approx(0, abs=1e-14)
        assert rates._bare_sphere(3.0, 3.0, 2.0, 1.0)[1] \
            == pytest.approx(0, abs=1e-14)

    def test_radius_sits_near_first_peak(self):
        # lossless reference sphere: the first local maximum of the
        # corrected cavity rate against k0 R falls close to k0 R = 2
        ks = np.linspace(0.05, 1.4, 2701)
        vals = np.array([rates.gamma_sc_loc(5.0, 1.0, 2.0, k) for k in ks])
        interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
        first = np.flatnonzero(interior)[0] + 1
        assert 2.0 * ks[first] == pytest.approx(2.0, abs=0.1)

    def test_total_radiated_power_non_negative_lossless(self):
        eta = math.sqrt(5)
        for k0r in np.linspace(0.1, 20, 250):
            assert rates.gamma_sc(5.0, 1.0, 2.0, k0r / 2.0) + eta > 0

    def test_lossless_collapse(self):
        for eps in (2.0, 5.0, 8.5):
            factor = rates.onsager_factor(eps)
            g_sc = rates.gamma_sc(eps, 1.0, 2.0, 1.0)
            g_sc_loc = rates.gamma_sc_loc(eps, 1.0, 2.0, 1.0)
            assert abs(g_sc_loc - factor * g_sc) < 1e-13 * max(1, abs(g_sc))

    def test_both_corrected_forms_agree(self, rng):
        from cavrate.dielectric import sqrt_eps
        for eps in passive_eps_samples(rng, 50):
            radius, k0 = rng.uniform(0.5, 4), rng.uniform(0.5, 2)
            coeffs = ml.coeffs_two_layer(eps, 1.0, radius, k0)
            root_c1 = sqrt_eps(eps) * coeffs.c1
            direct = rates.gamma_sc_loc(eps, 1.0, radius, k0)
            alt = rates.gamma_sc_loc_from_bare(eps, root_c1.real,
                                               0.5 * root_c1.imag)
            assert abs(direct - alt) <= 1e-12 * max(1.0, abs(direct))

    def test_extraction_from_interface_determinants(self, rng):
        # finite part of the small-cavity series: the corrected rate is
        # Re of the eps^{5/2} factor times minus twice b1/(b1+b2)
        from cavrate.dielectric import sqrt_eps
        for eps in passive_eps_samples(rng, 10):
            radius, k0 = rng.uniform(0.8, 3), 1.0
            _, (b1, b2) = ml._three_layer(
                1.0, eps, 1.0, 1e-4, radius, k0)[0]
            expected = (9 * eps * eps * sqrt_eps(eps) / (2 * eps + 1) ** 2
                        * (-2 * b1 / (b1 + b2))).real
            assert rates.gamma_sc_loc(eps, 1.0, radius, k0) \
                == pytest.approx(expected, rel=1e-10)


class TestCutoffFreeIdentity:
    def test_vacuum(self):
        lhs, rhs = rates.identity_rep_decomposition(1.0)
        assert lhs == pytest.approx(1.0, rel=1e-15)
        assert rhs == pytest.approx(1.0, rel=1e-15)

    def test_reference_point(self):
        lhs, rhs = rates.identity_rep_decomposition(EPS_RES)
        assert abs(lhs - rhs) < 1e-13

    @given(bounded_eps)
    def test_identity_everywhere(self, eps):
        lhs, rhs = rates.identity_rep_decomposition(eps)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestExternal:
    def test_uniform_stack_is_bare_dipole(self):
        stack = ml.LayerStack((0.5, 1.0), (2 + 1j, 2 + 1j, 2 + 1j))
        moment = (stack.eps[0] / stack.eps[-1]) \
            * ml.coefficients(stack, 1.0).c_outer
        assert moment == pytest.approx(1.0, rel=1e-12)

    def test_cavity_scaling_reaches_static_factor(self):
        eps, radius, k0 = EPS_RES, 2.0, 1.0
        bare = ml.coeffs_two_layer(eps, 1.0, radius, k0)
        p_bare = eps / 1.0 * bare.c_outer
        residuals = []
        for x in (1e-2, 1e-3, 1e-4):
            stack = ml.LayerStack((x / k0, radius), (1.0, eps, 1.0))
            ratio = ((stack.eps[0] / stack.eps[-1])
                     * ml.coefficients(stack, k0).c_outer / p_bare)
            residuals.append(abs(ratio / (3 * eps / (2 * eps + 1)) - 1))
        slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(residuals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.15)
        # squared modulus of the scaling gives the power factor
        stack = ml.LayerStack((1e-3 / k0, radius), (1.0, eps, 1.0))
        ratio = ((stack.eps[0] / stack.eps[-1])
                 * ml.coefficients(stack, k0).c_outer / p_bare)
        assert abs(ratio) ** 2 == pytest.approx(rates.onsager_factor(eps),
                                                rel=1e-4)

    def test_angular_pattern(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, EPS_RES, 1.0))
        k0 = 1.0
        assert rates.angular_radiation(stack, k0, 3.0, 0.0) == 0.0
        full = rates.angular_radiation(stack, k0, 3.0, math.pi / 2)
        half = rates.angular_radiation(stack, k0, 3.0, math.pi / 4)
        assert half / full == pytest.approx(0.5, rel=1e-14)

    def test_lossless_exterior_integral_matches_power(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, EPS_RES, 1.0))
        k0 = 1.0
        u, w = np.polynomial.legendre.leggauss(8)
        theta = np.arccos(u)
        for r in (2.0, 5.0, 9.0):
            integral = 2 * math.pi * np.dot(
                w, rates.angular_radiation(stack, k0, r, theta))
            assert integral == pytest.approx(
                rates.external_power(stack, k0, r), rel=1e-12)

    def test_matches_oracle_flux(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, EPS_RES, 1.2 + 0.4j))
        k0 = 1.0
        fields = ml.stack_field_evaluator(stack, k0)
        for r in (2.0, 3.5):
            assert oracle.flux_through_sphere(fields, r, k0) \
                == pytest.approx(rates.external_power(stack, k0, r), rel=1e-8)

    def test_observation_inside_sphere_rejected(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, EPS_RES, 1.0))
        with pytest.raises(DomainError):
            rates.external_power(stack, 1.0, 1.5)
        with pytest.raises(DomainError):
            rates.angular_radiation(stack, 1.0, 1.5, 0.3)

    # (2,) samples of the outer radius, of k0 or of the observation radius;
    # each sample matches the call on its own numbers
    SAMPLED = {
        "outer_radius": (lambda r: ((0.3, r), 1.0, 3.0), [2.0, 2.5]),
        "k0": (lambda k: ((0.3, 2.0), k, 3.0), [0.9, 1.1]),
        "r": (lambda r: ((0.3, 2.0), 1.0, r), [2.0, 3.0]),
    }

    @pytest.mark.parametrize("name", list(SAMPLED))
    def test_outer_samples_match_their_numbers(self, name):
        build, samples = self.SAMPLED[name]

        def both(radii, k0, r):
            stack = ml.LayerStack(radii, (1.0, EPS_RES, 1.2 + 0.1j))
            return (rates.external_power(stack, k0, r),
                    rates.angular_radiation(stack, k0, r, 0.7))

        arrays = both(*build(np.array(samples)))
        for i, sample in enumerate(samples):
            for got, ref in zip(arrays, both(*build(sample))):
                assert abs(got[i] - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("r", [2.2, np.array([3.0, 2.2])])
    def test_any_sample_inside_the_outer_radius_rejected(self, r):
        stack = ml.LayerStack((0.3, np.array([2.0, 2.5])),
                              (1.0, EPS_RES, 1.0))
        with pytest.raises(DomainError, match="inside the outermost"):
            rates.external_power(stack, 1.0, r)
        with pytest.raises(DomainError, match="inside the outermost"):
            rates.angular_radiation(stack, 1.0, r, 0.3)

    @pytest.mark.parametrize("eps_ext, radius, omega", [
        (1.0, 2.0, cli.get_preset("fig3")._omega_array()),
        (1 + 0.5j, 300.0, 11.0)], ids=["fig3_rows", "bug_b_omega_11"])
    def test_external_power_is_the_reports_w_ext(self, eps_ext, radius,
                                                 omega):
        """A bare sphere's power beyond its surface is the report's w_ext,
        bit for bit: fig3's 601 rows on the array route, and bug (b)'s
        omega = 11 on the number route, where the unreferenced c_outer
        leaves the double range while w_ext_hat is 1.904."""
        eps = dielectric.eval_lorentz(dielectric.LorentzMedium(**MEDIUM),
                                      omega).eps
        report = rates.rate_report(eps, eps_ext, radius, 0.2, 0.2, omega)
        stack = ml.LayerStack((radius,), (eps, eps_ext))
        assert np.array_equal(rates.external_power(stack, omega),
                              report.w_ext_hat)

    def test_angular_radiation_beyond_the_double_range_of_c_outer(self):
        """At bug (b)'s omega = 11, where c_outer leaves the double range,
        the surface amplitude is finite, so the density at the surface is
        too."""
        eps = dielectric.eval_lorentz(dielectric.LorentzMedium(**MEDIUM),
                                      11.0).eps
        stack = ml.LayerStack((300.0,), (eps, 1 + 0.5j))
        density = rates.angular_radiation(stack, 11.0, 300.0, math.pi / 2)
        assert type(density) is float and 0 < density < math.inf

    # N = 3 to 5, the last two in strongly absorbing hosts
    STACKS = [
        ((0.2, 2.0), (1.0, 5 + 2.5j, 1.5 + 0j), 1.0),
        ((0.3, 1.0, 2.5), (1.0, 3 + 0.5j, 2 + 1j, 1.2 + 0.1j), 1.3),
        ((0.2, 0.8, 1.5, 3.0), (1.0, 4 + 0.2j, 1.5 + 0.05j, 6 + 3j, 1.0),
         0.9),
        ((0.5, 6.0, 12.0), (1.0, 2 + 0.1j, 3 + 0.2j, 1 + 0.5j), 1.0),
        ((0.4, 1.1, 1.6, 2.4), (1.0, 9 + 0.5j, 1.0, 2.5 + 0.3j, 1.8 + 0.6j),
         2.2),
    ]

    @pytest.mark.parametrize("radii, eps, k0", STACKS,
                             ids=["n3", "n4", "n5", "n4_host", "n5_host"])
    def test_external_power_matches_the_twin(self, radii, eps, k0):
        """external_power at the outer radius R against the 50-digit dense
        solve, within ROADMAP item 16's 1000 u (1 + |z|), z the largest
        sqrt(eps_l) k0 r_l with r_N = R."""
        _, c_plus, _ = mpref.general_n(eps, radii, k0)
        eps_1, eps_n = mpref.to_mpc(eps[0]), mpref.to_mpc(eps[-1])
        k, x = mpref.sqrt_eps(eps_n) * k0, mpref.mp.mpf(k0) * radii[-1]
        moment = eps_1 / eps_n * c_plus[-1] * mpref.mp.exp(
            mpref.I * k * radii[-1])
        ref = abs(moment) ** 2 * (eps_n.imag / abs(eps_n) ** 2 * abs(
            1 - mpref.I * k * radii[-1]) ** 2 / x ** 3 + k.real / k0)
        z = max(abs(e) ** 0.5 * k0 * r
                for e, r in zip(eps, (*radii, radii[-1])))
        got = rates.external_power(ml.LayerStack(radii, eps), k0)
        assert abs(got - ref) / ref <= 1000 * 2.0 ** -53 * (1 + z)


class TestGreenRestatement:
    def test_rate_from_raw_field(self):
        # scattered Green element reconstructed from a field evaluation
        # near the origin reproduces the closed-form cavity rate
        for eps, eps_ext, radius, k0 in ((EPS_RES, 1.0, 2.0, 1.0),
                                         (3 + 0.5j, 1.5 + 0.1j, 1.3, 0.8)):
            stack = ml.LayerStack((radius,), (eps, eps_ext))
            coeffs = ml.coefficients(stack, k0)
            e_r, _, _ = ml.field_in_layer(stack, coeffs, 1e-8 / k0, 0.0, k0,
                                          include_source=False)
            g_zz = complex(e_r) / (k0 * k0)
            assert 3 / (2 * k0) * g_zz.imag \
                == pytest.approx(rates.gamma_sc(eps, eps_ext, radius, k0),
                                 rel=1e-10)


class TestApproxRates:
    def test_lossless_forms_are_exact(self):
        # without absorption the radiative shorthand, and the shorthand
        # with the (vanishing) near-field term, give the exact rate
        eps, radius, k0, r_c = 5.0, 2.0, 1.0, 0.05
        g_sc = rates.gamma_sc(eps, 1.0, radius, k0)
        exact = rates.gamma0_loc(eps, k0, r_c) \
            + rates.gamma_sc_loc(eps, 1.0, radius, k0)
        eta = math.sqrt(eps)
        for near in (0.0, rates.cavity_nearfield(eps, k0, r_c)):
            approx = rates.onsager_factor(eps) * (near + eta + g_sc)
            assert approx == pytest.approx(exact, rel=1e-13)

    def test_resonance_region_report(self):
        # radiative shorthand against the exact corrected rate over the
        # resonance window of the standard absorbing sphere; the product
        # of the static factor with the uncorrected rate is the pair that
        # overlaps at the percent level
        import warnings

        from cavrate import cli
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = cli.get_preset("fig3")
            rows = [r for r in cli.run_sweep(config)
                    if 0.8 <= r["omega"] <= 1.2]
        worst_short = max(
            abs(rates.onsager_factor(complex(r["eps_re"], r["eps_im"]))
                * (r["eta"] + r["gamma_sc_hat"])
                - r["gamma_loc_hat"]) / abs(r["gamma_loc_hat"])
            for r in rows)
        worst_naive = max(
            abs(r["naive_loc_hat"] - r["gamma_loc_hat"])
            / abs(r["gamma_loc_hat"]) for r in rows)
        print(f"resonance window: radiative shorthand within {worst_short:.3f}"
              f", factor-times-total within {worst_naive:.3f} of exact")
        assert worst_short < 0.25   # absorption terms are visible but modest
        assert worst_naive < 0.03   # overlapping curves on any plot scale

    def test_nearfield_ratio_is_three_halves(self):
        for eps in (EPS_RES, 2 + 0.3j, 7 + 4j):
            for x in (0.03 * 2 * math.pi, 0.1):
                # the macroscopic rate without its radiative part eta
                ratio = rates._gamma0(eps, 0.0, abs(eps) ** 2, 1.0, x) \
                    / rates.cavity_nearfield(eps, 1.0, x)
                assert abs(ratio - 1.5) <= 1e-12


class TestRateReport:
    def test_definitional_invariants(self):
        report = rates.rate_report(EPS_RES, 1.0, 2.0, 0.2 * math.pi,
                                   0.2 * math.pi, 1.0)
        assert report.gamma_loc_hat \
            == report.gamma0_loc_hat + report.gamma_sc_loc_hat
        assert report.w_ext_loc_hat \
            == report.onsager_factor * report.w_ext_hat
        assert report.gamma_hat == report.gamma0_hat + report.gamma_sc_hat
        for value in (report.gamma0_hat, report.gamma0_loc_hat,
                      report.gamma_sc_loc_hat, report.gamma_loc_hat,
                      report.w_ext_hat, report.w_ext_loc_hat):
            assert math.isfinite(value)

    @pytest.mark.parametrize("eps, eps_ext, r_c", [
        (EPS_RES, 1.0, 0.2), (EPS_RES, 1.5 + 0.1j, 0.63), (4.0, 1.0, 0.1),
        (-1.33 + 0.32j, 1.2, 0.05), (2 + 7j, 2.25, 0.4)])
    def test_report_equals_the_one_quantity_functions(self, eps, eps_ext,
                                                      r_c):
        """The report shares each per-frequency quantity between its rates;
        every rate keeps the bits of the function that computes it alone."""
        radius, r_m, k0 = 2.0, 0.3, 1.1
        report = rates.rate_report(eps, eps_ext, radius, r_c, r_m, k0)
        bare = (eps, eps_ext, radius, k0)
        assert report.gamma0_hat == rates.gamma0_macroscopic(eps, k0, r_m)
        assert report.gamma0_loc_hat == rates.gamma0_loc(eps, k0, r_c)
        assert report.gamma_sc_hat == rates.gamma_sc(*bare)
        assert report.delta_sc_hat == rates._bare_sphere(*bare)[1]
        assert report.gamma_sc_loc_hat == rates.gamma_sc_loc(*bare)
        assert report.onsager_factor == rates.onsager_factor(eps)
        assert report.lorentz_factor == rates.lorentz_factor(eps)

    @pytest.mark.parametrize("r_c", [
        0.2, 0.2999, 0.3, 0.63, np.array([0.1, 0.2]),
        np.array([0.1, 0.4, 0.5])],
        ids=["below", "just_below", "at_limit", "above", "array_below",
             "array_partly_above"])
    def test_one_expansion_warning_per_report(self, r_c):
        # a report carries k0*r_c and never warns, in range or out of it;
        # a sweep warns once from its largest x_c (test_cli)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            report = rates.rate_report(EPS_RES, 1.0, 2.0, r_c, 0.2, 1.0)
        assert record == []
        assert np.array_equal(report.x_c, 1.0 * r_c)

    def test_scalar_report_loop_issues_no_warning(self):
        # fig3's cavity at k0 across 0.2..2: x_c runs from 0.126 to 1.26
        # and is out of range at 253 of the 300 points; Python's default
        # filter shows each distinct message once, 212 of them here
        r_c = 0.2 * math.pi
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("default")
            reports = [rates.rate_report(EPS_RES, 1.0, 2.0, r_c, r_c, k0)
                       for k0 in np.linspace(0.2, 2.0, 300).tolist()]
        assert record == []
        assert sum(r.x_c >= rates.EXPANSION_LIMIT for r in reports) == 253

    @pytest.mark.parametrize("k0, r_c", [
        (1.1, 0.2), (0.7, 0.2 * math.pi),
        (np.linspace(0.2, 2.0, 7), 0.2 * math.pi),
        (np.linspace(0.2, 2.0, 7), 0.2 * math.pi / np.linspace(0.2, 2.0, 7))],
        ids=["numbers", "numbers_out_of_range", "array_k0", "arrays"])
    def test_report_x_c_is_k0_times_r_c(self, k0, r_c):
        report = rates.rate_report(EPS_RES, 1.0, 2.0, r_c, 0.2, k0)
        expected = k0 * r_c
        assert type(report.x_c) is type(expected)
        assert np.asarray(report.x_c).tobytes() \
            == np.asarray(expected).tobytes()

    def test_one_engine_call_per_report(self, monkeypatch):
        calls = []
        true_fn = ml._amplitudes

        def counted(*args):
            calls.append(args)
            return true_fn(*args)

        monkeypatch.setattr(ml, "_amplitudes", counted)
        rates.rate_report(EPS_RES, 1.0, 2.0, 0.2 * math.pi, 0.2 * math.pi, 1.0)
        assert len(calls) == 1

    def test_report_checks_its_radius_directly(self, monkeypatch):
        calls = []
        true_fn = ml._widths
        monkeypatch.setattr(ml, "_widths",
                            lambda *args: calls.append(args) or true_fn(*args))
        rates.rate_report(EPS_RES, 1.0, 2.0, 0.2, 0.2, 1.1)
        assert calls == []
        # a bad radius is the engine's to name, after a bad k0
        for radius, k0, message in ((-2.0, 1.1, "the radii"),
                                    (math.nan, 1.1, "the radii"),
                                    (-2.0, -1.1, "k0 must")):
            with pytest.raises(DomainError, match=message):
                rates.rate_report(EPS_RES, 1.0, radius, 0.2, 0.2, k0)

    def test_roots_formed_once_per_report(self, monkeypatch):
        # sqrt(eps) and sqrt(eps_ext), each formed once and shared with
        # the amplitude recursion and the external power
        from cavrate import dielectric
        calls = []

        def counted(module, name):
            true_fn = getattr(module, name)

            def fn(*args):
                calls.append(name)
                return true_fn(*args)
            monkeypatch.setattr(module, name, fn)

        for module, name in ((rates, "sqrt_eps"), (ml, "sqrt_eps"),
                             (dielectric, "sqrt_eps")):
            counted(module, name)
        for eps_ext in (1.0, 1.5 + 0.1j):
            calls.clear()
            rates.rate_report(EPS_RES, eps_ext, 2.0, 0.2, 0.2, 1.0)
            assert calls == ["sqrt_eps", "sqrt_eps"]

    def test_report_record_contract(self):
        report = rates.rate_report(EPS_RES, 1.0, 2.0, 0.2, 0.3, 1.1)
        names = [f.name for f in dataclasses.fields(rates.RateReport)]
        assert list(vars(report)) == names == [
            "gamma0_hat", "gamma0_loc_hat", "gamma_sc_hat", "delta_sc_hat",
            "gamma_sc_loc_hat", "gamma_loc_hat", "w_ext_hat",
            "w_ext_loc_hat", "onsager_factor", "lorentz_factor", "x_c"]
        again = rates.RateReport(**vars(report))
        assert again == report and repr(again) == repr(report)
        assert again == rates.RateReport(*vars(report).values())
        assert repr(report).startswith("RateReport(gamma0_hat=")
        changed = replace(report, w_ext_hat=2 * report.w_ext_hat)
        assert changed != report
        assert vars(changed) == {**vars(report),
                                 "w_ext_hat": 2 * report.w_ext_hat}

    def test_eps_array_with_number_lengths(self, rng):
        # number lengths with an eps array, or with an int eps_ext, take the
        # Mixed route of _elementwise.route; each element keeps its number
        # report within 4e-15 of max(1, |value|) (numpy's and cmath's
        # roundings differ by up to 1.9e-15 of it over 8000 samples, and a
        # scattered rate near its zero by 1e-12 of itself)
        eps = np.array(passive_eps_samples(rng, 50))
        lengths = (2.0, 0.2, 0.3, 1.1)
        arrays = vars(rates.rate_report(eps, 1.5, *lengths))
        for i, e in enumerate(eps.tolist()):
            for name, value in vars(rates.rate_report(e, 1.5,
                                                      *lengths)).items():
                got = np.broadcast_to(arrays[name], eps.shape)[i]
                assert abs(got - value) <= 4e-15 * max(1, abs(value)), name
        floats, ints = (vars(rates.rate_report(EPS_RES, eps_ext, *lengths))
                        for eps_ext in (1.0, 1))
        assert [float(v).hex() for v in ints.values()] \
            == [v.hex() for v in floats.values()]

    def test_scalar_report_holds_python_numbers(self):
        report = rates.rate_report(EPS_RES, 1.0, 2.0, 0.2, 0.2, 1.0)
        assert all(type(v) is float for v in vars(report).values())
        for coeffs in (ml.coeffs_two_layer(EPS_RES, 1.0, 2.0, 1.0),
                       ml.coefficients(ml.LayerStack((2.0,), (EPS_RES, 1.0)),
                                       1.0)):
            assert type(coeffs.c1) is complex
            assert type(coeffs.c_outer) is complex

    @pytest.mark.parametrize("fn,args", [
        (rates.gamma0_macroscopic, (0.2,)), (rates.gamma0_loc, (0.2,)),
        (rates.w0_cutoff, (0.2,)), (rates.w0_expanded, (0.2,)),
        (rates.p_eff_expansion, (0.2,)),
        (lambda e, k: rates.gamma_sc(e, 1.0, 2.0, k), ()),
        (lambda e, k: rates._bare_sphere(e, 1.0, 2.0, k)[1], ()),
        (lambda e, k: rates.gamma_sc_loc(e, 1.0, 2.0, k), ()),
        (lambda e, k: ml.coeffs_three_layer(1.0, e, 1.0, 0.3, 2.0, k).c1, ()),
        (lambda e, k: vars(rates.rate_report(e, 1.5, 2.0, 0.2, 0.3, k)), ()),
        # one array stack, the vacuum-cavity route of many frequencies
        (lambda e, k: rates.gamma_hat_total(cavity_stack(e), k), ()),
        # the outer moment (eps_1/eps_N) c_outer that external_dipole gave
        (lambda e, k: ml.coefficients(cavity_stack(e), k).c_outer
         / cavity_stack(e).eps[-1], ()),
        (lambda e, k: rates.external_power(cavity_stack(e), k), ()),
    ])
    def test_functions_take_frequency_arrays(self, fn, args):
        eps = [EPS_RES, 2 + 0.1j, -1 + 3j, 4 + 0j]
        k0 = [0.5, 1.0, 1.3, 2.0]
        arrays = fn(np.array(eps), np.array(k0), *args)
        for i, (e, k) in enumerate(zip(eps, k0)):
            ref = fn(e, k, *args)
            pairs = ([(arrays[f][i], ref[f]) for f in ref]
                     if isinstance(ref, dict) else [(arrays[i], ref)])
            for a, b in pairs:
                assert abs(a - b) <= 1e-14 * max(1, abs(b))

    def test_array_guards_reject_any_bad_element(self, monkeypatch):
        eps = np.array([EPS_RES, EPS_RES])
        with pytest.raises(DomainError):
            rates.onsager_factor(np.array([1.0, -0.5]))
        with pytest.raises(DomainError):
            rates.gamma0_loc(eps, 1.0, np.array([0.1, 0.0]))
        with pytest.raises(DomainError):
            rates.rate_report(eps, 1.0, 2.0, 0.2, 0.2, np.array([1.0, -1.0]))
        monkeypatch.setattr(ml, "_DENOMINATOR_FLOOR", 1e300)
        with pytest.raises(SingularDenominator):
            ml.coeffs_two_layer(eps, 1.0, 2.0, np.array([1.0, 1.1]))

    def test_lossless_external_factor(self):
        report = rates.rate_report(5.0, 1.0, 2.0, 0.05, 0.05, 1.0)
        assert report.w_ext_loc_hat \
            == pytest.approx(rates.onsager_factor(5.0) * report.w_ext_hat,
                             rel=1e-15)


class TestLargeSpheres:
    """Scaled waves: spheres whose unscaled waves leave double range."""

    @staticmethod
    def mp_bare_rates(eps, radius, k0):
        c1, _ = mpref.two_layer(eps, 1.0, radius, k0)
        root_c1 = mpref.sqrt_eps(eps) * c1
        return (float(root_c1.real), float(root_c1.imag) / 2,
                float(mpref.gamma_sc_loc(eps, 1.0, radius, k0)))

    @pytest.mark.parametrize("radius", [1400.0, 2000.0])
    def test_resonant_sphere_matches_mp_reference(self, radius):
        # |Im k R| is 762 and 1088, past the 700 guard of the unscaled waves
        report = rates.rate_report(EPS_RES, 1.0, radius, 0.2, 0.2, 1.0)
        assert all(math.isfinite(v) for v in vars(report).values())
        got = (report.gamma_sc_hat, report.delta_sc_hat,
               report.gamma_sc_loc_hat)
        for value, ref in zip(got, self.mp_bare_rates(EPS_RES, radius, 1.0)):
            assert abs(value - ref) <= 1e-10 * abs(ref) + 1e-11

    def test_outgoing_amplitude_at_radius_1000(self):
        coeffs = ml.coefficients(ml.LayerStack((1000.0,), (EPS_RES, 1.0)), 1.0)
        ref = complex(mpref.two_layer(EPS_RES, 1.0, 1000.0, 1.0)[1])
        assert 1e-237 < abs(ref) < 1e-236
        assert abs(coeffs.c_outer - ref) <= 1e-10 * abs(ref)

    def test_sweep_rows_at_radius_1000(self):
        import warnings

        from cavrate import cli
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = cli.get_preset("fig3")
            rows = cli.run_sweep(replace(config, sphere_radius=1000.0))
        for row in rows[::40]:
            eps = complex(row["eps_re"], row["eps_im"])
            g_sc, d_sc, _ = self.mp_bare_rates(eps, 1000.0, row["omega"])
            assert abs(row["gamma_sc_hat"] - g_sc) <= 1e-11
            assert abs(row["delta_sc_hat"] - d_sc) <= 1e-11

    def test_uniform_absorbing_stack_of_100_layers(self):
        stack = ml.LayerStack(np.linspace(15.0, 1500.0, 99), (EPS_RES,) * 100)
        coeffs = ml.coefficients(stack, 1.0)
        assert abs(coeffs.c1) <= 1e-12
        for cp, cm in zip(coeffs.c_plus, coeffs.c_minus):
            assert abs(cp - 1) <= 1e-12 and abs(cm) <= 1e-12


PUBLIC_FUNCTIONS = sorted(
    name for name, fn in vars(rates).items()
    if inspect.isfunction(fn) and fn.__module__ == rates.__name__
    and not name.startswith("_"))
_GEOMETRY = (EPS_RES, 1.0, 0.1)             # eps, k0, r_c or r_m
_BARE = (EPS_RES, 1 + 0j, 2.0, 1.0)         # eps, eps_ext, radius, k0
# name -> number arguments, and the builtin type of the result or the
# types of its elements or of a report's fields
NUMBER_CALLS = {
    "lorentz_factor": ((EPS_RES,), float),
    "onsager_factor": ((EPS_RES,), float),
    "cavity_nearfield": (_GEOMETRY, float),
    "gamma0_macroscopic": (_GEOMETRY, float),
    "w0_cutoff": (_GEOMETRY, float),
    "w0_expanded": (_GEOMETRY, float),
    "gamma0_loc": (_GEOMETRY, float),
    "p_eff_expansion": (_GEOMETRY, complex),
    "gamma_hat_total": ((cavity_stack(EPS_RES), 1.0), float),
    "gamma_sc": (_BARE, float),
    "gamma_sc_loc": (_BARE, float),
    "gamma_sc_loc_from_bare": ((EPS_RES, 0.2, 0.1), float),
    "identity_rep_decomposition": ((EPS_RES,), (float, float)),
    "external_power": ((cavity_stack(EPS_RES), 1.0, 3.0), float),
    "angular_radiation": ((cavity_stack(EPS_RES), 1.0, 3.0, 0.5), float),
    "rate_report": ((EPS_RES, 1 + 0j, 2.0, 0.1, 0.1, 1.0),
                    (float,) * len(dataclasses.fields(rates.RateReport))),
}


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_number_inputs_give_builtin_numbers(name):
    """Numbers in, Python numbers out: no numpy scalar from any public
    function of rates, whose repr would differ from a float's."""
    args, expected = NUMBER_CALLS[name]
    result = getattr(rates, name)(*args)
    if isinstance(result, rates.RateReport):
        result = tuple(vars(result).values())
    kinds = tuple(map(type, result)) if isinstance(result, tuple) \
        else type(result)
    assert kinds == expected


MEDIUM_ONLY = ("cavity_nearfield", "gamma0_macroscopic", "w0_cutoff",
               "w0_expanded", "gamma0_loc", "p_eff_expansion")
BAD_K0 = [0.0, -1.0, np.array([1.0, 0.0]), np.array([1.0, -1.0])]


@pytest.mark.parametrize("k0", BAD_K0, ids=["zero", "negative",
                                            "array_zero", "array_negative"])
@pytest.mark.parametrize("name", MEDIUM_ONLY)
def test_medium_only_functions_reject_nonpositive_k0(name, k0):
    """They run no amplitude solve, whose k0 check the engine-based
    functions share, so they check k0 themselves, before any formula."""
    eps = np.array([EPS_RES, EPS_RES]) if isinstance(k0, np.ndarray) \
        else EPS_RES
    with pytest.raises(DomainError, match="^k0 must be positive$"):
        getattr(rates, name)(eps, k0, 0.1)


@pytest.mark.parametrize("r_c", [0.0, -0.1, np.array([0.1, 0.0])],
                         ids=["zero", "negative", "array_zero"])
def test_cavity_nearfield_rejects_nonpositive_r_c(r_c):
    with pytest.raises(DomainError, match="^r_c must be positive$"):
        rates.cavity_nearfield(EPS_RES, 1.0, r_c)


# the bare sphere's inputs (eps, eps_ext, radius, k0), then one or two bad
# ones, with the error type and message they raise
BARE_SPHERE = (EPS_RES, 1.5 + 0.1j, 2.0, 1.1)
RADII_MESSAGE = "the radii must be positive and increasing"
BAD_BARE_INPUTS = {
    "k0_zero": ({"k0": 0.0}, DomainError, "k0 must be positive"),
    "k0_negative": ({"k0": -1.1}, DomainError, "k0 must be positive"),
    "k0_nan": ({"k0": math.nan}, DomainError, "k0 must be positive"),
    "k0_array": ({"k0": np.array([1.1, math.nan])}, DomainError,
                 "k0 must be positive"),
    "radius_zero": ({"radius": 0.0}, DomainError, RADII_MESSAGE),
    "radius_negative": ({"radius": -2.0}, DomainError, RADII_MESSAGE),
    "radius_nan": ({"radius": math.nan}, DomainError, RADII_MESSAGE),
    "radius_array": ({"radius": np.array([2.0, -2.0])}, DomainError,
                     RADII_MESSAGE),
    "eps_zero": ({"eps": 0j}, DomainError,
                 "square root branch undefined at eps = 0"),
    "eps_ext_zero": ({"eps_ext": 0j}, DomainError,
                     "square root branch undefined at eps = 0"),
    # k0 is named before the radius
    "k0_and_radius": ({"k0": -1.1, "radius": -2.0}, DomainError,
                      "k0 must be positive"),
    "k0_nan_and_radius_nan": ({"k0": math.nan, "radius": math.nan},
                              DomainError, "k0 must be positive"),
}
BARE_SPHERE_FUNCTIONS = {
    "rate_report": lambda eps, eps_ext, radius, k0: rates.rate_report(
        eps, eps_ext, radius, 0.2, 0.3, k0),
    "gamma_sc": rates.gamma_sc,
    "gamma_sc_loc": rates.gamma_sc_loc,
}


@pytest.mark.parametrize("bad", list(BAD_BARE_INPUTS))
@pytest.mark.parametrize("name", list(BARE_SPHERE_FUNCTIONS))
def test_bare_sphere_names_its_bad_input(name, bad):
    change, error, message = BAD_BARE_INPUTS[bad]
    inputs = {**dict(zip(("eps", "eps_ext", "radius", "k0"), BARE_SPHERE)),
              **change}
    with pytest.raises(error) as caught:
        BARE_SPHERE_FUNCTIONS[name](**inputs)
    assert type(caught.value) is error and str(caught.value) == message


def _cavity_case():
    """A cavity/sphere/host stack at k0 = 1, its amplitudes and fields."""
    stack = ml.LayerStack((0.6, 2.0), (1.0, EPS_RES, 1.0))
    return stack, ml.coefficients(stack, 1.0), ml.stack_field_evaluator(
        stack, 1.0)


NAN_SAMPLES = np.array([0.3, math.nan])
NO_BRANCH = "square root branch undefined at eps = 0"
MEDIUM = dict(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
# a NaN length, frequency, tolerance or loss, as a number and as one
# element of an array: the call and the message it raises
NAN_ARGUMENTS = {
    "gamma0_macroscopic": (lambda: rates.gamma0_macroscopic(
        EPS_RES, 1.0, math.nan), "r_m must be positive"),
    "gamma0_macroscopic_array": (lambda: rates.gamma0_macroscopic(
        EPS_RES, 1.0, NAN_SAMPLES), "r_m must be positive"),
    **{f"{name}_r_c": ((lambda name=name: getattr(rates, name)(
        EPS_RES, 1.0, math.nan)), "r_c must be positive")
       for name in ("cavity_nearfield", "w0_cutoff", "w0_expanded",
                    "gamma0_loc", "p_eff_expansion")},
    "rate_report_r_c": (lambda: rates.rate_report(
        EPS_RES, 1.0, 2.0, math.nan, 0.2, 1.0), "r_c must be positive"),
    "rate_report_r_m": (lambda: rates.rate_report(
        EPS_RES, 1.0, 2.0, 0.2, math.nan, 1.0), "r_m must be positive"),
    "rate_report_r_m_array": (lambda: rates.rate_report(
        EPS_RES, 1.0, 2.0, 0.2, np.array([0.2, math.nan]), 1.0),
        "r_m must be positive"),
    "eval_lorentz": (lambda: dielectric.eval_lorentz(
        dielectric.LorentzMedium(**MEDIUM), math.nan),
        "omega = nan must be > 0"),
    "eval_lorentz_array": (lambda: dielectric.eval_lorentz(
        dielectric.LorentzMedium(**MEDIUM), np.array([1.0, math.nan])),
        "omega = nan must be > 0"),
    "field_in_layer": (lambda: ml.field_in_layer(
        *_cavity_case()[:2], math.nan, 0.3, 1.0),
        "r must be positive (use field_center_limit at 0)"),
    "field_in_layer_array": (lambda: ml.field_in_layer(
        *_cavity_case()[:2], NAN_SAMPLES, 0.3, 1.0),
        "r must be positive (use field_center_limit at 0)"),
    "flux_through_sphere": (lambda: oracle.flux_through_sphere(
        _cavity_case()[2], math.nan, 1.0), "r must be positive"),
    "external_power": (lambda: rates.external_power(
        _cavity_case()[0], 1.0, r_obs=math.nan),
        "r_obs = nan lies inside the outermost interface 2"),
    "external_power_array": (lambda: rates.external_power(
        _cavity_case()[0], 1.0, r_obs=np.array([3.0, math.nan])),
        "r_obs = nan lies inside the outermost interface 2"),
    "angular_radiation": (lambda: rates.angular_radiation(
        _cavity_case()[0], 1.0, math.nan, 0.5),
        "r = nan lies inside the outermost interface 2"),
    "angular_radiation_array": (lambda: rates.angular_radiation(
        _cavity_case()[0], 1.0, np.array([3.0, math.nan]), 0.5),
        "r = nan lies inside the outermost interface 2"),
    "layer_at": (lambda: _cavity_case()[0].layer_at(math.nan),
                 "radius must be non-negative"),
    **{f"lorentz_{name}": ((lambda name=name: dielectric.LorentzMedium(
        **{**MEDIUM, name: math.nan})), message)
       for name, message in (("eps_b", "eps_b = nan must be >= 1"),
                             ("omega0", "omega0 = nan must be > 0"),
                             ("Omega", "Omega = nan must be >= 0"),
                             ("gamma", "gamma = nan must be > 0"))},
    "quadrature_rel_tol": (lambda: oracle.absorbed_power(
        _cavity_case()[2], 0.7, 1.0, EPS_RES, 1.0, rel_tol=math.nan),
        "rel_tol = nan must be > 0"),
    "absorbed_power_loss": (lambda: oracle.absorbed_power(
        _cavity_case()[2], 0.7, 1.0, complex(5, math.nan), 1.0),
        "eps'' must be non-negative for a passive layer"),
    # the k0 of the fields and of the oracle, which took any k0 before
    **{f"{name}_k0": (call, "k0 must be positive") for name, call in (
        ("field_in_layer", lambda: ml.field_in_layer(
            *_cavity_case()[:2], 1.0, 0.3, math.nan)),
        ("field_in_layer_array", lambda: ml.field_in_layer(
            *_cavity_case()[:2], 1.0, 0.3, np.array([1.0, math.nan]))),
        ("field_center_limit", lambda: ml.field_center_limit(
            _cavity_case()[1], 1.0, math.nan)),
        ("homogeneous_field", lambda: oracle.flux_through_sphere(
            ml.homogeneous_field(EPS_RES, math.nan), 1.0, 1.0)),
        ("flux_through_sphere", lambda: oracle.flux_through_sphere(
            _cavity_case()[2], 1.0, math.nan)),
        ("absorbed_power", lambda: oracle.absorbed_power(
            _cavity_case()[2], 0.7, 1.0, EPS_RES, math.nan)),
        ("energy_balance", lambda: oracle.energy_balance(
            _cavity_case()[2], 0.7, 1.0, EPS_RES, math.nan)))},
    # a permittivity of a medium-only entry that is NaN or infinite, or 0
    # where the entry takes its square root (not the two factors)
    **{f"{name}_{form}": ((lambda module=module, name=name, eps=eps,
                           args=args: getattr(module, name)(eps, *args)),
                          message)
       for module, name, args in (
           (dielectric, "sqrt_eps", ()), (dielectric, "eta_kappa", ()),
           (rates, "lorentz_factor", ()), (rates, "onsager_factor", ()),
           *((rates, name, (1.0, 0.1)) for name in (
               "gamma0_loc", "gamma0_macroscopic", "w0_cutoff",
               "w0_expanded", "p_eff_expansion", "cavity_nearfield")),
           (rates, "gamma_sc_loc_from_bare", (0.5, 0.1)))
       for form, eps, message in (
           ("eps_nan", complex(math.nan, 1), "eps = (nan+1j) must be finite"),
           ("eps_inf", complex(math.inf, 1), "eps = (inf+1j) must be finite"),
           ("eps_array", np.array([EPS_RES, complex(2, math.nan)]),
            "eps = (2+nanj) must be finite"),
           *(() if name.endswith("_factor") else (
               ("eps_zero", 0j, NO_BRANCH),
               ("eps_zero_array", np.array([EPS_RES, 0j]), NO_BRANCH))))},
}


@pytest.mark.parametrize("name", list(NAN_ARGUMENTS))
def test_nan_argument_is_a_domain_error(name):
    """NaN is not a valid length, frequency, tolerance or loss: every
    domain check rejects it, as the amplitude engine's checks do, with the
    message of a value on the wrong side of its bound."""
    call, message = NAN_ARGUMENTS[name]
    with pytest.raises(DomainError) as caught:
        call()
    assert type(caught.value) is DomainError \
        and str(caught.value) == message
