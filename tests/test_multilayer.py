import hashlib
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import mpref
from cavrate import multilayer as ml
from cavrate import rates, specfun
from cavrate.dielectric import sqrt_eps
from cavrate.errors import DomainError, IllConditioned, SingularDenominator


def random_passive(rng, lo=0.5, hi=8.0, loss=4.0):
    return complex(rng.uniform(lo, hi), rng.uniform(0, loss))


def graded_stack(n_layers, eps=5 + 2.5j, eps_ext=1.5 + 0.2j):
    """Empty cavity, n_layers - 2 shells graded towards eps, then a host."""
    grading = np.linspace(0.2, 1.0, n_layers - 2)
    radii = np.linspace(0.1, 2.5, n_layers - 1)
    return ml.LayerStack(radii, (1.0, *(1 + (eps - 1) * grading), eps_ext))


def assert_continuous(stack, coeffs, k0, theta=0.7):
    """Tangential E and B, the two continuity conditions, agree on both
    sides of every interface."""
    for i, radius in enumerate(stack.radii):
        inner = ml.field_in_layer(stack, coeffs, radius, theta, k0,
                                  layer=i + 1)
        outer = ml.field_in_layer(stack, coeffs, radius, theta, k0,
                                  layer=i + 2)
        assert abs(inner[1] - outer[1]) <= 1e-10 * abs(inner[1])
        assert abs(inner[2] - outer[2]) <= 1e-10 * abs(inner[2])


def coeff_pairs(a: ml.WaveCoefficients, b: ml.WaveCoefficients):
    yield a.c1, b.c1
    yield from zip(a.c_plus, b.c_plus)
    # skip the identically-zero incoming amplitude of the outer layer
    yield from zip(a.c_minus[:-1], b.c_minus[:-1])


class TestLayerStack:
    def test_validation(self):
        counts = "need len(eps) == len(radii) + 1 >= 2, got {} for {}"
        order = "the radii must be positive and increasing"
        two = np.array([1.0, 2.0])
        for radii, eps, message in [
                ((), (1.0,), counts.format("1 permittivities", "0 radii")),
                ((1.0, 0.5), (1.0, 2.0, 3.0), order),
                ((-1.0,), (1.0, 2.0), order),
                ((1.0, math.nan), (1.0, 2.0, 3.0), order),
                ((1.0,), (1.0, 2.0, 3.0),
                 counts.format("3 permittivities", "1 radii")),
                # arrays of samples, one of them bad: the same messages
                ((two,), (1.0, two, 3.0),
                 counts.format("3 permittivities", "1 radii")),
                ((two, np.array([3.0, 0.5])), (1.0, 2.0, 3.0), order),
                ((np.array([1.0, -1.0]),), (1.0, 2.0), order),
                ((1.0, np.array([2.0, math.nan])), (1.0, two, 3.0), order)]:
            with pytest.raises(DomainError) as caught:
                ml.LayerStack(radii, eps)
            assert str(caught.value) == message
        # numbers, numpy scalars among them, are kept as Python float and
        # complex, which the recursion solves fastest; arrays stay arrays
        stack = ml.LayerStack((np.float64(1.0), two * 2),
                              (np.complex128(1), np.float64(4.0), two))
        assert [type(v) for v in stack.radii] == [float, np.ndarray]
        assert [type(v) for v in stack.eps] == [complex, complex, np.ndarray]
        assert stack.radii[1].dtype == float and stack.eps[2].dtype == complex

    def test_layer_lookup(self):
        stack = ml.LayerStack((1.0, 2.0), (1.0, 4.0, 1.0))
        assert stack.layer_at(0.5) == 1
        assert stack.layer_at(1.5) == 2
        assert stack.layer_at(2.0) == 3
        assert stack.layer_at(7.0) == 3
        assert stack.n_layers == 3
        with pytest.raises(DomainError, match="non-negative"):
            stack.layer_at(-1.0)


class TestWaveCoefficients:
    @pytest.mark.parametrize("c_plus, c_minus", [
        ((), ()), ((1j,), ()), ((1j, 2j), (0j,)), ((1j,), (0.5 + 0j,)),
        ((1j, 2j), (3j, 1e-300j))],
        ids=["empty", "no-incoming", "lengths-differ", "outer-incoming",
             "tiny-outer-incoming"])
    def test_rejects_broken_amplitude_sets(self, c_plus, c_minus):
        with pytest.raises(DomainError):
            ml.WaveCoefficients(c1=0j, c_plus=c_plus, c_minus=c_minus)

    def test_record_contract(self):
        coeffs = ml.coefficients(graded_stack(4), 1.1)
        names = [f.name for f in fields(ml.WaveCoefficients)]
        assert names == ["c1", "c_plus", "c_minus", "residual"]
        assert list(vars(coeffs)) == names
        # positional and keyword construction build the same record
        again = ml.WaveCoefficients(*(getattr(coeffs, n) for n in names))
        assert again == coeffs and repr(again) == repr(coeffs)
        assert repr(coeffs).startswith("WaveCoefficients(c1=")
        # equality ignores the residual, replace keeps the other fields
        other = replace(coeffs, residual=0.5)
        assert other == coeffs and other.residual == 0.5
        assert other.c_plus is coeffs.c_plus
        assert replace(coeffs, c1=coeffs.c1 + 1) != coeffs
        with pytest.raises(DomainError):
            replace(coeffs, c_minus=coeffs.c_minus[:-1] + (1j,))


class TestTwoLayer:
    def test_homogeneous_medium_does_not_scatter(self, rng):
        for _ in range(10):
            eps = random_passive(rng)
            c = ml.coeffs_two_layer(eps, eps, rng.uniform(0.2, 3), 1.0)
            assert abs(c.c1) < 1e-12
            assert c.c_outer == pytest.approx(1.0, rel=1e-12)

    def test_against_mp_reference(self, rng):
        for _ in range(25):
            e1, e2 = random_passive(rng), random_passive(rng)
            r1, k0 = rng.uniform(0.1, 3), rng.uniform(0.3, 2.5)
            ours = ml.coeffs_two_layer(e1, e2, r1, k0)
            c1, c2p = mpref.two_layer(e1, e2, r1, k0)
            assert abs(ours.c1 - complex(c1)) <= 1e-12 * abs(c1)
            assert abs(ours.c_outer - complex(c2p)) <= 1e-12 * abs(c2p)

    def test_small_cavity_rate_matches_expansion(self):
        # 1 + Re c1 approaches the small-cavity rate linearly in k0 r1
        eps = 5 + 2.5j
        diffs = []
        for x in (1e-2, 1e-3):
            c = ml.coeffs_two_layer(1.0, eps, x, 1.0)
            diffs.append(abs(1 + c.c1.real - rates.gamma0_loc(eps, 1.0, x)))
        assert diffs[0] < 0.1
        assert diffs[0] / diffs[1] == pytest.approx(10, rel=0.3)

    def test_bare_sphere_equals_outer_interface_determinants(self, rng):
        # 2 b1/(b1 + b2) reproduces minus the bare-sphere reflection
        for _ in range(10):
            eps, eps_ext = random_passive(rng), random_passive(rng)
            radius, k0 = rng.uniform(0.5, 3), rng.uniform(0.5, 1.5)
            _, (b1, b2) = ml._three_layer(
                1.0, eps, eps_ext, 0.01, radius, k0)[0]
            bare = ml.coeffs_two_layer(eps, eps_ext, radius, k0)
            assert 2 * b1 / (b1 + b2) == pytest.approx(-bare.c1, rel=1e-12)


class TestThreeLayer:
    def test_merging_equal_outer_layers(self, rng):
        for _ in range(10):
            e1, e2 = random_passive(rng), random_passive(rng)
            r1, k0 = rng.uniform(0.2, 1.5), 1.0
            r2 = r1 + rng.uniform(0.3, 2)
            merged = ml.coeffs_three_layer(e1, e2, e2, r1, r2, k0)
            two = ml.coeffs_two_layer(e1, e2, r1, k0)
            assert merged.c1 == pytest.approx(two.c1, rel=1e-10)
            # wave continues freely through the phantom interface
            assert merged.c_plus[0] == pytest.approx(merged.c_plus[1],
                                                     rel=1e-10)
            assert abs(merged.c_minus[0]) <= 1e-10 * abs(merged.c_plus[0])

    def test_against_mp_reference(self, rng):
        for _ in range(15):
            e1, e2, e3 = (random_passive(rng) for _ in range(3))
            r1, k0 = rng.uniform(0.1, 1.5), rng.uniform(0.4, 1.5)
            r2 = r1 + rng.uniform(0.3, 2)
            ours = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
            c1, c2p, c2m, c3p, _, _ = mpref.three_layer(e1, e2, e3, r1, r2, k0)
            for a, b in zip((ours.c1, *ours.c_plus, ours.c_minus[0]),
                            (c1, c2p, c3p, c2m)):
                assert abs(a - complex(b)) <= 1e-12 * abs(b)

    def test_merging_any_equal_adjacent_pair_keeps_fields(self, rng):
        """A phantom interface between equal layers is invisible to all
        observable fields, whichever adjacent pair merges."""
        k0 = 1.0
        e_in, e_out = random_passive(rng), random_passive(rng)
        r1, r2 = 0.7, 2.1
        cases = [
            # inner pair equal: reduces to the outer interface alone
            (ml.LayerStack((r1, r2), (e_in, e_in, e_out)),
             ml.LayerStack((r2,), (e_in, e_out))),
            # outer pair equal: reduces to the inner interface alone
            (ml.LayerStack((r1, r2), (e_in, e_out, e_out)),
             ml.LayerStack((r1,), (e_in, e_out))),
        ]
        for padded, merged in cases:
            cp = ml.coefficients(padded, k0)
            cm = ml.coefficients(merged, k0)
            for r in (0.4, 1.3, 3.0):
                theta = 0.8
                a = ml.field_in_layer(padded, cp, r, theta, k0)
                b = ml.field_in_layer(merged, cm, r, theta, k0)
                for x, y in zip(a, b):
                    assert abs(x - y) <= 1e-10 * max(abs(y), 1e-12)

    def test_ordering_validation(self):
        with pytest.raises(DomainError):
            ml.coeffs_three_layer(1.0, 2.0, 3.0, 2.0, 1.0, 1.0)

    def test_singular_determinant_raises(self, monkeypatch):
        # the shell's incoming wave made its outgoing one: the two columns
        # of the determinant coincide, and a1 b2 - a2 b1 is exactly 0
        monkeypatch.setattr(specfun, "sph_h2_1", specfun.sph_h1_1)
        monkeypatch.setattr(specfun, "riccati_h2", specfun.riccati_h1)
        with pytest.raises(SingularDenominator,
                           match=r"^three-layer determinant "
                                 r"\|a1 b2 - a2 b1\| = 0$"):
            ml.coeffs_three_layer(1.0, 5 + 2.5j, 1.5, 0.5, 2.0, 1.0)

    def test_takes_sample_arrays(self, rng):
        e1, e2, e3 = (np.array([random_passive(rng) for _ in range(12)])
                      for _ in range(3))
        r1 = rng.uniform(0.05, 1.5, 12)
        r2 = r1 + rng.uniform(0.2, 2.0, 12)
        k0 = rng.uniform(0.3, 2.5, 12)
        arrays = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
        for i in range(12):
            ref = ml.coeffs_three_layer(e1[i], e2[i], e3[i], r1[i], r2[i],
                                        k0[i])
            for a, b in zip((arrays.c1, *arrays.c_plus, *arrays.c_minus),
                            (ref.c1, *ref.c_plus, *ref.c_minus)):
                a = np.broadcast_to(a, r1.shape)[i]
                assert abs(a - b) <= 1e-13 * max(1, abs(a))

    @pytest.mark.parametrize("r1, r2", [
        ([0.5, 0.0], [1.0, 1.0]),           # r1 = 0
        ([0.5, -0.2], [1.0, 1.0]),          # r1 < 0
        ([0.5, 1.0], [1.0, 1.0]),           # r2 = r1
        ([0.5, 1.2], [1.0, 1.0]),           # r2 < r1
        ([0.5, math.nan], [1.0, 1.0]),      # NaN r1
        ([0.5, 0.6], [1.0, math.nan]),      # NaN r2
        (math.nan, 1.0), (0.5, math.nan),   # one number
    ])
    def test_any_bad_radius_element_raises(self, r1, r2):
        with pytest.raises(DomainError):
            ml.coeffs_three_layer(1.0, 2.0 + 0.5j, 1.0, np.asarray(r1),
                                  np.asarray(r2), np.array([1.0, 1.2]))
        if np.ndim(r1) == 0:
            with pytest.raises(DomainError):
                ml.coeffs_three_layer(1.0, 2.0, 1.0, r1, r2, 1.0)

    def test_lossless_central_amplitude_near_truncation(self):
        # transparent sphere around a tiny empty cavity: the real part of
        # the central amplitude sits on the finite part of its series
        coeffs = ml.coeffs_three_layer(1.0, 5.0, 1.0, 1e-3, 2.0, 1.0)
        truncated = float(mpref.central_c1_re_expansion(
            5.0, 1.0, 2.0, 1.0, mpref.mp.mpf("1e-3")))
        assert coeffs.c1.real == pytest.approx(truncated, abs=1e-4)


class TestGeneralSolver:
    def test_matches_closed_forms(self, rng):
        for _ in range(40):
            e1, e2, e3 = (random_passive(rng) for _ in range(3))
            r1 = rng.uniform(0.05, 1.5)
            r2 = r1 + rng.uniform(0.2, 2.0)
            k0 = rng.uniform(0.3, 2.5)
            closed = ml.coeffs_two_layer(e1, e2, r1, k0)
            solved = ml.coeffs_general_n(ml.LayerStack((r1,), (e1, e2)), k0)
            for a, b in coeff_pairs(closed, solved):
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)
            closed = ml.coeffs_three_layer(e1, e2, e3, r1, r2, k0)
            solved = ml.coeffs_general_n(
                ml.LayerStack((r1, r2), (e1, e2, e3)), k0)
            for a, b in coeff_pairs(closed, solved):
                assert abs(a - b) <= 1e-12 * max(abs(a), 1e-30)

    def test_uniform_stack_any_layer_count(self):
        eps = 3 + 1j
        stack = ml.LayerStack((0.5, 1.0, 1.7, 2.2), (eps,) * 5)
        coeffs = ml.coeffs_general_n(stack, 1.2)
        assert abs(coeffs.c1) < 1e-12
        assert coeffs.c_outer == pytest.approx(1.0, rel=1e-12)
        assert rates.external_dipole(stack, 1.2) == pytest.approx(1.0,
                                                                  rel=1e-12)
        for cp, cm in zip(coeffs.c_plus, coeffs.c_minus):
            assert cp == pytest.approx(1.0, rel=1e-11)
            assert abs(cm) < 1e-11
        assert coeffs.residual < 1e-12

    @pytest.mark.parametrize("n_layers, count", [(4, 3), (8, 3), (16, 3),
                                                 (32, 1)])
    def test_matches_dense_mp_solve(self, n_layers, count):
        """The recursion against the 2(N-1) continuity system, solved
        densely in 50-digit arithmetic."""
        rng = np.random.default_rng(n_layers)
        for _ in range(count):
            eps = [random_passive(rng) for _ in range(n_layers)]
            radii = np.sort(rng.uniform(0.05, 3.0, n_layers - 1))
            k0 = rng.uniform(0.3, 2.5)
            ours = ml.coeffs_general_n(ml.LayerStack(radii, eps), k0)
            c1, c_plus, c_minus = mpref.general_n(eps, radii, k0)
            got = np.array([ours.c1, *ours.c_plus, *ours.c_minus])
            ref = np.array([complex(c) for c in (c1, *c_plus, *c_minus)])
            assert np.max(abs(got - ref)) <= 1e-12 * np.max(abs(ref))

    @pytest.mark.parametrize("n_layers", [8, 32])
    def test_graded_stack_satisfies_continuity(self, n_layers):
        stack, k0 = graded_stack(n_layers), 1.1
        coeffs = ml.coeffs_general_n(stack, k0)
        assert_continuous(stack, coeffs, k0)
        amplitudes = (coeffs.c1, *coeffs.c_plus, *coeffs.c_minus)
        assert all(type(c) is complex for c in amplitudes)

    @pytest.mark.parametrize("guard, value", [("_RESIDUAL_LIMIT", 0.0),
                                              ("_DENOMINATOR_FLOOR", math.inf)])
    def test_guards_raise_ill_conditioned(self, monkeypatch, guard, value):
        monkeypatch.setattr(ml, guard, value)
        with pytest.raises(IllConditioned):
            ml.coeffs_general_n(graded_stack(8), 1.1)

    def test_nan_permittivity_is_a_domain_error(self):
        # refused by sqrt_eps's rule before the recursion runs, so numpy
        # never warns on the array
        stack = ml.LayerStack((0.5, 1.0), (1.0, complex(math.nan, 1.0), 1.0))
        with pytest.raises(DomainError, match=r"eps = \(nan\+1j\) must"):
            ml.coeffs_general_n(stack, 1.0)
        sphere = ml.LayerStack((2.0,), (np.array([5 + 2j, math.nan]), 1.0))
        with pytest.raises(DomainError, match=r"eps = \(nan\+0j\) must"):
            ml.coeffs_general_n(sphere, 1.0)

    @pytest.mark.parametrize("radii", [(0.5, 0.3), (0.5, -1.0), (0.5, 0.5)])
    def test_engine_rejects_radii_out_of_order(self, radii):
        eps = (1.0, 5 + 2.5j, 1.0)
        with pytest.raises(DomainError):
            ml.coeffs_general_n(ml.LayerStack(radii, eps), 1.0)
        # (2,) arrays: the second sample alone is out of order
        arrays = tuple(np.array([r, r]) for r in radii)
        arrays[1][0] = 2.0
        with pytest.raises(DomainError):
            ml.coeffs_general_n(ml.LayerStack(arrays, eps),
                                np.array([1.0, 1.1]))

    @pytest.mark.parametrize("array", ["radii", "shell", "k0"])
    def test_numbers_mixed_with_arrays(self, array):
        """One input of a graded stack as (3,) samples, the rest numbers:
        each sample matches the solve of its own numbers."""
        scales = np.array([0.9, 1.0, 1.1])
        stack = graded_stack(4)

        def solve(scale):
            radii, eps, k0 = list(stack.radii), list(stack.eps), 1.1
            if array == "radii":
                radii[-1] = radii[-1] * scale
            elif array == "shell":
                eps[1] = eps[1] * scale
            else:
                k0 = k0 * scale
            return ml.coeffs_general_n(ml.LayerStack(radii, eps), k0)

        samples = solve(scales)
        for i, scale in enumerate(scales.tolist()):
            for a, b in coeff_pairs(samples, solve(scale)):
                a = np.broadcast_to(a, scales.shape)[i]
                assert abs(a - b) <= 1e-13 * max(1, abs(b))

    @pytest.mark.parametrize("eps", [
        (1.0, 5 + 2.5j, 1.5 + 0.2j), (1.0, np.array([5 + 2.5j, 4 + 1j]), 1.0)],
        ids=["numbers", "array_eps"])
    def test_stack_solve_reuses_its_validation(self, monkeypatch, eps):
        """A LayerStack decides its route, over the radii and eps together,
        and checks its widths once; no solve repeats either. Number radii
        with an array eps take the Mixed route."""
        from cavrate import _elementwise
        stack = ml.LayerStack((0.5, 1.0), eps)
        plain = SimpleNamespace(radii=stack.radii, eps=stack.eps)
        expected = ml.coeffs_general_n(stack, 1.1)
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        for module, name in ((_elementwise, "route"), (ml, "_widths")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        assert repr(ml.coeffs_general_n(stack, 1.1)) == repr(expected)
        assert calls == []
        # a plain object is validated once, by the LayerStack it becomes,
        # and an array k0 reuses the stack's widths
        assert repr(ml.coeffs_general_n(plain, 1.1)) == repr(expected)
        assert calls == ["_widths"]
        ml.coeffs_general_n(stack, np.array([1.1, 1.2]))
        assert calls == ["_widths"]
        if isinstance(eps[1], np.ndarray):
            for i, e in enumerate(eps[1].tolist()):
                one = ml.coeffs_general_n(
                    ml.LayerStack(stack.radii, (1.0, e, 1.0)), 1.1)
                for a, b in coeff_pairs(expected, one):
                    a = np.broadcast_to(a, eps[1].shape)[i]
                    assert abs(a - b) <= 1e-13 * max(1, abs(b))

    def test_closed_forms_satisfy_continuity(self, rng):
        """Substituting the closed forms back into the boundary conditions."""
        for _ in range(10):
            e = (1.0, random_passive(rng), random_passive(rng))
            r = (rng.uniform(0.1, 0.8), rng.uniform(1.0, 3.0))
            k0 = 1.0
            stack = ml.LayerStack(r, e)
            assert_continuous(stack, ml.coeffs_three_layer(*e, *r, k0), k0)


class TestFields:
    def test_uniform_stack_reproduces_free_dipole(self, rng):
        eps, k0 = 4 + 1.5j, 1.3
        stack = ml.LayerStack((1.0,), (eps, eps))
        coeffs = ml.coefficients(stack, k0)
        free = ml.homogeneous_field(eps, k0)
        for r in (0.3, 0.999, 1.001, 2.5):
            theta = rng.uniform(0.1, math.pi - 0.1)
            a = ml.field_in_layer(stack, coeffs, r, theta, k0)
            b = free(r, theta)
            for x, y in zip(a, b):
                assert abs(x - y) <= 1e-12 * abs(y)

    def test_outer_layer_is_an_effective_dipole(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.5 + 0.5j))
        k0 = 1.0
        coeffs = ml.coefficients(stack, k0)
        p_eff = rates.external_dipole(stack, k0)
        free = ml.homogeneous_field(stack.eps[-1], k0)
        for r in (2.2, 4.0):
            ours = ml.field_in_layer(stack, coeffs, r, 0.9, k0)
            scaled = [p_eff * f for f in free(r, 0.9)]
            for x, y in zip(ours, scaled):
                assert abs(x - y) <= 1e-12 * abs(y)

    def test_center_limit(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.0))
        k0 = 1.0
        coeffs = ml.coefficients(stack, k0)
        closed = ml.field_center_limit(coeffs, stack.eps[0], k0)
        e_r, _, _ = ml.field_in_layer(stack, coeffs, 1e-8, 0.0, k0,
                                      include_source=False)
        assert abs(complex(e_r) - closed) <= 1e-6 * abs(closed)
        # the scattered field at the center points along the dipole
        _, e_theta, _ = ml.field_in_layer(stack, coeffs, 1e-8, math.pi / 2,
                                          k0, include_source=False)
        assert abs(-complex(e_theta) - closed) <= 1e-6 * abs(closed)

    def test_center_limit_zero_without_reflection(self):
        coeffs = ml.WaveCoefficients(c1=0j, c_plus=(1 + 0j,), c_minus=(0j,))
        assert ml.field_center_limit(coeffs, 1.0, 1.0) == 0

    def test_rejects_origin(self):
        stack = ml.LayerStack((1.0,), (1.0, 2.0))
        coeffs = ml.coefficients(stack, 1.0)
        with pytest.raises(DomainError):
            ml.field_in_layer(stack, coeffs, 0.0, 0.3, 1.0)

    def test_theta_arrays_broadcast(self):
        stack = ml.LayerStack((1.0,), (1.0, 2.0 + 1j))
        coeffs = ml.coefficients(stack, 1.0)
        theta = np.linspace(0.1, 3.0, 7)
        e_r, e_theta, b_phi = ml.field_in_layer(stack, coeffs, 0.5, theta, 1.0)
        assert e_r.shape == e_theta.shape == b_phi.shape == theta.shape

    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_radius_arrays_follow_the_scalar_route(self, layer):
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.5 + 0.5j))
        k0 = 1.1
        coeffs = ml.coefficients(stack, k0)
        lo, hi = ((0.05, 0.59), (0.61, 1.99), (2.01, 6.0))[layer - 1]
        r = np.linspace(lo, hi, 9)
        theta = np.linspace(0.1, 3.0, 5)
        arrays = ml.field_in_layer(stack, coeffs, r[:, None], theta, k0)
        for i, ri in enumerate(r):
            scalar = ml.field_in_layer(stack, coeffs, float(ri), theta, k0)
            for x, y in zip(arrays, scalar):
                assert x.shape == (9, 5)
                assert np.all(abs(x[i] - y) <= 1e-14 * abs(y))

    def test_homogeneous_field_keeps_the_inner_layer_bits(self):
        eps, k0 = 5 + 2.5j, 1.0
        stack = ml.LayerStack((1.0,), (eps, eps))
        coeffs = ml.WaveCoefficients(c1=0j, c_plus=(1 + 0j,), c_minus=(0j,))
        free = ml.homogeneous_field(eps, k0)
        theta = np.array([0.4, 1.2])
        r = np.linspace(0.2, 3.0, 15)
        for ri in r[r < 1.0]:
            inner = ml.field_in_layer(stack, coeffs, ri, theta, k0, layer=1)
            for x, y in zip(free(ri, theta), inner):
                assert np.array_equal(x, y)
        # one array call may cross the stand-in interface at r = 1
        for i, column in enumerate(zip(*free(r[:, None], theta))):
            for x, y in zip(column, free(float(r[i]), theta)):
                assert np.all(abs(x - y) <= 1e-14 * abs(y))

    @pytest.mark.parametrize("seed", range(8))
    def test_every_layer_matches_the_mp_reference(self, seed):
        """Seeded 2-5 layer passive stacks against 50-digit fields."""
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        radii = tuple(np.cumsum(rng.uniform(0.2, 1.2, n - 1)))
        eps = tuple(random_passive(rng) for _ in range(n))
        k0 = rng.uniform(0.5, 2.0)
        stack = ml.LayerStack(radii, eps)
        coeffs = ml.coefficients(stack, k0)
        amplitudes = mpref.general_n(eps, radii, k0)
        theta = np.array([0.3, 1.2, 2.5])
        edges = (0.0, *radii, radii[-1] + 3.0)
        cases = [(1, np.array([1e-8]), False)]
        for layer in range(1, n + 1):
            lo, hi = edges[layer - 1], edges[layer]
            r = lo + (hi - lo) * np.array([0.01, *rng.uniform(0, 1, 3), 0.99])
            cases += [(layer, r, True)] + [(1, r, False)] * (layer == 1)
        for layer, r, source in cases:
            ours = ml.field_in_layer(stack, coeffs, r[:, None], theta, k0,
                                     include_source=source)
            for i, ri in enumerate(r):
                for j, tj in enumerate(theta):
                    ref = mpref.field(eps, k0, amplitudes, layer, ri, tj,
                                      include_source=source)
                    for x, y in zip(ours, map(complex, ref)):
                        assert abs(x[i, j] - y) <= 1e-12 * abs(y), \
                            (layer, ri, tj, source)

    def test_overflow_guard_beyond_im_700(self):
        eps, k0 = 4 + 4j, 1.0
        stack = ml.LayerStack((2000.0,), (eps, 1.0))
        coeffs = ml.coefficients(stack, k0)
        limit = 700 / (sqrt_eps(eps) * k0).imag  # radius of |Im k r| = 700
        for r in (1.01 * limit, np.array([0.5, 1.01]) * limit):
            for source in (True, False):
                with pytest.raises(OverflowError, match="overflow guard"):
                    ml.field_in_layer(stack, coeffs, r, 0.7, k0,
                                      include_source=source)
        inside = ml.field_in_layer(stack, coeffs, 0.99 * limit, 0.7, k0)
        assert all(np.isfinite(x) for x in inside)

    def test_named_layer_must_exist(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.0))
        coeffs = ml.coefficients(stack, 1.0)
        for layer in (0, 4):
            with pytest.raises(DomainError, match=r"layer .* outside 1\.\.3"):
                ml.field_in_layer(stack, coeffs, 1.0, 0.3, 1.0, layer=layer)

    def test_radius_arrays_must_stay_in_one_layer(self):
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.0))
        coeffs = ml.coefficients(stack, 1.0)
        with pytest.raises(DomainError, match="span an interface"):
            ml.field_in_layer(stack, coeffs, np.array([0.5, 0.7]), 0.3, 1.0)
        for bad in ([0.0, 0.3], [0.3, -0.1]):
            with pytest.raises(DomainError, match="positive"):
                ml.field_in_layer(stack, coeffs, np.array(bad), 0.3, 1.0)


# sha256 over float.hex of the real, then imaginary parts of (E_r, E_theta,
# B_phi) on a column of radii and a row of polar angles: in each layer of a
# three-layer stack at k0 = 1.1, with and without the source wave (which
# only the central layer carries), then in a homogeneous medium.  Like the
# array digests of test_scalar_bits, they assume numpy's AVX2 dispatch or
# above.
FIELD_DIGESTS = {
    (1, True):
        "7077df7766c6306514e59b3cd6a028962bf9d59bfec6ba26e244044e6577e00f",
    (1, False):
        "76620e944106b259dabdef44e4a8725ab6e8b9f0d49996824a3c411521891ec5",
    (2, True):
        "08b3e2f4da3fd66eec7a6aa1a93ea28f21cb2e685b127cdeca8079a015a71626",
    (2, False):
        "08b3e2f4da3fd66eec7a6aa1a93ea28f21cb2e685b127cdeca8079a015a71626",
    (3, True):
        "54f8bdc8fc8874c827b3409d403f1ecdf8b66d850527ac4f1f108c614958b77f",
    (3, False):
        "54f8bdc8fc8874c827b3409d403f1ecdf8b66d850527ac4f1f108c614958b77f",
    "homogeneous":
        "df7f909d8bf2a32ef2825e60b4885d9ca892f009db9721486ed94740768d8205",
}


def field_digest(components):
    digest = hashlib.sha256()
    for x in components:
        digest.update(" ".join(map(float.hex, np.concatenate(
            [x.real.ravel(), x.imag.ravel()]).tolist())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", FIELD_DIGESTS, ids=str)
def test_field_bits(case):
    k0, theta = 1.1, np.linspace(0.1, 3.0, 5)
    if case == "homogeneous":
        r = np.linspace(0.2, 3.0, 9)[:, None]
        components = ml.homogeneous_field(5 + 2.5j, k0)(r, theta)
    else:
        layer, source = case
        stack = ml.LayerStack((0.6, 2.0), (1.0, 5 + 2.5j, 1.5 + 0.5j))
        lo, hi = ((0.05, 0.59), (0.61, 1.99), (2.01, 6.0))[layer - 1]
        r = np.linspace(lo, hi, 9)[:, None]
        components = ml.field_in_layer(stack, ml.coefficients(stack, k0), r,
                                       theta, k0, include_source=source)
    assert field_digest(components) == FIELD_DIGESTS[case]


EPS_ROUTE = (1.0, 5 + 2.5j, 1.0)
ROUTES = {  # radii (one or two) and k0 -> amplitudes
    "two_layer": lambda r, k0: ml.coeffs_two_layer(5 + 2.5j, 1.0, *r, k0),
    "three_layer": lambda r, k0: ml.coeffs_three_layer(*EPS_ROUTE, *r, k0),
    "general_n": lambda r, k0: ml.coeffs_general_n(
        SimpleNamespace(radii=r, eps=EPS_ROUTE[-len(r) - 1:]), k0),
    "layer_stack": lambda r, k0: ml.coeffs_general_n(
        ml.LayerStack(r, EPS_ROUTE[-len(r) - 1:]), k0),
}


@pytest.mark.parametrize("route, bad, form", [
    (route, bad, form) for route in ROUTES
    for bad in ("r_inner", "r_outer", "k0") for form in ("number", "element")
    # a two-layer stack has one radius
    if not (route == "two_layer" and bad == "r_outer")
])
def test_nan_radius_or_wavenumber_is_a_domain_error(route, bad, form):
    nan = math.nan if form == "number" else np.array([0.7, math.nan])
    radii = [0.5] if route == "two_layer" else [0.5, 1.0]
    k0 = 1.0
    if bad == "k0":
        k0 = nan
    else:
        radii[0 if bad == "r_inner" else -1] = nan
    with pytest.raises(DomainError):
        ROUTES[route](tuple(radii), k0)


def test_overflow_guard_propagates():
    with pytest.raises(OverflowError):
        ml.coeffs_two_layer(1.0, 1 + 1e6j, 1000.0, 1.0)


@pytest.mark.parametrize("form, args, count", [
    (ml.coeffs_two_layer, (5 + 2.5j, 1.0, 2.0, 1.0), 6),
    (ml.coeffs_three_layer, (1.0, 5 + 2.5j, 1.5 + 0.2j, 0.6, 2.0, 1.0),
     13),
    (ml.coeffs_three_layer, (np.array([1.0, 2 + 1j]), 5 + 2.5j, 1.0,
                             0.6, 2.0, np.array([0.9, 1.1])), 13),
], ids=["two-layer", "three-layer", "three-layer-arrays"])
def test_closed_forms_evaluate_each_wave_once(monkeypatch, form, args,
                                              count):
    calls = []

    class Counting:
        """specfun as the closed forms see it, each call recorded."""
        def __getattr__(self, name):
            fn = getattr(specfun, name)

            def counted(z):
                calls.append((name, np.asarray(z).tobytes()))
                return fn(z)
            return counted

    expected = form(*args)
    monkeypatch.setattr(ml, "sf", Counting())
    assert np.array_equal(form(*args).c1, expected.c1)
    assert len(calls) == count
    assert len(set(calls)) == count, "a wave evaluated twice"


# the residual's groups for a three-layer solve, in peak_ratio's order:
# row defects, the two source terms, row sums and amplitudes; the bound B
# reads the first two alone, the residual all four
RESIDUAL_GROUPS = ([1e-17, 3e-17, 2e-17, 1e-17], [0.7, 0.8],
                   [1.0, 2.0, 1.5, 0.5], [1.0, 0.3, 0.2, 0.1, 0.4, 0.5, 0.6])
GROUP_NAMES = ("defects", "sources", "norms", "amps")
NAN_CASES = [(form, group, position) for form in ("number", "array")
             for group in range(4) for position in (0, -1)]
NAN_IDS = [f"{form}-{GROUP_NAMES[group]}-"
           f"{'first' if position == 0 else 'later'}"
           for form, group, position in NAN_CASES]


def with_nan(groups, form, group, position):
    """groups with one NaN: the value itself for numbers, the second
    sample of a (2,) array for arrays; groups without that group (B's
    call) as they are."""
    groups = [list(g) for g in groups]
    if group < len(groups):
        value = groups[group][position]
        groups[group][position] = (math.nan if form == "number"
                                   else value * np.array([1.0, math.nan]))
    return groups


@pytest.mark.parametrize("form, group, position", NAN_CASES, ids=NAN_IDS)
def test_nan_in_any_residual_group_gives_nan(form, group, position):
    groups = RESIDUAL_GROUPS
    if form == "array":  # two samples, the second one slightly apart
        groups = [[v * np.array([1.0, 1.1]) for v in g] for g in groups]
    assert ml.peak_ratio(*groups) <= ml.peak_ratio(*groups[:2]) \
        <= ml._RESIDUAL_LIMIT
    nan_groups = with_nan(groups, form, group, position)
    assert math.isnan(ml.peak_ratio(*nan_groups))
    if group < 2:  # in B too
        assert math.isnan(ml.peak_ratio(*nan_groups[:2]))


@pytest.mark.parametrize("form, group, position", NAN_CASES, ids=NAN_IDS)
def test_engine_rejects_nan_in_any_residual_group(monkeypatch, form, group,
                                                  position):
    """A NaN in B's defects or sources, or in the norms and amplitudes of
    the residual that the engine forms where B does not pass, fails."""
    eps = (1.0, 5 + 2.5j, 1.5 + 0.2j)
    if form == "array":
        eps = (1.0, np.array([5 + 2.5j, 4 + 1j]), 1.5 + 0.2j)

    def solve():
        return ml.coeffs_general_n(ml.LayerStack((0.3, 1.0), eps), 1.1)

    if group >= 2:  # a limit that B fails and the residual passes
        bound = solve().residual
        monkeypatch.setattr(ml, "_RESIDUAL_LIMIT", bound / 2)
        assert solve().residual < bound / 2
    reduce = ml.peak_ratio

    def injected(*groups):
        return reduce(*with_nan(groups, form, group, position))

    monkeypatch.setattr(ml, "peak_ratio", injected)
    with pytest.raises(IllConditioned, match="residual nan"):
        solve()


def test_number_route_never_reaches_numpy(monkeypatch):
    """A scalar rate report and a scalar N = 8 solve run on cmath and plain
    comparisons alone: numpy's elementary functions and reductions, as
    _elementwise sees them, raise, and the results keep their bits."""
    from cavrate import _elementwise

    args = (5 + 2.5j, 1.5 + 0.1j, 2.0, 0.2, 0.3, 1.1)
    report, coeffs = rates.rate_report(*args), ml.coeffs_general_n(
        graded_stack(8), 1.1)

    def refuse(*args, **kwargs):
        raise AssertionError("a number reached numpy")

    class NoNumpy:
        ndarray = np.ndarray  # the type test itself stays

        def __getattr__(self, name):
            raise AssertionError(f"a number reached numpy.{name}")

    for name in ("exp", "sin", "cos", "sqrt"):
        monkeypatch.setattr(_elementwise._ArrayMath, name, refuse)
    monkeypatch.setattr(_elementwise, "np", NoNumpy())
    assert repr(rates.rate_report(*args)) == repr(report)
    assert repr(ml.coeffs_general_n(graded_stack(8), 1.1)) == repr(coeffs)


# one bad input of a cavity/shell/host solve: the change to the good
# inputs (radii, eps, k0), then the error type and message it raises
GOOD_INPUTS = ((0.5, 1.0), (1.0, 5 + 2.5j, 1.5 + 0.2j), 1.1)
RADII_MESSAGE = "the radii must be positive and increasing"
BAD_STACK_INPUTS = {
    "k0_zero": ({"k0": 0.0}, DomainError, "k0 must be positive"),
    "k0_negative": ({"k0": -1.1}, DomainError, "k0 must be positive"),
    "k0_nan": ({"k0": math.nan}, DomainError, "k0 must be positive"),
    "r_inner_negative": ({"radii": (-0.5, 1.0)}, DomainError, RADII_MESSAGE),
    "r_inner_nan": ({"radii": (math.nan, 1.0)}, DomainError, RADII_MESSAGE),
    "r_outer_not_increasing": ({"radii": (0.5, 0.4)}, DomainError,
                               RADII_MESSAGE),
    "r_outer_nan": ({"radii": (0.5, math.nan)}, DomainError, RADII_MESSAGE),
    "eps_zero": ({"eps": (1.0, 0j, 1.5 + 0.2j)}, DomainError,
                 "square root branch undefined at eps = 0"),
}
# the ways into the engine: a LayerStack at a float k0, any other object
# with radii and eps, and a LayerStack at an array k0 (k0 its second sample)
WAYS_IN = {
    "layer_stack": lambda radii, eps, k0: ml.coeffs_general_n(
        ml.LayerStack(radii, eps), k0),
    "plain_object": lambda radii, eps, k0: ml.coeffs_general_n(
        SimpleNamespace(radii=radii, eps=eps), k0),
    "array_k0": lambda radii, eps, k0: ml.coeffs_general_n(
        ml.LayerStack(radii, eps), np.array([1.1, k0])),
}


@pytest.mark.parametrize("bad", list(BAD_STACK_INPUTS))
@pytest.mark.parametrize("way", list(WAYS_IN))
def test_each_way_in_names_its_bad_input(way, bad):
    change, error, message = BAD_STACK_INPUTS[bad]
    inputs = {**dict(zip(("radii", "eps", "k0"), GOOD_INPUTS)), **change}
    with pytest.raises(error) as caught:
        WAYS_IN[way](**inputs)
    assert type(caught.value) is error and str(caught.value) == message
