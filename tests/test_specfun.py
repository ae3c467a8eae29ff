import cmath
import math

import numpy as np
import pytest

import mpref
from cavrate import specfun as sf
from cavrate.errors import DomainError


def taylor_j1(z, terms=50):
    """Independent power-series evaluation of j1 around the origin."""
    z = complex(z)
    total = 0j
    term = z / 3  # m = 0 term: z / (1 * 3!!)
    for m in range(terms):
        total += term
        term *= -z * z / (2 * (m + 1) * (2 * m + 5))
    return total


# value frozen from taylor_j1(1 + 0.5j); the test recomputes it as well
J1_1_05J = 0.32363383660725736 + 0.12236304512236684j


def test_j1_against_taylor_series():
    for z in (1 + 0.5j, 0.3 - 0.2j, 2.0 + 0j, 0.01 + 0.02j, -1.5 + 1j):
        oracle = taylor_j1(z)
        assert abs(sf.sph_j1(z) - oracle) <= 1e-14 * abs(oracle)
    assert abs(sf.sph_j1(1 + 0.5j) - J1_1_05J) <= 1e-13
    assert abs(taylor_j1(1 + 0.5j) - J1_1_05J) <= 1e-15


def test_j1_at_half_pi():
    assert sf.sph_j1(math.pi / 2) == pytest.approx(4 / math.pi ** 2, rel=1e-15)


def test_series_closed_form_crossover(rng):
    """Both evaluation branches agree with the mp reference around |z| = 0.5."""
    for _ in range(100):
        radius = rng.uniform(0.05, 1.5)
        phase = rng.uniform(0, 2 * math.pi)
        z = radius * cmath.exp(1j * phase)
        ref = complex(mpref.j1(mpref.to_mpc(z)))
        assert abs(sf.sph_j1(z) - ref) <= 5e-15 * max(abs(ref), 1e-300)
        ref = complex(mpref.rj1(mpref.to_mpc(z)))
        assert abs(sf.riccati_j1(z) - ref) <= 5e-15 * max(abs(ref), 1e-300)


def test_hankel_against_mp_reference(rng):
    samples = [1.0 + 0.0j, 2 + 1j]
    while len(samples) < 50:
        z = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        if abs(z) >= 0.05:
            samples.append(z)
    for z in samples:
        zm = mpref.to_mpc(z)
        for ours, theirs in ((sf.sph_h1_1, mpref.h1_1),
                             (sf.sph_h2_1, mpref.h2_1),
                             (sf.riccati_h1, mpref.rh1),
                             (sf.riccati_h2, mpref.rh2)):
            ref = complex(theirs(zm))
            assert abs(ours(z) - ref) <= 1e-13 * abs(ref)


def test_small_arguments_against_mp_reference(rng):
    """1e-3 <= |z| < 0.05, where the Hankel identities cancel 1/|z|**3."""
    radius = np.exp(rng.uniform(np.log(1e-3), np.log(0.05), 200))
    z = radius * np.exp(1j * rng.uniform(0, 2 * math.pi, 200))
    for ours, theirs in ((sf.sph_j1, mpref.j1), (sf.sph_h1_1, mpref.h1_1),
                         (sf.sph_h2_1, mpref.h2_1), (sf.riccati_j1, mpref.rj1),
                         (sf.riccati_h1, mpref.rh1),
                         (sf.riccati_h2, mpref.rh2)):
        ref = np.array([complex(theirs(mpref.to_mpc(x))) for x in z])
        scalar = np.array([ours(complex(x)) for x in z])
        assert np.all(abs(scalar - ref) <= 1e-13 * abs(ref)), ours.__name__
        assert np.all(abs(ours(z) - ref) <= 1e-13 * abs(ref)), ours.__name__


def test_second_kind_is_conjugate_for_real_argument():
    for z in (0.3, 1.0, 2.7, 11.0):
        assert sf.sph_h2_1(z) == pytest.approx(sf.sph_h1_1(z).conjugate(),
                                               rel=1e-15)


def test_hankel_wronskian(rng):
    """h1 h2' - h2 h1' = -2i/z**2 for order 1."""
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-20, 20), rng.uniform(-10, 10))
        if not 1e-3 < abs(z) < 30:
            continue
        dh1 = sf.sph_h1_0(z) - 2 * sf.sph_h1_1(z) / z
        dh2 = sf.sph_h2_0(z) - 2 * sf.sph_h2_1(z) / z
        wron = sf.sph_h1_1(z) * dh2 - sf.sph_h2_1(z) * dh1
        target = -2j / (z * z)
        assert abs(wron - target) <= 1e-10 * abs(target)
        checked += 1


def test_hankel_superposition(rng):
    """h1 + h2 = 2 j1 at every sampled argument."""
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-20, 20), rng.uniform(-10, 10))
        if not 1e-3 < abs(z) < 30:
            continue
        total = sf.sph_h1_1(z) + sf.sph_h2_1(z)
        scale = max(abs(total), abs(sf.sph_h1_1(z)) * 1e-10)
        assert abs(total - 2 * sf.sph_j1(z)) <= 1e-12 * scale
        checked += 1


@pytest.mark.parametrize("kind,fn", [("j1", sf.riccati_j1),
                                     ("h1", sf.riccati_h1),
                                     ("h2", sf.riccati_h2)])
def test_riccati_matches_finite_difference(kind, fn):
    def base(z):
        return {"j1": sf.sph_j1, "h1": sf.sph_h1_1, "h2": sf.sph_h2_1}[kind](z)

    for z in (0.7 + 0.1j, 2 + 1j, 5 - 0.5j, 1.3j + 4):
        h = 1e-6
        fd = ((z + h) * base(z + h) - (z - h) * base(z - h)) / (2 * h)
        exact = fn(z)
        assert abs(exact - fd) <= 1e-6 * abs(exact)


def test_riccati_j1_closed_form_identity(rng):
    """[z j1]' = z j0 - j1 over the sampled plane."""
    for _ in range(50):
        z = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
        j0 = cmath.sin(z) / z
        expected = z * j0 - sf.sph_j1(z)
        assert abs(sf.riccati_j1(z) - expected) <= 1e-12 * max(1, abs(expected))


def test_domain_errors():
    for fn in (sf.sph_h1_0, sf.sph_h1_1, sf.sph_h2_0, sf.sph_h2_1,
               sf.riccati_h1, sf.riccati_h2):
        with pytest.raises(DomainError):
            fn(0)


def test_overflow_guard():
    with pytest.raises(OverflowError):
        sf.sph_h1_1(1 + 701j)
    with pytest.raises(OverflowError):
        sf.riccati_h2(1 - 800j)
    # just inside the guard still evaluates
    sf.sph_h2_1(1 - 699j)


def test_arrays_follow_the_scalar_route():
    # both sides of the series switch, the origin and a large argument
    zs = np.array([0, 1e-5 + 1e-5j, 0.3 - 0.2j, 0.5, 1 + 0.5j, -1.5 + 1j,
                   7 - 3j, 20 + 0.1j])
    regular = (sf.sph_j1, sf.riccati_j1)
    singular = (sf.sph_h1_0, sf.sph_h1_1, sf.sph_h2_0, sf.sph_h2_1,
                sf.riccati_h1, sf.riccati_h2)
    for fns, args in ((regular, zs), (singular, zs[1:])):
        for fn in fns:
            values = fn(args)
            assert values.shape == args.shape
            for z, value in zip(args, values):
                ref = fn(complex(z))
                assert abs(value - ref) <= 1e-14 * abs(ref), (fn, z)
    # arrays entirely below, entirely above and across |z| = 0.5: each
    # element keeps the bits it has on its own, in a one-point array, so
    # the branch an array runs depends on that point alone; numpy's complex
    # arithmetic and elementary functions differ from cmath's in the last
    # bits, so the number route is met to 1e-14
    zs = np.append(zs, [0.49j, 3 + 40j])
    for args in (zs[abs(zs) < 0.5], zs[abs(zs) >= 0.5], zs):
        for fn in (*regular, sf.j1_scaled):
            values = fn(args)
            assert values.shape[-1:] == args.shape
            for i, z in enumerate(args):
                value = values[..., i]
                alone = fn(args[i:i + 1])[..., 0]
                assert value.tobytes() == alone.tobytes(), (fn, z)
                ref = np.array(fn(complex(z)))
                assert np.all(abs(value - ref) <= 1e-14 * abs(ref)), (fn, z)


def test_j1_scaled_against_unscaled_and_mp_reference(rng):
    """(j1 e^{iz}, [z j1]' e^{iz}) for numbers and arrays, on both sides
    of the series switch at |z| = 0.5 and where e^{iz} alone underflows."""
    radius = np.concatenate([rng.uniform(0.01, 0.5, 40),
                             rng.uniform(0.5, 20.0, 40)])
    zs = radius * np.exp(1j * rng.uniform(0, math.pi, 80))
    zs = np.append(zs, [0.5, 0.5j, 2 + 800j])
    values = sf.j1_scaled(zs)
    assert values.shape == (2,) + zs.shape
    for z, value in zip(zs, values.T):
        z = complex(z)
        zm = mpref.to_mpc(z)
        phase = mpref.mp.exp(mpref.I * zm)
        refs = [np.array([complex(mpref.j1(zm) * phase),
                          complex(mpref.rj1(zm) * phase)])]
        if z.imag < 700:  # the unscaled waves stay in range
            refs.append(np.array([sf.sph_j1(z), sf.riccati_j1(z)])
                        * cmath.exp(1j * z))
        for ours in (np.array(sf.j1_scaled(z)), value):
            for ref in refs:
                assert np.all(abs(ours - ref) <= 1e-13 * abs(ref)), z


def test_array_guards_reject_any_bad_element():
    with pytest.raises(DomainError):
        sf.sph_h1_1(np.array([1.0, 0.0]))
    with pytest.raises(OverflowError):
        sf.riccati_h2(np.array([1.0, 1 - 800j]))
    # the closed form of j1 leaves the double range as cmath does
    for z in (1 + 800j, np.array([1.0, 1 + 800j])):
        with pytest.raises(OverflowError):
            sf.sph_j1(z)
