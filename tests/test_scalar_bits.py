"""Exact bits of the scalar stack evaluations.

Each value is pinned as float.hex, so any change to the order or the form
of a scalar computation shows here, whatever its size.  The bare spheres
span a small sphere in vacuum and in an absorbing host, one inside
j1_scaled's series radius, a lossless one in an absorbing host, a large
one whose outputs are around 1e-35, and R = 1400, where the cavity terms
underflow to exact zeros; the stacks are a three-layer cavity, whose
total rate and external power are pinned too, and a graded N = 8 stack.
A digest pins every amplitude and the residual of seeded stacks with 2 to
32 layers, as numbers and, in a test of its own, as arrays, and the
errors of a few inputs the amplitude engine rejects.

The number route never reaches numpy, so the number pins hold at every
SIMD level.  The array digests assume numpy's AVX2 dispatch or above (AVX2
and AVX-512 give the same bits).  At the X86_V2 baseline, e.g. numpy 2.4.6
with NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR", every
test_seeded_array_stack_amplitude_digest case fails, while every other
test here still passes.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cavrate import multilayer as ml
from cavrate import rates
from cavrate.cli import get_preset
from cavrate.dielectric import eval_lorentz
from cavrate.errors import DomainError
from test_multilayer import graded_stack

EPS_RES = 5 + 2.5j
R_C = 0.2 * math.pi  # fig3's cavity radius at the resonance frequency

# (eps, eps_ext, radius, r_c, r_m, k0) -> RateReport fields in order
REPORTS = {
    (EPS_RES, 1 + 0j, 2.0, R_C, R_C, 1.0): (
        "0x1.6476e36077366p+1", "0x1.524934605be4bp+2",
        "0x1.2bcb6697f91e2p-3", "0x1.608c2cd7482a2p-4",
        "0x1.06d90296714d6p-2", "0x1.62b6c489c2f98p+2",
        "0x1.29d246e0d569ep-2", "0x1.1edb698775e2cp-1",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2",
        "0x1.41b2f769cf0e0p-1"),
    (EPS_RES, 1.5 + 0.1j, 2.0, 0.2, 0.3, 1.1): (
        "0x1.68fa6196bba5bp+2", "0x1.3bbd35d66b042p+4",
        "-0x1.443a04bb56256p-6", "0x1.1f8a14356059fp-4",
        "-0x1.db5497d89d59bp-5", "0x1.3acf8b8a7eb57p+4",
        "0x1.c8def5210c278p-3", "0x1.b80d1b023de63p-2",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2",
        "0x1.c28f5c28f5c2ap-3"),
    (4.07 + 0.49j, 1 + 0j, 300.0, 0.15, 0.15, 1.1): (
        "0x1.783ce016ccb97p+3", "0x1.f42ba11d985dcp+3",
        "0x1.bb9cd4cbad789p-117", "-0x1.db9e2a2208ed0p-117",
        "0x1.a30293fb89dc4p-116", "0x1.f42ba11d985dcp+3",
        "0x1.55c91e8dff612p-115", "0x1.31e0be9616d17p-114",
        "0x1.ca35af2bafc6ep+0", "0x1.07b72ea61d951p+2",
        "0x1.51eb851eb851fp-3"),
    (EPS_RES, 1 + 0j, 1400.0, R_C, R_C, 1.0): (
        "0x1.6476e36077366p+1", "0x1.524934605be4bp+2",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.524934605be4bp+2",
        "0x0.0p+0", "0x0.0p+0",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2",
        "0x1.41b2f769cf0e0p-1"),
    # |k1 R| = 0.236, below j1_scaled's series radius 0.5
    (EPS_RES, 1 + 0j, 0.1, 0.05, 0.05, 1.0): (
        "0x1.e1268a9d2e312p+9", "0x1.365067f1b7dd9p+10",
        "0x1.3dc7484886289p+6", "0x1.578d81bc9bbd2p+7",
        "0x1.9ea895cc72ad2p+6", "0x1.503af14e7f086p+10",
        "0x1.5393ac1007c29p-3", "0x1.471346d2f26f0p-2",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2",
        "0x1.999999999999ap-5"),
    (4 + 0j, 1.5 + 0.1j, 2.0, 0.2, 0.3, 1.1): (
        "0x1.0000000000000p+1", "0x1.c71c71c71c71cp+1",
        "0x1.04b21247a2665p+0", "-0x1.6bb8c4375502cp-4",
        "0x1.cf7575d4aeeecp+0", "0x1.576b9658b9f49p+2",
        "0x1.82590923d1332p+1", "0x1.576b9658b9f49p+2",
        "0x1.c71c71c71c71cp+0", "0x1.0000000000000p+2",
        "0x1.c28f5c28f5c2ap-3"),
}

# ((re c1, im c1), (re c_outer, im c_outer)), residual, then
# (gamma_hat_total, external_power) or None
STACKS = {
    "cavity_n3": (
        (ml.LayerStack((0.2, 2.0), (1.0, EPS_RES, 1.5 + 0j)), 1.0),
        (("0x1.68c4cf3e8d692p+4", "-0x1.2ace5a647593fp+7"),
         ("-0x1.ad7f7199e6067p-2", "0x1.c392b3b7803f4p-1")),
        "0x1.6f4bf75987c0bp-58",
        ("0x1.78c4cf3e8d692p+4", "0x1.09d2fe9a3b02bp-1")),
    "graded_n8": (
        (graded_stack(8), 1.1),
        (("0x1.3881bf90e9ebcp+7", "-0x1.afb4e38d66510p+8"),
         ("-0x1.96936057bbc8ep-2", "0x1.b8c535c1468d6p-1")),
        "0x1.9783cebdca9ecp-62", None),
}


@pytest.mark.parametrize("args", list(REPORTS), ids=[
    "R2", "R2_host", "R300", "R1400", "R0.1_series", "lossless_in_host"])
def test_rate_report_bits(args):
    report = rates.rate_report(*args)
    assert tuple(v.hex() for v in vars(report).values()) == REPORTS[args]


@pytest.mark.parametrize("name", list(STACKS))
def test_stack_amplitude_bits(name):
    (stack, k0), amplitudes, residual, stack_rates = STACKS[name]
    coeffs = ml.coefficients(stack, k0)
    got = tuple((z.real.hex(), z.imag.hex())
                for z in (coeffs.c1, coeffs.c_outer))
    assert got == amplitudes
    assert coeffs.residual.hex() == residual
    if stack_rates is not None:
        assert (rates.gamma_hat_total(stack, k0).hex(),
                rates.external_power(stack, k0).hex()) == stack_rates


# N -> sha256 over float.hex of c1, c_plus, c_minus and residual: of
# DRAWS stacks of numbers, and of one stack of (DRAWS,) arrays
DRAWS = 20
DIGESTS = {
    2: ("7f84eb7c0a2551cceb09a0637d9cd6f295478720f4708c243144e6b9000af987",
        "f02107f3b78f02a18fe8dd4c25dcc2fcf549caf3bd7c3a946098827920339ee3"),
    3: ("533a7a7f534c7e3ba252b64178052ea9f8b923757e5f5fe70f03022651a0b998",
        "fbbfcb2713db9a54b3194fd90798125322cc047aa62f0122244458a27a6e4720"),
    4: ("d1c24194f40262d6a958ed2d2e9c34a9bc8b19f0cf30a86650627e3a8f08ad18",
        "4a969cfb824dff3ea6b3535018b7fa226173e7216a9a41c2a21b00a1c39f5838"),
    8: ("0c359ac00a8a7b23929b30b895c052b8c58a2aabe8f575a3c2186c4fbcc57332",
        "6dc11bf0755aaed404e56b0fefcbccc77f777643a12505f953a0d6dbc6941d8d"),
    16: ("4d653d945a0f48120c91cc07d5bc910a1dacca6bd400232a8e13d39833db1569",
         "d5461fe1d472544c04c3fad8682636df23fb27aee2139f0ebdbb1e17bb1c549b"),
    32: ("fa6f59774cec0d43fed1d91991fd23ec827e5c0c397f26d718492c16989fcee4",
         "cd5d111d13f3219a32d32b9ddcc79ad6347ee9c23c420946e1afcf0d5ad8852e"),
}


def seeded_stacks(n):
    """Shared radii; per draw, passive permittivities (about 30 % of them
    lossless) and a k0, which put |k_1 r_1| on both sides of j1_scaled's
    series radius."""
    rng = np.random.default_rng(n)
    radii = tuple(np.cumsum(rng.uniform(0.05, 0.6, size=n - 1)).tolist())
    parts = rng.uniform((0.5, 0.0), (8.0, 3.0), size=(DRAWS, n, 2))
    parts[..., 1] *= rng.random((DRAWS, n)) < 0.7
    return radii, parts.view(complex)[..., 0], rng.uniform(0.2, 2.0, DRAWS)


def amplitude_digest(solves):
    digest = hashlib.sha256()
    for coeffs in solves:
        for z in (coeffs.c1, *coeffs.c_plus, *coeffs.c_minus):
            for part in (np.real(z), np.imag(z)):
                digest.update(" ".join(
                    map(float.hex, np.ravel(part).tolist())).encode())
        digest.update(coeffs.residual.hex().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("n", list(DIGESTS))
def test_seeded_stack_amplitude_digest(n):
    """The number half: DRAWS stacks of numbers."""
    radii, eps, k0 = seeded_stacks(n)
    numbers = [ml.coeffs_general_n(ml.LayerStack(radii, e.tolist()),
                                   float(k))
               for e, k in zip(eps, k0)]
    assert amplitude_digest(numbers) == DIGESTS[n][0]


@pytest.mark.parametrize("n", list(DIGESTS))
def test_seeded_array_stack_amplitude_digest(n):
    """The array half: one stack of (DRAWS,) arrays."""
    radii, eps, k0 = seeded_stacks(n)
    array = ml.coeffs_general_n(
        SimpleNamespace(radii=radii, eps=tuple(eps.T)), k0)
    assert amplitude_digest([array]) == DIGESTS[n][1]


def _overflowing(omega):
    """ROADMAP item 2: a host that absorbs more than the sphere at R = 300
    makes the engine's e^{i(z_in - z_out)} overflow."""
    eps = eval_lorentz(get_preset("fig3").medium, omega).eps
    return (eps, 1 + 0.5j), omega


NAN = complex(math.nan, 0)
# name -> (radii, eps, k0), then the error type and message
RAISING = {
    "radii_not_increasing": (
        ((1.0, 1.0), (2 + 1j, 3 + 0j, 1 + 0j), 1.0),
        DomainError, "the radii must be positive and increasing"),
    "radii_not_increasing_array": (
        ((0.5, 0.4), (np.array([2 + 1j, 3j]), 3 + 0j, 1 + 0j),
         np.array([1.0, 2.0])),
        DomainError, "the radii must be positive and increasing"),
    "k0_not_positive": (
        ((1.0,), (2 + 0j, 1 + 0j), -1.0),
        DomainError, "k0 must be positive"),
    "nan_permittivity": (
        ((0.3, 1.0), (2 + 1j, NAN, 1 + 0j), 1.0),
        DomainError, "eps = (nan+0j) must be finite"),
    "inf_permittivity": (
        ((0.3, 1.0), (2 + 1j, complex(math.inf, 1), 1 + 0j), 1.0),
        DomainError, "eps = (inf+1j) must be finite"),
    "nan_permittivity_array": (
        ((0.3, 1.0), (2 + 1j, np.array([3 + 0j, NAN]), 1 + 0j),
         np.array([1.0, 1.5])),
        DomainError, "eps = (nan+0j) must be finite"),
    "outer_phase_overflow": (
        ((300.0,), *_overflowing(11.0)),
        OverflowError, "math range error"),
    "outer_phase_overflow_array": (
        ((300.0,), *_overflowing(np.array([10.0, 11.0]))),
        OverflowError, "math range error"),
}


@pytest.mark.parametrize("name", list(RAISING))
def test_rejected_stack_errors(name):
    (radii, eps, k0), error, message = RAISING[name]
    with pytest.raises(error) as caught:
        ml.coeffs_general_n(SimpleNamespace(radii=radii, eps=eps), k0)
    assert type(caught.value) is error and str(caught.value) == message
