"""Exact bits of the scalar stack evaluations.

Each value is pinned as float.hex, so any change to the order or the form
of a scalar computation shows here, whatever its size.  The bare spheres
span a small sphere in vacuum and in an absorbing host, one inside
j1_scaled's series radius, a lossless one in an absorbing host, a large
one whose outputs are around 1e-35, and R = 1400, where the cavity terms
underflow to exact zeros; the stacks are a three-layer cavity, whose
total rate and external power are pinned too, and a graded N = 8 stack.
Digests pin every amplitude of seeded stacks with 2 to 32 layers, as
numbers and, in a test of its own, as arrays; separate digests pin their
residuals, so that a change to the residual alone cannot hide a change to
an amplitude.  Last come the errors of a few inputs the amplitude engine
rejects.

The number route never reaches numpy, so the number pins hold at every
SIMD level.  The array digests assume numpy's AVX2 dispatch or above (AVX2
and AVX-512 give the same bits).  At the X86_V2 baseline, e.g. numpy 2.4.6
with NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR", every
case of the two array digest tests fails, while every other test here
still passes.
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
        "0x1.572a9694eb4b2p-52",
        ("0x1.78c4cf3e8d692p+4", "0x1.09d2fe9a3b02bp-1")),
    "graded_n8": (
        (graded_stack(8), 1.1),
        (("0x1.3881bf90e9ebcp+7", "-0x1.afb4e38d66510p+8"),
         ("-0x1.96936057bbc8ep-2", "0x1.b8c535c1468d6p-1")),
        "0x1.8a1d9603d6293p-53", None),
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
    if stack_rates is not None:
        assert (rates.gamma_hat_total(stack, k0).hex(),
                rates.external_power(stack, k0).hex()) == stack_rates


@pytest.mark.parametrize("name", list(STACKS))
def test_stack_residual_bits(name):
    (stack, k0), _, residual, _ = STACKS[name]
    assert ml.coefficients(stack, k0).residual.hex() == residual


# N -> sha256 over float.hex of c1, c_plus and c_minus: of DRAWS stacks
# of numbers, and of one stack of (DRAWS,) arrays
DRAWS = 20
DIGESTS = {
    2: ("5822e266f053cedebf6afda88cfa4bcb99a85cf13ad30c06e48cf5c22265bd37",
        "edba33c0382f8489056d7276dfcbccb483c26b471256860e33c1ffcebd940088"),
    3: ("2e852b4f831e485b505d514ce7453fabdfb606aa567972d06b7836c174f76215",
        "e315e4958d6193ee8ede993f245a8b92eeb16d5e660422a5706dfe454c0b5a20"),
    4: ("87b17bc7ad25666cadfa2917f69db5141dafe32ee87cf30ef872b719c3c4d501",
        "3333e772d0eb06bbb7835cd9580e6f08bc5626a6d6ce6ea4da3e2d624c18d725"),
    8: ("2c27602c3ab5db21884fcae6cceebd48a4258476428e9986a8b1f4cce80b4c31",
        "0871702d0c5c74ee02e916bf7221671e6af45a78dbed67067e9f858f52e681be"),
    16: ("7ba64121a413ec345c1acbb09bf5d2d14fb4dede418f41482f5ff7e4c481470c",
         "de77e4fa6ebf60c00b82970f4c99687e04551dfb2696c484de3fbbf574c9106f"),
    32: ("a1f3936e1e6ae2a3728a7dba64e2cf883a9447c92188cafdb329ac9ee1675313",
         "4284632fc5829c1c566273d55024b41ef1d73dedb6e4051bc2d89f168b7b4d4c"),
}

# N -> sha256 over the float.hex of each residual of the same solves
RESIDUAL_DIGESTS = {
    2: ("580f50c9efe7108001c2e40d153ade35fd27d1ebed81ef8723e07d82e7333be4",
        "72e00a943c514452cb75ee7880a7261c8496f1fd7861d20b61772a2ef3ae3c63"),
    3: ("d15b72a734a7efca0139e9cb2af77796f3fd42e6e45b3cfd69717840b9503a3d",
        "78880fa7afbbb8f9abb88ef24eb41c71a83d66f89eab2f9e9427fd113c8163e7"),
    4: ("6f3de9c5dc051662821d4acf614a28814c0c15b9eefd90a8951f9f1972fe5acb",
        "1aa952013d917902577706e42c4e8812c27dac2c1023b11ef78d243da86196a7"),
    8: ("841f7cd6ad29e8d52db4eb3049919d91a8f211bd7bb609d7031b12917590f86f",
        "ee071c7b317c89bdc3b8eb974c56069bfdc7b973bf1a6fc8e56b44d3b261f2c0"),
    16: ("b7f271611cd87ca05bf99f791aa506f452f50f86082db971379b952950b5edd0",
         "98f74e4049431b86b9a0bdf165699bcda9dbed4c6c87606b777f8b05940937eb"),
    32: ("c73b9b33eb976dd7a02dcc6f5987a39bd466c5eb1232c49020f8dc071b91d23a",
         "6d934eacac2cbd9ceee051a0f6bac5b87690f43a212b00a1b39a79c1becf70d9"),
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
    return digest.hexdigest()


def residual_digest(solves):
    return hashlib.sha256(" ".join(
        coeffs.residual.hex() for coeffs in solves).encode()).hexdigest()


def number_solves(n):
    """The number half: DRAWS stacks of numbers."""
    radii, eps, k0 = seeded_stacks(n)
    return [ml.coeffs_general_n(ml.LayerStack(radii, e.tolist()), float(k))
            for e, k in zip(eps, k0)]


def array_solves(n):
    """The array half: one stack of (DRAWS,) arrays."""
    radii, eps, k0 = seeded_stacks(n)
    return [ml.coeffs_general_n(
        SimpleNamespace(radii=radii, eps=tuple(eps.T)), k0)]


@pytest.mark.parametrize("n", list(DIGESTS))
def test_seeded_stack_amplitude_digest(n):
    assert amplitude_digest(number_solves(n)) == DIGESTS[n][0]


@pytest.mark.parametrize("n", list(DIGESTS))
def test_seeded_array_stack_amplitude_digest(n):
    assert amplitude_digest(array_solves(n)) == DIGESTS[n][1]


@pytest.mark.parametrize("n", list(RESIDUAL_DIGESTS))
def test_seeded_stack_residual_digest(n):
    assert residual_digest(number_solves(n)) == RESIDUAL_DIGESTS[n][0]


@pytest.mark.parametrize("n", list(RESIDUAL_DIGESTS))
def test_seeded_array_stack_residual_digest(n):
    assert residual_digest(array_solves(n)) == RESIDUAL_DIGESTS[n][1]


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
