"""Exact bits of the scalar stack evaluations.

Each value is pinned as float.hex, so any change to the order or the form
of a scalar computation shows here, whatever its size.  The bare spheres
span a small sphere in vacuum and in an absorbing host, a large one whose
outputs are around 1e-35, and R = 1400, where the cavity terms underflow
to exact zeros; the stacks are a three-layer cavity and a graded N = 8
stack.
"""

import math

import pytest

from cavrate import multilayer as ml
from cavrate import rates
from test_multilayer import graded_stack

EPS_RES = 5 + 2.5j
R_C = 0.2 * math.pi  # fig3's cavity radius at the resonance frequency

# (eps, eps_ext, radius, r_c, r_m, k0) -> RateReport fields in order
REPORTS = {
    (EPS_RES, 1 + 0j, 2.0, R_C, R_C, 1.0): (
        "0x1.6476e36077366p+1", "0x1.524934605be4bp+2",
        "0x1.2bcb6697f91e2p-3", "0x1.608c2cd7482a2p-4",
        "0x1.06d90296714d6p-2", "0x1.62b6c489c2f98p+2",
        "0x1.29d246e0d56a1p-2", "0x1.1edb698775e2fp-1",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2"),
    (EPS_RES, 1.5 + 0.1j, 2.0, 0.2, 0.3, 1.1): (
        "0x1.68fa6196bba5bp+2", "0x1.3bbd35d66b042p+4",
        "-0x1.443a04bb56256p-6", "0x1.1f8a14356059fp-4",
        "-0x1.db5497d89d59bp-5", "0x1.3acf8b8a7eb57p+4",
        "0x1.c8def5210c27ap-3", "0x1.b80d1b023de65p-2",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2"),
    (4.07 + 0.49j, 1 + 0j, 300.0, 0.15, 0.15, 1.1): (
        "0x1.783ce016ccb97p+3", "0x1.f42ba11d985dcp+3",
        "0x1.bb9cd4cbad789p-117", "-0x1.db9e2a2208ed0p-117",
        "0x1.a30293fb89dc4p-116", "0x1.f42ba11d985dcp+3",
        "0x1.55c91e8dff612p-115", "0x1.31e0be9616d17p-114",
        "0x1.ca35af2bafc6ep+0", "0x1.07b72ea61d951p+2"),
    (EPS_RES, 1 + 0j, 1400.0, R_C, R_C, 1.0): (
        "0x1.6476e36077366p+1", "0x1.524934605be4bp+2",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.524934605be4bp+2",
        "0x0.0p+0", "0x0.0p+0",
        "0x1.ed269349a4d29p+0", "0x1.88e38e38e38e4p+2"),
}

# ((re c1, im c1), (re c_outer, im c_outer)), residual
STACKS = {
    "cavity_n3": (
        (ml.LayerStack((0.2, 2.0), (1.0, EPS_RES, 1.5 + 0j)), 1.0),
        (("0x1.68c4cf3e8d692p+4", "-0x1.2ace5a647593fp+7"),
         ("-0x1.ad7f7199e6067p-2", "0x1.c392b3b7803f4p-1")),
        "0x1.6f4bf75987c0bp-58"),
    "graded_n8": (
        (graded_stack(8), 1.1),
        (("0x1.3881bf90e9ebcp+7", "-0x1.afb4e38d66510p+8"),
         ("-0x1.96936057bbc8ep-2", "0x1.b8c535c1468d6p-1")),
        "0x1.9783cebdca9ecp-62"),
}


@pytest.mark.parametrize("args", list(REPORTS), ids=["R2", "R2_host", "R300",
                                                     "R1400"])
def test_rate_report_bits(args):
    report = rates.rate_report(*args)
    assert tuple(v.hex() for v in vars(report).values()) == REPORTS[args]


@pytest.mark.parametrize("name", list(STACKS))
def test_stack_amplitude_bits(name):
    (stack, k0), amplitudes, residual = STACKS[name]
    coeffs = ml.coefficients(stack, k0)
    got = tuple((z.real.hex(), z.imag.hex())
                for z in (coeffs.c1, coeffs.c_outer))
    assert got == amplitudes
    assert coeffs.residual.hex() == residual
