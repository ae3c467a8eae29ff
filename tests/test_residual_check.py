"""The amplitude engine's residual check, decided from its defect bound.

At each interface the engine forms the two row defects of the continuity
equations A c = b; after the pass it tests B = max defect / max source
term.  The residual |A c - b| / (|A| |c| + |b|), the normwise backward
error of Rigal and Gaches (Higham, "Accuracy and Stability of Numerical
Algorithms", 2nd ed., section 7.1), divides the same defect by the same
source term plus |A| |c| >= 0, so in floating point it never exceeds B.
Only where B exceeds the limit or is NaN does the engine form the
residual, from the terms the pass kept, and decide on it.

The differential tests draw harsh passive stacks (|eps| from 1e-2 to 1e4,
radii from 1e-4 to 1e3, 2 to 40 layers; one in ten with an edge magnitude
of tests/test_contract.py, 1e-300 or 1e300, as k0 or as its innermost or
outermost radius), as numbers and as (F,) arrays, and solve each one twice:
as the engine runs, and with B read as NaN, so that the residual formed on
the same pass decides.  Both raise IllConditioned in the same stacks,
exactly where the residual exceeds the limit or is NaN, and otherwise end
alike, in the same amplitudes bit for bit or the same later error.

The forced-fallback tests set the limit between the residual and B of a
fixed stack: the solve passes and stores the residual that the engine
stored before B decided, pinned as float.hex; below both, it raises.
Where the residual decides, the seeded stacks of tests/test_scalar_bits.py
keep the residual digests they had before B decided.  The number pins
hold at every SIMD level; the array pins assume numpy's AVX2 dispatch or
above, as the array digests of tests/test_scalar_bits.py do.
"""

import math
from collections import Counter

import numpy as np
import pytest

from cavrate import multilayer as ml
from cavrate.errors import IllConditioned
from test_multilayer import graded_stack
from test_scalar_bits import array_solves, number_solves, residual_digest

LIMIT = ml._RESIDUAL_LIMIT
DRAWN = 3000  # stacks per route
BLOCK = {"numbers": 1, "arrays": 8}  # samples per solve
# where the edge magnitude of one draw in ten goes, in turn
EDGES = (("k0", 1e-300), ("k0", 1e300), ("inner", 1e-300),
         ("outer", 1e300))


def harsh_stacks(route):
    """DRAWN seeded passive stacks as (radii, eps, k0): numbers, or arrays
    of BLOCK samples, whose first sample takes the edge magnitudes."""
    rng, block = np.random.default_rng(1), BLOCK[route]
    for draw in range(DRAWN // block):
        n = int(rng.integers(2, 41))
        radii = np.sort(10.0 ** rng.uniform(-4, 3, (block, n - 1)), axis=1)
        lossy = rng.random((block, n)) < 0.8
        eps = 10.0 ** rng.uniform(-2, 4, (block, n)) * np.exp(
            1j * rng.uniform(0, math.pi, (block, n)) * lossy)
        k0 = 10.0 ** rng.uniform(-3, 0, block)
        if draw % 10 == 0:
            where, value = EDGES[draw // 10 % len(EDGES)]
            if where == "k0":
                k0[0] = value
            else:
                radii[0, 0 if where == "inner" else -1] = value
        if route == "numbers":
            yield tuple(radii[0].tolist()), tuple(eps[0].tolist()), \
                float(k0[0])
        else:
            yield tuple(radii.T), tuple(eps.T), k0


peak_ratio = ml.peak_ratio  # the engine's own, which the spy wraps


class Decisions:
    """peak_ratio as the engine calls it, each value recorded: B from two
    groups, the residual from four.  With residual_decides, B reads as
    NaN, so that the residual formed on the same pass decides."""

    def __init__(self):
        self.values, self.residual_decides = [], False

    def __call__(self, defects, sources, *scale):
        value = peak_ratio(defects, sources, *scale)
        self.values.append(value)
        return math.nan if self.residual_decides and not scale else value


def solve(spy, radii, eps, k0, residual_decides=False):
    """The solve's amplitudes or error, and peak_ratio's values in it."""
    spy.values, spy.residual_decides = [], residual_decides
    try:
        with np.errstate(all="ignore"):  # edge magnitudes overflow
            result = ml.coeffs_general_n(ml.LayerStack(radii, eps), k0)
    except Exception as exc:  # each error is compared with the other run's
        result = exc
    return result, spy.values


def outcome(result):
    """Amplitude bits, or error type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return tuple(np.asarray(z).tobytes() for z in (
        result.c1, *result.c_plus, *result.c_minus))


def check_raised(result) -> bool:
    return isinstance(result, IllConditioned) \
        and str(result).startswith("recursion residual")


@pytest.mark.parametrize("route", ["numbers", "arrays"])
def test_bound_decides_as_the_residual(monkeypatch, route):
    spy = Decisions()
    monkeypatch.setattr(ml, "peak_ratio", spy)
    tally = Counter()
    for radii, eps, k0 in harsh_stacks(route):
        got, bound = solve(spy, radii, eps, k0)
        ref, values = solve(spy, radii, eps, k0, residual_decides=True)
        if not values:  # an error before the check, the same in both
            assert not bound and outcome(got) == outcome(ref)
            tally["before the check"] += 1
            continue
        (b, residual), fails = values, not values[1] <= LIMIT
        assert repr(bound[0]) == repr(b)  # the same pass
        if not b <= LIMIT:  # the engine formed the residual too
            assert repr(bound) == repr(values)
        assert check_raised(got) == check_raised(ref) == fails
        if fails:
            tally["residual failed"] += 1
            continue
        assert residual <= b
        assert outcome(got) == outcome(ref)
        if not isinstance(got, Exception):
            assert got.residual == (b if b <= LIMIT else residual)
            assert residual <= got.residual <= LIMIT
        tally["residual passed"] += 1
    # most solves reach the check, and edge magnitudes fail some
    assert tally["residual passed"] >= 0.6 * (DRAWN // BLOCK[route]), tally
    assert tally["residual failed"] >= 10, tally


# name -> (radii, eps, k0) and the residual the engine stored before B
# decided, float.hex of a number or of an array's largest element
FIXED = {
    "numbers_cavity_n3": (((0.2, 2.0), (1.0, 5 + 2.5j, 1.5 + 0j), 1.0),
                  "0x1.6f4bf75987c0bp-58"),
    "numbers_graded_n8": ((graded_stack(8).radii, graded_stack(8).eps, 1.1),
                  "0x1.9783cebdca9ecp-62"),
    "arrays_cavity_n3": (((0.2, 2.0), (1.0, np.array([5 + 2.5j, 4 + 0.5j]),
                                       1.5 + 0j), np.array([1.0, 1.3])),
                         "0x1.ade3690bdc46fp-59"),
}


@pytest.mark.parametrize("name", list(FIXED))
def test_forced_fallback_stores_the_residual(monkeypatch, name):
    (radii, eps, k0), pinned = FIXED[name]
    bound = ml.coeffs_general_n(ml.LayerStack(radii, eps), k0).residual
    residual = float.fromhex(pinned)
    assert residual < bound
    for limit in (math.sqrt(residual * bound), residual):
        monkeypatch.setattr(ml, "_RESIDUAL_LIMIT", limit)
        coeffs = ml.coeffs_general_n(ml.LayerStack(radii, eps), k0)
        assert coeffs.residual.hex() == pinned
    monkeypatch.setattr(ml, "_RESIDUAL_LIMIT", math.nextafter(residual, 0))
    with pytest.raises(IllConditioned, match="recursion residual"):
        ml.coeffs_general_n(ml.LayerStack(radii, eps), k0)


# N -> the residual digests of tests/test_scalar_bits.py's seeded stacks
# (numbers, arrays) as the engine stored them before B decided
RESIDUALS_BEFORE_B = {
    2: ("34608277ef9d7bd106e76962b33870beafe3bfc6b6d71742e21e3cf32db2476b",
        "e1c47262be5c3ecd6820f12814bb1cdb7985208861a34b20e8020daf6574468f"),
    3: ("a2378dea7bb67b16c44f6242007de500b9c4c44647bcf805b71562963c70b3ca",
        "de01822ee97370ac76a46617645e8a44dc6b591c3397f3c01f0c66a98b1056b4"),
    4: ("0e9b35e038f7740912ee85ae06d1ab9625b343253b5dc54dc5dfc1ffe1461442",
        "6c63c5daf7c9812d4ed6e97c7e0c9c25d09dbd172231a6c3d4024ab0ffebccfb"),
    8: ("fa7ebe158dd58c7ae5f9c59af4e76f4ce5ca1ae20280178389556536a54689de",
        "ccecc8e28917829cf6e26ba62861ed13dd6f33d3a60d72d53dc240ef09f476f6"),
    16: ("8bcf908c8beb2089c4e33a0bcde44e56dad7937c479724989f063116d93528ce",
         "de2d26baf0b9c9d0c6ba249d0113b89d9755dec067ef50a7d11a073f3b1a1908"),
    32: ("bdc8b455b45e4cef3d68f806eb8646300a01af5c3a01a34bc691a01dbe23e037",
         "a06b0452495e50a7b5b8e7fe73ded77726c215d119fd63329c2b260095f4458d"),
}


@pytest.mark.parametrize("n", list(RESIDUALS_BEFORE_B))
@pytest.mark.parametrize("route", ["numbers", "arrays"])
def test_residual_keeps_its_bits(monkeypatch, route, n):
    """Where the residual decides, it has the bits it had before B did."""
    spy = Decisions()
    spy.residual_decides = True
    monkeypatch.setattr(ml, "peak_ratio", spy)
    solves = number_solves if route == "numbers" else array_solves
    assert residual_digest(solves(n)) == \
        RESIDUALS_BEFORE_B[n][route == "arrays"]
