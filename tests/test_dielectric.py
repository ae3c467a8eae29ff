import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cavrate import dielectric as dl
from cavrate.errors import DomainError

passive_eps = st.builds(
    complex,
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
).filter(lambda e: abs(e) > 1e-3)


def test_sqrt_examples():
    assert dl.sqrt_eps(1) == 1
    root = dl.sqrt_eps(5)
    assert root.imag == 0
    assert root.real == pytest.approx(math.sqrt(5), rel=1e-15)
    eta, kappa = dl.eta_kappa(5 + 2.5j)
    assert complex(eta, kappa) ** 2 == pytest.approx(5 + 2.5j, rel=1e-14)


def test_sqrt_zero_rejected():
    with pytest.raises(DomainError):
        dl.sqrt_eps(0)


def test_sqrt_negative_real_axis_stays_passive():
    root = dl.sqrt_eps(-4 + 0j)
    assert root == pytest.approx(2j, rel=1e-15)


@given(passive_eps)
def test_sqrt_reconstruction_and_branch(eps):
    root = dl.sqrt_eps(eps)
    assert root.imag >= 0
    assert root.real >= 0
    assert abs(root * root - eps) <= 1e-14 * abs(eps)


@given(passive_eps)
def test_fractional_powers_share_the_branch(eps):
    root = dl.sqrt_eps(eps)
    p32 = eps * root
    p52 = eps * eps * root
    assert abs(p32 * p32 - eps ** 3) <= 1e-12 * abs(eps) ** 3
    assert abs(p52 - eps * p32) <= 1e-13 * abs(p52)


def test_lorentz_oscillator_off():
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.0, gamma=0.1)
    perm = dl.eval_lorentz(medium, 0.7)
    assert perm.eps == 5.0
    assert perm.eta == pytest.approx(math.sqrt(5), rel=1e-15)
    assert perm.kappa == 0.0


def test_lorentz_at_resonance_by_hand():
    # eps_b + Omega^2/(-i omega0 gamma) = 5 + 0.25/(0.1) i = 5 + 2.5i
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
    perm = dl.eval_lorentz(medium, 1.0)
    assert perm.eps == pytest.approx(5 + 2.5j, rel=1e-15)


def test_lorentz_high_frequency_limit():
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
    d100 = abs(dl.eval_lorentz(medium, 100.0).eps - 5.0)
    d200 = abs(dl.eval_lorentz(medium, 200.0).eps - 5.0)
    assert d100 < 3e-5
    assert d200 == pytest.approx(d100 / 4, rel=0.02)


def test_lorentz_passivity():
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
    for omega in [10 ** e for e in (-2, -1, 0, 0.3, 1, 2)]:
        assert dl.eval_lorentz(medium, omega).eps.imag > 0


def test_lorentz_rejects_nonpositive_frequency():
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
    with pytest.raises(DomainError):
        dl.eval_lorentz(medium, 0.0)


@pytest.mark.parametrize("kwargs", [
    {"eps_b": 0.5}, {"gamma": 0.0}, {"gamma": -0.1}, {"Omega": -1.0},
    {"omega0": 0.0},
])
def test_lorentz_medium_validation(kwargs):
    base = {"eps_b": 5.0, "omega0": 1.0, "Omega": 0.5, "gamma": 0.1}
    base.update(kwargs)
    with pytest.raises(DomainError):
        dl.LorentzMedium(**base)


def test_arrays_follow_the_scalar_route():
    medium = dl.LorentzMedium(eps_b=5.0, omega0=1.0, Omega=0.5, gamma=0.1)
    omegas = np.array([0.2, 0.99, 1.0, 3.7])
    perm = dl.eval_lorentz(medium, omegas)
    for i, omega in enumerate(omegas.tolist()):
        ref = dl.eval_lorentz(medium, omega)
        assert abs(perm.eps[i] - ref.eps) <= 1e-15 * abs(ref.eps)
        assert abs(perm.eta[i] - ref.eta) <= 1e-15 * ref.eta
        assert abs(perm.kappa[i] - ref.kappa) <= 1e-15 * ref.eta
    with pytest.raises(DomainError):
        dl.eval_lorentz(medium, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        dl.sqrt_eps(np.array([1.0, 0.0]))
