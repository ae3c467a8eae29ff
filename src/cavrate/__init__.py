"""Decay rate of a dipole centered in an absorbing layered sphere.

Normalized decay rates, level shifts and power losses of a point dipole at
the center of a multilayer dielectric sphere, with real-cavity local-field
corrections, verified against direct Poynting-theorem integration.
"""

from .dielectric import (ComplexPermittivity, LorentzMedium, eta_kappa,
                         eval_lorentz, sqrt_eps)
from .errors import (ConfigError, DomainError, ExpansionRangeWarning,
                     IllConditioned, QuadratureFailure, SingularDenominator)
from .multilayer import (LayerStack, WaveCoefficients, coefficients,
                         coeffs_general_n, field_center_limit, field_in_layer,
                         homogeneous_field, stack_field_evaluator)
from .oracle import absorbed_power, energy_balance, flux_through_sphere
from .rates import (RateReport, angular_radiation, external_power,
                    gamma0_loc, gamma0_macroscopic, gamma_hat_total,
                    gamma_sc, gamma_sc_loc, identity_rep_decomposition,
                    lorentz_factor, onsager_factor, p_eff_expansion,
                    rate_report, w0_cutoff, w0_expanded)
from .verify import run_battery

__version__ = "0.1.0"

__all__ = [
    "ComplexPermittivity", "LorentzMedium", "eta_kappa", "eval_lorentz",
    "sqrt_eps",
    "ConfigError", "DomainError", "ExpansionRangeWarning", "IllConditioned",
    "QuadratureFailure", "SingularDenominator",
    "LayerStack", "WaveCoefficients", "coefficients", "coeffs_general_n",
    "field_center_limit", "field_in_layer", "homogeneous_field",
    "stack_field_evaluator",
    "absorbed_power", "energy_balance", "flux_through_sphere",
    "RateReport", "angular_radiation", "external_power", "gamma0_loc",
    "gamma0_macroscopic", "gamma_hat_total", "gamma_sc", "gamma_sc_loc",
    "identity_rep_decomposition", "lorentz_factor", "onsager_factor",
    "p_eff_expansion", "rate_report", "w0_cutoff", "w0_expanded",
    "run_battery",
    "__version__",
]
