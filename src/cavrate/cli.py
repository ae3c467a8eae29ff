"""Configuration-driven frequency sweeps with CSV/JSON output.

A sweep walks a frequency grid (in units of the medium resonance omega0),
evaluates the full set of normalized rates at each point and emits one row
per frequency.  Output is deterministic: identical configuration gives
byte-identical files.  Built-in presets reproduce the standard parameter
sets (absorbing sphere of background constant 5, radius 2 c/omega0, in
air), differing in the local-field cavity radius.

Exit codes: 0 success, 1 configuration error, 2 verification failure
(including a check that fails numerically), 3 numeric failure of the sweep.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import verify as verify_mod
from .dielectric import LorentzMedium, eval_lorentz
from .errors import (ConfigError, DomainError, ExpansionRangeWarning,
                     IllConditioned, QuadratureFailure, SingularDenominator)
from .rates import rate_report

COLUMNS = (
    "omega", "eps_re", "eps_im", "eta", "kappa",
    "gamma0_hat", "gamma0_loc_hat", "gamma_sc_hat", "delta_sc_hat",
    "gamma_sc_loc_hat", "gamma_hat", "gamma_loc_hat", "naive_loc_hat",
    "w_ext_hat", "w_ext_loc_hat", "onsager_factor", "lorentz_factor",
)

# fraction = 0.16 puts k0*R_c at 1; 0.048 at the expansion comfort limit 0.3
_FRACTION_LIMIT = 0.16
_FRACTION_WARN = 0.048


@dataclass(frozen=True)
class SweepConfig:
    """Complete description of one sweep."""

    medium: LorentzMedium = LorentzMedium(eps_b=5.0, omega0=1.0,
                                          Omega=0.5, gamma=0.1)
    eps_ext: complex = 1 + 0j
    sphere_radius: float = 2.0
    onsager_fraction: float = 0.1
    lambda_reference: str = "transition"
    rm_mode: str = "equal_to_rc"
    rm_value: float | None = None
    omega_min: float = 0.2
    omega_max: float = 2.0
    omega_count: int = 601
    columns: tuple[str, ...] = COLUMNS
    verify: bool = False

    def __post_init__(self):
        if self.omega_min <= 0:
            raise ConfigError(f"omega_min = {self.omega_min:g} must be > 0")
        if self.omega_count < 1:
            raise ConfigError(f"omega_count = {self.omega_count} must be >= 1")
        if self.omega_count > 1 and self.omega_max <= self.omega_min:
            raise ConfigError("omega_max must exceed omega_min")
        if self.sphere_radius <= 0:
            raise ConfigError(
                f"sphere_radius = {self.sphere_radius:g} must be > 0")
        if not 0 < self.onsager_fraction < _FRACTION_LIMIT:
            raise ConfigError(
                f"onsager_fraction = {self.onsager_fraction:g} must lie in "
                f"(0, {_FRACTION_LIMIT:g})")
        if self.onsager_fraction > _FRACTION_WARN:
            warnings.warn(
                f"onsager_fraction = {self.onsager_fraction:g} puts k0*R_c "
                f"above 0.3; small-cavity expansions lose accuracy",
                ExpansionRangeWarning, stacklevel=2)
        if self.lambda_reference not in ("transition", "resonance"):
            raise ConfigError(
                f"lambda_reference = {self.lambda_reference!r} must be "
                f"'transition' or 'resonance'")
        if self.rm_mode not in ("equal_to_rc", "explicit"):
            raise ConfigError(
                f"rm_mode = {self.rm_mode!r} must be 'equal_to_rc' or "
                f"'explicit'")
        if self.rm_mode == "explicit" and (self.rm_value is None
                                           or self.rm_value <= 0):
            raise ConfigError("rm_mode 'explicit' needs rm_value > 0")
        if complex(self.eps_ext).imag < 0:
            raise ConfigError(f"eps_ext = {self.eps_ext} is not passive")
        unknown = [c for c in self.columns if c not in COLUMNS]
        if unknown:
            raise ConfigError(f"unknown output columns: {', '.join(unknown)}")

    def omega_grid(self) -> list[float]:
        """Strictly increasing grid; refinement to 2n-1 points keeps the
        original points bit-exact."""
        if self.omega_count == 1:
            return [self.omega_min]
        span = self.omega_max - self.omega_min
        m = self.omega_count - 1
        return [self.omega_min + (span * i) / m
                for i in range(self.omega_count)]

    def onsager_radius(self, omega: float) -> float:
        """Cavity radius at this frequency, in units of c/omega0.

        The configured fraction multiplies the vacuum wavelength, by
        default at the current sweep frequency (so R_c tracks the
        transition), optionally at the fixed resonance frequency.
        """
        ref = omega if self.lambda_reference == "transition" \
            else self.medium.omega0
        return self.onsager_fraction * 2 * math.pi / ref

    def rm_radius(self, omega: float) -> float:
        if self.rm_mode == "equal_to_rc":
            return self.onsager_radius(omega)
        return self.rm_value


# standard parameter sets; the cavity radius is the only difference
_PRESET_KWARGS = {
    "fig2": {"onsager_fraction": 0.1},
    "fig3": {"onsager_fraction": 0.1},
    "fig4": {"onsager_fraction": 0.03},
}
PRESET_NAMES = tuple(sorted(_PRESET_KWARGS))


def get_preset(name: str) -> SweepConfig:
    try:
        kwargs = _PRESET_KWARGS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from "
            f"{', '.join(PRESET_NAMES)}") from None
    return SweepConfig(**kwargs)


def sweep_row(config: SweepConfig, omega):
    """All reportable quantities at one frequency, or as columns over an
    array of frequencies."""
    perm = eval_lorentz(config.medium, omega)
    k0 = omega  # lengths in c/omega0, frequencies in omega0
    report = rate_report(perm.eps, config.eps_ext, config.sphere_radius,
                         config.onsager_radius(omega),
                         config.rm_radius(omega), k0)
    return {
        "omega": omega,
        "eps_re": perm.eps.real,
        "eps_im": perm.eps.imag,
        "eta": perm.eta,
        "kappa": perm.kappa,
        "gamma0_hat": report.gamma0_hat,
        "gamma0_loc_hat": report.gamma0_loc_hat,
        "gamma_sc_hat": report.gamma_sc_hat,
        "delta_sc_hat": report.delta_sc_hat,
        "gamma_sc_loc_hat": report.gamma_sc_loc_hat,
        "gamma_hat": report.gamma_hat,
        "gamma_loc_hat": report.gamma_loc_hat,
        "naive_loc_hat": report.onsager_factor * report.gamma_hat,
        "w_ext_hat": report.w_ext_hat,
        "w_ext_loc_hat": report.w_ext_loc_hat,
        "onsager_factor": report.onsager_factor,
        "lorentz_factor": report.lorentz_factor,
    }


def run_sweep(config: SweepConfig) -> list[dict[str, float]]:
    """One row per grid frequency, in increasing frequency order."""
    with warnings.catch_warnings():
        # the config-level warning already covers the expansion range
        warnings.simplefilter("ignore", ExpansionRangeWarning)
        columns = sweep_row(config, np.array(config.omega_grid()))
    values = [column.tolist() for column in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


# every float is written with 17 significant digits, enough to round-trip
_NUMBER_FORMAT = "%.17g"


def format_value(value: float) -> str:
    return _NUMBER_FORMAT % value


def write_csv(rows, config: SweepConfig, stream) -> None:
    columns = config.columns
    stream.write(",".join(columns) + "\n")
    template = ",".join([_NUMBER_FORMAT] * len(columns)) + "\n"
    stream.writelines(template % tuple(map(row.__getitem__, columns))
                      for row in rows)


def write_json(rows, config: SweepConfig, stream) -> None:
    data = [{c: row[c] for c in config.columns} for row in rows]
    json.dump(data, stream, indent=1)
    stream.write("\n")


def _parse_columns(text: str):
    text = text.strip()
    if text.lower() == "all":
        return COLUMNS
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# section -> key -> converter; [medium] keys are LorentzMedium fields, the
# others SweepConfig fields
_CONFIG_SCHEMA = {
    "medium": {"eps_b": float, "Omega": float, "gamma": float},
    "geometry": {"eps_ext": complex, "sphere_radius": float,
                 "onsager_fraction": float, "lambda_reference": str.strip,
                 "rm_mode": str.strip, "rm_value": float},
    "sweep": {"omega_min": float, "omega_max": float, "omega_count": int},
    "output": {"columns": _parse_columns, "verify": _parse_bool},
}


def load_config_file(path: str, base: SweepConfig | None = None) -> SweepConfig:
    """Read a key = value configuration file over an optional base config.

    Sections: [medium] (eps_b, Omega, gamma), [geometry] (eps_ext,
    sphere_radius, onsager_fraction, lambda_reference, rm_mode, rm_value),
    [sweep] (omega_min, omega_max, omega_count), [output] (columns, verify).
    """
    if base is None:
        base = SweepConfig()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    updates = {}
    medium_updates = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _CONFIG_SCHEMA[section]
        # configparser lower-cases keys; map them back to field names
        names = {name.lower(): name for name in schema}
        target = medium_updates if section == "medium" else updates
        for key, raw in parser.items(section):
            if key not in names:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = names[key]
            try:
                target[name] = schema[name](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"[{section}] {name} = {raw!r}: {exc}") from None

    try:
        if medium_updates:
            updates["medium"] = replace(base.medium, **medium_updates)
        return replace(base, **updates)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def build_config(args) -> SweepConfig:
    base = None
    if args.preset:
        base = get_preset(args.preset)
    if args.config:
        base = load_config_file(args.config, base)
    if base is None:
        base = SweepConfig()
    overrides = {}
    if getattr(args, "columns", None):
        overrides["columns"] = _parse_columns(args.columns)
    if getattr(args, "verify", False):
        overrides["verify"] = True
    return replace(base, **overrides) if overrides else base


def _emit(rows, config, out_path) -> None:
    if out_path is None:
        write_csv(rows, config, sys.stdout)
        return
    is_json = out_path.lower().endswith(".json")
    with open(out_path, "w", encoding="ascii", newline="") as stream:
        if is_json:
            write_json(rows, config, stream)
        else:
            write_csv(rows, config, stream)


def _run_verify(config, seed) -> int:
    report = verify_mod.run_battery(config, seed=seed)
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavrate",
        description="Decay rates of a dipole centered in an absorbing "
                    "layered sphere, with real-cavity local-field "
                    "corrections.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a frequency sweep")
    p_sweep.add_argument("--config", help="key = value configuration file")
    p_sweep.add_argument("--preset", help="fig2, fig3 or fig4")
    p_sweep.add_argument("--out", help="output file (.csv or .json); "
                                       "default stdout CSV")
    p_sweep.add_argument("--columns", help="comma-separated columns or 'all'")
    p_sweep.add_argument("--verify", action="store_true",
                         help="run the invariant battery after the sweep")

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--config", help="key = value configuration file")
    p_verify.add_argument("--preset", help="fig2, fig3 or fig4")
    p_verify.add_argument("--seed", type=int, default=20260810,
                          help="seed of the random-sample checks")

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "verify":
            return _run_verify(config, args.seed)
        rows = run_sweep(config)
        _emit(rows, config, args.out)
        if config.verify:
            return _run_verify(config, seed=20260810)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureFailure, IllConditioned, SingularDenominator,
            ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
