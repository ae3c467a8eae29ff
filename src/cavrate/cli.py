"""Configuration-driven frequency sweeps with CSV/JSON output.

A sweep walks a frequency grid (in units of the medium resonance omega0),
evaluates the full set of normalized rates at each point and emits one row
per frequency.  Identical configuration gives byte-identical files under
one numpy SIMD level only: the X86_V2 baseline moves last bits that AVX2
and AVX-512 agree on.  Built-in presets reproduce the standard parameter
sets (absorbing sphere of background constant 5, radius 2 c/omega0, in
air), differing in the local-field cavity radius.  A sweep whose grid
leaves the small-cavity range warns once, naming the largest k0*r_c, the
x_c of its rate reports.

Exit codes: 0 success, 1 configuration or output error (an invalid value,
NaN and infinity among them, which leaves an --out file uncreated; an
output file that cannot be written, or a reader that closes the pipe; an
--out in a missing directory, or naming one, ends the run before the
sweep), 2 verification failure (including a check that fails
numerically), 3 numeric failure of the sweep (an --out file is then left
as it was).
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import errno
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import verify as verify_mod
from ._elementwise import positive, require
from .dielectric import LorentzMedium, eval_lorentz
from .errors import ConfigError, DomainError, QuadratureFailure
from .rates import _warn_outside_range, rate_report

COLUMNS = (
    "omega", "eps_re", "eps_im", "eta", "kappa",
    "gamma0_hat", "gamma0_loc_hat", "gamma_sc_hat", "delta_sc_hat",
    "gamma_sc_loc_hat", "gamma_hat", "gamma_loc_hat", "naive_loc_hat",
    "w_ext_hat", "w_ext_loc_hat", "onsager_factor", "lorentz_factor",
)

# fraction = 0.16 puts k0*R_c at 1 (at the transition wavelength)
_FRACTION_LIMIT = 0.16


@dataclass(frozen=True)
class SweepConfig:
    """Complete description of one sweep; building one never warns.  Every
    value it holds, its medium's among them, is one finite number, and the
    medium's omega0, the unit of frequency, is 1."""

    medium: LorentzMedium = LorentzMedium(eps_b=5.0, omega0=1.0,
                                          Omega=0.5, gamma=0.1)
    eps_ext: complex = 1 + 0j
    sphere_radius: float = 2.0
    onsager_fraction: float = 0.1
    lambda_reference: str = "transition"
    rm_value: float | None = None  # r_m; None ties it to r_c
    omega_min: float = 0.2
    omega_max: float = 2.0
    omega_count: int = 601
    columns: tuple[str, ...] = COLUMNS

    def __post_init__(self):
        for name, value in vars(self).items():  # the medium checks its own
            if type(value) is np.ndarray:
                raise ConfigError(f"{name} must be one number, not an array")
            if isinstance(value, (int, float, complex)) \
                    and not cmath.isfinite(value):
                raise ConfigError(f"{name} = {value} must be finite")
        if self.medium.omega0 != 1:  # k0 = omega, lengths in c/omega0
            raise ConfigError(f"omega0 = {self.medium.omega0:g} must be 1: "
                              "frequencies are in units of omega0")
        if not isinstance(self.omega_count, (int, np.integer)) \
                or self.omega_count < 1:  # a fraction runs past omega_max
            raise ConfigError(
                f"omega_count = {self.omega_count} must be an integer >= 1")
        try:  # the lengths and frequencies take the rule of the rates
            for name in ("omega_min", "sphere_radius", "rm_value"):
                if getattr(self, name) is not None:
                    require(getattr(self, name), name + " = {:g} must be > 0")
            require(self.onsager_fraction, "onsager_fraction = {:g} must lie "
                    f"in (0, {_FRACTION_LIMIT:g})",
                    lambda x: positive(x) and x < _FRACTION_LIMIT)
            require(self.omega_max, "omega_max = {:g} must be real",
                    np.isrealobj)
            if self.omega_count > 1:
                require(self.omega_max - self.omega_min,
                        "omega_max must exceed omega_min")
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if self.lambda_reference not in ("transition", "resonance"):
            raise ConfigError(
                f"lambda_reference = {self.lambda_reference!r} must be "
                f"'transition' or 'resonance'")
        if complex(self.eps_ext).imag < 0:
            raise ConfigError(f"eps_ext = {self.eps_ext} is not passive")
        if self.eps_ext == 0:
            raise ConfigError(
                f"eps_ext = {self.eps_ext} has no square-root branch")
        unknown = [c for c in self.columns if c not in COLUMNS]
        if unknown or not self.columns:
            raise ConfigError(f"unknown output columns: {', '.join(unknown)}"
                              if unknown else "no output columns selected")

    def omega_grid(self) -> list[float]:
        """Strictly increasing grid; refinement to 2n-1 points keeps the
        original points bit-exact."""
        return self._omega_array().tolist()

    def _omega_array(self) -> np.ndarray:
        """The grid as a float64 array, the one run_sweep evaluates: each
        point takes the float operations of omega_min + (span * i) / m."""
        if self.omega_count == 1:
            return np.array([self.omega_min], float)
        span = self.omega_max - self.omega_min
        m = self.omega_count - 1
        return self.omega_min + (span * np.arange(self.omega_count)) / m

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
        return self.onsager_radius(omega) if self.rm_value is None \
            else self.rm_value


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
    array of frequencies; warns once if the largest k0*r_c of the call is
    outside the small-cavity range."""
    perm = eval_lorentz(config.medium, omega)
    k0 = omega  # lengths in c/omega0, frequencies in omega0
    report = rate_report(perm.eps, config.eps_ext, config.sphere_radius,
                         config.onsager_radius(omega),
                         config.rm_radius(omega), k0)
    _warn_outside_range(report.x_c, "rate_report")
    row = dict(vars(report), omega=omega, eps_re=perm.eps.real,
               eps_im=perm.eps.imag, eta=perm.eta, kappa=perm.kappa,
               gamma_hat=report.gamma_hat,
               naive_loc_hat=report.onsager_factor * report.gamma_hat)
    return {name: row[name] for name in COLUMNS}


@dataclass(frozen=True)
class Sweep:
    """The result of a sweep: one float64 array per name in COLUMNS, in
    increasing frequency order, kept as `columns` for the writers (lists of
    floats are accepted too, and write the same bytes).

    It also reads as a sequence of rows: `len`, integer and slice indexing
    and iteration give fresh {name: float} dicts in the columns' order, and
    a sweep equals a list of such dicts holding the same values.
    """

    columns: dict[str, np.ndarray | list[float]]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        return {name: float(values[index])
                for name, values in self.columns.items()}

    def __iter__(self):
        lists = (np.asarray(values, float).tolist()
                 for values in self.columns.values())
        return (dict(zip(self.columns, row)) for row in zip(*lists))

    def __eq__(self, other):
        if not isinstance(other, (list, Sweep)):
            return NotImplemented
        return list(self) == list(other)


def run_sweep(config: SweepConfig) -> Sweep:
    """Every column of COLUMNS over the grid, from one array pass of
    `sweep_row`; each column stays the float64 array it computes."""
    return Sweep(sweep_row(config, config._omega_array()))


def _text_blocks(rows: Sweep, config: SweepConfig, names=None):
    """The writers' text of the rows from the numpy kernel, a block
    (_gformat._BLOCK values, 481 rows of 17 columns) at a time: CSV lines,
    or with the columns' names the JSON list.  Each block is stacked from
    the columns' slices, at no more than a copy for float64 arrays; the
    whole table is never copied at once."""
    # imported here: only a write builds the kernel's tables
    from ._gformat import format_rows
    columns = [rows.columns[name] for name in config.columns]
    return format_rows(columns, names)


def write_csv(rows: Sweep, config: SweepConfig, stream) -> None:
    """Write the header and a line per row, each value as '%.17g' writes
    it: 17 significant digits, enough to round-trip."""
    stream.write(",".join(config.columns) + "\n")
    stream.writelines(_text_blocks(rows, config))


def write_json(rows: Sweep, config: SweepConfig, stream) -> None:
    """Write the bytes of json.dump(list(rows), indent=1) and a newline:
    each value as float.__repr__ writes it, NaN, Infinity and -Infinity
    as json does."""
    stream.writelines(_text_blocks(rows, config, tuple(config.columns)))


def _parse_columns(text: str):
    text = text.strip()
    if text.lower() == "all":
        return COLUMNS
    return tuple(c.strip() for c in text.split(",") if c.strip())


# section -> key -> converter; [medium] keys are LorentzMedium fields, the
# others SweepConfig fields
_CONFIG_SCHEMA = {
    "medium": {"eps_b": float, "Omega": float, "gamma": float},
    "geometry": {"eps_ext": complex, "sphere_radius": float,
                 "onsager_fraction": float, "lambda_reference": str.strip,
                 "rm_value": float},
    "sweep": {"omega_min": float, "omega_max": float, "omega_count": int},
    "output": {"columns": _parse_columns},
}


def load_config_file(path: str, base: SweepConfig | None = None) -> SweepConfig:
    """Read a key = value configuration file over an optional base config.

    Sections: [medium] (eps_b, Omega, gamma), [geometry] (eps_ext,
    sphere_radius, onsager_fraction, lambda_reference, rm_value),
    [sweep] (omega_min, omega_max, omega_count), [output] (columns).
    """
    if base is None:
        base = SweepConfig()
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: parser.items(name) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        lines = str(exc).splitlines()  # reported on one line
        raise ConfigError(" ".join(map(str.strip, lines))) from None
    updates = {}
    medium_updates = {}
    for section, items in sections.items():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        schema = _CONFIG_SCHEMA[section]
        # configparser lower-cases keys; map them back to field names
        names = {name.lower(): name for name in schema}
        target = medium_updates if section == "medium" else updates
        for key, raw in items:
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
    base = get_preset(args.preset) if args.preset else SweepConfig()
    if args.config:
        base = load_config_file(args.config, base)
    if getattr(args, "columns", None):
        return replace(base, columns=_parse_columns(args.columns))
    return base


def _check_out(out_path) -> None:
    """Raise the error that opening out_path for writing would raise when
    it names a directory or lies in a missing one, so that the sweep does
    not run for nothing; the file is neither created nor truncated."""
    folder = os.path.dirname(out_path) or os.curdir
    code = errno.EISDIR if os.path.isdir(out_path) else \
        None if os.path.isdir(folder) else errno.ENOENT
    if code:
        raise OSError(code, os.strerror(code), out_path)


def _emit(rows, config, out_path) -> None:
    if out_path is None:
        write_csv(rows, config, sys.stdout)
        return
    write = write_json if out_path.lower().endswith(".json") else write_csv
    with open(out_path, "w", encoding="ascii", newline="") as stream:
        write(rows, config, stream)


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
                         help="run the invariant battery too; its verdicts "
                              "follow the rows")
    p_sweep.set_defaults(seed=verify_mod.DEFAULT_SEED)  # the battery's

    p_verify = sub.add_parser("verify", help="run the invariant battery")
    p_verify.add_argument("--config", help="key = value configuration file")
    p_verify.add_argument("--preset", help="fig2, fig3 or fig4")
    p_verify.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED,
                          help="seed of the random-sample checks")

    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        sweep = args.command == "sweep"
        if sweep and args.out is not None:
            _check_out(args.out)
        # the battery runs before the sweep, so that its configuration error
        # leaves --out uncreated; its verdicts follow the rows
        report = verify_mod.run_battery(config, args.seed) \
            if not sweep or args.verify else None
        if sweep:
            _emit(run_sweep(config), config, args.out)
        if report is not None:
            print(*report.lines(), sep="\n")
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return 0 if report is None or report.all_passed else 2
    except (ConfigError, DomainError) as exc:
        # a DomainError here comes from a value of the configuration
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only the output touches files
        if isinstance(exc, BrokenPipeError):
            # the reader has gone; the flush at exit would raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
