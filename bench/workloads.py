"""The benchmark's three workloads, their seeded inputs and output checks.

Each workload is a closed loop with one caller: `op(spec)` runs one
operation through cavrate's public functions and `check(spec, output)`
compares its output with references outside the timed region.

* dense_sweep: `cli.run_sweep` over the fig3 physics on a grid refined to
  600 * 2**refine + 1 = 2401 frequencies, then `cli.write_csv` to a file;
  small enough to time some 100 operations per run.  It is the user's main
  path through dielectric, specfun, the two-layer closed form, rates and
  the CSV writer, and never calls the oracle.
* preset_verify: the `cavrate sweep --preset P --verify` flow in-process:
  `run_sweep` (601 rows), `write_json`, `verify.run_battery(config, seed)`
  for P alternating between fig3 and fig4.  Dominated by oracle and verify.
* layered_scan: stacks the sweeps never build, over frequency grids:
  cavity + sphere + host through `rates.gamma_hat_total` (three-layer
  closed form), graded shells with N in {4, 8, 16, 32} through
  `multilayer.coefficients` (dense general-N solve), and a bare sphere of
  log-spaced radii from 2 to 1400 c/omega0 through `rates.rate_report`.
  It holds the inputs that overflow or underflow in double precision: an
  OverflowError where |Im k R| exceeds DOUBLE_EXPONENT_LIMIT is "declined"
  (counted under failures.overflow and failed_ratio, not as a failed
  operation); any other exception or wrong value is a failure.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from cavrate import cli, oracle, rates, verify
from cavrate import multilayer as ml
from cavrate.dielectric import eval_lorentz
from cavrate.errors import (ExpansionRangeWarning, IllConditioned,
                            SingularDenominator)

import golden

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"

FAILURE_KINDS = ("overflow", "underflow_zero", "singular", "ill_conditioned",
                 "tolerance_miss", "error")

# Stated tolerances.  Golden rows: relative, with a floor of 1e-6 of the
# column's largest magnitude for columns that cross zero.  Row identities:
# relative to the largest term or 1.  mpmath twin: relative, plus an
# absolute floor far below any reported rate (rates are O(1) in W_free).
GOLDEN_RTOL = 1e-10
GOLDEN_FLOOR = 1e-6
IDENTITY_TOL = 1e-12
MP_RTOL = 1e-10
MP_ATOL = 1e-11
ORACLE_TOL = 1e-7

# e^{|Im z|} of the unscaled order-1 waves leaves double range near 709;
# inputs beyond this exponent are not expected to succeed today
DOUBLE_EXPONENT_LIMIT = 700.0


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    attempted: int = 0
    failed: int = 0            # failures where the library should work
    declined: int = 0          # failures beyond the double exponent range
    correct_rows: int = 0
    failures: Counter = field(default_factory=Counter)
    csv_bytes: int = 0
    json_bytes: int = 0

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.declined += other.declined
        self.correct_rows += other.correct_rows
        self.failures.update(other.failures)
        self.csv_bytes += other.csv_bytes
        self.json_bytes += other.json_bytes


def failure_kind(exc: BaseException) -> str:
    if isinstance(exc, OverflowError):
        return "overflow"
    if isinstance(exc, SingularDenominator):
        return "singular"
    if isinstance(exc, IllConditioned):
        return "ill_conditioned"
    return "error"


@contextlib.contextmanager
def quiet():
    """The filter run_sweep applies, so warning formatting is not timed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExpansionRangeWarning)
        yield


def close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


def lorentz_eps(medium, omega: float) -> complex:
    return medium.eps_b + medium.Omega ** 2 / (
        medium.omega0 ** 2 - omega ** 2 - 1j * omega * medium.gamma)


def report_defect(values, eps: complex) -> float:
    """Largest violation of the identities tying the rate outputs together."""
    factor = abs(3 * eps / (2 * eps + 1)) ** 2
    g_sc, d_sc = values["gamma_sc_hat"], values["delta_sc_hat"]
    abs2 = abs(eps) ** 2
    correction = 2 * eps.imag / abs2 * (
        2 * (2 * abs2 + eps.real) * d_sc + eps.imag * g_sc) \
        / abs(2 * eps + 1) ** 2
    pairs = (
        (values["onsager_factor"], factor),
        (values["lorentz_factor"], abs((eps + 2) / 3) ** 2),
        (values["gamma_loc_hat"],
         values["gamma0_loc_hat"] + values["gamma_sc_loc_hat"]),
        (values["w_ext_loc_hat"], factor * values["w_ext_hat"]),
        (values["gamma_sc_loc_hat"], factor * (g_sc - correction)),
    )
    return max(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in pairs)


def row_defect(row, eps: complex) -> float:
    """report_defect plus the columns a sweep row adds."""
    root = complex(row["eta"], row["kappa"])
    pairs = (
        (complex(row["eps_re"], row["eps_im"]), eps),
        (root * root, eps),
        (row["gamma_hat"], row["gamma0_hat"] + row["gamma_sc_hat"]),
        (row["naive_loc_hat"], row["onsager_factor"] * row["gamma_hat"]),
    )
    return max(report_defect(row, eps),
               *(abs(a - b) / max(abs(a), abs(b), 1.0) for a, b in pairs))


def mp_bare_sphere(eps, eps_ext, radius, k0):
    """(gamma_sc, delta_sc, gamma_sc_loc) of the bare sphere from mpref."""
    import mpref
    c1, _ = mpref.two_layer(eps, eps_ext, radius, k0)
    rc1 = mpref.sqrt_eps(eps) * c1
    return (float(rc1.real), float(rc1.imag) / 2,
            float(mpref.gamma_sc_loc(eps, eps_ext, radius, k0)))


def mp_close(value, reference) -> bool:
    return abs(value - reference) <= MP_RTOL * abs(reference) + MP_ATOL


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class GoldenRows:
    """The stored golden CSV of a preset, compared within GOLDEN_RTOL."""

    def __init__(self, preset: str):
        self.header, self.rows = golden.load(preset)
        self.floor = [max(abs(r[j]) for r in self.rows) * GOLDEN_FLOOR
                      for j in range(len(self.header))]

    def bad_rows(self, rows, stride: int = 1) -> set[int]:
        """Indices among every stride-th row that miss the golden."""
        if len(rows) != (len(self.rows) - 1) * stride + 1:
            return set(range(len(rows)))
        bad = set()
        for i, ref_row in enumerate(self.rows):
            row = rows[i * stride]
            if not all(close(row[c], v, GOLDEN_RTOL, f) for c, v, f
                       in zip(self.header, ref_row, self.floor)):
                bad.add(i * stride)
        return bad


def _new_path(stem: str, suffix: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / f"{stem}-{os.getpid()}{suffix}"


class DenseSweep:
    """fig3 physics on a refined grid, written as CSV."""

    name = "dense_sweep"
    group = 1
    spot_rows = 12     # rows checked against mpref per fully checked op

    def __init__(self, seed: int, refine: int = 2):
        with quiet():
            base = cli.get_preset("fig3")
            self.config = replace(base, omega_count=600 * 2 ** refine + 1)
        self.stride = 2 ** refine
        self.golden = GoldenRows("fig3")
        self.omegas = self.config.omega_grid()
        rng = np.random.default_rng(seed)
        self.spot = sorted(int(i) for i in rng.choice(
            len(self.omegas), size=self.spot_rows, replace=False))
        self.path = _new_path(self.name, ".csv")
        self.reference = None       # CSV digest of a checked op

    def next_op(self):
        return None

    def trace_pass(self):
        return [None]

    def op(self, spec):
        rows = cli.run_sweep(self.config)
        with open(self.path, "w", encoding="ascii", newline="") as stream:
            cli.write_csv(rows, self.config, stream)
        return {"rows": rows, "csv_bytes": self.path.stat().st_size}

    def _bad_rows(self, rows) -> set[int]:
        n = len(self.omegas)
        if len(rows) != n:
            return set(range(n))
        bad = self.golden.bad_rows(rows, self.stride)
        medium = self.config.medium
        for i, (row, omega) in enumerate(zip(rows, self.omegas)):
            if row["omega"] != omega or \
                    row_defect(row, lorentz_eps(medium, omega)) > IDENTITY_TOL:
                bad.add(i)
        for i in self.spot:
            row, omega = rows[i], self.omegas[i]
            refs = mp_bare_sphere(lorentz_eps(medium, omega),
                                  self.config.eps_ext,
                                  self.config.sphere_radius, omega)
            got = (row["gamma_sc_hat"], row["delta_sc_hat"],
                   row["gamma_sc_loc_hat"])
            if not all(map(mp_close, got, refs)):
                bad.add(i)
        header, parsed = golden.parse_csv(self.path.read_bytes())
        if header != list(self.config.columns) or len(parsed) != n:
            return set(range(n))
        bad.update(i for i, (values, row) in enumerate(zip(parsed, rows))
                   if values != [row[c] for c in header])
        return bad

    def check(self, spec, output) -> Verdict:
        n = len(self.omegas)
        if isinstance(output, BaseException):
            return Verdict(attempted=1, failed=1,
                           failures=Counter({failure_kind(output): 1}))
        # the CSV holds every value with 17 significant digits, so equal
        # bytes mean rows equal to those of the fully checked operation
        digest = file_digest(self.path)
        if digest == self.reference:
            return Verdict(attempted=1, correct_rows=n)
        bad = self._bad_rows(output["rows"])
        if not bad and self.reference is None:
            self.reference = digest
        failed = bool(bad)
        return Verdict(attempted=1, failed=int(failed),
                       correct_rows=n - len(bad),
                       failures=Counter({"tolerance_miss": len(bad)}
                                        if failed else {}))


class PresetVerify:
    """`cavrate sweep --preset P --verify` in-process, P in fig3/fig4."""

    name = "preset_verify"
    group = 2
    presets = ("fig3", "fig4")

    def __init__(self, seed: int):
        with quiet():
            self.configs = {p: cli.get_preset(p) for p in self.presets}
        self.goldens = {p: GoldenRows(p) for p in self.presets}
        self.rng = np.random.default_rng(seed)
        self.count = 0
        self.fixed = [(p, self._battery_seed()) for p in self.presets]
        self.path = _new_path(self.name, ".json")
        self.json_digest = {}

    def _battery_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31))

    def next_op(self):
        preset = self.presets[self.count % len(self.presets)]
        self.count += 1
        return preset, self._battery_seed()

    def trace_pass(self):
        return list(self.fixed)

    def op(self, spec):
        preset, seed = spec
        config = self.configs[preset]
        rows = cli.run_sweep(config)
        with open(self.path, "w", encoding="ascii", newline="") as stream:
            cli.write_json(rows, config, stream)
        report = verify.run_battery(config, seed)
        return {"rows": rows, "report": report,
                "json_bytes": self.path.stat().st_size}

    def check(self, spec, output) -> Verdict:
        preset, _ = spec
        n = self.configs[preset].omega_count
        if isinstance(output, BaseException):
            return Verdict(attempted=1, failed=1,
                           failures=Counter({failure_kind(output): 1}))
        rows, report = output["rows"], output["report"]
        misses = len(self.goldens[preset].bad_rows(rows))
        digest = file_digest(self.path)
        if self.json_digest.get(preset) != digest:
            if json.loads(self.path.read_text()) != rows:
                misses += 1
            elif not misses:
                self.json_digest[preset] = digest
        misses += sum(not c.passed for c in report.checks)
        if misses:
            return Verdict(attempted=1, failed=1,
                           failures=Counter({"tolerance_miss": misses}))
        return Verdict(attempted=1, correct_rows=n)


@dataclass(frozen=True)
class Evaluation:
    kind: str           # "cavity", "graded", "uniform" or "bare"
    omega: float
    eps: complex        # sphere permittivity at omega
    eps_ext: complex
    radii: tuple        # interface radii, innermost first
    shells: tuple = ()  # grading factors of the shells (graded, uniform)


class LayeredScan:
    """Three-layer, graded N-layer and bare-sphere stacks over frequency."""

    name = "layered_scan"
    group = 1
    graded_layers = (4, 8, 16, 32)
    bare_radii = 4
    mp_samples = 200        # bare-sphere evaluations checked against mpref
    oracle_samples = 4      # graded stacks checked by the Poynting oracle

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        with quiet():
            config = cli.get_preset("fig3")
        self.config = config
        grid = config.omega_grid()
        coarse = grid[::10]
        medium = config.medium
        eps = {w: eval_lorentz(medium, w).eps for w in grid}
        evals = []
        for _ in range(3):
            r_c = float(rng.uniform(0.05, 0.3))
            radius = float(rng.uniform(1.5, 3.0))
            eps_ext = complex(rng.uniform(1.0, 2.5))
            evals += [Evaluation("cavity", w, eps[w], eps_ext, (r_c, radius))
                      for w in coarse]
        for n in self.graded_layers:
            r_c = float(rng.uniform(0.05, 0.3))
            radius = float(rng.uniform(1.5, 3.0))
            radii = tuple(float(r) for r in np.linspace(r_c, radius, n - 1))
            grading = tuple(float(g) for g in
                            np.sort(rng.uniform(0.2, 1.0, n - 2)))
            for kind, shells in (("graded", grading),
                                 ("uniform", (1.0,) * (n - 2))):
                evals += [Evaluation(kind, w, eps[w], 1 + 0j, radii, shells)
                          for w in coarse]
        inner = np.exp(np.sort(rng.uniform(math.log(2.0), math.log(1400.0),
                                           self.bare_radii - 2)))
        radii = (2.0, *(float(r) for r in inner), 1400.0)
        for radius in radii:
            evals += [Evaluation("bare", w, eps[w], config.eps_ext, (radius,))
                      for w in grid]
        self.evals = evals
        # every three-layer result is checked against mpref; the bare
        # sphere's through identities, and a seeded sample against mpref
        bare = [i for i, e in enumerate(evals) if e.kind == "bare"]
        self.mp_sample = set(int(i) for i in rng.choice(
            bare, size=self.mp_samples, replace=False))
        graded = [i for i, e in enumerate(evals) if e.kind == "graded"]
        self.oracle_sample = set(int(i) for i in rng.choice(
            graded, size=self.oracle_samples, replace=False))
        self.reference = None       # repr of each result of a checked pass
        self.classes = None         # failure kind (or None) per evaluation

    def next_op(self):
        return None

    def trace_pass(self):
        return [None]

    @staticmethod
    def stack(e: Evaluation) -> ml.LayerStack:
        if e.kind == "cavity":
            return ml.LayerStack(e.radii, (1.0, e.eps, e.eps_ext))
        if e.kind == "bare":
            return ml.LayerStack(e.radii, (e.eps, e.eps_ext))
        shells = tuple(1 + (e.eps - 1) * g for g in e.shells)
        return ml.LayerStack(e.radii, (1.0, *shells, e.eps_ext))

    def evaluate(self, e: Evaluation):
        if e.kind == "cavity":
            return rates.gamma_hat_total(self.stack(e), e.omega)
        if e.kind == "bare":
            config = self.config
            return rates.rate_report(e.eps, e.eps_ext, e.radii[0],
                                     config.onsager_radius(e.omega),
                                     config.rm_radius(e.omega), e.omega)
        coeffs = ml.coefficients(self.stack(e), e.omega)
        return coeffs.c1, coeffs.c_outer

    def op(self, spec):
        results = []
        with quiet():
            for e in self.evals:
                try:
                    results.append(self.evaluate(e))
                except Exception as exc:  # one failed row, not the pass
                    results.append(failure_kind(exc))
        return {"results": results}

    def beyond_double_range(self, e: Evaluation) -> bool:
        k_max = max(abs(cmath.sqrt(x).imag) for x in (e.eps, e.eps_ext))
        return k_max * e.omega * e.radii[-1] > DOUBLE_EXPONENT_LIMIT

    def classify(self, i: int, result) -> str | None:
        """Failure kind of one evaluation, or None when it is correct."""
        e = self.evals[i]
        if isinstance(result, str):
            return result
        import mpref
        if e.kind == "cavity":
            ref = float(mpref.gamma_hat_total_three(
                e.eps, e.eps_ext, e.radii[1], e.omega, e.omega * e.radii[0]))
            return None if mp_close(result, ref) else "tolerance_miss"
        if e.kind == "bare":
            if report_defect(vars(result), e.eps) > IDENTITY_TOL:
                return "tolerance_miss"
            if i in self.mp_sample:
                refs = mp_bare_sphere(e.eps, e.eps_ext, e.radii[0], e.omega)
                got = (result.gamma_sc_hat, result.delta_sc_hat,
                       result.gamma_sc_loc_hat)
                if not all(map(mp_close, got, refs)):
                    return "tolerance_miss"
            if result.gamma_sc_hat == 0 and result.delta_sc_hat == 0:
                return "underflow_zero"
            return None
        c1, c_outer = result
        if not (np.isfinite(c1) and np.isfinite(c_outer)):
            return "tolerance_miss"
        if e.kind == "uniform":
            ref = mpref.three_layer(1, e.eps, e.eps_ext, e.radii[0],
                                    e.radii[-1], e.omega)
            if not (mp_close(c1, complex(ref[0]))
                    and mp_close(c_outer, complex(ref[3]))):
                return "tolerance_miss"
        if i in self.oracle_sample and self.oracle_defect(e) > ORACLE_TOL:
            return "tolerance_miss"
        return None

    def oracle_defect(self, e: Evaluation) -> float:
        """Poynting-oracle defects of a graded stack's fields.

        The flux must be continuous across every interface, and energy must
        balance over the outermost shell (flux in = flux out + absorbed).
        """
        stack = self.stack(e)
        fields = ml.stack_field_evaluator(stack, e.omega)
        worst = 0.0
        k0 = e.omega
        for r in stack.radii:
            inside = oracle.flux_through_sphere(fields, r * (1 - 1e-9), k0)
            outside = oracle.flux_through_sphere(fields, r * (1 + 1e-9), k0)
            worst = max(worst, abs(outside - inside) / abs(inside))
        r_in, r_out = stack.radii[-2], stack.radii[-1]
        margin = 1e-6 * (r_out - r_in)
        worst = max(worst, oracle.energy_balance(
            fields, r_in + margin, r_out - margin, stack.eps[-2], k0))
        return worst

    def check(self, spec, output) -> Verdict:
        results = output["results"]
        if self.reference is None:
            self.classes = [self.classify(i, r) for i, r in enumerate(results)]
            self.reference = [repr(r) for r in results]
            kinds = self.classes
        else:
            kinds = [k if repr(r) == ref else "tolerance_miss" for k, r, ref
                     in zip(self.classes, results, self.reference)]
        verdict = Verdict(attempted=len(results))
        for e, kind in zip(self.evals, kinds):
            if kind is None or kind == "underflow_zero":
                verdict.correct_rows += 1
            elif kind == "overflow" and self.beyond_double_range(e):
                verdict.declined += 1
            else:
                verdict.failed += 1
            if kind is not None:
                verdict.failures[kind] += 1
        return verdict


WORKLOADS = {w.name: w for w in (DenseSweep, PresetVerify, LayeredScan)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
