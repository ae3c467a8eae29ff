"""The benchmark's view of the package: names it looks up must exist.

bench/tracer.py wraps functions it finds by name, and bench/run.py reports
one `verify.<check>.s` metric per `verify.check_*` function, which must
match the metrics declared in BENCHMARK.json, so each check must run once
per battery under its own name.  This test only reads bench/.
"""

import functools
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

from cavrate import verify

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_name():
    traced = load_tracer().traced_functions()
    assert all(callable(fn) for fn in traced.values())
    for name in ("coeffs_two_layer", "coeffs_three_layer",
                 "coeffs_general_n", "field_in_layer"):
        assert f"multilayer.{name}" in traced


def test_checks_match_declared_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in declared["per_layer"]}
    declared_checks = {name[len("verify."):-len(".s")] for name in metrics
                       if name.startswith("verify.") and name.endswith(".s")}
    checks = {name[len("check_"):] for name in vars(verify)
              if name.startswith("check_")}
    assert checks == declared_checks


BATTERY = (
    "hankel_wronskian", "hankel_superposition", "sqrt_branch_reconstruction",
    "solver_matches_closed_forms", "oracle_matches_analytic_power",
    "energy_balance_layers", "cutoff_free_identity",
    "cavity_rate_forms_agree", "lossless_collapse", "expansion_order_p_eff",
    "expansion_order_gamma0_loc", "expansion_order_central_c1",
    "rate_decomposition_slope", "external_field_scaling",
    "green_function_restatement", "quadrature_convergence",
)


def test_each_check_runs_once_per_battery(monkeypatch):
    calls = Counter()

    def spy(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    checks = [name for name, fn in vars(verify).items()
              if name.startswith("check_") and inspect.isfunction(fn)]
    for name in checks:
        monkeypatch.setattr(verify, name, spy(getattr(verify, name)))
    report = verify.run_battery(None)
    assert calls == Counter(checks)
    assert tuple(c.name for c in report.checks) == BATTERY
    assert verify.CHECK_NAMES == BATTERY
