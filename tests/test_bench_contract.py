"""The benchmark's view of the package: names it looks up must exist.

bench/tracer.py wraps functions it finds by name, and bench/run.py reports
one `verify.<check>.s` metric per `verify.check_*` function, which must
match the metrics declared in BENCHMARK.json.  This test only reads bench/.
"""

import importlib.util
import json
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
