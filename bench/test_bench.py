"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _perturb_csv(path, row, column):
    lines = path.read_text().splitlines(keepends=True)
    values = lines[row + 1].split(",")
    values[column] = repr(float(values[column]) * (1 + 1e-6))
    lines[row + 1] = ",".join(values)
    path.write_text("".join(lines))


def test_perturbed_sweep_row_is_failed():
    wl = workloads.DenseSweep(seed=3, refine=1)
    assert wl.check(None, wl.op(None)).failed == 0
    output = wl.op(None)
    _perturb_csv(wl.path, 401, 10)      # row 401 is not a golden row
    verdict = wl.check(None, output)
    n = len(output["rows"])
    assert (verdict.failed, verdict.correct_rows) == (1, n - 1)


def test_perturbed_row_fails_its_identities():
    wl = workloads.DenseSweep(seed=3, refine=1)
    output = wl.op(None)
    output["rows"][401]["gamma_hat"] *= 1 + 1e-6
    _perturb_csv(wl.path, 401, 10)
    verdict = wl.check(None, output)
    assert verdict.failed == 1 and verdict.failures["tolerance_miss"] == 1


def test_perturbed_stack_evaluation_is_failed():
    wl = workloads.LayeredScan(seed=3)
    output = wl.op(None)
    i = next(i for i, e in enumerate(wl.evals) if e.kind == "bare")
    results = output["results"]
    results[i] = dataclasses.replace(
        results[i], gamma_sc_hat=results[i].gamma_sc_hat * (1 + 1e-6))
    verdict = wl.check(None, output)
    assert verdict.failed == 1
    assert verdict.failures["tolerance_miss"] == 1
    assert verdict.correct_rows == verdict.attempted - verdict.declined - 1


def test_known_overflows_are_declined_not_failed():
    wl = workloads.LayeredScan(seed=4)
    output = wl.op(None)
    verdict = wl.check(None, output)
    assert verdict.failed == 0
    assert verdict.declined == verdict.failures["overflow"] > 0
    overflowed = [e for e, r in zip(wl.evals, output["results"])
                  if r == "overflow"]
    assert {e.radii[0] for e in overflowed} == {1400.0}


def test_wrappers_replace_every_lookup_name():
    from cavrate import dielectric, multilayer, rates
    original = dielectric.sqrt_eps
    with Tracer():
        assert rates.sqrt_eps is dielectric.sqrt_eps is multilayer.sqrt_eps
        assert rates.sqrt_eps is not original
    assert rates.sqrt_eps is original is multilayer.sqrt_eps


def test_spans_nest_and_self_times_are_non_negative():
    wl = workloads.PresetVerify(seed=5)
    tracer = Tracer(max_spans=10 ** 6)
    with tracer:
        wl.op(("fig3", 7))
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == sum(tracer.calls.values())
    for _, parent, _, start, end in tracer.spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][3] <= start and end <= spans[parent][4]
    assert all(v >= 0 for v in tracer.self_s.values())
    roots = sum(end - start for _, parent, _, start, end in tracer.spans
                if parent is None)
    assert math.isclose(sum(tracer.self_s.values()), roots, rel_tol=1e-9)


def _traced_counts(name, seed):
    wl = workloads.make(name, seed)
    tracer = Tracer()
    with tracer:
        for spec in wl.trace_pass():
            wl.op(spec)
    per_integral = tracer.nested[("multilayer.field_in_layer",
                                  "oracle.absorbed_power")] \
        / tracer.calls["oracle.absorbed_power"]
    return dict(tracer.calls), dict(tracer.nested), per_integral


def test_counts_repeat_across_traced_runs():
    first = _traced_counts("preset_verify", 11)
    assert first == _traced_counts("preset_verify", 11)
    assert first[2] > 0


def test_goldens_match_current_outputs():
    stored = json.loads(golden.HASHES.read_text())["presets"]
    for preset in golden.PRESETS:
        assert golden.sha256(golden.preset_csv(preset)) \
            == stored[preset]["sha256"]
    assert stored["fig2"]["sha256"] == stored["fig3"]["sha256"]


def test_drift_report_counts_ulps():
    header, rows = golden.load("fig4")
    changed = [list(r) for r in rows]
    changed[7][5] = math.nextafter(changed[7][5], math.inf)
    drift = golden.column_drift((header, rows), (header, changed))
    assert drift[header[5]][0] == 1 and drift[header[5]][1] > 0
    assert all(drift[c] == (0, 0.0) for c in header if c != header[5])


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
