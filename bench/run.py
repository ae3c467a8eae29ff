"""cavrate benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload dense_sweep --seed 1 --seconds 12 --trace 0

Workloads (see workloads.py): dense_sweep, preset_verify, layered_scan.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over repeated sequential launches of a fresh
               interpreter that imports cavrate and completes the first
               operation of the workload;
  rows_per_s   median over operations of correct rows per second (sweep
               rows, stack evaluations, or sweep rows of a passing verify);
  op_s_p50     median time of one operation;
  peak_rss_mb  peak resident memory of this process after the timed loop.
--trace 1 runs fixed passes untraced, then traced, and reports per pass the
self time and calls of each layer (spans from tracer.py), the two-layer
solves per rate report, field evaluations per oracle radial integral,
failures by kind, set-up split into import and first operation, and the
tracing overhead (traced over untraced pass time).

Reference-speed seconds.  The shared machine this was written on (2 vCPUs)
changes speed by up to 2.5x, in bursts and for seconds at a time, and the
slowdown is invisible to process CPU time.  Every timed interval (an
operation, a pass, a set-up launch) is therefore bracketed by a fixed
pure-Python calibration loop, and its wall time is rescaled to the speed at
which that loop takes CAL_REF_S:
    reported = wall * CAL_REF_S / mean(loop before, loop after).
The loop after one interval is the loop before the next.  Raw wall-time
medians are printed on the `# op_s` line; memory and counts are not scaled.

Outputs of every operation are checked outside the timed region.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the machine, the failures by
kind and the operation-time distribution.  All work runs in this process
(set-up launches run one at a time) with BLAS and OpenMP capped at one
thread.
"""

import os

THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 7
MAX_SPANS = 2000
CAL_REF_S = 0.025

SELF_LAYERS = (
    "specfun", "dielectric",
    "multilayer.coeffs_two_layer", "multilayer.coeffs_three_layer",
    "multilayer.coeffs_general_n", "multilayer.field_in_layer",
    "rates.rate_report", "rates.gamma_sc_loc", "cli.sweep_row",
    "oracle.absorbed_power", "oracle.flux_through_sphere",
)


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of the kind of work cavrate does per
    frequency: complex math, calls, small dicts and float formatting."""
    start = time.perf_counter()
    lines = []
    for i in range(8000):
        z = complex(0.5 + i * 1e-4, 0.1)
        w = cmath.exp(1j * z) / z * (1 + 1j / z) - cmath.sin(z) / (z * z)
        row = {"re": w.real, "im": w.imag}
        lines.append(",".join(format(v, ".17g") for v in row.values()))
    "\n".join(lines)
    return time.perf_counter() - start


class Clock:
    """Times calls in wall and reference-speed seconds.

    Consecutive calls share the calibration loop between them: the loop run
    after one call is the loop before the next.
    """

    def __init__(self):
        self.before = None

    def time(self, fn):
        """(result or raised exception, wall s, reference s)."""
        if self.before is None:
            self.before = calibration_loop()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller counts it as a failed operation
            result = exc
        wall = time.perf_counter() - start
        after = calibration_loop()
        ref = wall * 2 * CAL_REF_S / (self.before + after)
        self.before = after
        return result, wall, ref


def measure_setup(workload: str, seed: int):
    """Medians of (launch, import, first operation) in reference seconds."""
    launches, imports, firsts = [], [], []
    clock = Clock()
    for _ in range(SETUP_LAUNCHES):
        proc, wall, ref = clock.time(lambda: subprocess.run(
            [sys.executable, str(HERE / "first_op.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120))
        if isinstance(proc, Exception) or proc.returncode != 0:
            detail = proc if isinstance(proc, Exception) else proc.stderr
            raise RuntimeError(f"set-up launch failed:\n{detail}")
        child = json.loads(proc.stdout.splitlines()[-1])
        launches.append(ref)
        imports.append(child["import_s"] * ref / wall)
        firsts.append(child["first_op_s"] * ref / wall)
    return tuple(statistics.median(v) for v in (launches, imports, firsts))


def run_timed(wl, seconds: float, next_group, total):
    """Run groups of operations until `seconds` have passed (at least one).

    Returns, per group, (wall s, reference s, correct rows) of each
    operation.  Only the operation calls are timed; checks run between them.
    """
    groups = []
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while True:
        group = []
        for spec in next_group():
            output, wall, ref = clock.time(lambda: wl.op(spec))
            verdict = wl.check(spec, output)
            if isinstance(output, dict):
                verdict.csv_bytes = output.get("csv_bytes", 0)
                verdict.json_bytes = output.get("json_bytes", 0)
            total.add(verdict)
            group.append((wall, ref, verdict.correct_rows))
        groups.append(group)
        if time.perf_counter() >= deadline:
            return groups


def end_to_end(wl, seconds, setup, total):
    groups = run_timed(wl, seconds,
                       lambda: [wl.next_op() for _ in range(wl.group)],
                       total)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = [op for group in groups for op in group]
    times = sorted(ref for _, ref, _ in ops)
    n = len(times)
    line = (f"# op_s: n={n} p50={statistics.median(times):.6g} "
            f"max={times[-1]:.6g}")
    level = math.floor(100 * (n - 10) / n)
    if level > 50:
        # highest percentile with at least ten samples beyond it
        line += f" p{level}={times[math.ceil(level / 100 * n) - 1]:.6g}"
    print(f"{line} (reference s); wall p50="
          f"{statistics.median(w for w, _, _ in ops):.6g}")
    return {
        "setup_s": setup[0],
        "rows_per_s": statistics.median(r / t for _, t, r in ops),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, seconds, setup, total):
    from tracer import Tracer
    from workloads import FAILURE_KINDS, Verdict
    from cavrate import verify

    untraced = run_timed(wl, seconds / 2, wl.trace_pass, total)
    traced_total = Verdict()
    tracer = Tracer(max_spans=MAX_SPANS)
    with tracer:
        traced = run_timed(wl, seconds / 2, wl.trace_pass, traced_total)
    total.add(traced_total)
    passes = len(traced)
    # rescale span times like the operations they ran in
    scale = statistics.median(ref / wall for g in traced for wall, ref, _ in g)

    def pass_seconds(groups):
        return statistics.median(sum(ref for _, ref, _ in g) for g in groups)

    metrics = {}
    self_s, calls = {}, {}
    for name in tracer.calls:
        head = name.split(".")[0]
        layer = head if head in ("specfun", "dielectric") else name
        self_s[layer] = self_s.get(layer, 0.0) + tracer.self_s[name]
        calls[layer] = calls.get(layer, 0) + tracer.calls[name]
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) * scale / passes
        metrics[f"{layer}.calls"] = calls.get(layer, 0) / passes

    def ratio(child, ancestor):
        n = tracer.calls[ancestor]
        return tracer.nested[(child, ancestor)] / n if n else 0.0

    metrics["multilayer.solves_per_row"] = ratio(
        "multilayer.coeffs_two_layer", "rates.rate_report")
    metrics["oracle.evals_per_integral"] = ratio(
        "multilayer.field_in_layer", "oracle.absorbed_power")
    for name in sorted(vars(verify)):
        if name.startswith("check_"):
            metrics[f"verify.{name[len('check_'):]}.s"] = \
                tracer.total_s[f"verify.{name}"] * scale / passes
    for writer in ("write_csv", "write_json"):
        metrics[f"cli.{writer}.s"] = \
            tracer.total_s[f"cli.{writer}"] * scale / passes
    metrics["cli.write_csv.bytes"] = traced_total.csv_bytes / passes
    metrics["cli.write_json.bytes"] = traced_total.json_bytes / passes
    for kind in FAILURE_KINDS:
        metrics[f"failures.{kind}"] = traced_total.failures[kind] / passes
    metrics["failed_ratio"] = (traced_total.failed + traced_total.declined) \
        / traced_total.attempted
    metrics["setup.import_s"] = setup[1]
    metrics["setup.first_op_s"] = setup[2]
    metrics["trace.overhead_ratio"] = \
        pass_seconds(traced) / pass_seconds(untraced)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"trace-{wl.name}.json").write_text(json.dumps({
        "passes": passes,
        "spans": {n: {"calls": tracer.calls[n], "total_s": tracer.total_s[n],
                      "self_s": tracer.self_s[n]} for n in tracer.calls},
        "first_spans": [list(s) for s in tracer.spans],
    }, indent=1))
    return metrics


def machine() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_cap": THREAD_CAP,
        "calibration_loop_s": statistics.median(
            calibration_loop() for _ in range(5)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "BENCHMARK.json",
              ROOT / "src" / "cavrate" / "__init__.py",
              ROOT / "tests" / "mpref.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark needs {', '.join(missing)} in {ROOT}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    # one CPU for this process and its set-up launches, so that the
    # calibration loop runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup = measure_setup(args.workload, args.seed)
    wl = workloads.make(args.workload, args.seed)
    total = workloads.Verdict()
    # warm-up: one checked pass before anything is measured
    run_timed(wl, 0.0, wl.trace_pass, total)
    if args.trace:
        metrics = per_layer(wl, args.seconds, setup, total)
        spec = declared["per_layer"]
    else:
        metrics = end_to_end(wl, args.seconds, setup, total)
        spec = declared["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    print("# machine: " + json.dumps(machine(), sort_keys=True))
    print("# failures: " + json.dumps(dict(total.failures), sort_keys=True))
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
