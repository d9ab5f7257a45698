"""Benchmark entry point.  Run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py selftest
    python3 perfbench/run.py collect --out FILE [--runs 10] [--workload NAME ...]
    python3 perfbench/run.py compare BASE.json NEW.json

A workload run prints one JSON object as its last line of stdout:
`correct`, `attempted`, `failed` and `metrics`, which holds the end-to-end
metrics with `--trace 0` and the per-layer metrics with `--trace 1`.  A line
before it, starting with `detail `, carries figures outside the contract.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure, tracing  # noqa: E402
from perfbench.workloads import CORRUPTIONS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
RUN_LEVEL = ("trace.overhead_pct", "oracle.engine_over_oracle")  # not per pass


class SetupError(Exception):
    """The checkout lacks the program or its sample graphs."""


def import_sgis():
    """A fresh import of the package from this checkout's `src`."""
    src = ROOT / "src"
    if not (src / "sgis" / "__init__.py").is_file() or not (ROOT / "graphs").is_dir():
        raise SetupError(f"no sgis sources under {src} or no graphs/ beside them")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "sgis" or m.startswith("sgis.")]:
        del sys.modules[name]
    sg = types.SimpleNamespace(
        **{m: importlib.import_module(f"sgis.{m}") for m in tracing.LAYERS}
    )
    if Path(sg.graph.__file__).resolve().parent != (src / "sgis").resolve():
        raise SetupError(f"sgis was imported from {sg.graph.__file__}, not {src}")
    return sg


def pass_rng(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def setup(name, seed):
    """Import, parse the graphs, compute the reference counts and warm up.
    Repeated, and timed by its median, since one set-up is short and noisy;
    each repeat imports the package afresh."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(measure.probe_ns())
        t0 = perf_counter()
        sg = import_sgis()
        workload = WORKLOADS[name](sg, ROOT)
        warm = measure.run_pass(workload.warmup_cases(pass_rng(name, seed, "warmup")))
        if warm.failed:
            raise SetupError(f"{warm.failed} of {warm.attempted} warm-up operations failed")
        times.append(perf_counter() - t0)
    probes.append(measure.probe_ns())
    return sg, workload, statistics.median(times), measure.speed_scale(probes)


def run_untraced(name, workload, seed, seconds):
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    passes = []
    while not passes or perf_counter_ns() < deadline:
        cases = workload.cases(pass_rng(name, seed, len(passes)))
        passes.append(measure.run_pass(cases, deadline_ns=deadline if passes else None))
    return passes


def run_traced(name, sg, workload, seed, seconds):
    """Pass 0 untraced, then the same inputs traced, repeated while a whole
    pair still fits in the time.  Per-layer figures are medians over the
    traced repeats; the overhead compares the two sides' operation time."""
    cases = workload.cases(pass_rng(name, seed, 0))
    tracer = tracing.Tracer()
    op_span = tracer.span(tracing.OP_SPAN, lambda run: run())
    start = perf_counter_ns()
    plain, traced, per_pass = [], [], []
    while True:
        t0 = perf_counter_ns()
        plain.append(measure.run_pass(cases))
        undo = tracing.install(tracer, sg)
        tracer.recording = not traced
        before = tracer.snapshot()
        try:
            traced.append(measure.run_pass(cases, op_span=op_span, tracer=tracer))
        finally:
            tracing.uninstall(undo)
            tracer.recording = False
        per_pass.append(tracing.pass_figures(tracer, before, tracer.snapshot()))
        pair_ns = perf_counter_ns() - t0
        if perf_counter_ns() - start + pair_ns > seconds * 1e9:
            break

    metrics = {k: statistics.median_low(f[k] for f in per_pass) for k in per_pass[0]}
    plain_ns = statistics.median(sum(p.scaled_latencies()) for p in plain)
    traced_ns = statistics.median(sum(p.scaled_latencies()) for p in traced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / plain_ns
    oracle_ns = sum(p.oracle_ns for p in plain)
    metrics["oracle.engine_over_oracle"] = (
        sum(p.engine_ns for p in plain) / oracle_ns if oracle_ns else 0.0
    )
    summary = {
        "workload": name,
        "seed": seed,
        "operations_per_pass": len(cases),
        "pairs": len(traced),
        "untraced_op_ms": plain_ns / 1e6,
        "traced_op_ms": traced_ns / 1e6,
    }
    tracer.write(ROOT / "perfbench" / "out" / f"trace-{name}-seed{seed}.json.gz", summary)
    return plain + traced, metrics, summary


def run_workload(args):
    sg, workload, setup_s, setup_scale = setup(args.workload, args.seed)
    if args.trace:
        passes, metrics, detail = run_traced(
            args.workload, sg, workload, args.seed, args.seconds
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        passes = run_untraced(args.workload, workload, args.seed, args.seconds)
        # read before the statistics below allocate their own lists
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = measure.end_to_end(passes)
        p99 = metrics.pop("op_p99_ms")
        metrics["setup_s"] = setup_s * setup_scale
        metrics["peak_rss_mb"] = peak_rss_mb
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
        detail = {
            "passes": len(passes),
            "complete_passes": sum(p.complete for p in passes),
            "operations": sum(len(p.latencies_ns) for p in passes),
            "op_p99_ms": p99,
            "unscaled": measure.end_to_end(passes, scaled=False) | {"setup_s": setup_s},
            "probe_ms": statistics.median(x for p in passes for x in p.probes_ns) / 1e6,
        }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail["fail_frac"] = failed / attempted
    print("detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def selftest():
    """Each corruption must turn every answer of its route into a failure,
    and the uncorrupted answers must pass; the metric lists must match
    BENCHMARK.json."""
    status = 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    sg = import_sgis()
    tracer = tracing.Tracer()
    tracing.uninstall(tracing.install(tracer, sg))
    snap = tracer.snapshot()
    reported = set(tracing.pass_figures(tracer, snap, snap)) | set(RUN_LEVEL)
    if declared != tracing.PER_LAYER or reported != {m[0] for m in declared}:
        print("FAIL the traced run does not report the per_layer list of BENCHMARK.json")
        status = 1
    for corruption, (route, name) in CORRUPTIONS.items():
        workload = WORKLOADS[name](sg, ROOT)
        cases = workload.warmup_cases(pass_rng(name, 0, "selftest"))
        clean = measure.run_pass(cases)
        dirty = measure.run_pass(cases, corrupt=corruption)
        routed = sum(c.route == route for c in cases)
        ok = clean.failed == 0 and dirty.failed == routed > 0
        print(
            f"{'ok  ' if ok else 'FAIL'} corrupt={corruption:<10} route={route:<8} "
            f"workload={name:<16} "
            f"clean fail_frac={clean.failed / clean.attempted:.3f} "
            f"corrupted fail_frac={dirty.failed / dirty.attempted:.3f}"
        )
        status |= not ok
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["collect"], ["compare"]):
        from perfbench import report

        return report.main(argv)
    if argv[:1] == ["selftest"]:
        return selftest()
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
