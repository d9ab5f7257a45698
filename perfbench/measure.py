"""The closed loop and the statistics taken from it.

One caller sends the next operation only when the last has returned, in one
thread.  Only `case.run()` is timed; the reference and the check run between
operations.  An operation that raises, or whose answer its check rejects,
counts as failed and contributes no latency.

The speed a shared machine gives this process drifts by a quarter or more
within minutes, and by a tenth within seconds, as neighbours come and go.
So a fixed pure-Python probe, which calls nothing in sgis, runs at the start
of every pass and then whenever 50 ms have passed since the last probe.
Each latency is scaled by REFERENCE_PROBE_MS over the median of the
PROBE_WINDOW probes nearest it, half before and half after its start: times
read as on a machine where the probe takes 1 ms.  Nearby probes follow the
drift within a pass; on the long-words inputs they halved the run-to-run
spread that one median per pass left.  Unscaled figures go to the detail
line.

Latencies are kept in arrays of machine integers, so that the benchmark's own
bookkeeping adds little to the peak memory it reports.
"""

from __future__ import annotations

import gc
import statistics
from array import array
from bisect import bisect_right
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns

ORACLE_ROUTES = ("string", "fim")
REFERENCE_PROBE_MS = 1.0
PROBE_EVERY_NS = 50_000_000
PROBE_WINDOW = 4


def probe_ns():
    """Time a fixed task of tuple, sort and dict work, with the collector
    off so that the heap the program leaves behind does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        hits = 0
        for i in range(200):
            t = tuple((j * 7919 + i) % 101 for j in range(12))
            d = {x: i for x in sorted(t, key=lambda x: (x & 3, -x))}
            hits += t[3] in d
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(probes_ns):
    """Factor that turns a time measured alongside these probes into a time
    at the reference speed."""
    return REFERENCE_PROBE_MS * 1e6 / statistics.median(probes_ns)


@dataclass
class Pass:
    latencies_ns: array = field(default_factory=lambda: array("q"))
    starts_ns: array = field(default_factory=lambda: array("q"))  # per latency
    attempted: int = 0
    failed: int = 0
    engine_ns: int = 0  # operation time of the oracle-checked library calls
    oracle_ns: int = 0  # time of their oracle calls
    complete: bool = False  # False when the deadline cut the pass short
    probes_ns: list[int] = field(default_factory=list)
    probe_starts_ns: list[int] = field(default_factory=list)

    def probe(self):
        self.probe_starts_ns.append(perf_counter_ns())
        self.probes_ns.append(probe_ns())

    def scaled_latencies(self):
        """Each latency at the reference speed, by the probes around it."""
        half, starts, probes = PROBE_WINDOW // 2, self.probe_starts_ns, self.probes_ns
        out = []
        for start, x in zip(self.starts_ns, self.latencies_ns):
            i = bisect_right(starts, start)
            out.append(x * speed_scale(probes[max(0, i - half) : i + half]))
        return out


def run_pass(cases, corrupt=None, deadline_ns=None, op_span=None, tracer=None):
    """Run `cases` in order; stop early once `deadline_ns` has passed.
    `corrupt` is handed to every check; `op_span` wraps each operation in a
    root span of the tracer."""
    result = Pass()
    result.probe()
    last_probe = perf_counter_ns()
    for op_id, case in enumerate(cases):
        now = perf_counter_ns()
        if now - last_probe >= PROBE_EVERY_NS:
            result.probe()
            last_probe = perf_counter_ns()
        if deadline_ns is not None and now >= deadline_ns:
            break
        result.attempted += 1
        if tracer is not None:
            tracer.op_id = op_id
        try:
            t0 = perf_counter_ns()
            answer = op_span(case.run) if op_span else case.run()
            t1 = perf_counter_ns()
            expected = case.reference()
            t2 = perf_counter_ns()
            ok = case.check(answer, expected, corrupt)
        except Exception:  # a failed operation is counted, and the loop goes on
            if result.failed == 0:
                traceback.print_exc(file=sys.stderr)
            result.failed += 1
            continue
        if not ok:
            result.failed += 1
            continue
        result.latencies_ns.append(t1 - t0)
        result.starts_ns.append(t0)
        if case.route in ORACLE_ROUTES:
            result.engine_ns += t1 - t0
            result.oracle_ns += t2 - t1
    else:
        result.complete = True
    result.probe()
    return result


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes, scaled=True):
    """Throughput and latency of an untraced run, over all its operations.

    Each latency is scaled by the probes around it, so that a slow spell of
    the machine does not read as a slow program.  Every pass draws fresh
    inputs, so pooling the passes pools distinct inputs.
    """
    lat = [
        x
        for p in passes
        for x in (p.scaled_latencies() if scaled else p.latencies_ns)
    ]
    return {
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": quantile(lat, 0.5) / 1e6,
        "op_p90_ms": quantile(lat, 0.9) / 1e6,
        "op_p99_ms": quantile(lat, 0.99) / 1e6,
    }
