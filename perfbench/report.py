"""Result files: `collect` runs the benchmark several times and stores every
result with the environment; `compare` sets two such files side by side.

    python3 perfbench/run.py collect --out FILE [--runs 10] [--seconds S]
        [--workload NAME ...]
    python3 perfbench/run.py compare BASE.json NEW.json

`collect` uses the seeds 1..runs, interleaving the workloads, and adds one
traced run per workload with seed 1.

Spread is the distance between the first and third quartile over the median,
as `statistics.quantiles(values, n=4)` gives the quartiles.  In `compare`, an
end-to-end metric whose spread on either side exceeds its bound is reported
as `unresolved` unless every run of the new side beats every run of the base.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next(
        (json.loads(x[len("detail "):]) for x in lines if x.startswith("detail ")), {}
    )
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]), "detail": detail}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def collect(args):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    doc = {
        "environment": environment(),
        "run_seconds": seconds,
        "workloads": {name: {"runs": []} for name in names},
    }
    # workloads interleaved, so slow spells hit all alike
    for seed in range(1, args.runs + 1):
        for name in names:
            run = run_once(name, seed, seconds, 0)
            doc["workloads"][name]["runs"].append(run)
            print(f"{name} seed={seed} " + json.dumps(
                {k: round(v["value"], 4) for k, v in run["result"]["metrics"].items()}
            ), file=sys.stderr, flush=True)
    for name in names:
        doc["workloads"][name]["runs"].append(run_once(name, 1, seconds, 1))
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(summary(doc, bench))
    return 0


def _values(doc, workload, metric, trace=0):
    return [
        r["result"]["metrics"][metric]["value"]
        for r in doc["workloads"].get(workload, {}).get("runs", [])
        if r["trace"] == trace and metric in r["result"]["metrics"]
    ]


def summary(doc, bench):
    """Median, quartiles and spread of each end-to-end metric, against a
    third of its bound (the margin the benchmark is tuned to)."""
    rows = [f"{'workload':<17} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"]
    for name in doc["workloads"]:
        for m in bench["end_to_end"]:
            values = _values(doc, name, m["name"])
            if len(values) < 2:
                continue
            q1, q2, q3, s = spread(values)
            flag = "" if s < m["bound"] / 3 or m["name"] == "setup_s" else "  > bound/3"
            rows.append(
                f"{name:<17} {m['name']:<12} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                f"{s:>7.3f} {m['bound']:>6.2f}{flag}"
            )
    return "\n".join(rows)


def verdict(base, new, bound, better):
    """unchanged / better / worse / unresolved for one metric."""
    _, b2, _, bs = spread(base)
    _, n2, _, ns = spread(new)
    sign = 1 if better == "higher" else -1
    change = sign * (n2 - b2) / b2  # > 0 means the new side is better
    if max(bs, ns) > bound:
        separated = min(sign * x for x in new) > max(sign * x for x in base)
        return "better" if separated else "unresolved"
    if change < -bound:
        return "worse"
    if change > bs:
        return "better"
    return "unchanged"


def compare(args):
    bench = spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    print(f"base: {json.dumps(base.get('environment', {}))}")
    print(f"new:  {json.dumps(new.get('environment', {}))}")
    header = (
        f"{'workload':<17} {'metric':<44} {'base q1':>10} {'median':>10} {'q3':>10} "
        f"{'new q1':>10} {'median':>10} {'q3':>10} {'ratio':>7}  verdict"
    )
    print(header)
    metrics = [(m["name"], m["bound"], m["better"], 0) for m in bench["end_to_end"]]
    metrics += [(m["name"], None, m["better"], 1) for m in bench["per_layer"]]
    for name in [w for w in base["workloads"] if w in new["workloads"]]:
        for metric, bound, better, trace in metrics:
            b, n = _values(base, name, metric, trace), _values(new, name, metric, trace)
            if not b or not n:
                continue
            if len(b) < 2 or len(n) < 2:
                b1 = b2 = b3 = statistics.median(b)
                n1 = n2 = n3 = statistics.median(n)
                label = "-"
            else:
                b1, b2, b3, _ = spread(b)
                n1, n2, n3, _ = spread(n)
                label = verdict(b, n, bound, better) if bound is not None else "-"
            ratio = n2 / b2 if b2 else float("nan")
            print(
                f"{name:<17} {metric:<44} {b1:>10.4g} {b2:>10.4g} {b3:>10.4g} "
                f"{n1:>10.4g} {n2:>10.4g} {n3:>10.4g} {ratio:>7.3f}  {label}"
            )
    return 0


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("collect", help="run every workload over several seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p = sub.add_parser("compare", help="set two result files side by side")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.mode == "collect":
        if args.runs < 1:
            parser.error("--runs must be positive")
        return collect(args)
    return compare(args)
