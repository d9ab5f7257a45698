#!/usr/bin/env python3
"""Cross-validate the Munn-tree engine against the string-peeling oracle on
every bundled graph, and print a compact table.

    python3 scripts/run_crosscheck.py --samples 2000 --len 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgis.cli import COUNT, POSITIVE
from sgis.graph import parse_graph
from sgis.oracle import crosscheck

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=COUNT, default=2000)
    ap.add_argument("--len", type=POSITIVE, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    bad = 0
    print(f"{'graph':<12} {'samples':>8} {'agree':>8} {'zero':>6} {'disagree':>9}")
    for path in sorted(GRAPH_DIR.glob("*.sg")):
        graph = parse_graph(path.read_text())
        rep = crosscheck(graph, samples=args.samples, max_len=args.len, seed=args.seed)
        print(
            f"{path.stem:<12} {rep['samples']:>8} {rep['agreements']:>8} "
            f"{rep['zero_words']:>6} {len(rep['disagreements']):>9}"
        )
        bad += len(rep["disagreements"])
    if bad:
        print(f"\n{bad} disagreement(s); the engines diverge", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
