#!/usr/bin/env python3
"""Tabulate how the normal-form basis grows with the data-length bound on the
small bundled graphs (the counts explode quickly: keep the bound low).

    python3 scripts/basis_growth.py --max-len 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgis.algebra import enumerate_basis
from sgis.cli import COUNT, POSITIVE
from sgis.errors import Budget, BudgetExceededError
from sgis.graph import parse_graph
from sgis.semigroup import is_idempotent

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-len", type=COUNT, default=2)
    ap.add_argument("--budget", type=POSITIVE, default=10**6)
    args = ap.parse_args()

    print(f"{'graph':<10} {'bound':>5} {'elements':>9} {'idempotents':>12}")
    for name in ("rose1t", "rose2t", "rose2f", "fim2", "mixed"):
        graph = parse_graph((GRAPH_DIR / f"{name}.sg").read_text())
        for bound in range(args.max_len + 1):
            try:
                basis = enumerate_basis(graph, bound, Budget(args.budget, "basis"))
            except BudgetExceededError:
                print(f"{name:<10} {bound:>5} {'(budget exceeded)':>9}")
                break
            idem = sum(1 for el in basis if is_idempotent(el))
            print(f"{name:<10} {bound:>5} {len(basis):>9} {idem:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
