#!/usr/bin/env python3
"""Walk through the filter machinery on the bundled graphs: grow a random
maximal window, certify it, trim it, and decompose a cylinder difference.

    python3 scripts/spectrum_demo.py --depth 3 --seed 7
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgis.cli import COUNT
from sgis.graph import parse_graph
from sgis.paths import Letter, Path as GPath, path_range, steps, vertex_path
from sgis.semilattice import lower_closure
from sgis.spectrum import (
    branch_extensions,
    certify_finite_maximal,
    certify_maximal,
    cylinder_difference,
    make_cylinder,
    make_truncation,
    render_cylinder,
    trim_inverse_tails,
)

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def grow_window(graph, v, depth, rng):
    members = {vertex_path(v)}
    frontier = [vertex_path(v)]
    while frontier:
        g = frontier.pop()
        if len(g.letters) >= depth:
            continue
        at = path_range(graph, g)
        last = g.letters[-1] if g.letters else None
        for b in graph.blocks_at[at]:
            if last is not None and last.inverse and last.edge in b.edges:
                continue
            e = rng.choice(b.edges)
            q = GPath(v, g.letters + (Letter(e, False),))
            if q not in members:
                members.add(q)
                frontier.append(q)
        for x, _ in steps(graph, at, last):
            if not x.inverse:
                continue
            q = GPath(v, g.letters + (x,))
            if q not in members:
                members.add(q)
                frontier.append(q)
    return members


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=COUNT, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    for name in ("rose2t", "rose2f", "fim2", "fim2inf"):
        graph = parse_graph((GRAPH_DIR / f"{name}.sg").read_text())
        v = graph.vertices[0]
        window = make_truncation(graph, grow_window(graph, v, args.depth, rng), args.depth)
        print(f"== {name}: window of {len(window.paths)} paths at depth {args.depth}")
        print(f"   ultra: {certify_maximal(graph, window).render()}")
        print(f"   tight: {certify_finite_maximal(graph, window).render()}")
        trimmed = trim_inverse_tails(graph, window)
        print(f"   trimmed {len(window.paths) - len(trimmed.paths)} inverse tails")

        root = lower_closure(graph, [vertex_path(v)])
        exts = branch_extensions(graph, root, 2)
        if exts:
            B1 = make_cylinder(graph, root, [])
            B2 = make_cylinder(graph, lower_closure(graph, [exts[0]]), [])
            parts = cylinder_difference(graph, B1, B2)
            print(f"   {render_cylinder(B1)} minus {render_cylinder(B2)}:")
            for part in parts:
                print(f"     {render_cylinder(part)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
