"""Command-line front end.

Exit codes: 0 success, 1 property violation found, 2 input error,
3 budget exceeded, 4 internal error (a bug; one line on stderr, no
traceback).  Input errors include graph files that are not valid UTF-8,
flags a mode needs but did not get, and numbers out of range.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path as FilePath

from . import algebra, oracle, semigroup
from .errors import Budget, BudgetExceededError, SgisError
from .graph import (
    SeparatedGraph,
    infinite_sources,
    is_finitely_separated,
    isolated_vertices,
    parse_graph,
)
from .paths import (
    Letter,
    Path,
    extensions,
    parse_word_string,
    positive_part,
    render_path,
    vertex_path,
    word_from_atoms,
)
from .semilattice import LowerSet, canonicalize, chain_tree, lower_closure, render_lower_set
from .semigroup import Level, evaluate, normal_form
from .spectrum import (
    branch_extensions,
    certify_finite_maximal,
    certify_maximal,
    cylinder_difference,
    cylinder_intersect,
    cylinder_member,
    make_cylinder,
    make_truncation,
    render_cylinder,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _load_graph(path: str, allow_isolated: bool = False) -> SeparatedGraph:
    try:
        text = FilePath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SgisError(f"{path}: not valid UTF-8 (byte {exc.start})") from exc
    return parse_graph(text, allow_isolated)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a non-number as "invalid int value"
    return parse


COUNT = _int_at_least(0)
POSITIVE = _int_at_least(1)


def _parse_path(graph: SeparatedGraph, text: str):
    """The path a word spells, read once; the door it goes into checks it."""
    word = word_from_atoms(graph, parse_word_string(graph, text))
    if word is None:
        raise SgisError(f"word {text!r} is not composable")
    return word


def _parse_path_set(graph: SeparatedGraph, text: str):
    parts = [p.strip() for p in text.split(",")]
    return [_parse_path(graph, p) for p in parts if p]


def _parse_lower_set(graph: SeparatedGraph, text: str) -> LowerSet:
    paths = _parse_path_set(graph, text)
    if not paths:
        raise SgisError("empty path set")
    return lower_closure(graph, paths)


def cmd_validate(args) -> int:
    graph = _load_graph(args.graph, allow_isolated=args.allow_isolated)
    print(f"vertices: {len(graph.vertices)}")
    print(f"edges: {len(graph.edges)}")
    print(f"blocks: {len(graph.blocks)}")
    for b in graph.blocks:
        flag = "infinite" if b.infinite else "finite"
        print(f"  block {b.name} at {b.source} ({flag}): {' '.join(b.edges)}")
    print(f"finitely separated: {'yes' if is_finitely_separated(graph) else 'no'}")
    iso = sorted(isolated_vertices(graph))
    print(f"isolated vertices: {' '.join(iso) if iso else '-'}")
    inf = sorted(infinite_sources(graph))
    print(f"infinite sources: {' '.join(inf) if inf else '-'}")
    print("ok")
    return EXIT_OK


def cmd_nf(args) -> int:
    graph = _load_graph(args.graph)
    atoms = parse_word_string(graph, args.word)
    el = evaluate(graph, atoms, Level(args.level))
    print(normal_form(graph, el))
    return EXIT_OK


def cmd_eq(args) -> int:
    graph = _load_graph(args.graph)
    level = Level(args.level)
    a = evaluate(graph, parse_word_string(graph, args.a), level)
    b = evaluate(graph, parse_word_string(graph, args.b), level)
    print("EQUAL" if a == b else "UNEQUAL")
    print(f"A: {normal_form(graph, a)}")
    print(f"B: {normal_form(graph, b)}")
    return EXIT_OK


def cmd_mul(args) -> int:
    graph = _load_graph(args.graph)
    level = Level(args.level)
    a = evaluate(graph, parse_word_string(graph, args.a), level)
    b = evaluate(graph, parse_word_string(graph, args.b), level)
    print(normal_form(graph, semigroup.multiply(graph, a, b)))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    graph = _load_graph(args.graph)
    budget = Budget(args.budget, "enumeration")
    if args.what in ("basis", "idempotents"):
        items = algebra.enumerate_basis(graph, args.max_len, budget)
        if args.what == "idempotents":
            items = [el for el in items if semigroup.is_idempotent(el)]
        for el in items:
            print(normal_form(graph, el))
        print(f"count: {len(items)}")
    else:  # nc-paths: the one-step branch extensions at each vertex
        total = 0
        for v in graph.vertices:
            root = chain_tree(vertex_path(v))
            for p in branch_extensions(graph, root, args.max_len, budget):
                print(f"{v}: {render_path(p)}")
                total += 1
        print(f"count: {total}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    graph = _load_graph(args.graph)
    if args.mode == "cylinder":
        return _cmd_cylinder(graph, args)
    if not args.check or not args.set:
        raise SgisError("--check and --set are required (or use the cylinder mode)")
    Z = make_truncation(graph, _parse_path_set(graph, args.set), args.depth)
    cert = (
        certify_maximal(graph, Z)
        if args.check == "ultra"
        else certify_finite_maximal(graph, Z)
    )
    print(cert.render())
    for c in cert.caveats:
        print(f"caveat: {c}")
    return EXIT_OK


def _cmd_cylinder(graph: SeparatedGraph, args) -> int:
    def build(tree_text, excl_text):
        tree = canonicalize(graph, _parse_lower_set(graph, tree_text))
        excl = _parse_path_set(graph, excl_text) if excl_text else []
        return make_cylinder(graph, tree, excl)

    for flag, value in (("--op", args.op), ("--i1", args.i1)):
        if value is None:
            raise SgisError(f"{flag} is required for the cylinder mode")
    if args.op != "member" and args.i2 is None:
        raise SgisError(f"--i2 is required for --op {args.op}")
    if args.op == "member":
        if not args.set:
            raise SgisError("--set (the truncation) is required for member")
        B = build(args.i1, args.f1)
        Z = make_truncation(graph, _parse_path_set(graph, args.set), args.depth)
        print("true" if cylinder_member(graph, Z, B) else "false")
        return EXIT_OK
    B1 = build(args.i1, args.f1)
    B2 = build(args.i2, args.f2)
    if args.op == "intersect":
        out = cylinder_intersect(graph, B1, B2)
        print("EMPTY" if out is None else render_cylinder(out))
        return EXIT_OK
    parts = cylinder_difference(graph, B1, B2)
    if not parts:
        print("EMPTY")
    for part in parts:
        print(render_cylinder(part))
    return EXIT_OK


def cmd_cover(args) -> int:
    graph = _load_graph(args.graph)
    block = next(
        (b for b in graph.blocks if b.name == args.block and b.source == args.vertex),
        None,
    )
    if block is None:
        raise SgisError(f"no block {args.block!r} at vertex {args.vertex!r}")
    if block.infinite:
        raise SgisError("cover verification needs a finite block")
    root = chain_tree(vertex_path(args.vertex))
    covering = [chain_tree(Path(args.vertex, (Letter(e, False),))) for e in block.edges]
    budget = Budget(args.budget, "cover verification")
    verdict = algebra.bounded_cover_check(graph, root, covering, args.max_len, budget)
    print(f"cover by block {block.name}: {verdict.render()}")
    demos = 0
    # the check has paid for this list; the witnesses walk it again unbudgeted
    for p in extensions(graph, vertex_path(args.vertex), args.max_len):
        J = chain_tree(positive_part(p))  # the canonical form of p's closure
        e = algebra.cover_witness(graph, J, block)
        if demos < args.demos:
            print(f"witness {render_lower_set(J)} -> {e}")
        demos += 1
    print(f"witness check: {demos} trees validated")
    return EXIT_VIOLATION if not verdict.covered else EXIT_OK


def cmd_aut(args) -> int:
    graph = _load_graph(args.graph)
    autos = semigroup.graph_automorphisms(graph, budget=args.budget)
    for phi in autos:
        vpart = " ".join(f"{a}->{b}" for a, b in phi.vertex_map)
        epart = " ".join(f"{a}->{b}" for a, b in phi.edge_map)
        print(f"{vpart} ; {epart}")
    print(f"count: {len(autos)}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    graph = _load_graph(args.graph)
    report = oracle.crosscheck(
        graph, samples=args.samples, max_len=args.len, seed=args.seed
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_VIOLATION if report["disagreements"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sgis", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a graph file and report invariants")
    p.add_argument("graph")
    p.add_argument("--allow-isolated", action="store_true")

    p = sub.add_parser("nf", help="normal form of a word")
    p.add_argument("graph")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("--level", choices=[lv.value for lv in Level], default="separated")

    helps = {"eq": "decide equality of two words", "mul": "product of two words"}
    for name in ("eq", "mul"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("graph")
        p.add_argument("-a", required=True)
        p.add_argument("-b", required=True)
        p.add_argument("--level", choices=[lv.value for lv in Level], default="separated")

    p = sub.add_parser("enumerate", help="bounded enumerations")
    p.add_argument("graph")
    p.add_argument("--max-len", type=COUNT, default=2)
    p.add_argument("--what", choices=["basis", "idempotents", "nc-paths"], default="basis")
    p.add_argument("--budget", type=POSITIVE, default=10**6)

    p = sub.add_parser("spectrum", help="filter certificates and cylinder algebra")
    p.add_argument("graph")
    p.add_argument("mode", nargs="?", choices=["cylinder"])
    p.add_argument("--check", choices=["ultra", "tight"])
    p.add_argument("--set")
    p.add_argument("--depth", type=COUNT, default=4)
    p.add_argument("--op", choices=["member", "intersect", "diff"])
    p.add_argument("--i1")
    p.add_argument("--f1", default="")
    p.add_argument("--i2")
    p.add_argument("--f2", default="")

    p = sub.add_parser("cover", help="verify the block cover and its witnesses")
    p.add_argument("graph")
    p.add_argument("--vertex", required=True)
    p.add_argument("--block", required=True)
    p.add_argument("--max-len", type=COUNT, default=4)
    p.add_argument("--budget", type=POSITIVE, default=10**6)
    p.add_argument("--demos", type=COUNT, default=5)

    p = sub.add_parser("aut", help="graph automorphisms")
    p.add_argument("graph")
    p.add_argument("--budget", type=POSITIVE, default=10**6)

    p = sub.add_parser("oracle", help="independent validators")
    p.add_argument("action", choices=["crosscheck"])
    p.add_argument("graph")
    p.add_argument("--samples", type=COUNT, default=10**4)
    p.add_argument("--len", type=POSITIVE, default=10)
    p.add_argument("--seed", type=int, default=0)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than
    a parse, which matters to callers of `main` in process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced `cmd_<command>` is the one run
        return globals()[f"cmd_{args.command}"](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SgisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, not a verdict: keep exit 1 for violations
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
