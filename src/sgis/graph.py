"""Separated graphs: a directed graph plus a partition of each vertex's outgoing edges.

The partition blocks ("separation") drive every orthogonality rule downstream.
A block may be flagged infinite: it is then described by finitely many named
edges, but spectrum/algebra operations treat it as genuinely infinite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .errors import GraphError, GraphParseError

# one or more characters, none of them whitespace or one of ~()|,#
_IDENTIFIER = re.compile(r"[^\s~()|,#]+")


def _check_identifier(name: str, what: str, line_no: int | None = None) -> None:
    if not _IDENTIFIER.fullmatch(name):
        msg = f"invalid {what} identifier {name!r}"
        if line_no is not None:
            raise GraphParseError(line_no, msg)
        raise GraphError(msg)


@dataclass(frozen=True)
class Block:
    """One cell of the separation at `source`; `edges` in declaration order."""

    name: str
    source: str
    edges: tuple[str, ...]
    infinite: bool = False


class SeparatedGraph:
    """Validated separated graph; immutable after construction.

    Vertices and edges keep their declaration order, which fixes the global
    deterministic ordering used by every rendering routine.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str, str]],
        blocks: Sequence[Block],
        allow_isolated: bool = False,
    ):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.blocks = tuple(blocks)

        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.edge_index = {e: i for i, (e, _, _) in enumerate(self.edges)}
        self.source_of = {e: s for e, s, _ in self.edges}
        self.range_of = {e: r for e, _, r in self.edges}
        out_edges: dict[str, list[str]] = {v: [] for v in self.vertices}
        in_edges: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e, s, r in self.edges:
            if s in out_edges:
                out_edges[s].append(e)
            if r in in_edges:
                in_edges[r].append(e)
        blocks_at: dict[str, list[Block]] = {v: [] for v in self.vertices}
        for b in self.blocks:
            if b.source in blocks_at:
                blocks_at[b.source].append(b)
        self.out_edges: dict[str, tuple[str, ...]] = {v: tuple(es) for v, es in out_edges.items()}
        self.in_edges: dict[str, tuple[str, ...]] = {v: tuple(es) for v, es in in_edges.items()}
        self.blocks_at: dict[str, tuple[Block, ...]] = {v: tuple(bs) for v, bs in blocks_at.items()}
        self.block_of: dict[str, Block] = {}
        for b in self.blocks:
            for e in b.edges:
                self.block_of[e] = b

        self._validate(allow_isolated)

    def _validate(self, allow_isolated: bool) -> None:
        seen: set[str] = set()
        for v in self.vertices:
            _check_identifier(v, "vertex")
            if v in seen:
                raise GraphError(f"duplicate identifier {v!r}")
            seen.add(v)
        for e, s, r in self.edges:
            _check_identifier(e, "edge")
            if e in seen:
                raise GraphError(f"duplicate identifier {e!r}")
            seen.add(e)
            if s not in self.vertex_index:
                raise GraphError(f"edge {e!r}: unknown source vertex {s!r}")
            if r not in self.vertex_index:
                raise GraphError(f"edge {e!r}: unknown range vertex {r!r}")

        block_names = set()
        for b in self.blocks:
            _check_identifier(b.name, "block")
            if b.name in block_names:
                raise GraphError(f"duplicate block {b.name!r}")
            block_names.add(b.name)
            if b.source not in self.vertex_index:
                raise GraphError(f"block {b.name!r}: unknown vertex {b.source!r}")
            if not b.edges:
                raise GraphError(f"block {b.name!r} is empty")
            if len(set(b.edges)) != len(b.edges):
                raise GraphError(f"block {b.name!r} repeats an edge")
            for e in b.edges:
                if e not in self.edge_index:
                    raise GraphError(f"block {b.name!r}: unknown edge {e!r}")
                if self.source_of[e] != b.source:
                    raise GraphError(
                        f"block {b.name!r}: edge {e!r} has source "
                        f"{self.source_of[e]!r}, not {b.source!r}"
                    )

        # Blocks at v must partition s^{-1}(v): each outgoing edge in exactly one.
        for v in self.vertices:
            covered: dict[str, str] = {}
            for b in self.blocks_at[v]:
                for e in b.edges:
                    if e in covered:
                        raise GraphError(
                            f"edge {e!r} lies in blocks {covered[e]!r} and {b.name!r}"
                        )
                    covered[e] = b.name
            missing = [e for e in self.out_edges[v] if e not in covered]
            if missing:
                raise GraphError(f"edges {missing} at {v!r} belong to no block")

        if not allow_isolated:
            iso = isolated_vertices(self)
            if iso:
                raise GraphError(
                    f"isolated vertices {sorted(iso)} (pass allow_isolated=True "
                    "to keep them; they are excluded from spectrum operations)"
                )

    def __repr__(self) -> str:
        return (
            f"SeparatedGraph({len(self.vertices)} vertices, "
            f"{len(self.edges)} edges, {len(self.blocks)} blocks)"
        )


def isolated_vertices(graph: SeparatedGraph) -> set[str]:
    return {
        v
        for v in graph.vertices
        if not graph.out_edges[v] and not graph.in_edges[v]
    }


def is_finitely_separated(graph: SeparatedGraph) -> bool:
    return all(not b.infinite for b in graph.blocks)


def infinite_sources(graph: SeparatedGraph) -> set[str]:
    """Vertices with no incoming edge whose blocks are all flagged infinite."""
    return {
        v
        for v in graph.vertices
        if not graph.in_edges[v]
        and graph.blocks_at[v]
        and all(b.infinite for b in graph.blocks_at[v])
    }


def trivial_separation(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    allow_isolated: bool = False,
) -> SeparatedGraph:
    """One block per non-sink vertex holding all its outgoing edges."""
    out: dict[str, list[str]] = {v: [] for v in vertices}
    for e, s, _ in edges:
        out.setdefault(s, []).append(e)
    blocks = [
        Block(name=v, source=v, edges=tuple(out[v]))
        for v in vertices
        if out.get(v)
    ]
    return SeparatedGraph(vertices, edges, blocks, allow_isolated=allow_isolated)


def free_separation(
    vertices: Sequence[str],
    edges: Sequence[tuple[str, str, str]],
    allow_isolated: bool = False,
) -> SeparatedGraph:
    """Singleton blocks: the finest separation."""
    blocks = [Block(name=e, source=s, edges=(e,)) for e, s, _ in edges]
    return SeparatedGraph(vertices, edges, blocks, allow_isolated=allow_isolated)


def parse_graph(text: str, allow_isolated: bool = False) -> SeparatedGraph:
    """Parse the line-oriented graph file format.

    Directives: `vertex <id>`, `edge <id> <src> <rng>`,
    `block <id> finite|infinite <edge>...`, `separation trivial|free`.
    `#` starts a comment.  `separation` excludes explicit `block` lines.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    blocks: list[Block] = []
    separation_mode: str | None = None
    seen_names: set[str] = set()
    source_of: dict[str, str] = {}  # each edge read so far -> its source

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise GraphParseError(line_no, "expected: vertex <id>")
            _check_identifier(args[0], "vertex", line_no)
            if args[0] in seen_names:
                raise GraphParseError(line_no, f"duplicate identifier {args[0]!r}")
            seen_names.add(args[0])
            vertices.append(args[0])
        elif kind == "edge":
            if len(args) != 3:
                raise GraphParseError(line_no, "expected: edge <id> <src> <rng>")
            name, src, rng = args
            _check_identifier(name, "edge", line_no)
            if name in seen_names:
                raise GraphParseError(line_no, f"duplicate identifier {name!r}")
            seen_names.add(name)
            source_of[name] = src
            edges.append((name, src, rng))
        elif kind == "block":
            if separation_mode is not None:
                raise GraphParseError(
                    line_no, "`block` lines are mutually exclusive with `separation`"
                )
            if len(args) < 3 or args[1] not in ("finite", "infinite"):
                raise GraphParseError(
                    line_no, "expected: block <id> finite|infinite <edge>..."
                )
            _check_identifier(args[0], "block", line_no)
            edge_names = tuple(args[2:])
            unknown = next((e for e in edge_names if e not in source_of), None)
            if unknown is not None:
                raise GraphParseError(line_no, f"unknown edge {unknown!r}")
            sources = {source_of[e] for e in edge_names}
            if len(sources) != 1:
                raise GraphParseError(
                    line_no, f"block {args[0]!r} mixes sources {sorted(sources)}"
                )
            blocks.append(
                Block(
                    name=args[0],
                    source=next(iter(sources)),
                    edges=edge_names,
                    infinite=(args[1] == "infinite"),
                )
            )
        elif kind == "separation":
            if blocks:
                raise GraphParseError(
                    line_no, "`separation` is mutually exclusive with `block` lines"
                )
            if len(args) != 1 or args[0] not in ("trivial", "free"):
                raise GraphParseError(line_no, "expected: separation trivial|free")
            if separation_mode is not None:
                raise GraphParseError(line_no, "repeated `separation` directive")
            separation_mode = args[0]
        else:
            raise GraphParseError(line_no, f"unknown directive {kind!r}")

    try:
        if separation_mode == "trivial":
            return trivial_separation(vertices, edges, allow_isolated=allow_isolated)
        if separation_mode == "free":
            return free_separation(vertices, edges, allow_isolated=allow_isolated)
        return SeparatedGraph(vertices, edges, blocks, allow_isolated=allow_isolated)
    except GraphError as exc:
        raise GraphParseError(None, str(exc)) from exc
