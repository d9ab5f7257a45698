"""Finite lower sets of separated paths and the idempotent semilattice order.

A `LowerSet` stores a prefix-closed family of paths from one vertex, sorted
under the global length-lexicographic order, so equality is structural and
values are hashable.  Compatibility is enforced by the checked constructor
`lower_closure`; the unchecked variant exists for trees that deliberately
ignore the separation (the free quotient level).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import IncompatiblePathsError, WordError
from .graph import SeparatedGraph
from .paths import (
    Path,
    compatible,
    is_prefix,
    is_separated_path,
    path_range,
    positive_part,
    render_path,
    sorted_paths,
    steps,
    vertex_path,
)


@dataclass(frozen=True)
class LowerSet:
    base: str
    paths: tuple[Path, ...]

    def __contains__(self, p: Path) -> bool:
        return p in self.paths

    def __len__(self) -> int:
        return len(self.paths)

    def __repr__(self) -> str:
        return render_lower_set(self)


def render_lower_set(I: LowerSet) -> str:
    return "{" + ", ".join(render_path(p) for p in I.paths) + "}"


def lower_close_paths(paths: Iterable[Path]) -> set[Path]:
    """Every prefix of every member.  The set stays prefix-closed, so each
    member's prefixes are added from the longest down until one is there."""
    closed: set[Path] = set()
    for p in paths:
        for n in range(len(p.letters), -1, -1):
            q = Path(p.base, p.letters[:n])
            if q in closed:
                break
            closed.add(q)
    return closed


def lower_closure_unchecked(
    graph: SeparatedGraph, paths: Iterable[Path], base: str | None = None
) -> LowerSet:
    """Prefix closure without separation or compatibility checks."""
    closed = lower_close_paths(paths)
    if base is not None:
        closed.add(vertex_path(base))
    if not closed:
        raise WordError("a lower set needs at least its base vertex")
    bases = {p.base for p in closed}
    if len(bases) != 1:
        raise WordError(f"paths from several vertices: {sorted(bases)}")
    return LowerSet(next(iter(bases)), sorted_paths(graph, closed))


def lower_closure(
    graph: SeparatedGraph, paths: Iterable[Path], base: str | None = None
) -> LowerSet:
    """Prefix closure of a compatible family of separated paths.

    Raises IncompatiblePathsError naming a violating pair, or WordError for a
    non-separated member / mixed sources.
    """
    closed = lower_closure_unchecked(graph, paths, base=base)
    for p in closed.paths:
        if not is_separated_path(graph, p):
            raise WordError(f"path {render_path(p)!r} is not separated")
    members = closed.paths
    for i, p in enumerate(members):
        for q in members[i + 1 :]:
            if not compatible(graph, p, q):
                raise IncompatiblePathsError(p, q)
    return closed


def is_separated_compatible_family(
    graph: SeparatedGraph, paths: Sequence[Path]
) -> bool:
    """All members separated and pairwise compatible (bases assumed equal)."""
    if not all(is_separated_path(graph, p) for p in paths):
        return False
    for i, p in enumerate(paths):
        for q in paths[i + 1 :]:
            if not compatible(graph, p, q):
                return False
    return True


def max_elements(I: LowerSet) -> tuple[Path, ...]:
    """Maximal members under the prefix order, in tree order; inverse to
    lower closure.  In a lower set a member is maximal iff it is no
    member's parent."""
    parents = {p.letters[:-1] for p in I.paths if p.letters}
    return tuple(p for p in I.paths if p.letters not in parents)


def canonicalize(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """Largest member of the congruence class: strip every maximal element
    down to its positive part and re-close."""
    tips = {positive_part(m) for m in max_elements(I)}
    return lower_closure_unchecked(graph, tips, base=I.base)


def is_canonical(I: LowerSet) -> bool:
    return all(not m.letters or not m.letters[-1].inverse for m in max_elements(I))


def canonicalize_by_stripping(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """Second route to the canonical form, used for cross-checks: repeatedly
    delete maximal elements that end in an inverse letter."""
    current = set(I.paths)
    while True:
        removable = [
            p
            for p in current
            if p.letters
            and p.letters[-1].inverse
            and not any(q != p and is_prefix(p, q) for q in current)
        ]
        if not removable:
            return LowerSet(I.base, sorted_paths(graph, current))
        current.difference_update(removable)


def meet(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> LowerSet | None:
    """Union when compatible over one vertex, else None (the zero)."""
    if I.base != J.base:
        return None
    for p in I.paths:
        for q in J.paths:
            if not compatible(graph, p, q):
                return None
    return LowerSet(I.base, sorted_paths(graph, set(I.paths) | set(J.paths)))


def class_eq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    return canonicalize(graph, I) == canonicalize(graph, J)


def class_leq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    """Congruence-class order: [I] <= [J] iff J0 is contained in I0."""
    if I.base != J.base:
        return False
    I0 = canonicalize(graph, I)
    J0 = canonicalize(graph, J)
    return set(J0.paths) <= set(I0.paths)


def config_letters_at(graph: SeparatedGraph, members: set[Path], g: Path):
    """Letters x with red(g x) inside the set; the local picture at g."""
    back = ~g.letters[-1] if g.letters else None
    return [
        x
        for x, _ in steps(graph, path_range(graph, g))
        # the letter cancelling g's last one leads back into the set
        if x == back or Path(g.base, g.letters + (x,)) in members
    ]


def is_compatible_set_by_configs(graph: SeparatedGraph, paths: Sequence[Path]) -> bool:
    """Local-configuration route, cross-checked against the pairwise route
    `is_separated_compatible_family`: every member's extension letters inside
    the set must use at most one edge per block."""
    if not all(is_separated_path(graph, p) for p in paths):
        return False
    members = set(paths)
    for g in members:
        seen_blocks: set[int] = set()
        for x in config_letters_at(graph, members, g):
            if x.inverse:
                continue
            key = id(graph.block_of[x.edge])
            if key in seen_blocks:
                return False
            seen_blocks.add(key)
    return True
