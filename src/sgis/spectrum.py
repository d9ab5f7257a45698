"""Filter combinatorics at bounded depth: local configurations, certificates
for maximal / finite-maximal behaviour, and the Boolean algebra of basic
open sets Z(I \\ F).

A local configuration is read off the trie (`LowerSet.configuration`) and
admissibility is the block rule (`block_clash`).  Infinite filters are never
materialized: every statement is a certificate quantified over members
shorter than a stated depth.  For blocks flagged infinite, maximality
quantifies over the named edges only and the certificate records that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import Budget, CylinderError, IncompatiblePathsError, SgisError, WordError
from .graph import Block, SeparatedGraph, isolated_vertices
from .paths import (
    Letter,
    Path,
    checked_path,
    extensions,
    path_range,
    render_path,
    sorted_paths,
    steps,
)
from .semilattice import (
    LowerSet,
    canonicalize,
    block_clash,
    chain_tree,
    chain_unions,
    checked_tree,
    compatible_with,
    is_canonical,
    is_subtree,
    lower_closure,
    max_elements,
    merge_tries,
)


@dataclass(frozen=True)
class LocalConfig:
    at: str
    letters: frozenset[Letter]
    tail: Letter | None = None


@dataclass(frozen=True)
class Truncation:
    """A finite window onto a (possibly infinite) filter: a compatible lower
    set plus the depth below which its statements are certified."""

    paths: LowerSet
    depth: int

    @property
    def base(self) -> str:
        return self.paths.base


@dataclass(frozen=True)
class Certificate:
    passed: bool
    depth: int
    witness: Path | None = None
    caveats: tuple[str, ...] = ()

    def render(self) -> str:
        if self.passed:
            return f"PASS depth={self.depth}"
        return f"FAIL witness={render_path(self.witness)}"


def make_truncation(graph: SeparatedGraph, paths: Iterable[Path], depth: int) -> Truncation:
    closed = lower_closure(graph, paths)
    if closed.base in isolated_vertices(graph):
        raise SgisError(f"vertex {closed.base!r} is isolated; no spectrum there")
    return Truncation(closed, depth)


def local_configuration(graph: SeparatedGraph, Z: LowerSet, g: Path) -> LocalConfig | None:
    """Extension letters of g inside Z; None marks the empty configuration."""
    n, k = Z.reach(g.letters)
    if g.base != Z.base or k < len(g.letters):
        raise SgisError(f"{render_path(g)!r} is not a member of the set")
    letters = Z.configuration(n)
    if not letters:
        return None
    at = path_range(graph, g)
    tail = ~g.letters[-1] if g.letters else None
    return LocalConfig(at=at, letters=frozenset(letters), tail=tail)


def is_admissible(graph: SeparatedGraph, config: LocalConfig) -> bool:
    """At most one positive letter per block: no letter clashes."""
    return all(block_clash(graph, config.letters, x) is None for x in config.letters)


def _is_complete(graph: SeparatedGraph, config: LocalConfig, blocks: Sequence[Block]) -> bool:
    """Admissible, a positive letter in each of `blocks` and every incoming
    inverse letter."""
    present = {graph.block_of[x.edge].name for x in config.letters if not x.inverse}
    return (
        is_admissible(graph, config)
        and all(b.name in present for b in blocks)
        and all(Letter(e, True) in config.letters for e in graph.in_edges[config.at])
    )


def is_maximal_config(graph: SeparatedGraph, config: LocalConfig) -> bool:
    """Admissible, one positive letter per block (named edges; infinite
    blocks included) and every incoming inverse letter."""
    return _is_complete(graph, config, graph.blocks_at[config.at])


def is_finite_maximal_config(graph: SeparatedGraph, config: LocalConfig) -> bool:
    """Admissible, one positive letter per finite block, every incoming
    inverse letter; infinite blocks are exempt."""
    return _is_complete(graph, config, [b for b in graph.blocks_at[config.at] if not b.infinite])


def _certify(graph: SeparatedGraph, Z: Truncation, is_complete: Callable) -> Certificate:
    """Shared body of the two certificates, on the untrimmed picture."""
    caveats = []
    if any(b.infinite for b in graph.blocks):
        caveats.append("infinite blocks quantified over named edges only")
    for n, g in enumerate(Z.paths.paths):
        if len(g.letters) >= Z.depth:
            continue
        letters = frozenset(Z.paths.configuration(n))
        if not is_complete(graph, LocalConfig(at=path_range(graph, g), letters=letters)):
            return Certificate(False, Z.depth, witness=g, caveats=tuple(caveats))
    return Certificate(True, Z.depth, caveats=tuple(caveats))


def certify_maximal(graph: SeparatedGraph, Z: Truncation) -> Certificate:
    """Every member below depth must see one edge per block plus all
    incoming inverse letters (the untrimmed ultrafilter picture)."""
    return _certify(graph, Z, is_maximal_config)


def certify_finite_maximal(graph: SeparatedGraph, Z: Truncation) -> Certificate:
    """Like certify_maximal but only finite blocks need a representative."""
    return _certify(graph, Z, is_finite_maximal_config)


def trim_inverse_tails(graph: SeparatedGraph, Z: Truncation) -> Truncation:
    """Drop members ending in an inverse letter with no positively-ending
    extension inside the truncation (the passage from the untrimmed picture
    to the filter itself): the canonical form of the window."""
    return Truncation(canonicalize(graph, Z.paths), Z.depth)


def extend_inverse_tails(graph: SeparatedGraph, Z: Truncation, depth: int) -> Truncation:
    """Adjoin every inverse-letter extension g x1^-1...xn^-1 of a member g up
    to the depth bound: the inverse `extensions` of the members, merged.
    Inverse to trimming below depth."""
    tails = {q for g in Z.paths.paths for q in extensions(graph, g, depth, inverse=True)}
    return Truncation(LowerSet(Z.base, sorted_paths(graph, tails)), depth)


# -- the basic open sets Z(I \ F) ---------------------------------------------


@dataclass(frozen=True)
class Cylinder:
    """Filters containing `tree` and avoiding each member of `excluded`;
    made by `make_cylinder` or from its cylinders, and trusted."""

    tree: LowerSet
    excluded: tuple[Path, ...] = ()

    def __repr__(self) -> str:
        return render_cylinder(self)


def render_cylinder(B: Cylinder) -> str:
    inside = ", ".join(render_path(p) for p in B.tree.paths)
    outside = ", ".join(render_path(p) for p in B.excluded)
    return f"Z({{{inside}}} \\ {{{outside}}})"


def is_branch_extension(graph: SeparatedGraph, I: LowerSet, f: Path) -> bool:
    """Membership in the one-step extension family of I of a path f that
    `checked_path` passed or `steps` built: the part of f after its longest
    prefix in I, read by one descent, is an inverse run ending in a single
    positive edge, and adjoining f keeps the tree canonical and compatible."""
    if f.base != I.base:
        return False
    n, k = I.reach(f.letters)
    tail = f.letters[k:]
    return (
        bool(tail)
        and not tail[-1].inverse
        and all(x.inverse for x in tail[:-1])
        and block_clash(graph, I.children(n), tail[0]) is None
    )


def make_cylinder(graph: SeparatedGraph, I: LowerSet, excluded: Iterable[Path]) -> Cylinder:
    """Z(I \\ F) from outside: I canonical and through `checked_tree`, F
    through `checked_path` and branch extensions of I; else CylinderError."""
    if not is_canonical(I):
        raise CylinderError(f"tree {I!r} is not canonical")
    try:
        checked_tree(graph, I)
        exc = sorted_paths(graph, {checked_path(graph, f) for f in excluded})
    except IncompatiblePathsError as err:
        p, q = map(render_path, err.pair)
        raise CylinderError(f"tree {I!r} breaks the block rule at {p!r}, {q!r}") from None
    except WordError as err:
        raise CylinderError(str(err)) from None
    for f in exc:
        if not is_branch_extension(graph, I, f):
            raise CylinderError(f"{render_path(f)!r} is not a one-step branch extension of {I!r}")
    return Cylinder(I, exc)


def _cylinder(graph: SeparatedGraph, I: LowerSet, candidates: Iterable[Path]) -> Cylinder:
    """Z(I \\ F) for a canonical I made here, F the candidates `compatible_with`
    I.  That suffices: each is a branch extension of a subtree of I lying
    outside I, so its tail past I is still an inverse run closed by one
    positive edge, and it was checked as separated where it entered."""
    return Cylinder(I, sorted_paths(graph, {f for f in candidates if compatible_with(graph, I, f)}))


def branch_extensions(
    graph: SeparatedGraph, I: LowerSet, max_len: int, budget: Budget | None = None
) -> list[Path]:
    """All one-step extensions of I with length <= max_len: each inverse run
    from a member, closed by one positive edge, kept when it passes
    `is_branch_extension`.  I enters through `checked_tree`.  The budget is
    charged once per run."""
    budget = budget or Budget(context="branch extension enumeration")
    found: set[Path] = set()
    for g in checked_tree(graph, I).paths:
        for p in extensions(graph, g, max_len - 1, budget, inverse=True):
            if len(p.letters) < max_len:
                last = p.letters[-1] if p.letters else None
                found.update(
                    Path(p.base, p.letters + (x,))
                    for x, _ in steps(graph, path_range(graph, p), last)
                    if not x.inverse
                )
    return [f for f in sorted_paths(graph, found) if is_branch_extension(graph, I, f)]


def cylinder_member(graph: SeparatedGraph, Z: Truncation, B: Cylinder) -> bool:
    longest = max(len(p.letters) for p in max_elements(B.tree) + B.excluded)
    if Z.depth <= longest:
        raise SgisError(
            f"truncation depth {Z.depth} does not certify membership for "
            f"paths of length {longest}"
        )
    return is_subtree(B.tree, Z.paths) and not any(f in Z.paths for f in B.excluded)


def cylinder_intersect(graph: SeparatedGraph, B1: Cylinder, B2: Cylinder) -> Cylinder | None:
    """Z(I1\\F1) n Z(I2\\F2) = Z(I1 u I2 \\ F1 u F2), with the early exits:
    incompatible union, or an excluded path forced inside.  Constraints made
    vacuous by incompatibility with the union are dropped.  Both trees keep
    the block rule, so their union is one `merge_tries` under it."""
    J = merge_tries(graph, B1.tree, B2.tree, separated=True) if B1.tree.base == B2.tree.base else None
    if J is None:
        return None
    excluded = set(B1.excluded) | set(B2.excluded)
    if any(f in J for f in excluded):
        return None
    return _cylinder(graph, J, excluded)  # the others are incompatible with J


def cylinder_difference(graph: SeparatedGraph, B1: Cylinder, B2: Cylinder) -> list[Cylinder]:
    """B1 \\ B2 as a finite disjoint union of basic sets.

    Index families: for every maximal member of I2 outside I1, walk its
    segment ladder below the top rung and exclude the next rung; on top of
    that, for every eligible subset H of F2 \\ F1, force H inside and
    exclude the still-active constraints from F1 u F2.

    Every tree is a merge of tries.  One walk grows a list of (tree, next
    rungs) from I1, one missing tip at a time, in `itertools.product` order:
    each choice of rung is one merge with its chain, built once per rung
    (a rung ends positively, so canonical trees stay so).  Its last entry,
    every ladder at its top, is B1 n Z(I2) and is dropped.  The trees of the
    nonempty H are those of `chain_unions` over I1 u I2 and the sorted
    F2 \\ F1, in its order: a clash drops H and every H containing it.  B1
    and B2 are cylinders of `make_cylinder` or made from them.
    """
    inter = cylinder_intersect(graph, B1, B2)
    if inter is None:
        return [B1]

    I1, F1 = B1.tree, set(B1.excluded)
    I2, F2 = B2.tree, set(B2.excluded)
    out: list[Cylinder] = []

    choices = [(I1, [])]  # (tree, next rungs) per choice of rungs so far
    for h in sorted_paths(graph, [h for h in max_elements(I2) if h not in I1]):
        # the rungs: h cut after each positive letter past its longest prefix in I1
        k = I1.reach(h.letters)[1]
        rungs = [Path(h.base, h.letters[: i + 1]) for i in range(k, len(h.letters)) if not h.letters[i].inverse]
        chains = [chain_tree(rung) for rung in rungs]
        choices = [
            (merge_tries(graph, tree, chains[i - 1]) if i else tree, nexts + rungs[i : i + 1])
            for tree, nexts in choices
            for i in range(len(rungs) + 1)
        ]
    for In, forced_next in choices[:-1]:
        if any(f in In for f in forced_next):
            # ladders sharing a rung: the exclusion is forced inside the
            # tree, so this choice names the empty set
            continue
        out.append(_cylinder(graph, In, [*F1, *forced_next]))

    fresh = sorted_paths(graph, F2 - F1)
    for H, JH in chain_unions(graph, inter.tree, fresh):
        if H:  # the empty H is B1 n B2, not a part of the difference
            out.append(_cylinder(graph, JH, (F1 | F2).difference(map(fresh.__getitem__, H))))
    return out
