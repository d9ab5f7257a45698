"""Finite lower sets of separated paths and the idempotent semilattice order.

A `LowerSet` stores a prefix-closed family of paths from one vertex, sorted
under the global length-lexicographic order, so equality is structural and
values are hashable.  Every tree is built by one walk, `munn_tree`, over a
trie of a word's reduced prefixes, held in three per-node arrays (parent,
entering letter, children); a family of paths is walked as the word
`tree_word` reads it, so closure, canonical form and meet are walks too.
The walk marks the tips (the nodes with no kept child) as it lists the
nodes, and the tree carries them, so `max_elements` is a read; a tree made
by the constructor finds its tips on first use.  The member set (`p in I`)
is built on first use.  Both are kept on the value, outside the fields, and
`compatible_with` is the one test of a path against a tree.  Compatibility
is the walk's per-node block rule: `lower_closure` raises on a violation,
`meet` gives None, and the unchecked variant serves the separated-level
basis search, which checks its families pairwise before it closes them.
Containment is `is_subtree`, a test of one tree's tips against the other's
members; the class order and the engine's natural order both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Container, Iterable, Sequence

from .errors import IncompatiblePathsError, WordError
from .graph import SeparatedGraph
from .paths import (
    Letter,
    Path,
    compatible,
    is_prefix,
    is_reduced,
    is_separated_path,
    letter_key,
    path_range,
    render_path,
    sorted_paths,
    star,
    steps,
)


@dataclass(frozen=True)
class LowerSet:
    base: str
    paths: tuple[Path, ...]

    def __contains__(self, p: Path) -> bool:
        cache = self.__dict__
        members = cache.get("_members")
        if members is None:
            members = cache["_members"] = frozenset(self.paths)
        return p in members

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


def tree_word(paths: Iterable[Path]) -> list[Letter]:
    """Each path followed by its inverse: a word whose Munn tree is the
    prefix closure of the (reduced) paths and whose walk ends where it began."""
    return [x for p in paths for x in p.letters + star(p.letters)]


def munn_tree(
    graph: SeparatedGraph,
    base: str,
    word: Sequence[Letter],
    *,
    separated: bool = False,
    canonical: bool = False,
):
    """The Munn tree of a composable word from `base` and the path where its
    walk ends, as `(LowerSet, Path)`.

    Nodes of the trie are ints; node 0 is the empty path at `base`.  Three
    per-node arrays hold the trie: each node's `parent`, the letter it was
    `entered` by, and its `children` by letter.  A letter cancelling the one
    that entered the current node moves to its parent, any other letter to a
    child.  The visited nodes are the tree.  With `separated`, the positive
    letters leaving a node, plus e for a node entered by ~e, use at most one
    edge per block: the local form of "every member separated and all
    pairwise compatible", checked as each node is added against a fourth
    array, the edge each block uses at the node.  A violation gives
    `(None, conflict)`: `conflict()` returns the two members that use one
    block at the failing node, in `sorted_paths` order, and builds them only
    when asked, so a zero costs no paths.  With `canonical`, only the root
    and the ancestors-or-self of positively entered nodes are kept: the
    canonical form of the tree.  A parent's id is below its children's, so
    one pass from the last node back marks them.  The pass that lists the
    kept nodes marks those with no kept child, and the tree keeps them as
    its tips, so `max_elements` reads them.
    """
    parent = [0]
    entered: list[Letter | None] = [None]
    children: list[dict[Letter, int]] = [{}]
    blocks: list[dict[int, str]] = [{}]  # block id -> the one edge it uses
    at = 0
    for x in word:
        if entered[at] is x._inverted:
            at = parent[at]
            continue
        child = children[at].get(x)
        if child is None:
            if separated:
                block = id(graph.block_of[x.edge])
                if not x.inverse and (e := blocks[at].setdefault(block, x.edge)) != x.edge:
                    return None, partial(_conflict, graph, base, parent, entered, at, x, e)
                blocks.append({block: x.edge} if x.inverse else {})
            child = len(parent)
            parent.append(at)
            entered.append(x)
            children.append({})
            children[at][x] = child
        at = child

    keep = [not canonical] * len(parent)
    keep[0] = True
    if canonical:
        for n in range(len(parent) - 1, 0, -1):
            if keep[n] or not entered[n].inverse:
                keep[n] = keep[parent[n]] = True

    # breadth first, children in letter order: the length-lexicographic order;
    # paths[i] is the path to order[i]
    order = [0]
    paths = [Path(base, ())]
    tips = []
    for i, n in enumerate(order):
        leaf = True
        kids = children[n].values()
        if len(kids) > 1:
            kids = sorted(kids, key=lambda c: letter_key(graph, entered[c]))
        for c in kids:
            if keep[c]:
                order.append(c)
                paths.append(Path(base, paths[i].letters + (entered[c],)))
                leaf = False
        if leaf:
            tips.append(paths[i])
    tree = LowerSet(base, tuple(paths))
    tree.__dict__["_tips"] = tuple(tips)
    return tree, _trie_path(base, parent, entered, at)


def _trie_path(base: str, parent: list[int], entered: list, n: int) -> Path:
    """The path from the root of the trie to node n."""
    letters: list[Letter] = []
    while n:
        letters.append(entered[n])
        n = parent[n]
    return Path(base, tuple(reversed(letters)))


def _conflict(graph: SeparatedGraph, base: str, parent, entered, at: int, x: Letter, e: str):
    """The two members that use one block at node `at` when x is added there:
    the child by x and the child by e, or `at` itself when it was entered by ~e."""
    here = _trie_path(base, parent, entered, at)
    new = Path(base, here.letters + (x,))
    if entered[at] is Letter(e, True):
        return here, new
    return sorted_paths(graph, [Path(base, here.letters + (Letter(e, False),)), new])


def _one_base(paths: Sequence[Path], base: str | None) -> str:
    bases = {p.base for p in paths}
    if base is not None:
        bases.add(base)
    if not bases:
        raise WordError("a lower set needs at least its base vertex")
    if len(bases) != 1:
        raise WordError(f"paths from several vertices: {sorted(bases)}")
    return next(iter(bases))


def lower_closure_unchecked(
    graph: SeparatedGraph, paths: Iterable[Path], base: str | None = None
) -> LowerSet:
    """Prefix closure of reduced paths from one vertex, without separation or
    compatibility checks."""
    paths = list(paths)
    return munn_tree(graph, _one_base(paths, base), tree_word(paths))[0]


def lower_closure(graph: SeparatedGraph, paths: Iterable[Path]) -> LowerSet:
    """Prefix closure of a compatible family of separated paths.

    Raises WordError for a member that is not reduced or not separated, or
    for mixed sources, and IncompatiblePathsError naming the two members
    that diverge at the node where the walk breaks the block rule.
    """
    paths = list(paths)
    base = _one_base(paths, None)
    for p in paths:
        if not is_reduced(p):
            raise WordError(f"path {render_path(p)!r} is not reduced")
        if not is_separated_path(graph, p):
            raise WordError(f"path {render_path(p)!r} is not separated")
    tree, end = munn_tree(graph, base, tree_word(paths), separated=True)
    if tree is None:
        raise IncompatiblePathsError(*end())
    return tree


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
    lower closure.  A tree built by `munn_tree` carries the tips its walk
    marked, so this is a read.  For a tree built by the constructor they are
    found on first use, by the rule that in a lower set a member is maximal
    iff it is no member's parent, and kept on I, as its member set is."""
    cache = I.__dict__
    tips = cache.get("_tips")
    if tips is None:
        parents = {p.letters[:-1] for p in I.paths if p.letters}
        tips = cache["_tips"] = tuple(p for p in I.paths if p.letters not in parents)
    return tips


def compatible_with(graph: SeparatedGraph, I: LowerSet, p: Path) -> bool:
    """p is compatible with every member of I.  The tips suffice: a member
    that diverges from p lies below a tip that diverges from p at the same
    place."""
    return all(compatible(graph, p, m) for m in max_elements(I))


def is_subtree(J: LowerSet, I: LowerSet) -> bool:
    """J is contained in I: every tip of J is a member of I.  The tips
    suffice, since I is a lower set and every member of J lies below a tip;
    they start at J's base, so trees at two vertices are never nested."""
    return all(t in I for t in max_elements(J))


def canonicalize(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """Largest member of the congruence class: the walk of the tips that
    keeps only the prefixes of their positive parts."""
    return munn_tree(graph, I.base, tree_word(max_elements(I)), canonical=True)[0]


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
    """Union when compatible over one vertex, else None (the zero): the walk
    of both tip words under the block rule."""
    if I.base != J.base:
        return None
    word = tree_word(max_elements(I)) + tree_word(max_elements(J))
    return munn_tree(graph, I.base, word, separated=True)[0]


def class_eq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    return canonicalize(graph, I) == canonicalize(graph, J)


def class_leq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    """Congruence-class order: [I] <= [J] iff J0 is contained in I0."""
    return is_subtree(canonicalize(graph, J), canonicalize(graph, I))


def config_letters_at(graph: SeparatedGraph, members: Container[Path], g: Path):
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
