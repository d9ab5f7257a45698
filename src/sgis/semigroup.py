"""The Munn-tree engine: elements, products, inverses, normal forms.

An element is zero or a pair (tree, carrier) at one of three quotient levels.
Values of words, products and inverses are built by one walk, as in Munn's
construction: `_munn_tree` walks a word over a trie of its reduced prefixes,
so the tree is the set of nodes visited and the carrier the node where the
walk ends.  `evaluate` walks the word it is given.  An element is itself the
word of its normal form, each tip followed by its inverse and the carrier
last, so a product walks the two normal forms one after the other and an
inverse walks the formal inverse of one.  Only elements made from raw tree
data (`make_element`, `apply_automorphism`) are closed and canonicalized as
sets of paths.  Each level adds one rule to the one below it:

* FREE       -- plain Munn trees: any finite lower set containing the full
                carrier path; no separation constraints.
* TOEPLITZ   -- adds canonical trees: maximal members end positively, and only
                the carrier's positive part lies in the tree; the walk keeps
                the root and the ancestors of positively entered nodes.
* SEPARATED  -- adds compatibility: every tree member and the carrier are
                separated paths and the tree plus carrier closure is
                compatible; the walk checks this node by node and the
                element is zero when it fails.

Equality of elements is structural equality of (canonical tree, carrier,
level); normal-form uniqueness makes this semantic equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    ActionDomainError,
    BudgetExceededError,
    LevelMismatchError,
    SgisError,
    WordError,
)
from .graph import SeparatedGraph
from .paths import (
    FreeGroupWord,
    Letter,
    Path,
    compose,
    letter_key,
    letter_source,
    parse_tokens,
    path_inverse,
    path_range,
    positive_part,
    prefixes,
    render_path,
    star,
    to_free_word,
    vertex_path,
    word_from_atoms,
)
from .semilattice import (
    LowerSet,
    canonicalize,
    lower_closure_unchecked,
    max_elements,
)


class Level(Enum):
    FREE = "free"
    TOEPLITZ = "toeplitz"
    SEPARATED = "separated"


class ZeroElement:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"


ZERO = ZeroElement()


@dataclass(frozen=True)
class Element:
    tree: LowerSet
    carrier: Path
    level: Level

    def __hash__(self) -> int:
        # elements key the algebra's term dicts, so the deep hash is cached
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.tree, self.carrier, self.level))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"<{render_element(self)}>"


def _element(graph: SeparatedGraph, paths: set[Path], carrier: Path, level: Level) -> Element:
    """Close the tree at the carrier's source, canonicalize above the free
    level, and validate."""
    tree = lower_closure_unchecked(graph, paths, base=carrier.base)
    if level is not Level.FREE:
        tree = canonicalize(graph, tree)
    el = Element(tree, carrier, level)
    _check_element(graph, el)
    return el


def make_element(graph: SeparatedGraph, tree_paths: Iterable[Path], carrier: Path, level: Level) -> Element:
    """Normalize and validate an element from raw tree data."""
    paths = set(tree_paths)
    if level is Level.FREE:
        paths.update(prefixes(carrier))
    return _element(graph, paths, carrier, level)


def _check_element(graph: SeparatedGraph, a: Element) -> None:
    anchor = a.carrier if a.level is Level.FREE else positive_part(a.carrier)
    if anchor not in a.tree.paths:
        raise SgisError(f"carrier anchor {anchor!r} missing from tree {a.tree!r}")
    if a.tree.base != a.carrier.base:
        raise SgisError("tree and carrier disagree on the source vertex")


def _check_atom(graph: SeparatedGraph, atom: "str | Letter") -> None:
    if isinstance(atom, str):
        if atom not in graph.vertex_index:
            raise WordError(f"unknown vertex {atom!r}")
    elif atom.edge not in graph.edge_index:
        raise WordError(f"unknown edge {atom.edge!r}")


def from_letter(graph: SeparatedGraph, atom: "str | Letter", level: Level) -> Element:
    """Generator images: a vertex, an edge, or an inverse edge."""
    _check_atom(graph, atom)
    if isinstance(atom, str):
        v = vertex_path(atom)
        return Element(LowerSet(atom, (v,)), v, level)
    src = letter_source(graph, atom)
    p = Path(src, (atom,))
    # the length-0 vertex path sorts first; a canonical tree drops an inverse tip
    if atom.inverse and level is not Level.FREE:
        return Element(LowerSet(src, (vertex_path(src),)), p, level)
    return Element(LowerSet(src, (vertex_path(src), p)), p, level)


def _word(a: Element) -> list[Letter]:
    """The normal form `(p1)...(pn) | c` read as letters: each tip followed
    by its inverse, and the carrier last.  Its walk is a again."""
    letters: list[Letter] = []
    for t in max_elements(a.tree):
        letters += t.letters
        letters += star(t.letters)
    letters += a.carrier.letters
    return letters


def multiply(graph: SeparatedGraph, a, b):
    """Product of Munn trees: the walk of a's word followed by b's; zero on
    range mismatch or when the walk breaks the separated level's rule."""
    if a is ZERO or b is ZERO:
        return ZERO
    if a.level is not b.level:
        raise LevelMismatchError(f"{a.level} * {b.level}")
    if path_range(graph, a.carrier) != b.carrier.base:
        return ZERO
    el = _munn_tree(graph, a.carrier.base, _word(a) + _word(b), a.level)
    return ZERO if el is None else el


def inverse(graph: SeparatedGraph, a):
    """The walk of the formal inverse of a's word, from the carrier's range."""
    if a is ZERO:
        return ZERO
    el = _munn_tree(graph, path_range(graph, a.carrier), star(_word(a)), a.level)
    if el is None:
        raise SgisError(f"the inverse of {a!r} broke the separated rule")
    return el


def is_idempotent(a) -> bool:
    if a is ZERO:
        return True
    return not a.carrier.letters


def evaluate(graph: SeparatedGraph, atoms: Sequence["str | Letter"], level: Level = Level.SEPARATED):
    """The element of a word, built in one walk over its reduced prefixes.

    Every atom is checked first: an unknown vertex or edge raises WordError
    wherever it stands, also after a part of the word that is already zero.
    A word whose letters do not compose is zero; at the separated level so is
    a word whose tree breaks the local rule of `_munn_tree`.
    """
    if not atoms:
        raise WordError("empty word")
    for atom in atoms:
        _check_atom(graph, atom)
    word = word_from_atoms(graph, atoms)
    if word is None:
        return ZERO
    el = _munn_tree(graph, word.base, word.letters, level)
    return ZERO if el is None else el


def _munn_tree(
    graph: SeparatedGraph, base: str, word: Sequence[Letter], level: Level
) -> Element | None:
    """The element of a composable word from `base`; None when the separated
    level's rule fails.

    Nodes of the trie are ints; node 0 is the empty path at `base`.
    A letter cancelling the one that entered the current node moves to its
    parent, any other letter to a child.  The visited nodes are the free Munn
    tree.  At the separated level the positive letters leaving a node, plus
    e for a node entered by ~e, may use at most one edge per block: this is
    the local form of "every member separated and all pairwise compatible"
    (`is_compatible_set_by_configs`), checked as each node is added.  Above
    the free level only the root and the ancestors-or-self of nodes entered
    by a positive letter are kept, which is what `canonicalize` keeps.
    """
    separated = level is Level.SEPARATED
    parent = [0]
    entered: list[Letter | None] = [None]
    children: list[dict[tuple[str, bool], int]] = [{}]
    blocks: list[dict[int, str]] = [{}]  # block id -> the one edge it uses
    at = 0
    for x in word:
        y = entered[at]
        if y is not None and y.edge == x.edge and y.inverse != x.inverse:
            at = parent[at]
            continue
        child = children[at].get((x.edge, x.inverse))
        if child is None:
            child = len(parent)
            if separated:
                block = id(graph.block_of[x.edge])
                if not x.inverse and blocks[at].setdefault(block, x.edge) != x.edge:
                    return None
                blocks.append({block: x.edge} if x.inverse else {})
            parent.append(at)
            entered.append(x)
            children.append({})
            children[at][x.edge, x.inverse] = child
        at = child

    keep = [level is Level.FREE] * len(parent)
    keep[0] = True
    if level is not Level.FREE:
        for n, x in enumerate(entered):
            if x is not None and not x.inverse:
                up = n
                while not keep[up]:
                    keep[up] = True
                    up = parent[up]

    # breadth first, children in letter order: the length-lexicographic order
    letters: list[tuple[Letter, ...]] = [()] * len(parent)
    order = [0]
    for n in order:
        for c in sorted(children[n].values(), key=lambda c: letter_key(graph, entered[c])):
            if keep[c]:
                letters[c] = letters[n] + (entered[c],)
                order.append(c)
    tree = LowerSet(base, tuple(Path(base, letters[n]) for n in order))

    carrier: list[Letter] = []
    while at:
        carrier.append(entered[at])
        at = parent[at]
    el = Element(tree, Path(base, tuple(reversed(carrier))), level)
    _check_element(graph, el)
    return el


def evaluate_tokens(graph: SeparatedGraph, text: str, level: Level = Level.SEPARATED):
    return evaluate(graph, parse_tokens(graph, text.split()), level)


def render_element(a) -> str:
    """`(p1)(p2)...(pn) | carrier`: the tips in the tree's
    length-lexicographic order, which `max_elements` keeps."""
    if a is ZERO:
        return "0"
    factors = "".join(f"({render_path(p)})" for p in max_elements(a.tree))
    return f"{factors} | {render_path(a.carrier)}"


def normal_form(graph: SeparatedGraph, a) -> str:
    return render_element(a)


def natural_leq(graph: SeparatedGraph, a, b) -> bool:
    """a <= b iff carriers agree and b's tree is contained in a's."""
    if a is ZERO:
        return True
    if b is ZERO:
        return False
    if a.level is not b.level:
        raise LevelMismatchError(f"{a.level} <= {b.level}")
    return a.carrier == b.carrier and set(b.tree.paths) <= set(a.tree.paths)


def grading(a) -> FreeGroupWord:
    """The free-group letter of an element; identity exactly on idempotents."""
    if a is ZERO:
        raise SgisError("the zero element carries no grading")
    return to_free_word(a.carrier)


# -- partial action on canonical trees ---------------------------------------


def action_domain_contains(graph: SeparatedGraph, g: Path, tree: LowerSet) -> bool:
    """Membership in the domain ideal indexed by g: the tree sits at the
    source of g and contains g's positive part."""
    return tree.base == g.base and positive_part(g) in tree.paths


def act_on_tree(graph: SeparatedGraph, g: Path, tree: LowerSet) -> LowerSet:
    """Translate a canonical tree by g; defined when the tree lies in the
    domain of the inverse direction."""
    g_inv = path_inverse(graph, g)
    if not action_domain_contains(graph, g_inv, tree):
        raise ActionDomainError(
            f"tree {tree!r} is outside the domain of translation by {g!r}"
        )
    full = set(tree.paths) | set(prefixes(g_inv))
    moved = {compose(graph, g, t) for t in full}
    return canonicalize(graph, lower_closure_unchecked(graph, moved, base=g.base))


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class GraphAutomorphism:
    vertex_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str], ...]

    def vertex(self, v: str) -> str:
        return dict(self.vertex_map)[v]

    def edge(self, e: str) -> str:
        return dict(self.edge_map)[e]


def graph_automorphisms(
    graph: SeparatedGraph, budget: int = 10**6
) -> list[GraphAutomorphism]:
    """All pairs of bijections preserving source, range and the separation
    (blocks to blocks, cardinality flags included); brute force with a
    work budget."""
    results: list[GraphAutomorphism] = []
    n_checked = 0
    for perm in itertools.permutations(graph.vertices):
        vmap = dict(zip(graph.vertices, perm))
        n_checked += 1
        if n_checked > budget:
            raise BudgetExceededError(budget, "automorphism search")
        assignments = _edge_assignments(graph, vmap, budget)
        if assignments is None:
            continue
        for emap in assignments:
            results.append(
                GraphAutomorphism(
                    vertex_map=tuple(sorted(vmap.items())),
                    edge_map=tuple(sorted(emap.items())),
                )
            )
    results.sort(key=lambda a: (a.vertex_map, a.edge_map))
    return results


def _edge_assignments(graph, vmap, budget):
    """Per-block edge bijections consistent with a fixed vertex bijection."""
    block_choices: list[list[dict[str, str]]] = []
    for b in graph.blocks:
        targets = [
            c
            for c in graph.blocks_at[vmap[b.source]]
            if len(c.edges) == len(b.edges) and c.infinite == b.infinite
        ]
        maps_for_b: list[dict[str, str]] = []
        for c in targets:
            for image in itertools.permutations(c.edges):
                ok = all(
                    vmap[graph.range_of[e]] == graph.range_of[f]
                    for e, f in zip(b.edges, image)
                )
                if ok:
                    maps_for_b.append(dict(zip(b.edges, image)))
        if not maps_for_b:
            return None
        block_choices.append(maps_for_b)

    total = 1
    for choice in block_choices:
        total *= len(choice)
        if total > budget:
            raise BudgetExceededError(budget, "automorphism search")

    found: list[dict[str, str]] = []
    for combo in itertools.product(*block_choices):
        emap: dict[str, str] = {}
        clash = False
        used: set[str] = set()
        for part in combo:
            for e, f in part.items():
                if f in used:
                    clash = True
                    break
                used.add(f)
                emap[e] = f
            if clash:
                break
        if not clash and len(emap) == len(graph.edges):
            found.append(emap)
    return found


def apply_automorphism(graph: SeparatedGraph, phi: GraphAutomorphism, a):
    """Relabel every letter of the tree and the carrier."""
    if a is ZERO:
        return ZERO
    vmap = dict(phi.vertex_map)
    emap = dict(phi.edge_map)

    def move(p: Path) -> Path:
        return Path(vmap[p.base], tuple(Letter(emap[x.edge], x.inverse) for x in p.letters))

    return _element(graph, {move(p) for p in a.tree.paths}, move(a.carrier), a.level)
