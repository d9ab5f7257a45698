"""The Munn-tree engine: elements, products, inverses, normal forms.

An element is zero or a pair (tree, carrier) at one of three quotient levels.
Every element is built by one walk, `semilattice.munn_tree`, as in Munn's
construction: a word is walked over a trie of its reduced prefixes, so the
tree is the set of nodes visited and the carrier the node where the walk
ends.  The one exception is a product of two idempotents, whose tree is the
union of theirs, made by `semilattice.merge_tries`.  `evaluate` walks the
word it is given and `from_letter` a word of one letter.  An element is
walked as its tree's tour followed by its carrier, a word linear in the tree,
so any other product walks two such words one after the other and an
inverse walks the formal inverse of one.  An automorphism's image
(`apply_automorphism`) walks that word with every letter relabelled.  Raw
tree data (`make_element`) is walked as `tree_word` reads it, and a
translated tree (`act_on_tree`) as the translation followed by the tree's
tour.  `evaluate` and `from_letter` read their atoms once, inside a walk
with no base: a step back to the parent or to a child already made
composes by construction, so an atom's source is compared with the running
vertex only where the walk makes a node.  The engine's own walks are given
their base and read nothing.  The normal form is read off the trie:
`render_element` climbs from each tip to the root and joins the letters'
texts, building no path.  A tree and a carrier from outside enter by one
door, `make_element`; a walk always keeps its end's anchor, so the
operations trust the elements they build.  Each level adds one rule to the
one below it:

* FREE       -- plain Munn trees: any finite lower set containing the full
                carrier path; no separation constraints.
* TOEPLITZ   -- adds canonical trees: maximal members end positively, and only
                the carrier's positive part lies in the tree; the walk keeps
                the root and the ancestors of positively entered nodes.
* SEPARATED  -- adds compatibility: every tree member and the carrier are
                separated paths and the tree plus carrier closure is
                compatible; the walk checks this node by node and the
                element is zero when it fails.

An `Element` is a `paths.Frozen` value, as `paths.Path` is: its slots
are set once, assigning one raises FrozenInstanceError, and copies and
pickles are equal to it.  Equality of elements is structural equality of
(level, carrier, canonical tree), the level compared by identity; normal-form
uniqueness makes this semantic equality.  The hash is computed on first use
and kept on the element, as the algebra's term dicts key by elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    ActionDomainError,
    Budget,
    LevelMismatchError,
    SgisError,
    WordError,
)
from .graph import SeparatedGraph
from .paths import (
    FreeGroupWord,
    Frozen,
    Letter,
    Path,
    checked_path,
    path_inverse,
    path_range,
    positive_length,
    positive_part,
    reduced_path,
    render_path,
    star,
)
from .semilattice import (
    LowerSet,
    checked_tree,
    is_subtree,
    merge_tries,
    munn_tree,
    tree_word,
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


class Element(Frozen):
    """A tree, a carrier and a level: an immutable value, made by the engine
    or by `make_element`, and trusted by every operation.

    The three slots are set once, through their member descriptors, so a
    construction runs no generated code; `Frozen` makes assigning or
    deleting any slot raise FrozenInstanceError, and copying or pickling an
    element gives an equal one.  Two elements are equal when their levels are the same
    member and their carriers and then their trees are equal.  The hash is
    that of the trie's two arrays and the carrier's fields, which equality
    reads, computed on first use and kept in a fourth slot: elements key the
    algebra's term dicts, while most elements of words and products are
    never hashed."""

    __slots__ = ("tree", "carrier", "level", "_hash")

    def __init__(self, tree: LowerSet, carrier: Path, level: Level):
        _set_tree(self, tree)
        _set_carrier(self, carrier)
        _set_level(self, level)
        _set_hash(self, None)

    def __reduce__(self):
        return Element, (self.tree, self.carrier, self.level)

    def __eq__(self, other):
        if other.__class__ is Element:
            return self.level is other.level and self.carrier == other.carrier and self.tree == other.tree
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            tree, carrier = self.tree, self.carrier
            h = hash((tree.parent, tree.entered, carrier.base, carrier.letters))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"<{render_element(self)}>"


_set_tree = Element.tree.__set__
_set_carrier = Element.carrier.__set__
_set_level = Element.level.__set__
_set_hash = Element._hash.__set__


def make_element(graph: SeparatedGraph, tree_paths: Iterable[Path], carrier: Path, level: Level) -> Element:
    """The element of raw tree data: the paths and the carrier read by
    `checked_path` at the separated level and by `reduced_path` below it,
    walked from the carrier's source (with the carrier at the free level)
    and pruned above it.  A separated tree enters through `checked_tree`:
    the pruning keeps both members of a clash, each positively entered or
    an ancestor of such a node.  The carrier's anchor (the whole carrier at
    the free level, its positive part above) must be in the tree."""
    read = checked_path if level is Level.SEPARATED else reduced_path
    carrier = read(graph, carrier)
    paths = [read(graph, p) for p in tree_paths]
    if any(p.base != carrier.base for p in paths):
        raise WordError("tree and carrier disagree on the source vertex")
    word = tree_word(paths)
    if level is Level.FREE:
        word += carrier.letters
    tree = munn_tree(graph, carrier.base, word, canonical=level is not Level.FREE)[0]
    if level is Level.SEPARATED:
        checked_tree(graph, tree)
    letters = carrier.letters
    cut = len(letters) if level is Level.FREE else positive_length(letters)
    if tree.reach(letters)[1] < cut:
        raise SgisError(f"carrier anchor {Path(carrier.base, letters[:cut])!r} missing from tree {tree!r}")
    return Element(tree, carrier, level)


def from_letter(graph: SeparatedGraph, atom: "str | Letter", level: Level) -> Element:
    """Generator images: a vertex, an edge, or an inverse edge."""
    return Element(*_walk(graph, None, [atom], level), level)


def _word(a: Element) -> list[Letter]:
    """The tree's tour and then the carrier: 2(|T| - 1) + |c| letters, whose
    walk is a again."""
    return a.tree.tour() + list(a.carrier.letters)


def _walk(graph: SeparatedGraph, base: str | None, word: Sequence, level: Level):
    """`munn_tree` under the level's rules: the block rule at the separated
    level, the canonical pruning above the free level.  With no base the
    walk reads the word's atoms as it goes."""
    return munn_tree(
        graph, base, word, separated=level is Level.SEPARATED, canonical=level is not Level.FREE
    )


def multiply(graph: SeparatedGraph, a, b):
    """Product of Munn trees: the walk of a's word followed by b's; zero on
    range mismatch or when the walk breaks the separated level's rule.  Two
    idempotents multiply by their meet, a merge of the two trees (under the
    block rule at the separated level) that walks no word; their union is
    canonical and holds the root, its anchor."""
    if a is ZERO or b is ZERO:
        return ZERO
    if a.level is not b.level:
        raise LevelMismatchError(f"{a.level} * {b.level}")
    if path_range(graph, a.carrier) != b.carrier.base:
        return ZERO
    if not a.carrier.letters and not b.carrier.letters:
        tree = merge_tries(graph, a.tree, b.tree, separated=a.level is Level.SEPARATED)
        return ZERO if tree is None else Element(tree, a.carrier, a.level)
    tree, end = _walk(graph, a.carrier.base, _word(a) + _word(b), a.level)
    return ZERO if tree is None else Element(tree, end, a.level)


def inverse(graph: SeparatedGraph, a):
    """The walk of the formal inverse of a's word, from the carrier's range."""
    if a is ZERO:
        return ZERO
    tree, end = _walk(graph, path_range(graph, a.carrier), star(_word(a)), a.level)
    if tree is None:
        raise SgisError(f"the inverse of {a!r} broke the separated rule")
    return Element(tree, end, a.level)


def is_idempotent(a) -> bool:
    if a is ZERO:
        return True
    return not a.carrier.letters


def evaluate(graph: SeparatedGraph, atoms: Sequence["str | Letter"], level: Level = Level.SEPARATED):
    """The element of a word, built in one walk over its reduced prefixes
    that reads the atoms as it goes (`semilattice.munn_tree` with no base).

    The walk compares an atom's source with the running vertex only where
    it makes a node: a word whose atoms do not compose is zero, and so, at
    the separated level, is a word whose tree breaks the block rule.  An
    unknown vertex or edge raises WordError wherever it stands, also after
    a part of the word that is already zero.
    """
    tree, end = _walk(graph, None, atoms, level)
    return ZERO if tree is None else Element(tree, end, level)


def render_element(a) -> str:
    """`(p1)(p2)...(pn) | carrier`: the tips in the tree's
    length-lexicographic order, read off the trie.  Each tip is climbed to
    the root once and its letters' `text`s joined (`LowerSet.tip_texts`),
    so no path is built; a root-only tree prints its base."""
    if a is ZERO:
        return "0"
    return f"({')('.join(a.tree.tip_texts())}) | {render_path(a.carrier)}"


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
    return a.carrier == b.carrier and is_subtree(b.tree, a.tree)


def grading(a) -> FreeGroupWord:
    """The free-group letter of an element; identity exactly on idempotents."""
    if a is ZERO:
        raise SgisError("the zero element carries no grading")
    return a.carrier.letters


# -- partial action on canonical trees ---------------------------------------


def action_domain_contains(graph: SeparatedGraph, g: Path, tree: LowerSet) -> bool:
    """Membership in the domain ideal indexed by g, a path read by
    `reduced_path`: the tree contains g's positive part, so it sits at the
    source of g."""
    return positive_part(reduced_path(graph, g)) in tree


def act_on_tree(graph: SeparatedGraph, g: Path, tree: LowerSet) -> LowerSet:
    """Translate a canonical tree by g, a path read once by `reduced_path`;
    defined when the tree holds the positive part of g's inverse."""
    g_inv = path_inverse(graph, reduced_path(graph, g))
    if positive_part(g_inv) not in tree:
        raise ActionDomainError(
            f"tree {tree!r} is outside the domain of translation by {g!r}"
        )
    return munn_tree(graph, g.base, [*g.letters, *tree.tour()], canonical=True)[0]


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class GraphAutomorphism:
    vertex_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str], ...]


def graph_automorphisms(
    graph: SeparatedGraph, budget: int = 10**6
) -> list[GraphAutomorphism]:
    """All pairs of bijections of the vertices and of the edges that preserve
    source, range and the blocks (sizes and `infinite` flags included), sorted.

    One depth-first search, on its own stack rather than by recursion, maps
    the edges in declaration order: an edge goes to an unused edge, among the
    out-edges of its source's image once that is fixed, whose block matches
    and whose source, range and block extend the maps so far injectively.
    The vertices no edge touches are then permuted among themselves.  The
    budget pays one unit per candidate edge tried and |V| + |E| units per map
    emitted, one per pair it holds, so it bounds the memory of the answer."""
    spend = Budget(budget, "automorphism search").spend
    map_size = len(graph.vertices) + len(graph.edges)
    edges = graph.edges
    image: dict = {}  # vertex -> vertex, edge -> edge, Block -> Block; keys in the order set
    preimage: dict = {}
    stack: list = []  # (edge index, its candidates, len(image) before it)
    results: list[GraphAutomorphism] = []

    def take(x, y) -> bool:
        ok = image.get(x, y) == y and preimage.get(y, x) == x
        if ok:
            image[x], preimage[y] = y, x
        return ok

    def descend(i: int) -> None:
        if i < len(edges):
            s = edges[i][1]
            todo = graph.out_edges[image[s]] if s in image else graph.edge_index
            stack.append((i, iter(todo), len(image)))
            return
        rest = [v for v in graph.vertices if v not in image]
        fixed = [(v, image[v]) for v in graph.vertices if v in image]
        emap = tuple(sorted((e, image[e]) for e, _, _ in edges))
        for perm in itertools.permutations(rest):
            spend(map_size)
            results.append(GraphAutomorphism(tuple(sorted(fixed + list(zip(rest, perm)))), emap))

    descend(0)
    while stack:
        i, todo, mark = stack[-1]
        while len(image) > mark:
            del preimage[image.popitem()[1]]
        f = next(todo, None)
        if f is None:
            stack.pop()
            continue
        spend()
        e, s, r = edges[i]
        b, c = graph.block_of[e], graph.block_of[f]
        pairs = ((e, f), (s, graph.source_of[f]), (r, graph.range_of[f]), (b, c))
        if (len(b.edges), b.infinite) == (len(c.edges), c.infinite) and all(
            take(x, y) for x, y in pairs
        ):
            descend(i + 1)
    results.sort(key=lambda a: (a.vertex_map, a.edge_map))
    return results


def apply_automorphism(graph: SeparatedGraph, phi: GraphAutomorphism, a):
    """Relabel every letter of the tree and the carrier: the walk of a's
    word, the tour and then the carrier (2(|T| - 1) + |c| letters), with
    each letter relabelled, from the image of the carrier's source.  The
    walk's end is the relabelled carrier.  Automorphisms keep blocks, so
    only a hand-made tree that breaks the block rule has no image."""
    if a is ZERO:
        return ZERO
    move = {
        Letter(e, inv): Letter(f, inv) for e, f in phi.edge_map for inv in (False, True)
    }
    base = dict(phi.vertex_map)[a.carrier.base]
    tree, end = _walk(graph, base, list(map(move.__getitem__, _word(a))), a.level)
    if tree is None:
        raise SgisError(f"the image of {a!r} broke the separated rule")
    return Element(tree, end, a.level)
