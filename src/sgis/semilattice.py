"""Finite lower sets of separated paths and the idempotent semilattice order.

A `LowerSet` is the trie of a prefix-closed family of paths from one vertex:
per node its parent's index and the letter that enters it, the nodes
numbered in the global length-lexicographic order.  The encoding is
canonical, so equality and hashing compare two tuples, and a tree of n nodes
holds n letters, not one path per node; `_trie` is the one maker of such a
value from its arrays.  Trees are built from words by one walk, `munn_tree`,
over a trie of a word's reduced prefixes; with no base it reads a word from
outside as it goes, checking an atom only where it makes a node, and the
engine's own words, walked from their base, are not read.  A tree is spelled
by its tour (`I.tour()`, each trie edge down and back up), and a family of
paths given from outside by `tree_word`.  The walk numbers the kept nodes
and marks the tips (the nodes with no kept child) without building a path.
Two trees are joined without a word: `merge_tries` walks both tries at
once, breadth first, and gives their union, which is the meet of two
idempotents (`meet`, and the engine's product of two idempotents).  The
merge marks where each node's children start, and a merged tree finds its
tips from those marks on first use, as most unions only become keys of
algebra terms.  The tree of one reduced path is a chain trie, one node per
prefix, which `chain_tree` fills in directly; merged into a tree it adds
that path and its prefixes, so the spectrum's and the algebra's trees are a
tree merged with the chains of a few paths, and no word is walked.
`chain_unions` is the one walk over the unions of a tree with the chains of
each subset of a family of paths.
The paths (`I.paths`) and the tip paths (`max_elements`) are built from the
trie on first use and kept on the value, outside the fields;
`I.tip_texts()` renders the tips without them.  `I.reach` is the one descent
of the trie, by child lookups, and `I.configuration(n)` the local
configuration at node n.
Compatibility is the per-node block rule, `block_clash`: the walk checks it
as it adds a node, the merge across the two tries (`meet` gives None), and
`compatible_with`, the one test of a path against a tree, at the node where
the path leaves it.  Two edges clash only inside one block, so only a
positive letter of a block with two or more named edges can break the rule:
`block_clash` reads that letter's rivals in the graph's table
(`paths.letter_rivals`), and the walk and the merge fetch the table once per
call and never ask about a letter without rivals, such as every letter of a
freely separated graph.  A tree from outside enters through one door,
`checked_tree`, which reads the rule at every node (`block_rule_break`) and
names the first two members that clash; the engine's own unions call
`merge_tries` on trees it checked or built, and check nothing again.
Containment is `is_subtree`, a test of one tree's tips against the other
tree; the class order and the engine's natural order both use it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import IncompatiblePathsError, WordError
from .graph import SeparatedGraph
from .paths import (
    Letter,
    Path,
    _atom_ends,
    _unknown_atom,
    checked_path,
    compatible,
    is_prefix,
    is_separated_path,
    letter_ranks,
    letter_rivals,
    path_range,
    render_path,
    sorted_paths,
    star,
    steps,
)


@dataclass(frozen=True, init=False, repr=False)
class LowerSet:
    """A finite lower set of paths from `base`, held as its trie: node 0 is
    the empty path, and node i > 0 is the path to node `parent[i]` followed
    by the letter `entered[i]`.  The nodes are numbered in `sorted_paths`
    order, which is breadth first with children in letter order, so the
    encoding is canonical and the three fields are the value.  `parent` is
    nondecreasing, so the children of a node are consecutive nodes.

    `LowerSet(base, paths)` builds the value from the members in
    `sorted_paths` order.  When a tree is made, where each node's children
    start is marked; the walk and a chain also mark its tips (the nodes
    with no child), which any other tree reads off those marks on first
    use.  The paths and the tip paths are built on first use.  All of these
    are kept on the instance, outside the fields, so `==`, `hash` and
    `repr` read only the trie."""

    base: str
    parent: tuple[int, ...]
    entered: tuple[Letter | None, ...]

    def __init__(self, base: str, paths: Iterable[Path]):
        paths = tuple(paths)
        if not paths or paths[0].letters or any(p.base != base for p in paths):
            raise WordError(f"a lower set at {base!r} lists its base first, and paths from it only")
        index = {(): 0}
        parent, entered = [-1], [None]
        for i, p in enumerate(paths[1:], 1):
            up = index.get(p.letters[:-1])
            if up is None or up < parent[-1] or p.letters in index:
                raise WordError(
                    f"at {render_path(p)!r}: a lower set lists its members closed and in sorted_paths order"
                )
            index[p.letters] = i
            parent.append(up)
            entered.append(p.letters[-1])
        # node n's children are one run of the nondecreasing `parent`, from
        # first[n] to first[n + 1] - 1; a tip's run is empty
        first = tuple([bisect_left(parent, n, 1) for n in range(len(parent) + 1)])
        self.__dict__.update(base=base, parent=tuple(parent), entered=tuple(entered), _paths=paths, _first=first)

    @cached_property
    def _tip_ids(self) -> tuple[int, ...]:
        """The tips, the nodes whose run of children is empty: marked when
        the walk or a chain makes the tree, else read off `_first` on first
        use."""
        first = self._first
        return tuple([n for n in range(len(first) - 1) if first[n] == first[n + 1]])

    @property
    def paths(self) -> tuple[Path, ...]:
        """The members in `sorted_paths` order, built on first use."""
        cache = self.__dict__
        paths = cache.get("_paths")
        if paths is None:
            base = self.base
            paths = [Path(base, ())]
            for up, x in zip(self.parent[1:], self.entered[1:]):
                paths.append(Path(base, paths[up].letters + (x,)))
            paths = cache["_paths"] = tuple(paths)
        return paths

    def reach(self, letters: Sequence[Letter]) -> tuple[int, int]:
        """The one descent, by child lookups from the root: the node of the
        letters' longest prefix in the tree, and that prefix's length."""
        first, entered = self._first, self.entered
        n = 0
        for k, x in enumerate(letters):
            try:
                n = entered.index(x, first[n], first[n + 1])
            except ValueError:
                return n, k
        return n, len(letters)

    def tip_texts(self) -> list[str]:
        """Each tip as `render_path` renders its path, in tree order: climbed
        to the root once and its letters' `text`s joined, with no path
        built; the root as a tip is the base."""
        parent, entered, base = self.parent, self.entered, self.base
        out = []
        for n in self._tip_ids:
            climb = []
            while n:
                climb.append(entered[n].text)
                n = parent[n]
            climb.reverse()
            out.append(" ".join(climb) or base)
        return out

    def children(self, n: int) -> tuple[Letter, ...]:
        """The letters of node n's children, the nodes `_first[n]` to `_first[n + 1] - 1`."""
        return self.entered[self._first[n] : self._first[n + 1]]

    def configuration(self, n: int) -> tuple[Letter, ...]:
        """Node n's local configuration: its children's letters and the letter back to its parent."""
        return self.children(n) + ((self.entered[n]._inverted,) if n else ())

    def tour(self) -> list[Letter]:
        """Each trie edge walked down and back up, depth first with children
        in tree order: 2(|T| - 1) letters, whose walk visits every node and
        ends at the root.  One loop on a stack, so any depth is walked."""
        entered, first = self.entered, self._first
        word: list[Letter] = []
        todo = list(range(first[1] - 1, 0, -1))  # the root's children, the first on top
        while todo:
            n = todo.pop()
            if n < 0:  # back up out of node ~n
                word.append(entered[~n]._inverted)
            else:
                word.append(entered[n])
                todo.append(~n)
                todo += range(first[n + 1] - 1, first[n] - 1, -1)
        return word

    def __contains__(self, p: Path) -> bool:
        return p.base == self.base and self.reach(p.letters)[1] == len(p.letters)

    def __len__(self) -> int:
        return len(self.parent)

    def __repr__(self) -> str:
        return render_lower_set(self)


def _trie(base: str, parent: tuple, entered: tuple, first: tuple, tips: tuple | None = None) -> LowerSet:
    """The one maker of a trie value from its arrays, all tuples: the two
    fields, where each node's children start, and the tips when the maker
    has them; else `_tip_ids` reads them off `_first` on first use."""
    tree = object.__new__(LowerSet)
    cache = tree.__dict__
    cache.update(base=base, parent=parent, entered=entered, _first=first)
    if tips is not None:
        cache["_tip_ids"] = tips
    return tree


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
    prefix closure of the (reduced) paths and whose walk ends where it began:
    for families given from outside, as a tree is spelled by its tour."""
    return [x for p in paths for x in p.letters + star(p.letters)]


def munn_tree(
    graph: SeparatedGraph,
    base: str | None,
    word: Sequence[Letter | str],
    *,
    separated: bool = False,
    canonical: bool = False,
):
    """The Munn tree of a composable word from `base` and the path where its
    walk ends, as `(LowerSet, Path)`.

    Nodes of the trie are ints; node 0 is the empty path at `base`.  Four
    per-node arrays hold the trie: each node's `parent`, the letter it was
    `entered` by, the letter back to its parent (in `backs`, None at the
    root), and its `children` by letter.  The letter back moves to the
    parent, any other letter to a child.  The visited nodes are the tree.
    With `separated`, the positive letters leaving a node, plus e for a node
    entered by ~e, use at most one edge per block: the local form of "every
    member separated and all pairwise compatible", checked by `block_clash`
    as a positive letter adds a child, against the node's children and the
    letter back.  The walk fetches the graph's `letter_rivals` table once
    and asks `block_clash` only about a letter in it: a letter without
    rivals clashes with nothing, so on a freely separated graph no node is
    checked.  A violation gives `(None, None)`; `block_rule_break` names
    the two members that clash.

    A missing base marks a word from outside, `evaluate`'s atoms (vertices
    and letters), which the walk reads as it goes: the base is the first
    atom's source, and each node keeps its vertex.  A step back to the
    parent or to a child the walk made composes by construction: the letter
    back starts where the node's letter ends, and a child's letter was
    checked when the child was made.  So only the branch that makes a node
    compares the atom's source, read from the graph's table of atom ends
    (`paths._atom_ends`), with the running vertex.  A vertex atom is never
    the letter back nor a child's letter, so it lands there too; it adds no
    node.  A word that stops composing, or breaks the block rule, is zero
    once the rest of it holds no unknown atom: an unknown vertex or edge
    raises WordError naming the first, wherever it stands.  A walk given its
    base reads nothing and checks nothing of the kind: the engine walks
    words it built.

    With `canonical`, only the root and the ancestors-or-self of positively
    entered nodes are kept: the canonical form of the tree.  A parent's id is
    below its children's, so one pass from the last node back marks them and
    unlinks the rest.  The pass that numbers the kept nodes in `sorted_paths`
    order gives the tree its two arrays, and marks the nodes with no kept
    child as its tips; it builds no path.  It sorts only the children of a
    node with several, by `letter_ranks`, fetched once, at the first such
    node.
    """
    reading = base is None
    atoms = iter(word)
    if reading:
        if not word:
            raise WordError("empty word")
        sources, ranges = _atom_ends(graph)
        if word[0] not in sources:
            raise _unknown_atom(word[0])
        base = sources[word[0]]
        vertex = [base]  # each node's vertex
    # the letters that can break the block rule, none below the separated
    # level; the letter order, fetched at the first node with two children
    rivals = letter_rivals(graph) if separated else None
    rank = None
    parent = [0]
    entered: list[Letter | None] = [None]
    children: list[dict[Letter, int]] = [{}]
    backs: list[Letter | None] = [None]  # each node's letter back to its parent
    at = 0
    for x in atoms:
        if backs[at] is x:
            at = parent[at]
            continue
        kids = children[at]
        child = kids.get(x)
        if child is None:
            if reading:
                if sources.get(x) != vertex[at]:
                    return _zero(sources, (x, *atoms))
                if x.__class__ is str:  # a vertex atom at the running vertex
                    continue
                vertex.append(ranges[x])
            if rivals and x in rivals:
                if block_clash(graph, (*kids, backs[at]) if at else kids, x) is not None:
                    return _zero(sources, atoms) if reading else (None, None)
            child = len(parent)
            parent.append(at)
            entered.append(x)
            backs.append(x._inverted)
            children.append({})
            kids[x] = child
        at = child

    if canonical:
        # a node that is not kept has no kept descendant: unlink it
        keep = [False] * len(parent)
        for n in range(len(parent) - 1, 0, -1):
            if keep[n] or not entered[n].inverse:
                keep[n] = keep[parent[n]] = True
            else:
                del children[parent[n]][entered[n]]

    # breadth first, children in letter order: the length-lexicographic order;
    # node order[i] of the walk is node i of the tree, up[i] its parent there
    order = [0]
    up = [-1]
    first = []  # node i's children are the nodes first[i] .. first[i + 1] - 1
    tips = []
    for i, n in enumerate(order):
        first.append(len(order))
        kids = children[n]
        if not kids:
            tips.append(i)
        elif len(kids) == 1:
            order += kids.values()
            up.append(i)
        else:
            if rank is None:
                rank = letter_ranks(graph)
            order += map(kids.__getitem__, sorted(kids, key=rank.__getitem__))
            up += [i] * len(kids)
    first.append(len(order))
    tree = _trie(base, tuple(up), tuple(map(entered.__getitem__, order)), tuple(first), tuple(tips))
    return tree, Path(base, _climb(parent, entered, at))


def _zero(known: dict, rest: Iterable) -> tuple[None, None]:
    """A read word's zero, `(None, None)`, once no atom of the rest of it is
    unknown; else a WordError names the first that is."""
    for a in rest:
        if a not in known:
            raise _unknown_atom(a)
    return None, None


def chain_tree(p: Path) -> LowerSet:
    """The tree of one reduced path: a chain trie, node k the prefix of p
    of length k, its tip p.  Built straight from p's letters, with no walk;
    the caller has checked that p is reduced and separated."""
    n = len(p.letters)
    return _trie(p.base, (-1, *range(n)), (None, *p.letters), (*range(1, n + 2), n + 1), (n,))


def block_rule_break(graph: SeparatedGraph, I: LowerSet) -> tuple[Path, Path] | None:
    """The first two members of I that break the block rule, in
    `sorted_paths` order, or None: `block_clash` at every node's
    `configuration`.  The letter found first to clash is a child's, as the
    configuration lists the children first; the other member is the node
    itself when the letter back to its parent uses the block, else a later
    child."""
    parent, entered, first = I.parent, I.entered, I._first
    for n in range(len(I)):
        config = I.configuration(n)
        for k, x in enumerate(config):
            e = block_clash(graph, config, x)
            if e is None:
                continue
            if entered[n] is Letter(e, True):
                pair = (n, first[n] + k)
            else:
                pair = (first[n] + k, entered.index(Letter(e), first[n], first[n + 1]))
            return tuple(Path(I.base, _climb(parent, entered, m)) for m in pair)
    return None


def checked_tree(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """I, once it keeps the block rule, the one check of a tree from
    outside; else IncompatiblePathsError names the clash `block_rule_break` finds."""
    clash = block_rule_break(graph, I)
    if clash is not None:
        raise IncompatiblePathsError(*clash)
    return I


def block_clash(graph: SeparatedGraph, letters: Iterable[Letter], x: Letter) -> str | None:
    """The block rule at one node: the edge of x's block that another
    positive letter among `letters` already uses, or None.  The rule's one
    home.  It reads x's rivals in the graph's `letter_rivals` table: a
    letter without rivals (an inverse letter, or the one named edge of its
    block) clashes with nothing and gives None at once; otherwise the first
    of `letters` that is a rival is the clash."""
    rivals = letter_rivals(graph).get(x)
    if rivals:
        for y in letters:
            if y in rivals:
                return y.edge
    return None


def _one_base(paths: Sequence[Path]) -> str:
    bases = {p.base for p in paths}
    if not bases:
        raise WordError("a lower set needs at least its base vertex")
    if len(bases) != 1:
        raise WordError(f"paths from several vertices: {sorted(bases)}")
    return next(iter(bases))


def lower_closure_unchecked(graph: SeparatedGraph, paths: Iterable[Path]) -> LowerSet:
    """Prefix closure of reduced paths from one vertex, without separation or
    compatibility checks."""
    paths = list(paths)
    return munn_tree(graph, _one_base(paths), tree_word(paths))[0]


def lower_closure(graph: SeparatedGraph, paths: Iterable[Path]) -> LowerSet:
    """Prefix closure of a compatible family of separated paths.

    Raises WordError for a member that `checked_path` rejects, or for mixed
    sources, and IncompatiblePathsError naming the first two members of the
    closure that break the block rule (`checked_tree`), whatever order the
    paths come in.
    """
    return checked_tree(graph, lower_closure_unchecked(graph, [checked_path(graph, p) for p in paths]))


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
    lower closure.  In a lower set a member is maximal iff it is no member's
    parent: a tip of the trie, which the walk or the constructor marks.
    Each tip's path is read by climbing from it to the root, once, and kept
    on I."""
    cache = I.__dict__
    tips = cache.get("_tips")
    if tips is None:
        base, parent, entered = I.base, I.parent, I.entered
        tips = cache["_tips"] = tuple([Path(base, _climb(parent, entered, n)) for n in I._tip_ids])
    return tips


def _climb(parent: Sequence[int], entered: Sequence, n: int) -> tuple[Letter, ...]:
    """The letters from the root of a trie to node n."""
    letters = []
    while n > 0:
        letters.append(entered[n])
        n = parent[n]
    letters.reverse()
    return tuple(letters)


def compatible_with(graph: SeparatedGraph, I: LowerSet, p: Path) -> bool:
    """p is compatible with every member of I, a tree that keeps the block
    rule: a member leaving p's descent earlier is compatible with the member
    p follows, so only p's next letter where it leaves I can clash."""
    if p.base != I.base:
        raise WordError(f"compatibility undefined across vertices {p.base!r}, {I.base!r}")
    n, k = I.reach(p.letters)
    return k == len(p.letters) or block_clash(graph, I.children(n), p.letters[k]) is None


def is_subtree(J: LowerSet, I: LowerSet) -> bool:
    """J is contained in I: every tip of J is a member of I.  The tips
    suffice, since I is a lower set and every member of J lies below a tip;
    they start at J's base, so trees at two vertices are never nested."""
    return all(t in I for t in max_elements(J))


def canonicalize(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """Largest member of the congruence class: the walk of the tour that
    keeps the positive parts' prefixes; a canonical I is returned as it is."""
    return I if is_canonical(I) else munn_tree(graph, I.base, I.tour(), canonical=True)[0]


def is_canonical(I: LowerSet) -> bool:
    """Every tip is the root or entered by a positive letter."""
    entered = I.entered
    return not any(n and entered[n].inverse for n in I._tip_ids)


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


def merge_tries(
    graph: SeparatedGraph, I: LowerSet, J: LowerSet, *, separated: bool = False
) -> LowerSet | None:
    """The union of two trees at one base, by one breadth-first walk of both
    tries at once: Munn's union of trees.

    Both tries number their nodes in `sorted_paths` order, breadth first with
    siblings in letter order, and so does the union.  The walk keeps one
    cursor in each trie and numbers the union's nodes as it goes, so each
    cursor's parent already has its number in the union: the node whose
    parent comes first is next, and under one parent the node whose letter
    comes first by `letter_ranks`.  A node of both tries (one parent, one
    letter) is taken once.  With `separated`, a positive letter of J taken
    under a node of I whose children hold a different positive edge of its
    block gives None: each tree keeps the block rule on its own, and a node
    of both is entered by the same letter in both, so this cross check is
    the whole rule.  The merge fetches the graph's `letter_rivals` table
    once and asks `block_clash` only about a letter of J in it, since a
    letter without rivals clashes with nothing.  A union of canonical trees
    is canonical.

    Where each node's children start is marked on the way.  The union's
    parents arrive in nondecreasing order, so a node appended under a parent
    p whose children have not started yet is p's first child, and the first
    of every unmarked node before p, which has none.  After the walk the
    nodes still unmarked start at the length.  The tips are not marked: most
    unions only become keys of algebra terms, and `_tip_ids` reads them off
    the marks on first use."""
    rank = letter_ranks(graph)
    rivals = letter_rivals(graph) if separated else None
    parent1, entered1 = I.parent, I.entered
    parent2, entered2 = J.parent, J.entered
    end1, end2 = len(parent1), len(parent2)
    at1, at2 = [0] * end1, [0] * end2  # a node of I, of J -> its node in the union
    of1 = [0]  # a node of the union -> its node in I, -1 for none
    parent: list[int] = [-1]
    entered: list[Letter | None] = [None]
    first: list[int] = []  # where the children of nodes 0 .. marked - 1 start
    marked = 0
    done = end1 + end2  # the parent of a finished cursor: after every node
    i = j = 1
    while i < end1 or j < end2:
        n = len(parent)
        p = at1[parent1[i]] if i < end1 else done
        q = at2[parent2[j]] if j < end2 else done
        if p != q:
            mine = p < q
        elif entered1[i] is entered2[j]:  # a node of both, taken once as I's
            at2[j] = n
            j += 1
            mine = True
        else:
            mine = rank[entered1[i]] < rank[entered2[j]]
        if mine:
            x = entered1[i]
            at1[i] = n
            of1.append(i)
            i += 1
        else:
            x, p = entered2[j], q
            if rivals and x in rivals and (k := of1[q]) >= 0:
                if block_clash(graph, I.children(k), x) is not None:
                    return None
            at2[j] = n
            of1.append(-1)
            j += 1
        if p >= marked:  # n is p's first child, and the nodes between have none
            first += [n] * (p + 1 - marked)
            marked = p + 1
        parent.append(p)
        entered.append(x)
    n = len(parent)
    first += [n] * (n + 1 - marked)
    return _trie(I.base, tuple(parent), tuple(entered), tuple(first))


def meet(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> LowerSet | None:
    """e(I) e(J) = e(I u J) in the semilattice: the union when the two trees
    lie over one vertex and together keep the block rule, else None (the
    zero).  I and J enter through `checked_tree`, so `merge_tries` under the
    rule need check only across them."""
    I, J = checked_tree(graph, I), checked_tree(graph, J)
    if I.base != J.base:
        return None
    return merge_tries(graph, I, J, separated=True)


def chain_unions(graph: SeparatedGraph, I: LowerSet, paths: Sequence[Path]):
    """Each index set S of `paths` whose union I u {S} keeps the block rule,
    with that union, as `(S, tree)`: by size, then by index, the empty set
    first.  A level is grown from the survivors of the level below, each
    merged with the `chain_tree` of one later path under the rule, so a
    clash drops every superset unseen.  I keeps the rule, and each path is
    reduced and separated, from I's base."""
    chains = [chain_tree(p) for p in paths]
    level = [((), I)]
    while level:
        yield from level
        level = [
            (S + (k,), grown)
            for S, tree in level
            for k in range(S[-1] + 1 if S else 0, len(chains))
            if (grown := merge_tries(graph, tree, chains[k], separated=True)) is not None
        ]


def class_eq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    return canonicalize(graph, I) == canonicalize(graph, J)


def class_leq(graph: SeparatedGraph, I: LowerSet, J: LowerSet) -> bool:
    """Congruence-class order: [I] <= [J] iff J0 is contained in I0."""
    return is_subtree(canonicalize(graph, J), canonicalize(graph, I))


def is_compatible_set_by_configs(graph: SeparatedGraph, paths: Sequence[Path]) -> bool:
    """Local-configuration route, cross-checked against the pairwise route
    `is_separated_compatible_family`: at every member g, the letters x with
    red(g x) in the set must use at most one edge per block."""
    if not all(is_separated_path(graph, p) for p in paths):
        return False
    members = set(paths)
    for g in members:
        back = ~g.letters[-1] if g.letters else None
        seen_blocks: set[int] = set()
        for x, _ in steps(graph, path_range(graph, g)):
            if x.inverse or not (x == back or Path(g.base, g.letters + (x,)) in members):
                continue
            key = id(graph.block_of[x.edge])
            if key in seen_blocks:
                return False
            seen_blocks.add(key)
    return True
