"""Exact arithmetic in the rational semigroup algebra on the normal-form basis.

An `AlgebraElement` is a finite map from nonzero separated-level elements to
nonzero rationals, each an `int` or a `Fraction`: the cylinder identities
add and subtract basis elements, so their coefficients stay ints.  The
involution is conjugate-linear extension of the semigroup inverse; over the
rationals the conjugation is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .errors import Budget, SgisError, WordError
from .graph import Block, SeparatedGraph
from .paths import (
    Letter,
    Path,
    checked_path,
    extensions,
    letter_ranks,
    path_key,
    positive_part,
    render_path,
    sorted_paths,
    vertex_path,
)
from .semigroup import (
    ZERO,
    Element,
    Level,
    from_letter,
    inverse,
    multiply,
    render_element,
)
from .semilattice import (
    LowerSet,
    canonicalize,
    chain_tree,
    chain_unions,
    checked_tree,
    compatible_with,
    is_subtree,
    merge_tries,
)

Scalar = Fraction | int


def element_sort_key(graph: SeparatedGraph, el: Element):
    """The basis order: carrier (vertex, then `path_key`), tree size, then the
    trie's (parent, letter) pairs node by node, which order trees of one size
    at one base as their member paths do."""
    return (_carrier_key(graph, el.carrier), *_tree_key(graph, el.tree))


def _carrier_key(graph: SeparatedGraph, c: Path):
    return (graph.vertex_index[c.base], *path_key(graph, c))


def _tree_key(graph: SeparatedGraph, tree: LowerSet):
    return len(tree), tuple(zip(tree.parent[1:], map(letter_ranks(graph).__getitem__, tree.entered[1:])))


class AlgebraElement:
    """Finite rational combination of basis elements; immutable by convention."""

    __slots__ = ("graph", "terms")

    def __init__(self, graph: SeparatedGraph, terms: Mapping[Element, Scalar] | None = None):
        self.graph = graph
        terms = {el: Fraction(c) for el, c in (terms or {}).items() if el is not ZERO}
        self.terms = {el: c for el, c in terms.items() if c}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _clean(cls, graph: SeparatedGraph, terms: dict[Element, Scalar]) -> "AlgebraElement":
        """From terms whose keys are nonzero elements and whose values are
        ints or Fractions: only the zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.graph = graph
        out.terms = {el: c for el, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, graph: SeparatedGraph) -> "AlgebraElement":
        return cls._clean(graph, {})

    @classmethod
    def of(cls, graph: SeparatedGraph, el, coeff: Scalar = 1) -> "AlgebraElement":
        """The single term coeff·el; an int coefficient stays an int."""
        if el is ZERO:
            return cls.zero(graph)
        return cls._clean(graph, {el: coeff if isinstance(coeff, int) else Fraction(coeff)})

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        acc = dict(self.terms)
        for el, c in other.terms.items():
            prev = acc.get(el)
            acc[el] = c if prev is None else prev + c
        return AlgebraElement._clean(self.graph, acc)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._clean(self.graph, {el: -c for el, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, c: Scalar) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement._clean(self.graph, {el: c * d for el, d in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        acc: dict[Element, Scalar] = {}
        for s, c in self.terms.items():
            for t, d in other.terms.items():
                st = multiply(self.graph, s, t)
                if st is not ZERO:
                    prev = acc.get(st)
                    acc[st] = c * d if prev is None else prev + c * d
        return AlgebraElement._clean(self.graph, acc)

    def star(self) -> "AlgebraElement":
        return AlgebraElement._clean(
            self.graph, {inverse(self.graph, el): c for el, c in self.terms.items()}
        )

    def is_idempotent(self) -> bool:
        return self * self == self

    def __repr__(self) -> str:
        return render_algebra_element(self.graph, self)


def render_algebra_element(graph: SeparatedGraph, a: AlgebraElement) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for el in sorted(a.terms, key=lambda e: element_sort_key(graph, e)):
        parts.append(f"{a.terms[el]}·[{render_element(el)}]")
    return " + ".join(parts)


# -- distinguished idempotents -------------------------------------------------


def idempotent_of(graph: SeparatedGraph, I: LowerSet) -> AlgebraElement:
    """The basis idempotent whose tree is the canonical form of I.  I may
    come from outside, so it enters through `checked_tree`: a tree that
    breaks the block rule raises IncompatiblePathsError with two members
    that clash, as its idempotent is zero."""
    return _idempotent(graph, checked_tree(graph, I))


def _idempotent(graph: SeparatedGraph, I: LowerSet) -> AlgebraElement:
    """`idempotent_of` a tree that keeps the block rule, with no check."""
    tree = canonicalize(graph, I)
    return AlgebraElement.of(graph, Element(tree, vertex_path(tree.base), Level.SEPARATED))


def path_element(graph: SeparatedGraph, p: Path) -> AlgebraElement:
    """The image of a separated path p as a single partial isometry: p
    enters through `checked_path`, and the element's tree is the chain of
    p's positive part, which keeps the block rule."""
    tree = chain_tree(positive_part(checked_path(graph, p)))
    return AlgebraElement.of(graph, Element(tree, p, Level.SEPARATED))


def branch_gap(graph: SeparatedGraph, head: Path, tail_letters: Sequence[Letter]) -> AlgebraElement:
    """head*head^star minus the longer projection head.tail (tail an inverse
    run closed by one positive edge); the defect of one branch extension.
    The extended path is checked by `checked_path`, and with it the head, so
    both chains keep the block rule and their idempotents are made unchecked."""
    if not tail_letters or tail_letters[-1].inverse or not all(
        x.inverse for x in tail_letters[:-1]
    ):
        raise WordError("tail must be an inverse run closed by one positive edge")
    whole = checked_path(graph, Path(head.base, head.letters + tuple(tail_letters)))
    return _idempotent(graph, chain_tree(head)) - _idempotent(graph, chain_tree(whole))


def cylinder_idempotent(graph: SeparatedGraph, B) -> AlgebraElement:
    """The idempotent of the basic open set Z(I \\ F), e(I) times (1 - e(f))
    for each excluded f, as its inclusion-exclusion sum:

        e(Z(I \\ F)) = sum over the subsets S of F of (-1)^|S| e(I u S),

    where I u S is I merged with the chain of each member of S, and a union
    that breaks the block rule is zero.  The trees are those of
    `chain_unions(graph, I, F)`, which never builds a superset of a zero.
    The terms are distinct, so each keeps its coefficient +1 or -1: every f
    is a one-step branch extension of I, ending in its one positive letter
    outside I, so f lies in I u S iff f is in S.  B is a cylinder of
    `make_cylinder` or made from one: I is canonical and keeps the block
    rule, and each f is reduced and separated.  The product equals e(I)
    times one `branch_gap` per f: the head of f, its longest prefix in I, is
    a member of I, so e(I) e(head) = e(I)."""
    vertex = vertex_path(B.tree.base)
    terms = {
        Element(tree, vertex, Level.SEPARATED): (-1) ** len(S)
        for S, tree in chain_unions(graph, B.tree, B.excluded)
    }
    return AlgebraElement._clean(graph, terms)


def block_complement(graph: SeparatedGraph, block: Block) -> AlgebraElement:
    """v minus the range projections of a finite block, the idempotents of its edges' chains."""
    if block.infinite:
        raise SgisError(f"block {block.name!r} is infinite; its complement is not an element")
    acc = AlgebraElement.of(graph, from_letter(graph, block.source, Level.SEPARATED))
    for e in block.edges:
        acc = acc - _idempotent(graph, chain_tree(Path(block.source, (Letter(e, False),))))
    return acc


def or_join(p: AlgebraElement, q: AlgebraElement) -> AlgebraElement:
    """p + q - pq on commuting idempotents."""
    if p.graph is not q.graph:
        raise SgisError("operands live over different graphs")
    if p * q != q * p:
        raise SgisError("or_join requires commuting idempotents")
    if not p.is_idempotent() or not q.is_idempotent():
        raise SgisError("or_join requires idempotent operands")
    return p + q - p * q


# -- covers --------------------------------------------------------------------


@dataclass(frozen=True)
class CoverVerdict:
    counterexample: LowerSet | None
    max_len: int

    @property
    def covered(self) -> bool:
        return self.counterexample is None

    def render(self) -> str:
        if self.covered:
            return f"no counterexample up to max-len={self.max_len}"
        return f"counterexample {self.counterexample!r}"


def bounded_cover_check(
    graph: SeparatedGraph,
    I: LowerSet,
    covering: Sequence[LowerSet],
    max_len: int,
    budget: Budget | None = None,
) -> CoverVerdict:
    """Semi-decision: search for a canonical extension of I (paths up to
    max_len) incompatible with every covering tree.

    A counterexample exists iff a pairwise-compatible selection of witness
    paths does, one killing each covering tree, so the search runs over
    witness tuples rather than over all canonical extensions.  It carries
    the tree of I and the witnesses so far, each new witness merged in as
    its chain: a candidate joins iff it is `compatible_with` that tree, a
    covering tree is still to be killed iff its `merge_tries` with the tree
    under the block rule is not zero, and the counterexample is the tree's
    canonical form.  I and the covering trees enter through `checked_tree`.
    """
    budget = budget or Budget(context="cover counterexample search")
    checked_tree(graph, I)
    for Z in covering:
        if not is_subtree(I, checked_tree(graph, Z)):
            raise SgisError("covering trees must extend the covered tree")
    if not covering:
        raise SgisError("empty covering family")

    candidates = [
        p
        for p in extensions(graph, vertex_path(I.base), max_len, budget)
        if compatible_with(graph, I, p)
        and not all(compatible_with(graph, Z, p) for Z in covering)
    ]

    def search(tree: LowerSet) -> LowerSet | None:
        budget.spend()
        target = next(
            (Z for Z in covering if merge_tries(graph, tree, Z, separated=True) is not None), None
        )
        if target is None:
            return tree
        for p in candidates:
            if compatible_with(graph, target, p):
                continue
            if compatible_with(graph, tree, p):
                hit = search(merge_tries(graph, tree, chain_tree(p)))
                if hit is not None:
                    return hit
        return None

    found = search(I)
    return CoverVerdict(None if found is None else canonicalize(graph, found), max_len)


def cover_witness(graph: SeparatedGraph, J: LowerSet, block: Block) -> str:
    """An edge of the block compatible with J, read off the root: a tree
    that keeps the block rule uses at most one edge of the block there, and
    that edge, or the block's first edge when the root uses none, is
    compatible with J.  J enters through `checked_tree`."""
    if J.base != block.source:
        raise SgisError("tree and block live at different vertices")
    root = checked_tree(graph, J).children(0)
    return next((x.edge for x in root if not x.inverse and x.edge in block.edges), block.edges[0])


def cover_refinement_check(
    graph: SeparatedGraph,
    I: LowerSet,
    head: Path,
    run: Sequence[Letter],
    block: Block,
) -> bool:
    """Exact identity: e(I) * sum_f (head.run.f)(head.run.f)* equals the sum
    of e(I u {head.run.f}) over the edges f of a finite block.

    Preconditions: head is a member of I, run is an inverse-letter word, and
    each extended path passes `checked_path`, lies outside I, and is
    compatible with I.  I enters through `checked_tree`, once: the unions
    with the extensions are trees the engine built from it, so their
    idempotents are made unchecked.  Each extension ends positively, so its
    element's tree is its chain, made as in `path_element` with no second read.
    """
    if block.infinite:
        raise SgisError("refinement requires a finite block")
    checked_tree(graph, I)
    if head not in I:
        raise SgisError("head must be a member of the tree")
    if any(not x.inverse for x in run):
        raise SgisError("run must consist of inverse letters")
    extended: list[Path] = []
    for e in block.edges:
        whole = checked_path(graph, Path(head.base, head.letters + tuple(run) + (Letter(e, False),)))
        if whole in I:
            raise SgisError(f"extension {render_path(whole)!r} already lies in the tree")
        if not compatible_with(graph, I, whole):
            raise SgisError(f"extension {render_path(whole)!r} is incompatible with the tree")
        extended.append(whole)

    lhs_sum = rhs = AlgebraElement.zero(graph)
    for w in extended:
        chain = chain_tree(w)
        pe = AlgebraElement.of(graph, Element(chain, w, Level.SEPARATED))
        lhs_sum = lhs_sum + pe * pe.star()
        rhs = rhs + _idempotent(graph, merge_tries(graph, I, chain))
    return _idempotent(graph, I) * lhs_sum == rhs


# -- basis enumeration -----------------------------------------------------------


def enumerate_basis(
    graph: SeparatedGraph, max_len: int, budget: Budget | None = None
) -> list[Element]:
    """All nonzero separated-level elements whose tree paths and carrier have
    length <= max_len, in `element_sort_key` order.

    At each vertex the separated paths up to max_len are listed once.  The
    trees close the compatible antichains of positive tips among them, taken
    in `sorted_paths` order: a tip joins a tree it leaves at a node other than
    a chosen tip and is `compatible_with`.  Each tree is its parent in the
    search merged with the new tip's chain, from the vertex's own chain, so
    no tree is closed from its tips.  A tree's carriers are the listed paths
    whose positive part is a member: the listed paths are grouped by their
    positive part once per vertex, and a tree's carriers are its parent's
    and those anchored at the prefixes of the new tip that the merge adds.
    The budget pays a unit per path listed, the vertex path included, and
    per node and carrier of each tree.  The sort key's carrier part is made
    once per listed path and its tree part once per tree."""
    budget = budget or Budget(context="basis enumeration")
    keyed: list[tuple] = []  # (element_sort_key, element)
    for v in graph.vertices:
        every = extensions(graph, vertex_path(v), max_len, budget)
        tips = sorted_paths(graph, [p for p in every if p.letters and not p.letters[-1].inverse])
        anchored: dict[tuple[Letter, ...], list] = {}  # a positive part's letters -> [(carrier, key)]
        for c in every:
            anchored.setdefault(positive_part(c).letters, []).append((c, _carrier_key(graph, c)))

        def extend(start: int, tree: LowerSet, carriers: list) -> None:
            budget.spend(len(tree) + len(carriers))
            size, trie = _tree_key(graph, tree)
            keyed.extend(((key, size, trie), Element(tree, c, Level.SEPARATED)) for c, key in carriers)
            for j in range(start, len(tips)):
                p = tips[j]
                # p sorts after the chosen tips: one is its prefix iff p stops at it, a leaf
                n, k = tree.reach(p.letters)
                if (n == 0 or tree.children(n)) and compatible_with(graph, tree, p):
                    # the merge adds the prefixes of p longer than k, and their carriers
                    added = [c for m in range(k + 1, len(p.letters) + 1) for c in anchored.get(p.letters[:m], ())]
                    extend(j + 1, merge_tries(graph, tree, chain_tree(p)), carriers + added)

        extend(0, chain_tree(vertex_path(v)), anchored[()])
    keyed.sort(key=itemgetter(0))
    return [el for _, el in keyed]
