"""Reduced paths on the double graph and the combinatorics built on them.

A `Path` is a source vertex plus a composable sequence of letters (edges or
formal inverses), a slotted immutable value.  Length-0 paths at different
vertices are distinct values.  Letters (`graph.Letter`, re-exported here)
are interned, one instance per edge and direction, so they compare and hash
by identity and `~x` is a lookup: `star` and `steps` build no new letter.
All functions are pure; the graph is passed explicitly.

Three primitives are shared across the layers.  `steps` is the one stepping
rule on the double graph: which letters may follow a given one in a reduced
separated path.  `sorted_paths` is the one path order (length-lexicographic,
as fixed by `path_key`) used for trees, tips and enumerations; letters
compare by their ranks in the graph's `letter_rank` table.  The graph's
`letter_rivals` table lists for each positive letter of a block with two or
more named edges the other letters of that block: the only letters that can
break the block rule.  `semilattice.block_clash` reads it, and the Munn
walk, the merge of two tries and the check of a tree from outside ask
`block_clash` only about a letter in it, since a letter without rivals
clashes with nothing.  `extensions` is the one walk of the double graph:
from a path, breadth first over `steps`, by every letter (the basis, the
cover search, `sgis cover`) or by inverse letters only (the spectrum's
inverse tails and branch extensions).
`word_from_atoms` is the reader of paths, and `parse_word_string` the
command line's grammar for their atoms.  It reads a sequence of atoms
through the graph's tables of atom ends (`atom_source`, `atom_range`): one
lookup of each atom's source and one of its range, and one comparison of
the two lists for composability, with no loop in Python.  `evaluate`'s
words are not read here: the Munn walk (`semilattice.munn_tree` with no
base) reads them through the same tables as it goes, and compares an atom's
source with the running vertex only where it makes a node.
The graph builds all of these tables when it is made.
`checked_path` is the one check of a path given from outside: read by
`word_from_atoms`, then reduced and separated; nothing built from it is
checked again.
`reduced_path` is its first half, for paths that need not be separated.
A path renders as its letters' `text`s.  `Letter`, `Path` and the engine's
`Element` are `Frozen`: slotted values whose slots are set once.
"""

from __future__ import annotations

from itertools import filterfalse
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import Budget, WordError
from .graph import Frozen, Letter, SeparatedGraph


class Path(Frozen):
    """A source vertex and a tuple of letters, immutable.

    Two paths are equal when both fields are, and hash as the pair
    `(base, letters)`.  The two slots are set once, through their member
    descriptors, so a construction runs no generated code; copying or
    pickling a path gives an equal one."""

    __slots__ = ("base", "letters")

    def __init__(self, base: str, letters: tuple[Letter, ...] = ()):
        _set_base(self, base)
        _set_letters(self, letters)

    def __reduce__(self):
        return Path, (self.base, self.letters)

    def __eq__(self, other):
        if other.__class__ is Path:
            return self.base == other.base and self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return render_path(self)


_set_base = Path.base.__set__
_set_letters = Path.letters.__set__


FreeGroupWord = tuple[Letter, ...]


def letter_range(graph: SeparatedGraph, x: Letter) -> str:
    return graph.atom_range[x]


def path_range(graph: SeparatedGraph, p: Path) -> str:
    return letter_range(graph, p.letters[-1]) if p.letters else p.base


def vertex_path(v: str) -> Path:
    return Path(v, ())


def reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for x in letters:
        if out and out[-1] is x._inverted:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reduce_path(p: Path) -> Path:
    """Free reduction: cancel adjacent mutually inverse letters."""
    return Path(p.base, reduce_letters(p.letters))


def is_reduced(p: Path) -> bool:
    return all(a is not b._inverted for a, b in zip(p.letters, p.letters[1:]))


def steps(
    graph: SeparatedGraph, at: str, last: Letter | None = None
) -> list[tuple[Letter, str]]:
    """The letters leaving `at`, out-edges first and then in-edges, each with
    the vertex it reaches.

    Given the previous letter `last`, the step keeps the path reduced and
    separated: it drops the letter cancelling `last` and, after an inverse
    letter, every positive letter of that letter's block (no e^{-1}f inside
    one block).  With `last=None` every letter is returned.
    """
    barred = graph.block_of[last.edge] if last is not None and last.inverse else None
    cancelled = last.edge if last is not None and not last.inverse else None
    out = [
        (Letter(e, False), graph.range_of[e])
        for e in graph.out_edges[at]
        if graph.block_of[e] is not barred
    ]
    out += [
        (Letter(e, True), graph.source_of[e])
        for e in graph.in_edges[at]
        if e != cancelled
    ]
    return out


def extensions(
    graph: SeparatedGraph, p: Path, max_len: int, budget: Budget | None = None, *, inverse: bool = False
) -> list[Path]:
    """p, then every reduced separated path that extends p up to `max_len`
    letters, breadth first in `steps` order; with `inverse=True` only the
    extensions by inverse letters, p's inverse runs.

    A given budget is charged once per path before it is listed, p
    included, so it bounds the list.
    """
    if budget is not None:
        budget.spend()
    out = [p]
    for q in out:  # the list grows as it is walked
        if len(q.letters) >= max_len:
            continue
        last = q.letters[-1] if q.letters else None
        for x, _ in steps(graph, path_range(graph, q), last):
            if x.inverse or not inverse:
                if budget is not None:
                    budget.spend()
                out.append(Path(q.base, q.letters + (x,)))
    return out


def star(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """Formal reversal-inverse of a letter sequence; it builds no letter."""
    return tuple([x._inverted for x in reversed(letters)])


def path_inverse(graph: SeparatedGraph, p: Path) -> Path:
    return Path(path_range(graph, p), star(p.letters))


def is_separated_path(graph: SeparatedGraph, p: Path) -> bool:
    """No factor e^{-1}f with e != f in one block (p assumed reduced)."""
    for a, b in zip(p.letters, p.letters[1:]):
        if (
            a.inverse
            and not b.inverse
            and a.edge != b.edge
            and graph.block_of[a.edge] is graph.block_of[b.edge]
        ):
            return False
    return True


def compatible(graph: SeparatedGraph, g: Path, h: Path) -> bool:
    """Largest-common-prefix criterion: the only obstruction is a divergence
    into two distinct edges of one block, both traversed positively."""
    if g.base != h.base:
        raise WordError(
            f"compatibility undefined across vertices {g.base!r}, {h.base!r}"
        )
    for x, y in zip(g.letters, h.letters):
        if x is not y:  # the first divergence decides
            return x.inverse or y.inverse or graph.block_of[x.edge] is not graph.block_of[y.edge]
    return True  # one is a prefix of the other


def compatible_by_reduction(graph: SeparatedGraph, g: Path, h: Path) -> bool:
    """Independent route: the reduced geodesic h^{-1}g must stay separated."""
    if g.base != h.base:
        raise WordError(
            f"compatibility undefined across vertices {g.base!r}, {h.base!r}"
        )
    geodesic = Path(path_range(graph, h), reduce_letters(star(h.letters) + g.letters))
    return is_separated_path(graph, geodesic)


def is_prefix(g: Path, h: Path) -> bool:
    return (
        g.base == h.base
        and len(g.letters) <= len(h.letters)
        and h.letters[: len(g.letters)] == g.letters
    )


def positive_length(letters: Sequence[Letter]) -> int:
    """The length of p0 in the unique split p = p0 w, where p0 does not end
    in an inverse letter and w is a run of inverse letters."""
    cut = len(letters)
    while cut > 0 and letters[cut - 1].inverse:
        cut -= 1
    return cut


def positive_part(p: Path) -> Path:
    """p0 in the unique split p = p0 w (`positive_length`)."""
    return Path(p.base, p.letters[: positive_length(p.letters)])


def compose(graph: SeparatedGraph, g: Path, h: Path) -> Path | None:
    """red(gh) in the fundamental groupoid; None when the ranges do not meet."""
    if path_range(graph, g) != h.base:
        return None
    return Path(g.base, reduce_letters(g.letters + h.letters))


def path_key(graph: SeparatedGraph, p: Path):
    """Length-lexicographic order; total on paths from a fixed vertex."""
    return (len(p.letters), tuple(map(graph.letter_rank.__getitem__, p.letters)))


def sorted_paths(graph: SeparatedGraph, paths: Iterable[Path]) -> tuple[Path, ...]:
    """The paths in length-lexicographic order (duplicates are kept)."""
    return tuple(sorted(paths, key=lambda p: path_key(graph, p)))


_text = attrgetter("text")


def render_path(p: Path) -> str:
    if not p.letters:
        return p.base
    return " ".join(map(_text, p.letters))


def render_free_word(w: FreeGroupWord) -> str:
    if not w:
        return "1"
    return " ".join(map(_text, w))


def parse_word_string(graph: SeparatedGraph, text: str) -> list[str | Letter]:
    """CLI word grammar: whitespace-separated tokens, `e` positive, `~e`
    inverse, `v` a vertex.

    Composability is not required here; a non-composable sequence simply
    denotes the zero product downstream.
    """
    tokens = text.split()
    if not tokens:
        raise WordError("empty word")
    atoms: list[str | Letter] = []
    for tok in tokens:
        if tok.startswith("~"):
            name = tok[1:]
            if name not in graph.edge_index:
                raise WordError(f"unknown edge {name!r} in token {tok!r}")
            atoms.append(Letter(name, True))
        elif tok in graph.edge_index:
            atoms.append(Letter(tok, False))
        elif tok in graph.vertex_index:
            atoms.append(tok)
        else:
            raise WordError(f"unknown token {tok!r}")
    return atoms


def word_from_atoms(
    graph: SeparatedGraph, atoms: Sequence[str | Letter]
) -> Path | None:
    """The reader of paths: a sequence of atoms (vertices and letters)
    as a path from the first atom's source, or None when consecutive atoms
    do not compose (the zero of the path semigroup).  A vertex atom adds no
    letter but must be the running vertex.

    The word is read through the graph's tables of atom ends, with no loop in
    Python: one lookup of each atom's source and one of its range, then one
    comparison of the sources from the second atom on with the ranges up to
    the last.  An unknown vertex or edge raises WordError naming the first
    such atom wherever it stands, also after the atoms have stopped
    composing."""
    if not atoms:
        raise WordError("empty word")
    sources_of, ranges_of = graph.atom_source, graph.atom_range
    try:
        sources = list(map(sources_of.__getitem__, atoms))
    except KeyError:
        raise _unknown_atom(next(a for a in atoms if a not in sources_of)) from None
    ranges = list(map(ranges_of.__getitem__, atoms))
    if sources[1:] != ranges[:-1]:
        return None
    return Path(sources[0], tuple(filterfalse(graph.vertex_index.__contains__, atoms)))


def reduced_path(graph: SeparatedGraph, p: Path) -> Path:
    """p, once `word_from_atoms` reads its base and letters (an unknown atom
    raises its WordError) and they compose and are reduced; each other
    failure is a WordError naming p.  For paths that need not be separated."""
    if word_from_atoms(graph, [p.base, *p.letters]) is None:
        raise WordError(f"path {render_path(p)!r} does not compose")
    if not is_reduced(p):
        raise WordError(f"path {render_path(p)!r} is not reduced")
    return p


def checked_path(graph: SeparatedGraph, p: Path) -> Path:
    """p, once it passes `reduced_path` and is separated, else a WordError."""
    if not is_separated_path(graph, reduced_path(graph, p)):
        raise WordError(f"path {render_path(p)!r} is not separated")
    return p


def _unknown_atom(a: str | Letter) -> WordError:
    """The error naming an atom the graph does not have."""
    return WordError(f"unknown vertex {a!r}" if isinstance(a, str) else f"unknown edge {a.edge!r}")
