"""Independent validators for the Munn-tree engine.

Three code paths that deliberately avoid the semilattice/semigroup modules:

* a string-peeling normal-form algorithm (shares only the paths module),
* a bounded bidirectional rewriting closure over the defining relations,
* a classic free-inverse-monoid checker plus the doubled-edge embedding.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import Budget, SgisError, WordError
from .graph import SeparatedGraph, free_separation
from .paths import (
    Letter,
    Path,
    compatible,
    is_prefix,
    letter_range,
    positive_part,
    render_path,
    sorted_paths,
    star,
    steps,
    word_from_atoms,
)

Atom = "str | Letter"


# -- oracle A: string peeling ---------------------------------------------------


def _separate_string(graph: SeparatedGraph, letters: tuple[Letter, ...]):
    """Rewrite with the block relation until no inverse-then-positive factor
    within one block remains; None means the word collapses to zero."""
    work = list(letters)
    while True:
        hit = False
        for i in range(len(work) - 1):
            a, b = work[i], work[i + 1]
            if (
                a.inverse
                and not b.inverse
                and graph.block_of[a.edge] is graph.block_of[b.edge]
            ):
                if a.edge != b.edge:
                    return None
                del work[i : i + 2]
                hit = True
                break
        if not hit:
            return tuple(work)


def _first_unreduced(letters: tuple[Letter, ...]) -> int | None:
    for i in range(len(letters) - 1):
        a, b = letters[i], letters[i + 1]
        if a.edge == b.edge and a.inverse != b.inverse:
            return i
    return None


def string_normal_form(graph: SeparatedGraph, atoms: Sequence[Atom]) -> str:
    """Peel projections off the longest reduced prefix until the word is
    reduced, keep the maximal stripped factors, and render.

    Returns the rendered normal form, or "0".
    """
    word = word_from_atoms(graph, atoms)
    if word is None:
        return "0"
    base = word.base
    current = _separate_string(graph, word.letters)
    if current is None:
        return "0"

    factors: list[Path] = []
    while True:
        i = _first_unreduced(current)
        if i is None:
            break
        head, nu = current[: i + 1], current[i + 1 :]
        k = 0
        limit = min(len(head), len(nu))
        for cand in range(limit, 0, -1):
            if nu[:cand] == star(head[-cand:]):
                k = cand
                break
        factors.append(Path(base, head))
        current = _separate_string(graph, head[: len(head) - k] + nu[k:])
        if current is None:
            return "0"
    lam = Path(base, current)
    factors.append(lam)

    stripped = {positive_part(p) for p in factors}
    family = [
        p for p in stripped if not any(q != p and is_prefix(p, q) for q in stripped)
    ]
    for i, p in enumerate(family):
        for q in family[i + 1 :]:
            if not compatible(graph, p, q):
                return "0"
    family = sorted_paths(graph, family)
    return "".join(f"({render_path(p)})" for p in family) + " | " + render_path(lam)


# -- oracle B: bounded rewriting closure ----------------------------------------


def _running_vertices(graph: SeparatedGraph, word: Path) -> list[str]:
    out = [word.base]
    for x in word.letters:
        out.append(letter_range(graph, x))
    return out


def _deletion_moves(graph: SeparatedGraph, word: Path):
    """Forward block relation: drop an inverse-then-positive same-edge factor.
    The second value flags a factor that sends the whole class to zero."""
    L = word.letters
    res = []
    zero = False
    for i in range(len(L) - 1):
        a, b = L[i], L[i + 1]
        if a.inverse and not b.inverse and graph.block_of[a.edge] is graph.block_of[b.edge]:
            if a.edge == b.edge:
                res.append(Path(word.base, L[:i] + L[i + 2 :]))
            else:
                zero = True
    return res, zero


def _insertion_moves(graph: SeparatedGraph, word: Path, len_bound: int):
    L = word.letters
    if len(L) + 2 > len_bound:
        return []
    res = []
    ats = _running_vertices(graph, word)
    for pos, v in enumerate(ats):
        for e in graph.in_edges[v]:
            stub = (Letter(e, True), Letter(e, False))
            res.append(Path(word.base, L[:pos] + stub + L[pos:]))
    return res


def _swap_moves(graph: SeparatedGraph, word: Path, half_bound: int):
    """Commute adjacent projection factors u u* . w w*  <->  w w* . u u*."""
    L = word.letters
    n = len(L)
    res = []
    for i in range(n):
        for k in range(1, half_bound + 1):
            if i + 2 * k > n:
                break
            u = L[i : i + k]
            if L[i + k : i + 2 * k] != star(u):
                continue
            j = i + 2 * k
            for m in range(1, half_bound + 1):
                if j + 2 * m > n:
                    break
                w = L[j : j + m]
                if L[j + m : j + 2 * m] != star(w):
                    continue
                swapped = L[:i] + w + star(w) + u + star(u) + L[j + 2 * m :]
                res.append(Path(word.base, swapped))
    return res


def rewrite_closure(
    graph: SeparatedGraph,
    word: Path,
    len_bound: int,
    budget: Budget | None = None,
):
    """All words of length <= len_bound connected to `word` by bidirectional
    relation moves, plus a flag marking a derivation of zero."""
    budget = budget or Budget(context="rewriting closure")
    half = max(1, len_bound // 2)
    seen = {word}
    frontier = [word]
    hits_zero = False
    while frontier:
        nxt = []
        for w in frontier:
            budget.spend()
            deletions, zero = _deletion_moves(graph, w)
            hits_zero = hits_zero or zero
            for cand in deletions + _insertion_moves(graph, w, len_bound) + _swap_moves(
                graph, w, half
            ):
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen, hits_zero


CONNECTED = "connected"
UNKNOWN = "unknown"


def rewrite_equiv(
    graph: SeparatedGraph,
    atoms1: Sequence[Atom],
    atoms2: Sequence[Atom],
    len_bound: int,
    budget: Budget | None = None,
) -> str:
    """A proof of equality in the quotient, or UNKNOWN (never a disproof)."""
    w1 = word_from_atoms(graph, atoms1)
    w2 = word_from_atoms(graph, atoms2)
    for w in (w1, w2):
        if w is not None and len(w.letters) > len_bound:
            raise SgisError("length bound below an input word")
    if w1 is None and w2 is None:
        return CONNECTED  # both denote the zero of the path semigroup
    if w1 is not None:
        closure1, zero1 = rewrite_closure(graph, w1, len_bound, budget)
        if w2 is not None and w2 in closure1:
            return CONNECTED
    else:
        closure1, zero1 = set(), True
    if w2 is not None:
        _, zero2 = rewrite_closure(graph, w2, len_bound, budget)
    else:
        zero2 = True
    if zero1 and zero2:
        return CONNECTED
    return UNKNOWN


def _all_composable_words(graph: SeparatedGraph, len_bound: int, budget: Budget):
    words = []
    for v in graph.vertices:
        frontier = [Path(v, ())]
        words.extend(frontier)
        for _ in range(len_bound):
            nxt = []
            for w in frontier:
                budget.spend()
                at = w.base if not w.letters else letter_range(graph, w.letters[-1])
                for x, _ in steps(graph, at):
                    nxt.append(Path(v, w.letters + (x,)))
            words.extend(nxt)
            frontier = nxt
    return words


def equivalence_components(
    graph: SeparatedGraph, len_bound: int, budget: Budget | None = None
):
    """Connected components of the full bounded rewriting universe.

    Returns (root, zero_roots): `root` maps each composable word to its
    component representative; components whose members derive zero are listed
    in `zero_roots`.  Two words are rewrite_equiv-connected at this bound iff
    they share a root or both lie in zero components.
    """
    budget = budget or Budget(limit=10**7, context="rewriting components")
    words = _all_composable_words(graph, len_bound, budget)
    index = {w: i for i, w in enumerate(words)}
    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    half = max(1, len_bound // 2)
    zero_seeds = []
    for w in words:
        budget.spend()
        i = index[w]
        deletions, zero = _deletion_moves(graph, w)
        if zero:
            zero_seeds.append(i)
        for cand in deletions + _swap_moves(graph, w, half):
            union(i, index[cand])
    root = {w: find(index[w]) for w in words}
    zero_roots = {find(i) for i in zero_seeds}
    return root, zero_roots


# -- oracle C: the free inverse monoid ------------------------------------------

FimWord = Sequence[str]  # tokens "x" / "~x" over a generator list


def _fim_letters(gens: Sequence[str], word: FimWord) -> list[tuple[str, int]]:
    out = []
    for tok in word:
        sign = -1 if tok.startswith("~") else 1
        name = tok[1:] if sign < 0 else tok
        if name not in gens:
            raise WordError(f"unknown free generator {name!r}")
        out.append((name, sign))
    return out


def fim_value(gens: Sequence[str], word: FimWord):
    """Classic Munn value over the free group: (visited vertices, endpoint)."""
    letters = _fim_letters(gens, word)
    node: tuple[tuple[str, int], ...] = ()
    visited = {node}
    for name, sign in letters:
        if node and node[-1] == (name, -sign):
            node = node[:-1]
        else:
            node = node + ((name, sign),)
        visited.add(node)
    return frozenset(visited), node


def fim_graph(gens: Sequence[str]) -> SeparatedGraph:
    """Two parallel edges per generator from a hub to a leaf, freely
    separated; the doubled-edge substitution lands in its hub corner."""
    vertices = ["v"] + list(gens)
    edges = []
    for x in gens:
        edges.append((f"e_{x}", "v", x))
        edges.append((f"f_{x}", "v", x))
    return free_separation(vertices, edges)


def fim_embed_atoms(gens: Sequence[str], word: FimWord) -> list:
    """x -> e_x f_x^{-1},  x^{-1} -> f_x e_x^{-1}; the empty word is the hub."""
    atoms: list = []
    for name, sign in _fim_letters(gens, word):
        if sign > 0:
            atoms.extend([Letter(f"e_{name}", False), Letter(f"f_{name}", True)])
        else:
            atoms.extend([Letter(f"f_{name}", False), Letter(f"e_{name}", True)])
    if not atoms:
        atoms.append("v")
    return atoms


def fim_embed(graph: SeparatedGraph, gens: Sequence[str], word: FimWord):
    from .semigroup import Level, evaluate

    return evaluate(graph, fim_embed_atoms(gens, word), Level.SEPARATED)


# -- sampling and the crosscheck report ------------------------------------------


def random_letter_word(graph: SeparatedGraph, rng: random.Random, max_len: int):
    """Uniform letters; composability not enforced (zero is a legal value)."""
    n = rng.randint(1, max_len)
    return [
        Letter(rng.choice(graph.edges)[0], rng.random() < 0.5) for _ in range(n)
    ]


def random_walk_word(graph: SeparatedGraph, rng: random.Random, max_len: int):
    """A composable word sampled by walking the double graph."""
    v = rng.choice(graph.vertices)
    atoms: list = []
    at = v
    for _ in range(rng.randint(1, max_len)):
        options = steps(graph, at)
        if not options:
            break
        x, at = rng.choice(options)
        atoms.append(x)
    if not atoms:
        atoms.append(v)
    return atoms


def crosscheck(
    graph: SeparatedGraph,
    samples: int,
    max_len: int,
    seed: int = 0,
):
    """Engine vs string-algorithm normal forms on sampled words; the report
    counts agreements and collects any disagreeing words (must stay empty)."""
    from .semigroup import Level, evaluate, normal_form

    if max_len < 1:
        raise SgisError(f"max_len must be at least 1, got {max_len}")

    rng = random.Random(seed)
    report = {
        "samples": 0,
        "agreements": 0,
        "disagreements": [],
        "zero_words": 0,
    }
    for i in range(samples):
        if i % 2 == 1:
            atoms = random_walk_word(graph, rng, max_len)
        else:
            atoms = random_letter_word(graph, rng, max_len)
        engine = normal_form(graph, evaluate(graph, atoms, Level.SEPARATED))
        oracle = string_normal_form(graph, atoms)
        report["samples"] += 1
        if engine == oracle:
            report["agreements"] += 1
            if engine == "0":
                report["zero_words"] += 1
        else:
            rendered = " ".join(
                a if isinstance(a, str) else repr(a) for a in atoms
            )
            report["disagreements"].append(
                {"word": rendered, "engine": engine, "oracle": oracle}
            )
    return report
