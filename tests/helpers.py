"""Samplers and small enumerators shared across the test modules."""

from __future__ import annotations

import itertools
import random

from sgis.algebra import AlgebraElement, CoverVerdict, branch_gap, idempotent_of
from sgis.errors import Budget, IncompatiblePathsError, LevelMismatchError, SgisError, WordError
from sgis.graph import Block, SeparatedGraph
from sgis.paths import (
    Letter,
    Path,
    compatible,
    compose,
    extensions,
    is_prefix,
    is_reduced,
    is_separated_path,
    parse_word_string,
    path_inverse,
    path_key,
    path_range,
    positive_part,
    render_path,
    sorted_paths,
    star,
    steps,
    vertex_path,
    word_from_atoms,
)
from sgis.semigroup import ZERO, Element, GraphAutomorphism, Level, evaluate, from_letter, make_element
from sgis.semilattice import (
    LowerSet,
    block_rule_break,
    canonicalize,
    canonicalize_by_stripping,
    compatible_with,
    is_separated_compatible_family,
    is_subtree,
    lower_close_paths,
    lower_closure,
    lower_closure_unchecked,
    max_elements,
    munn_tree,
    tree_word,
)
from sgis.spectrum import (
    Cylinder,
    branch_extensions,
    cylinder_intersect,
    is_branch_extension,
    make_cylinder,
)


def random_separated_graph(
    rng: random.Random, max_vertices: int, isolated: bool = False
) -> SeparatedGraph:
    """A seeded random separated graph on 1..max_vertices vertices with at
    most max_vertices + 2 edges: loops and parallel edges are likely, and
    the separation is trivial, free or a random partition of each vertex's
    out-edges, with each block flagged infinite at random.  Unless
    `isolated`, every vertex meets an edge."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    ends: list[tuple[str, str]] = []
    if not isolated:
        for v in rng.sample(vertices, n):
            if not any(v in pair for pair in ends):
                w = rng.choice(vertices)
                ends.append((v, w) if rng.random() < 0.5 else (w, v))
    for _ in range(rng.randint(0, min(max_vertices, 2 * n) + 2) - len(ends)):
        shape = rng.random()
        if shape < 0.2:
            v = rng.choice(vertices)
            ends.append((v, v))
        elif shape < 0.4 and ends:
            ends.append(rng.choice(ends))
        elif shape < 0.6 and ends:
            ends.append((rng.choice(ends)[0], rng.choice(vertices)))
        else:
            ends.append((rng.choice(vertices), rng.choice(vertices)))
    rng.shuffle(ends)
    edges = [(f"e{i}", s, r) for i, (s, r) in enumerate(ends)]
    mode = rng.choice(["trivial", "free", "mixed"])
    blocks: list[Block] = []
    for v in vertices:
        out = [e for e, s, _ in edges if s == v]
        parts: list[list[str]] = []
        for e in out:
            if mode == "free" or not parts or (mode == "mixed" and rng.random() < 0.5):
                parts.append([e])
            else:
                rng.choice(parts).append(e)
        for part in parts:
            name = f"B{len(blocks)}"
            blocks.append(Block(name, v, tuple(part), rng.random() < 0.25))
    return SeparatedGraph(vertices, edges, blocks, allow_isolated=isolated)


def brute_force_automorphisms(graph: SeparatedGraph) -> list[GraphAutomorphism]:
    """Reference route to `graph_automorphisms`: every vertex permutation,
    then every clash-free product of per-block edge bijections onto blocks
    of the same size and flag at the image vertex."""
    results: list[GraphAutomorphism] = []
    for perm in itertools.permutations(graph.vertices):
        vmap = dict(zip(graph.vertices, perm))
        block_choices: list[list[dict[str, str]]] = []
        for b in graph.blocks:
            maps_for_b = [
                dict(zip(b.edges, image))
                for c in graph.blocks_at[vmap[b.source]]
                if len(c.edges) == len(b.edges) and c.infinite == b.infinite
                for image in itertools.permutations(c.edges)
                if all(vmap[graph.range_of[e]] == graph.range_of[f] for e, f in zip(b.edges, image))
            ]
            block_choices.append(maps_for_b)
        for combo in itertools.product(*block_choices):
            emap = {e: f for part in combo for e, f in part.items()}
            if len(set(emap.values())) == len(graph.edges):
                results.append(
                    GraphAutomorphism(tuple(sorted(vmap.items())), tuple(sorted(emap.items())))
                )
    results.sort(key=lambda a: (a.vertex_map, a.edge_map))
    return results


def read_atom_by_atom(graph: SeparatedGraph, atoms) -> Path | None:
    """Second route to `word_from_atoms` and to the reading walk of
    `evaluate`, kept for cross-checks: one atom at a time, each checked
    against the graph's tables as it is read, with no engine.  The running
    vertex follows the atoms, and the word is None once an atom does not
    start there."""
    if not atoms:
        raise WordError("empty word")
    letters: list[Letter] = []
    base = at = None
    composes = True
    for a in atoms:
        if isinstance(a, str):
            if a not in graph.vertex_index:
                raise WordError(f"unknown vertex {a!r}")
            source = target = a
        else:
            e = a.edge
            if e not in graph.edge_index:
                raise WordError(f"unknown edge {e!r}")
            source, target = graph.source_of[e], graph.range_of[e]
            if a.inverse:
                source, target = target, source
            letters.append(a)
        if base is None:
            base = at = source
        composes = composes and source == at
        at = target
    return Path(base, tuple(letters)) if composes else None


def render_by_tips(a) -> str:
    """Second route to `render_element`, kept for cross-checks: each tip
    path of `max_elements` through `render_path`."""
    if a is ZERO:
        return "0"
    factors = "".join(f"({render_path(p)})" for p in max_elements(a.tree))
    return f"{factors} | {render_path(a.carrier)}"


def automorphism_by_tips(graph: SeparatedGraph, phi: GraphAutomorphism, a):
    """Second route to `apply_automorphism`, kept for cross-checks: every
    tip path and the carrier relabelled and handed to `make_element`, which
    walks the tips' word (tips x depth letters)."""
    if a is ZERO:
        return ZERO
    vmap, emap = dict(phi.vertex_map), dict(phi.edge_map)

    def move(p: Path) -> Path:
        return Path(vmap[p.base], tuple(Letter(emap[x.edge], x.inverse) for x in p.letters))

    return make_element(graph, [move(p) for p in max_elements(a.tree)], move(a.carrier), a.level)


def make_word(graph: SeparatedGraph, base: str, letters) -> Path:
    """Validated, possibly unreduced word: consecutive letters must compose."""
    word = word_from_atoms(graph, [base, *letters])
    if word is None:
        raise WordError(f"letters {list(letters)!r} do not compose from {base!r}")
    return word


def evaluate_tokens(graph: SeparatedGraph, text: str, level: Level = Level.SEPARATED):
    """`evaluate` of a word in the command line's grammar."""
    return evaluate(graph, parse_word_string(graph, text), level)


def letter_key_by_pair(graph: SeparatedGraph, x: Letter) -> tuple[bool, int]:
    """Reference key of the letter order: positive letters before inverse
    ones, and within a class later-declared edges first."""
    return (x.inverse, -graph.edge_index[x.edge])


def prefixes(p: Path) -> list[Path]:
    """Every prefix of p, from the empty path at its base up."""
    return [Path(p.base, p.letters[:i]) for i in range(len(p.letters) + 1)]


def composable_letter_words(graph: SeparatedGraph, max_len: int) -> list[list[Letter]]:
    """Every composable nonempty letter word of length <= max_len."""
    out: list[list[Letter]] = []
    for v in graph.vertices:
        frontier: list[tuple[str, list[Letter]]] = [(v, [])]
        for _ in range(max_len):
            nxt = []
            for at, word in frontier:
                for x, to in steps(graph, at):
                    w = word + [x]
                    out.append(w)
                    nxt.append((to, w))
            frontier = nxt
    return out


def separated_paths(graph: SeparatedGraph, v: str, max_len: int) -> list[Path]:
    """All reduced separated paths from v of length <= max_len."""
    out = [vertex_path(v)]
    frontier = [vertex_path(v)]
    while frontier:
        nxt = []
        for p in frontier:
            if len(p.letters) >= max_len:
                continue
            last = p.letters[-1] if p.letters else None
            for x, _ in steps(graph, path_range(graph, p), last):
                nxt.append(Path(v, p.letters + (x,)))
        out.extend(nxt)
        frontier = nxt
    return out


def random_separated_path(
    graph: SeparatedGraph, v: str, rng: random.Random, max_len: int
) -> Path:
    p = vertex_path(v)
    for _ in range(rng.randint(0, max_len)):
        last = p.letters[-1] if p.letters else None
        options = [x for x, _ in steps(graph, path_range(graph, p), last)]
        if not options:
            break
        p = Path(v, p.letters + (rng.choice(options),))
    return p


def random_lower_set(
    graph: SeparatedGraph,
    v: str,
    rng: random.Random,
    max_len: int = 4,
    tries: int = 6,
) -> LowerSet:
    """A random compatible lower set grown by rejection sampling."""
    chosen: list[Path] = [vertex_path(v)]
    for _ in range(tries):
        cand = random_separated_path(graph, v, rng, max_len)
        closed = lower_close_paths([cand])
        if all(compatible(graph, p, q) for p in closed for q in chosen):
            chosen.extend(closed)
    return lower_closure(graph, chosen)


def grow_maximal_truncation(
    graph: SeparatedGraph, v: str, depth: int, rng: random.Random
) -> set[Path]:
    """A random untrimmed ultrafilter window: below depth, every member gets
    one edge per block (the tail edge when forced) plus all inverse letters."""
    members: set[Path] = {vertex_path(v)}
    frontier = [vertex_path(v)]
    while frontier:
        g = frontier.pop()
        if len(g.letters) >= depth:
            continue
        at = path_range(graph, g)
        last = g.letters[-1] if g.letters else None
        for b in graph.blocks_at[at]:
            if last is not None and last.inverse and last.edge in b.edges:
                continue  # the tail already represents this block
            e = rng.choice(b.edges)
            q = Path(v, g.letters + (Letter(e, False),))
            if q not in members:
                members.add(q)
                frontier.append(q)
        for x, _ in steps(graph, at, last):
            if not x.inverse:
                continue
            q = Path(v, g.letters + (x,))
            if q not in members:
                members.add(q)
                frontier.append(q)
    return members


def sample_cylinders(graph: SeparatedGraph, rng: random.Random, count: int, max_len: int = 2, v: str = "v"):
    """Seeded basic open sets Z(I \\ F) at v: a canonical random tree with
    paths of length <= max_len, and up to two of its branch extensions of
    length <= max_len + 1 excluded."""
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        I = canonicalize(graph, random_lower_set(graph, v, rng, max_len=max_len))
        if max(len(p.letters) for p in I.paths) > max_len:
            continue
        exts = branch_extensions(graph, I, max_len + 1)
        excl = rng.sample(exts, min(len(exts), rng.randint(0, 2))) if exts else []
        out.append(make_cylinder(graph, I, excl))
    return out


def random_filter_truncation(
    graph: SeparatedGraph, v: str, depth: int, rng: random.Random
) -> set[Path]:
    """A random compatible lower set of depth `depth`, grown block by block
    with random skips; superset of {v}."""
    members: set[Path] = {vertex_path(v)}
    frontier = [vertex_path(v)]
    while frontier:
        g = frontier.pop()
        if len(g.letters) >= depth:
            continue
        at = path_range(graph, g)
        last = g.letters[-1] if g.letters else None
        for b in graph.blocks_at[at]:
            if last is not None and last.inverse and last.edge in b.edges:
                continue
            if rng.random() < 0.4:
                continue
            e = rng.choice(b.edges)
            q = Path(v, g.letters + (Letter(e, False),))
            if q not in members:
                members.add(q)
                frontier.append(q)
        for x, _ in steps(graph, at, last):
            if not x.inverse or rng.random() < 0.4:
                continue
            q = Path(v, g.letters + (x,))
            if q not in members:
                members.add(q)
                frontier.append(q)
    return members


def distinct_elements(graph: SeparatedGraph, max_len: int, level):
    """Deduplicated engine values of every composable word up to max_len."""
    seen = {}
    for word in composable_letter_words(graph, max_len):
        el = evaluate(graph, word, level)
        seen.setdefault(el, word)
    return seen


# -- the set route: trees closed, sorted and checked as sets of paths ----------
#
# Second routes to the constructors that walk a Munn tree, kept for
# cross-checks; they use no walk.


def closure_tree(graph: SeparatedGraph, paths, base=None) -> LowerSet:
    """Set route to `lower_closure_unchecked`."""
    closed = lower_close_paths(paths)
    if base is not None:
        closed.add(vertex_path(base))
    bases = {p.base for p in closed}
    if len(bases) != 1:
        raise WordError(f"paths from several vertices: {sorted(bases)}")
    return LowerSet(bases.pop(), sorted_paths(graph, closed))


def checked_closure_tree(graph: SeparatedGraph, paths) -> LowerSet:
    """Set route to `lower_closure`: a pairwise check of the sorted closure,
    naming the first pair that fails `compatible`."""
    paths = list(paths)
    tree = closure_tree(graph, paths)
    if not all(is_reduced(p) and is_separated_path(graph, p) for p in paths):
        raise WordError("a member is not a reduced separated path")
    for p, q in itertools.combinations(tree.paths, 2):
        if not compatible(graph, p, q):
            raise IncompatiblePathsError(p, q)
    return tree


def chain_unions_by_sets(graph: SeparatedGraph, I: LowerSet, paths) -> list[tuple[tuple[int, ...], LowerSet]]:
    """Set route to `chain_unions`: every index set S of the paths, by size
    and then by index, closed with I's tips by `lower_closure_unchecked` and
    kept iff the union keeps the block rule; no set is pruned unseen."""
    out = []
    for r in range(len(paths) + 1):
        for S in itertools.combinations(range(len(paths)), r):
            tree = lower_closure_unchecked(graph, [*max_elements(I), *(paths[k] for k in S)])
            if block_rule_break(graph, tree) is None:
                out.append((S, tree))
    return out


def tips_by_parents(I: LowerSet) -> tuple[Path, ...]:
    """Reference route to the tips that `munn_tree` marks: in a lower set a
    member is a tip iff it is no member's parent, in tree order."""
    parents = {p.letters[:-1] for p in I.paths if p.letters}
    return tuple(p for p in I.paths if p.letters not in parents)


def union_meet(graph: SeparatedGraph, I: LowerSet, J: LowerSet):
    """Set route to `meet`: the sorted union when every pair is compatible."""
    if I.base != J.base or not is_separated_compatible_family(graph, I.paths + J.paths):
        return None
    return LowerSet(I.base, sorted_paths(graph, set(I.paths) | set(J.paths)))


def walked_union(graph: SeparatedGraph, I: LowerSet, J: LowerSet, *, separated=True, canonical=False):
    """Walk route to `meet` and to products of idempotents: the Munn tree of
    I's tip word followed by J's, under the block rule when `separated` and
    pruned to its canonical form when `canonical`, as `multiply` walks it at
    each level."""
    if I.base != J.base:
        return None
    word = tip_word(I) + tip_word(J)
    return munn_tree(graph, I.base, word, separated=separated, canonical=canonical)[0]


# -- the tip-word route: a tree spelled as each tip followed by its inverse ----
#
# Reference to `LowerSet.tour`: the word of the normal form `(p1)...(pn)`,
# tips x depth letters long, walks to the same tree as the tour.


def tip_word(I: LowerSet) -> list[Letter]:
    """Each tip of I followed by its inverse."""
    return tree_word(max_elements(I))


def _tip_walk(graph: SeparatedGraph, base: str, word, level: Level):
    tree, end = munn_tree(
        graph, base, word, separated=level is Level.SEPARATED, canonical=level is not Level.FREE
    )
    return ZERO if tree is None else Element(tree, end, level)


def tip_word_multiply(graph: SeparatedGraph, a, b):
    """Tip-word route to `multiply`: a's tip word and carrier, then b's."""
    if a is ZERO or b is ZERO or path_range(graph, a.carrier) != b.carrier.base:
        return ZERO
    word = tip_word(a.tree) + list(a.carrier.letters) + tip_word(b.tree) + list(b.carrier.letters)
    return _tip_walk(graph, a.carrier.base, word, a.level)


def tip_word_inverse(graph: SeparatedGraph, a):
    """Tip-word route to `inverse`: the formal inverse of a's tip word and
    carrier, from the carrier's range."""
    if a is ZERO:
        return ZERO
    word = star(tip_word(a.tree) + list(a.carrier.letters))
    return _tip_walk(graph, path_range(graph, a.carrier), word, a.level)


def tip_word_act(graph: SeparatedGraph, g: Path, tree: LowerSet) -> LowerSet:
    """Tip-word route to `act_on_tree`: the translation, then the tree's tip
    word, pruned to its canonical form."""
    return munn_tree(graph, g.base, [*g.letters, *tip_word(tree)], canonical=True)[0]


def tip_word_canonicalize(graph: SeparatedGraph, I: LowerSet) -> LowerSet:
    """Tip-word route to `canonicalize`."""
    return munn_tree(graph, I.base, tip_word(I), canonical=True)[0]


def trie_fields(I: LowerSet | None):
    """The arrays a trie is read from, field by field: `parent` and `entered`
    (the value), and the marks `_first` and `_tip_ids`."""
    return None if I is None else (I.parent, I.entered, I._first, I._tip_ids)


def compatible_with_every_member(graph: SeparatedGraph, I: LowerSet, p: Path) -> bool:
    """Definition route to `compatible_with`: p against every member of I,
    not only against the tips."""
    return all(compatible(graph, p, m) for m in I.paths)


def config_letters_at(graph: SeparatedGraph, I: LowerSet, g: Path) -> list[Letter]:
    """Path-level route to `LowerSet.configuration`: the letters x leaving
    g's range with red(g x) a member of I, probed one path per step."""
    members = set(I.paths)
    back = ~g.letters[-1] if g.letters else None
    return [
        x
        for x, _ in steps(graph, path_range(graph, g))
        # the letter cancelling g's last one leads back into the set
        if x is back or Path(g.base, g.letters + (x,)) in members
    ]


def longest_prefix_in(I: LowerSet, letters) -> tuple[int, int]:
    """Member-list route to `LowerSet.reach`: the index in `I.paths` of the
    longest prefix of the letters among the members, and its length."""
    index = {p.letters: n for n, p in enumerate(I.paths)}
    k = max(k for k in range(len(letters) + 1) if tuple(letters[:k]) in index)
    return index[tuple(letters[:k])], k


def subtree_by_members(J: LowerSet, I: LowerSet) -> bool:
    """Definition route to `is_subtree`: every member of J, not only its
    tips, among the members of I."""
    members = set(I.paths)
    return all(p in members for p in J.paths)


def cylinder_idempotent_by_gaps(graph: SeparatedGraph, B: Cylinder) -> AlgebraElement:
    """Branch-gap route to `cylinder_idempotent`: e(I) times one
    `branch_gap(head, tail)` per excluded f, split at f's longest prefix in I."""
    acc = idempotent_of(graph, B.tree)
    for f in B.excluded:
        k = B.tree.reach(f.letters)[1]
        acc = acc * branch_gap(graph, Path(f.base, f.letters[:k]), f.letters[k:])
    return acc


def cylinder_idempotent_by_products(graph: SeparatedGraph, B: Cylinder) -> AlgebraElement:
    """Product route to `cylinder_idempotent`: e(I) times (1 - e(f)) for each
    excluded f, each factor applied as acc - acc * e(f), with e(f) the
    idempotent of f's closure."""
    acc = idempotent_of(graph, B.tree)
    for f in B.excluded:
        acc = acc - acc * idempotent_of(graph, lower_closure(graph, [f]))
    return acc


def cylinder_difference_by_walks(graph: SeparatedGraph, B1: Cylinder, B2: Cylinder) -> list[Cylinder]:
    """Walk route to `cylinder_difference`, part for part and in its order:
    each tree is the Munn tree of a tip word, I1's tips and the grown rungs
    walked with canonical pruning, and I1's tips, I2's tips and H walked
    under the block rule."""
    if cylinder_intersect(graph, B1, B2) is None:
        return [B1]

    def cylinder(I, candidates):
        return Cylinder(I, sorted_paths(graph, {f for f in candidates if is_branch_extension(graph, I, f)}))

    I1, F1 = B1.tree, set(B1.excluded)
    I2, F2 = B2.tree, set(B2.excluded)
    out = []
    missing = sorted_paths(graph, [h for h in max_elements(I2) if h not in I1])
    ladders = []
    for h in missing:
        k = I1.reach(h.letters)[1]
        cuts = [i + 1 for i in range(k, len(h.letters)) if not h.letters[i].inverse]
        ladders.append([Path(h.base, h.letters[:c]) for c in cuts])
    if missing:
        for choice in itertools.product(*[range(len(r) + 1) for r in ladders]):
            if all(i == len(r) for i, r in zip(choice, ladders)):
                continue
            grown = [rungs[i - 1] for i, rungs in zip(choice, ladders) if i > 0]
            forced_next = [rungs[i] for i, rungs in zip(choice, ladders) if i < len(rungs)]
            word = tree_word(max_elements(I1) + tuple(grown))
            In = munn_tree(graph, I1.base, word, canonical=True)[0]
            if any(f in In for f in forced_next):
                continue
            out.append(cylinder(In, [*F1, *forced_next]))
    candidates = sorted_paths(graph, F2 - F1)
    for r in range(1, len(candidates) + 1):
        for H in itertools.combinations(candidates, r):
            word = tree_word(max_elements(I1) + max_elements(I2) + H)
            JH = munn_tree(graph, I1.base, word, separated=True)[0]
            if JH is not None:
                out.append(cylinder(JH, F1 | F2))
    return out


def cover_check_by_pairs(
    graph: SeparatedGraph, I: LowerSet, covering, max_len: int, budget=None
) -> CoverVerdict:
    """Pairwise route to `bounded_cover_check`: the same search over witness
    tuples, holding the witnesses as a list.  A covering tree is pending
    while every witness is `compatible_with` it, a candidate joins iff it is
    `compatible` with each witness, and the counterexample is closed from
    I's tips and the witnesses."""
    budget = budget or Budget(context="cover counterexample search")
    for Z in covering:
        if not is_subtree(I, Z):
            raise SgisError("covering trees must extend the covered tree")
    if not covering:
        raise SgisError("empty covering family")
    candidates = [
        p
        for p in extensions(graph, vertex_path(I.base), max_len, budget)
        if compatible_with(graph, I, p) and not all(compatible_with(graph, Z, p) for Z in covering)
    ]

    def search(chosen: list[Path]) -> list[Path] | None:
        budget.spend()
        pending = [Z for Z in covering if all(compatible_with(graph, Z, p) for p in chosen)]
        if not pending:
            return list(chosen)
        for p in candidates:
            if compatible_with(graph, pending[0], p):
                continue
            if all(compatible(graph, p, q) for q in chosen):
                hit = search(chosen + [p])
                if hit is not None:
                    return hit
        return None

    witness = search([])
    if witness is None:
        return CoverVerdict(None, max_len)
    return CoverVerdict(canonicalize(graph, lower_closure(graph, max_elements(I) + tuple(witness))), max_len)


def cover_witness_by_tips(graph: SeparatedGraph, J: LowerSet, block: Block) -> str:
    """Reference route to `cover_witness`: the first letter of the first
    maximal member of J that starts with an edge of the block, else the
    block's first edge."""
    for m in max_elements(J):
        if m.letters and not m.letters[0].inverse and m.letters[0].edge in block.edges:
            return m.letters[0].edge
    return block.edges[0]


def basis_by_anchor_runs(graph: SeparatedGraph, max_len: int, budget) -> list[Element]:
    """Anchor-run route to `enumerate_basis`: at each vertex every tree of the
    antichain search, closed as a set, is charged a unit per member; then each
    tree's carriers are walked as the inverse `extensions` of its anchors
    (members not ending in an inverse letter), a unit per carrier.  Elements are sorted by
    carrier, tree size and then the member paths of the tree."""
    out: list[Element] = []
    for v in graph.vertices:
        every = extensions(graph, vertex_path(v), max_len, budget)
        tips = sorted_paths(graph, [p for p in every if p.letters and not p.letters[-1].inverse])
        trees: list[LowerSet] = []

        def extend(start: int, chosen: list[Path]) -> None:
            trees.append(closure_tree(graph, chosen, base=v))
            budget.spend(len(trees[-1].paths))
            for j in range(start, len(tips)):
                p = tips[j]
                if all(
                    not is_prefix(p, q) and not is_prefix(q, p) and compatible(graph, p, q)
                    for q in chosen
                ):
                    extend(j + 1, chosen + [p])

        extend(0, [])
        for tree in trees:
            anchors = [p for p in tree.paths if not p.letters or not p.letters[-1].inverse]
            runs = [c for a in anchors for c in extensions(graph, a, max_len, budget, inverse=True)]
            out.extend(Element(tree, c, Level.SEPARATED) for c in sorted_paths(graph, runs))

    def path_order(p: Path):
        return (graph.vertex_index[p.base],) + path_key(graph, p)

    out.sort(key=lambda e: (path_order(e.carrier), len(e.tree), tuple(map(path_order, e.tree.paths))))
    return out


def closure_element(graph: SeparatedGraph, tree_paths, carrier: Path, level: Level) -> Element:
    """Set route to `make_element`: close the paths (and the carrier at the
    free level) as a set, check them pairwise at the separated level, strip
    them to the canonical form above the free level, then check the anchor."""
    paths = set(tree_paths)
    if level is Level.FREE:
        paths.update(prefixes(carrier))
    tree = closure_tree(graph, paths, base=carrier.base)
    if level is Level.SEPARATED and not is_separated_compatible_family(graph, tree.paths):
        raise IncompatiblePathsError(None, None)  # callers compare error types only
    if level is not Level.FREE:
        tree = canonicalize_by_stripping(graph, tree)
    anchor = carrier if level is Level.FREE else positive_part(carrier)
    if anchor not in tree.paths:
        raise SgisError(f"carrier anchor {anchor!r} missing from tree {tree!r}")
    return Element(tree, carrier, level)


def _full_tree(a) -> set[Path]:
    """The tree with every prefix of the carrier; a free tree holds them
    already, a canonical one only the carrier's positive part."""
    return set(a.tree.paths) | set(prefixes(a.carrier))


def closure_multiply(graph: SeparatedGraph, a, b):
    """Second route to `multiply`, kept for cross-checks: translate b's full
    tree along a's carrier, join it to a's, check the union pairwise at the
    separated level, then close and canonicalize it as a set of paths."""
    if a is ZERO or b is ZERO:
        return ZERO
    if a.level is not b.level:
        raise LevelMismatchError(f"{a.level} * {b.level}")
    if path_range(graph, a.carrier) != b.carrier.base:
        return ZERO
    union = _full_tree(a) | {compose(graph, a.carrier, t) for t in _full_tree(b)}
    if a.level is Level.SEPARATED and not is_separated_compatible_family(
        graph, tuple(union)
    ):
        return ZERO
    return closure_element(graph, union, compose(graph, a.carrier, b.carrier), a.level)


def closure_inverse(graph: SeparatedGraph, a):
    """Second route to `inverse`: translate the full tree along the inverse
    carrier, then close and canonicalize."""
    if a is ZERO:
        return ZERO
    carrier = path_inverse(graph, a.carrier)
    moved = {compose(graph, carrier, t) for t in _full_tree(a)}
    return closure_element(graph, moved, carrier, a.level)


def fold_evaluate(graph: SeparatedGraph, atoms, level):
    """Second route to `evaluate`, kept for cross-checks: the left fold of
    `closure_multiply` over the generator images."""
    acc = from_letter(graph, atoms[0], level)
    for atom in atoms[1:]:
        acc = closure_multiply(graph, acc, from_letter(graph, atom, level))
    return acc
