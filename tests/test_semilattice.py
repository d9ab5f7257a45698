import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    chain_unions_by_sets,
    checked_closure_tree,
    closure_element,
    closure_tree,
    compatible_with_every_member,
    config_letters_at,
    evaluate_tokens,
    grow_maximal_truncation,
    longest_prefix_in,
    make_word,
    random_filter_truncation,
    random_lower_set,
    random_separated_graph,
    random_separated_path,
    separated_paths,
    subtree_by_members,
    tips_by_parents,
    trie_fields,
    union_meet,
    walked_union,
)
from sgis.algebra import bounded_cover_check, idempotent_of
from sgis.errors import CylinderError, IncompatiblePathsError, SgisError, WordError
from sgis.oracle import random_walk_word, string_normal_form
from sgis.paths import (
    Letter,
    Path,
    compatible,
    is_prefix,
    path_inverse,
    path_range,
    sorted_paths,
    steps,
    vertex_path,
)
from sgis.semigroup import (
    ZERO,
    Level,
    act_on_tree,
    evaluate,
    inverse,
    make_element,
    multiply,
    normal_form,
)
from sgis.semilattice import (
    LowerSet,
    block_clash,
    block_rule_break,
    chain_tree,
    chain_unions,
    canonicalize,
    canonicalize_by_stripping,
    class_eq,
    class_leq,
    compatible_with,
    is_canonical,
    is_compatible_set_by_configs,
    is_separated_compatible_family,
    is_subtree,
    lower_closure,
    lower_closure_unchecked,
    max_elements,
    meet,
    merge_tries,
    munn_tree,
    render_lower_set,
)
from sgis.spectrum import Truncation, extend_inverse_tails, make_cylinder, trim_inverse_tails

ALL_GRAPHS = ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed")

E = Letter("e", False)
Ei = Letter("e", True)
F = Letter("f", False)
Fi = Letter("f", True)


def test_lower_closure_examples(rose2t, rose2f):
    I = lower_closure(rose2f, [make_word(rose2f, "v", (E, F)), make_word(rose2f, "v", (E, E))])
    got = {p.letters for p in I.paths}
    assert got == {(), (E,), (E, F), (E, E)}
    with pytest.raises(IncompatiblePathsError) as err:
        lower_closure(rose2t, [make_word(rose2t, "v", (E,)), make_word(rose2t, "v", (F,))])
    bad = {p.letters for p in err.value.pair}
    assert bad == {(E,), (F,)}
    J = lower_closure(rose2f, [make_word(rose2f, "v", (E, E, Fi))])
    assert {p.letters for p in J.paths} == {(), (E,), (E, E), (E, E, Fi)}


def test_lower_closure_rejects_unreduced_member(rose2f):
    with pytest.raises(WordError, match="not reduced"):
        lower_closure(rose2f, [Path("v", (E, Ei))])


def test_lower_closure_reads_each_path_through_the_door(rose2f, mixed):
    """An unknown edge, or letters that do not compose, raise WordError,
    and no KeyError leaves."""
    with pytest.raises(WordError, match="unknown edge 'zzz'"):
        lower_closure(rose2f, [Path("v", (Letter("zzz"),))])
    with pytest.raises(WordError, match="does not compose"):
        lower_closure(mixed, [Path("w", (Letter("d"), Letter("a", True), Letter("c")))])


def test_lower_closure_mixed_sources(fim2):
    with pytest.raises(WordError, match="several vertices"):
        lower_closure(fim2, [vertex_path("v"), vertex_path("x1")])
    with pytest.raises(WordError, match="at least its base vertex"):
        lower_closure(fim2, [])


def test_max_elements(rose2f):
    I = lower_closure(rose2f, [make_word(rose2f, "v", (E, F)), make_word(rose2f, "v", (E, E))])
    assert {p.letters for p in max_elements(I)} == {(E, F), (E, E)}
    V = lower_closure(rose2f, [vertex_path("v")])
    assert max_elements(V) == (vertex_path("v"),)


def test_max_lower_bijection_random(rose2f, fim2, mixed):
    rng = random.Random(3)
    for graph in (rose2f, fim2, mixed):
        for _ in range(400):
            I = random_lower_set(graph, "v", rng)
            assert lower_closure(graph, max_elements(I)) == I
    # and the reverse direction on incomparable compatible families
    ps = separated_paths(rose2f, "v", 3)
    rng = random.Random(4)
    for _ in range(300):
        fam = [rng.choice(ps) for _ in range(3)]
        try:
            closed = lower_closure(rose2f, fam)
        except IncompatiblePathsError:
            continue
        incomparable = [
            p for p in fam if not any(q != p and is_prefix(p, q) for q in fam)
        ]
        assert set(max_elements(closed)) == set(incomparable)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_lower_set_caches_stay_out_of_the_value(name, request):
    """A tree keeps its paths and its tips once asked for them, yet its value
    is still its three fields, the trie: equality and hash read only them, so
    a walked tree that was never asked builds no path to compare, and equals
    its asked twin and its constructor copy, repr included."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"caches:{name}")
    for _ in range(20):
        I = random_lower_set(graph, "v", rng)
        extensions = [
            Path(p.base, p.letters + (x,))
            for p in I.paths
            for x, _ in steps(graph, path_range(graph, p))
        ]
        for p in I.paths + tuple(extensions):
            assert (p in I) == (p in I.paths)
        assert max_elements(I) is max_elements(I)
        bare = lower_closure(graph, max_elements(I))
        fresh = LowerSet(I.base, I.paths)
        assert I == bare and bare == I and I == fresh and fresh == I
        assert hash(I) == hash(bare) == hash(fresh)
        assert "_paths" not in vars(bare) and "_tips" not in vars(bare)
        assert repr(I) == repr(bare) == repr(fresh)
    assert [f.name for f in dataclasses.fields(LowerSet)] == ["base", "parent", "entered"]


def _walked_trees(graph, rng: random.Random):
    """Seeded trees from every function that builds one by a walk:
    `lower_closure`, `canonicalize` and `meet`, then `evaluate`, `multiply`,
    `inverse` and `act_on_tree` at the three levels."""
    for _ in range(4):
        v = rng.choice(graph.vertices)
        I = random_lower_set(graph, v, rng)
        J = random_lower_set(graph, v, rng)
        yield I
        yield canonicalize(graph, I)
        IJ = meet(graph, I, J)
        if IJ is not None:
            yield IJ
    for level in Level:
        elements = [evaluate(graph, random_walk_word(graph, rng, 12), level) for _ in range(6)]
        elements = [a for a in elements if a is not ZERO]
        for a, b in zip(elements, elements[1:] + elements[:1]):
            yield a.tree
            yield inverse(graph, a).tree
            ab = multiply(graph, a, b)
            if ab is not ZERO:
                yield ab.tree
            if level is not Level.FREE:
                # the tree holds the carrier's positive part: in the domain
                yield act_on_tree(graph, path_inverse(graph, a.carrier), a.tree)


def test_walked_tips_match_the_parent_rule(request):
    """The tips of every tree a walk builds, read off the walk's marks, are
    in order the members that are no member's parent: on the six graphs and
    on 120 generated ones (seeds 0..119), canonical pruning included."""
    graphs = [request.getfixturevalue(name) for name in ALL_GRAPHS]
    graphs += [random_separated_graph(random.Random(i), 5) for i in range(120)]
    for i, graph in enumerate(graphs):
        rng = random.Random(f"walked-tips:{i}")
        for tree in _walked_trees(graph, rng):
            # the tips are read before the paths are built, so they come from
            # the walk's marks by climbing; the rule reads a constructor copy
            tips = max_elements(tree)
            assert tips == tips_by_parents(LowerSet(tree.base, tree.paths)), (i, tree)
            assert max_elements(tree) is tips


def test_is_subtree_matches_the_member_scan(request):
    """`is_subtree` reads only the tips of the smaller tree; it agrees with
    the scan of every member on all pairs of seeded trees, at random
    vertices, on the six graphs and on 120 generated ones (seeds 0..119)."""
    graphs = [request.getfixturevalue(name) for name in ALL_GRAPHS]
    graphs += [random_separated_graph(random.Random(i), 5) for i in range(120)]
    outcomes, mixed_bases = set(), 0
    for i, graph in enumerate(graphs):
        trees = list(dict.fromkeys(_walked_trees(graph, random.Random(f"subtree:{i}"))))
        # a tree made by the constructor finds its tips on first use
        trees += [LowerSet(t.base, t.paths) for t in trees[:3]]
        for J in trees:
            for I in trees:
                got = is_subtree(J, I)
                assert got == subtree_by_members(J, I), (i, J, I)
                outcomes.add(got)
                mixed_bases += J.base != I.base
    assert outcomes == {True, False}
    assert mixed_bases > 0


def test_walked_trees_equal_their_constructor_copies(request):
    """A walked tree is its trie: the constructor, given the tree's paths,
    builds an equal value with the same hash, and membership by child lookups
    agrees with the set of paths on every member and every one-letter
    extension, on the six graphs and on 120 generated ones (seeds 0..119)."""
    graphs = [request.getfixturevalue(name) for name in ALL_GRAPHS]
    graphs += [random_separated_graph(random.Random(i), 5) for i in range(120)]
    outcomes = set()
    for i, graph in enumerate(graphs):
        for t in _walked_trees(graph, random.Random(f"trie-value:{i}")):
            copy = LowerSet(t.base, t.paths)
            assert copy == t and t == copy and hash(copy) == hash(t), (i, t)
            members = set(t.paths)
            probes = [
                Path(p.base, p.letters + (x,))
                for p in t.paths
                for x, _ in steps(graph, path_range(graph, p))
            ]
            for p in t.paths + tuple(probes):
                got = p in t
                assert got == (p in members), (i, t, p)
                outcomes.add(got)
    assert outcomes == {True, False}


def test_lower_set_constructor_rejects_what_is_no_trie():
    """The constructor needs the base first, every member's parent before
    it, the parents in order and no member twice; anything else raises."""
    v, e, f = vertex_path("v"), Path("v", (E,)), Path("v", (F,))
    ee, fe = Path("v", (E, E)), Path("v", (F, E))
    assert LowerSet("v", [v, e, f, ee, fe]).parent == (-1, 0, 0, 1, 2)
    for bad in ([], [e], [v, ee], [v, e, f, fe, ee], [v, e, e], [v, v], [v, Path("x", ())]):
        with pytest.raises(WordError):
            LowerSet("v", bad)


@pytest.mark.parametrize("level", Level)
def test_chain_tree_memory_is_linear(rose2f, level):
    """The tree of e^8000 is stored as one node per prefix, not one path per
    prefix: evaluate and normal_form together peak below 32 MB under
    tracemalloc (a tree of paths holds 32 million letters here), and the
    normal form is the string oracle's."""
    word = [E] * 8000
    tracemalloc.start()
    try:
        nf = normal_form(rose2f, evaluate(rose2f, word, level))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert nf == string_normal_form(rose2f, word)


def test_tour_examples(rose2t, rose2f):
    """The tour walks each edge down and back, depth first, children in tree
    order; the tree of one vertex has the empty tour."""
    I = lower_closure(rose2t, [Path("v", (E, E)), Path("v", (E, Fi)), Path("v", (Ei,))])
    assert I.tour() == [E, E, Ei, Fi, F, Ei, Ei, E]
    assert lower_closure(rose2f, [vertex_path("v")]).tour() == []


def _trees_to_tour(graph, rng: random.Random):
    """Seeded trees: compatible ones of `random_lower_set`, closures of random
    families that may break the block rule, and the walked trees of
    `_walked_trees`."""
    for _ in range(6):
        v = rng.choice(graph.vertices)
        yield random_lower_set(graph, v, rng)
        yield closure_tree(graph, [random_separated_path(graph, v, rng, 4) for _ in range(rng.randint(1, 4))])
    yield from _walked_trees(graph, rng)


def test_tour_walks_to_the_tree(request):
    """On the six graphs and on 60 generated ones (seeds 0..59), the tour of
    every seeded tree has 2(|T| - 1) letters and walks back to the tree,
    ending at the root; under the block rule too, for the trees that keep it."""
    graphs = [request.getfixturevalue(name) for name in ALL_GRAPHS]
    graphs += [random_separated_graph(random.Random(i), 5) for i in range(60)]
    separated = 0
    for i, graph in enumerate(graphs):
        for I in _trees_to_tour(graph, random.Random(f"tour:{i}")):
            word, root = I.tour(), vertex_path(I.base)
            assert len(word) == 2 * (len(I) - 1), (i, I)
            assert munn_tree(graph, I.base, word) == (I, root), (i, I)
            if block_rule_break(graph, I) is None:
                separated += 1
                assert munn_tree(graph, I.base, word, separated=True) == (I, root), (i, I)
    assert separated > 0


def test_tour_of_a_long_chain(rose2f):
    """A chain of 20,000 letters is toured without recursion: down it and
    back up, and the walk is the chain again."""
    chain = chain_tree(Path("v", (E,) * 20000))
    word = chain.tour()
    assert word == [E] * 20000 + [Ei] * 20000
    assert munn_tree(rose2f, "v", word, separated=True) == (chain, vertex_path("v"))


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_compatible_with_matches_every_member(name, request):
    """`compatible_with` checks the block rule at the one node where the path
    leaves the tree; it agrees with the test against every member on seeded
    canonical and non-canonical trees, paired with every separated path of
    length <= 3 from the base."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"compatible_with:{name}")
    probes = separated_paths(graph, "v", 3)
    canonical, outcomes = set(), set()
    for _ in range(30):
        I = random_lower_set(graph, "v", rng, max_len=3)
        for J in (I, canonicalize(graph, I)):
            canonical.add(is_canonical(J))
            for p in probes:
                got = compatible_with(graph, J, p)
                assert got == compatible_with_every_member(graph, J, p), (J, p)
                outcomes.add(got)
    assert canonical == {True, False}
    if name in ("rose2t", "mixed"):  # the graphs with a block of two edges
        assert outcomes == {True, False}


def test_compatible_with_rejects_another_vertex(rose2t, mixed):
    """A path from another vertex has no compatibility with a tree, also when
    its letters would lead through the trie."""
    V = lower_closure(rose2t, [vertex_path("v")])
    with pytest.raises(WordError):
        compatible_with(rose2t, V, Path("w", (E,)))
    A = lower_closure(mixed, [Path("v", (Letter("a"),))])
    for p in (vertex_path("w"), Path("w", (Letter("a"),)), Path("w", (Letter("d"),))):
        with pytest.raises(WordError):
            compatible_with(mixed, A, p)


def test_block_clash_examples(rose2t, rose2f, mixed):
    assert block_clash(rose2t, (E,), F) == "e"
    assert block_clash(rose2t, (Ei, F), E) == "f"
    assert block_clash(rose2t, (E, Fi), E) is None  # x itself is no clash
    assert block_clash(rose2t, (E,), Fi) is None  # an inverse letter never clashes
    assert block_clash(rose2t, (), E) is None
    assert block_clash(rose2f, (E,), F) is None  # one block per edge
    a, b, c = Letter("a"), Letter("b"), Letter("c")
    assert block_clash(mixed, (c, b), a) == "b"
    assert block_clash(mixed, (c, Letter("d", True)), a) is None


def test_each_clash_is_still_found(rose2t, mixed):
    """The walk and the merge ask the rule only about letters with rivals,
    and every clash still gives the zero: two children at rose2t's root,
    the letter back to the parent on mixed (read from outside and in the
    engine's product), and two chains merged by `meet`.  A letter of a
    one-edge block after the same back letter clashes with nothing, and
    `block_rule_break` names the same pairs as the two-lookup rule did."""
    assert normal_form(rose2t, evaluate_tokens(rose2t, "e ~e f ~f")) == "0"
    assert normal_form(mixed, evaluate_tokens(mixed, "~a b")) == "0"
    assert multiply(mixed, evaluate_tokens(mixed, "~a"), evaluate_tokens(mixed, "b")) is ZERO
    assert normal_form(mixed, evaluate_tokens(mixed, "~a c")) == "(~a c) | ~a c"
    a, b = Letter("a"), Letter("b")
    assert meet(mixed, chain_tree(Path("v", (a,))), chain_tree(Path("v", (b,)))) is None
    assert multiply(mixed, evaluate_tokens(mixed, "a ~a"), evaluate_tokens(mixed, "b ~b")) is ZERO
    cases = [
        (rose2t, LowerSet("v", [Path("v"), Path("v", (F,)), Path("v", (E,))]), "(f, e)"),
        (mixed, LowerSet("w", [Path("w"), Path("w", (~a,)), Path("w", (~a, b))]), "(~a, ~a b)"),
        (mixed, LowerSet("v", [Path("v"), Path("v", (b,)), Path("v", (a,))]), "(b, a)"),
    ]
    for graph, T, pair in cases:
        assert repr(block_rule_break(graph, T)) == pair


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_reach_matches_the_longest_member_prefix(name, request):
    """`I.reach` stops at the node of the longest prefix among the members:
    on seeded canonical and non-canonical trees, for every separated path of
    length <= 4 from the base, and for each member followed by each letter."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"reach:{name}")
    probes = separated_paths(graph, "v", 4)
    stops = set()
    for _ in range(20):
        I = random_lower_set(graph, "v", rng, max_len=3)
        for J in (I, canonicalize(graph, I)):
            words = [p.letters for p in probes]
            words += [p.letters + (x,) for p in J.paths for x, _ in steps(graph, path_range(graph, p))]
            for w in words:
                got = J.reach(w)
                assert got == longest_prefix_in(J, w), (J, w)
                stops.add(got[1] == len(w))
    assert stops == {True, False}


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_configuration_matches_the_path_picture(name, request):
    """`I.configuration(n)` holds the letters x with red(g x) in I, for g the
    member at node n, as the path-level picture probes them, on seeded
    canonical and non-canonical trees; `children(n)` leaves out the letter
    back to the parent."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"configuration:{name}")
    sizes = set()
    for _ in range(30):
        I = random_lower_set(graph, "v", rng, max_len=4)
        for J in (I, canonicalize(graph, I)):
            for n, g in enumerate(J.paths):
                got = J.configuration(n)
                want = config_letters_at(graph, J, g)
                assert len(got) == len(set(got))
                assert set(got) == set(want), (J, g)
                kids = J.children(n)
                assert set(kids) == {p.letters[-1] for p in J.paths if p.letters and p.letters[:-1] == g.letters}
                assert len(got) == len(kids) + (n > 0)
                sizes.add(len(got))
    assert max(sizes) >= 2


def test_canonicalize_examples(rose2f):
    I = lower_closure(rose2f, [make_word(rose2f, "v", (E, E, Fi))])
    I0 = canonicalize(rose2f, I)
    assert {p.letters for p in I0.paths} == {(), (E,), (E, E)}
    assert canonicalize(rose2f, I0) == I0
    J = lower_closure(rose2f, [make_word(rose2f, "v", (Ei,))])
    assert canonicalize(rose2f, J) == lower_closure(rose2f, [vertex_path("v")])


def test_canonicalize_two_routes_agree(rose2f, fim2, mixed):
    rng = random.Random(9)
    for graph in (rose2f, fim2, mixed):
        for _ in range(500):
            I = random_lower_set(graph, "v", rng)
            assert canonicalize(graph, I) == canonicalize_by_stripping(graph, I)


def test_meet_examples(rose2t, rose2f):
    Ie = lower_closure(rose2t, [make_word(rose2t, "v", (E,))])
    If = lower_closure(rose2t, [make_word(rose2t, "v", (F,))])
    assert meet(rose2t, Ie, If) is None
    Ie2 = lower_closure(rose2f, [make_word(rose2f, "v", (E,))])
    If2 = lower_closure(rose2f, [make_word(rose2f, "v", (F,))])
    got = meet(rose2f, Ie2, If2)
    assert {p.letters for p in got.paths} == {(), (E,), (F,)}


def test_meet_checks_both_trees(rose2t):
    """T = {v, f, e} uses both edges of rose2t's block, so it stands for
    zero: `meet` rejects it as either operand and names (f, e), where the
    merge alone, which checks only across the two trees, returns T."""
    v = vertex_path("v")
    T = LowerSet("v", (v, Path("v", (F,)), Path("v", (E,))))
    for I, J in ((T, chain_tree(v)), (chain_tree(v), T)):
        with pytest.raises(IncompatiblePathsError) as err:
            meet(rose2t, I, J)
        assert err.value.pair == (Path("v", (F,)), Path("v", (E,)))


@pytest.mark.parametrize("name", ("rose2t", "mixed"))
def test_every_door_rejects_a_tree_that_breaks_the_rule(name, request):
    """Trees closed from seeded families of separated paths, with no
    compatibility filter, on the graphs with a block of two edges.  Each
    tree that breaks the block rule is turned away at every door: its paths
    by `lower_closure` and `make_element`; the tree by `idempotent_of`, by
    `meet` on either side and as a covering tree of `bounded_cover_check`;
    and its canonical form, which keeps both members of the clash, by
    `make_cylinder`."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"doors:{name}")
    breaks, v = 0, "v"  # the block of two edges leaves v
    root = chain_tree(vertex_path(v))
    for _ in range(200):
        fam = [random_separated_path(graph, v, rng, 4) for _ in range(rng.randint(2, 4))]
        T = closure_tree(graph, fam)
        if block_rule_break(graph, T) is None:
            continue
        breaks += 1
        for enter in (
            lambda: lower_closure(graph, fam),
            lambda: make_element(graph, fam, vertex_path(v), Level.SEPARATED),
            lambda: idempotent_of(graph, T),
            lambda: meet(graph, T, root),
            lambda: meet(graph, root, T),
            lambda: bounded_cover_check(graph, root, [T], 2),
        ):
            with pytest.raises(IncompatiblePathsError):
                enter()
        C = canonicalize(graph, T)
        assert block_rule_break(graph, C) is not None, T
        with pytest.raises(CylinderError, match="breaks the block rule"):
            make_cylinder(graph, C, [])
    assert breaks >= 20, breaks


def test_meet_distinct_vertices_is_zero(fim2):
    assert meet(fim2, lower_closure(fim2, [vertex_path("v")]), lower_closure(fim2, [vertex_path("x1")])) is None


def _meets_against_walk(graph, rng: random.Random, pairs: int) -> int:
    """`meet` of seeded compatible trees at one vertex equals the walk of both
    tip words, field by field; returns how many meets are zero by the block
    rule across the two trees."""
    pool = {v: [random_lower_set(graph, v, rng) for _ in range(12)] for v in graph.vertices}
    zeros = 0
    for _ in range(pairs):
        trees = pool[rng.choice(graph.vertices)]
        I, J = rng.choice(trees), rng.choice(trees)
        got = meet(graph, I, J)
        assert trie_fields(got) == trie_fields(walked_union(graph, I, J)), (I, J)
        zeros += got is None
    return zeros


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_meet_merges_as_the_walk(name, request):
    """The merge of two tries gives the tree that walking both tip words
    gives, on 600 seeded pairs per graph; on the graphs with a block of two
    edges some pairs break the block rule across the two trees."""
    graph = request.getfixturevalue(name)
    zeros = _meets_against_walk(graph, random.Random(f"merge:{name}"), 600)
    if name in ("rose2t", "mixed"):
        assert zeros > 0


def test_meet_merges_as_the_walk_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59), 60 pairs each."""
    zeros = sum(
        _meets_against_walk(
            random_separated_graph(random.Random(i), 4), random.Random(f"merge:{i}"), 60
        )
        for i in range(60)
    )
    assert zeros > 0


def _merge_marks_at_the_edges(graph, rng: random.Random) -> int:
    """`merge_tries` marks where each node's children start as it walks, and
    a merged trie reads its tips off those marks on first use; at each
    vertex they must be the marks `LowerSet` makes from the union's members,
    and the tips must not be on the union until they are read.  The cases:
    a root-only tree with itself; seeded trees I with themselves; a chain
    one letter past I's last node (a tip, as the last node has no child),
    either way round; the tree of every reduced step past that tip, so J's
    new nodes all hang under it; and a chain merged without the rule, as the
    ladder of `cylinder_difference` merges.  Returns how many unions were
    compared."""
    compared = 0

    def check(I, J, separated):
        nonlocal compared
        got = merge_tries(graph, I, J, separated=separated)
        if got is not None:
            assert "_tip_ids" not in got.__dict__
            made = LowerSet(I.base, got.paths)
            assert got._tip_ids == made._tip_ids, (I, J, separated)
            assert trie_fields(got) == trie_fields(made), (I, J, separated)
            compared += 1

    for v in graph.vertices:
        root = chain_tree(vertex_path(v))
        check(root, root, True)
        for _ in range(4):
            I = random_lower_set(graph, v, rng, max_len=3)
            check(I, I, True)
            last = I.paths[-1]
            past = [
                Path(v, last.letters + (x,))
                for x, _ in steps(graph, path_range(graph, last), last.letters[-1] if last.letters else None)
            ]
            for p in past:
                for separated in (True, False):
                    check(I, chain_tree(p), separated)
                    check(chain_tree(p), I, separated)
            if past:
                under = lower_closure_unchecked(graph, past)
                check(I, under, True)
                check(I, under, False)
            check(I, chain_tree(random_separated_path(graph, v, rng, 4)), False)
    return compared


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_merge_marks_at_the_edges(name, request):
    graph = request.getfixturevalue(name)
    assert _merge_marks_at_the_edges(graph, random.Random(f"marks:{name}")) > 0


def test_merge_marks_at_the_edges_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59)."""
    for i in range(60):
        graph = random_separated_graph(random.Random(i), 4)
        assert _merge_marks_at_the_edges(graph, random.Random(f"marks:{i}")) > 0, i


def _chain_unions_against_sets(graph, rng, count) -> int:
    """`chain_unions` against the set route on `count` seeded trees, each
    with up to five separated paths of length <= 3 from its base: the same
    index sets in the same order, with the same tries.  Returns how many
    index sets a clash dropped."""
    dropped = 0
    for _ in range(count):
        v = rng.choice(graph.vertices)
        I = random_lower_set(graph, v, rng, max_len=3)
        pool = separated_paths(graph, v, 3)[1:]
        paths = rng.sample(pool, min(len(pool), rng.randint(0, 5)))
        got = [(S, trie_fields(tree)) for S, tree in chain_unions(graph, I, paths)]
        want = [(S, trie_fields(tree)) for S, tree in chain_unions_by_sets(graph, I, paths)]
        assert got == want, (I, paths)
        dropped += 2 ** len(paths) - len(got)
    return dropped


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_chain_unions_match_the_set_route(name, request):
    """The walk over the unions of a tree with the chains of each subset, by
    size then index, keeps the sets and trees of the set route, 150 seeded
    cases per graph; on the graphs with a block of two edges some unions
    clash."""
    graph = request.getfixturevalue(name)
    dropped = _chain_unions_against_sets(graph, random.Random(f"unions:{name}"), 150)
    if name in ("rose2t", "mixed"):
        assert dropped > 0


def test_chain_unions_match_the_set_route_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59), 15 cases each."""
    dropped = sum(
        _chain_unions_against_sets(
            random_separated_graph(random.Random(i), 4), random.Random(f"unions:{i}"), 15
        )
        for i in range(60)
    )
    assert dropped > 0


def test_chain_unions_examples(rose2t):
    """On rose2t, {e} and {f} each keep the rule with the root, and their
    union clashes; e e joins either, and its clash with f drops {f, e e}."""
    root = chain_tree(vertex_path("v"))
    paths = [make_word(rose2t, "v", (E,)), make_word(rose2t, "v", (F,)), make_word(rose2t, "v", (E, E))]
    assert [S for S, _ in chain_unions(rose2t, root, paths)] == [(), (0,), (1,), (2,), (0, 2)]
    assert list(chain_unions(rose2t, root, [])) == [((), root)]


def test_class_relations(rose2f):
    I = lower_closure(rose2f, [make_word(rose2f, "v", (E, E, Fi))])
    J = lower_closure(rose2f, [make_word(rose2f, "v", (E, E))])
    assert class_eq(rose2f, I, J)
    K = lower_closure(rose2f, [make_word(rose2f, "v", (E,))])
    assert class_leq(rose2f, J, K)
    assert not class_leq(rose2f, K, J)


def test_semilattice_laws(rose2f, fim2):
    rng = random.Random(21)
    for graph in (rose2f, fim2):
        pool = [random_lower_set(graph, "v", rng) for _ in range(60)]
        for _ in range(5000):
            I, J, K = (rng.choice(pool) for _ in range(3))
            assert meet(graph, I, J) == meet(graph, J, I)
            assert meet(graph, I, I) == I
            ij = meet(graph, I, J)
            left = meet(graph, ij, K) if ij is not None else None
            jk = meet(graph, J, K)
            right = meet(graph, I, jk) if jk is not None else None
            assert left == right


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**20))
def test_meet_laws_hypothesis(seed):
    from conftest import load

    graph = load("rose2t")
    rng = random.Random(seed)
    I = random_lower_set(graph, "v", rng, max_len=3)
    J = random_lower_set(graph, "v", rng, max_len=3)
    assert meet(graph, I, J) == meet(graph, J, I)
    assert meet(graph, I, I) == I
    ij = meet(graph, I, J)
    if ij is not None:
        assert meet(graph, ij, J) == ij


def test_congruence_respects_meet(rose2f):
    rng = random.Random(22)
    for _ in range(500):
        I = random_lower_set(rose2f, "v", rng)
        J = random_lower_set(rose2f, "v", rng)
        ij = meet(rose2f, I, J)
        cij = meet(rose2f, canonicalize(rose2f, I), canonicalize(rose2f, J))
        if ij is None or cij is None:
            continue
        assert canonicalize(rose2f, ij) == canonicalize(rose2f, cij)


def test_class_leq_partial_order(rose2f):
    rng = random.Random(23)
    pool = [random_lower_set(rose2f, "v", rng) for _ in range(40)]
    for I in pool:
        assert class_leq(rose2f, I, I)
    for I in pool:
        for J in pool:
            if class_leq(rose2f, I, J) and class_leq(rose2f, J, I):
                assert class_eq(rose2f, I, J)


def _all_lower_sets(graph, v, depth):
    """Every lower subset of the depth-ball tree containing the base."""
    ps = separated_paths(graph, v, depth)
    children = {p: [q for q in ps if len(q.letters) == len(p.letters) + 1 and is_prefix(p, q)] for p in ps}

    def expand(p):
        subsets = [{p}]
        for c in children[p]:
            grown = []
            for s in subsets:
                grown.append(s)
                for cs in expand(c):
                    grown.append(s | cs)
            subsets = grown
        return subsets

    return expand(vertex_path(v))


def test_compatible_set_implementations_agree(fim2, rose2t):
    sets = _all_lower_sets(fim2, "v", 3)
    assert len(sets) == 10000
    for s in sets:
        paths = tuple(s)
        assert is_separated_compatible_family(fim2, paths) == is_compatible_set_by_configs(
            fim2, paths
        )
    # rose2t has genuine incompatibilities at depth 2
    for s in _all_lower_sets(rose2t, "v", 2):
        paths = tuple(s)
        assert is_separated_compatible_family(
            rose2t, paths
        ) == is_compatible_set_by_configs(rose2t, paths)


def test_compatible_set_examples(rose2t, rose2f):
    tri = (vertex_path("v"), Path("v", (E,)), Path("v", (F,)))
    assert not is_separated_compatible_family(rose2t, tri)
    assert not is_compatible_set_by_configs(rose2t, tri)
    assert is_separated_compatible_family(rose2f, tri)
    assert is_compatible_set_by_configs(rose2f, tri)
    # ~e f is not separated on rose2t: both routes refuse the set at once
    unseparated = (vertex_path("v"), Path("v", (Ei,)), Path("v", (Ei, F)))
    assert not is_separated_compatible_family(rose2t, unseparated)
    assert not is_compatible_set_by_configs(rose2t, unseparated)


def test_render(rose2f):
    I = lower_closure(rose2f, [make_word(rose2f, "v", (E,))])
    assert render_lower_set(I) == "{v, e}"
    assert is_canonical(I)


def _outcome(fn, *args):
    """The value of a call, or the type of the SgisError it raises."""
    try:
        return fn(*args)
    except SgisError as exc:
        return type(exc)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_chain_tree_is_the_closure_of_its_path(name, request):
    """The chain of one path, filled in without a walk, has the trie fields
    of the path's closure, marks included: every separated path of length
    <= 4 from every vertex, the empty path among them."""
    graph = request.getfixturevalue(name)
    for v in graph.vertices:
        for p in separated_paths(graph, v, 4):
            chain = chain_tree(p)
            assert trie_fields(chain) == trie_fields(lower_closure(graph, [p])), p
            assert max_elements(chain) == (p,)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_block_rule_break_matches_the_configuration_route(name, request):
    """A tree given by its members breaks the block rule iff the
    local-configuration route rejects its members; the pair named is two
    members, in tree order, that are not compatible."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"block-rule:{name}")
    breaks = 0
    for _ in range(300):
        v = rng.choice(graph.vertices)
        T = closure_tree(graph, [random_separated_path(graph, v, rng, 4) for _ in range(rng.randint(1, 4))])
        clash = block_rule_break(graph, T)
        assert (clash is None) == is_compatible_set_by_configs(graph, T.paths), T
        if clash is not None:
            breaks += 1
            p, q = clash
            assert p in T and q in T and not compatible(graph, p, q)
            assert T.paths.index(p) < T.paths.index(q)
    if name in ("rose2t", "mixed"):  # the graphs with a block of two edges
        assert breaks > 0


def test_clash_named_in_tree_order_whatever_the_input_order(rose2t):
    """{f f f, f f e, e} breaks the block rule at the root (e, f) and at
    f f (f f e, f f f); the first clash in tree order is named, in every
    order of the paths."""
    fam = [Path("v", (F, F, F)), Path("v", (F, F, E)), Path("v", (E,))]
    for order in itertools.permutations(fam):
        for build in (
            lambda paths: lower_closure(rose2t, paths),
            lambda paths: make_element(rose2t, paths, vertex_path("v"), Level.SEPARATED),
        ):
            with pytest.raises(IncompatiblePathsError) as err:
                build(order)
            assert err.value.pair == (Path("v", (F,)), Path("v", (E,))), order


@pytest.mark.parametrize("name", ("rose2t", "mixed", "fim2"))
def test_clash_named_by_block_rule_break(name, request):
    """`lower_closure` and `make_element` at the separated level name the
    pair `block_rule_break` reads off the closure, for every order of each
    seeded family of 2 to 4 paths."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"clash:{name}")
    clashes = 0
    for _ in range(60):
        v = rng.choice(graph.vertices)
        fam = [random_separated_path(graph, v, rng, 4) for _ in range(rng.randint(2, 4))]
        want = block_rule_break(graph, lower_closure_unchecked(graph, fam))
        clashes += want is not None
        for order in itertools.permutations(fam):
            for build in (
                lambda paths: lower_closure(graph, paths),
                lambda paths: make_element(graph, paths, vertex_path(v), Level.SEPARATED),
            ):
                try:
                    build(order)
                    got = None
                except IncompatiblePathsError as exc:
                    got = exc.pair
                assert got == want, (order, got, want)
    if name != "fim2":  # the graphs with a block of two edges
        assert clashes > 0


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_walk_matches_set_route(name, request):
    """The constructors that walk a Munn tree equal the set route of
    `helpers` (closed, sorted and pairwise-checked sets of paths), tree order
    and error type included, on seeded families of separated paths,
    incompatible ones included.  Every pair an IncompatiblePathsError names
    fails `compatible`; for two paths it is the pair the set route names."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"walk:{name}")
    conflicts = 0
    closed: dict[str, list[LowerSet]] = {}
    for _ in range(500):
        v = rng.choice(graph.vertices)
        fam = [random_separated_path(graph, v, rng, 4) for _ in range(rng.randint(1, 4))]
        T = closure_tree(graph, fam)
        assert lower_closure_unchecked(graph, fam) == T
        assert canonicalize(graph, T) == canonicalize_by_stripping(graph, T)
        assert _outcome(lower_closure, graph, fam) == _outcome(checked_closure_tree, graph, fam)
        try:
            closed.setdefault(v, []).append(lower_closure(graph, fam))
        except IncompatiblePathsError as exc:
            conflicts += 1
            assert not compatible(graph, *exc.pair)
            if len(set(fam)) == 2:
                with pytest.raises(IncompatiblePathsError) as ref:
                    checked_closure_tree(graph, fam)
                assert exc.pair == ref.value.pair
        carrier = rng.choice(T.paths)
        if rng.random() < 0.2:  # a carrier whose anchor may be missing
            carrier = random_separated_path(graph, v, rng, 3)
        for level in Level:
            try:
                got = make_element(graph, fam, carrier, level)
            except IncompatiblePathsError as exc:
                assert not compatible(graph, *exc.pair)
                got = IncompatiblePathsError
            except SgisError as exc:
                got = type(exc)
            want = _outcome(closure_element, graph, fam, carrier, level)
            assert got == want, (fam, carrier, level)
    if name in ("rose2t", "mixed"):  # the graphs with a block of two edges
        assert conflicts > 0
    trees = [I for group in closed.values() for I in group]
    for _ in range(600):
        I, J = rng.choice(trees), rng.choice(closed[rng.choice(trees).base])
        assert meet(graph, I, J) == union_meet(graph, I, J)
    for _ in range(20):
        depth = rng.randint(1, 3)
        grow = rng.choice((grow_maximal_truncation, random_filter_truncation))
        members = grow(graph, rng.choice(graph.vertices), depth, rng)
        Z = Truncation(LowerSet(next(iter(members)).base, sorted_paths(graph, members)), depth)
        for W in (Z, extend_inverse_tails(graph, Z, depth + 1)):
            assert trim_inverse_tails(graph, W).paths == canonicalize_by_stripping(graph, W.paths)
