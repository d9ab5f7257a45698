import copy
import itertools
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load
from helpers import (
    composable_letter_words,
    letter_key_by_pair,
    make_word,
    random_separated_graph,
    read_atom_by_atom,
    separated_paths,
)
from sgis.errors import Budget, BudgetExceededError, WordError
from sgis.graph import SeparatedGraph, free_separation, trivial_separation
from sgis.oracle import fim_graph
from sgis.paths import (
    Letter,
    Path,
    checked_path,
    compatible,
    compatible_by_reduction,
    compose,
    extensions,
    is_prefix,
    is_reduced,
    is_separated_path,
    letter_range,
    parse_word_string,
    path_inverse,
    path_key,
    path_range,
    positive_part,
    reduce_letters,
    reduce_path,
    render_free_word,
    render_path,
    steps,
    vertex_path,
    word_from_atoms,
)
from sgis.semigroup import ZERO, Element, Level, _walk, evaluate, grading
from sgis.semilattice import block_clash

E = Letter("e", False)
Ei = Letter("e", True)
F = Letter("f", False)
Fi = Letter("f", True)


def w(graph, *letters):
    return make_word(graph, "v", letters)


def test_letters_are_interned():
    """One shared instance per (edge, inverse) pair: equality and hashing go
    by identity and `~x` is a lookup that builds no letter."""
    assert Letter("e", True) is ~Letter("e", False)
    assert Letter("e") is E and Letter(edge="e", inverse=True) is Ei
    for x in (E, Ei, F, Fi):
        assert ~~x is x and ~x is not x
        assert x.inverse == (x is Ei or x is Fi)
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    assert E != F and E != Ei and {E, Letter("e", False)} == {E}
    assert [repr(x) for x in (E, Ei, F, Fi)] == ["e", "~e", "f", "~f"]


def test_interning_is_thread_safe():
    """Threads that make the same new letters at once all get the one
    instance per pair, each linked to the one inverse."""
    names = [f"stress{i}" for i in range(300)]
    workers = 8
    start = threading.Barrier(workers)
    got: list[list[Letter]] = [[] for _ in range(workers)]

    def make(k):
        start.wait(timeout=10)
        for name in names:
            got[k].append(Letter(name, k % 2 == 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, name in enumerate(names):
        x = Letter(name)
        assert ~x is Letter(name, True) and ~~x is x
        for k in range(workers):
            assert got[k][i] is (~x if k % 2 else x)


def test_letters_are_immutable():
    for field, value in (("edge", "f"), ("inverse", True), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(E, field, value)
    with pytest.raises(AttributeError):
        del E.edge
    assert (E.edge, E.inverse) == ("e", False)


def test_paths_are_immutable_values():
    """A path is its two fields: equal to another path with equal fields
    and to nothing else, hashed as the pair, frozen, and copied or pickled
    to an equal path."""
    p = Path("v", (E, Fi))
    assert (p.base, p.letters, len(p)) == ("v", (E, Fi), 2)
    assert Path("v") == Path(base="v", letters=()) and Path("v").letters == ()
    assert [repr(q) for q in (p, Path("v"))] == ["e ~f", "v"]
    assert p == Path("v", (E, Fi)) and p != Path("w", (E, Fi)) and p != Path("v", (E,))
    for other in (("v", (E, Fi)), "e ~f", None):
        assert p != other and not p == other
    assert hash(p) == hash(("v", (E, Fi))) and hash(Path("v")) == hash(("v", ()))
    assert {p: 1}[Path("v", (E, Fi))] == 1
    for field in ("base", "letters", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(p, field, "w")
        with pytest.raises(FrozenInstanceError):
            delattr(p, field)
    assert (p.base, p.letters) == ("v", (E, Fi))
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is Path and q == p and hash(q) == hash(p)
        assert q.letters[0] is E and q.letters[1] is Fi


def test_reduce_basic(rose2f):
    assert reduce_path(w(rose2f, E, Ei)) == vertex_path("v")
    assert reduce_path(w(rose2f, E, E, Ei, F)) == w(rose2f, E, F)
    assert reduce_path(w(rose2f, Ei, E)) == vertex_path("v")


def test_reduce_idempotent_and_preserves_endpoints(rose2f):
    word = w(rose2f, E, F, Fi, Ei, F)
    r = reduce_path(word)
    assert reduce_path(r) == r
    assert r.base == word.base
    assert path_range(rose2f, r) == path_range(rose2f, word)


def _random_order_reduce(letters, rng):
    work = list(letters)
    while True:
        spots = [
            i
            for i in range(len(work) - 1)
            if work[i].edge == work[i + 1].edge
            and work[i].inverse != work[i + 1].inverse
        ]
        if not spots:
            return tuple(work)
        i = rng.choice(spots)
        del work[i : i + 2]


def test_reduce_confluence(rose2f):
    rng = random.Random(5)
    alphabet = [E, Ei, F, Fi]
    for _ in range(2000):
        letters = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        assert reduce_letters(letters) == _random_order_reduce(letters, rng)


def test_separated_path_examples(rose2t, rose2f):
    assert not is_separated_path(rose2t, w(rose2t, Ei, F))
    assert is_separated_path(rose2f, w(rose2f, Ei, F))
    assert not is_reduced(w(rose2f, E, Ei))


def test_free_separation_all_reduced_are_separated(rose2f):
    for word in composable_letter_words(rose2f, 6):
        p = Path("v", tuple(word))
        if is_reduced(p):
            assert is_separated_path(rose2f, p)


def test_steps_matches_definition(rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
    """`steps` is the stepping rule of reduced separated paths: after `last`
    it offers exactly the letters x with `last x` reduced and separated, out-
    edges before in-edges, each with the vertex it reaches."""
    for graph in (rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
        every = [Letter(e, False) for e, _, _ in graph.edges]
        every += [Letter(e, True) for e, _, _ in graph.edges]
        for at in graph.vertices:
            # declaration order: out-edges first, then in-edges
            leaving = [(x, letter_range(graph, x)) for x in every if letter_range(graph, ~x) == at]
            assert steps(graph, at) == leaving
            for last in (y for y in every if letter_range(graph, y) == at):
                two = {x: Path(letter_range(graph, ~last), (last, x)) for x, _ in leaving}
                expected = [
                    (x, to)
                    for x, to in leaving
                    if is_reduced(two[x]) and is_separated_path(graph, two[x])
                ]
                assert steps(graph, at, last) == expected


def test_extensions_match_definition(rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
    """`extensions` is p followed by the reduced separated paths that extend
    p up to max_len letters, by every letter or, with `inverse=True`, by
    inverse letters only, in the breadth-first order of the engine-free
    enumeration.  The budget pays once per path listed, p included, so a
    budget one short of the list ends the walk."""
    for graph in (rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
        every = separated_paths(graph, "v", 4)
        for p in separated_paths(graph, "v", 2):
            for max_len in range(5):
                for inverse in (False, True):
                    expected = [p] + [
                        q
                        for q in every
                        if len(p.letters) < len(q.letters) <= max_len
                        and is_prefix(p, q)
                        and (not inverse or all(x.inverse for x in q.letters[len(p.letters):]))
                    ]
                    budget = Budget()
                    assert extensions(graph, p, max_len, budget, inverse=inverse) == expected
                    assert budget.used == len(expected)
                    with pytest.raises(BudgetExceededError):
                        extensions(graph, p, max_len, Budget(len(expected) - 1), inverse=inverse)
                    extensions(graph, p, max_len, Budget(len(expected)), inverse=inverse)


def test_compatibility_examples(rose2t, rose2f):
    assert not compatible(rose2t, w(rose2t, E), w(rose2t, F))
    assert compatible(rose2f, w(rose2f, E), w(rose2f, F))
    assert compatible(rose2f, w(rose2f, E, F), w(rose2f, E))


def test_compatibility_source_mismatch_is_error(fim2):
    a = make_word(fim2, "v", (Letter("e1", False),))
    b = make_word(fim2, "x1", (Letter("e1", True),))
    for route in (compatible, compatible_by_reduction):
        with pytest.raises(WordError, match="across vertices"):
            route(fim2, a, b)


def test_vertex_compatible_with_everything(rose2t):
    v = vertex_path("v")
    for p in separated_paths(rose2t, "v", 4):
        assert compatible(rose2t, v, p)
        assert compatible(rose2t, p, v)


def test_compatibility_two_routes_agree(rose2t, rose2f, fim2, mixed):
    for graph, v, depth in (
        (rose2t, "v", 4),
        (rose2f, "v", 3),
        (fim2, "v", 4),
        (mixed, "v", 4),
    ):
        ps = separated_paths(graph, v, depth)
        for a in ps:
            for b in ps:
                assert compatible(graph, a, b) == compatible_by_reduction(graph, a, b)


def test_compatibility_reflexive_symmetric_downward(rose2t, mixed):
    for graph in (rose2t, mixed):
        ps = separated_paths(graph, "v", 4)
        for a in ps:
            assert compatible(graph, a, a)
        for a in ps:
            for b in ps:
                ab = compatible(graph, a, b)
                assert ab == compatible(graph, b, a)
                if ab:
                    for i in range(len(a.letters) + 1):
                        for j in range(len(b.letters) + 1):
                            assert compatible(
                                graph,
                                Path(a.base, a.letters[:i]),
                                Path(b.base, b.letters[:j]),
                            )


def test_compatibility_symmetry_depth_six(rose2t):
    # exhaustive at depth 5, sampled at the depth-6 boundary
    ps5 = separated_paths(rose2t, "v", 5)
    for a in ps5:
        for b in ps5:
            assert compatible(rose2t, a, b) == compatible(rose2t, b, a)
    rng = random.Random(17)
    ps6 = separated_paths(rose2t, "v", 6)
    for _ in range(20_000):
        a, b = rng.choice(ps6), rng.choice(ps6)
        ab = compatible(rose2t, a, b)
        assert ab == compatible(rose2t, b, a)
        if ab:
            i, j = rng.randint(0, len(a.letters)), rng.randint(0, len(b.letters))
            assert compatible(
                rose2t, Path(a.base, a.letters[:i]), Path(b.base, b.letters[:j])
            )


def test_longest_common_prefix(rose2f, rose2t):
    a = w(rose2f, E, E, Fi)
    b = w(rose2f, E, F)
    # they part after one letter, at f against e: free on rose2f, one block on rose2t
    assert compatible(rose2f, a, b) and compatible(rose2f, b, a)
    assert not compatible(rose2t, a, b) and not compatible(rose2t, b, a)
    assert compatible(rose2t, a, a)  # no divergence: a prefix of itself
    assert compatible(rose2t, b, w(rose2t, E, Fi))  # parts at ~f: an inverse letter


def test_prefix_decompose(rose2f):
    """`positive_part` is p0 in the unique split p = p0 w, w a run of
    inverse letters."""
    assert positive_part(w(rose2f, E, E, Fi)) == w(rose2f, E, E)
    assert positive_part(w(rose2f, E, F)) == w(rose2f, E, F)
    assert positive_part(w(rose2f, Ei, Fi)) == vertex_path("v")
    assert positive_part(w(rose2f, E, Fi, F, Ei)) == w(rose2f, E, Fi, F)


def test_compose(rose2f, fim2):
    assert compose(rose2f, w(rose2f, E), w(rose2f, Ei, F)) == w(rose2f, F)
    a = make_word(fim2, "v", (Letter("e1", False),))
    b = make_word(fim2, "v", (Letter("e2", False),))
    assert compose(fim2, a, b) is None


def test_compose_associative_and_antihomomorphic(rose2t):
    rng = random.Random(11)
    words = [Path("v", tuple(word)) for word in composable_letter_words(rose2t, 5)]
    for _ in range(3000):
        a, b, c = (rng.choice(words) for _ in range(3))
        left = compose(rose2t, compose(rose2t, a, b), c)
        right = compose(rose2t, a, compose(rose2t, b, c))
        assert left == right
        ab = compose(rose2t, a, b)
        assert path_inverse(rose2t, ab) == compose(
            rose2t, path_inverse(rose2t, b), path_inverse(rose2t, a)
        )


def test_omega_forgets_vertices(fim2):
    """The grading of an element is its carrier's letters, vertices
    forgotten."""
    p = make_word(fim2, "v", (Letter("e1", False), Letter("f1", True)))
    a = evaluate(fim2, [p.base, *p.letters])
    assert grading(a) == p.letters and render_free_word(grading(a)) == "e1 ~f1"
    assert grading(evaluate(fim2, ["v"])) == () and render_free_word(()) == "1"


def test_word_tokens(rose2f, fim2):
    atoms = parse_word_string(rose2f, "e ~e v f")
    assert word_from_atoms(rose2f, atoms) == w(rose2f, E, Ei, F)
    # mixing non-composable tokens is legal input, denoting zero downstream
    atoms = parse_word_string(fim2, "e1 e2")
    assert word_from_atoms(fim2, atoms) is None
    for text, why in (
        ("e ghost", "unknown token"),
        ("", "empty word"),
        ("  ", "empty word"),
        ("e ~zzz", "unknown edge 'zzz'"),
    ):
        with pytest.raises(WordError, match=why):
            parse_word_string(rose2f, text)


ALL_GRAPHS = ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed")


def _ranks_keep_the_pair_order(graph) -> int:
    """On every pair of the graph's letters, its `letter_rank` table orders
    them as the reference pair key does.  Returns how many pairs were
    compared."""
    rank = graph.letter_rank
    letters = [Letter(e, inverse) for e in graph.edge_index for inverse in (False, True)]
    for a, b in itertools.product(letters, repeat=2):
        got = rank[a] < rank[b], rank[a] == rank[b]
        want = letter_key_by_pair(graph, a) < letter_key_by_pair(graph, b), a is b
        assert got == want, (a, b)
    return len(letters) ** 2


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_letter_ranks_keep_the_pair_order(name):
    """The rank table orders letters as (inverse, -edge index) does, and so
    `path_key` orders the separated paths up to length 3 at each vertex as
    the length and the letters' pair keys do."""
    graph = load(name)
    assert _ranks_keep_the_pair_order(graph) > 0
    for v in graph.vertices:
        paths = separated_paths(graph, v, 3)
        want = sorted(paths, key=lambda p: (len(p.letters), [letter_key_by_pair(graph, x) for x in p.letters]))
        assert sorted(paths, key=lambda p: path_key(graph, p)) == want


def test_letter_ranks_keep_the_pair_order_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59)."""
    pairs = sum(_ranks_keep_the_pair_order(random_separated_graph(random.Random(i), 4)) for i in range(60))
    assert pairs > 1000


def _rivals_keep_the_block_rule(graph) -> int:
    """A letter has rivals iff it is positive and its block names another
    edge, and its rivals are the other edges of that block, read off
    `block_of` (an infinite-flagged block by its named edges); and
    `block_clash` of each letter against each one letter is the rule's
    reference: another positive letter of x's block.  Returns how many
    letters have rivals."""
    rivals = graph.letter_rivals
    letters = [Letter(e, inverse) for e in graph.edge_index for inverse in (False, True)]
    assert set(rivals) <= set(letters)
    for x in letters:
        block = graph.block_of[x.edge]
        others = frozenset(Letter(e) for e in block.edges if e != x.edge)
        assert rivals.get(x) == (others if others and not x.inverse else None), x
        for y in letters:
            same = not x.inverse and not y.inverse and y is not x and graph.block_of[y.edge] is block
            assert block_clash(graph, (y,), x) == (y.edge if same else None), (x, y)
    return len(rivals)


@pytest.mark.parametrize("name, contested", [
    ("rose1t", 0), ("rose2t", 2), ("rose2f", 0), ("fim2", 0), ("fim2inf", 0), ("mixed", 2)
])
def test_letter_rivals_are_the_block_rule(name, contested):
    """On the six graphs, the rivals table lists the letters of the two-edge
    blocks, rose2t's B1 and mixed's VAB, and no other."""
    assert _rivals_keep_the_block_rule(load(name)) == contested


def test_letter_rivals_are_the_block_rule_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59), trivial, free
    and mixed separations with infinite-flagged blocks among them."""
    graphs = [random_separated_graph(random.Random(i), 4) for i in range(60)]
    counts = [_rivals_keep_the_block_rule(graph) for graph in graphs]
    assert 0 in counts and sum(counts) > 30
    assert any(b.infinite and len(b.edges) > 1 for graph in graphs for b in graph.blocks)


def _atom_ends_keep_the_edge_ends(graph) -> None:
    """The graph's tables of atom ends, read off `source_of` and `range_of`:
    a vertex runs from itself to itself, an edge e from its source to its
    range and ~e back, and nothing else is listed."""
    sources, ranges = graph.atom_source, graph.atom_range
    for v in graph.vertices:
        assert sources[v] == ranges[v] == v, v
    for e in graph.edge_index:
        x, s, r = Letter(e), graph.source_of[e], graph.range_of[e]
        assert (sources[x], ranges[x], sources[~x], ranges[~x]) == (s, r, r, s), e
    assert len(sources) == len(ranges) == len(graph.vertices) + 2 * len(graph.edges)


def _every_maker(graph):
    """The graph again from each maker of a graph: built directly, and with
    its vertices and edges under the trivial and the free separations."""
    return [
        graph,
        SeparatedGraph(graph.vertices, graph.edges, graph.blocks, allow_isolated=True),
        trivial_separation(graph.vertices, graph.edges, allow_isolated=True),
        free_separation(graph.vertices, graph.edges, allow_isolated=True),
    ]


def test_every_graph_carries_its_letter_tables():
    """Every maker of a graph (`parse_graph`, direct construction,
    `trivial_separation`, `free_separation` and `oracle.fim_graph`) gives
    it its letter tables, on the six graphs and 60 generated graphs (seeds
    0..59): the ranks are 0 .. 2|E| - 1 in the reference pair order, the
    rivals keep the block rule, and the atom ends are the edges' ends.
    Twins parsed from one file get equal tables that are distinct
    objects."""
    graphs = [fim_graph(["a", "b"])]
    for graph in [*map(load, ALL_GRAPHS), *(random_separated_graph(random.Random(i), 4) for i in range(60))]:
        graphs += _every_maker(graph)
    for graph in graphs:
        assert sorted(graph.letter_rank.values()) == list(range(2 * len(graph.edges)))
        _ranks_keep_the_pair_order(graph)
        _rivals_keep_the_block_rule(graph)
        _atom_ends_keep_the_edge_ends(graph)
    graph, twin = load("mixed"), load("mixed")
    for name in ("letter_rank", "letter_rivals", "atom_source", "atom_range"):
        table = getattr(graph, name)
        assert getattr(twin, name) == table and getattr(twin, name) is not table, name


def test_make_word_raises_on_what_the_reader_rejects(rose2f, fim2):
    with pytest.raises(WordError, match="unknown vertex 'zz'"):
        make_word(rose2f, "zz", ())
    with pytest.raises(WordError, match="unknown edge 'zz'"):
        make_word(rose2f, "v", (E, Letter("zz", False)))
    with pytest.raises(WordError, match="do not compose"):
        make_word(fim2, "v", (Letter("e1", False), Letter("e2", False)))
    assert make_word(rose2f, "v", (E, Ei)).letters == (E, Ei)  # unreduced is kept


def test_checked_path_is_the_door():
    """`checked_path` passes every reduced separated path of length <= 4 on
    the six graphs, and rejects each of them, saying why, once one letter is
    changed so that the letters stop composing, being reduced or being
    separated.  The reference is the list of `separated_paths` and a read
    atom by atom."""
    why_seen = set()
    for name in ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed"):
        graph = load(name)
        letters = [Letter(e, inv) for e in graph.edge_index for inv in (False, True)]
        for v in graph.vertices:
            good = set(separated_paths(graph, v, 4))
            for p in good:
                assert checked_path(graph, p) is p
                for i, x in itertools.product(range(len(p.letters)), letters):
                    q = Path(v, p.letters[:i] + (x,) + p.letters[i + 1 :])
                    if q in good:
                        continue
                    if read_atom_by_atom(graph, [v, *q.letters]) is None:
                        why = "does not compose"
                    elif any(a.edge == b.edge and a.inverse != b.inverse for a, b in zip(q.letters, q.letters[1:])):
                        why = "is not reduced"
                    else:
                        why = "is not separated"
                    with pytest.raises(WordError, match=f"path {render_path(q)!r} {why}"):
                        checked_path(graph, q)
                    why_seen.add(why)
    assert len(why_seen) == 3


def test_checked_path_names_an_unknown_atom(rose2f):
    with pytest.raises(WordError, match="unknown edge 'zzz'"):
        checked_path(rose2f, Path("v", (E, Letter("zzz"))))
    with pytest.raises(WordError, match="unknown vertex 'w'"):
        checked_path(rose2f, Path("w", (E,)))


def test_render_roundtrip(rose2f):
    p = w(rose2f, E, E, Fi)
    assert render_path(p) == "e e ~f"
    atoms = parse_word_string(rose2f, render_path(p))
    assert word_from_atoms(rose2f, atoms) == p
    assert render_path(vertex_path("v")) == "v"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([E, Ei, F, Fi]), max_size=14))
def test_reduce_is_reduced(letters):
    assert is_reduced(Path("v", reduce_letters(tuple(letters))))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([E, Ei, F, Fi]), max_size=10),
    st.lists(st.sampled_from([E, Ei, F, Fi]), max_size=10),
)
def test_reduce_respects_concatenation(xs, ys):
    # reducing in stages matches reducing in one pass
    staged = reduce_letters(reduce_letters(tuple(xs)) + reduce_letters(tuple(ys)))
    assert staged == reduce_letters(tuple(xs) + tuple(ys))


BUNDLED = ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed")


def _read(read, graph, atoms):
    try:
        return read(graph, atoms)
    except WordError as err:
        return ("WordError", str(err))


def _evaluate_at(level):
    return lambda graph, atoms: evaluate(graph, atoms, level)


def _read_then_walk(level):
    """The reference for `evaluate`: the word read atom by atom, then the
    walk of the path read from its base, which checks nothing."""

    def read(graph, atoms):
        p = read_atom_by_atom(graph, atoms)
        if p is None:
            return ZERO
        tree, end = _walk(graph, p.base, p.letters, level)
        return ZERO if tree is None else Element(tree, end, level)

    return read


@pytest.mark.parametrize("name", BUNDLED)
def test_reader_matches_the_atom_by_atom_reference(name):
    """`word_from_atoms` reads as the reference that checks one atom at a
    time: the same path, the same zero, or the same WordError naming the
    first unknown atom.  `evaluate`, whose walk reads the atoms as it goes,
    gives at each level what the reference's path walks to: the same
    element, zero, or the same WordError.  The words are walks on the double
    graph with vertex atoms (at the running vertex or elsewhere), letters of
    edges the graph lacks, unknown vertex names and non-composing pairs
    mixed in, also after the word has stopped composing."""
    graph = load(name)
    others = [load(n) for n in BUNDLED if n != name]
    foreign = sorted({e for g in others for e in g.edge_index} - set(graph.edge_index)) + ["ghost"]
    strangers = [Letter(e, inv) for e in foreign for inv in (False, True)]
    strangers += sorted({v for g in others for v in g.vertices} - set(graph.vertices)) + ["nowhere"]
    letters = [Letter(e, inv) for e in graph.edge_index for inv in (False, True)]
    rng = random.Random(f"reader:{name}")
    seen = {"path": 0, "zero": 0, "error": 0}
    for _ in range(1500):
        at = rng.choice(graph.vertices)
        atoms: list = []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if roll < 0.04:
                atoms.append(rng.choice(strangers))
            elif roll < 0.16:
                atoms.append(at if rng.random() < 0.6 else rng.choice(graph.vertices))
            elif roll < 0.3 and letters:
                atoms.append(rng.choice(letters))  # may not compose
            else:
                options = steps(graph, at)
                if options:
                    x, at = rng.choice(options)
                    atoms.append(x)
        got, want = _read(word_from_atoms, graph, atoms), _read(read_atom_by_atom, graph, atoms)
        assert got == want, atoms
        for level in Level:
            engine = _read(_evaluate_at(level), graph, atoms)
            assert engine == _read(_read_then_walk(level), graph, atoms), (level, atoms)
        if isinstance(want, tuple):
            assert got[1].startswith(("unknown vertex", "unknown edge", "empty word"))
            seen["error"] += 1
        else:
            seen["path" if want is not None else "zero"] += 1
            assert want is None or type(got.letters) is tuple
    # on a one-vertex graph every word composes
    assert seen["path"] > 50 and seen["error"] > 50, seen
    assert seen["zero"] > 50 or len(graph.vertices) == 1, seen
