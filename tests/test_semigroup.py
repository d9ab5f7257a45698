import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from conftest import load
from helpers import (
    automorphism_by_tips,
    brute_force_automorphisms,
    closure_inverse,
    closure_multiply,
    composable_letter_words,
    distinct_elements,
    evaluate_tokens,
    fold_evaluate,
    make_word,
    random_lower_set,
    random_separated_graph,
    render_by_tips,
    tip_word_act,
    tip_word_canonicalize,
    tip_word_inverse,
    tip_word_multiply,
    trie_fields,
    walked_union,
)
from sgis.algebra import enumerate_basis
from sgis.errors import (
    ActionDomainError,
    BudgetExceededError,
    IncompatiblePathsError,
    LevelMismatchError,
    SgisError,
    WordError,
)
from sgis.graph import free_separation
from sgis.oracle import random_letter_word, random_walk_word, rewrite_equiv, string_normal_form
from sgis.paths import (
    Letter,
    Path,
    letter_range,
    parse_word_string,
    path_inverse,
    path_range,
    positive_part,
    render_free_word,
    sorted_paths,
    steps,
    vertex_path,
    word_from_atoms,
)
from sgis.semigroup import (
    ZERO,
    _word,
    Element,
    Level,
    act_on_tree,
    action_domain_contains,
    apply_automorphism,
    evaluate,
    from_letter,
    grading,
    graph_automorphisms,
    inverse,
    is_idempotent,
    make_element,
    multiply,
    natural_leq,
    normal_form,
)
from sgis.semilattice import (
    LowerSet,
    canonicalize,
    canonicalize_by_stripping,
    chain_tree,
    lower_closure,
    max_elements,
    munn_tree,
)

E = Letter("e", False)
Ei = Letter("e", True)
F = Letter("f", False)
Fi = Letter("f", True)

GOLDEN_WORD = "e e ~e f ~f e f f ~f e ~e ~f ~f"
GOLDEN_NF = "(e f)(e e f f)(e e f e) | e e ~f"
ALL_GRAPHS = ("rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed")


def test_from_letter_vertex_idempotent(rose2f):
    v = from_letter(rose2f, "v", Level.SEPARATED)
    assert is_idempotent(v)
    assert multiply(rose2f, v, v) == v


def test_relation_inverse_then_edge(rose2f, rose2t):
    for g in (rose2f, rose2t):
        lhs = multiply(g, from_letter(g, Ei, Level.SEPARATED), from_letter(g, E, Level.SEPARATED))
        assert lhs == from_letter(g, "v", Level.SEPARATED)
    # distinct edges of one block are orthogonal
    z = multiply(
        rose2t,
        from_letter(rose2t, Ei, Level.SEPARATED),
        from_letter(rose2t, F, Level.SEPARATED),
    )
    assert z is ZERO


def test_toeplitz_ignores_block_orthogonality(rose2t):
    # the middle quotient keeps e^-1 e = r(e) but no block collapse
    lhs = multiply(
        rose2t,
        from_letter(rose2t, Ei, Level.TOEPLITZ),
        from_letter(rose2t, E, Level.TOEPLITZ),
    )
    assert lhs == from_letter(rose2t, "v", Level.TOEPLITZ)
    cross = multiply(
        rose2t,
        from_letter(rose2t, Ei, Level.TOEPLITZ),
        from_letter(rose2t, F, Level.TOEPLITZ),
    )
    assert cross is not ZERO
    assert cross.carrier.letters == (Ei, F)


def test_multiply_idempotents(rose2t, rose2f):
    ee = evaluate_tokens(rose2t, "e ~e")
    ff = evaluate_tokens(rose2t, "f ~f")
    assert multiply(rose2t, ee, ff) is ZERO
    ee2 = evaluate_tokens(rose2f, "e ~e")
    ff2 = evaluate_tokens(rose2f, "f ~f")
    prod = multiply(rose2f, ee2, ff2)
    assert {p.letters for p in prod.tree.paths} == {(), (E,), (F,)}
    assert prod.carrier == vertex_path("v")


def test_level_mismatch(rose2f):
    a = evaluate_tokens(rose2f, "e", Level.FREE)
    b = evaluate_tokens(rose2f, "e", Level.SEPARATED)
    for op in (multiply, natural_leq):
        with pytest.raises(LevelMismatchError):
            op(rose2f, a, b)


def test_golden_word(rose2f):
    el = evaluate(rose2f, parse_word_string(rose2f, GOLDEN_WORD), Level.SEPARATED)
    assert normal_form(rose2f, el) == GOLDEN_NF
    assert render_free_word(grading(el)) == "e e ~f"
    tips = {p.letters for p in max_elements(el.tree)}
    assert tips == {(E, F), (E, E, F, F), (E, E, F, E)}
    # idempotent part: leaves {ef, e2f2, e2fe}, carrier trivial
    idem = multiply(rose2f, el, inverse(rose2f, el))
    assert normal_form(rose2f, idem) == "(e f)(e e f f)(e e f e) | v"


def test_golden_word_free_level_keeps_carrier_leaf(rose2f):
    el = evaluate(rose2f, parse_word_string(rose2f, GOLDEN_WORD), Level.FREE)
    assert normal_form(rose2f, el) == "(e f)(e e ~f)(e e f f)(e e f e) | e e ~f"


def test_zero_and_vertex_forms(rose2t):
    assert normal_form(rose2t, ZERO) == "0" == repr(ZERO)
    assert is_idempotent(ZERO)
    v = from_letter(rose2t, "v", Level.SEPARATED)
    assert normal_form(rose2t, v) == "(v) | v"


def test_parse_word_examples(rose2f, rose1t):
    assert evaluate_tokens(rose2f, "~e e") == from_letter(rose2f, "v", Level.SEPARATED)
    assert evaluate_tokens(rose2f, "e ~e f ~f") == evaluate_tokens(rose2f, "f ~f e ~e")
    # the single-loop trivially separated graph: one-sided inverse identity
    assert evaluate_tokens(rose1t, "e ~e e") == evaluate_tokens(rose1t, "e")
    assert evaluate_tokens(rose1t, "e ~e") != evaluate_tokens(rose1t, "e")


def test_inverse(rose2f):
    assert inverse(rose2f, ZERO) is ZERO
    e = evaluate_tokens(rose2f, "e")
    ei = inverse(rose2f, e)
    assert ei.carrier == Path("v", (Ei,)) or ei.carrier.letters == (Ei,)
    assert inverse(rose2f, ei) == e
    assert multiply(rose2f, multiply(rose2f, e, ei), e) == e


def nf_to_word(graph, nf: str) -> str:
    """Rebuild the word (g1 g1^-1)...(gn gn^-1) lambda from a rendered form."""
    factors_part, lam = nf.split(" | ")
    tokens: list[str] = []
    for chunk in factors_part.strip("()").split(")("):
        toks = chunk.split()
        tokens.extend(toks)
        for t in reversed(toks):
            if t in graph.vertex_index:
                continue  # a vertex factor is its own inverse
            tokens.append(t[1:] if t.startswith("~") else f"~{t}")
    tokens.extend(lam.split())
    return " ".join(tokens)


def test_normal_form_reparses(rose2f, rose2t, fim2, mixed):
    rng = random.Random(1)
    for graph in (rose2f, rose2t, fim2, mixed):
        words = composable_letter_words(graph, 5)
        for word in rng.sample(words, min(300, len(words))):
            el = evaluate(graph, word, Level.SEPARATED)
            if el is ZERO:
                continue
            nf = normal_form(graph, el)
            again = evaluate(
                graph, parse_word_string(graph, nf_to_word(graph, nf)), Level.SEPARATED
            )
            assert again == el, nf


def test_natural_leq(rose2f):
    a = evaluate_tokens(rose2f, "e ~e f ~f")
    b = evaluate_tokens(rose2f, "e ~e")
    assert natural_leq(rose2f, a, b)
    assert not natural_leq(rose2f, b, a)
    assert natural_leq(rose2f, a, a)
    assert natural_leq(rose2f, ZERO, a)
    assert not natural_leq(rose2f, a, ZERO)


def test_natural_leq_matches_defining_identity(rose2t, rose2f):
    for graph in (rose2t, rose2f):
        elements = list(distinct_elements(graph, 4, Level.SEPARATED))
        for a in elements:
            for b in elements:
                if a is ZERO or b is ZERO:
                    continue
                lhs = natural_leq(graph, a, b)
                rhs = a == multiply(graph, multiply(graph, a, inverse(graph, a)), b)
                assert lhs == rhs


def test_grading_properties(rose2f, fim2):
    rng = random.Random(2)
    for graph in (rose2f, fim2):
        words = composable_letter_words(graph, 6)
        els = [evaluate(graph, w, Level.SEPARATED) for w in rng.sample(words, 400)]
        els = [e for e in els if e is not ZERO]
        from sgis.paths import reduce_letters

        for _ in range(2000):
            a, b = rng.choice(els), rng.choice(els)
            ab = multiply(graph, a, b)
            if ab is ZERO:
                continue
            assert grading(ab) == reduce_letters(grading(a) + grading(b))
        for a in els:
            assert (grading(a) == ()) == is_idempotent(a)
    with pytest.raises(SgisError, match="no grading"):
        grading(ZERO)


def test_idempotents_commute_small(rose2t, rose2f, fim2):
    for graph in (rose2t, rose2f, fim2):
        idems = [
            el
            for el in distinct_elements(graph, 4, Level.SEPARATED)
            if el is not ZERO and is_idempotent(el)
        ]
        for a in idems:
            for b in idems:
                assert multiply(graph, a, b) == multiply(graph, b, a)


def test_inverse_semigroup_axiom_small(rose2t, fim2):
    for graph in (rose2t, fim2):
        for el in distinct_elements(graph, 4, Level.SEPARATED):
            if el is ZERO:
                continue
            assert multiply(graph, multiply(graph, el, inverse(graph, el)), el) == el


def test_level_coherence(rose2t, rose2f, fim2):
    rng = random.Random(3)
    for graph in (rose2t, rose2f, fim2):
        words = composable_letter_words(graph, 6)
        for word in rng.sample(words, 250):
            free = evaluate(graph, word, Level.FREE)
            toep = evaluate(graph, word, Level.TOEPLITZ)
            sep = evaluate(graph, word, Level.SEPARATED)
            # toeplitz tree is the canonical form of the free tree
            assert toep.tree == canonicalize(graph, free.tree)
            assert toep.carrier == free.carrier
            if sep is not ZERO:
                assert (sep.tree, sep.carrier) == (toep.tree, toep.carrier)


def test_theta_identity_and_inverse(rose2f):
    rng = random.Random(4)
    v = vertex_path("v")
    for _ in range(200):
        T = canonicalize(rose2f, random_lower_set(rose2f, "v", rng, max_len=3))
        assert act_on_tree(rose2f, v, T) == T
        g = Path("v", (E,))
        if action_domain_contains(rose2f, path_inverse(rose2f, g), T):
            image = act_on_tree(rose2f, g, T)
            assert action_domain_contains(rose2f, g, image)
            assert act_on_tree(rose2f, path_inverse(rose2f, g), image) == T


def test_theta_example(rose2f, fim2):
    T = lower_closure(rose2f, [vertex_path("v")])
    image = act_on_tree(rose2f, Path("v", (E,)), T)
    assert {p.letters for p in image.paths} == {(), (E,)}
    # translating by ~e needs the positive e-branch in the tree
    with pytest.raises(ActionDomainError):
        act_on_tree(
            rose2f,
            Path("v", (Ei,)),
            lower_closure(rose2f, [Path("v", (F,))]),
        )
    # and a tree at the wrong vertex is outside every domain
    with pytest.raises(ActionDomainError):
        act_on_tree(
            fim2,
            make_word(fim2, "v", (Letter("e1", False),)),
            lower_closure(fim2, [vertex_path("v")]),
        )


def test_theta_respects_meets(rose2f):
    from sgis.semilattice import meet

    rng = random.Random(5)
    g = Path("v", (E,))
    ginv = path_inverse(rose2f, g)
    for _ in range(300):
        T1 = canonicalize(rose2f, random_lower_set(rose2f, "v", rng, max_len=3))
        T2 = canonicalize(rose2f, random_lower_set(rose2f, "v", rng, max_len=3))
        if not (
            action_domain_contains(rose2f, ginv, T1)
            and action_domain_contains(rose2f, ginv, T2)
        ):
            continue
        m = meet(rose2f, T1, T2)
        if m is None:
            continue
        lhs = act_on_tree(rose2f, g, canonicalize(rose2f, m))
        rhs = meet(rose2f, act_on_tree(rose2f, g, T1), act_on_tree(rose2f, g, T2))
        assert rhs is not None and lhs == canonicalize(rose2f, rhs)


def test_semidirect_reconstruction(rose2f, fim2):
    # (T, g) factors as the tree idempotent times the carrier path element
    rng = random.Random(6)
    for graph in (rose2f, fim2):
        words = composable_letter_words(graph, 6)
        for word in rng.sample(words, 300):
            el = evaluate(graph, word, Level.SEPARATED)
            if el is ZERO:
                continue
            idem = Element(el.tree, vertex_path(el.tree.base), Level.SEPARATED)
            carrier_el = make_element(graph, [el.carrier], el.carrier, Level.SEPARATED)
            assert multiply(graph, idem, carrier_el) == el


def test_automorphism_counts(rose2t, fim2, mixed):
    assert len(graph_automorphisms(rose2t)) == 2
    assert len(graph_automorphisms(fim2)) == 8
    # mixed graph is rigid: block {a,b} maps to itself, c and d are pinned
    assert len(graph_automorphisms(mixed)) == 2


def test_automorphisms_respect_blocks(fim2inf):
    autos = graph_automorphisms(fim2inf)
    assert len(autos) == 8
    for phi in autos:
        emap = dict(phi.edge_map)
        for b in fim2inf.blocks:
            target = {emap[e] for e in b.edges}
            matching = [c for c in fim2inf.blocks if set(c.edges) == target]
            assert len(matching) == 1 and matching[0].infinite == b.infinite


def test_automorphisms_match_brute_force():
    """The edge search equals the vertex-permutation reference, order
    included, on the bundled graphs and on 1000 generated graphs of at most
    6 vertices and 8 edges (seeds 0..999, every other one with isolated
    vertices allowed)."""
    graphs = [load(name) for name in ALL_GRAPHS]
    graphs += [
        random_separated_graph(random.Random(i), 6, isolated=i % 2 == 1) for i in range(1000)
    ]
    for i, graph in enumerate(graphs):
        assert graph_automorphisms(graph) == brute_force_automorphisms(graph), i


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_automorphisms_are_rotations(n):
    """The freely separated directed n-cycle has exactly its n rotations.  The
    search takes 3n^2 budget units, n^2 candidate edges plus n maps of 2n
    pairs; n! vertex permutations would exceed the budget of 1000 from n = 7."""
    vertices = [f"v{i}" for i in range(n)]
    graph = free_separation(vertices, [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
    rotations = {
        (
            tuple(sorted((f"v{i}", f"v{(i + k) % n}") for i in range(n))),
            tuple(sorted((f"e{i}", f"e{(i + k) % n}") for i in range(n))),
        )
        for k in range(n)
    }
    autos = graph_automorphisms(graph, budget=1000)
    assert len(autos) == n
    assert {(phi.vertex_map, phi.edge_map) for phi in autos} == rotations


def test_automorphism_budget_pays_for_each_map():
    """Each map emitted costs one unit per pair it holds, so the budget bounds
    the memory of the answer: the 10-cycle takes exactly 100 candidate edges
    plus 10 maps of 20 pairs."""
    n = 10
    vertices = [f"v{i}" for i in range(n)]
    graph = free_separation(vertices, [(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
    assert len(graph_automorphisms(graph, budget=300)) == n
    with pytest.raises(BudgetExceededError):
        graph_automorphisms(graph, budget=299)


def test_automorphism_is_multiplicative(rose2t, fim2):
    rng = random.Random(7)
    for graph in (rose2t, fim2):
        autos = graph_automorphisms(graph)
        words = composable_letter_words(graph, 5)
        els = [evaluate(graph, w, Level.SEPARATED) for w in rng.sample(words, 200)]
        els = [e for e in els if e is not ZERO]
        for _ in range(300):
            phi = rng.choice(autos)
            a, b = rng.choice(els), rng.choice(els)
            ab = multiply(graph, a, b)
            fa, fb = apply_automorphism(graph, phi, a), apply_automorphism(graph, phi, b)
            if ab is ZERO:
                assert multiply(graph, fa, fb) is ZERO
            else:
                assert apply_automorphism(graph, phi, ab) == multiply(graph, fa, fb)


def test_associativity_random(rose2t, rose2f, fim2):
    rng = random.Random(8)
    for graph in (rose2t, rose2f, fim2):
        words = composable_letter_words(graph, 5)
        els = [evaluate(graph, w, Level.SEPARATED) for w in rng.sample(words, 150)]
        for _ in range(2000):
            a, b, c = (rng.choice(els) for _ in range(3))
            left = multiply(graph, multiply(graph, a, b), c)
            right = multiply(graph, a, multiply(graph, b, c))
            assert left == right


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_evaluate_matches_multiply_fold(name, request):
    """The one-pass walk and the fold of the closure product give equal
    elements: same tree paths in the same order, same carrier, same zeros."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"fold:{name}")
    for i in range(150):
        sample = random_walk_word if i % 2 else random_letter_word
        word = sample(graph, rng, 20)
        for level in Level:
            assert evaluate(graph, word, level) == fold_evaluate(graph, word, level), (word, level)


def test_walk_matches_set_routes_on_generated_graphs():
    """On 60 generated graphs (graph seeds 0..59), 24 words each: `evaluate`
    equals the fold of the closure product at every level, and the canonical
    form of each walked free tree equals the stripping route's."""
    for i in range(60):
        graph = random_separated_graph(random.Random(i), 5)
        rng = random.Random(f"generated-walk:{i}")
        for j in range(24):
            word = (random_walk_word if j % 2 else random_letter_word)(graph, rng, 12)
            for level in Level:
                a = evaluate(graph, word, level)
                assert a == fold_evaluate(graph, word, level), (i, word, level)
                if level is Level.FREE and a is not ZERO:
                    stripped = canonicalize_by_stripping(graph, a.tree)
                    assert canonicalize(graph, a.tree) == stripped, (i, word)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_multiply_and_inverse_match_closure_route(name, request):
    """Products and inverses by the walk equal the closure route, tree order
    and zeros included, on random pairs, on pairs whose ranges meet, and on
    pairs of idempotents a a^-1, b b^-1 over one vertex."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"closure:{name}")
    for level in Level:
        els = [
            evaluate(graph, (random_walk_word if i % 2 else random_letter_word)(graph, rng, 10), level)
            for i in range(80)
        ]
        nonzero = [a for a in els if a is not ZERO]
        els += [multiply(graph, a, inverse(graph, a)) for a in nonzero[:30]]
        at_base: dict[str, list] = {}
        for a in els:
            if a is not ZERO:
                at_base.setdefault(a.carrier.base, []).append(a)
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(150)]
        for a in nonzero:
            meeting = at_base.get(path_range(graph, a.carrier))
            if meeting:
                pairs += [(a, rng.choice(meeting)) for _ in range(3)]
        for group in at_base.values():
            idempotents = [a for a in group if is_idempotent(a)]
            if idempotents:
                pairs += [(rng.choice(idempotents), rng.choice(idempotents)) for _ in range(20)]
        for a in els:
            assert inverse(graph, a) == closure_inverse(graph, a), (a, level)
        for a, b in pairs:
            assert multiply(graph, a, b) == closure_multiply(graph, a, b), (a, b, level)


def _idempotent_products_against_walk(graph, rng: random.Random, words: int, pairs: int) -> int:
    """At each level, products of the idempotents a a^-1 and a^-1 a of seeded
    walks, two at one vertex, equal the walk of both tip words under the
    level's rules, field by field; returns how many products are zero by the
    block rule across the two trees."""
    zeros = 0
    for level in Level:
        at_base: dict[str, list] = {}
        for _ in range(words):
            a = evaluate(graph, random_walk_word(graph, rng, 10), level)
            if a is not ZERO:
                for e in (multiply(graph, a, inverse(graph, a)), multiply(graph, inverse(graph, a), a)):
                    at_base.setdefault(e.carrier.base, []).append(e)
        for _ in range(pairs):
            group = rng.choice(list(at_base.values()))
            a, b = rng.choice(group), rng.choice(group)
            got = multiply(graph, a, b)
            want = walked_union(
                graph, a.tree, b.tree, separated=level is Level.SEPARATED, canonical=level is not Level.FREE
            )
            if got is ZERO:
                assert want is None, (a, b, level)
                zeros += 1
            else:
                assert trie_fields(got.tree) == trie_fields(want), (a, b, level)
                assert (got.carrier, got.level) == (a.carrier, level)
    return zeros


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_idempotent_products_merge_as_the_walk(name, request):
    """A product of two idempotents merges their trees: 400 seeded pairs per
    level and graph.  On the graphs with a block of two edges some pairs
    break the block rule across the two trees."""
    graph = request.getfixturevalue(name)
    zeros = _idempotent_products_against_walk(graph, random.Random(f"idempotents:{name}"), 40, 400)
    if name in ("rose2t", "mixed"):
        assert zeros > 0


def test_idempotent_products_merge_as_the_walk_on_generated_graphs():
    """As above on 60 generated graphs (graph seeds 0..59), 40 pairs per level."""
    zeros = sum(
        _idempotent_products_against_walk(
            random_separated_graph(random.Random(i), 4), random.Random(f"idempotents:{i}"), 10, 40
        )
        for i in range(60)
    )
    assert zeros > 0


def _long_walks(graph, rng: random.Random, level, lengths):
    """Nonzero elements of seeded walks of up to each length, with their inverses."""
    els = [evaluate(graph, random_walk_word(graph, rng, n), level) for n in lengths]
    els = [a for a in els if a is not ZERO]
    return els + [inverse(graph, a) for a in els]


@pytest.mark.parametrize("name", ("rose2t", "rose2f", "mixed"))
def test_tour_routes_match_the_tip_word_routes(name, request):
    """`multiply`, `inverse`, `act_on_tree` and `canonicalize` walk trees by
    their tours; they equal the walks of the tip words of `helpers`, at the
    three levels, on seeded walks of up to 800 letters and on pairs of them
    whose ranges meet."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"tour-routes:{name}")
    for level in Level:
        els = _long_walks(graph, rng, level, (12, 12, 100, 100, 800))
        for a in els:
            assert inverse(graph, a) == tip_word_inverse(graph, a), (level, a)
            assert canonicalize(graph, a.tree) == tip_word_canonicalize(graph, a.tree), (level, a)
            if level is not Level.FREE:
                g = path_inverse(graph, a.carrier)  # a's tree holds its carrier's positive part
                assert act_on_tree(graph, g, a.tree) == tip_word_act(graph, g, a.tree), (level, a)
            meeting = [b for b in els if b.carrier.base == path_range(graph, a.carrier)]
            for b in [inverse(graph, a), *rng.sample(meeting, min(2, len(meeting)))]:
                assert multiply(graph, a, b) == tip_word_multiply(graph, a, b), (level, a, b)


@pytest.mark.parametrize("name", ("rose2t", "rose2f", "mixed"))
def test_the_engines_own_walks_read_no_atom(name, request, monkeypatch):
    """Only `evaluate`'s walk reads atoms: it calls `munn_tree` with no
    base.  With `munn_tree` wrapped where `semigroup` and `semilattice` call
    it, every walk of `multiply`, `inverse`, `canonicalize`, `act_on_tree`
    and `apply_automorphism` on elements built beforehand is given its base,
    and the results are the same as unwrapped."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"no-reading:{name}")
    phi = graph_automorphisms(graph)[-1]
    cases = []
    for level in Level:
        els = _long_walks(graph, rng, level, (12, 100, 400))
        for a in els:
            meeting = [b for b in els if b.carrier.base == path_range(graph, a.carrier)]
            cases += [(multiply, a, b) for b in [inverse(graph, a), *meeting[:2]]]
            cases += [(inverse, a), (apply_automorphism, phi, a), (canonicalize, a.tree)]
            if level is not Level.FREE:
                cases.append((act_on_tree, path_inverse(graph, a.carrier), a.tree))
    want = [op(graph, *args) for op, *args in cases]

    bases = []

    def recording(graph, base, word, **kwargs):
        bases.append(base)
        return munn_tree(graph, base, word, **kwargs)

    monkeypatch.setattr("sgis.semigroup.munn_tree", recording)
    monkeypatch.setattr("sgis.semilattice.munn_tree", recording)
    assert [op(graph, *args) for op, *args in cases] == want
    assert len(bases) >= len(cases) // 2 and None not in bases
    bases.clear()
    evaluate(graph, [graph.vertices[0]])
    assert bases == [None]


@pytest.mark.parametrize("name", ("rose2t", "rose2f", "mixed"))
def test_an_element_is_walked_as_its_tour_and_carrier(name, request):
    """The word a product or an inverse walks for an element has
    2(|T| - 1) + |c| letters, linear in the tree, on seeded walks of up to
    3,200 letters at the three levels: letters counted, not time."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"word-length:{name}")
    for level in Level:
        for a in _long_walks(graph, rng, level, (12, 200, 800, 3200)):
            assert len(_word(a)) == 2 * (len(a.tree) - 1) + len(a.carrier.letters), (level, a)


def test_long_chain_matches_string_oracle(rose2f):
    chain = [E] * 1000
    assert normal_form(rose2f, evaluate(rose2f, chain)) == string_normal_form(rose2f, chain)


def test_unknown_atom_raises_after_a_zero(rose2t, mixed):
    """The engine's reading walk, the string oracle, the rewriting oracle
    and the reader of paths the oracles share all raise WordError naming an
    unknown atom: after a part of the word that is zero or does not
    compose, and standing alone."""
    A = Letter("a", False)
    readers = (
        evaluate,
        string_normal_form,
        word_from_atoms,
        lambda graph, word: rewrite_equiv(graph, word, word, 8),
    )
    for bad, message in (
        (Letter("nope", False), "unknown edge 'nope'"),
        ("nowhere", "unknown vertex 'nowhere'"),
    ):
        # ~e f is zero on rose2t, and a a does not compose on mixed
        for graph, word in ((rose2t, [Ei, F, bad]), (mixed, [A, A, bad]), (rose2t, [bad])):
            for read in readers:
                with pytest.raises(WordError, match=message):
                    read(graph, word)


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_tips_come_in_path_order(name, request):
    """`max_elements` lists the tips in `sorted_paths` order, the order in
    which `render_element` prints them."""
    graph = request.getfixturevalue(name)
    rng = random.Random(f"tips:{name}")
    for level in Level:
        els = [evaluate(graph, random_walk_word(graph, rng, 16), level) for _ in range(40)]
        els += [inverse(graph, a) for a in els[:10]]
        els += [multiply(graph, a, b) for a, b in zip(els, els[1:])]
        for a in els:
            if a is not ZERO:
                tips = max_elements(a.tree)
                assert tips == sorted_paths(graph, tips)


def test_make_element_validates_at_the_separated_level(rose2t, mixed):
    """e and f share block B1, so the tree {v, e, f} is zero at the
    separated level, as the word e ~e f ~f is; the levels below accept it.
    A tree and a carrier at two vertices are refused at every level."""
    family = [Path("v", (E,)), Path("v", (F,))]
    with pytest.raises(IncompatiblePathsError) as err:
        make_element(rose2t, family, vertex_path("v"), Level.SEPARATED)
    assert set(err.value.pair) == set(family)
    assert evaluate(rose2t, [E, Ei, F, Fi]) is ZERO
    for level in (Level.FREE, Level.TOEPLITZ):
        el = make_element(rose2t, family, vertex_path("v"), level)
        assert el == evaluate(rose2t, [E, Ei, F, Fi], level)
    for level in Level:
        with pytest.raises(WordError, match="disagree on the source vertex"):
            make_element(mixed, [Path("v", (Letter("a"),))], vertex_path("w"), level)


def test_an_element_is_an_immutable_value(rose2f):
    """Every slot of an element refuses assignment and deletion, the cached
    hash's included, before and after the hash is taken; a shallow copy, a
    deep copy and a pickle round trip each give an equal element with an
    equal hash; an element is never equal to ZERO; and repr is `<` the
    normal form `>`."""
    a = evaluate(rose2f, [E, F, Ei])
    for hashed in (False, True):
        if hashed:
            hash(a)
        for name in ("tree", "carrier", "level", "_hash"):
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(a, name)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and a == b and hash(b) == hash(a), b
    assert a != ZERO and ZERO != a and not a == ZERO
    assert repr(a) == "<(e f) | e f ~e>"
    assert repr(evaluate(rose2f, ["v"])) == "<(v) | v>"


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_equal_elements_from_every_maker_are_one_key(name):
    """Each basis element of length <= 1, also made by `make_element` from
    its tips and carrier, by `evaluate` of its tour and carrier, and by
    `multiply` of its tree's idempotent with its carrier's element: all four
    compare equal, hash equal and are one key of a dict."""
    graph = load(name)
    basis = enumerate_basis(graph, 1)
    assert basis
    for b in basis:
        base, carrier = b.tree.base, b.carrier
        made = make_element(graph, max_elements(b.tree), carrier, Level.SEPARATED)
        walked = evaluate(graph, [base, *_word(b)])
        product = multiply(graph, evaluate(graph, [base, *b.tree.tour()]), evaluate(graph, [base, *carrier.letters]))
        for c in (made, walked, product):
            assert c == b and b == c and hash(c) == hash(b), (b, c)
        assert len({b: 0, made: 1, walked: 2, product: 3}) == 1
    assert len(set(basis)) == len(basis)


def test_outside_paths_of_elements_and_translations_pass_the_doors(rose2f):
    """On rose2f, a tree path with an unknown edge (at the separated and at
    the free level) and an unreduced carrier make no element, and an
    unknown edge in a translation leaks no KeyError: each is a WordError."""
    v, zzz = vertex_path("v"), Path("v", (Letter("zzz"),))
    for paths, carrier, level in (
        ([zzz], v, Level.SEPARATED),
        ([Path("v", (E, Letter("zzz")))], v, Level.FREE),
        ([Path("v", (E,))], Path("v", (E, Ei)), Level.SEPARATED),
    ):
        with pytest.raises(WordError):
            make_element(rose2f, paths, carrier, level)
    for act in (act_on_tree, action_domain_contains):
        with pytest.raises(WordError, match="unknown edge 'zzz'"):
            act(rose2f, zzz, chain_tree(v))


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_every_walk_keeps_its_carriers_anchor(name):
    """The elements that `evaluate`, `multiply`, `inverse` and
    `apply_automorphism` build are checked by no code: their carrier's
    anchor (the whole carrier at the free level, its positive part above)
    is a member of the tree, on seeded words at the three levels."""
    graph = load(name)
    rng = random.Random(f"anchor:{name}")
    autos = graph_automorphisms(graph)
    for level in Level:
        separated = level is Level.SEPARATED
        els = [evaluate(graph, random_walk_word(graph, rng, 12), level) for _ in range(40)]
        els += [evaluate(graph, _branching_walk(graph, rng, 60, separated), level) for _ in range(20)]
        els += [inverse(graph, a) for a in els if a is not ZERO]
        els += [multiply(graph, a, b) for a in els for b in rng.sample(els, 3)]
        els += [apply_automorphism(graph, phi, a) for a in els[:60] for phi in autos[:3]]
        built = [a for a in els if a is not ZERO]
        assert len(built) > 100
        for a in built:
            anchor = a.carrier if level is Level.FREE else positive_part(a.carrier)
            assert anchor in a.tree, (level, a)


def _branching_walk(graph, rng, n, separated=False):
    """A composable word of up to n letters from a random vertex: a walk
    over a tree of reduced separated paths, each step down a `steps` letter
    (positive ones favoured, so that canonical trees grow) and now and then
    a step back up, so trees branch.  With `separated`, the children of a
    node use one edge per block, so the tree keeps the block rule and the
    word is not zero at the separated level."""
    at = rng.choice(graph.vertices)
    word, path, ats, chosen = [at], [], [at], {}
    for _ in range(n):
        options = steps(graph, ats[-1], path[-1] if path else None)
        if path and (not options or rng.random() < 0.35):
            x = ~path.pop()
            ats.pop()
        elif options:
            positive = [o for o in options if not o[0].inverse]
            x, _ = rng.choice(positive if positive and rng.random() < 0.5 else options)
            if separated and not x.inverse:
                x = chosen.setdefault((tuple(path), graph.block_of[x.edge].name), x)
            path.append(x)
            ats.append(letter_range(graph, x))
        else:
            break
        word.append(x)
    return word


@pytest.mark.parametrize("name", ALL_GRAPHS)
def test_normal_form_is_read_off_the_trie(name):
    """`normal_form` equals `render_path` over `max_elements`, at all three
    levels, on root-only trees, products and inverses, and builds no tip
    path: the tree's tip cache stays empty."""
    graph = load(name)
    rng = random.Random(f"nf:{name}")
    letters = [Letter(e, inv) for e in graph.edge_index for inv in (False, True)]
    for level in Level:
        els = [evaluate(graph, [v], level) for v in graph.vertices]
        # x ~x for an inverse x is a root-only tree above the free level
        els += [evaluate(graph, [x, ~x], level) for x in letters]
        separated = level is Level.SEPARATED
        els += [evaluate(graph, _branching_walk(graph, rng, 40, separated), level) for _ in range(40)]
        els += [inverse(graph, a) for a in els[-10:]]
        els += [multiply(graph, a, b) for a, b in zip(els, els[1:])]
        roots = 0
        for a in els:
            got = normal_form(graph, a)
            if a is not ZERO:
                assert "_tips" not in a.tree.__dict__
                roots += len(a.tree) == 1
            assert got == render_by_tips(a), (a.tree, a.carrier)
        assert roots >= len(graph.vertices)


def test_normal_form_of_a_long_chain(rose2f):
    """e^20000 prints its one tip in full at each level, as the tip route
    does; ~e^20000 is a chain at the free level and the root above it."""
    for level in Level:
        for x in (E, Ei):
            a = evaluate(rose2f, [x] * 20000, level)
            got = normal_form(rose2f, a)
            assert got == render_by_tips(a)
        assert got.startswith("(v) | ~e ~e") is (level is not Level.FREE)


def test_apply_automorphism_matches_the_tip_route():
    """The walk of the relabelled tour and carrier gives the element that
    relabelling the tips gives, at all three levels, on walks of up to 800
    letters on the bundled graphs with automorphisms besides the identity."""
    for name in ALL_GRAPHS:
        graph = load(name)
        autos = [phi for phi in graph_automorphisms(graph) if any(v != w for v, w in phi.edge_map)]
        if not autos:
            continue
        rng = random.Random(f"aut:{name}")
        for level in Level:
            for n in (0, 3, 40, 200, 800):
                a = evaluate(graph, _branching_walk(graph, rng, n, level is Level.SEPARATED), level)
                assert a is not ZERO
                for phi in rng.sample(autos, min(2, len(autos))):
                    assert apply_automorphism(graph, phi, a) == automorphism_by_tips(graph, phi, a)


def test_apply_automorphism_of_a_hand_made_tree_that_breaks_the_rule(rose2t):
    """A separated element made by hand whose tree uses both edges of
    rose2t's block has no image: SgisError, as for its inverse."""
    v = vertex_path("v")
    bad = LowerSet("v", sorted_paths(rose2t, [v, Path("v", (E,)), Path("v", (F,))]))
    a = Element(bad, v, Level.SEPARATED)
    for phi in graph_automorphisms(rose2t):
        with pytest.raises(SgisError, match="broke the separated rule"):
            apply_automorphism(rose2t, phi, a)
    with pytest.raises(SgisError, match="broke the separated rule"):
        inverse(rose2t, a)


def test_apply_automorphism_walks_the_element_word(rose2t, monkeypatch):
    """The relabelled word is the tour and the carrier: 2(|T| - 1) + |c|
    letters, linear in the tree."""
    lengths = []

    def counted(graph, base, word, **kw):
        lengths.append(len(word))
        return munn_tree(graph, base, word, **kw)

    phi = next(p for p in graph_automorphisms(rose2t) if any(v != w for v, w in p.edge_map))
    rng = random.Random(5)
    for level in Level:
        for n in (1, 30, 800):
            a = evaluate(rose2t, _branching_walk(rose2t, rng, n, level is Level.SEPARATED), level)
            with monkeypatch.context() as patch:
                patch.setattr("sgis.semigroup.munn_tree", counted)
                apply_automorphism(rose2t, phi, a)
            assert lengths == [2 * (len(a.tree) - 1) + len(a.carrier.letters)]
            lengths.clear()
