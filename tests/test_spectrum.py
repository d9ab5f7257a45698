import itertools
import random

import pytest

from helpers import (
    cylinder_difference_by_walks,
    grow_maximal_truncation,
    make_word,
    random_filter_truncation,
    random_lower_set,
    random_separated_graph,
    sample_cylinders,
    separated_paths,
)
from sgis.errors import CylinderError, SgisError
from sgis.graph import is_finitely_separated, parse_graph
from sgis.paths import Letter, Path, sorted_paths, vertex_path
from sgis.semilattice import (
    LowerSet,
    canonicalize,
    is_compatible_set_by_configs,
    is_separated_compatible_family,
    lower_closure,
    max_elements,
    meet,
)
from sgis.spectrum import (
    LocalConfig,
    branch_extensions,
    certify_finite_maximal,
    certify_maximal,
    cylinder_difference,
    cylinder_intersect,
    cylinder_member,
    extend_inverse_tails,
    is_admissible,
    is_branch_extension,
    is_finite_maximal_config,
    is_maximal_config,
    local_configuration,
    make_cylinder,
    make_truncation,
    trim_inverse_tails,
)

E = Letter("e", False)
Ei = Letter("e", True)
F = Letter("f", False)
Fi = Letter("f", True)


def closure(graph, *words):
    return lower_closure(graph, [make_word(graph, "v", tuple(w)) for w in words])


# -- local configurations -------------------------------------------------------


def test_local_configuration_examples(rose2f, fim2):
    Z = closure(rose2f, (E, F))
    cfg = local_configuration(rose2f, Z, Path("v", (E,)))
    assert cfg.letters == frozenset({F, Ei})
    assert cfg.tail == Ei
    # {v} has no configuration at v
    V = lower_closure(rose2f, [vertex_path("v")])
    assert local_configuration(rose2f, V, vertex_path("v")) is None
    # fim2: Z = {v, e1}, config at e1 is the tail alone
    Zf = lower_closure(fim2, [make_word(fim2, "v", (Letter("e1", False),))])
    cfg = local_configuration(fim2, Zf, make_word(fim2, "v", (Letter("e1", False),)))
    assert cfg.letters == frozenset({Letter("e1", True)})
    assert cfg.tail == Letter("e1", True)


def test_local_configuration_requires_membership(rose2f, mixed):
    V = lower_closure(rose2f, [vertex_path("v")])
    with pytest.raises(SgisError):
        local_configuration(rose2f, V, Path("v", (E,)))
    # a path at another vertex is no member, also when its letters lead
    # through the trie
    A = lower_closure(mixed, [Path("v", (Letter("a"),))])
    for g in (vertex_path("w"), Path("w", (Letter("a"),))):
        with pytest.raises(SgisError):
            local_configuration(mixed, A, g)


def test_admissible_and_maximal(rose2t, rose2f, fim2inf):
    bad = LocalConfig(at="v", letters=frozenset({E, F}))
    assert not is_admissible(rose2t, bad)
    assert is_admissible(rose2f, bad)
    maxi = LocalConfig(at="v", letters=frozenset({E, F, Ei, Fi}))
    assert is_maximal_config(rose2f, maxi)
    assert not is_maximal_config(rose2t, maxi)  # inadmissible there
    # infinite blocks: inverse letters alone are finite-maximal, not maximal
    inv_only = LocalConfig(
        at="v", letters=frozenset({Letter("e1", True)})
    )
    # fim2inf has no incoming edges at v, so an inverse letter is not possible;
    # instead check the empty-ish positive-free configuration via certify below
    assert is_finite_maximal_config(
        fim2inf, LocalConfig(at="v", letters=frozenset({Letter("e1", False)}))
    )
    assert not is_maximal_config(
        fim2inf, LocalConfig(at="v", letters=frozenset({Letter("e1", False)}))
    )


def test_certificates(rose2f, fim2, fim2inf):
    # a full maximal window certifies as ultra
    members = grow_maximal_truncation(rose2f, "v", 3, random.Random(0))
    Z = make_truncation(rose2f, members, 3)
    cert = certify_maximal(rose2f, Z)
    assert cert.passed and cert.render() == "PASS depth=3"
    # {v} in fim2 fails at depth 1 (finite blocks unrepresented)
    V = make_truncation(fim2, [vertex_path("v")], 1)
    assert not certify_maximal(fim2, V).passed
    assert not certify_finite_maximal(fim2, V).passed
    assert certify_maximal(fim2, V).render() == "FAIL witness=v"
    # {v} at an infinite source: tight passes, ultra fails
    Vi = make_truncation(fim2inf, [vertex_path("v")], 1)
    assert not certify_maximal(fim2inf, Vi).passed
    tight = certify_finite_maximal(fim2inf, Vi)
    assert tight.passed
    assert "named edges" in " ".join(tight.caveats)
    # an isolated vertex, kept by allow_isolated, has no spectrum to window
    lonely = parse_graph("vertex v\nvertex w\nedge e v v\nseparation trivial\n", allow_isolated=True)
    with pytest.raises(SgisError, match="isolated"):
        make_truncation(lonely, [vertex_path("w")], 1)


def test_trim_extend_inverse_tails(rose2f, fim2):
    rng = random.Random(1)
    for graph in (rose2f, fim2):
        for _ in range(50):
            members = grow_maximal_truncation(graph, "v", 3, rng)
            Z = trim_inverse_tails(graph, make_truncation(graph, members, 3))
            ext = extend_inverse_tails(graph, Z, 3)
            back = trim_inverse_tails(graph, ext)
            lhs = {p for p in back.paths.paths if len(p.letters) < 3}
            rhs = {p for p in Z.paths.paths if len(p.letters) < 3}
            assert lhs == rhs


def test_extend_inverse_tails_matches_definition(rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
    """The extension is the members plus every separated path of length <=
    depth that is a member followed by inverse letters only."""
    rng = random.Random(4)
    for graph in (rose1t, rose2t, rose2f, fim2, fim2inf, mixed):
        for depth in (1, 2, 3, 4):
            every = separated_paths(graph, "v", depth)
            for _ in range(10):
                Z = make_truncation(graph, random_filter_truncation(graph, "v", 3, rng), 3)
                for W in (Z, trim_inverse_tails(graph, Z)):
                    members = set(W.paths.paths)
                    tails = {
                        q
                        for q in every
                        if any(
                            Path("v", q.letters[:k]) in members
                            and all(x.inverse for x in q.letters[k:])
                            for k in range(len(q.letters) + 1)
                        )
                    }
                    ext = extend_inverse_tails(graph, W, depth)
                    assert ext.depth == depth
                    assert ext.paths.paths == sorted_paths(graph, members | tails)


def test_extend_no_incoming_edges(fim2):
    # no edges into v, so extensions only appear above the leaves
    Z = make_truncation(fim2, [make_word(fim2, "v", (Letter("e1", False),))], 3)
    ext = extend_inverse_tails(fim2, Z, 3)
    added = set(ext.paths.paths) - set(Z.paths.paths)
    assert added == {
        make_word(fim2, "v", (Letter("e1", False), Letter("f1", True))),
    }


def test_trim_golden_tree(rose2f):
    # on the golden tree all members below the carrier branch survive
    tree = closure(rose2f, (E, F), (E, E, F, F), (E, E, F, E))
    Z = make_truncation(rose2f, tree.paths, 5)
    assert trim_inverse_tails(rose2f, Z).paths == tree


# -- branch extensions ----------------------------------------------------------


def test_branch_extensions_examples(rose2t, rose2f):
    root = lower_closure(rose2f, [vertex_path("v")])
    assert {p.letters for p in branch_extensions(rose2f, root, 1)} == {(E,), (F,)}
    root_t = lower_closure(rose2t, [vertex_path("v")])
    assert {p.letters for p in branch_extensions(rose2t, root_t, 1)} == {(E,), (F,)}
    I = lower_closure(rose2f, [Path("v", (E,))])
    got = {p.letters for p in branch_extensions(rose2f, I, 2)}
    assert got == {(F,), (E, E), (E, F), (Ei, F), (Fi, E)}


def test_branch_extensions_against_definition(rose2f, rose2t, fim2, mixed, rose1t, fim2inf):
    rng = random.Random(2)
    for graph in (rose2f, rose2t, fim2, mixed, rose1t, fim2inf):
        for _ in range(40):
            I = canonicalize(graph, random_lower_set(graph, "v", rng, max_len=2))
            got = set(branch_extensions(graph, I, 3))
            brute = {
                p
                for p in separated_paths(graph, "v", 3)
                if is_branch_extension(graph, I, p)
            }
            assert got == brute


# -- cylinders --------------------------------------------------------------------


def test_make_cylinder_validates(rose2f):
    I = lower_closure(rose2f, [Path("v", (E,))])
    assert repr(make_cylinder(rose2f, I, [Path("v", (E, F))])) == "Z({v, e} \\ {e f})"
    with pytest.raises(CylinderError):
        make_cylinder(rose2f, I, [Path("v", (E,))])  # inside the tree
    with pytest.raises(CylinderError):
        make_cylinder(rose2f, I, [Path("v", (E, Fi))])  # ends in an inverse letter
    bad = LowerSet("v", (vertex_path("v"), Path("v", (Ei,))))
    with pytest.raises(CylinderError):
        make_cylinder(rose2f, bad, [])
    J = lower_closure(rose2f, [Path("v", (Ei, F))])
    with pytest.raises(CylinderError):
        make_cylinder(rose2f, J, [Path("v", (Ei, E))])  # not reduced


def test_make_cylinder_reads_each_excluded_path_through_the_door(mixed):
    """An excluded path whose letters do not compose, or that names an
    unknown edge, is rejected as `checked_path` rejects it, as a
    CylinderError."""
    A, C, D = Letter("a"), Letter("c", True), Letter("d")
    I = make_cylinder(mixed, lower_closure(mixed, [Path("v", (A,))]), []).tree
    with pytest.raises(CylinderError, match="does not compose"):
        make_cylinder(mixed, I, [Path("v", (A, C, D))])
    with pytest.raises(CylinderError, match="unknown edge 'zzz'"):
        make_cylinder(mixed, I, [Path("v", (A, Letter("zzz")))])
    # a separated path from w passes the door but extends no tree at v
    with pytest.raises(CylinderError, match="not a one-step branch extension"):
        make_cylinder(mixed, I, [Path("w", (D,))])


def test_make_cylinder_rejects_a_tree_that_breaks_the_block_rule(rose2t, mixed):
    """A canonical tree whose members use two edges of one block, at one node
    or through the letter back to a node's parent, names no cylinder: its
    idempotent is zero in the semigroup."""
    v = vertex_path("v")
    for graph, members in (
        (rose2t, [v, Path("v", (F,)), Path("v", (E,))]),
        (rose2t, [v, Path("v", (Ei,)), Path("v", (Ei, F))]),
        (mixed, [v, Path("v", (Letter("a"),)), Path("v", (Letter("b"),))]),
        (mixed, [v, Path("v", (Letter("c"),)), Path("v", (Letter("c"), Letter("a"))),
                 Path("v", (Letter("c"), Letter("b")))]),
    ):
        bad = LowerSet("v", sorted_paths(graph, members))
        with pytest.raises(CylinderError, match="block rule"):
            make_cylinder(graph, bad, [])
    make_cylinder(rose2t, lower_closure(rose2t, [Path("v", (E, F))]), [])


def test_cylinder_member(rose2f):
    B = make_cylinder(
        rose2f, lower_closure(rose2f, [Path("v", (E,))]), [Path("v", (E, F))]
    )
    yes = make_truncation(rose2f, [Path("v", (E, E))], 3)
    assert cylinder_member(rose2f, yes, B)
    holds_ef = make_truncation(rose2f, [Path("v", (E, F))], 3)
    assert not cylinder_member(rose2f, holds_ef, B)
    shallow = make_truncation(rose2f, [Path("v", (E, E))], 2)
    with pytest.raises(SgisError):
        cylinder_member(rose2f, shallow, B)


def test_cylinder_intersect_examples(rose2t, rose2f):
    Ze = make_cylinder(rose2t, lower_closure(rose2t, [Path("v", (E,))]), [])
    Zf = make_cylinder(rose2t, lower_closure(rose2t, [Path("v", (F,))]), [])
    assert cylinder_intersect(rose2t, Ze, Zf) is None
    Ze2 = make_cylinder(rose2f, lower_closure(rose2f, [Path("v", (E,))]), [])
    Zf2 = make_cylinder(rose2f, lower_closure(rose2f, [Path("v", (F,))]), [])
    got = cylinder_intersect(rose2f, Ze2, Zf2)
    assert {p.letters for p in got.tree.paths} == {(), (E,), (F,)}
    # forcing an excluded path inside gives the empty set
    ZeF = make_cylinder(
        rose2f, lower_closure(rose2f, [Path("v", (E,))]), [Path("v", (F,))]
    )
    assert cylinder_intersect(rose2f, ZeF, Zf2) is None


def test_cylinder_difference_simple(rose2f):
    B1 = make_cylinder(rose2f, lower_closure(rose2f, [vertex_path("v")]), [])
    B2 = make_cylinder(rose2f, lower_closure(rose2f, [Path("v", (E,))]), [])
    parts = cylinder_difference(rose2f, B1, B2)
    assert len(parts) == 1
    assert parts[0].tree == B1.tree and parts[0].excluded == (Path("v", (E,)),)


def _rungs(B1, B2) -> list[int]:
    """The number of rungs of each ladder of B1 minus B2: the positive
    letters of each tip of I2 past its longest prefix in I1."""
    I1 = B1.tree
    return [
        sum(not x.inverse for x in h.letters[I1.reach(h.letters)[1] :])
        for h in max_elements(B2.tree)
        if h not in I1
    ]


@pytest.mark.parametrize("name", ["rose1t", "rose2t", "rose2f", "fim2", "fim2inf", "mixed", "generated"])
def test_cylinder_difference_matches_the_walk_route(name, request):
    """Trees merged from chains give the parts that walking tip words gives,
    in the same order, on 300 sampled pairs per graph, and on 30 pairs at a
    vertex of each of 60 generated graphs (graph seeds 0..59) with trees of
    depth 3, where ladders of two rungs and more occur.  On the graphs with
    a block of two edges some H clashes with I1 u I2 and names no part."""
    if name == "generated":
        cases = []
        for seed in range(60):
            graph = random_separated_graph(random.Random(seed), 4)
            rng = random.Random(f"difference:{seed}")
            v = rng.choice(graph.vertices)
            cases.append((graph, rng, sample_cylinders(graph, rng, 12, max_len=3, v=v), 30))
    else:
        graph = request.getfixturevalue(name)
        rng = random.Random(f"difference:{name}")
        cases = [(graph, rng, sample_cylinders(graph, rng, 40) + sample_cylinders(graph, rng, 20, max_len=3), 300)]
    clashes = tall = 0
    for graph, rng, cylinders, pairs in cases:
        for _ in range(pairs):
            B1, B2 = rng.choice(cylinders), rng.choice(cylinders)
            assert cylinder_difference(graph, B1, B2) == cylinder_difference_by_walks(graph, B1, B2), (B1, B2)
            J = meet(graph, B1.tree, B2.tree)
            if J is not None:
                H = set(B2.excluded) - set(B1.excluded)
                clashes += any(meet(graph, J, lower_closure(graph, [h])) is None for h in H)
                tall += max(_rungs(B1, B2), default=0) >= 2
    if name in ("rose2t", "mixed", "generated"):
        assert clashes > 0
    if name == "generated":
        assert tall > 0


def _sample_cylinders(graph, rng, n, max_len=2):
    out = []
    guard = 0
    while len(out) < n and guard < 50 * n:
        guard += 1
        I = canonicalize(graph, random_lower_set(graph, "v", rng, max_len=max_len))
        exts = branch_extensions(graph, I, max_len + 1)
        if not exts:
            continue
        F_ = rng.sample(exts, min(len(exts), rng.randint(0, 2)))
        out.append(make_cylinder(graph, I, F_))
    return out


def test_cylinder_boolean_consistency(rose2t, rose2f, fim2, mixed):
    """member/intersect/difference agree pointwise on sampled windows."""
    rng = random.Random(3)
    for graph in (rose2t, rose2f, fim2, mixed):
        cylinders = _sample_cylinders(graph, rng, 25)
        windows = [
            make_truncation(
                graph, random_filter_truncation(graph, "v", 5, rng), 5
            )
            for _ in range(120)
        ]
        pairs = 0
        for B1 in cylinders:
            for B2 in cylinders:
                if pairs >= 120:
                    break
                pairs += 1
                inter = cylinder_intersect(graph, B1, B2)
                parts = cylinder_difference(graph, B1, B2)
                for Z in windows:
                    in1 = cylinder_member(graph, Z, B1)
                    in2 = cylinder_member(graph, Z, B2)
                    if inter is None:
                        assert not (in1 and in2)
                    else:
                        assert (in1 and in2) == cylinder_member(graph, Z, inter)
                    hits = [P for P in parts if cylinder_member(graph, Z, P)]
                    assert len(hits) <= 1  # disjointness
                    assert (in1 and not in2) == (len(hits) == 1)


def test_cylinder_outputs_validate(rose2t, rose2f, fim2, mixed):
    """Every intersection and difference part passes `make_cylinder` as it
    stands: a canonical tree, and sorted branch extensions of it."""
    rng = random.Random(4)
    for graph in (rose2f, mixed, rose2t, fim2):
        cylinders = _sample_cylinders(graph, rng, 15)
        for B1 in cylinders:
            for B2 in cylinders:
                inter = cylinder_intersect(graph, B1, B2)
                parts = cylinder_difference(graph, B1, B2)
                for P in parts if inter is None else [inter, *parts]:
                    assert make_cylinder(graph, P.tree, P.excluded) == P


# -- the finitely separated collapse ---------------------------------------------


def _all_configs(graph, v):
    letters = [Letter(e, False) for e in graph.out_edges[v]] + [
        Letter(e, True) for e in graph.in_edges[v]
    ]
    for r in range(1, len(letters) + 1):
        for combo in itertools.combinations(letters, r):
            yield LocalConfig(at=v, letters=frozenset(combo))


def test_finite_maximal_collapse_on_finitely_separated(rose2t, rose2f, fim2, mixed):
    for graph in (rose2t, rose2f, fim2, mixed):
        assert is_finitely_separated(graph)
        for v in graph.vertices:
            for cfg in _all_configs(graph, v):
                if not is_admissible(graph, cfg):
                    continue
                assert is_maximal_config(graph, cfg) == is_finite_maximal_config(
                    graph, cfg
                )


def test_collapse_fails_with_infinite_blocks(fim2inf):
    cfg = LocalConfig(at="v", letters=frozenset({Letter("e1", False)}))
    assert is_finite_maximal_config(fim2inf, cfg)
    assert not is_maximal_config(fim2inf, cfg)


def test_compatibility_config_equivalence_on_truncations(rose2t, fim2):
    rng = random.Random(5)
    for graph in (rose2t, fim2):
        for _ in range(60):
            members = random_filter_truncation(graph, "v", 3, rng)
            paths = tuple(members)
            assert is_separated_compatible_family(
                graph, paths
            ) == is_compatible_set_by_configs(graph, paths)
