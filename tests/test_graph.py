import random
import time

import pytest

from sgis.errors import GraphError, GraphParseError
from sgis.graph import (
    Block,
    SeparatedGraph,
    free_separation,
    infinite_sources,
    is_finitely_separated,
    isolated_vertices,
    parse_graph,
    trivial_separation,
)

ROSE2_SKELETON = (["v"], [("e", "v", "v"), ("f", "v", "v")])


def test_parse_rose2t(rose2t):
    assert rose2t.vertices == ("v",)
    assert [e for e, _, _ in rose2t.edges] == ["e", "f"]
    assert len(rose2t.blocks) == 1
    assert rose2t.blocks[0].edges == ("e", "f")


def test_parse_preserves_declaration_order(fim2):
    assert fim2.vertices == ("v", "x1", "x2")
    assert fim2.edge_index["e1"] == 0
    assert fim2.edge_index["f2"] == 3


def test_parse_free_separation_line(rose2f):
    assert len(rose2f.blocks) == 2
    assert all(len(b.edges) == 1 for b in rose2f.blocks)


def test_duplicate_identifier_rejected():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertex v\nvertex v\n")
    assert err.value.line_no == 2


def test_semantic_error_has_no_line_prefix():
    with pytest.raises(GraphParseError) as err:
        parse_graph("vertex v\nedge e v w\n")
    assert err.value.line_no is None
    assert str(err.value) == "edge 'e': unknown range vertex 'w'"


def test_vertex_edge_name_clash_rejected():
    with pytest.raises(GraphParseError):
        parse_graph("vertex v\nedge v v v\n")


def test_block_source_mismatch():
    text = "vertex v\nvertex w\nedge e v w\nedge g w v\nblock B finite e g\n"
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_partition_violations():
    missing = "vertex v\nedge e v v\nedge f v v\nblock B finite e\n"
    with pytest.raises(GraphParseError):
        parse_graph(missing)
    doubled = (
        "vertex v\nedge e v v\nedge f v v\nblock B1 finite e f\nblock B2 finite f\n"
    )
    with pytest.raises(GraphParseError):
        parse_graph(doubled)


def test_unknown_identifier():
    with pytest.raises(GraphParseError):
        parse_graph("vertex v\nedge e v nowhere\n")
    with pytest.raises(GraphParseError):
        parse_graph("vertex v\nedge e v v\nblock B finite ghost\n")


def test_syntax_error_has_line_number():
    """An unknown directive, a wrong argument count, a `block` line after
    `separation` and a repeated `separation` are each refused at their line."""
    for text, why in (
        ("vertex v\nedgy e v v\n", "unknown directive"),
        ("vertex v\nvertex w x\n", "expected: vertex"),
        ("vertex v\nedge e v\n", "expected: edge"),
        ("vertex v\nblock B finite\n", "expected: block"),
        ("vertex v\nseparation\n", "expected: separation"),
        ("vertex v\nseparation trivial free\n", "expected: separation"),
        ("separation free\nblock B finite e\n", "mutually exclusive with `separation`"),
        ("separation free\nseparation free\n", "repeated `separation`"),
    ):
        with pytest.raises(GraphParseError, match=why) as err:
            parse_graph(text)
        assert err.value.line_no == 2 and "line 2" in str(err.value)


def test_separation_and_blocks_exclusive():
    text = "vertex v\nedge e v v\nblock B finite e\nseparation free\n"
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_comments_and_blank_lines(rose2t):
    text = "# a rose\nvertex v  # hub\n\nedge e v v\nedge f v v\nblock B1 finite e f\n"
    g = parse_graph(text)
    assert g.vertices == rose2t.vertices


def test_finitely_separated(rose2t, fim2, fim2inf):
    assert is_finitely_separated(rose2t)
    assert is_finitely_separated(fim2)
    assert not is_finitely_separated(fim2inf)


def test_infinite_sources(rose2t, fim2, fim2inf):
    assert infinite_sources(rose2t) == set()
    assert infinite_sources(fim2) == set()
    assert infinite_sources(fim2inf) == {"v"}


def test_infinite_sources_need_every_block_infinite():
    text = (
        "vertex v\nvertex x\nedge e v x\nedge f v x\n"
        "block B1 infinite e\nblock B2 finite f\n"
    )
    g = parse_graph(text)
    assert infinite_sources(g) == set()


def test_isolated_rejected_by_default():
    with pytest.raises(GraphError):
        parse_graph("vertex v\nvertex w\nedge e v v\nseparation trivial\n")
    g = parse_graph(
        "vertex v\nvertex w\nedge e v v\nseparation trivial\n", allow_isolated=True
    )
    assert isolated_vertices(g) == {"w"}


def test_constructors():
    vs, es = ROSE2_SKELETON
    t = trivial_separation(vs, es)
    assert [b.edges for b in t.blocks] == [("e", "f")]
    f = free_separation(vs, es)
    assert sorted(b.edges for b in f.blocks) == [("e",), ("f",)]


def test_constructor_outputs_validate(mixed):
    vs = list(mixed.vertices)
    es = list(mixed.edges)
    for build in (trivial_separation, free_separation):
        g = build(vs, es)
        for v in g.vertices:
            covered = [e for b in g.blocks_at[v] for e in b.edges]
            assert sorted(covered) == sorted(g.out_edges[v])


def test_partition_law_on_fixtures(rose2t, rose2f, fim2, mixed, fim2inf):
    for g in (rose2t, rose2f, fim2, mixed, fim2inf):
        for v in g.vertices:
            covered = [e for b in g.blocks_at[v] for e in b.edges]
            assert sorted(covered) == sorted(g.out_edges[v])
            assert len(set(covered)) == len(covered)


def test_sinks_have_no_blocks(fim2):
    assert fim2.blocks_at["x1"] == ()
    with pytest.raises(GraphError):
        SeparatedGraph(
            ["v", "w"],
            [("e", "v", "w")],
            [Block("B", "v", ("e",)), Block("S", "w", ())],
        )


def test_bad_identifier_characters():
    for bad in ("a|b", "a(", "x~y", "p,q"):
        with pytest.raises(GraphParseError):
            parse_graph(f"vertex {bad}\n")


LOOP = [("e", "v", "v")]


@pytest.mark.parametrize(
    "vertices, edges, blocks, why",
    [
        (["a|b"], [], [], "invalid vertex identifier 'a|b'"),
        (["v", "v"], [], [], "duplicate identifier 'v'"),
        (["v"], LOOP * 2, [], "duplicate identifier 'e'"),
        (["v"], [("e", "w", "v")], [], "unknown source vertex 'w'"),
        (["v"], LOOP, [Block("B", "v", ("e",))] * 2, "duplicate block 'B'"),
        (["v"], LOOP, [Block("B", "w", ("e",))], "unknown vertex 'w'"),
        (["v"], LOOP, [Block("B", "v", ("e", "e"))], "repeats an edge"),
        (["v"], LOOP, [Block("B", "v", ("e", "g"))], "unknown edge 'g'"),
        (["v", "w"], [("e", "v", "w"), ("g", "w", "v")], [Block("B", "v", ("e", "g"))],
         "edge 'g' has source 'w'"),
    ],
)
def test_constructor_rejects_a_bad_graph(vertices, edges, blocks, why):
    """`SeparatedGraph` built directly, past the parser's own line checks,
    refuses a bad identifier, duplicate names, unknown vertices and edges, and blocks that
    repeat an edge or take one from another source."""
    with pytest.raises(GraphError, match=why):
        SeparatedGraph(vertices, edges, blocks)


def test_a_graph_of_ten_thousand_vertices_parses_in_linear_time():
    """A generated graph of 10^4 vertices, each with three out-edges to
    random vertices in a two-edge and a one-edge block, parses in under 5 s
    (the reader keeps one dict from edge name to source) and equals the
    graph built through `SeparatedGraph` directly."""
    n = 10_000
    rng = random.Random("ten-thousand")
    vertices = [f"v{i}" for i in range(n)]
    edges = [(f"e{i}_{k}", f"v{i}", f"v{rng.randrange(n)}") for i in range(n) for k in range(3)]
    blocks = []
    for i in range(n):
        blocks += [Block(f"A{i}", f"v{i}", (f"e{i}_0", f"e{i}_1")), Block(f"B{i}", f"v{i}", (f"e{i}_2",))]
    text = "\n".join(
        [f"vertex {v}" for v in vertices]
        + [f"edge {e} {s} {r}" for e, s, r in edges]
        + [f"block {b.name} finite {' '.join(b.edges)}" for b in blocks]
    )
    start = time.perf_counter()
    parsed = parse_graph(text)
    assert time.perf_counter() - start < 5
    assert vars(parsed) == vars(SeparatedGraph(vertices, edges, blocks))
