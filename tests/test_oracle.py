import ast
import itertools
import random
from pathlib import Path as FilePath

import pytest

from helpers import composable_letter_words, random_separated_graph
import sgis.algebra
import sgis.oracle
from sgis.errors import Budget, BudgetExceededError, SgisError, WordError
from sgis.graph import parse_graph
from sgis.oracle import (
    CONNECTED,
    UNKNOWN,
    crosscheck,
    equivalence_components,
    fim_embed,
    fim_graph,
    fim_value,
    random_letter_word,
    random_walk_word,
    rewrite_closure,
    rewrite_equiv,
    string_normal_form,
)
from sgis.paths import Letter, parse_word_string
from sgis.semigroup import ZERO, Level, evaluate, normal_form

GOLDEN_WORD = "e e ~e f ~f e f f ~f e ~e ~f ~f"
GOLDEN_NF = "(e f)(e e f f)(e e f e) | e e ~f"


def test_string_algorithm_golden(rose2f):
    atoms = parse_word_string(rose2f, GOLDEN_WORD)
    assert string_normal_form(rose2f, atoms) == GOLDEN_NF


def test_string_algorithm_zero_and_vertex(rose2t):
    assert string_normal_form(rose2t, parse_word_string(rose2t, "~e f")) == "0"
    assert string_normal_form(rose2t, parse_word_string(rose2t, "v")) == "(v) | v"
    assert string_normal_form(rose2t, parse_word_string(rose2t, "e ~e e ~e")) != "0"
    # a walk from a vertex with no steps is the vertex alone
    lonely = parse_graph("vertex w\n", allow_isolated=True)
    assert random_walk_word(lonely, random.Random(0), 5) == ["w"]
    assert string_normal_form(lonely, ["w"]) == "(w) | w"


def test_string_algorithm_noncomposable_is_zero(fim2):
    assert string_normal_form(fim2, parse_word_string(fim2, "e1 e2")) == "0"
    assert string_normal_form(fim2, parse_word_string(fim2, "x1 e1")) == "0"


def test_string_algorithm_agrees_with_engine(bench_graphs):
    rng = random.Random(13)
    for name, graph in bench_graphs.items():
        for _ in range(800):
            atoms = random_letter_word(graph, rng, 9)
            engine = normal_form(graph, evaluate(graph, atoms, Level.SEPARATED))
            assert string_normal_form(graph, atoms) == engine, (name, atoms)


def test_string_algorithm_agrees_exhaustively_short(rose2t, mixed):
    for graph in (rose2t, mixed):
        for word in composable_letter_words(graph, 4):
            engine = normal_form(graph, evaluate(graph, word, Level.SEPARATED))
            assert string_normal_form(graph, word) == engine


def test_rewrite_equiv_examples(rose2f):
    a = parse_word_string(rose2f, "e ~e f ~f")
    b = parse_word_string(rose2f, "f ~f e ~e")
    assert rewrite_equiv(rose2f, a, b, 4) == CONNECTED
    e = parse_word_string(rose2f, "e")
    f = parse_word_string(rose2f, "f")
    assert rewrite_equiv(rose2f, e, f, 6) == UNKNOWN
    assert evaluate(rose2f, e, Level.SEPARATED) != evaluate(rose2f, f, Level.SEPARATED)


def test_rewrite_equiv_zero_pairs(rose2t, fim2, mixed):
    # both sides collapse to zero: connected
    a = parse_word_string(rose2t, "~e f")
    b = parse_word_string(rose2t, "~f e")
    assert rewrite_equiv(rose2t, a, b, 4) == CONNECTED
    # non-composable words denote zero as well
    c = parse_word_string(fim2, "e1 e2")
    d = parse_word_string(fim2, "e1 f2")
    assert rewrite_equiv(fim2, c, d, 4) == CONNECTED
    # one side not composable, the other composable: connected iff it is zero
    e1 = parse_word_string(fim2, "e1")
    assert rewrite_equiv(fim2, c, e1, 4) == rewrite_equiv(fim2, e1, c, 4) == UNKNOWN
    ab, zero = parse_word_string(mixed, "a b"), parse_word_string(mixed, "~a b")
    assert rewrite_equiv(mixed, ab, zero, 4) == rewrite_equiv(mixed, zero, ab, 4) == CONNECTED


def test_rewrite_equiv_relation_four(rose2t):
    a = parse_word_string(rose2t, "~e e")
    b = parse_word_string(rose2t, "v")
    assert rewrite_equiv(rose2t, a, b, 4) == CONNECTED


def test_rewrite_equiv_bound_validation(rose2t):
    a = parse_word_string(rose2t, "e e e")
    with pytest.raises(SgisError):
        rewrite_equiv(rose2t, a, a, 2)


def test_rewrite_closure_budget(rose2t):
    from sgis.paths import word_from_atoms

    atoms = parse_word_string(rose2t, "e ~e f ~f")
    with pytest.raises(BudgetExceededError):
        rewrite_closure(rose2t, word_from_atoms(rose2t, atoms), 8, Budget(limit=3))


def test_rewrite_soundness_sampled(rose2t):
    """Connected pairs must be engine-equal."""
    rng = random.Random(14)
    from sgis.paths import word_from_atoms

    words = composable_letter_words(rose2t, 5)
    for _ in range(60):
        atoms = rng.choice(words)
        w = word_from_atoms(rose2t, atoms)
        closure, hits_zero = rewrite_closure(rose2t, w, 7)
        base_val = evaluate(rose2t, atoms, Level.SEPARATED)
        for other in closure:
            other_atoms = list(other.letters) or [other.base]
            assert evaluate(rose2t, other_atoms, Level.SEPARATED) == base_val
        if hits_zero:
            assert base_val is ZERO


def test_components_match_pairwise_closure(rose2t):
    root, zero_roots = equivalence_components(rose2t, 5)
    rng = random.Random(15)
    from sgis.paths import word_from_atoms

    words = [word_from_atoms(rose2t, w) for w in composable_letter_words(rose2t, 4)]
    for _ in range(40):
        w1, w2 = rng.choice(words), rng.choice(words)
        by_parts = root[w1] == root[w2] or (
            root[w1] in zero_roots and root[w2] in zero_roots
        )
        direct = rewrite_equiv(
            rose2t, list(w1.letters) or [w1.base], list(w2.letters) or [w2.base], 5
        )
        assert (direct == CONNECTED) == by_parts


# -- free inverse monoid ----------------------------------------------------------

GENS = ["x", "y"]


def fim_words(max_len):
    alphabet = ["x", "y", "~x", "~y"]
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def test_fim_basics():
    assert fim_value(GENS, ("x", "~x", "y", "~y")) == fim_value(GENS, ("y", "~y", "x", "~x"))
    assert fim_value(GENS, ("x", "~x")) != fim_value(GENS, ("x",))
    tree, end = fim_value(GENS, ("x", "~x"))
    assert end == () and len(tree) == 2
    for word in (("z",), ("x", "~z")):
        with pytest.raises(WordError, match="unknown free generator 'z'"):
            fim_value(GENS, word)


def test_fim_embedding_agrees_exhaustively():
    graph = fim_graph(GENS)
    words = fim_words(4)
    by_value = {}
    by_embed = {}
    for w in words:
        by_value.setdefault(fim_value(GENS, w), []).append(w)
        by_embed.setdefault(fim_embed(graph, GENS, w), []).append(w)
    assert sorted(sorted(v) for v in by_value.values()) == sorted(
        sorted(v) for v in by_embed.values()
    )


def test_fim_embedding_never_zero():
    graph = fim_graph(GENS)
    for w in fim_words(3):
        assert fim_embed(graph, GENS, w) is not ZERO


def test_crosscheck_report(rose2f):
    report = crosscheck(rose2f, samples=200, max_len=8, seed=3)
    assert set(report) == {"samples", "agreements", "disagreements", "zero_words"}
    assert report["samples"] == 200
    assert report["agreements"] == 200
    assert report["disagreements"] == []


def test_crosscheck_needs_a_positive_length(rose2f):
    for max_len in (0, -1):
        with pytest.raises(SgisError, match="max_len must be at least 1"):
            crosscheck(rose2f, samples=3, max_len=max_len)


def _sgis_modules(node) -> set[str]:
    """The sgis modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        full = [("sgis." if node.level else "") + (node.module or "")]
    elif isinstance(node, ast.Import):
        full = [a.name for a in node.names]
    else:
        return set()
    return {m.split(".")[1] for m in full if m.startswith("sgis.")}


def test_oracle_imports_no_engine_module():
    """The oracles stay independent of the Munn-tree engine: the module
    imports only errors, graph and paths, and only the two functions that
    compare the engine with an oracle reach into the engine."""
    engine = {"semigroup", "semilattice", "spectrum", "algebra"}
    tree = ast.parse(FilePath(sgis.oracle.__file__).read_text())
    top_level = set()
    engine_users = set()
    for node in tree.body:
        for inner in ast.walk(node):
            names = _sgis_modules(inner)
            if node is inner:
                top_level |= names
            elif names & engine:
                engine_users.add(node.name)
    assert top_level == {"errors", "graph", "paths"}
    assert engine_users == {"fim_embed", "crosscheck"}


def test_algebra_imports_no_spectrum_module():
    """The algebra builds its cylinder idempotents from meets of trees, so
    it sits below the spectrum and imports none of it."""
    tree = ast.parse(FilePath(sgis.algebra.__file__).read_text())
    assert all("spectrum" not in _sgis_modules(node) for node in ast.walk(tree))


def test_crosscheck_on_generated_graphs():
    """Engine and string oracle agree on 120 generated graphs without isolated
    vertices (graph seed i, word seed i, i = 0..119), 500 words each."""
    for i in range(120):
        graph = random_separated_graph(random.Random(i), 8)
        report = crosscheck(graph, samples=500, max_len=10, seed=i)
        assert report["disagreements"] == [], (i, graph.edges, graph.blocks)
