"""Every name a module of the package or a script imports is used there,
and every public definition of the package is used, or listed as used only
by the tests.

No linter is a dependency of the project, so stdlib `ast` passes stand in
for the unused-import and dead-code checks.  `sgis/__init__.py` is exempt
from the first: its imports are the package's re-exported API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgis"
FILES = sorted(
    p
    for p in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if p.name != "__init__.py"
)


def _annotation_strings(tree):
    """Quoted annotations, parsed: a name used only inside one is used."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for part in [tree, *_annotation_strings(tree)]:
        used.update(n.id for n in ast.walk(part) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_guard_examples():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import (b, c as d)\nd()\n") == ["line 1: b"]
    assert unused_imports("import x.y\nx.y.z()\n") == []
    assert unused_imports("from t import L\ndef f(a: 'L | None'): pass\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


# Public definitions of the package that nothing in src/sgis, scripts/ or
# perfbench/ refers to, each kept for the reason given.  A new one must be
# added here on purpose; a listed one that gains a caller or is deleted must
# leave the list.
ONLY_TESTS = {
    "algebra.block_complement": "paper API: v minus a finite block's range projections",
    "algebra.branch_gap": "paper API: the defect of one branch extension; second route to cylinder_idempotent",
    "algebra.cover_refinement_check": "paper API: the refinement identity, criterion 08",
    "algebra.idempotent_of": "paper API: the idempotent of a tree from outside; the library's own trees use _idempotent",
    "algebra.or_join": "paper API: or_join",
    "algebra.path_element": "paper API: a separated path as a partial isometry; the library builds its own from chains",
    "oracle.equivalence_components": "oracle: bounded rewriting classes, criterion 03",
    "oracle.fim_embed": "oracle: the free inverse monoid embedding, criterion 04",
    "oracle.fim_graph": "oracle: the graph of the embedding, criterion 04",
    "oracle.rewrite_equiv": "oracle: bounded rewriting, criterion 03",
    "paths.compatible_by_reduction": "second route to compatible",
    "paths.render_free_word": "criterion 01 renders gradings with it",
    "semigroup.act_on_tree": "paper API: the partial translation action",
    "semigroup.action_domain_contains": "paper API: the domain of the partial translation action",
    "semigroup.apply_automorphism": "paper API: automorphisms on elements, criterion 11",
    "semigroup.grading": "paper API: the grading by the free group, criterion 01",
    "semigroup.make_element": "paper API: an element from raw tree data; the engine builds its own by walks",
    "semigroup.natural_leq": "paper API: the natural partial order",
    "semilattice.canonicalize_by_stripping": "second route to canonicalize",
    "semilattice.class_eq": "paper API: the congruence on trees, criterion 06",
    "semilattice.class_leq": "paper API: the order on classes, criterion 06",
    "semilattice.is_compatible_set_by_configs": "second route to the block rule, by local configurations",
    "spectrum.extend_inverse_tails": "paper API: inverse to trim_inverse_tails below depth",
    "spectrum.local_configuration": "paper API: the local configuration at a member",
}


def public_definitions():
    """`module.name` and name of each top-level public def and class of the
    package; `cli.cmd_*` is exempt, as `main` dispatches it by name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not (path.stem == "cli" and node.name.startswith("cmd_")):
                yield f"{path.stem}.{node.name}", node.name


def referenced_names(source: str) -> set[str]:
    """Every name the source refers to as a name, an attribute, an import or
    a string constant, except a definition's references to itself."""
    used = set()
    for top in ast.parse(source).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                here.add(node.value)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            here.discard(top.name)
        used |= here
    return used


def test_every_public_definition_is_used_or_listed():
    users = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in users))
    unused = {q for q, name in public_definitions() if name not in used}
    assert sorted(unused - ONLY_TESTS.keys()) == [], "no caller: delete it, or list it in ONLY_TESTS"
    assert sorted(ONLY_TESTS.keys() - unused) == [], "listed in ONLY_TESTS, but used or gone"


def test_dead_code_guard_examples():
    source = "import a.b\nfrom c import d\ndef f(): f(); g.h; 'k'\nclass C: pass\n"
    assert referenced_names(source) == {"b", "d", "g", "h", "k"}
    assert referenced_names("def f(): return f()\ndef g(): f()\n") == {"f"}


def callers_of(source: str, name: str) -> set[str]:
    """The top-level definitions that call `name` as an attribute, or refer
    to it as a name, so that a door picked by a condition and called later
    counts; a use outside every definition counts as `<module>`."""
    out = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            f = node.func if isinstance(node, ast.Call) else None
            if (isinstance(node, ast.Name) and node.id == name) or getattr(f, "attr", None) == name:
                out.add(getattr(top, "name", "<module>"))
    return out


def test_a_tree_from_outside_is_checked_at_one_door():
    """In the package only `semilattice.checked_tree` reads the block rule of
    a whole tree (`block_rule_break`); the doors for paths and trees from
    outside (`checked_path`, `reduced_path`, `checked_tree`) are called by
    exactly the functions that take such values, and by no function that
    passes on a value it has checked or built; nothing calls `meet`, the
    door for two trees from outside, as the engine joins its own trees by
    `merge_tries`, nor `idempotent_of`, `make_element`, `path_element` or
    `action_domain_contains`, which read what they are given again; and no
    module defines `_checked`, a re-check of elements the engine built."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}

    def callers(name):
        return {f"{module}.{d}" for module, text in sources.items() for d in callers_of(text, name)}

    assert callers("block_rule_break") == {"semilattice.checked_tree"}
    assert callers("checked_path") == {
        "algebra.branch_gap",
        "algebra.cover_refinement_check",
        "algebra.path_element",
        "semigroup.make_element",
        "semilattice.lower_closure",
        "spectrum.make_cylinder",
    }
    assert callers("reduced_path") == {
        "paths.checked_path",
        "semigroup.act_on_tree",
        "semigroup.action_domain_contains",
        "semigroup.make_element",
    }
    assert callers("checked_tree") == {
        "algebra.bounded_cover_check",
        "algebra.cover_refinement_check",
        "algebra.cover_witness",
        "algebra.idempotent_of",
        "semigroup.make_element",
        "semilattice.lower_closure",
        "semilattice.meet",
        "spectrum.branch_extensions",
        "spectrum.make_cylinder",
    }
    for name in ("meet", "idempotent_of", "make_element", "path_element", "action_domain_contains"):
        assert callers(name) == set(), name
    defined = [
        module
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_checked"
    ]
    assert defined == []


def test_door_guard_examples():
    source = "def f(): g(); m.h()\nclass C:\n    def k(self): h(1)\nh()\n"
    assert callers_of(source, "h") == {"f", "C", "<module>"}
    assert callers_of(source, "g") == {"f"}
    assert callers_of(source, "k") == set()
    source = "def f(x):\n    read = g if x else h\n    return read(x)\n"
    assert callers_of(source, "g") == callers_of(source, "h") == {"f"}
