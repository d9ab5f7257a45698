"""Every name a module of the package or a script imports is used there.

No linter is a dependency of the project, so this stdlib `ast` pass stands in
for the unused-import check.  `sgis/__init__.py` is exempt: its imports are
the package's re-exported API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "sgis").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
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
