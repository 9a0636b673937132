"""No module of the package imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cantoasr"
# the benchmark's tracer wraps experiment.wer by name (test_perfbench_hooks.py)
ALLOWED = {("experiment", "wer")}


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = "import os\nimport os.path as p\nimport sys\nfrom a import b, c as d\nsys.exit(d(b))\n"
    assert unused_imports(source) == ["os", "p"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [
        name
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in ALLOWED
    ]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowed_imports_are_still_unused(module, name):
    assert name in unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
