"""No module of the package imports a name that it never uses, or defines
a function, class or method that nothing in the package or the benchmark reads;
one function writes every JSON text the package prints or saves, and one opens
every text file it reads; only ``phonology`` branches on the scheme; no module
binds a mutable container at its top level; and the second pass runs without
loading ``numpy.random``, ``hashlib`` or ``secrets``."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantoasr"
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


# definitions kept with no reader, each for a reason
ALLOWED_UNREAD = {
    ("phonology", "render"): "c02 checks it as the inverse of parse_jyutping",
    ("lattice", "demo_lattice_path"): "locates the shipped sample lattice",
    ("ngram", "prob"): "c04 checks hand-counted probabilities through it",
}


def names_read(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def definitions(tree) -> list:
    """Top-level functions and classes, and their classes' non-dunder methods."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [
                m for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            ]
    return out


def unread_definitions(modules: dict, readers: list) -> list[tuple[str, str]]:
    """(module, name) of each definition in ``modules`` (name -> source) whose
    name no source in ``readers`` reads outside the definition itself."""
    read = sum((names_read(ast.parse(source)) for source in readers), Counter())
    return [
        (module, node.name)
        for module, source in modules.items()
        for node in definitions(ast.parse(source))
        if read[node.name] == names_read(node)[node.name]
    ]


def package_unread() -> list[tuple[str, str]]:
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    ]
    return unread_definitions(modules, readers)


def test_the_check_finds_an_unread_definition():
    defining = (
        "def f(n):\n    return f(n - 1)\n"  # read only by itself
        "def g():\n    pass\n"
        "class C:\n    def __init__(self):\n        pass\n"
        "    def used(self):\n        pass\n    def unused(self):\n        pass\n"
    )
    reader = "g()\nC().used()\n"
    assert unread_definitions({"m": defining}, [defining, reader]) == [("m", "f"), ("m", "unused")]


def test_every_definition_is_read():
    unread = [d for d in package_unread() if d not in ALLOWED_UNREAD]
    assert unread == [], f"nothing in src/ or perfbench/ reads {unread}"


@pytest.mark.parametrize("module, name", sorted(ALLOWED_UNREAD))
def test_allowed_definitions_are_still_unread(module, name):
    assert (module, name) in package_unread()


def call_sites(source: str, matches) -> list[str]:
    """The innermost function around each call in ``source`` that ``matches``,
    ``"<module>"`` for a call outside every function."""
    sites = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                sites.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def is_json_dumps(call: ast.Call) -> bool:
    """A ``json.dumps`` (or bare ``dumps``) call."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "dumps") or (
        isinstance(func, ast.Attribute) and func.attr == "dumps"
        and isinstance(func.value, ast.Name) and func.value.id == "json"
    )


def test_the_check_finds_every_json_dumps_call():
    source = (
        "import json\nfrom json import dumps\nx = json.dumps(1)\n"
        "def f():\n    def g():\n        return dumps(2)\n    return json.dumps(g())\n"
    )
    assert call_sites(source, is_json_dumps) == ["<module>", "g", "f"]


def test_json_is_written_only_by_the_package_writer():
    sites = [
        (path.stem, site)
        for path in sorted(SRC.glob("*.py"))
        for site in call_sites(path.read_text(encoding="utf-8"), is_json_dumps)
    ]
    assert sites == [("__init__", "json_text")]


def reads_text(call: ast.Call) -> bool:
    """A call that opens a file to read it as text, or any ``read_text`` call.

    The mode is ``open``'s second argument and a method ``open``'s first (as
    ``Path.open`` takes it), or the ``mode`` keyword.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "read_text":
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        at = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        at = 0
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > at:
        mode = call.args[at]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # no mode is "r"; a computed one counts as a read
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def test_the_check_finds_every_text_read():
    source = (
        "from pathlib import Path\nopen('a')\nopen('a', 'rb')\nopen('a', 'w')\n"
        "def f(m):\n    open('a', mode='r+')\n    open('a', m)\n    open('a', 'wb')\n"
        "def g(p):\n    p.open()\n    p.open('rb')\n    return Path(p).read_text()\n"
        "def h(p):\n    p.write_text('x')\n    return p.open('a', encoding='utf-8')\n"
    )
    assert call_sites(source, reads_text) == ["<module>", "f", "f", "g", "g"]


def test_text_is_read_only_through_open_text():
    # so every reader takes open_text's rules: UTF-8, a leading byte-order
    # mark read as nothing, and bytes that do not decode a named DataError
    sites = [
        (path.stem, site)
        for path in sorted(SRC.glob("*.py"))
        for site in call_sites(path.read_text(encoding="utf-8"), reads_text)
    ]
    assert sites == [("__init__", "open_text")]


SCHEME_NAMES = {"SCHEME_IF", "SCHEME_ONC"}
SCHEME_VALUES = {"if", "onc"}


def is_scheme(node) -> bool:
    """A scheme constant, bare or as an attribute, or a scheme name literal."""
    return (
        isinstance(node, ast.Name) and node.id in SCHEME_NAMES
        or isinstance(node, ast.Attribute) and node.attr in SCHEME_NAMES
        or isinstance(node, ast.Constant) and node.value in SCHEME_VALUES
    )


def scheme_compares(source: str) -> list[int]:
    """The line of each comparison in ``source`` with a scheme as an operand."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and any(map(is_scheme, [node.left, *node.comparators]))
    )


def test_the_check_finds_a_scheme_compare():
    source = (
        "from .phonology import SCHEME_ONC\nfrom . import phonology\n"
        "def f(scheme):\n    if scheme == SCHEME_ONC:\n        return 1\n"
        "    return 'x' if 'if' != scheme else phonology.SCHEME_IF is scheme\n"
        "g = {'if': 1, 'onc': 2}\nh = 'if' + 'onc'\n"
    )
    assert scheme_compares(source) == [4, 6, 6]


def test_only_phonology_branches_on_the_scheme():
    # a scheme is its decomposition (phonology.to_phones): every other module
    # reads what it needs from the phones, so a new scheme needs no branch there
    sites = [
        (path.stem, line)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "phonology"
        for line in scheme_compares(path.read_text(encoding="utf-8"))
    ]
    assert sites == []


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def makes_container(node) -> bool:
    """A dict, list or set display or comprehension, or a ``dict()``,
    ``list()`` or ``set()`` call."""
    return isinstance(node, CONTAINERS) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"dict", "list", "set"}
    )


def module_containers(source: str) -> list[str]:
    """The targets of each top-level assignment in ``source`` that binds a
    new dict, list or set."""
    return [
        ast.unparse(target)
        for node in ast.parse(source).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and makes_container(node.value)
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]


def test_the_check_finds_a_module_level_container():
    source = (
        "a = {}\nb: list[int] = []\nc = d = {1}\ne = {k: 1 for k in 'x'}\nf = [k for k in 'x']\n"
        "g = dict(x=1)\nh = set()\ni = (1, 2)\nj = frozenset()\nk: int\n"
        "def m():\n    n = {}\n    return n\n"
    )
    assert module_containers(source) == ["a", "b", "c", "d", "e", "f", "g", "h"]


def test_no_module_binds_a_mutable_container():
    # a cache is a functools cache (phonology._phone, ngram.tokenize_chars),
    # never a module-level table with its own eviction
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in module_containers(path.read_text(encoding="utf-8"))
    ]
    assert found == [], f"module-level containers: {found}"


# loaded with numpy.random: about 6 MB of RSS that no second-pass call needs
DEFERRED = ("numpy.random", "hashlib", "secrets")


def loaded_after(code: str) -> list[str]:
    """Which of ``DEFERRED`` a fresh interpreter holds after running ``code``;
    a fresh one, since pytest's own process has loaded numpy.random."""
    probe = f"{code}\nimport sys\nprint('loaded', *[m for m in {DEFERRED!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return done.stdout.splitlines()[-1].split()[1:]


def test_importing_the_package_loads_no_random_module():
    assert loaded_after("import cantoasr.cli") == []


def test_the_second_pass_loads_no_random_module():
    code = (
        "from cantoasr import cli, lattice\n"
        "cli.main(['nbest', '--lattice', str(lattice.demo_lattice_path())])"
    )
    assert loaded_after(code) == []


def test_building_state_models_loads_numpy_random():
    # the load is deferred to the first draw, not removed
    code = (
        "from cantoasr.simulate import SimConfig, build_state_models\n"
        "build_state_models({'a', 'b'}, SimConfig(seed=0))"
    )
    assert "numpy.random" in loaded_after(code)
