"""The package surface: every advertised name resolves, importing the
package loads none of its modules, no module of ``src/depbounds``
imports a name it never uses, imports scipy or keeps a private name that
nothing reads, and every public name that only tests read says why."""

import ast
import importlib
import io
import json
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import depbounds

SRC = Path(depbounds.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"depbounds.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_import_loads_no_module():
    code = ("import sys, depbounds; "
            "print(sorted(m for m in sys.modules if m.startswith('depbounds.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=SRC.parent, check=True)
    assert proc.stdout.strip() == "[]"


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, re-exports in ``__all__``
    or names in a string annotation."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = getattr(node, "annotation", getattr(node, "returns", None))
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_unused_imports(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


def imported_modules(source: str) -> set:
    """Every module an import statement of ``source`` names, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_no_module_imports_scipy(module):
    """scipy is a test-only reference: no command may load it."""
    names = imported_modules((SRC / f"{module}.py").read_text())
    assert sorted(m for m in names if m.split(".")[0] == "scipy") == []


def test_scipy_import_check_sees_a_nested_import():
    source = "def f():\n    from scipy.special import betaincinv\n    import os\n"
    assert imported_modules(source) == {"scipy.special", "os"}


def test_unused_import_check_sees_an_unused_name():
    source = ("from __future__ import annotations\nimport math, os\n"
              "from x import a, b as c\n__all__ = ['a']\n"
              "def f(y: 'Path') -> os.PathLike:\n    return y\n")
    assert unused_imports(source) == ["line 2: math", "line 3: c"]


def name_tokens(sources: list) -> Counter:
    """How often each name token occurs across ``sources``; strings and
    comments hold none."""
    seen = Counter()
    for source in sources:
        seen.update(tok.string for tok in tokenize.generate_tokens(
            io.StringIO(source).readline) if tok.type == tokenize.NAME)
    return seen


def unread_private_names(sources: list) -> list:
    """Module-level names starting with ``_`` (dunders aside) that appear
    only once as a name token across all of ``sources``: defined, never
    read, imported or called."""
    seen = name_tokens(sources)
    defined = []
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined += [n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
    return sorted(name for name in set(defined) if name.startswith("_")
                  and not name.startswith("__") and seen[name] < 2)


def test_every_private_name_is_read():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_private_name_check_sees_a_leftover():
    sources = ["_TABLE = {}\n_A, _B = 1, 2\n\ndef _deco(fn):\n    return fn\n",
               "from .m import _B\n# _A in a comment is no read\n"
               "def f():\n    return _TABLE\n"]
    assert unread_private_names(sources) == ["_A", "_deco"]


# Public names, and public methods and properties of public classes, that
# no module of src/depbounds and no file of perfbench/ reads, each with the
# reason it stays.  A new one must be declared here; one that gains a
# caller must leave.
TEST_ONLY_PUBLIC = {
    "oracle.exact_tail": "the reference the sweep tests check the tail table against",
    "oracle.z_distribution": "the law of Z of one law, [0,1]-valued ones "
                             "included; the sweeps count the laws of Z of "
                             "stacked Bernoulli laws",
    "oracle.subset_product_moments": "the transform of one law, [0,1]-valued "
                                     "ones included; the sweeps take superset "
                                     "sums of stacked pmfs",
    "oracle.subset_zeta_moments": "the transform of one law, [0,1]-valued ones "
                                  "included (ROADMAP item 8); a Bernoulli law's "
                                  "zeta moments are its outcome pmf",
    "numkernel.binom_tail_log": "a test reference; perfbench names a metric after it",
    "graphcomb.gnm_isolated_exact_tail": "the gnm count tables' cross-check "
                                         "(ROADMAP items 2, 10, 14 and 16)",
    "graphcomb.Graph.save": "writes the edge-list format that simulate --graph reads",
}


def public_members(source: str, classes) -> list:
    """``Class.member`` for each public method or property (any public
    ``def`` of the class body) of each class of ``classes`` that
    ``source`` defines at module level."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def public_names_only_tests_read(sources: list, public: dict) -> list:
    """``module.name`` for each name of ``public`` ({module: names}, a name
    being an ``__all__`` entry or a ``Class.member``) whose last part
    appears only once, where it is defined, as a name token across
    ``sources``.  Tokens are matched by name alone, so a name that shares
    its token with another (``Graph.empty`` and ``np.empty``) counts as
    read: such a name is beyond this check."""
    seen = name_tokens(sources)
    return sorted(f"{module}.{name}" for module, names in public.items()
                  for name in names if seen[name.rpartition(".")[2]] < 2)


def test_every_test_only_public_name_is_declared():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = sorted(SRC.glob("*.py")) + sorted(perfbench.rglob("*.py"))
    public = {}
    for module in MODULES:
        names = getattr(importlib.import_module(f"depbounds.{module}"), "__all__", ())
        source = (SRC / f"{module}.py").read_text()
        public[module] = [*names, *public_members(source, names)]
    got = public_names_only_tests_read([path.read_text() for path in paths], public)
    assert got == sorted(TEST_ONLY_PUBLIC)


def test_test_only_check_sees_a_new_name():
    sources = ["__all__ = ['read', 'unread']\n\ndef read():\n    pass\n\n"
               "def unread():\n    '''read() in a docstring is no read'''\n",
               "from .m import read\n"]
    assert public_names_only_tests_read(
        sources, {"m": ["read", "unread"]}) == ["m.unread"]


def test_test_only_check_sees_a_new_method():
    source = ("__all__ = ['Shape', 'area']\n\n"
              "class Shape:\n"
              "    def __init__(self):\n        self.size = self.scale()\n\n"
              "    def scale(self):\n        return 1\n\n"
              "    @property\n    def unread(self):\n        return 0\n\n"
              "    @classmethod\n    def also_unread(cls):\n        return cls()\n\n"
              "    def _private(self):\n        pass\n\n"
              "class Hidden:\n    def ignored(self):\n        pass\n\n"
              "def area(shape):\n    return shape.size\n")
    members = public_members(source, ["Shape", "area"])
    assert members == ["Shape.scale", "Shape.unread", "Shape.also_unread"]
    got = public_names_only_tests_read([source, "from .m import Shape, area\n"],
                                       {"m": ["Shape", "area", *members]})
    assert got == ["m.Shape.also_unread", "m.Shape.unread"]


def test_cli_import_builds_no_kernel_table():
    """Importing the CLI fills none of the cached index tables of the
    graph and simulate kernels: each is built on a model's first batch, so
    no table build adds to the import every command pays for."""
    code = (
        "import json, depbounds.cli\n"
        "from depbounds import graphcomb, simulate\n"
        "caches = {f'{m.__name__}.{name}': f for m in (graphcomb, simulate)\n"
        "          for name, f in vars(m).items() if hasattr(f, 'cache_info')}\n"
        "filled = sorted(k for k, f in caches.items() if f.cache_info().currsize)\n"
        "graphcomb._triple_pairs(5)\n"
        "seen = graphcomb._triple_pairs.cache_info().currsize\n"
        "print(json.dumps([sorted(caches), filled, seen]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=SRC.parent, check=True)
    caches, filled, seen = json.loads(proc.stdout)
    assert "depbounds.graphcomb._triple_pairs" in caches
    assert "depbounds.simulate._ustat_tuples" in caches
    assert filled == []
    assert seen == 1  # the probe sees a table once one is built
