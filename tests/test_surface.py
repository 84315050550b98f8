"""The package surface: every advertised name resolves, importing the
package loads none of its modules, and no module of ``src/depbounds``
imports a name it never uses or imports scipy."""

import ast
import importlib
import subprocess
import sys
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
