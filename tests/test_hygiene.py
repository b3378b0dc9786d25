"""Source hygiene checks that need no linter: the standard library's ast."""

import ast
from pathlib import Path

import pytest

import gridlift

PACKAGE_DIR = Path(gridlift.__file__).parent
TESTS_DIR = Path(__file__).parent
# __init__ imports names to re-export them
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(TESTS_DIR.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never mentions again."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def package_imports(path: Path) -> set[str]:
    """The package modules a module imports, as `from .x import y` or
    `from . import x`."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


# test file stems (test_*, conftest) never clash with module stems
@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_verify_imports_no_construction_stage():
    # what a certificate trusts: verify and the modules it may import
    trusted = {"errors", "exact", "facets", "trees"}
    assert package_imports(PACKAGE_DIR / "verify.py") <= trusted
    assert package_imports(PACKAGE_DIR / "facets.py") == {"errors"}


def test_detects_unused_import():
    source = "from dataclasses import dataclass, field\nimport os.path\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: field", "line 2: os"]


def test_init_exports_what_it_imports():
    # a name dropped from one list but not the other would linger as an export
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    exported = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    assert sorted(imported) == sorted(exported)
