"""Every name a package module imports is used in that module.

`__init__.py` is left out: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import vuprop

MODULES = sorted(p for p in Path(vuprop.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A quoted annotation ("OutputBinning") names what it uses in a string.
    for node in ast.walk(tree):
        for hint in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            for part in ast.walk(hint) if hint is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["field (line 1)"]


def test_check_counts_names_in_quoted_annotations():
    source = "from pathlib import Path\n\ndef f() -> \"Path\":\n    pass\n"
    assert _unused_imports(source) == []
    assert _unused_imports(source.replace('"Path"', '"str"')) == ["Path (line 1)"]
