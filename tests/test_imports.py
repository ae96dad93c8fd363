"""Every name a package module imports is used in that module, and a command
imports no more than it runs.

`__init__.py` is left out of the first check: its imports are the package's
re-exports.
"""

import ast
import os
import subprocess
import sys
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


_NO_OPENSSL = """
import sys
from vuprop.cli import main

config, out = sys.argv[1:]
for command in ("propagate", "ipsa", "vars", "build-matrix"):
    assert main([command, "--config", config, "--out-dir", out]) == 0, command
assert main(["propagate", "--config", config, "--out-dir", out + "/reuse",
             "--matrix", out + "/model_matrix.vupm"]) == 0
assert "_hashlib" not in sys.modules
"""


def test_commands_without_random_numbers_do_not_load_openssl(tmp_path):
    # OpenSSL (`_hashlib`) costs 3.6 MB of resident memory. `mc` and `bench`
    # load it anyway: numpy.random imports it through `secrets`.
    config = tmp_path / "run.yaml"
    config.write_text(
        "model: {builtin: ipsa2d}\n"
        "scenario: {locations: [-0.5, 0.0, 0.5], sigma_ell: 0.3, sigma_alpha: 0.2}\n"
        "grid: {dims: [{name: x, lower: -2.0, upper: 2.0, count: 20},\n"
        "              {name: a, lower: -1.0, upper: 1.0, count: 5, role: alpha}]}\n"
        "output: {k: 10}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(vuprop.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _NO_OPENSSL, str(config), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
