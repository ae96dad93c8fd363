"""README.md keeps to the API: every python code block runs, and every name
listed under "What's included" exists in the module its bullet names."""

import functools
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


# Backticked words of "What's included" that are math symbols or file
# names, not Python names.
NOT_NAMES = {"x", "alpha", "N", "L", "vuprop", "manifest.json"}


def _included_bullets():
    """(modules, names) per bullet of README's "What's included", up to the
    paragraph after the list: the bold backticked module names the bullet
    opens with, and every other backticked name in it, cut to its leading
    dotted identifier."""
    section = README.read_text().split("## What's included\n\n", 1)[1].split("\n\n", 1)[0]
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        head, body = re.match(r"\*\*(.*?)\*\*(.*)", bullet, re.S).groups()
        modules = re.findall(r"`(\w+)`", head)
        names = [re.match(r"[\w.]*", token).group() for token in re.findall(r"`([^`]+)`", body)]
        yield modules, [n for n in names if n not in NOT_NAMES]


def test_readme_included_names_resolve_in_their_modules():
    bullets = list(_included_bullets())
    assert bullets and all(modules for modules, _ in bullets)
    missing = []
    for modules, names in bullets:
        spaces = [importlib.import_module(f"vuprop.{m}") for m in modules]
        for name in names:
            if not any(_resolves(space, name) for space in spaces):
                missing.append(f"{name} (in {' / '.join(modules)})")
    assert not missing, f"README names with no such attribute: {missing}"


def _resolves(space, dotted: str) -> bool:
    try:
        functools.reduce(getattr, dotted.split("."), space)
    except AttributeError:
        return False
    return True
