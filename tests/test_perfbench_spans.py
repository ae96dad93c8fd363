"""The benchmark's traced run wraps vuprop functions by name: each must exist.

`perfbench/spans.py` is loaded from its file, not imported as a package, and
is not changed. A renamed or removed function would otherwise surface only
as an AttributeError inside the benchmark's traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("name", sorted(SPANS.LAYERS))
def test_every_wrapped_function_exists(name):
    module, attr, _ = SPANS.LAYERS[name]
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(SPANS.METHODS))
def test_every_wrapped_method_exists(name):
    module, cls_name, attr, _ = SPANS.METHODS[name]
    cls = getattr(importlib.import_module(module), cls_name)
    assert attr in cls.__dict__
