"""The benchmark's tracer hooks name functions that exist.

perfbench/spans.py wraps each (module, name) of its HOOKS by rebinding the
name on monotile.<module>.  A hooked name that is renamed or moved would make
every traced benchmark run fail, so each one is checked here, with spans.py
read as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


@pytest.mark.parametrize(
    "module, name", [pytest.param(*hook, id=".".join(hook)) for hook in hooks()]
)
def test_hook_resolves(module, name):
    target = importlib.import_module(f"monotile.{module}")
    assert callable(getattr(target, name, None)), f"monotile.{module} has no {name}"
