"""The public names the package declares, and the names the benchmark traces."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import groupauth

MODULES = sorted(m.name for m in pkgutil.iter_modules(groupauth.__path__))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"groupauth.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"groupauth.{name}.__all__ lists missing {attr!r}"


def test_traced_names_exist():
    # perfbench/spans.py wraps these attributes by name; a missing one
    # breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _stem, _kind in spans.HOOKS:
        module = importlib.import_module(f"groupauth.{module_name}")
        assert callable(getattr(module, attr, None)), f"groupauth.{module_name}.{attr}"
