"""The benchmark's traced functions exist in the package.

``bench/run.py --trace`` marks a round as not correct when a target of
``bench/spans.py`` is missing, so removing or renaming a traced function
must fail here too.  The names are only looked up; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname,path", load_spans().TARGETS)
def test_span_target_exists(modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{modname}.{path} is not a function"
