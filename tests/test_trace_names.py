"""The functions the benchmark's trace wraps by name exist under those names.

perfbench/spans.py wraps pgal functions from outside, by module and
attribute; a rename in pgal would make every traced benchmark run fail
without any other test noticing.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.FUNCTIONS]


@pytest.mark.parametrize("module_name,attr", _traced_names())
def test_each_traced_name_resolves(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
