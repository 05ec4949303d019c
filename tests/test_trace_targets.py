"""The traced benchmark run wraps a fixed list of sackit functions
(``perfbench/trace_child.py`` ``TARGETS``) and refuses the op when one of
them is missing.  Check here that every target still resolves, so a
refactor that drops or renames a traced name fails the tests rather than
the traced benchmark."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(m, a) for m, a, _prefix, _timed in _targets()]
)
def test_trace_target_resolves(module_name, attr):
    # the same lookup as trace_child.install: the last name must be defined
    # on its owner itself, not inherited
    *path, name = attr.split(".")
    owner = importlib.import_module(module_name)
    for part in path:
        owner = getattr(owner, part)
    assert vars(owner).get(name) is not None, f"{module_name}.{attr}"
