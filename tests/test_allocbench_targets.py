"""The allocator benchmark's attribution targets still exist.

``allocbench/tracing.py`` patches timing wrappers onto program names
(module globals and class attributes) listed in ``TARGETS``.  A renamed
or removed name would only surface mid-benchmark, so this resolves every
target the way the tracer does, without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "allocbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location(
        "allocbench_tracing", _TRACING
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize(
    "module,path",
    [(module, path) for module, path, _layer in _targets()],
)
def test_target_resolves_in_owner_dict(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    assert attr in owner.__dict__, f"{module}:{path}"
    assert callable(owner.__dict__[attr])
