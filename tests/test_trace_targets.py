"""The benchmark's traced run wraps program functions by name.

``perfbench/tracing.py`` lists them in ``TARGETS`` and looks each class
attribute up in the owning class's own ``__dict__``, so a refactor that
renames, removes or moves one of them into a base class breaks every
traced benchmark run.  This test does the same lookup, so such a
refactor fails here first.
"""

from __future__ import annotations

import importlib

import pytest

from perfbench.tracing import TARGETS


@pytest.mark.parametrize(
    "target", [target for _, target, _ in TARGETS], ids=[name for name, _, _ in TARGETS]
)
def test_trace_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    class_name, _, attribute = path.rpartition(".")
    if class_name:
        owner = getattr(owner, class_name)
        assert attribute in owner.__dict__, f"{target} is not defined on {class_name} itself"
    else:
        assert callable(getattr(owner, attribute))
