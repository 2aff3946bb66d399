"""Every library attribute that bench/tracer.py wraps by name still exists.

The tracer replaces module attributes for the traced benchmark pass, so a
renamed function would otherwise surface only as a crash of
`bench/run.py --trace 1`.
"""

import pytest

from oracles import bench_module

TARGETS = bench_module("tracer").TARGETS


def test_targets_found():
    assert TARGETS


@pytest.mark.parametrize("owner, attr, span", TARGETS, ids=[f"{o.__name__}.{a}" for o, a, _ in TARGETS])
def test_target_resolves(owner, attr, span):
    assert callable(getattr(owner, attr, None)), f"span {span}: {owner.__name__} has no callable {attr}"
