"""The benchmark's tracer (`perfbench/spans.py`) wraps package functions by
name, and its runner reads `_kernels.numba_enabled`.  A renamed or deleted
one breaks only the benchmark, so these checks keep the names in the suite:
every hook resolves, and installing then removing the tracer leaves every
module and class as it was."""

import importlib.util
from pathlib import Path

import pytest

from denseamalgam import _kernels

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooks(spans):
    return ([(owner, attr) for owner, attr, _, _ in spans.SPANS]
            + [(owner, attr) for owner, attr, _ in spans.COUNTED])


def test_every_hook_resolves(spans):
    for owner, attr in hooks(spans):
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    assert callable(getattr(_kernels, "numba_enabled", None))


def test_uninstall_puts_every_original_back(spans):
    owners = list(spans.MODULES) + [owner for owner, _ in hooks(spans)
                                    if isinstance(owner, type)]
    attrs = {attr for _, attr in hooks(spans)}

    def snapshot():
        # a class's own entry, as a classmethod is bound anew on each read
        return {(owner.__name__, attr): vars(owner).get(attr)
                if isinstance(owner, type) else getattr(owner, attr, None)
                for owner in owners for attr in attrs}

    before = snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = snapshot()
    finally:
        tracer.uninstall()
    for owner, attr in hooks(spans):
        key = owner.__name__, attr
        assert wrapped[key] is not before[key], key
    after = snapshot()
    assert all(after[key] is before[key] for key in before), [
        key for key in before if after[key] is not before[key]]
