"""The traced benchmark run can still find every function it wraps.

``perfbench/run.py --trace 1`` wraps public functions of each layer by
module and attribute name (``perfbench/spans.py``'s ``PATCHES``).  A
rename in ``src/`` would break the traced run without failing any other
test, so this suite imports the span recorder read-only and resolves
every target, checking that each is the kind of callable its wrapper
expects.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

SPANS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Read-only: leave no byte-code cache next to the benchmark sources.
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_patch_target_resolves(spans):
    assert spans.PATCHES
    for module_name, path, _, layer, kind in spans.PATCHES:
        target = _resolve(module_name, path)
        assert callable(target), f"{module_name}.{path}"
        assert layer in spans.LAYERS
        is_coroutine = inspect.iscoroutinefunction(target)
        assert is_coroutine == (kind == spans.ASYNC), f"{module_name}.{path}"


def test_every_observer_watches_a_patched_function(spans):
    patched = {path for _, path, _, _, _ in spans.PATCHES}
    assert set(spans.OBSERVERS) <= patched


def test_gather_observer_reads_the_shard_states_argument(spans):
    from repro.cluster.router import merge_shard_states

    shard_states = [({"a": 1.0, "b": 2.0}, 3.0), ({"c": 4.0}, 4.0)]
    tracer = SimpleNamespace(counts=Counter())
    result = merge_shard_states(shard_states)
    spans.OBSERVERS["merge_shard_states"](tracer, (shard_states,), result)
    assert tracer.counts["router.gather.bins"] == 3
