"""The traced benchmark's hooks resolve: every public name that
``bench/spans.trace_targets`` wraps or replaces exists in the package, and
``Tracer.patched`` installs and restores each one."""

import importlib.util
from pathlib import Path

import numpy as np

import esscreen
import esscreen.adaptive
import esscreen.model
import esscreen.planner
import esscreen.screener
from esscreen.streams import substream


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_and_restore():
    spans = _load_spans()
    tracer = spans.Tracer()
    wraps, swaps = spans.trace_targets(esscreen, tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in wraps]
    originals += [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    with tracer.patched(wraps, swaps):
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
        prior = esscreen.model.NIWParams(
            m=np.zeros(2), k=1.0, i=4.0, s=np.eye(2), index_map=[0, 1]
        )
        esscreen.adaptive.training.sample_niw(prior, substream(0, 0))
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    names = {span[0] for span in tracer.spans}
    assert {"model.sample_niw", "model.niw_validate"} <= names
