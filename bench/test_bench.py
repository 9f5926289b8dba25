"""Tests of the benchmark itself: seeded inputs, the delegating timing
source, the tracer, and the metric names against BENCHMARK.json."""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

es = run.load_esscreen()
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _inputs_equal(a, b) -> bool:
    if isinstance(a, workloads.PaperInputs):
        return (
            np.array_equal(a.mu, b.mu)
            and np.array_equal(a.sigma, b.sigma)
            and a.exact == b.exact
            and a.grids == b.grids
        )
    return (
        all(
            np.array_equal(x.mu, y.mu) and np.array_equal(x.sigma, y.sigma)
            for x, y in zip(a.worlds, b.worlds)
        )
        and a.exact == b.exact
        and a.grid == b.grid
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    setup = workloads.WORKLOADS[name].setup
    assert _inputs_equal(setup(es, 7), setup(es, 7))
    if name != "paper-equi":  # its book is fixed; the seed picks only paths
        assert not _inputs_equal(setup(es, 7), setup(es, 8))


def _thetas():
    mu = es.model.synthetic_book(20, 3.0)
    spec = es.model.EquicorrelatedSpec(2.0, 0.5)
    equi = es.model.ScenarioParams.equicorrelated(mu, spec)
    general = es.model.ScenarioParams(mu=mu, sigma=equi.sigma + np.diag(np.linspace(0, 1, 20)))
    return {"equi": equi, "general": general}


@pytest.mark.parametrize("kind", ["equi", "general"])
def test_timed_source_draws_are_bit_identical(kind):
    theta = _thetas()[kind]
    plain = es.screener.GaussianSource(theta, es.streams.substream(5, 1))
    tracer = spans.Tracer()
    timed = spans.TimedSource(
        es.screener.GaussianSource(theta, es.streams.substream(5, 1)), tracer
    )
    assert timed.n_s == plain.n_s
    assert np.array_equal(timed.shift_hint(), plain.shift_hint())
    plan = [(np.arange(20), 7), (np.array([1, 4, 9]), 5), (np.array([2, 3]), 11)]
    for idx, count in plan:
        assert np.array_equal(timed.draw(idx, count), plain.draw(idx, count))
    assert [(s[0], s[6], s[7]) for s in tracer.spans] == [
        (spans.DRAW, count, count * idx.size) for idx, count in plan
    ]


def test_screening_through_timed_source_is_bit_identical():
    theta = _thetas()["general"]
    strategy = es.screener.Strategy(q=(20, 6, 2), n=(0, 40, 90, 200))
    plain = es.screener.run_screening(strategy, theta, es.streams.substream(3, 0))
    tracer = spans.Tracer()
    src = spans.TimedSource(
        es.screener.GaussianSource(theta, es.streams.substream(3, 0)), tracer
    )
    with tracer.span("screener.run_screening", pricings=es.screener.cost(strategy)):
        timed = es.screener.run_screening(strategy, src)
    assert timed.es_hat == plain.es_hat
    assert all(np.array_equal(a, b) for a, b in zip(timed.survivors, plain.survivors))
    assert spans.pricings_agree(tracer.spans)
    layer = spans.layer_metrics(tracer.spans, 1)
    assert layer["screener.pricings"] == es.screener.cost(strategy)


def test_patched_wraps_nest_and_restore():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    inner, outer = Owner.inner, Owner.outer
    tracer = spans.Tracer()
    tracer.request = 4
    with tracer.patched([(Owner, "inner", "a.inner"), (Owner, "outer", "a.outer")]):
        assert Owner.outer(1) == 4
    assert Owner.inner is inner and Owner.outer is outer
    (o_name, o_start, o_end, o_parent, o_req, *_), (i_name, i_start, i_end, i_parent, *_) = tracer.spans
    assert (o_name, o_parent, o_req, i_name, i_parent) == ("a.outer", -1, 4, "a.inner", 0)
    assert o_start <= i_start <= i_end <= o_end
    summary = spans.summarize(tracer.spans)
    assert summary["a.outer"]["self_s"] == pytest.approx(
        (o_end - o_start) - (i_end - i_start)
    )


def test_probe_counts_exclude_the_final_training():
    def search(parent_status, *train_status):
        spans_ = [("adaptive.net.learning_rate_search", 0.0, 1.0, -1, 0, parent_status, 0, 0)]
        spans_ += [("adaptive.net.train_level", 0.0, 0.1, 0, 0, st, 0, 0) for st in train_status]
        return spans_

    div = "TrainingDivergedError"
    cases = [
        (search("ok", "ok", div, "ok", "ok", "ok"), 4, 1),
        # the final training diverged after a probe won
        (search(div, "ok", "ok", "ok", "ok", div), 4, 0),
        # every probe diverged: no final training
        (search(div, div, div, div, div), 4, 4),
    ]
    for trace, probes, diverged in cases:
        layer = spans.layer_metrics(trace, 1)
        assert (layer["adaptive.net.probes"], layer["adaptive.net.probes_diverged"]) == (
            probes,
            diverged,
        )


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer = spans.layer_metrics([], 1)
    assert set(layer) | {"trace.overhead_frac"} == set(run.PER_LAYER)


@dataclass
class _FakeResult:
    plan_s: float = 0.5
    screen_s: list = field(default_factory=lambda: [0.01, 0.02])
    bound: float = 3.0

    def fingerprint(self):
        return (self.bound,)


_FAKE = workloads.Workload(
    name="fake",
    setup=lambda es, seed: workloads.PaperInputs(
        seed, np.zeros(1), np.eye(1), None, [], None, 0.0, delta0=2.0
    ),
    request=lambda es, inp, r, tracer=None: _FakeResult(),
    check=lambda es, inp, res: [[]],
    quality=lambda es, inp, results: {"es_abs_err": 0.0},
    quality_requests=2,
)


def test_runs_report_exactly_the_declared_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    untraced = run.run_untraced(es, _FAKE, seed=0, seconds=0.0)
    assert set(untraced["metrics"]) == set(run.END_TO_END)
    assert untraced["metrics"]["plan_bound_delta0"] == 1.5
    assert untraced["checks"].failed == 0 and untraced["checks"].attempted == 2
    traced = run.run_traced(es, _FAKE, seed=0, seconds=0.0, spans_mod=spans)
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["checks"].failed == 0
    assert (tmp_path / "spans_fake_seed0.json").is_file()
