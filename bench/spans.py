"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own code.  Calls the benchmark makes
itself are wrapped in ``Tracer.span``; calls made inside ``esscreen`` are
timed by replacing public names where their callers look them up (for
example ``esscreen.planner.selection_term``, which the planner's term
providers resolve at call time) with wrappers that open a span.  Price draws
are timed by ``TimedSource``, a delegating source handed to the engines.

The replacements are installed only around traced requests, so untraced
requests run the unmodified program.  Each layer's self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Column names of one recorded span.
#: ``rows`` is a draw's row count; ``pricings`` the scalar pricings a draw
#: produced, or for a ``run_screening`` span the cost of its schedule.
SPAN_FIELDS = ("name", "start", "end", "parent", "request", "status", "rows", "pricings")

#: Span name of one price-source draw.
DRAW = "source.draw"


class Tracer:
    """Span recorder.  ``spans`` holds one entry per span, in SPAN_FIELDS
    order; ``parent`` is the index of the enclosing span or -1, ``request``
    the value of ``Tracer.request`` when the span opened."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, rows=0, pricings=0):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, "ok", rows, pricings]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = perf_counter()
            # a closed span is a tuple of scalars, which the garbage
            # collector stops tracking, so a long trace does not slow down
            # collections
            self.spans[self._stack.pop()] = tuple(span)

    def wrap(self, name, fn, pricings=None):
        """``fn`` with every call recorded as a span called ``name``;
        ``pricings(*args, **kwargs)``, when given, fills the span's
        ``pricings`` field."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = pricings(*args, **kwargs) if pricings is not None else 0
            with self.span(name, pricings=work):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, wraps, swaps=()):
        """For the duration of the block, wrap each ``(owner, attribute, span
        name[, pricings])`` in ``wraps`` and replace each ``(owner, attribute,
        value)`` in ``swaps``; the originals are restored on exit."""
        saved = []
        try:
            for owner, attr, name, *pricings in wraps:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self.wrap(name, saved[-1][2], *pricings))
            for owner, attr, value in swaps:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, value)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


class TimedSource:
    """Delegating price source: forwards every call to ``inner`` and records
    each ``draw`` as a span carrying its row and pricing counts."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def n_s(self) -> int:
        return self.inner.n_s

    def shift_hint(self):
        return self.inner.shift_hint()

    def draw(self, indexes, count):
        rows, width = int(count), int(len(indexes))
        with self.tracer.span(DRAW, rows=rows, pricings=rows * width):
            return self.inner.draw(indexes, count)


def trace_targets(esscreen, tracer: Tracer):
    """``(wraps, swaps)`` for ``Tracer.patched``: the public names the traced
    run wraps, each with its ``<layer>.<function>`` span name, and the
    engine-built ``GaussianSource`` replaced by a ``TimedSource`` over it."""
    model, planner = esscreen.model, esscreen.planner
    training = esscreen.adaptive.training
    policy, net = esscreen.adaptive.policy, esscreen.adaptive.net
    gaussian = esscreen.screener.GaussianSource
    cost = esscreen.screener.cost

    def timed_gaussian(theta, rng):
        return TimedSource(gaussian(theta, rng), tracer)

    wraps = [
        (planner, "selection_term", "bounds.selection_term"),
        (model.NIWParams, "__post_init__", "model.niw_validate"),
        (training, "sample_niw", "model.sample_niw"),
        (training, "forward_pass", "adaptive.training.forward_pass"),
        (training, "mc_value_final", "adaptive.training.mc_value_final"),
        (
            training,
            "run_screening",
            "screener.run_screening",
            lambda strategy, *args, **kwargs: cost(strategy),
        ),
        (training, "learning_rate_search", "adaptive.net.learning_rate_search"),
        (net, "train_level", "adaptive.net.train_level"),
        (net, "net_loss_and_grads", "adaptive.net.net_loss_and_grads"),
        (training, "niw_update_diag_stats", "adaptive.niw.update"),
        (policy, "niw_update_diag_stats", "adaptive.niw.update"),
        (training, "f_plugin", "adaptive.policy.f_plugin"),
        (policy, "f_plugin", "adaptive.policy.f_plugin"),
        (policy, "choose_action", "adaptive.policy.choose_action"),
    ]
    swaps = [(training, "GaussianSource", timed_gaussian)]
    return wraps, swaps


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total duration ``s`` and total ``self_s``."""
    child = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for idx, (name, start, end, *_rest) in enumerate(spans):
        rec = out[name]
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += end - start - child[idx]
    return dict(out)


def _indexes(spans, name) -> set[int]:
    return {i for i, s in enumerate(spans) if s[0] == name}


def pricings_agree(spans) -> bool:
    """Draws under ``run_screening`` spans priced exactly what the screened
    schedules cost."""
    screen_idx = _indexes(spans, "screener.run_screening")
    drawn = sum(s[7] for s in spans if s[0] == DRAW and s[3] in screen_idx)
    planned = sum(spans[i][7] for i in screen_idx)
    return drawn == planned


def layer_metrics(spans, requests: int) -> dict[str, float]:
    """Per-layer metrics per traced request (totals divided by ``requests``).

    Screener figures cover ``run_screening`` calls and the draws made
    directly under them; draws made by ``run_adaptive`` are not counted.
    """
    by = summarize(spans)

    def get(name, key):
        return by.get(name, {}).get(key, 0.0)

    screen_idx = _indexes(spans, "screener.run_screening")
    draw_s = rows = pricings = 0.0
    for name, start, end, parent, _, _, r, p in spans:
        if name == DRAW and parent in screen_idx:
            draw_s += end - start
            rows += r
            pricings += p
    screen_s = get("screener.run_screening", "s")

    # learning_rate_search trains its probes, then continues the best one
    # once; that final training runs only if some probe did not diverge
    probes = diverged = 0
    for idx in _indexes(spans, "adaptive.net.learning_rate_search"):
        trains = [s[5] for s in spans if s[0] == "adaptive.net.train_level" and s[3] == idx]
        if "ok" in trains:
            trains.pop()
        probes += len(trains)
        diverged += trains.count("TrainingDivergedError")

    totals = {
        "screener.draw_s": draw_s,
        "screener.draw_rows": rows,
        "screener.pricings": pricings,
        "screener.fold_select_s": get("screener.run_screening", "self_s"),
        "planner.dp_s.L3": get("planner.dp_optimize.L3", "s"),
        "planner.dp_s.L4": get("planner.dp_optimize.L4", "s"),
        "planner.dp_s.L5": get("planner.dp_optimize.L5", "s"),
        "bounds.selection_term_calls": get("bounds.selection_term", "calls"),
        "bounds.selection_term_s": get("bounds.selection_term", "s"),
        "adaptive.net.loss_grads_calls": get("adaptive.net.net_loss_and_grads", "calls"),
        "adaptive.net.loss_grads_s": get("adaptive.net.net_loss_and_grads", "s"),
        "adaptive.net.train_level_self_s": get("adaptive.net.train_level", "self_s"),
        "adaptive.net.probes": probes,
        "adaptive.net.probes_diverged": diverged,
        "adaptive.niw.update_calls": get("adaptive.niw.update", "calls"),
        "adaptive.niw.update_s": get("adaptive.niw.update", "s"),
        "model.niw_validate_calls": get("model.niw_validate", "calls"),
        "model.niw_validate_s": get("model.niw_validate", "s"),
        "model.sample_niw_s": get("model.sample_niw", "s"),
        "adaptive.training.forward_pass_s": get("adaptive.training.forward_pass", "s"),
        "adaptive.training.mc_value_final_s": get("adaptive.training.mc_value_final", "s"),
        "adaptive.training.fit_other_s": get(
            "adaptive.training.fit_value_functions", "self_s"
        ),
        "adaptive.policy.f_plugin_calls": get("adaptive.policy.f_plugin", "calls"),
        "adaptive.policy.f_plugin_s": get("adaptive.policy.f_plugin", "s"),
        "adaptive.policy.choose_action_s": get("adaptive.policy.choose_action", "s"),
    }
    out = {k: v / requests for k, v in totals.items()}
    out["screener.draw_ns_per_pricing"] = draw_s / pricings * 1e9 if pricings else 0.0
    out["screener.pricings_per_s"] = pricings / screen_s if screen_s else 0.0
    return out
