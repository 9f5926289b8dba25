"""esscreen benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper-equi --seed 0 --seconds 40 --trace 0

Run from any directory of a checkout: the package is imported from the
checkout's ``src/``.  The load is a closed loop from one process: one
request at a time, the next sent when the previous one returns.  The run
sends at least the workload's ``quality_requests`` requests, and more (in
whole cycles of the workload's ``cycle`` requests) while they still end
within ``--seconds``; untraced runs also repeat the set-up between requests
to time it (see ``Setup``).  Every output is checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced copies of each request, checks that both produce
bit-identical outputs, and reports the per-layer metrics from the traced
copies' spans (per traced request) plus the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full report is also written to ``bench/out/BENCH_<workload>_seed<n>_trace<t>.json``
and, in traced runs, the spans to ``bench/out/spans_<workload>_seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: BLAS threads.  One keeps each run on one core: a second thread did not
#: speed up the dense-factor draws and made the small matrix products of
#: net training more sensitive to load on the other core.
THREADS = 1
#: An untraced run repeats its set-up in batches interleaved with the
#: requests, spending about SETUP_SHARE of the run on them, so that
#: ``setup_s`` samples the same stretch of machine load as ``request_s``.
#: One sample is the mean set-up time over a batch of repeats lasting at
#: least SETUP_BATCH_S; ``setup_s`` is the median sample.  The run starts
#: with SETUP_FIRST_BATCHES batches.
SETUP_SHARE = 0.1
SETUP_BATCH_S = 0.2
SETUP_FIRST_BATCHES = 3
#: Minimum (untraced, traced) request pairs of a traced run, and the number
#: of traced requests the per-layer metrics average over.
TRACE_PAIRS = 2

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "request_s": "s",
    "peak_rss_mb": "MB",
    "plan_bound_delta0": "delta0",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "screener.draw_s": "s",
    "screener.draw_rows": "count",
    "screener.pricings": "count",
    "screener.draw_ns_per_pricing": "ns",
    "screener.pricings_per_s": "1/s",
    "screener.fold_select_s": "s",
    "planner.dp_s.L3": "s",
    "planner.dp_s.L4": "s",
    "planner.dp_s.L5": "s",
    "bounds.selection_term_calls": "count",
    "bounds.selection_term_s": "s",
    "adaptive.net.loss_grads_calls": "count",
    "adaptive.net.loss_grads_s": "s",
    "adaptive.net.train_level_self_s": "s",
    "adaptive.net.probes": "count",
    "adaptive.net.probes_diverged": "count",
    "adaptive.niw.update_calls": "count",
    "adaptive.niw.update_s": "s",
    "model.niw_validate_calls": "count",
    "model.niw_validate_s": "s",
    "model.sample_niw_s": "s",
    "adaptive.training.forward_pass_s": "s",
    "adaptive.training.mc_value_final_s": "s",
    "adaptive.training.fit_other_s": "s",
    "adaptive.policy.f_plugin_calls": "count",
    "adaptive.policy.f_plugin_s": "s",
    "adaptive.policy.choose_action_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_esscreen():
    """Import ``esscreen`` from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "esscreen"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no esscreen package at {pkg}")
    sys.path.insert(0, str(SRC))
    import esscreen
    import esscreen.adaptive
    import esscreen.bounds
    import esscreen.model
    import esscreen.planner
    import esscreen.screener
    import esscreen.streams

    if Path(esscreen.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: esscreen imported from {esscreen.__file__}, not {pkg}")
    return esscreen


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version", "unknown")

    return {
        "load": "closed loop, 1 client, 1 request in flight",
        "blas_threads": THREADS,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
    }


class Checks:
    """Counts checked operations and records every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, r: int, failures_per_op: list[list[str]]) -> None:
        for bad in failures_per_op:
            self.attempted += 1
            if bad:
                self.failed += 1
                self.messages += [f"request {r}: {m}" for m in bad]

    def request(self, es, wl, inp, r: int, tracer=None):
        """``(result, wall seconds)`` of one request; the result is None if
        the request raised: a failed operation, reported with its traceback
        on stderr."""
        t0 = perf_counter()
        try:
            res = wl.request(es, inp, r, tracer)
        except Exception as exc:
            traceback.print_exc()
            self.add(r, [[f"raised {type(exc).__name__}"]])
            res = None
        return res, perf_counter() - t0

    def check(self, es, wl, inp, r: int, res) -> None:
        if res is not None:
            self.add(r, wl.check(es, inp, res))


class Setup:
    """Timed set-ups of one workload and seed; ``inputs`` is the last one."""

    def __init__(self, es, wl, seed: int):
        self.es, self.wl, self.seed = es, wl, seed
        self.samples: list[float] = []
        self.spent = 0.0
        for _ in range(SETUP_FIRST_BATCHES):
            self.batch()

    def batch(self) -> None:
        repeats, t0 = 0, perf_counter()
        while not repeats or perf_counter() - t0 < SETUP_BATCH_S:
            self.inputs = self.wl.setup(self.es, self.seed)
            repeats += 1
        elapsed = perf_counter() - t0
        self.samples.append(elapsed / repeats)
        self.spent += elapsed

    def keep_share(self, elapsed: float) -> None:
        """Run batches until set-ups took SETUP_SHARE of ``elapsed``."""
        while self.spent < SETUP_SHARE * elapsed:
            self.batch()


class Clock:
    """Request loop control: at least ``minimum`` rounds, then whole cycles
    of ``cycle`` rounds while one more cycle of median rounds still ends
    within ``seconds``."""

    def __init__(self, seconds: float, minimum: int, cycle: int = 1):
        self.seconds = seconds
        self.minimum = minimum
        self.cycle = cycle
        self.start = self._last = perf_counter()
        self.rounds: list[float] = []

    def more(self) -> bool:
        done = len(self.rounds)
        if done < self.minimum or done % self.cycle:
            return True
        left = self.seconds - (perf_counter() - self.start)
        return self.cycle * statistics.median(self.rounds) <= left

    def tick(self) -> None:
        now = perf_counter()
        self.rounds.append(now - self._last)
        self._last = now


def p90_if_supported(samples):
    """90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 10:
        return None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return p90 if sum(s > p90 for s in samples) >= 10 else None


def run_untraced(es, wl, seed: int, seconds: float) -> dict:
    clock = Clock(seconds, wl.quality_requests, wl.cycle)
    setup = Setup(es, wl, seed)
    inp = setup.inputs
    checks = Checks()
    kept, request, plan, screen = [], [], [], []
    r = 0
    while clock.more():
        res, wall = checks.request(es, wl, inp, r)
        checks.check(es, wl, inp, r, res)
        setup.keep_share(perf_counter() - clock.start)
        clock.tick()
        r += 1
        if res is not None:
            if len(kept) < wl.quality_requests:
                kept.append(res)
            request.append(wall)
            plan.append(res.plan_s)
            screen += res.screen_s
        # drop the result before the next request, so that a run's peak
        # memory does not depend on how many requests it made
        del res
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "request_s": statistics.median(request) if request else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "plan_bound_delta0": kept[0].bound / inp.delta0 if kept else float("nan"),
    }
    p90 = p90_if_supported(screen)
    detail = {
        "requests": r,
        "setup_samples": len(setup.samples),
        "request_samples": len(request),
        "plan_s": statistics.median(plan) if plan else None,
        "screen_ms": 1e3 * statistics.median(screen) if screen else None,
        "screen_samples": len(screen),
        "screen_ms_p90": None if p90 is None else 1e3 * p90,
        "failed_frac": checks.failed / max(checks.attempted, 1),
    }
    quality = wl.quality(es, inp, kept) if len(kept) == wl.quality_requests else {}
    return {"metrics": metrics, "detail": detail, "quality": quality, "checks": checks}


def run_traced(es, wl, seed: int, seconds: float, spans_mod) -> dict:
    """Per-layer metrics come from the first TRACE_PAIRS traced requests, so
    their counts repeat exactly for a seed; the overhead compares all pairs."""
    inp = wl.setup(es, seed)
    checks = Checks()
    tracer = spans_mod.Tracer()
    wraps, swaps = spans_mod.trace_targets(es, tracer)
    plain_s, traced_s = [], []
    clock = Clock(seconds, TRACE_PAIRS)
    r = 0
    while clock.more():
        pair = {}
        # alternate which copy goes first, so neither always runs warm
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            if traced:
                tracer.request = r
                with tracer.patched(wraps, swaps):
                    pair[traced] = checks.request(es, wl, inp, r, tracer)
            else:
                pair[traced] = checks.request(es, wl, inp, r)
            # checks run unpatched: their own planner calls are not spans
            checks.check(es, wl, inp, r, pair[traced][0])
        clock.tick()
        r += 1
        (plain, plain_wall), (traced, traced_wall) = pair[False], pair[True]
        if plain is None or traced is None:
            continue
        plain_s.append(plain_wall)
        traced_s.append(traced_wall)
        same = plain.fingerprint() == traced.fingerprint()
        checks.add(r - 1, [[] if same else ["traced outputs differ from untraced outputs"]])
    agree = spans_mod.pricings_agree(tracer.spans)
    checks.add(r, [[] if agree else ["span pricings differ from the screened schedules' cost"]])
    # requests run one after another, so the first ones' spans are a prefix
    # of the list, and parent indexes stay valid in it
    first = sum(1 for s in tracer.spans if s[4] < TRACE_PAIRS)
    metrics = spans_mod.layer_metrics(tracer.spans[:first], TRACE_PAIRS)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
        if plain_s else float("nan")
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans_{wl.name}_seed{seed}.json")
    detail = {
        "pairs": len(traced_s),
        "untraced_request_s": statistics.median(plain_s) if plain_s else None,
        "traced_request_s": statistics.median(traced_s) if traced_s else None,
        "spans": len(tracer.spans),
    }
    return {"metrics": metrics, "detail": detail, "quality": {}, "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(THREADS)
    es = load_esscreen()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        out = run_traced(es, wl, args.seed, args.seconds, spans)
        units = PER_LAYER
    else:
        out = run_untraced(es, wl, args.seed, args.seconds)
        units = END_TO_END
    checks = out["checks"]
    if set(out["metrics"]) != set(units):
        checks.add(-1, [["reported metrics differ from the declared ones"]])
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in out["metrics"].items()},
        "quality": out["quality"],
        "detail": out["detail"],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} " + " ".join(
        f"{k}={report[k]}" for k in ("load", "blas_threads", "numpy", "scipy",
                                      "openblas_numpy", "openblas_scipy")))
    for section in ("metrics", "quality", "detail"):
        for k, v in report[section].items():
            value, unit = (v["value"], v["unit"]) if section == "metrics" else (v, "")
            print(f"{section:8} {k:36} {value!s:>24} {unit}")
    for msg in checks.messages:
        print(f"FAILED   {msg}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
