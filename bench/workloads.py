"""Workloads of the esscreen benchmark.

Each workload has a ``setup`` that builds its inputs from the workload seed,
a ``request`` that drives esscreen through its public API on those inputs,
and output checks.  ``es`` is the imported ``esscreen`` package: the
benchmark imports it from the checkout being measured, so nothing here
imports it at module level.

paper-equi / paper-general
    The paper book (n_s=253, n_w=6, per-rank gap 2766) at budget 1e7 on the
    paper planning grid.  One request plans with ``dp_optimize`` at L=3, 4
    and 5 and screens the lowest-bound plan with a fresh path substream.
    paper-equi uses the one-factor equicorrelated covariance (sigma=2.2e6,
    rho=0.6); paper-general one inverse-Wishart draw around it, so draws go
    through the dense covariance factor.

adaptive-toy
    The tests' toy problem (n_s=12, n_w=2, L=3, budget 4000) with k_bar=16,
    j_bar=6, n_iter=1500.  One request fits the value nets once, runs the
    policy on a fixed set of worlds drawn from the prior, and screens the
    same worlds, under the same path substreams, with a DP-planned static
    schedule at the same budget and level count.  Request ``r`` trains with
    config seed ``r % TOY_CONFIGS`` and runs end after whole cycles of
    TOY_CONFIGS requests; the workload seed picks the worlds and their path
    substreams.  Fit cost and policy latency depend on the trained policy
    (3.0 to 5.3 s per fit and 1.2 to 2.6 ms per run across config seeds
    0-11), so every run samples the same policies in the same proportions.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from spans import TimedSource

# substream slots under the workload seed
_STREAM_COV = 0
_STREAM_PATHS = 1
_STREAM_WORLDS = 2

PAPER_N_S, PAPER_N_W, PAPER_DELTA0 = 253, 6, 2766.0
PAPER_SIGMA, PAPER_RHO = 2.2e6, 0.6
PAPER_BUDGET = 10**7
PAPER_LEVELS = (3, 4, 5)
PAPER_Q_GRID = (6, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 150, 200, 253)
PAPER_N_GRID = (
    1000, 2000, 4000, 6000, 10_000, 17_000, 25_000, 40_000, 60_000,
    100_000, 150_000, 250_000, 400_000, 700_000, 1_000_000, 1_500_000,
)
#: Degrees of freedom above d+1 of the inverse-Wishart draw that gives
#: paper-general its covariance (mean: the equicorrelated matrix).
GENERAL_COV_DOF = 2000

TOY_N_S, TOY_N_W, TOY_DELTA0 = 12, 2, 5.0
TOY_WORLDS = 200
#: Training configs the adaptive-toy requests cycle through.
TOY_CONFIGS = 3
#: Points of the static planner's path-count grid on adaptive-toy.
TOY_N_GRID_POINTS = 40


def _span(tracer, name, pricings=0):
    return tracer.span(name, pricings=pricings) if tracer is not None else nullcontext()


def _source(es, theta, rng, tracer):
    src = es.screener.GaussianSource(theta, rng)
    return TimedSource(src, tracer) if tracer is not None else src


# --- output checks ---------------------------------------------------------


def check_survivors(survivors, n_w) -> list[str]:
    """Survivor sets are ascending, nested and end at ``n_w`` scenarios."""
    bad = []
    for lvl, ids in enumerate(survivors):
        ids = np.asarray(ids)
        if ids.size and np.any(np.diff(ids) <= 0):
            bad.append(f"survivors[{lvl}] not strictly ascending")
        if lvl and not np.all(np.isin(ids, survivors[lvl - 1])):
            bad.append(f"survivors[{lvl}] not a subset of survivors[{lvl - 1}]")
    if len(survivors[-1]) != n_w:
        bad.append(f"final survivor count {len(survivors[-1])} != n_w {n_w}")
    return bad


def check_screening(es, run, strategy, budget, n_w) -> list[str]:
    bad = []
    c = es.screener.cost(strategy)
    if run.pricings != c:
        bad.append(f"run.pricings {run.pricings} != cost(plan) {c}")
    if c > budget:
        bad.append(f"cost(plan) {c} > budget {budget}")
    if not math.isfinite(run.es_hat):
        bad.append(f"es_hat {run.es_hat} not finite")
    return bad + check_survivors(run.survivors, n_w)


def check_plan(es, strategy, bound, target, sub, grid) -> list[str]:
    ref = es.planner.strategy_bound(strategy, target, sub, grid)
    bad = [] if bound == ref else [f"DP bound {bound!r} != strategy_bound {ref!r}"]
    if es.screener.cost(strategy) > grid.budget:
        bad.append(f"L={grid.levels} plan over budget")
    return bad


def check_adaptive(es, bundle, res) -> list[str]:
    """Every action is admissible where it was taken; cost within budget."""
    bad = []
    spec = bundle.action_spec()
    q_now, spent = bundle.n_s, 0
    for level, (dq, dn) in enumerate(res.actions):
        if not spec.is_admissible(level, q_now, spent, dq, dn):
            bad.append(f"action {(dq, dn)} at level {level} not admissible")
        spent += q_now * dn
        q_now -= dq
    c = es.screener.cost(res.strategy)
    if not (res.pricings == spent == c):
        bad.append(f"pricings {res.pricings}, replayed {spent}, cost {c} disagree")
    if res.pricings > bundle.budget:
        bad.append(f"adaptive cost {res.pricings} > budget {bundle.budget}")
    if not math.isfinite(res.es_hat):
        bad.append(f"es_hat {res.es_hat} not finite")
    return bad + check_survivors(res.survivors, bundle.n_w)


# --- paper workloads ---------------------------------------------------------


@dataclass
class PaperInputs:
    seed: int
    mu: np.ndarray
    sigma: np.ndarray
    equi: object  # EquicorrelatedSpec or None
    grids: list
    sub: object
    exact: float
    delta0: float = PAPER_DELTA0
    n_w: int = PAPER_N_W


def paper_setup(es, seed: int, general: bool) -> PaperInputs:
    m = es.model
    mu = m.synthetic_book(PAPER_N_S, PAPER_DELTA0)
    spec = m.EquicorrelatedSpec(PAPER_SIGMA, PAPER_RHO)
    sigma = m.build_equicorrelated(spec, PAPER_N_S)
    if general:
        prior = m.NIWParams(
            m=mu,
            k=1.0,
            i=PAPER_N_S + 1 + GENERAL_COV_DOF,
            s=GENERAL_COV_DOF * sigma,
            index_map=np.arange(PAPER_N_S),
        )
        draw = m.sample_niw(prior, es.streams.substream(seed, _STREAM_COV))
        sigma, spec = draw.sigma, None
    grids = [
        es.planner.PlanningGrid(
            q_grid=PAPER_Q_GRID, n_grid=PAPER_N_GRID, budget=PAPER_BUDGET, levels=lv
        )
        for lv in PAPER_LEVELS
    ]
    theta = m.ScenarioParams(mu=mu, sigma=sigma, equi=spec)
    return PaperInputs(
        seed=seed,
        mu=mu,
        sigma=sigma,
        equi=spec,
        grids=grids,
        sub=es.bounds.SubGammaParams(c=0.0, p=1.0),
        exact=es.screener.exact_es(theta, PAPER_N_W),
    )


@dataclass
class PaperResult:
    plans: list  # (Strategy, bound) per level count
    strategy: object
    bound: float
    run: object
    theta: object
    plan_s: float
    screen_s: list  # one sample: the run_screening call

    def fingerprint(self):
        """Plans, estimate and survivors: equal across traced and untraced runs."""
        return (
            [(s.q, s.n, b) for s, b in self.plans],
            self.run.es_hat,
            [tuple(ids.tolist()) for ids in self.run.survivors],
        )


def paper_request(es, inp: PaperInputs, r: int, tracer=None) -> PaperResult:
    """Book to ES estimate: plan at L=3/4/5, screen the lowest-bound plan."""
    t0 = perf_counter()
    theta = es.model.ScenarioParams(mu=inp.mu, sigma=inp.sigma, equi=inp.equi)
    plans = []
    for grid in inp.grids:
        with _span(tracer, f"planner.dp_optimize.L{grid.levels}"):
            plans.append(es.planner.dp_optimize(grid, theta, inp.sub))
    strategy, bound = min(plans, key=lambda p: p[1])
    t1 = perf_counter()
    source = _source(es, theta, es.streams.substream(inp.seed, _STREAM_PATHS, r), tracer)
    with _span(tracer, "screener.run_screening", es.screener.cost(strategy)):
        run = es.screener.run_screening(strategy, source)
    t2 = perf_counter()
    return PaperResult(plans, strategy, bound, run, theta, t1 - t0, [t2 - t1])


def paper_check(es, inp: PaperInputs, res: PaperResult) -> list[list[str]]:
    """Failures of the request's one checked operation."""
    bad = []
    for grid, (strategy, bound) in zip(inp.grids, res.plans):
        bad += check_plan(es, strategy, bound, res.theta, inp.sub, grid)
    return [bad + check_screening(es, res.run, res.strategy, PAPER_BUDGET, inp.n_w)]


def paper_quality(es, inp: PaperInputs, results: list) -> dict:
    """Mean error (in units of the per-rank gap) and correct-selection rate
    over the given requests."""
    err = [abs(r.run.es_hat - inp.exact) / inp.delta0 for r in results]
    hit = [es.screener.correct_selection(r.run, r.theta, inp.n_w) for r in results]
    return {
        "es_abs_err": float(np.mean(err)),
        "correct_selection_rate": float(np.mean(hit)),
    }


# --- adaptive toy ----------------------------------------------------------


def toy_prior(es):
    """The tests' toy prior: linear book with gap 5, equicorrelated scale
    (sigma 8, rho 0.4), confidence 40."""
    m = es.model
    conf = 40.0
    cov = m.build_equicorrelated(m.EquicorrelatedSpec(8.0, 0.4), TOY_N_S)
    return m.NIWParams(
        m=m.synthetic_book(TOY_N_S, TOY_DELTA0),
        k=conf,
        i=conf,
        s=(conf - TOY_N_S - 1) * cov,
        index_map=np.arange(TOY_N_S),
    )


@dataclass
class ToyInputs:
    seed: int
    cfg: object  # request r replaces its seed: see toy_request
    worlds: list
    exact: list
    grid: object
    target: object
    delta0: float = TOY_DELTA0
    n_w: int = TOY_N_W


def toy_setup(es, seed: int) -> ToyInputs:
    sub = es.bounds.SubGammaParams(c=0.0, p=1.0)
    prior = toy_prior(es)
    cfg = es.adaptive.AdaptiveConfig(
        n_s=TOY_N_S,
        n_w=TOY_N_W,
        levels=3,
        budget=4000,
        q_grid=(2, 4, 6, 8, 12),
        prior=prior,
        sub=sub,
        k_bar=16,
        j_bar=6,
        n_iter=1500,
        probe_steps=200,
        lr_candidates=4,
        base_rate=1.0,
        n_e_final=400,
        n_p_final=100,
        n_e_mid=24,
        n_p_mid=8,
        n_e_open=16,
        max_scan=8,
    )
    worlds = [
        es.model.sample_niw(prior, es.streams.substream(seed, _STREAM_WORLDS, w))
        for w in range(TOY_WORLDS)
    ]
    quantum = cfg.quantum()
    top = cfg.budget // cfg.n_w // quantum
    n_grid = np.unique(np.rint(np.geomspace(1, top, TOY_N_GRID_POINTS)).astype(int))
    grid = es.planner.PlanningGrid(
        q_grid=cfg.q_grid,
        n_grid=tuple(int(j) * quantum for j in n_grid),
        budget=cfg.budget,
        levels=cfg.levels,
    )
    target = es.model.ScenarioParams(mu=prior.m, sigma=prior.sigma_mean())
    return ToyInputs(
        seed=seed,
        cfg=cfg,
        worlds=worlds,
        exact=[es.screener.exact_es(th, TOY_N_W) for th in worlds],
        grid=grid,
        target=target,
    )


@dataclass
class ToyResult:
    bundle: object
    static: object  # Strategy
    bound: float  # the static plan's DP bound
    policy_runs: list
    static_runs: list
    plan_s: float  # the fit
    screen_s: list  # one sample per run_adaptive call

    def fingerprint(self):
        """Opening move, every chosen action and estimate, and the static plan."""
        return (
            tuple(self.bundle.first_action),
            [tuple(a) for a in self.bundle.first_action_table],
            [(tuple(map(tuple, r.actions)), r.es_hat) for r in self.policy_runs],
            (self.static.q, self.static.n, self.bound),
            [r.es_hat for r in self.static_runs],
        )


def toy_request(es, inp: ToyInputs, r: int, tracer=None) -> ToyResult:
    """Fit the policy, run it on every world, screen the worlds statically.

    The fit uses config seed ``r % TOY_CONFIGS``.  Every world keeps its own
    path substream, shared by the policy run and the static run, and the
    same in every request.
    """
    ad = es.adaptive
    cfg = replace(inp.cfg, seed=r % TOY_CONFIGS)
    t0 = perf_counter()
    with _span(tracer, "adaptive.training.fit_value_functions"):
        bundle, _ = ad.fit_value_functions(cfg)
    fit_s = perf_counter() - t0
    with _span(tracer, f"planner.dp_optimize.L{inp.grid.levels}"):
        static, static_bound = es.planner.dp_optimize(inp.grid, inp.target, cfg.sub)
    policy_runs, policy_s, static_runs = [], [], []
    for w, theta in enumerate(inp.worlds):
        rng = es.streams.substream(inp.seed, _STREAM_PATHS, w)
        source = _source(es, theta, rng, tracer)
        t0 = perf_counter()
        with _span(tracer, "adaptive.policy.run_adaptive"):
            policy_runs.append(ad.run_adaptive(bundle, source))
        policy_s.append(perf_counter() - t0)
        rng = es.streams.substream(inp.seed, _STREAM_PATHS, w)
        with _span(tracer, "screener.run_screening", es.screener.cost(static)):
            static_runs.append(
                es.screener.run_screening(static, _source(es, theta, rng, tracer))
            )
    return ToyResult(
        bundle, static, static_bound, policy_runs, static_runs, fit_s, policy_s
    )


def toy_check(es, inp: ToyInputs, res: ToyResult) -> list[list[str]]:
    """Failures per checked operation: the fit with its static plan, then one
    entry per world (policy run and static run together)."""
    out = [check_plan(es, res.static, res.bound, inp.target, inp.cfg.sub, inp.grid)]
    for pol, stat in zip(res.policy_runs, res.static_runs):
        out.append(
            check_adaptive(es, res.bundle, pol)
            + check_screening(es, stat, res.static, inp.cfg.budget, inp.n_w)
        )
    return out


def toy_quality(es, inp: ToyInputs, results: list) -> dict:
    """Policy and static-schedule quality over every world of the given
    requests, each request with its own trained policy."""
    truth = [set(es.screener.worst_indexes(th.mu, inp.n_w).tolist()) for th in inp.worlds]

    def stats(runs_per_request):
        err, hit = [], []
        for runs in runs_per_request:
            err += [abs(r.es_hat - ex) / inp.delta0 for r, ex in zip(runs, inp.exact)]
            hit += [set(r.final_survivors.tolist()) == t for r, t in zip(runs, truth)]
        return float(np.mean(err)), float(np.mean(hit))

    pol_err, pol_hit = stats([res.policy_runs for res in results])
    st_err, st_hit = stats([res.static_runs for res in results])
    return {
        "es_abs_err": pol_err,
        "correct_selection_rate": pol_hit,
        "static_es_abs_err": st_err,
        "static_correct_selection_rate": st_hit,
        "policy_err_ratio": pol_err / st_err,
    }


# --- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``quality_requests`` is both the minimum number of requests per run
    and the number the quality figures average over, so those figures
    depend on the seed only, never on run length or machine speed.  A run
    ends only after a whole number of ``cycle`` requests."""

    name: str
    setup: object  # (es, seed) -> inputs
    request: object  # (es, inputs, r, tracer=None) -> result
    check: object  # (es, inputs, result) -> failures per checked operation
    quality: object  # (es, inputs, results) -> dict
    quality_requests: int
    cycle: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-equi",
            lambda es, seed: paper_setup(es, seed, general=False),
            paper_request,
            paper_check,
            paper_quality,
            quality_requests=8,
        ),
        Workload(
            "paper-general",
            lambda es, seed: paper_setup(es, seed, general=True),
            paper_request,
            paper_check,
            paper_quality,
            quality_requests=3,
        ),
        Workload(
            "adaptive-toy",
            toy_setup,
            toy_request,
            toy_check,
            toy_quality,
            quality_requests=TOY_CONFIGS,
            cycle=TOY_CONFIGS,
        ),
    )
}
