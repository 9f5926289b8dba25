"""Offline training of the adaptive allocator.

Pipeline: draw a pool of randomized screening schedules and a set of worlds
from the prior, execute every (schedule, world) pair through the screening
engine while filtering the posterior with the online policy's own level
step (the forward pass, which keeps every posterior state it visits), then
fit the per-level value nets by one backward induction over the levels.
At each level every trajectory contributes one row, its state and its
schedule's action; the target is the Monte Carlo estimate of the terminal
error at the final level and, below it, the simulated one-step lookahead of
the next level's fitted value plus the selection-risk term.  The opening
move is tabulated with the same lookahead (the initial state is known).
A simulated level draws a world from the posterior predictive, samples its
batch statistics with the screening engine's exact sampler
(``screener._dense_stats``, the one a dense-model draw above one chunk
uses), world by world in the stream's order; all worlds then take one
``step`` + ``advance`` + net pass along a leading world axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import InvalidParameterError
from ..model import (
    NIWParams,
    ScenarioParams,
    inverse_wishart_factor,
    psd_factor,
    sample_niw,
)
from ..screener import GaussianSource, LevelStats, Strategy, _dense_stats, cost
from ..screener import run_screening, step
from ..streams import substream
from .net import TrainSchedule, learning_rate_search, net_forward, xavier_net
from .niw import niw_update_diag_stats
from .policy import (
    AdaptiveConfig,
    PolicyBundle,
    PosteriorState,
    action_values,
    advance,
    f_plugin,
    features,
    scan_actions,
)

__all__ = [
    "Trajectory",
    "generate_strategies",
    "forward_pass",
    "f_precompute",
    "mc_value_final",
    "TrainingReport",
    "fit_value_functions",
]

# substream slots under the adaptive training seed
_STREAM_STRATEGIES = 0
_STREAM_BOOKS = 1
_STREAM_PATHS = 2
_STREAM_TARGETS = 3
_STREAM_OPENING = 4
_STREAM_NETS = 5

#: Consecutive rejected schedule draws after which the strategy pool gives up.
MAX_REJECTS = 10_000

def generate_strategies(
    k_bar: int, cfg: AdaptiveConfig, rng: np.random.Generator
) -> list[Strategy]:
    """Randomized schedule pool used as training data.

    Per schedule: L+1 sorted uniforms cut a circle of circumference equal to
    the budget into per-level allowances, the last level getting the wrapped
    (double) arc so it holds twice a middle arc's budget on average;
    thresholds follow a random strictly decreasing walk on the grid between
    the forced endpoints; path increments are the allowance divided by the
    number of scenarios priced.  Schedules with any zero increment are
    rejected and redrawn (path counts must strictly increase), at most
    ``MAX_REJECTS`` times in a row.
    """
    grid = cfg.q_grid
    levels = cfg.levels
    out = []
    rejects = 0
    while len(out) < k_bar:
        u = np.sort(rng.uniform(size=levels + 1))
        arcs = np.empty(levels)
        arcs[: levels - 1] = np.diff(u)[: levels - 1]
        arcs[levels - 1] = u[0] + 1.0 - u[levels - 1]
        allowance = cfg.budget * arcs
        idx = np.empty(levels, dtype=np.intp)
        idx[0] = len(grid) - 1
        idx[levels - 1] = 0
        for lvl in range(1, levels - 1):
            idx[lvl] = rng.integers(levels - 1 - lvl, idx[lvl - 1])
        q = tuple(int(grid[i]) for i in idx)
        dn = [int(allowance[lvl] // q[lvl]) for lvl in range(levels)]
        if min(dn) < 1:
            rejects += 1
            if rejects > MAX_REJECTS:
                raise InvalidParameterError(
                    f"{MAX_REJECTS} consecutive rejections: the budget cannot "
                    "fund one path per level on this grid"
                )
            continue
        rejects = 0
        n = (0, *np.cumsum(dn).tolist())
        out.append(Strategy(q=q, n=n))
    return out


@dataclass
class Trajectory:
    """One executed (schedule, world) pair, as the engine saw it.

    ``strategy`` is the ``k``-th pooled schedule and ``j`` the world's index;
    ``levels`` are the per-level statistics that :func:`run_screening`
    returned, and ``states[l - 1]`` is the decision state that
    :func:`advance` produced after level ``l``.  The backward fit reads one
    training row per level from it: ``states[l - 1]`` with the schedule's
    action ``strategy.actions[l]``.
    """

    k: int
    j: int
    strategy: Strategy
    levels: list[LevelStats]
    states: list[PosteriorState]


def forward_pass(
    strategies: list[Strategy],
    books: list[ScenarioParams],
    cfg: AdaptiveConfig,
) -> list[Trajectory]:
    """Execute every schedule on every world, filtering the posterior.

    Price generation goes through the screening engine (chunked, survivor
    columns only), and each level's batch statistics update the posterior
    through the same :func:`advance` the online policy uses, so training
    sees exactly the states the policy will see.  Trajectories come
    schedule-major: ``(k, j)`` in the order of ``strategies``, then ``books``.
    """
    trajectories = []
    for k, strat in enumerate(strategies):
        for j, theta in enumerate(books):
            rng = substream(cfg.seed, _STREAM_PATHS, k, j)
            run = run_screening(strat, GaussianSource(theta, rng))
            state = PosteriorState.opening(cfg.prior)
            states = []
            for stats in run.levels:
                state = advance(state, stats)
                states.append(state)
            trajectories.append(Trajectory(k, j, strat, run.levels, states))
    return trajectories


def f_precompute(traj: Trajectory, level: int, cfg: AdaptiveConfig) -> float:
    """Plug-in estimate of the selection-risk term of one executed level.

    Values and pair variances come from the unrestricted posterior right
    after the level's batch (the previous state, ``cfg.prior`` at the
    opening, updated over every entered scenario); the pairing permutation
    comes from the previous step's empirical ranking (ties to the smaller
    index, so the opening level is ranked in book order).
    """
    if not (1 <= level <= len(traj.levels) - 1):
        raise InvalidParameterError(
            f"level must be a selection level in [1, L-1], got {level}"
        )
    stats = traj.levels[level - 1]
    if stats.kept.size == stats.entered.size:
        return 0.0  # no selection happens at a dq = 0 level
    if level >= 2:
        prev = traj.states[level - 2]
    else:
        prev = PosteriorState.opening(cfg.prior)
    half = niw_update_diag_stats(
        prev.niw, stats.batch_mean, stats.scatter, stats.dn, stats.entered
    )
    dq = stats.entered.size - stats.kept.size
    return f_plugin(replace(prev, niw=half), dq, stats.dn, cfg.n_w, cfg.sub)


def _inverse_wishart_blocks(niw: NIWParams, n_e: int, n_p: int, rng):
    """``(phi, take)`` per block of ``take <= n_p`` of ``n_e`` posterior
    draws: one inverse-Wishart factor of the covariance (``niw.s`` factored
    once).  Nothing is drawn ahead, so a consumer's draws keep their place."""
    ls = psd_factor(niw.s)
    for done in range(0, n_e, n_p):
        yield inverse_wishart_factor(niw.i, ls, rng), min(n_p, n_e - done)


def mc_value_final(
    traj: Trajectory,
    n_e: int,
    n_p: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of the terminal error under the final posterior.

    Averages |mean of (final estimates - a posterior draw of the impacts)|
    over ``n_e`` draws, reusing each inverse-Wishart draw for ``n_p``
    Gaussian location draws.
    """
    final = traj.states[-1]
    niw = final.niw
    total = 0.0
    mean_hat = float(np.mean(final.mu_hat))
    for phi, take in _inverse_wishart_blocks(niw, n_e, n_p, rng):
        z = rng.standard_normal((take, niw.dim))
        mu_tilde = niw.m + (z @ phi) / math.sqrt(niw.k)
        total += float(np.sum(np.abs(mean_hat - mu_tilde.mean(axis=1))))
    return total / n_e


@dataclass
class TrainingReport:
    """Diagnostics from one fit: per-net learning-rate winners and losses,
    the target's (mean, std, rows) per net, and the pool-edge ``fallbacks``."""

    rates: dict
    final_losses: dict
    target_stats: dict
    fallbacks: int


def _value_of_states(bundle_nets, specs, state, sub) -> tuple[np.ndarray, int]:
    """Per world, the min over admissible actions of the next-level net (a
    state at ``level`` scans ``specs[level + 1]``), and the fallback count:
    the worlds scored at the cheapest legal continuation."""
    spec = specs[state.level + 1]
    acts, preds = action_values(bundle_nets, spec, state, sub)
    if not acts:
        # pool-edge state without cap room: score the cheapest legal
        # continuation so the target stays defined (it is never executed)
        dq_fb = state.q - spec.n_w if state.level + 1 == spec.levels - 1 else 0
        rows = features(state, [(dq_fb, spec.dn_quantum)], spec.n_w, sub)
        preds = net_forward(bundle_nets[(state.level, state.q)], rows)
    values = preds.min(axis=-1)
    return values, 0 if acts else values.size


def _predictive_draws(niw: NIWParams, n_e: int, n_p: int, rng: np.random.Generator):
    """Lazy posterior-predictive draws ``(mu_tilde, factor)``.

    Each block of ``n_p`` draws shares one inverse-Wishart factor ``phi`` of
    the covariance (:func:`_inverse_wishart_blocks`); per draw,
    ``mu_tilde`` is the drawn impacts and ``factor`` is ``phi^T``, a square
    factor of the drawn covariance.  Like the blocks, the generator draws
    nothing ahead.
    """
    d = niw.dim
    for phi, take in _inverse_wishart_blocks(niw, n_e, n_p, rng):
        for _ in range(take):
            yield niw.m + (phi.T @ rng.standard_normal(d)) / math.sqrt(niw.k), phi.T


def _lookahead(state, action, draws, rng, nets, specs, sub, report) -> float:
    """Mean fitted value of the decision state after ``action`` at ``state``,
    one simulated level per predictive draw (a lazy generator's draws
    interleave with this function's own ``rng`` use).

    Each world's batch ``(sum, scatter)`` of ``dN`` paths comes from the
    engine's exact sampler :func:`_dense_stats` (cross-column law kept),
    world by world in the stream's order; then one :func:`step`,
    :func:`advance` and :func:`_value_of_states` take all worlds along a
    leading axis, each keeping its bits.  Fallbacks count into ``report``.
    """
    dq, dn = action
    stats = [_dense_stats(mu_tilde, phi_t, dn, rng) for mu_tilde, phi_t in draws]
    batch_sum, scatter = map(np.array, zip(*stats, strict=True))
    stats = step(state.ids, state.sums, state.n_cum, batch_sum, scatter, dn, state.q - dq)
    values, fallbacks = _value_of_states(nets, specs, advance(state, stats), sub)
    report.fallbacks += fallbacks
    return float(np.mean(values))


def fit_value_functions(cfg: AdaptiveConfig) -> tuple[PolicyBundle, TrainingReport]:
    """Backward induction over the per-level value nets, then the opening
    move.

    One loop over ``level = L-1 ... 1``: each trajectory contributes the row
    of its state after ``level`` levels under its schedule's next action,
    with target :func:`mc_value_final` at the final level (one shared
    stream, in trajectory order) and, below it, the lookahead of the nets
    already fitted plus :func:`f_precompute` of the next level.  The rows of
    one level are grouped by window and each group fits one net.
    """
    strategies = generate_strategies(
        cfg.k_bar, cfg, substream(cfg.seed, _STREAM_STRATEGIES)
    )
    books = [
        sample_niw(cfg.prior, substream(cfg.seed, _STREAM_BOOKS, j))
        for j in range(cfg.j_bar)
    ]
    trajectories = forward_pass(strategies, books, cfg)
    spec = cfg.action_spec()
    levels = cfg.levels
    # a scan spends no more through level lvl than any pooled schedule does
    specs = {}
    for lvl in range(1, levels + 1):
        cap = max(cost(Strategy(s.q[:lvl], s.n[: lvl + 1])) for s in strategies)
        specs[lvl] = replace(spec, budget=min(spec.budget, cap))

    nets: dict[tuple[int, int], object] = {}
    report = TrainingReport(rates={}, final_losses={}, target_stats={}, fallbacks=0)
    rng_final = substream(cfg.seed, _STREAM_TARGETS, levels)
    for level in range(levels - 1, 0, -1):
        groups: dict[int, list] = {}
        for traj in trajectories:
            state = traj.states[level - 1]
            action = traj.strategy.actions[level]
            if level == levels - 1:
                target = mc_value_final(traj, cfg.n_e_final, cfg.n_p_final, rng_final)
            else:
                rng = substream(cfg.seed, _STREAM_TARGETS, level, traj.k, traj.j)
                draws = _predictive_draws(state.niw, cfg.n_e_mid, cfg.n_p_mid, rng)
                target = _lookahead(
                    state, action, draws, rng, nets, specs, cfg.sub, report
                ) + f_precompute(traj, level + 1, cfg)
            row = features(state, [action], cfg.n_w, cfg.sub)[0]
            groups.setdefault(state.q, []).append((row, target, traj.k, traj.j))
        for q, samples in groups.items():
            _fit_net(nets, report, cfg, level, q, samples)

    opening = _tabulate_opening(cfg, specs, nets, report)
    best = min(opening, key=lambda t: (t[2], t[0], t[1]))
    bundle = PolicyBundle(cfg, nets, (best[0], best[1]), opening)
    return bundle, report


def _fit_net(nets, report, cfg, level, q, samples):
    """Train the value net of window ``q`` at ``level`` on ``samples``, its
    ``(row, target, k, j)`` tuples, on standardized data, then fold the
    standardization into the stored net's affine parameters.

    Each feature column is centered and scaled by its own training moments
    (and the target likewise), so gradient descent sees O(1) quantities at
    any problem scale.  A column is constant only when its standard
    deviation is at most 1e-12 of its largest magnitude; it reaches the net
    as exactly 0 and its folded weights are 0.  The input map folds into
    the first layer, w1 / col_s and b1 - w1 @ (col_c / col_s), and, since
    the output layer is linear, the target map into (w2, b2), so the stored
    net consumes raw feature rows.
    """
    rows, y, k_of, j_of = (np.array(col) for col in zip(*samples))
    col_c = rows.mean(axis=0)
    col_s = rows.std(axis=0)
    col_s[col_s <= 1e-12 * np.max(np.abs(rows), axis=0)] = np.inf
    xt = (rows - col_c) / col_s
    y_c = float(np.mean(y))
    y_s = float(np.std(y))
    if y_s < 1e-12:
        y_s = 1.0
    yt = (y - y_c) / y_s
    sched = TrainSchedule(
        n_iter=cfg.n_iter,
        rate=cfg.base_rate,
        seed=int(
            substream(cfg.seed, _STREAM_NETS, level, q).integers(0, 2**31 - 1)
        ),
    )

    def make(rng):
        return xavier_net(rows.shape[1], rng, meta={"level": level, "q": q})

    net, rate, losses = learning_rate_search(
        xt,
        yt,
        make,
        sched,
        candidates=cfg.lr_candidates,
        probe_steps=cfg.probe_steps,
        k_of=k_of,
        j_of=j_of,
    )
    folded = replace(
        net,
        w1=net.w1 / col_s,
        b1=net.b1 - net.w1 @ (col_c / col_s),
        w2=net.w2 * y_s,
        b2=net.b2 * y_s + y_c,
    )
    # record the trained increment support; the argmin scans stay inside it
    folded.meta.update(
        dn_lo=float(np.min(rows[:, 1])), dn_hi=float(np.max(rows[:, 1]))
    )
    nets[(level, q)] = folded
    report.rates[(level, q)] = rate
    report.final_losses[(level, q)] = float(losses[-1])
    report.target_stats[(level, q)] = (y_c, y_s, int(y.size))


def _tabulate_opening(cfg, specs, nets, report):
    """Expected value of each admissible opening action from the known
    initial state (scanned on ``specs[1]``): the :func:`_lookahead` over one
    shared list of world draws, plus the action's selection-bound feature."""
    state0 = PosteriorState.opening(cfg.prior)
    acts = scan_actions(nets, specs[1], state0)
    if not acts:
        raise InvalidParameterError(
            "no admissible opening action is covered by the trained windows"
        )
    rng = substream(cfg.seed, _STREAM_OPENING)
    draws = list(_predictive_draws(cfg.prior, cfg.n_e_open, cfg.n_p_mid, rng))
    # the selection-bound column: one f_plugin pass per distinct dq
    f0 = features(state0, acts, cfg.n_w, cfg.sub)[:, -1].tolist()
    table = []
    for (dq, dn), f in zip(acts, f0, strict=True):
        value = _lookahead(state0, (dq, dn), draws, rng, nets, specs, cfg.sub, report)
        table.append((int(dq), int(dn), value + f))
    return table
