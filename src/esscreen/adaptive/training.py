"""Offline training of the adaptive allocator.

Pipeline: draw a pool of randomized screening schedules and a set of worlds
from the prior, execute every (schedule, world) pair while filtering the
posterior (the forward pass), then fit the per-level value nets backward:
the final-level net regresses the Monte Carlo estimate of the terminal
error, earlier nets regress the simulated one-step lookahead of the next
level's fitted value plus the selection-risk term, and the opening move is
tabulated directly (the initial state is known).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from ..bounds import AdaptiveState, SubGammaParams, f_p_ad
from ..errors import ConfigError, InvalidParameterError
from ..model import (
    NIWParams,
    ScenarioParams,
    correlation,
    inverse_wishart_factor,
    psd_factor,
    sample_niw,
)
from ..screener import GaussianSource, Strategy, run_screening, step
from ..streams import substream
from .net import TrainSchedule, learning_rate_search, net_forward, xavier_net
from .niw import niw_update_diag_stats
from .policy import (
    ActionSpec,
    FeatureLayout,
    PolicyBundle,
    PosteriorState,
    advance,
    assemble_rows,
    f_plugin,
    open_artifact,
    save_artifact,
    state_block,
    trained_windows,
)

__all__ = [
    "AdaptiveConfig",
    "LevelRecord",
    "Trajectory",
    "TrajectorySet",
    "generate_strategies",
    "forward_pass",
    "f_precompute",
    "mc_value_final",
    "fit_value_functions",
]

# substream slots under the adaptive training seed
_STREAM_STRATEGIES = 0
_STREAM_BOOKS = 1
_STREAM_PATHS = 2
_STREAM_TARGETS = 3
_STREAM_OPENING = 4
_STREAM_NETS = 5


@dataclass(frozen=True)
class AdaptiveConfig:
    """Scale and schedule knobs of one training run.

    The defaults suit a desk-sized book; paper-scale runs take hours.
    """

    n_s: int
    n_w: int
    levels: int
    budget: int
    q_grid: tuple[int, ...]
    prior: NIWParams
    sub: SubGammaParams = SubGammaParams(c=0.0, p=1.0)
    k_bar: int = 40
    j_bar: int = 10
    n_iter: int = 20_000
    probe_steps: int = 2_000
    lr_candidates: int = 5
    base_rate: float = 1.0  # on standardized data; probes walk down by 10x
    base_rates: dict = field(default_factory=dict)  # (level, q) -> rate override
    r: float = 2.0
    j_batch: int = 4
    k_batch: int = 4
    batch_change: int = 1000
    n_e_final: int = 10_000
    n_p_final: int = 1_000
    n_e_mid: int = 128
    n_p_mid: int = 16
    n_e_open: int = 64
    dn_quantum: int = 0  # 0 -> budget // (100 n_s)
    max_scan: int = 24
    seed: int = 0

    def quantum(self) -> int:
        if self.dn_quantum > 0:
            return self.dn_quantum
        return max(1, self.budget // (100 * self.n_s))

    def action_spec(self) -> ActionSpec:
        return ActionSpec(
            q_grid=self.q_grid,
            n_w=self.n_w,
            levels=self.levels,
            budget=self.budget,
            dn_quantum=self.quantum(),
            max_scan=self.max_scan,
        )

    def rate_for(self, level: int, q: int) -> float:
        return self.base_rates.get((level, q), self.base_rate)


def generate_strategies(
    k_bar: int,
    cfg: AdaptiveConfig,
    rng: np.random.Generator,
    max_rejects: int = 10_000,
) -> list[Strategy]:
    """Randomized schedule pool used as training data.

    Per schedule: L+1 sorted uniforms cut a circle of circumference equal to
    the budget into per-level allowances, the last level getting the wrapped
    (double) arc so it holds twice a middle arc's budget on average;
    thresholds follow a random strictly decreasing walk on the grid between
    the forced endpoints; path increments are the allowance divided by the
    number of scenarios priced.  Schedules with any zero increment are
    rejected and redrawn (path counts must strictly increase).
    """
    grid = cfg.q_grid
    levels = cfg.levels
    if len(grid) < levels:
        raise InvalidParameterError(
            f"grid has {len(grid)} values; need at least L={levels}"
        )
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
            if rejects > max_rejects:
                raise InvalidParameterError(
                    f"{max_rejects} consecutive rejections: the budget cannot "
                    "fund one path per level on this grid"
                )
            continue
        rejects = 0
        n = (0, *np.cumsum(dn).tolist())
        out.append(Strategy(q=q, n=n))
    return out


@dataclass
class LevelRecord:
    """Per-level trajectory snapshot.

    Posterior scale matrices are stored as diagonals; the full matrix is the
    prior's correlation pattern stretched to the current diagonal (the
    diagonal update preserves correlations exactly).  The ``half_*`` fields
    are the unrestricted (pre-selection) update used by the selection-risk
    plug-in.
    """

    level: int
    entered: np.ndarray
    kept: np.ndarray
    mu_hat_entered: np.ndarray
    mu_hat_kept: np.ndarray
    m: np.ndarray
    kappa: float
    dof: float
    s_diag: np.ndarray
    half_m: np.ndarray
    half_s_diag: np.ndarray
    half_dof: float
    n_cum: int
    delta_n: int
    c_run: int


@dataclass
class Trajectory:
    k: int
    j: int
    records: list[LevelRecord]


@dataclass
class TrajectorySet:
    """Forward-pass output: every (schedule, world) execution trace.

    ``version`` is the artifact format that :meth:`save` writes and
    :meth:`load` accepts.
    """

    version: ClassVar[int] = 1
    strategies: list[Strategy]
    books: list[ScenarioParams]
    trajectories: list[Trajectory]
    corr_prior: np.ndarray
    prior: NIWParams
    n_w: int

    def get(self, k: int, j: int) -> Trajectory:
        return self.trajectories[k * len(self.books) + j]

    def s_full(self, rec: LevelRecord, half: bool = False) -> np.ndarray:
        ids = rec.entered if half else rec.kept
        diag = rec.half_s_diag if half else rec.s_diag
        corr = self.corr_prior[np.ix_(ids, ids)]
        s = corr * np.sqrt(np.outer(diag, diag))
        np.fill_diagonal(s, diag)
        return s

    def niw_at(self, rec: LevelRecord) -> NIWParams:
        return NIWParams(
            m=rec.m,
            k=rec.kappa,
            i=rec.dof,
            s=self.s_full(rec),
            index_map=rec.kept,
        )

    def state_at(self, traj: Trajectory, level: int) -> PosteriorState:
        """Decision state after executing ``level`` (1-based records)."""
        rec = traj.records[level - 1]
        return PosteriorState(
            level=level,
            ids=rec.kept,
            mu_hat=rec.mu_hat_kept,
            sums=rec.n_cum * rec.mu_hat_kept,
            niw=self.niw_at(rec),
            n_cum=rec.n_cum,
            cost=rec.c_run,
        )

    def save(self, path) -> None:
        arrays = {"corr_prior": self.corr_prior, "prior_m": self.prior.m,
                  "prior_s": self.prior.s, "prior_ids": self.prior.index_map,
                  "prior_ki": np.array([self.prior.k, self.prior.i])}
        header = {
            "version": self.version,
            "n_w": self.n_w,
            "strategies": [s.to_dict() for s in self.strategies],
            "n_books": len(self.books),
            "n_traj": len(self.trajectories),
            "levels": len(self.trajectories[0].records) if self.trajectories else 0,
        }
        for t, traj in enumerate(self.trajectories):
            for rec in traj.records:
                tag = f"t{t}_l{rec.level}"
                arrays[f"{tag}_entered"] = rec.entered
                arrays[f"{tag}_kept"] = rec.kept
                arrays[f"{tag}_mue"] = rec.mu_hat_entered
                arrays[f"{tag}_muk"] = rec.mu_hat_kept
                arrays[f"{tag}_m"] = rec.m
                arrays[f"{tag}_sd"] = rec.s_diag
                arrays[f"{tag}_hm"] = rec.half_m
                arrays[f"{tag}_hsd"] = rec.half_s_diag
                arrays[f"{tag}_scal"] = np.array(
                    [rec.kappa, rec.dof, rec.half_dof, rec.n_cum, rec.delta_n, rec.c_run]
                )
        for j, book in enumerate(self.books):
            arrays[f"book{j}_mu"] = book.mu
            arrays[f"book{j}_sigma"] = book.sigma
        save_artifact(path, header, arrays)

    @classmethod
    def load(cls, path) -> "TrajectorySet":
        with open_artifact(path, cls.version, ConfigError) as (header, data):
            prior = NIWParams(
                m=data["prior_m"], k=float(data["prior_ki"][0]),
                i=float(data["prior_ki"][1]), s=data["prior_s"],
                index_map=data["prior_ids"],
            )
            strategies = [Strategy.from_dict(d) for d in header["strategies"]]
            books = [
                ScenarioParams(mu=data[f"book{j}_mu"], sigma=data[f"book{j}_sigma"])
                for j in range(header["n_books"])
            ]
            trajectories = []
            n_books = header["n_books"]
            for t in range(header["n_traj"]):
                records = []
                for lvl in range(1, header["levels"] + 1):
                    tag = f"t{t}_l{lvl}"
                    scal = data[f"{tag}_scal"]
                    records.append(
                        LevelRecord(
                            level=lvl,
                            entered=data[f"{tag}_entered"],
                            kept=data[f"{tag}_kept"],
                            mu_hat_entered=data[f"{tag}_mue"],
                            mu_hat_kept=data[f"{tag}_muk"],
                            m=data[f"{tag}_m"],
                            kappa=float(scal[0]),
                            dof=float(scal[1]),
                            s_diag=data[f"{tag}_sd"],
                            half_m=data[f"{tag}_hm"],
                            half_s_diag=data[f"{tag}_hsd"],
                            half_dof=float(scal[2]),
                            n_cum=int(scal[3]),
                            delta_n=int(scal[4]),
                            c_run=int(scal[5]),
                        )
                    )
                trajectories.append(
                    Trajectory(k=t // n_books, j=t % n_books, records=records)
                )
            return cls(
                strategies=strategies,
                books=books,
                trajectories=trajectories,
                corr_prior=data["corr_prior"],
                prior=prior,
                n_w=header["n_w"],
            )


def forward_pass(
    strategies: list[Strategy],
    books: list[ScenarioParams],
    cfg: AdaptiveConfig,
) -> TrajectorySet:
    """Execute every schedule on every world, tracking the diagonal posterior.

    Price generation goes through the screening engine (chunked, survivor
    columns only); the posterior update consumes the per-level batch mean and
    scatter diagonal, both before (for the selection-risk plug-in) and after
    the level's survivor restriction.
    """
    trajectories = []
    for k, strat in enumerate(strategies):
        for j, theta in enumerate(books):
            rng = substream(cfg.seed, _STREAM_PATHS, k, j)
            run = run_screening(strat, GaussianSource(theta, rng))
            state = PosteriorState.opening(cfg.prior)
            records: list[LevelRecord] = []
            for stats in run.levels:
                half = niw_update_diag_stats(
                    state.niw, stats.batch_mean, stats.scatter, stats.dn, stats.entered
                )
                state = advance(state, stats)
                records.append(
                    LevelRecord(
                        level=state.level,
                        entered=stats.entered,
                        kept=stats.kept,
                        mu_hat_entered=stats.mu_hat,
                        mu_hat_kept=state.mu_hat,
                        m=state.niw.m,
                        kappa=state.niw.k,
                        dof=state.niw.i,
                        s_diag=np.diag(state.niw.s).copy(),
                        half_m=half.m,
                        half_s_diag=np.diag(half.s).copy(),
                        half_dof=half.i,
                        n_cum=stats.n_cum,
                        delta_n=stats.dn,
                        c_run=state.cost,
                    )
                )
            trajectories.append(Trajectory(k=k, j=j, records=records))
    return TrajectorySet(
        strategies=strategies,
        books=books,
        trajectories=trajectories,
        corr_prior=correlation(cfg.prior.s),
        prior=cfg.prior,
        n_w=cfg.n_w,
    )


def f_precompute(
    ts: TrajectorySet, traj: Trajectory, level: int, sub: SubGammaParams
) -> float:
    """Plug-in estimate of the selection-risk term of one executed level.

    Values and pair variances come from the unrestricted posterior right
    after the level's batch; the pairing permutation comes from the previous
    step's empirical ranking (ties to the smaller index, so the opening level
    is ranked in book order).
    """
    if not (1 <= level <= len(traj.records) - 1):
        raise InvalidParameterError(
            f"level must be a selection level in [1, L-1], got {level}"
        )
    rec = traj.records[level - 1]
    if rec.kept.size == rec.entered.size:
        return 0.0  # no selection happens at a dq = 0 level
    prev_mu = (
        traj.records[level - 2].mu_hat_kept
        if level >= 2
        else np.zeros(rec.entered.size)
    )
    d = rec.entered.size
    sigma_est = ts.s_full(rec, half=True) / (rec.half_dof - d - 1)
    q_next = rec.kept.size
    state = AdaptiveState(
        mu_hat_prev=prev_mu,
        n_prev=rec.n_cum - rec.delta_n,
        delta_n=rec.delta_n,
        q_next=q_next,
        n_w=min(ts.n_w, q_next),
    )
    return f_p_ad(level, rec.half_m, sigma_est, state, sub, rank_by=prev_mu)


def mc_value_final(
    ts: TrajectorySet,
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
    rec = traj.records[-1]
    niw = ts.niw_at(rec)
    mu_hat = rec.mu_hat_kept
    d = niw.dim
    ls = psd_factor(niw.s)
    total = 0.0
    done = 0
    mean_hat = float(np.mean(mu_hat))
    while done < n_e:
        take = min(n_p, n_e - done)
        phi = inverse_wishart_factor(niw.i, ls, rng)
        z = rng.standard_normal((take, d))
        mu_tilde = niw.m + (z @ phi) / math.sqrt(niw.k)
        total += float(np.sum(np.abs(mean_hat - mu_tilde.mean(axis=1))))
        done += take
    return total / n_e


@dataclass
class TrainingReport:
    """Diagnostics from one fit: per-net learning-rate winners and losses."""

    rates: dict
    final_losses: dict
    target_stats: dict
    opening_values: list


def _value_of_states(
    bundle_nets: dict,
    spec: ActionSpec,
    states: list[PosteriorState],
    n_w: int,
    sub: SubGammaParams,
    levels: int,
    caps: dict,
) -> np.ndarray:
    """min over admissible actions of the next-level net, batched per state."""
    from .policy import scan_actions

    out = np.empty(len(states))
    for idx, st in enumerate(states):
        net = bundle_nets[(st.level, st.q)]
        layout = FeatureLayout.for_q(st.q, with_f=net.meta.get("with_f", False))
        acts = scan_actions(bundle_nets, spec, st, levels, caps.get(st.level + 1))
        if not acts:
            # pool-edge state without cap room: fall back to the cheapest
            # legal continuation so the target stays defined (prediction
            # only, never executed)
            dq_fb = st.q - spec.n_w if st.level + 1 == levels - 1 else 0
            acts = [(dq_fb, spec.dn_quantum)]
        sp = state_block(layout, st)
        fv = (
            np.array([f_plugin(st, dq, dn, n_w, sub) for dq, dn in acts])
            if layout.with_f
            else None
        )
        rows = assemble_rows(layout, sp, acts, fv)
        out[idx] = float(np.min(net_forward(net, rows)))
    return out


def _simulate_next_states(
    ts: TrajectorySet,
    traj: Trajectory,
    level: int,
    cfg: AdaptiveConfig,
    rng: np.random.Generator,
) -> list[PosteriorState]:
    """Draws of the next decision state under the executed schedule's action.

    Simulates the batch sufficient statistics directly: the batch mean is
    Gaussian around the drawn impacts and the scatter diagonal is a chi^2
    stretch of the drawn variances, which is exactly what the diagonal
    posterior update consumes.
    """
    strat = ts.strategies[traj.k]
    state = ts.state_at(traj, level)
    dn = strat.n[level + 1] - strat.n[level]
    q_next = strat.q[level + 1]
    d = state.q
    ls = psd_factor(state.niw.s)
    out = []
    done = 0
    while done < cfg.n_e_mid:
        take = min(cfg.n_p_mid, cfg.n_e_mid - done)
        phi = inverse_wishart_factor(state.niw.i, ls, rng)
        sig_diag = np.sum(phi * phi, axis=0)
        for _ in range(take):
            mu_tilde = state.niw.m + (phi.T @ rng.standard_normal(d)) / math.sqrt(
                state.niw.k
            )
            delta_mean = mu_tilde + (phi.T @ rng.standard_normal(d)) / math.sqrt(dn)
            scatter = sig_diag * rng.chisquare(dn - 1, size=d) if dn > 1 else np.zeros(d)
            stats = step(
                state.ids, state.sums, state.n_cum, dn * delta_mean, scatter, dn, q_next
            )
            out.append(advance(state, stats))
        done += take
    return out


def fit_value_functions(cfg: AdaptiveConfig) -> tuple[PolicyBundle, TrainingReport]:
    """Backward fitting of the per-level value nets and the opening move."""
    strategies = generate_strategies(
        cfg.k_bar, cfg, substream(cfg.seed, _STREAM_STRATEGIES)
    )
    books = [
        sample_niw(cfg.prior, substream(cfg.seed, _STREAM_BOOKS, j))
        for j in range(cfg.j_bar)
    ]
    ts = forward_pass(strategies, books, cfg)
    spec = cfg.action_spec()
    levels = cfg.levels
    n_k, n_j = len(strategies), len(books)
    caps = {
        lvl: max(
            _cost_through(s, lvl) for s in strategies
        )
        for lvl in range(1, levels + 1)
    }

    nets: dict[tuple[int, int], object] = {}
    report = TrainingReport(rates={}, final_losses={}, target_stats={}, opening_values=[])

    # --- final-level net: window is always n_w -------------------------------
    rng_t = substream(cfg.seed, _STREAM_TARGETS, levels)
    rows, targets, k_of, j_of = [], [], [], []
    layout_final = FeatureLayout.for_q(cfg.n_w, with_f=False)
    for traj in ts.trajectories:
        strat = ts.strategies[traj.k]
        st = ts.state_at(traj, levels - 1)
        dn_last = strat.n[levels] - strat.n[levels - 1]
        sp = state_block(layout_final, st)
        rows.append(assemble_rows(layout_final, sp, [(0, dn_last)], None)[0])
        targets.append(mc_value_final(ts, traj, cfg.n_e_final, cfg.n_p_final, rng_t))
        k_of.append(traj.k)
        j_of.append(traj.j)
    _fit_net(
        nets,
        report,
        cfg,
        level=levels - 1,
        q=cfg.n_w,
        layout=layout_final,
        x=np.array(rows),
        y=np.array(targets),
        k_of=np.array(k_of),
        j_of=np.array(j_of),
    )

    # --- intermediate levels, backward --------------------------------------
    for level in range(levels - 2, 0, -1):
        groups: dict[int, list] = {}
        for traj in ts.trajectories:
            strat = ts.strategies[traj.k]
            q_here = strat.q[level]
            rng_mc = substream(cfg.seed, _STREAM_TARGETS, level, traj.k, traj.j)
            next_states = _simulate_next_states(ts, traj, level, cfg, rng_mc)
            values = _value_of_states(
                nets, spec, next_states, cfg.n_w, cfg.sub, levels, caps
            )
            target = float(np.mean(values)) + f_precompute(
                ts, traj, level + 1, cfg.sub
            )
            st = ts.state_at(traj, level)
            layout = FeatureLayout.for_q(q_here, with_f=True)
            action = (q_here - strat.q[level + 1], strat.n[level + 1] - strat.n[level])
            fv = np.array([f_plugin(st, *action, cfg.n_w, cfg.sub)])
            row = assemble_rows(layout, state_block(layout, st), [action], fv)[0]
            groups.setdefault(q_here, []).append((row, target, traj.k, traj.j))
        for q_here, samples in groups.items():
            x = np.array([s[0] for s in samples])
            y = np.array([s[1] for s in samples])
            _fit_net(
                nets,
                report,
                cfg,
                level=level,
                q=q_here,
                layout=FeatureLayout.for_q(q_here, with_f=True),
                x=x,
                y=y,
                k_of=np.array([s[2] for s in samples]),
                j_of=np.array([s[3] for s in samples]),
            )

    # --- opening move: tabulate over the admissible set ---------------------
    opening = _tabulate_opening(ts, cfg, spec, nets, caps)
    report.opening_values = opening
    best = min(opening, key=lambda t: (t[2], t[0], t[1]))
    first_action = (best[0], best[1])

    bundle = PolicyBundle(
        seed=cfg.seed,
        levels=levels,
        budget=cfg.budget,
        n_s=cfg.n_s,
        n_w=cfg.n_w,
        q_grid=cfg.q_grid,
        dn_quantum=cfg.quantum(),
        max_scan=cfg.max_scan,
        sub=cfg.sub,
        prior=cfg.prior,
        nets=nets,
        first_action=first_action,
        first_action_table=opening,
        meta={"k_bar": cfg.k_bar, "j_bar": cfg.j_bar, "n_iter": cfg.n_iter},
    )
    return bundle, report


def _cost_through(strategy: Strategy, level: int) -> int:
    q = np.asarray(strategy.q[:level], dtype=np.int64)
    dn = np.diff(np.asarray(strategy.n[: level + 1], dtype=np.int64))
    return int(np.sum(q * dn))


def _fit_net(nets, report, cfg, *, level, q, layout, x, y, k_of, j_of):
    """Train one value net on standardized data, then fold the
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
    col_c = x.mean(axis=0)
    col_s = x.std(axis=0)
    col_s[col_s <= 1e-12 * np.max(np.abs(x), axis=0)] = np.inf
    xt = (x - col_c) / col_s
    y_c = float(np.mean(y))
    y_s = float(np.std(y))
    if y_s < 1e-12:
        y_s = 1.0
    yt = (y - y_c) / y_s
    sched = TrainSchedule(
        n_iter=cfg.n_iter,
        rate=cfg.rate_for(level, q),
        r=cfg.r,
        j_batch=cfg.j_batch,
        k_batch=cfg.k_batch,
        batch_change=cfg.batch_change,
        seed=int(
            substream(cfg.seed, _STREAM_NETS, level, q).integers(0, 2**31 - 1)
        ),
    )

    def make(rng):
        return xavier_net(
            layout.dim,
            rng,
            meta={"level": level, "q": q, "with_f": layout.with_f},
        )

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
        dn_lo=float(np.min(x[:, 1])), dn_hi=float(np.max(x[:, 1]))
    )
    nets[(level, q)] = folded
    report.rates[(level, q)] = rate
    report.final_losses[(level, q)] = float(losses[-1])
    report.target_stats[(level, q)] = (y_c, y_s, int(y.size))


def _tabulate_opening(ts, cfg, spec, nets, caps):
    """Expected value of each admissible opening action from the known
    initial state, sharing world draws across actions."""
    levels = cfg.levels
    state0 = PosteriorState.opening(cfg.prior)
    acts = spec.actions(0, cfg.n_s, 0, caps.get(1))
    if levels - 1 > 1:
        usable = trained_windows(nets, 1)
        acts = [(dq, dn) for dq, dn in acts if cfg.n_s - dq in usable]
    if not acts:
        raise InvalidParameterError(
            "no admissible opening action is covered by the trained windows"
        )
    d = cfg.n_s
    ls = psd_factor(cfg.prior.s)
    rng = substream(cfg.seed, _STREAM_OPENING)
    n_e = cfg.n_e_open
    draws = []
    done = 0
    while done < n_e:
        take = min(cfg.n_p_mid, n_e - done)
        phi = inverse_wishart_factor(cfg.prior.i, ls, rng)
        sig_diag = np.sum(phi * phi, axis=0)
        for _ in range(take):
            mu_tilde = cfg.prior.m + (phi.T @ rng.standard_normal(d)) / math.sqrt(
                cfg.prior.k
            )
            noise = phi.T @ rng.standard_normal(d)
            draws.append((mu_tilde, noise, sig_diag))
        done += take
    table = []
    for dq, dn in acts:
        q_next = cfg.n_s - dq
        vals = np.empty(len(draws))
        for e, (mu_tilde, noise, sig_diag) in enumerate(draws):
            delta_mean = mu_tilde + noise / math.sqrt(dn)
            scatter = (
                sig_diag * rng.chisquare(dn - 1, size=d) if dn > 1 else np.zeros(d)
            )
            stats = step(
                state0.ids,
                state0.sums,
                state0.n_cum,
                dn * delta_mean,
                scatter,
                dn,
                q_next,
            )
            st = advance(state0, stats)
            vals[e] = _value_of_states(
                nets, spec, [st], cfg.n_w, cfg.sub, levels, caps
            )[0]
        f0 = f_plugin(state0, dq, dn, cfg.n_w, cfg.sub)
        table.append((int(dq), int(dn), float(np.mean(vals) + f0)))
    return table
