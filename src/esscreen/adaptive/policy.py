"""Policy-side machinery of the adaptive allocator: admissible actions,
feature encoding of posterior screening states, the trained value-net
bundle, and online execution of the learned policy.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..bounds import AdaptiveState, SubGammaParams, f_p_ad
from ..errors import InvalidParameterError, PolicyError
from ..model import NIWParams, ScenarioParams, correlation
from ..screener import (
    DEFAULT_CHUNK_ROWS,
    GaussianSource,
    LevelStats,
    Strategy,
    draw_batch,
    step,
)
from .net import PolicyNet, net_forward
from .niw import niw_update_diag_stats, restrict_niw

__all__ = [
    "PosteriorState",
    "ActionSpec",
    "FeatureLayout",
    "PolicyBundle",
    "AdaptiveRunResult",
    "advance",
    "f_plugin",
    "run_adaptive",
]

#: Survivor windows up to this size feed the full scale-matrix block to the
#: net; larger windows use its diagonal plus the mean off-diagonal
#: correlation (a q*q input block is untrainable at window 253).
FULL_S_MAX_Q = 25


@dataclass
class PosteriorState:
    """Live screening state: survivors, their running path sums and means,
    the posterior, paths per survivor and budget spent."""

    level: int
    ids: np.ndarray
    mu_hat: np.ndarray
    sums: np.ndarray
    niw: NIWParams
    n_cum: int
    cost: int

    @classmethod
    def opening(cls, prior: NIWParams) -> "PosteriorState":
        """The known state before any pricing: every scenario, no paths."""
        n_s = prior.dim
        return cls(
            level=0,
            ids=np.arange(n_s, dtype=np.intp),
            mu_hat=np.zeros(n_s),
            sums=np.zeros(n_s),
            niw=prior,
            n_cum=0,
            cost=0,
        )

    @property
    def q(self) -> int:
        return self.ids.size

    def __post_init__(self):
        if not (self.ids.size == self.mu_hat.size == self.sums.size == self.niw.dim):
            raise InvalidParameterError("state arrays disagree on survivor count")


def advance(state: PosteriorState, stats: LevelStats) -> PosteriorState:
    """The decision state after one level: survivors restricted to
    ``stats.kept`` and the posterior updated with the level's batch."""
    pos = np.searchsorted(stats.entered, stats.kept)
    return PosteriorState(
        level=state.level + 1,
        ids=stats.kept,
        mu_hat=stats.mu_hat[pos],
        sums=stats.sums[pos],
        niw=niw_update_diag_stats(
            state.niw, stats.batch_mean, stats.scatter, stats.dn, stats.kept
        ),
        n_cum=stats.n_cum,
        cost=state.cost + stats.entered.size * stats.dn,
    )


@dataclass(frozen=True)
class ActionSpec:
    """Admissible (dq, dN) grid: thresholds on ``q_grid``, path increments in
    multiples of ``dn_quantum``, projected cost within budget (with enough
    slack left to fund at least one quantum at every remaining level)."""

    q_grid: tuple[int, ...]
    n_w: int
    levels: int
    budget: int
    dn_quantum: int
    max_scan: int = 64

    def min_future_cost(self, level: int, q: int) -> int:
        """Cheapest completion from state ``level`` with ``q`` survivors."""
        if level >= self.levels:
            return 0
        return self.dn_quantum * (q + (self.levels - level - 1) * self.n_w)

    def next_q_options(self, level: int, q_now: int) -> list[int]:
        target = level + 1
        if target >= self.levels:
            return [q_now]
        if target == self.levels - 1:
            return [self.n_w]
        return [g for g in self.q_grid if self.n_w <= g <= q_now]

    def max_quanta(self, level: int, q_now: int, q_next: int, cost_now: int, cap=None):
        budget = self.budget if cap is None else min(self.budget, cap)
        room = budget - cost_now - self.min_future_cost(level + 1, q_next)
        return room // (q_now * self.dn_quantum)

    def dn_options(
        self, level: int, q_now: int, q_next: int, cost_now: int, cap=None
    ) -> np.ndarray:
        """Quantum multiples to scan, geometrically thinned to ``max_scan``."""
        j_max = self.max_quanta(level, q_now, q_next, cost_now, cap)
        if j_max < 1:
            return np.empty(0, dtype=np.int64)
        if j_max <= self.max_scan:
            js = np.arange(1, j_max + 1)
        else:
            js = np.unique(np.rint(np.geomspace(1, j_max, self.max_scan)).astype(np.int64))
        return js * self.dn_quantum

    def actions(self, level: int, q_now: int, cost_now: int, cap=None):
        """Scan list of (dq, dn) pairs admissible at the given state."""
        out = []
        for q_next in self.next_q_options(level, q_now):
            for dn in self.dn_options(level, q_now, q_next, cost_now, cap):
                out.append((q_now - q_next, int(dn)))
        return out

    def is_admissible(self, level, q_now, cost_now, dq, dn) -> bool:
        """Membership in the full (unthinned) admissible set."""
        q_next = q_now - dq
        if q_next not in self.next_q_options(level, q_now) and not (
            level + 1 >= self.levels and dq == 0
        ):
            return False
        if dn < 1 or dn % self.dn_quantum != 0:
            return False
        room = self.budget - cost_now - self.min_future_cost(level + 1, q_next)
        return q_now * dn <= room


@dataclass(frozen=True)
class FeatureLayout:
    """Feature-vector layout of one value net.

    Column order: dq, dn, q, N, C, mu_hat (q, best-first), posterior m (q,
    same order), k, i, then the scale-matrix block (full q*q for small
    windows, else diagonal plus mean off-diagonal correlation), then the
    selection-bound feature when ``with_f``.
    """

    q: int
    full_s: bool
    with_f: bool

    @property
    def dim(self) -> int:
        s_part = self.q * self.q if self.full_s else self.q + 1
        return 7 + 2 * self.q + s_part + (1 if self.with_f else 0)

    @classmethod
    def for_q(cls, q: int, with_f: bool) -> "FeatureLayout":
        return cls(q=q, full_s=q <= FULL_S_MAX_Q, with_f=with_f)


def state_block(layout: FeatureLayout, state: PosteriorState) -> np.ndarray:
    """State-dependent feature segment (everything except dq, dn, f).

    Vector inputs are presented best-estimate-first so the net sees a
    canonical, permutation-free ordering.
    """
    order = np.lexsort((np.arange(state.q), -state.mu_hat))
    mu_sorted = state.mu_hat[order]
    m_sorted = state.niw.m[order]
    s = state.niw.s
    if layout.full_s:
        s_part = s[np.ix_(order, order)].ravel()
    else:
        diag = np.diag(s)[order]
        if state.q > 1:
            mean_corr = float(
                (correlation(s).sum() - state.q) / (state.q * (state.q - 1))
            )
        else:
            mean_corr = 0.0
        s_part = np.concatenate([diag, [mean_corr]])
    return np.concatenate(
        [
            [state.q, state.n_cum, state.cost],
            mu_sorted,
            m_sorted,
            [state.niw.k, state.niw.i],
            s_part,
        ]
    )


def assemble_rows(
    layout: FeatureLayout,
    state_part: np.ndarray,
    actions: list[tuple[int, int]],
    f_values: np.ndarray | None,
) -> np.ndarray:
    """Full raw feature matrix for a batch of actions at one state."""
    n = len(actions)
    rows = np.empty((n, layout.dim))
    acts = np.asarray(actions, dtype=np.float64)
    rows[:, 0] = acts[:, 0]
    rows[:, 1] = acts[:, 1]
    base = 2 + state_part.size
    rows[:, 2:base] = state_part
    if layout.with_f:
        rows[:, base:] = np.asarray(f_values, dtype=np.float64)[:, None]
    return rows


def f_plugin(
    state: PosteriorState, dq: int, dn: int, n_w: int, sub: SubGammaParams
) -> float:
    """Selection-bound feature for a candidate action, from live data only.

    Plugs the current posterior mean (values and pair variances from the
    posterior scale matrix) and the current empirical ranking into the
    adaptive selection bound for the transition the action would take.
    """
    q_next = state.q - dq
    if dq == 0:
        return 0.0
    kern_state = AdaptiveState(
        mu_hat_prev=state.mu_hat,
        n_prev=state.n_cum,
        delta_n=dn,
        q_next=q_next,
        n_w=min(n_w, q_next),
    )
    return f_p_ad(
        state.level + 1,
        state.niw.m,
        state.niw.sigma_mean(),
        kern_state,
        sub,
        rank_by=state.mu_hat,
    )


def save_artifact(path, header: dict, arrays: dict) -> None:
    """Write a JSON ``header`` and named arrays to one compressed npz file."""
    buf = io.BytesIO()
    np.savez_compressed(
        buf, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays
    )
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


@contextmanager
def open_artifact(path, version: int, error: type[Exception]):
    """``(header, arrays)`` of a file written by :func:`save_artifact`.

    Raises ``error`` when the file is missing, when its header ``version``
    is not ``version``, and when the ``with`` block reads a header key or an
    array that the file does not hold.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise error(f"artifact not found: {path}") from None
    with data:
        try:
            header = json.loads(bytes(data["header"]).decode())
            if header.get("version") != version:
                raise error(
                    f"{path} holds artifact version {header.get('version')}, "
                    f"expected {version}"
                )
            yield header, data
        except KeyError as exc:
            raise error(f"malformed artifact {path}: missing {exc}") from None


@dataclass
class PolicyBundle:
    """Everything needed to run the trained adaptive policy.

    ``nets`` maps (state level, window size) to a fitted value net;
    ``first_action`` is the tabulated optimal opening move and
    ``first_action_table`` its full (dq, dn, value) scan.  ``version`` is
    the artifact format that :meth:`save` writes and :meth:`load` accepts.
    """

    version: ClassVar[int] = 2
    seed: int
    levels: int
    budget: int
    n_s: int
    n_w: int
    q_grid: tuple[int, ...]
    dn_quantum: int
    max_scan: int
    sub: SubGammaParams
    prior: NIWParams
    nets: dict[tuple[int, int], PolicyNet]
    first_action: tuple[int, int]
    first_action_table: list[tuple[int, int, float]]
    meta: dict = field(default_factory=dict)

    def action_spec(self) -> ActionSpec:
        return ActionSpec(
            q_grid=self.q_grid,
            n_w=self.n_w,
            levels=self.levels,
            budget=self.budget,
            dn_quantum=self.dn_quantum,
            max_scan=self.max_scan,
        )

    def save(self, path) -> None:
        header = {
            "version": self.version,
            "seed": self.seed,
            "levels": self.levels,
            "budget": self.budget,
            "n_s": self.n_s,
            "n_w": self.n_w,
            "q_grid": list(self.q_grid),
            "dn_quantum": self.dn_quantum,
            "max_scan": self.max_scan,
            "sub": {"c": self.sub.c, "p": self.sub.p},
            "net_keys": [[lvl, q] for (lvl, q) in sorted(self.nets)],
            "net_meta": [
                self.nets[key].meta for key in sorted(self.nets)
            ],
            "first_action": list(self.first_action),
            "first_action_table": [
                [int(a), int(b), float(v)] for a, b, v in self.first_action_table
            ],
            "meta": self.meta,
        }
        arrays = {
            "prior_m": self.prior.m,
            "prior_s": self.prior.s,
            "prior_ki": np.array([self.prior.k, self.prior.i]),
            "prior_ids": self.prior.index_map,
        }
        for (lvl, q), net in self.nets.items():
            tag = f"net_{lvl}_{q}"
            arrays[f"{tag}_w1"] = net.w1
            arrays[f"{tag}_b1"] = net.b1
            arrays[f"{tag}_w2"] = net.w2
            arrays[f"{tag}_b2"] = np.array([net.b2])
        save_artifact(path, header, arrays)

    @classmethod
    def load(cls, path) -> "PolicyBundle":
        with open_artifact(path, cls.version, PolicyError) as (header, data):
            prior = NIWParams(
                m=data["prior_m"],
                k=float(data["prior_ki"][0]),
                i=float(data["prior_ki"][1]),
                s=data["prior_s"],
                index_map=data["prior_ids"],
            )
            nets = {}
            for (lvl, q), meta in zip(header["net_keys"], header["net_meta"]):
                tag = f"net_{lvl}_{q}"
                nets[(lvl, q)] = PolicyNet(
                    w1=data[f"{tag}_w1"],
                    b1=data[f"{tag}_b1"],
                    w2=data[f"{tag}_w2"],
                    b2=float(data[f"{tag}_b2"][0]),
                    meta=meta,
                )
            return cls(
                seed=header["seed"],
                levels=header["levels"],
                budget=header["budget"],
                n_s=header["n_s"],
                n_w=header["n_w"],
                q_grid=tuple(header["q_grid"]),
                dn_quantum=header["dn_quantum"],
                max_scan=header["max_scan"],
                sub=SubGammaParams(**header["sub"]),
                prior=prior,
                nets=nets,
                first_action=tuple(header["first_action"]),
                first_action_table=[tuple(t) for t in header["first_action_table"]],
                meta=header.get("meta", {}),
            )


def trained_windows(nets: dict, level: int) -> set[int]:
    return {q for (lvl, q) in nets if lvl == level}


def scan_actions(
    nets: dict,
    spec: ActionSpec,
    state: PosteriorState,
    levels: int,
    cap: int | None = None,
) -> list[tuple[int, int]]:
    """Candidate actions for the fitted argmin at one state.

    Starting from the admissible scan grid, keeps windows with a trained net
    at the next level and clamps the path increment into the issuing net's
    trained range (the nets are regressors, not extrapolators; outside their
    data support their ordering is meaningless).  When the trust region and
    the feasible grid do not intersect, the feasible increment closest to the
    trained range is used.
    """
    acts = spec.actions(state.level, state.q, state.cost, cap)
    if state.level + 1 < levels - 1:
        usable = trained_windows(nets, state.level + 1)
        acts = [(dq, dn) for dq, dn in acts if state.q - dq in usable]
    net = nets.get((state.level, state.q))
    if net is not None and "dn_lo" in net.meta and acts:
        lo, hi = net.meta["dn_lo"], net.meta["dn_hi"]
        inside = [(dq, dn) for dq, dn in acts if lo <= dn <= hi]
        if inside:
            acts = inside
        else:
            nearest = min(acts, key=lambda a: min(abs(a[1] - lo), abs(a[1] - hi)))
            acts = [
                (dq, dn) for dq, dn in acts if dn == nearest[1]
            ]
    return acts


def choose_action(
    bundle: PolicyBundle,
    state: PosteriorState,
    cap: int | None = None,
) -> tuple[int, int]:
    """argmin of the fitted level net over the admissible scan actions."""
    spec = bundle.action_spec()
    net = bundle.nets.get((state.level, state.q))
    if net is None:
        raise PolicyError(
            f"no value net for level {state.level}, window {state.q}; "
            "the policy was trained on an incompatible strategy pool"
        )
    acts = scan_actions(bundle.nets, spec, state, bundle.levels, cap)
    if not acts:
        raise PolicyError(
            f"no admissible action at level {state.level} "
            f"(q={state.q}, cost={state.cost}, budget={spec.budget})"
        )
    layout = FeatureLayout.for_q(state.q, with_f=net.meta.get("with_f", False))
    sp = state_block(layout, state)
    fvals = None
    if layout.with_f:
        fvals = np.array(
            [f_plugin(state, dq, dn, bundle.n_w, bundle.sub) for dq, dn in acts]
        )
    rows = assemble_rows(layout, sp, acts, fvals)
    preds = net_forward(net, rows)
    pick = int(np.argmin(preds))
    return acts[pick]


@dataclass
class AdaptiveRunResult:
    """Outcome of one adaptive screening run."""

    es_hat: float
    strategy: Strategy
    survivors: list[np.ndarray]
    actions: list[tuple[int, int]]
    pricings: int

    @property
    def final_survivors(self) -> np.ndarray:
        return self.survivors[-1]


def run_adaptive(
    bundle: PolicyBundle,
    source,
    rng: np.random.Generator | None = None,
) -> AdaptiveRunResult:
    """Execute screening with each level's (dq, dN) chosen by the policy.

    ``source`` is a ScenarioParams (then ``rng`` is required) or a price
    source as in :func:`run_screening`.  The opening action is the
    tabulated one; later actions minimize the fitted value nets over the
    live posterior state.  Every chosen action is re-audited against the
    full admissible set, and the total cost against the budget (a violation
    raises, and means the action construction is broken).
    """
    if isinstance(source, ScenarioParams):
        if rng is None:
            raise InvalidParameterError("rng required when passing ScenarioParams")
        source = GaussianSource(source, rng)
    if source.n_s != bundle.n_s:
        raise PolicyError(
            f"policy trained for {bundle.n_s} scenarios, source has {source.n_s}"
        )
    spec = bundle.action_spec()
    state = PosteriorState.opening(bundle.prior)
    action = tuple(bundle.first_action)
    actions = []
    survivors = [state.ids]
    n_path = [0]
    for level in range(bundle.levels):
        dq, dn = action
        if not spec.is_admissible(level, state.q, state.cost, dq, dn):
            raise PolicyError(
                f"policy requested infeasible action {action} at level {level}"
            )
        actions.append(action)
        batch_sum, scatter = draw_batch(source, state.ids, dn, DEFAULT_CHUNK_ROWS)
        stats = step(
            state.ids, state.sums, state.n_cum, batch_sum, scatter, dn, state.q - dq
        )
        state = advance(state, stats)
        survivors.append(state.ids)
        n_path.append(state.n_cum)
        if level + 1 < bundle.levels:
            action = choose_action(bundle, state)
    if state.cost > bundle.budget:
        raise PolicyError(
            f"policy spent {state.cost} pricings, over the budget {bundle.budget}"
        )
    return AdaptiveRunResult(
        es_hat=float(np.mean(state.mu_hat)),
        strategy=Strategy(
            q=tuple(ids.size for ids in survivors[:-1]), n=tuple(n_path)
        ),
        survivors=survivors[:-1],
        actions=actions,
        pricings=state.cost,
    )
