"""Policy-side machinery of the adaptive allocator: admissible actions,
feature encoding of posterior screening states, the trained value-net
bundle, and online execution of the learned policy.
"""

from __future__ import annotations

import functools
import io
import json
import numbers
from dataclasses import dataclass
from typing import ClassVar
from zipfile import BadZipFile

import numpy as np

from ..bounds import AdaptiveState, SubGammaParams, f_p_ad
from ..errors import InvalidParameterError, PolicyError
from ..model import NIWParams
from ..screener import LevelStats, ScreeningRun, _check_count, _integers, run_levels
from .net import PolicyNet, net_forward
from .niw import niw_update_diag_stats

__all__ = [
    "PosteriorState",
    "ActionSpec",
    "PolicyBundle",
    "action_values",
    "advance",
    "choose_action",
    "features",
    "f_plugin",
    "run_adaptive",
    "scan_actions",
]

@dataclass
class PosteriorState:
    """Live screening state: survivors, their running path sums and means,
    the posterior, paths per survivor and budget spent (world-major if stacked)."""

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
        return self.ids.shape[-1]

    def __post_init__(self):
        if not (self.ids.shape == self.mu_hat.shape == self.sums.shape == self.niw.m.shape):
            raise InvalidParameterError("state arrays disagree on survivor count")


def advance(state: PosteriorState, stats: LevelStats) -> PosteriorState:
    """The decision state after one level: survivors restricted to
    ``stats.kept`` and the posterior updated with the level's batch.
    ``stats`` entered ``state.ids`` (the posterior's coordinates); stacked
    stats (a leading world axis) give a stacked state."""
    pos = np.searchsorted(stats.entered, stats.kept)
    return PosteriorState(
        level=state.level + 1,
        ids=stats.kept,
        mu_hat=np.take_along_axis(stats.mu_hat, pos, -1),
        sums=np.take_along_axis(stats.sums, pos, -1),
        niw=niw_update_diag_stats(
            state.niw, stats.batch_mean, stats.scatter, stats.dn, stats.kept
        ),
        n_cum=stats.n_cum,
        cost=state.cost + stats.entered.size * stats.dn,
    )


@functools.lru_cache(maxsize=1024)
def _scan_quanta(j_max: int, max_scan: int) -> np.ndarray:
    """1..j_max geometrically thinned to ``max_scan`` entries (read-only)."""
    if j_max <= max_scan:
        js = np.arange(1, j_max + 1, dtype=np.int64)
    else:
        js = np.unique(np.rint(np.geomspace(1, j_max, max_scan)).astype(np.int64))
    js.flags.writeable = False
    return js


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
    max_scan: int

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

    def max_quanta(self, level: int, q_now: int, q_next: int, cost_now: int):
        room = self.budget - cost_now - self.min_future_cost(level + 1, q_next)
        return room // (q_now * self.dn_quantum)

    def dn_options(
        self, level: int, q_now: int, q_next: int, cost_now: int
    ) -> np.ndarray:
        """Quantum multiples to scan, geometrically thinned to ``max_scan``."""
        j_max = self.max_quanta(level, q_now, q_next, cost_now)
        return _scan_quanta(int(j_max), self.max_scan) * self.dn_quantum

    def actions(self, level: int, q_now: int, cost_now: int):
        """Scan list of (dq, dn) pairs admissible at the given state."""
        out = []
        for q_next in self.next_q_options(level, q_now):
            dns = self.dn_options(level, q_now, q_next, cost_now).tolist()
            out += [(q_now - q_next, dn) for dn in dns]
        return out

    def is_admissible(self, level, q_now, cost_now, dq, dn) -> bool:
        """Membership in the full (unthinned) admissible set."""
        q_next = q_now - dq
        if q_next not in self.next_q_options(level, q_now) or dn % self.dn_quantum:
            return False
        j_max = self.max_quanta(level, q_now, q_next, cost_now)
        return 1 <= dn // self.dn_quantum <= j_max


def features(
    state: PosteriorState,
    actions: list[tuple[int, int]],
    n_w: int,
    sub: SubGammaParams,
) -> np.ndarray:
    """Raw feature rows of a value net, one per candidate action at ``state``.

    Column order, ``8 + 3 q`` columns at a window of ``q`` survivors: dq,
    dn, q, N, C, mu_hat (q, best-first), posterior m (q, same order), k, i,
    the posterior scale diagonal (q, same order), then the action's
    :func:`f_plugin` selection-bound feature (one call per distinct ``dq``,
    over all its ``dn``; 0 at ``dq == 0``).  The scale matrix enters as its
    diagonal only: :func:`niw_update_diag_stats` rebuilds each off-diagonal
    entry from the prior correlation and that diagonal, and the correlations
    reach the net through :func:`f_plugin`'s pair variances.  Vector inputs
    are presented best-estimate-first so the net sees a canonical,
    permutation-free ordering.  A stacked state gives ``(S, A, 8 + 3 q)``.
    """
    q, lead, niw = state.q, state.mu_hat.shape[:-1], state.niw
    order = np.argsort(-state.mu_hat, kind="stable")  # ties to the smaller index
    diag = np.diagonal(niw.s, axis1=-2, axis2=-1)
    mu, m, s = (np.take_along_axis(v, order, -1) for v in (state.mu_hat, niw.m, diag))
    head = np.broadcast_to([q, state.n_cum, state.cost, niw.k, niw.i], lead + (5,))
    block = np.concatenate([head[..., :3], mu, m, head[..., 3:], s], axis=-1)
    acts = np.array(actions, dtype=np.int64).reshape(-1, 2)
    rows = np.empty(lead + (len(acts), _feature_width(q)))
    rows[..., :2] = acts
    rows[..., 2:-1] = block[..., None, :]
    for dq in np.unique(acts[:, 0]).tolist():
        hit = acts[:, 0] == dq
        rows[..., hit, -1] = f_plugin(state, dq, acts[hit, 1], n_w, sub).T
    return rows


def _feature_width(q: int) -> int:
    """Length of a :func:`features` row at a window of ``q`` survivors."""
    return 8 + 3 * q


def f_plugin(
    state: PosteriorState, dq: int, dn, n_w: int, sub: SubGammaParams
) -> float | np.ndarray:
    """Selection-bound feature for a candidate action, from live data only.

    Plugs the current posterior mean (values and pair variances from the
    posterior scale matrix) and the current empirical ranking into the
    adaptive selection bound for the transition the action would take.
    An int array ``dn`` gives an array from one :func:`f_p_ad` pass, then
    a world axis if the state is stacked.
    """
    q_next = state.q - dq
    if dq == 0:
        out = np.zeros(np.shape(dn) + state.mu_hat.shape[:-1])
        return out if out.ndim else 0.0
    kern_state = AdaptiveState(
        mu_hat_prev=state.mu_hat,
        n_prev=state.n_cum,
        delta_n=dn,
        q_next=q_next,
        n_w=min(n_w, q_next),
    )
    return f_p_ad(
        state.niw.m,
        state.niw.sigma_mean(),
        kern_state,
        sub,
        rank_by=state.mu_hat,
    )


@dataclass
class PolicyBundle:
    """Everything needed to run the trained adaptive policy.

    ``nets`` maps (state level, window size) to a fitted value net;
    ``first_action`` is the tabulated optimal opening move and
    ``first_action_table`` its full (dq, dn, value) scan.  ``version`` is
    the artifact format that :meth:`save` writes and :meth:`load` accepts.
    Version 3 nets read the one :func:`features` layout, ``8 + 3 q`` raw
    columns at every window, and their meta holds no layout flag; version 2
    nets read the full scale block at windows up to 25 and had the
    :func:`f_plugin` column only above the final level.
    """

    version: ClassVar[int] = 3
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
    meta: dict

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
            "net_meta": [self.nets[key].meta for key in sorted(self.nets)],
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
            tag = f"net_{lvl}_{q}_"
            arrays.update({tag + "w1": net.w1, tag + "b1": net.b1, tag + "w2": net.w2})
            arrays[tag + "b2"] = np.array([net.b2])
        buf = io.BytesIO()
        np.savez_compressed(
            buf, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), **arrays
        )
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def load(cls, path) -> "PolicyBundle":
        """The bundle that :meth:`save` wrote to ``path``.

        Raises PolicyError naming ``path`` when the file is missing, and for
        every malformed one: no npz archive, a header that is no UTF-8 JSON
        object or holds another artifact version, a missing key or array, a
        header count or grid entry that is no integer (a bool is none), an
        ``n_s`` other than the prior's dimension, ``levels < 2``, ``n_w``
        outside [1, n_s), ``dn_quantum`` or ``max_scan`` below 1, a
        ``q_grid`` entry outside [n_w, n_s], a ``first_action`` that is no
        admissible opening action, a value that builds no valid field, a net
        meta that is no object or holds a non-numeric ``dn_lo``/``dn_hi``,
        and a net whose arrays are non-finite or do not fit together and its
        window's feature width.
        """
        try:
            # an open file: np.load leaks its own handle on a broken zip
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                return cls._decode(data, path)
        except FileNotFoundError:
            raise PolicyError(f"artifact not found: {path}") from None
        except KeyError as exc:
            raise PolicyError(f"malformed artifact {path}: missing {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError, BadZipFile) as exc:
            raise PolicyError(f"malformed artifact {path}: {exc}") from None

    @classmethod
    def _decode(cls, data, path) -> "PolicyBundle":
        header = json.loads(bytes(data["header"]).decode())
        if not isinstance(header, dict):
            raise InvalidParameterError(f"header is a JSON {type(header).__name__}")
        if header.get("version") != cls.version:
            raise PolicyError(
                f"{path} holds artifact version {header.get('version')}, "
                f"expected {cls.version}"
            )
        for key in ("seed", "levels", "budget", "n_s", "n_w", "dn_quantum", "max_scan"):
            _check_count(header[key], key)
        levels, n_s, n_w = header["levels"], header["n_s"], header["n_w"]
        quantum, scan = header["dn_quantum"], header["max_scan"]
        if not (levels >= 2 and 1 <= n_w < n_s and quantum >= 1 and scan >= 1):
            raise InvalidParameterError(
                f"need levels >= 2, 1 <= n_w < n_s, dn_quantum >= 1 and max_scan "
                f">= 1, got levels={levels}, n_w={n_w}, n_s={n_s}, "
                f"dn_quantum={quantum}, max_scan={scan}"
            )
        q_grid = _integers(header["q_grid"], "q_grid", InvalidParameterError)
        if not all(n_w <= q <= n_s for q in q_grid):
            raise InvalidParameterError(f"q_grid {q_grid} leaves [n_w, n_s]")
        first = _integers(header["first_action"], "first_action", InvalidParameterError)
        prior = NIWParams(
            m=data["prior_m"],
            k=float(data["prior_ki"][0]),
            i=float(data["prior_ki"][1]),
            s=data["prior_s"],
            index_map=data["prior_ids"],
        )
        if header["n_s"] != prior.dim:
            raise InvalidParameterError(
                f"n_s={header['n_s']} but the prior has {prior.dim} scenarios"
            )
        nets = {}
        for (lvl, q), meta in zip(header["net_keys"], header["net_meta"], strict=True):
            _check_net_meta(meta, (lvl, q))
            tag = f"net_{lvl}_{q}_"
            w1, b1, w2, b2 = (data[tag + a] for a in ("w1", "b1", "w2", "b2"))
            width = _feature_width(q)
            if not (
                w1.shape[1:] == (width,)
                and b1.shape == w2.shape == w1.shape[:1]
                and b2.shape == (1,)
                and all(np.isfinite(a).all() for a in (w1, b1, w2, b2))
            ):
                raise PolicyError(
                    f"malformed artifact {path}: net ({lvl}, {q}) needs finite "
                    f"w1 (H, {width}), b1 (H,), w2 (H,) and b2 (1,), got "
                    f"{w1.shape}, {b1.shape}, {w2.shape}, {b2.shape}"
                )
            nets[(lvl, q)] = PolicyNet(w1, b1, w2, float(b2[0]), meta)
        bundle = cls(
            seed=header["seed"],
            levels=levels,
            budget=header["budget"],
            n_s=n_s,
            n_w=n_w,
            q_grid=q_grid,
            dn_quantum=quantum,
            max_scan=scan,
            sub=SubGammaParams(**header["sub"]),
            prior=prior,
            nets=nets,
            first_action=first,
            first_action_table=[tuple(t) for t in header["first_action_table"]],
            meta=header.get("meta", {}),
        )
        if len(first) != 2 or not bundle.action_spec().is_admissible(0, n_s, 0, *first):
            raise InvalidParameterError(
                f"first_action {list(first)} is no admissible opening action"
            )
        return bundle


def _check_net_meta(meta, key) -> None:
    """Reject a net's meta that is no JSON object, or whose trained
    increment range is not two numbers (:func:`scan_actions` clamps to it)."""
    if not isinstance(meta, dict):
        raise InvalidParameterError(f"net {key} meta is a JSON {type(meta).__name__}")
    bounds = [meta[k] for k in ("dn_lo", "dn_hi") if k in meta]
    if bounds and (
        len(bounds) != 2
        or any(isinstance(b, bool) or not isinstance(b, numbers.Real) for b in bounds)
    ):
        raise InvalidParameterError(
            f"net {key} needs numeric dn_lo and dn_hi, got {meta}"
        )


def scan_actions(
    nets: dict, spec: ActionSpec, state: PosteriorState
) -> list[tuple[int, int]]:
    """Candidate actions for the fitted argmin at one state.

    Starting from the admissible scan grid, keeps windows with a trained net
    at the next level and clamps the path increment into the issuing net's
    trained range (the nets are regressors, not extrapolators; outside their
    data support their ordering is meaningless).  When the trust region and
    the feasible grid do not intersect, the feasible increment closest to the
    trained range is used.  At the last level no selection is left, so more
    paths only shrink the final estimator's variance: the only candidate is
    the largest admissible increment, which spends the remaining budget.
    """
    acts = spec.actions(state.level, state.q, state.cost)
    if state.level + 1 >= spec.levels:
        return acts[-1:]
    if state.level + 1 < spec.levels - 1:
        usable = {q for (lvl, q) in nets if lvl == state.level + 1}
        acts = [(dq, dn) for dq, dn in acts if state.q - dq in usable]
    net = nets.get((state.level, state.q))
    if net is not None and "dn_lo" in net.meta and acts:
        lo, hi = net.meta["dn_lo"], net.meta["dn_hi"]
        inside = [(dq, dn) for dq, dn in acts if lo <= dn <= hi]
        if inside:
            acts = inside
        else:
            nearest = min(acts, key=lambda a: min(abs(a[1] - lo), abs(a[1] - hi)))
            acts = [(dq, dn) for dq, dn in acts if dn == nearest[1]]
    return acts


def action_values(
    nets: dict,
    spec: ActionSpec,
    state: PosteriorState,
    sub: SubGammaParams,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """``(acts, preds)``: the :func:`scan_actions` candidates at ``state``
    and the state's value net's prediction for each.

    The online policy takes the argmin of ``preds`` and the trainer's
    one-step lookahead takes its min, so both score an action alike.
    """
    net = nets.get((state.level, state.q))
    if net is None:
        raise PolicyError(
            f"no value net for level {state.level}, window {state.q}; "
            "the policy was trained on an incompatible strategy pool"
        )
    acts = scan_actions(nets, spec, state)
    if not acts:
        return acts, np.empty(0)
    rows = features(state, acts, spec.n_w, sub)
    return acts, net_forward(net, rows)


def choose_action(bundle: PolicyBundle, state: PosteriorState) -> tuple[int, int]:
    """argmin of the fitted level net over the admissible scan actions."""
    spec = bundle.action_spec()
    acts, preds = action_values(bundle.nets, spec, state, bundle.sub)
    if not acts:
        raise PolicyError(
            f"no admissible action at level {state.level} "
            f"(q={state.q}, cost={state.cost}, budget={spec.budget})"
        )
    return acts[int(np.argmin(preds))]


def run_adaptive(
    bundle: PolicyBundle, source, rng: np.random.Generator | None = None
) -> ScreeningRun:
    """Screening with the policy as :func:`~esscreen.screener.run_levels`'
    next-action rule (``source`` and ``rng`` as there).

    The opening action is the tabulated one; before each later level the
    rule folds the previous one into the posterior (:func:`advance`) and
    minimizes the fitted value nets over that state (:func:`choose_action`).
    Every action is re-audited against the full admissible set, and the total
    cost against the budget (a violation raises: the action construction is
    broken).
    """
    if source.n_s != bundle.n_s:
        raise PolicyError(
            f"policy trained for {bundle.n_s} scenarios, source has {source.n_s}"
        )
    spec = bundle.action_spec()
    state = PosteriorState.opening(bundle.prior)

    def next_action(level: int, stats: LevelStats | None) -> tuple[int, int]:
        nonlocal state
        if stats is None:
            action = tuple(bundle.first_action)
        else:
            state = advance(state, stats)
            action = choose_action(bundle, state)
        if not spec.is_admissible(level, state.q, state.cost, *action):
            raise PolicyError(
                f"policy requested infeasible action {action} at level {level}"
            )
        return action

    run = run_levels(source, rng, bundle.levels, next_action)
    if run.pricings > bundle.budget:
        raise PolicyError(
            f"policy spent {run.pricings} pricings, over the budget {bundle.budget}"
        )
    return run
