"""Offline strategy selection.

Two planners are provided: an exact dynamic-programming allocator that
minimizes the deterministic (or robust) error bound over grid-valued
strategies under a pricing budget, and the closed-form two-level heuristic
for books whose impacts decrease linearly in rank.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import (
    SubGammaParams,
    _kernel_exp,
    level_terms,
    mc_terms_exact,
    selection_term,
    strategy_value,
)
from .errors import InfeasiblePlanError, InvalidParameterError
from .screener import Strategy, cost

__all__ = [
    "PlanningGrid",
    "HeuristicParams",
    "HeuristicSolution",
    "strategy_bound",
    "dp_optimize",
    "heuristic_numeric",
    "heuristic_closed_form",
    "heuristic_strategy",
    "h0",
    "plan_to_json",
    "plan_from_json",
]


@dataclass(frozen=True)
class PlanningGrid:
    """Admissible thresholds/path counts, budget and level count for the DP."""

    q_grid: tuple[int, ...]
    n_grid: tuple[int, ...]
    budget: int
    levels: int

    def __post_init__(self):
        q = tuple(sorted(int(v) for v in self.q_grid))
        n = tuple(sorted(int(v) for v in self.n_grid))
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "n_grid", n)
        if not q or not n:
            raise InvalidParameterError("grids must be non-empty")
        if len(set(q)) != len(q) or len(set(n)) != len(n):
            raise InvalidParameterError("grids must be strictly increasing")
        if q[0] < 1:
            raise InvalidParameterError(f"n_w = min(q_grid) must be >= 1, got {q[0]}")
        if not isinstance(self.levels, numbers.Integral):
            raise InvalidParameterError(
                f"levels must be an integer, got {self.levels!r}"
            )
        object.__setattr__(self, "levels", int(self.levels))
        if self.levels < 2:
            raise InvalidParameterError("need at least 2 levels")
        if not 0 < self.budget < math.inf:
            raise InvalidParameterError(f"budget must be in (0, inf): {self.budget}")
        if any(v < 0 for v in n):
            raise InvalidParameterError("path counts must be >= 0")

    @property
    def n_s(self) -> int:
        return self.q_grid[-1]

    @property
    def n_w(self) -> int:
        return self.q_grid[0]


def strategy_bound(strategy: Strategy, target, sub: SubGammaParams, grid: PlanningGrid):
    """Bound value of a concrete strategy, as the planner evaluates it.

    ``target`` is a ScenarioParams or a RobustBounds; the selection terms
    come from :func:`esscreen.bounds.level_terms` over the strategy's own
    thresholds and path counts.
    """
    return strategy_value(strategy, target, sub, grid.n_w, grid.n_s, selection_term)


def dp_optimize(
    grid: PlanningGrid, target, sub: SubGammaParams
) -> tuple[Strategy, float]:
    """Bound-minimizing grid strategy within the budget.

    Label-setting dynamic program over (level, q, N) nodes.  A label is a
    partial strategy: its selection-term prefix ``g`` (summed in level
    order), the budget ``spent`` so far, and back-pointer, grid indexes and
    lexicographic ranks of its q path and N path.  Each level's labels are
    arrays, expanded one target threshold q' at a time in ascending q':
    every label is expanded over the admissible N' at once, and one lexsort
    on (node, spent, g, q-rank, N-rank) orders the candidates of each node.
    Only one q' slice of candidates is alive at a time, so the planner's
    memory is bounded by the largest slice, not by the whole level.  A
    candidate is kept iff its ``g`` is strictly below that of every earlier
    one at its node, i.e. no other label is at least as good in both g and
    spent; on an exact (g, spent) tie the lexicographically smaller (q, N)
    path is kept.  The surviving labels therefore contain a prefix of every
    optimal strategy.  Ties on the final value break toward smaller cost,
    then lexicographically smaller q, then smaller N.

    Every selection term is read from one :func:`esscreen.bounds.level_terms`
    table over the grid's thresholds and path counts, built before the first
    level; a RobustBounds target must bracket every grid threshold below n_s.

    Returns the strategy and its bound value.  Raises when no strategy fits
    the budget with nonzero paths at levels L-1 and L.
    """
    terms, sig_p = level_terms(
        target, sub, grid.n_w, grid.n_s, grid.q_grid, grid.n_grid, selection_term
    )
    q_grid = np.array(grid.q_grid, dtype=np.int64)
    n_grid = np.array(grid.n_grid, dtype=np.int64)
    n_q, n_n = q_grid.size, n_grid.size
    # N index 0 is the start (no paths yet); grid path counts are 1..n_n
    n_ext = np.concatenate(([0], n_grid))
    budget = grid.budget

    # the start label sits at (n_s, 0)
    qi = np.array([n_q - 1])
    ni = np.array([0])
    g = np.zeros(1)
    spent = np.zeros(1, dtype=np.int64)
    q_rank = np.zeros(1, dtype=np.int32)
    n_rank = np.zeros(1, dtype=np.int32)
    trail = []  # per level: (back-pointer, q index, N index) of its labels
    for lvl in range(1, grid.levels):
        q_here = q_grid[qi]
        n_here = n_ext[ni]
        step = q_here[:, None] * (n_grid - n_here[:, None])
        ok_n = (n_grid >= n_here[:, None]) & (spent[:, None] + step <= budget)
        # a node (q', N') never spans two values of q', and the frontier's
        # sort has the node as its first key, so the labels kept per q',
        # joined in ascending q', are those (in the order) that one pass
        # over every q' would keep
        parts = []
        for q_next in range(1 if lvl == grid.levels - 1 else n_q):
            lab, b = np.nonzero(ok_n & (q_grid[q_next] <= q_here)[:, None])
            if lab.size == 0:
                continue
            g_next = g[lab] + terms[qi[lab], q_next, b]
            spent_next = spent[lab] + step[lab, b]
            # the paths into one node differ only in the prefix each
            # extends, so the extended labels' ranks order them
            keep = _pareto_frontier(b, spent_next, g_next, q_rank[lab], n_rank[lab])
            q_col = np.full(keep.size, q_next)
            parts.append((lab[keep], q_col, b[keep], g_next[keep], spent_next[keep]))
        if not parts:
            raise InfeasiblePlanError(
                f"no feasible strategy on the grid within budget {budget}"
            )
        lab, qi, b, g, spent = (np.concatenate(col) for col in zip(*parts))
        ni = b + 1
        trail.append((lab, qi, ni))
        q_rank = _dense_rank(q_rank[lab].astype(np.int64) * n_q + qi)
        n_rank = _dense_rank(n_rank[lab].astype(np.int64) * (n_n + 1) + ni)

    n_here = n_ext[ni]
    total = spent[:, None] + q_grid[qi][:, None] * (n_grid - n_here[:, None])
    lab, b = np.nonzero((n_grid >= n_here[:, None]) & (total <= budget))
    pairs, inverse = np.unique(ni[lab] * n_n + b, return_inverse=True)
    n_pairs = zip(n_ext[pairs // n_n].tolist(), n_grid[pairs % n_n].tolist())
    tb, tc = np.array([mc_terms_exact(*nn, sig_p, grid.n_w, sub) for nn in n_pairs]).T
    value = (g[lab] + tb[inverse]) + tc[inverse]
    order = np.lexsort((b, n_rank[lab], q_rank[lab], total[lab, b], value))
    best = order[0]  # N_L == N_{L-1} always fits, so there is a candidate
    if not math.isfinite(value[best]):
        raise InfeasiblePlanError(
            f"no strategy with finite bound fits budget {budget} "
            "(levels L-1 and L need at least one path each)"
        )
    q_path, n_path = [], []
    label = lab[best]
    for back, q_idx, n_idx in reversed(trail):
        q_path.append(q_grid[q_idx[label]])
        n_path.append(n_ext[n_idx[label]])
        label = back[label]
    strategy = Strategy(
        q=(grid.n_s, *q_path[::-1]), n=(0, *n_path[::-1], n_grid[b[best]])
    )
    return strategy, float(value[best])


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys (equal keys, equal rank)."""
    return np.unique(key, return_inverse=True)[1].astype(np.int32)


def _pareto_frontier(node, spent, g, q_rank, n_rank) -> np.ndarray:
    """Indexes of the labels no other label at their node dominates.

    Sorted by (node, spent, g, q path, N path), a label is dominated iff an
    earlier label at its node has ``g`` at most its own: such a label spent
    no more, and on an exact (g, spent) tie has the smaller path.  So the
    kept labels are those whose ``g`` is strictly below every earlier ``g``
    of their node.
    """
    order = np.lexsort((n_rank, q_rank, g, spent, node))
    node, g = node[order], g[order]
    start = np.ones(node.size, dtype=bool)
    start[1:] = node[1:] != node[:-1]
    g_rank = np.unique(g, return_inverse=True)[1]
    # each node's keys lie below every earlier node's, so the running min
    # restarts at each node's first label
    key = g_rank - np.cumsum(start) * (g_rank.max() + 1)
    run_min = np.minimum.accumulate(key)
    # a node's first label is kept, a later one iff it sets a new strict min
    keep = start
    keep[1:] |= key[1:] < run_min[:-1]
    return order[keep]


@dataclass(frozen=True)
class HeuristicParams:
    """Inputs of the two-level heuristic.

    ``delta0`` is the per-rank indifference-zone slope, ``sigma_bar`` the
    uniform pairwise std bound, ``n2`` the cumulative paths of the final full
    pricing, and ``budget`` the total allowance.
    """

    delta0: float
    sigma_bar: float
    c: float
    budget: float
    n2: int
    n_s: int
    n_w: int
    p: float = 1.0

    def __post_init__(self):
        if not self.delta0 > 0:
            raise InvalidParameterError("delta0 must be > 0")
        if not 0 < self.budget < math.inf:
            raise InvalidParameterError(f"budget must be in (0, inf): {self.budget}")
        if self.n2 * self.n_w > self.budget:
            raise InvalidParameterError(
                f"budget {self.budget} cannot fund n_w*N2 = {self.n2 * self.n_w}"
            )


def h0(hp: HeuristicParams, q1: float) -> float:
    """Two-level objective: dominant selection-error bound after the fast
    pricing level, as a function of the intermediate threshold ``q1``.

    The fast-pricing path count implied by the budget is
    ``N1 = (budget - q1*N2) / (n_s - q1)``; the objective is
    ``(n_s-q1)^{1/p} * u*delta0 * exp(-N1 u^2 delta0^2 / (2p(sbar^2 + c u delta0)))``
    with ``u = q1 + 1 - n_w``.
    """
    u = q1 + 1.0 - hp.n_w
    rem = hp.n_s - q1
    if rem <= 0 or hp.budget - q1 * hp.n2 < 0:
        return math.inf
    gap = u * hp.delta0
    n1 = (hp.budget - q1 * hp.n2) / rem
    kern = _kernel_exp(n1, gap, hp.sigma_bar**2, hp.c, hp.p)
    return rem ** (1.0 / hp.p) * gap * float(kern)


def _n1_for(hp: HeuristicParams, q1: int) -> int:
    return int((hp.budget - q1 * hp.n2) // (hp.n_s - q1))


def heuristic_numeric(hp: HeuristicParams) -> tuple[int, int]:
    """Integer argmin of the two-level objective and its fast-path count.

    Scans q1 over [n_w, min(n_s, budget/N2)]; ties break to the smaller q1.
    """
    hi = int(min(hp.n_s, hp.budget // hp.n2))
    if hi < hp.n_w:
        raise InfeasiblePlanError("no feasible intermediate threshold")
    qs = range(hp.n_w, hi + 1)
    best = min(qs, key=lambda q: (h0(hp, q), q))
    if not math.isfinite(h0(hp, best)):
        raise InfeasiblePlanError("objective is infinite over the whole range")
    return best, _n1_for(hp, best)


@dataclass(frozen=True)
class HeuristicSolution:
    """Closed-form candidates and the dispatched choice.

    ``q1_real`` is the real-valued table choice, ``q1`` its nearest feasible
    integer and ``n1`` the implied fast-path count.
    """

    delta: float
    b: float
    q1_2star: float
    q1_11star: float
    q1_12star: float
    q1_real: float
    q1: int
    n1: int


def heuristic_closed_form(hp: HeuristicParams) -> HeuristicSolution:
    """Closed-form proxy of the two-level optimum (order p = 1 only).

    Evaluates the three candidate points (the minimizer of the
    variance-driven envelope and the two critical points of the scale-driven
    envelope), dispatches through the case table on (B, Delta) and the
    candidates' position relative to B, and returns the argmin of the exact
    objective among the prescribed finite candidate set.  The real-valued
    choice is rounded to the nearest feasible integer at the end.
    """
    if hp.p != 1.0:
        raise InvalidParameterError(
            f"the closed form is stated for order p = 1, got p = {hp.p}"
        )
    k, n2, n_w, n_s, d0, c = hp.budget, hp.n2, hp.n_w, hp.n_s, hp.delta0, hp.c
    delta = (k - (n_w - 1) * n2) ** 2 - 32.0 * n_s * n2 * c / d0
    b = math.inf if c == 0.0 else hp.sigma_bar**2 / (c * d0) + n_w - 1
    q2s = max((n_w - 1) / 3.0 + 2.0 * k / (3.0 * n2), float(n_w))
    if delta >= 0:
        rt = math.sqrt(delta)
        q11s = max(3.0 * (n_w - 1) / 4.0 + (k - rt) / (4.0 * n2), float(n_w))
        q12s = max(3.0 * (n_w - 1) / 4.0 + (k + rt) / (4.0 * n2), float(n_w))
    else:
        q11s = q12s = math.nan

    def argmin_h(cands):
        return min(cands, key=lambda q: (h0(hp, q), q))

    if b >= n_s:
        q1 = q2s
    elif b <= n_w:
        q1 = argmin_h([float(n_w), q12s]) if delta > 0 else float(n_w)
    else:  # n_w < B < n_s
        if delta > 0:
            if q2s <= b:
                if q11s <= b and q12s <= b:
                    q1 = argmin_h([q2s, b])
                elif q11s <= b <= q12s:
                    q1 = argmin_h([q2s, q12s])
                else:  # q11s >= b (and hence q12s >= b)
                    q1 = argmin_h([q2s, b, q12s])
            else:
                if q12s <= b:  # q11s <= b as well
                    q1 = b
                else:
                    q1 = argmin_h([b, q12s])
        else:
            q1 = argmin_h([q2s, b]) if q2s <= b else b
    hi = int(min(n_s, k // n2))
    q1_int = int(min(max(round(q1), n_w), hi))
    return HeuristicSolution(
        delta=delta,
        b=b,
        q1_2star=q2s,
        q1_11star=q11s,
        q1_12star=q12s,
        q1_real=float(q1),
        q1=q1_int,
        n1=_n1_for(hp, q1_int),
    )


def heuristic_strategy(hp: HeuristicParams) -> Strategy:
    """Executable 3-level schedule from the closed-form heuristic: fast
    pricing of everything, full pricing of the survivors, and a final ranking
    level that reuses the full-pricing means."""
    sol = heuristic_closed_form(hp)
    return Strategy(
        q=(hp.n_s, sol.q1, hp.n_w), n=(0, sol.n1, hp.n2, hp.n2)
    )


def plan_to_json(strategy: Strategy, f_value: float | None = None) -> str:
    doc = strategy.to_dict()
    doc["cost"] = cost(strategy)
    doc["F_value"] = f_value
    return json.dumps(doc, indent=2, sort_keys=True)


def plan_from_json(text: str) -> tuple[Strategy, float | None]:
    doc = json.loads(text)
    return Strategy.from_dict(doc), doc.get("F_value")
