"""Offline strategy selection.

Two planners are provided: an exact dynamic-programming allocator that
minimizes the deterministic (or robust) error bound over grid-valued
strategies under a pricing budget, and the closed-form two-level heuristic
for books whose impacts decrease linearly in rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import SubGammaParams, selection_term, strategy_value, term_providers
from .errors import InfeasiblePlanError, InvalidParameterError
from .screener import Strategy, cost

__all__ = [
    "PlanningGrid",
    "HeuristicParams",
    "HeuristicSolution",
    "dp_optimize",
    "heuristic_numeric",
    "heuristic_closed_form",
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
        if len(set(q)) != len(q) or len(set(n)) != len(n):
            raise InvalidParameterError("grids must be strictly increasing")
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

    ``target`` is a ScenarioParams or a RobustBounds; see
    :func:`esscreen.bounds.term_providers`.
    """
    return strategy_value(strategy, target, sub, grid.n_w, grid.n_s, selection_term)


def dp_optimize(
    grid: PlanningGrid, target, sub: SubGammaParams
) -> tuple[Strategy, float]:
    """Bound-minimizing grid strategy within the budget.

    Label-setting dynamic program over (level, q, N) nodes.  Each label keeps
    the selection-term prefix and the budget spent so far; a label is dropped
    only when another at the same node is at least as good in both, so the
    surviving labels always contain a prefix of every optimal strategy.  Ties
    on the final value break toward smaller cost, then lexicographically
    smaller q, then smaller N.

    Returns the strategy and its bound value.  Raises when no strategy fits
    the budget with nonzero paths at levels L-1 and L.
    """
    sel_raw, mc_raw = term_providers(
        target, sub, grid.n_w, grid.n_s, selection_term
    )
    sel_cache: dict[tuple[int, int, int], float] = {}
    mc_cache: dict[tuple[int, int], tuple[float, float]] = {}

    def sel(q_prev, q_next, n_paths):
        key = (q_prev, q_next, n_paths)
        v = sel_cache.get(key)
        if v is None:
            v = sel_cache[key] = sel_raw(q_prev, q_next, n_paths)
        return v

    def mc(n_prev, n_last):
        key = (n_prev, n_last)
        v = mc_cache.get(key)
        if v is None:
            v = mc_cache[key] = mc_raw(n_prev, n_last)
        return v

    q_grid = grid.q_grid
    n_grid = grid.n_grid
    budget = grid.budget
    levels = grid.levels
    n_s, n_w = grid.n_s, grid.n_w

    # labels[(q, n)] -> list of (g, spent, q_path, n_path)
    labels = {(n_s, 0): [(0.0, 0, (n_s,), (0,))]}
    for lvl in range(1, levels):
        nxt: dict[tuple[int, int], list] = {}
        q_choices = (n_w,) if lvl == levels - 1 else q_grid
        for (q_here, n_here), labs in labels.items():
            for q2 in q_choices:
                if q2 > q_here:
                    continue
                for n2 in n_grid:
                    if n2 < n_here:
                        continue
                    step_cost = q_here * (n2 - n_here)
                    term = None
                    for g, spent, qp, npth in labs:
                        spent2 = spent + step_cost
                        if spent2 > budget:
                            continue
                        if term is None:
                            term = sel(q_here, q2, n2)
                        _push_label(
                            nxt,
                            (q2, n2),
                            (g + term, spent2, qp + (q2,), npth + (n2,)),
                        )
        labels = nxt
        if not labels:
            raise InfeasiblePlanError(
                f"no feasible strategy on the grid within budget {budget}"
            )

    best = None  # (F, cost, q_path, n_path)
    for (q_here, n_here), labs in labels.items():
        for n_last in n_grid:
            if n_last < n_here:
                continue
            for g, spent, qp, npth in labs:
                total_cost = spent + q_here * (n_last - n_here)
                if total_cost > budget:
                    continue
                tb, tc = mc(n_here, n_last)
                value = g + tb
                value = value + tc
                cand = (value, total_cost, qp, npth + (n_last,))
                if best is None or _final_key(cand) < _final_key(best):
                    best = cand
    if best is None or not math.isfinite(best[0]):
        raise InfeasiblePlanError(
            f"no strategy with finite bound fits budget {budget} "
            "(levels L-1 and L need at least one path each)"
        )
    value, total_cost, qp, npth = best
    return Strategy(q=qp, n=npth), value


def _final_key(cand):
    value, total_cost, qp, npth = cand
    return (value, total_cost, qp, npth)


def _push_label(store: dict, node, lab) -> None:
    """Insert a label, keeping only the (g, spent) Pareto frontier per node.

    On exact (g, spent) ties the lexicographically smaller (q, N) path wins,
    matching the planner's final tie rule.
    """
    g, spent, qp, npth = lab
    labs = store.get(node)
    if labs is None:
        store[node] = [lab]
        return
    keep = []
    for other in labs:
        og, ospent, oqp, onp = other
        if og <= g and ospent <= spent:
            if og == g and ospent == spent:
                if (oqp, onp) <= (qp, npth):
                    return
                continue  # same scores, new path preferred: drop the old label
            return  # dominated: drop the new label
        if g <= og and spent <= ospent:
            continue  # new label dominates the old one
        keep.append(other)
    keep.append(lab)
    store[node] = keep


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
    expo = (
        -(hp.budget - q1 * hp.n2)
        * gap
        * gap
        / (2.0 * hp.p * rem * (hp.sigma_bar**2 + hp.c * gap))
    )
    if expo <= -745.0:
        return 0.0
    return rem ** (1.0 / hp.p) * gap * math.exp(expo)


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
