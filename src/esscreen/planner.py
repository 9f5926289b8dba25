"""Offline strategy selection.

Two planners are provided: an exact dynamic-programming allocator that
minimizes the deterministic (or robust) error bound over grid-valued
strategies under a pricing budget, and the closed-form two-level heuristic
for books whose impacts decrease linearly in rank.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bounds import (
    SubGammaParams,
    _kernel_exp,
    _strategy_value,
    level_terms,
    mc_terms_exact,
    selection_term,
)
from .errors import InfeasiblePlanError, InvalidParameterError, InvalidStrategyError
from .model import ScenarioParams
from .screener import Strategy, _check_count, _integers, cost

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
        q = tuple(sorted(_integers(self.q_grid, "q_grid", InvalidParameterError)))
        n = tuple(sorted(_integers(self.n_grid, "n_grid", InvalidParameterError)))
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "n_grid", n)
        if not q or not n:
            raise InvalidParameterError("grids must be non-empty")
        if len(set(q)) != len(q) or len(set(n)) != len(n):
            raise InvalidParameterError("grids must be strictly increasing")
        if q[0] < 1:
            raise InvalidParameterError(f"n_w = min(q_grid) must be >= 1, got {q[0]}")
        _check_count(self.levels, "levels")
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


_log = logging.getLogger(__name__)

def strategy_bound(strategy: Strategy, target, sub: SubGammaParams, grid: PlanningGrid):
    """Bound value of a concrete strategy, as the planner evaluates it.

    ``target`` is a ScenarioParams or a RobustBounds; the selection terms
    come from :func:`esscreen.bounds.level_terms` over the strategy's own
    thresholds and path counts.
    """
    return _strategy_value(strategy, target, sub, grid.n_w, grid.n_s, selection_term)


def dp_optimize(
    grid: PlanningGrid, target, sub: SubGammaParams
) -> tuple[Strategy, float]:
    """Bound-minimizing grid strategy within the budget.

    Label-setting dynamic program over (level, q, N) nodes, pruned by an
    incumbent (branch and bound).  A label is a partial strategy: its
    selection-term prefix ``g`` (summed in level order), the budget ``spent``
    so far, and back-pointer, grid indexes and lexicographic ranks of its q
    path and N path; each level's labels are arrays.  A level expands every
    admissible (label, N') pair to every target threshold q' <= the label's
    q at once, and one sort on (node, g, spent, path) orders the candidates
    of each node, where the path key orders the q paths, then the N paths.
    A candidate is kept iff its ``spent`` is strictly below that of every
    earlier one at its node; on an exact (g, spent) tie the lexicographically
    smaller (q, N) path is kept.  The surviving labels therefore contain a
    prefix of some optimal strategy.  The plan returned is the least in
    (value, cost, q path, N path) among the plans whose every prefix
    survives.  A prefix with a smaller ``g`` at no larger spend drops the
    other prefixes at its node, even when the ``g`` differ by rounding only
    and the completed plans round to the same value: such a tie then goes
    to the smaller ``g`` at the node where the plans meet, not to the
    smaller q path.

    The incumbent is the best value of a completed plan so far: after each
    level l <= L-2 every label is completed by idle levels (q' = q, N' = N),
    n_w at its own N and the best final N within the budget.  Pairs and
    candidates are scored with ``g`` plus an exact bound-to-go (A* within
    branch and bound): ``togo[k][q, b, e]`` is the least sum of the terms of
    k more selection levels from q at N_b, the last to n_w, and the Monte
    Carlo terms of an N_L <= N_e, where N_e is as far as the budget left
    reaches; only the budget is relaxed.  It takes k min-plus steps over the
    term table, a minimum over q' <= q, then a suffix minimum over b' >= b;
    a pair reads its level's step before the suffix minimum.  One whose
    ``(g + togo) (1 - 2^-40)`` is above the incumbent is dropped.  This is
    exact: every term is >= 0, so the bound and each completion's value are
    rounded sums within a few ulps of their exact sums, and all its plans
    exceed the incumbent, which is at least the optimum.  A candidate
    dominating a surviving one has a ``g`` no larger and as much budget
    left, so it scores no higher and survives too: the frontier keeps what
    it kept unpruned, less the dropped candidates.  A candidate equal to the
    incumbent is kept, so the tie order is that of the unpruned search.  A
    target with negative selection terms (scenarios not sorted by decreasing
    impact) gets no incumbent.

    One :func:`esscreen.bounds.level_terms` table holds every selection term
    and one :func:`esscreen.bounds.mc_terms_exact` table every Monte Carlo
    term, so all values compute with the same arithmetic; a RobustBounds
    target must bracket every grid threshold below n_s.  The tables are kept
    on the target object for its last (sub, q_grid, n_grid) and parameter
    snapshot, and the bound-to-go grows on demand: DPs at several level
    counts on one target build them once; a target changed in place, or a
    new one, builds them anew.

    With DEBUG on the ``esscreen.planner`` logger, each level logs a
    ``dp_level`` record of the candidates expanded, dropped with a ``g``
    above the incumbent (``pruned``), by the bound-to-go alone
    (``bounded``), as dominated and kept, and the incumbent.  Raises
    InfeasiblePlanError when no strategy fits the budget with nonzero paths
    at levels L-1 and L.
    """
    terms, mc_b, mc_c, steps = _term_tables(target, sub, grid, grid.levels - 1)
    q_grid = np.array(grid.q_grid, dtype=np.int64)
    n_grid = np.array(grid.n_grid, dtype=np.int64)
    n_q, n_n = q_grid.size, n_grid.size
    # N index 0 is the start (no paths yet); grid path counts are 1..n_n
    n_ext = np.concatenate(([0], n_grid))
    budget = grid.budget
    # costs are whole pricings, and a cap above n_s N (no label spends more) is moot
    cap = min(math.floor(budget), grid.n_s * int(n_grid[-1]))

    def finish(g, ni, spent):
        """Value and cost of each label at n_w (rows) ending at each N_L
        (columns); the value is +inf where the cost exceeds the budget."""
        total = spent[:, None] + grid.n_w * (n_grid - n_ext[ni][:, None])
        value = (g[:, None] + mc_b[ni]) + mc_c[ni]
        return np.where(total <= budget, value, math.inf), total

    prunable = not (terms < 0).any()
    debug = _log.isEnabledFor(logging.DEBUG)

    # the start label sits at (n_s, 0)
    qi = np.array([n_q - 1])
    ni = np.array([0])
    g = np.zeros(1)
    spent = np.zeros(1, dtype=np.int64)
    q_rank = n_rank = path = np.zeros(1, dtype=np.int64)
    bound = math.inf
    trail = []  # per level: (back-pointer, q index, N index) of its labels
    for lvl in range(1, grid.levels):
        n_here = n_ext[ni][:, None]
        step = q_grid[qi][:, None] * (n_grid - n_here)
        ok_n = (n_grid >= n_here) & (spent[:, None] + step <= budget)
        n_targets = 1 if lvl == grid.levels - 1 else n_q
        lab, b = np.nonzero(ok_n)
        spent_next = spent[lab] + step[lab, b]
        # later levels price n_w scenarios or more, so N_L is at most N_e
        e = np.searchsorted(n_grid, n_grid[b] + (cap - spent_next) // grid.n_w, "right") - 1
        g_lab, q_lab = g[lab], qi[lab]
        k = grid.levels - lvl  # selection levels left, this one included
        live = (g_lab + steps[k][0][q_lab, b, e]) * _MARGIN <= bound
        fan = np.minimum(q_lab + 1, n_targets)
        if debug:
            expanded = int(fan.sum())
            g_drop = g_lab[~live, None] + terms[q_lab[~live], :n_targets, b[~live]]
            stops = np.arange(n_targets) <= q_lab[~live, None]
            pruned = int((stops & (g_drop > bound)).sum())
        lab, b, e, fan, g_lab, spent_next = (
            v[live] for v in (lab, b, e, fan, g_lab, spent_next)
        )
        # each surviving pair stops at every target q' <= its q
        pair = np.repeat(np.arange(lab.size), fan)
        q_next = np.arange(pair.size) - (np.cumsum(fan) - fan)[pair]
        at = (qi[lab] * n_q * n_n + b)[pair] + q_next * n_n
        g_next = g_lab[pair] + terms.ravel()[at]
        at = (b * n_n + e)[pair] + q_next * (n_n * n_n)
        live = np.flatnonzero((g_next + steps[k - 1][1].ravel()[at]) * _MARGIN <= bound)
        if debug:
            pruned += int((g_next > bound).sum())
            bounded = expanded - pruned - live.size
        if not live.size:
            raise InfeasiblePlanError(
                f"no feasible strategy on the grid within budget {budget}"
            )
        pair, q_next, g_next = pair[live], q_next[live], g_next[live]
        lab, b, spent_next = lab[pair], b[pair], spent_next[pair]
        # the paths into one node differ only in the prefix each extends,
        # so the rank of that prefix's (q path, N path) orders them
        keep = _pareto_frontier(q_next * n_n + b, spent_next, g_next, path[lab])
        lab, qi, b = lab[keep], q_next[keep], b[keep]
        g, spent = g_next[keep], spent_next[keep]
        ni = b + 1
        trail.append((lab, qi, ni))
        q_rank = _dense_rank(q_rank[lab] * n_q + qi)
        n_rank = _dense_rank(n_rank[lab] * (n_n + 1) + ni)
        path = _dense_rank(q_rank * (int(n_rank.max()) + 1) + n_rank)
        if debug:
            _log_level(lvl, expanded, pruned, bounded, lab.size, bound)
        if prunable and lvl <= grid.levels - 2:
            # idle to level L-2, then n_w at N_{L-1} = N
            done, _ = finish(g + terms[qi, 0, b], ni, spent)
            bound = min(bound, float(done.min()))

    # every label now sits at n_w; an N_L at or below its N_{L-1} scores +inf
    value, total = finish(g, ni, spent)
    lab, b = np.nonzero(total <= budget)
    value = value[lab, b]
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


#: Covers the rounding of a bound-to-go and a value summed in other orders.
_MARGIN = 1.0 - 2.0**-40


def _term_tables(target, sub, grid, k):
    """Term tables of :func:`dp_optimize`: the selection terms, the Monte
    Carlo terms at N_{L-1} = ``(0, *n_grid)[i]`` and N_L = ``n_grid[e]``,
    and ``steps[j] = (pair, togo)``, the bound-to-go for j = 0..k selection
    levels left, grown on demand.  They are kept on the target with the sub,
    the grid values and a snapshot of what they read of it: mu, the diagonal
    and first n_w rows of sigma, or a RobustBounds' repr."""
    sigma = target.sigma if isinstance(target, ScenarioParams) else None
    arrays = () if sigma is None else (target.mu, np.diag(sigma), sigma[: grid.n_w])
    state = [(a.dtype.str, a.shape, a.tobytes()) for a in arrays] or repr(target)
    key = (repr(sub), grid.q_grid, grid.n_grid, state)
    kept = getattr(target, "_dp_tables", None)
    if kept is None or kept[0] != key:
        terms, sig_p = level_terms(
            target, sub, grid.n_w, grid.n_s, grid.q_grid, grid.n_grid, selection_term
        )
        n_ext = np.array((0, *grid.n_grid), dtype=np.int64)
        mc_b, mc_c = mc_terms_exact(n_ext[:, None], n_ext[None, 1:], sig_p, grid.n_w, sub)
        # no selection level left: a label at n_w ends at the best N_L <= N_e
        togo = np.full((len(grid.q_grid), *mc_b[1:].shape), math.inf)
        togo[0] = np.minimum.accumulate(mc_b[1:] + mc_c[1:], axis=1)
        kept = key, terms, mc_b, mc_c, ((None, togo),)
    key, terms, mc_b, mc_c, steps = kept
    while len(steps) <= k:
        # a level from q at N_b stops at some q' <= q, then goes on from (q', b)
        togo = steps[-1][1]
        pair = terms[:, 0, :, None] + togo[0]
        for q in range(1, len(togo)):
            np.minimum(pair[q:], terms[q:, q, :, None] + togo[q], out=pair[q:])
        steps += ((pair, np.minimum.accumulate(pair[:, ::-1], axis=1)[:, ::-1]),)
    # one attribute, rebound whole: a concurrent call never sees part of it
    object.__setattr__(target, "_dp_tables", (key, terms, mc_b, mc_c, steps))
    return terms, mc_b, mc_c, steps


def _log_level(lvl, expanded, pruned, bounded, kept, bound):
    """One DEBUG record of a level's candidates and the incumbent it used."""
    record = dict(
        level=lvl, expanded=expanded, pruned=pruned, bounded=bounded,
        dominated=expanded - pruned - bounded - kept, kept=kept, incumbent=bound,
    )
    _log.debug(
        "level %(level)d: %(expanded)d candidates, %(pruned)d above incumbent "
        "%(incumbent)r, %(bounded)d above it by the bound-to-go, "
        "%(dominated)d dominated, %(kept)d kept",
        record,
        extra={"dp_level": record},
    )


def _dense_rank(key: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys (-0.0 and 0.0 are equal)."""
    return np.unique(key, return_inverse=True)[1]


def _pareto_frontier(node, spent, g, path) -> np.ndarray:
    """Indexes of the labels no other label at their node dominates.

    ``node`` and ``path`` are non-negative integers; ``path`` orders the
    labels' (q path, N path) and is distinct within a node.  Sorted by
    (node, g, spent, path), a label is dominated iff an earlier label at
    its node spent at most as much: such a label has a ``g`` no larger, and
    on an exact (g, spent) tie the smaller path.  The sort is of one int64
    key of node, the dense ranks of ``g`` and ``spent``, and path; the key
    is unique, so the sort needs no stability.  Raises InvalidParameterError
    when the key would not fit in an int64.  ``node`` must not be empty.
    """
    cols = (node, _dense_rank(g), _dense_rank(spent), path)
    widths = [int(col.max()) + 1 for col in cols]
    if math.prod(widths) > 2**63:
        raise InvalidParameterError(f"{node.size} DP candidates are too many to sort")
    key = np.zeros(node.size, dtype=np.int64)
    for col, width in zip(cols, widths):
        key = key * width + col
    order = np.argsort(key)
    # each node's spend ranks lie below every earlier node's, so the running
    # min restarts at each node; a label is kept iff it sets a new strict min
    key = (cols[2] - node * widths[2])[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
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
        for name in ("n2", "n_s", "n_w"):
            _check_count(getattr(self, name), name)
        if not (self.n2 >= 1 and 1 <= self.n_w < self.n_s):
            raise InvalidParameterError(
                f"need n2 >= 1 and 1 <= n_w < n_s, got n2={self.n2}, "
                f"n_w={self.n_w}, n_s={self.n_s}"
            )
        if not (0 <= self.sigma_bar < math.inf and self.c >= 0 and self.p >= 1):
            raise InvalidParameterError(
                f"need 0 <= sigma_bar < inf, c >= 0 and p >= 1, got "
                f"sigma_bar={self.sigma_bar}, c={self.c}, p={self.p}"
            )
        if not 0 < self.delta0 < math.inf:
            raise InvalidParameterError(f"delta0 must be in (0, inf): {self.delta0}")
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
    kern = _kernel_exp(n1, gap, hp.sigma_bar * hp.sigma_bar, hp.c, hp.p)
    return rem ** (1.0 / hp.p) * gap * float(kern)


def _n1_for(hp: HeuristicParams, q1: int) -> int:
    return int((hp.budget - q1 * hp.n2) // (hp.n_s - q1))


def _q1_max(hp: HeuristicParams) -> int:
    """Largest threshold where :func:`h0` is finite: q1 <= n_s - 1 and
    q1 N2 <= budget; raises InfeasiblePlanError when it lies below n_w."""
    hi = int(min(hp.n_s - 1, hp.budget // hp.n2))
    if hi < hp.n_w:
        raise InfeasiblePlanError("no feasible intermediate threshold")
    return hi


def heuristic_numeric(hp: HeuristicParams) -> tuple[int, int]:
    """Integer argmin of the two-level objective and its fast-path count.

    Scans q1 over [n_w, :func:`_q1_max`]; ties break to the smaller q1.
    """
    qs = range(hp.n_w, _q1_max(hp) + 1)
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
    slack = k - (n_w - 1) * n2
    delta = slack * slack - 32.0 * n_s * n2 * c / d0
    b = math.inf if c == 0.0 else hp.sigma_bar * hp.sigma_bar / (c * d0) + n_w - 1
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
    q1_int = int(min(max(round(q1), n_w), _q1_max(hp)))
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
    doc = {
        "q": list(strategy.q),
        "N": list(strategy.n),
        "cost": cost(strategy),
        "F_value": f_value,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def plan_from_json(text: str) -> tuple[Strategy, float | None]:
    """Strategy and bound value of a :func:`plan_to_json` document; raises
    InvalidStrategyError on a malformed one."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidStrategyError(f"plan is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not {"q", "N"} <= doc.keys():
        raise InvalidStrategyError(f"need a dict with keys q and N, got {doc!r:.80}")
    strategy = Strategy(q=doc["q"], n=doc["N"])
    f_value = doc.get("F_value")
    if f_value is not None and (
        isinstance(f_value, bool) or not isinstance(f_value, numbers.Real)
    ):
        raise InvalidStrategyError(f"F_value must be a number or null, got {f_value!r}")
    return strategy, f_value
