"""Strategy planners: dynamic program vs enumeration, and the 2-level
heuristic in both its numeric-scan and closed-form variants."""

import itertools
import json
import logging
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import esscreen.planner
from esscreen.bounds import (
    RobustBounds,
    SubGammaParams,
    _kernel_exp,
    level_terms,
    mc_terms_exact,
    robust_gap_max,
    selection_term,
)
from esscreen.errors import (
    InfeasiblePlanError,
    InvalidParameterError,
    InvalidStrategyError,
)
from esscreen.model import (
    EquicorrelatedSpec,
    NIWParams,
    ScenarioParams,
    build_equicorrelated,
    sample_niw,
    synthetic_book,
)
from esscreen.planner import (
    HeuristicParams,
    PlanningGrid,
    dp_optimize,
    h0,
    heuristic_closed_form,
    heuristic_numeric,
    heuristic_strategy,
    plan_from_json,
    plan_to_json,
    strategy_bound,
)
from esscreen.screener import Strategy, cost
from esscreen.streams import substream


def grid_plans(grid):
    """Every grid strategy within budget, with its cost."""
    levels = grid.levels
    interior = levels - 2
    q_choices = [
        qs
        for qs in itertools.product(grid.q_grid, repeat=interior)
        if all(a >= b for a, b in zip((grid.n_s,) + qs, qs))
        and all(q >= grid.n_w for q in qs)
    ]
    for qs in q_choices:
        q_full = (grid.n_s,) + qs + (grid.n_w,)
        for ns in itertools.combinations_with_replacement(grid.n_grid, levels):
            strat = Strategy(q=q_full, n=(0,) + ns)
            c = cost(strat)
            if c <= grid.budget:
                yield strat, c


def enumerate_optimum(grid, target, sub):
    """Exhaustive search over all grid strategies within budget.

    Reads the same level-term table as the planner so values compare bitwise;
    the tie order is (value, cost, q-path, N-path).
    """
    best = None
    for strat, c in grid_plans(grid):
        value = strategy_bound(strat, target, sub, grid)
        cand = (value, c, strat.q, strat.n)
        if best is None or cand < best:
            best = cand
    return best


def random_small_grid(rng):
    n_w = int(rng.integers(2, 4))
    n_s = int(rng.integers(n_w + 4, n_w + 10))
    mids = sorted(
        int(v) for v in rng.choice(np.arange(n_w + 1, n_s), size=2, replace=False)
    )
    q_grid = (n_w, *mids, n_s)
    n_vals = sorted(set(int(v) for v in rng.integers(1, 60, size=4)))
    n_grid = tuple(n_vals)
    levels = int(rng.integers(2, 5))
    budget = int(rng.integers(n_s * max(n_grid) // 3, n_s * max(n_grid)))
    grid = PlanningGrid(q_grid=q_grid, n_grid=n_grid, budget=budget, levels=levels)
    mu = -np.sort(rng.gamma(2.0, 4.0, size=n_s))
    a = rng.standard_normal((n_s, n_s))
    sigma = a @ a.T / n_s + np.eye(n_s) * rng.uniform(0.5, 3.0)
    theta = ScenarioParams(mu=mu, sigma=sigma)
    return grid, theta


# --- frozen copy of the label-setting planner before it was array-valued ---
# One selection term per (q_prev, q_next, N) triple over pair callables, a
# dict of label lists per node and a tuple dominance check per insertion.
# It shares no term provider with the package, only the Monte Carlo terms
# and the robust gap maximiser.


def _frozen_kernel_exp(n, x, var, c, p):
    x = np.asarray(x, dtype=np.float64)
    denom = 2.0 * p * (var + c * x)
    safe = np.where(denom > 0, denom, 1.0)
    with np.errstate(over="ignore"):
        expo = -n * x * x / safe
    out = np.where(expo > -745.0, np.exp(np.maximum(expo, -745.0)), 0.0)
    out = np.where((x > 0) & (denom <= 0), 0.0, out)
    return np.where(x <= 0, 1.0, out)


def _frozen_selection_term(q_prev, q_next, n_paths, gaps, variances, sub, n_w, n_s):
    if q_next >= q_prev:
        return 0.0
    dq = q_prev - q_next
    if q_next >= n_s:
        return 0.0
    i_idx = np.arange(min(n_w, n_s), dtype=np.intp)
    k_idx = np.arange(q_next, n_s, dtype=np.intp)
    ii, kk = np.meshgrid(i_idx, k_idx, indexing="ij")
    g = np.asarray(gaps(ii, kk), dtype=np.float64)
    v = np.asarray(variances(ii, kk), dtype=np.float64)
    vals = g * _frozen_kernel_exp(n_paths, g, v, sub.c, sub.p)
    return float(dq ** (1.0 / sub.p) * np.max(vals))


def _frozen_providers(target, sub, n_w, n_s):
    if isinstance(target, ScenarioParams):
        mu, sigma = target.mu, target.sigma

        def gaps(i, k):
            return mu[i] - mu[k]

        def variances(i, k):
            return sigma[i, i] + sigma[k, k] - 2.0 * sigma[i, k]

        sig_p = np.sort(np.sqrt(np.diag(sigma)) ** sub.p)[::-1]

        def sel(q_prev, q_next, n_paths):
            return _frozen_selection_term(
                q_prev, q_next, n_paths, gaps, variances, sub, n_w, n_s
            )

        def mc(n_prev, n_last):
            return mc_terms_exact(n_prev, n_last, sig_p, n_w, sub)

        return sel, mc

    def sel(q_prev, q_next, n_paths):
        dq = q_prev - q_next
        if dq == 0:
            return 0.0
        lo, hi = target.delta_lo[q_next], target.delta_hi[q_next]
        return dq ** (1.0 / sub.p) * robust_gap_max(
            n_paths, lo, hi, target.sigma_bar, sub
        )

    sbar_p = np.full(n_s, target.sigma_bar**sub.p)

    def mc(n_prev, n_last):
        return mc_terms_exact(n_prev, n_last, sbar_p, n_w, sub)

    return sel, mc


def _frozen_push_label(store, node, lab):
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
                continue
            return
        if g <= og and spent <= ospent:
            continue
        keep.append(other)
    keep.append(lab)
    store[node] = keep


def frozen_dp_optimize(grid, target, sub):
    """The planner as it was before its labels became arrays; returns
    ``(q path, N path, value)`` or raises InfeasiblePlanError."""
    sel_raw, mc = _frozen_providers(target, sub, grid.n_w, grid.n_s)
    sel_cache = {}

    def sel(*key):
        if key not in sel_cache:
            sel_cache[key] = sel_raw(*key)
        return sel_cache[key]

    n_s, n_w, budget = grid.n_s, grid.n_w, grid.budget
    labels = {(n_s, 0): [(0.0, 0, (n_s,), (0,))]}
    for lvl in range(1, grid.levels):
        nxt = {}
        q_choices = (n_w,) if lvl == grid.levels - 1 else grid.q_grid
        for (q_here, n_here), labs in labels.items():
            for q2 in q_choices:
                if q2 > q_here:
                    continue
                for n2 in grid.n_grid:
                    if n2 < n_here:
                        continue
                    step_cost = q_here * (n2 - n_here)
                    for g, spent, qp, npth in labs:
                        if spent + step_cost > budget:
                            continue
                        _frozen_push_label(
                            nxt,
                            (q2, n2),
                            (
                                g + sel(q_here, q2, n2),
                                spent + step_cost,
                                qp + (q2,),
                                npth + (n2,),
                            ),
                        )
        labels = nxt
        if not labels:
            raise InfeasiblePlanError("no feasible label")
    best = None
    for (q_here, n_here), labs in labels.items():
        for n_last in grid.n_grid:
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
                if best is None or cand < best:
                    best = cand
    if best is None or not math.isfinite(best[0]):
        raise InfeasiblePlanError("no finite plan")
    return best[2], best[3], best[0]


def assert_matches_frozen(grid, target, sub):
    """dp_optimize returns the frozen planner's plan and bound bit for bit
    (or both raise InfeasiblePlanError); returns whether a plan exists."""
    try:
        want = frozen_dp_optimize(grid, target, sub)
    except InfeasiblePlanError:
        with pytest.raises(InfeasiblePlanError):
            dp_optimize(grid, target, sub)
        return False
    strat, value = dp_optimize(grid, target, sub)
    assert (strat.q, strat.n) == want[:2]
    assert value.hex() == want[2].hex()
    assert strategy_bound(strat, target, sub, grid).hex() == value.hex()
    return True


PAPER_Q_GRID = (
    6, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100, 150, 200, 253,
)
PAPER_N_GRID = (
    1000, 2000, 4000, 6000, 10_000, 17_000, 25_000, 40_000, 60_000,
    100_000, 150_000, 250_000, 400_000, 700_000, 1_000_000, 1_500_000,
)


def paper_theta(general):
    """The paper book under the one-factor covariance, or one
    inverse-Wishart draw around it (2000 degrees of freedom above d+1)."""
    mu = synthetic_book(253, 2766.0)
    spec = EquicorrelatedSpec(2.2e6, 0.6)
    if not general:
        return ScenarioParams.equicorrelated(mu, spec)
    sigma = build_equicorrelated(spec, 253)
    prior = NIWParams(
        m=mu, k=1.0, i=253 + 1 + 2000, s=2000 * sigma, index_map=np.arange(253)
    )
    return ScenarioParams(mu=mu, sigma=sample_niw(prior, substream(23, 9)).sigma)


def paper_grid(levels):
    return PlanningGrid(
        q_grid=PAPER_Q_GRID, n_grid=PAPER_N_GRID, budget=10**7, levels=levels
    )


class TestLevelTermsMatchFrozenTerms:
    @pytest.mark.parametrize("robust", [False, True], ids=["theta", "robust"])
    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.0), (0.0, 2.0), (0.7, 2.0)])
    def test_every_entry_equals_the_frozen_term(self, robust, c, p):
        # thresholds in a shuffled order: the table holds every dq = 0
        # entry, every rising pair and the q = n_s column
        sub = SubGammaParams(c=c, p=p)
        rng = substream(23, 13)
        for _ in range(8):
            grid, target = random_small_grid(rng)
            if robust:
                target = RobustBounds(
                    delta_lo={q: 0.5 * q for q in grid.q_grid},
                    delta_hi={q: 3.0 * q for q in grid.q_grid},
                    sigma_bar=4.0,
                )
            sel, _ = _frozen_providers(target, sub, grid.n_w, grid.n_s)
            q_values = rng.permutation(grid.q_grid).tolist()
            terms, _ = level_terms(
                target, sub, grid.n_w, grid.n_s, q_values, grid.n_grid, selection_term
            )
            assert terms.shape == (len(q_values), len(q_values), len(grid.n_grid))
            for (a, qa), (b, qb), (d, n) in itertools.product(
                enumerate(q_values), enumerate(q_values), enumerate(grid.n_grid)
            ):
                want = sel(qa, qb, n) if qb <= qa else 0.0
                assert terms[a, b, d] == want, (qa, qb, n)


class TestKernelMatchesFrozenKernel:
    def test_bitwise_over_every_branch(self):
        # exponents on both sides of the -745 floor, x <= 0, denominators
        # <= 0, c > 0 and p != 1; a scalar x and an array of path counts
        rng = substream(23, 14)
        for _ in range(300):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 40)))
            x = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3, 3, shape)
            x[rng.random(shape) < 0.1] = 0.0
            var = rng.exponential(1.0, shape) * 10.0 ** rng.uniform(-3, 3, shape)
            var[rng.random(shape) < 0.1] = 0.0
            var[rng.random(shape) < 0.05] *= -1.0
            c = float(rng.choice([0.0, 0.3, 5.0]))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            n = float(10.0 ** rng.uniform(0, 7))
            if rng.random() < 0.3:
                n = rng.integers(1, 10**6, size=(shape[0], 1))
            got = _kernel_exp(n, x, var, c, p)
            want = _frozen_kernel_exp(n, x, var, c, p)
            assert got.tobytes() == want.tobytes()
        # the floor: exponents just above and below -745, and deep underflow
        x = np.sqrt(np.array([744.0, 744.9, 745.0, 745.1, 746.0, 1e6]))
        got = _kernel_exp(2.0, x, 1.0, 0.0, 1.0)
        want = _frozen_kernel_exp(2.0, x, 1.0, 0.0, 1.0)
        assert got.tobytes() == want.tobytes() and got[-1] == 0.0 and got[0] > 0.0
        for x0 in (-1.0, 0.0, 0.5, 40.0):
            got = _kernel_exp(3, x0, 2.0, 0.1, 1.5)
            assert got.tobytes() == _frozen_kernel_exp(3, x0, 2.0, 0.1, 1.5).tobytes()


class TestMatchesFrozenPlanner:
    @pytest.mark.parametrize("general", [False, True], ids=["equi", "iw"])
    @pytest.mark.parametrize("levels", [3, 4, 5])
    def test_paper_grid(self, levels, general):
        assert assert_matches_frozen(
            paper_grid(levels), paper_theta(general), SubGammaParams(c=0.0, p=1.0)
        )

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0)])
    def test_random_small_grids(self, c, p):
        rng = substream(23, 10)
        feasible = sum(
            assert_matches_frozen(*random_small_grid(rng), SubGammaParams(c=c, p=p))
            for _ in range(30)
        )
        assert feasible >= 20

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.8, 1.0), (0.3, 2.0)])
    def test_robust_targets(self, c, p):
        rng = substream(23, 11)
        feasible = 0
        for _ in range(15):
            grid, _theta = random_small_grid(rng)
            rb = RobustBounds(
                delta_lo={q: 0.5 * q for q in grid.q_grid},
                delta_hi={q: 3.0 * q for q in grid.q_grid},
                sigma_bar=4.0,
            )
            feasible += assert_matches_frozen(grid, rb, SubGammaParams(c=c, p=p))
        assert feasible >= 10

    def test_exact_tie_at_a_node(self):
        # (8, 5, 5) and (8, 8, 5) reach node (5, 9) at level 2 with the same
        # spend and prefix sums 0 + x + 0 == 0 + 0 + x; (8, 5, 2, 2) ties
        # with both at the end, and the smallest q path wins
        theta = ScenarioParams(mu=-2.0 * np.arange(1.0, 9.0), sigma=np.eye(8))
        sub = SubGammaParams()
        grid = PlanningGrid(q_grid=(2, 5, 8), n_grid=(9, 30), budget=200, levels=4)
        tied = [
            Strategy(q=q, n=(0, 9, 9, 9, 30))
            for q in ((8, 5, 2, 2), (8, 5, 5, 2), (8, 8, 5, 2))
        ]
        values = {strategy_bound(s, theta, sub, grid) for s in tied}
        assert len(values) == 1 and len({cost(s) for s in tied}) == 1
        assert assert_matches_frozen(grid, theta, sub)
        assert dp_optimize(grid, theta, sub) == (tied[0], values.pop())

    def test_frontier_keeps_what_label_insertion_keeps(self):
        # many exact (g, spent) ties: integer-valued scores on a few nodes
        rng = substream(23, 12)
        for _ in range(50):
            m = int(rng.integers(1, 28))
            node = rng.integers(0, 3, size=m)
            spent = rng.integers(0, 4, size=m)
            g = rng.integers(0, 4, size=m) * 0.5
            paths = rng.permutation(
                [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
            )[:m]
            q_paths = [tuple(int(v) for v in pth[:2]) for pth in paths]
            n_paths = [(int(pth[2]),) for pth in paths]
            store = {}
            for j in rng.permutation(m):
                lab = (g[j], spent[j], q_paths[j], n_paths[j])
                _frozen_push_label(store, int(node[j]), lab)
            want = {(nd, lab[2], lab[3]) for nd, labs in store.items() for lab in labs}

            def rank(keys):
                return np.array([sorted(set(keys)).index(k) for k in keys])

            n_rank = rank(n_paths)
            path = rank(q_paths) * (n_rank.max() + 1) + n_rank
            kept = esscreen.planner._pareto_frontier(node, spent, g, path)
            got = {(int(node[j]), q_paths[j], n_paths[j]) for j in kept}
            assert got == want and len(kept) == len(got)

    def test_one_sort_matches_the_lexsort_frontier(self):
        # the frontier's one sort gives the lexsort's permutation: negative
        # g, -0.0/0.0 ties, many exact (g, spent) ties on a few sparse node
        # ids, continuous g with wide spends, and inputs above 10k labels
        rng = substream(23, 18)
        sizes = [*rng.integers(1, 60, size=150).tolist(), 12_000, 15_000]
        for trial, m in enumerate(sizes):
            node = rng.integers(0, 5, size=m) * 7
            path = rng.permutation(m) * 3
            if trial % 2:
                spent = rng.integers(0, 6, size=m) * 1000
                g = rng.integers(-3, 4, size=m) * 0.5
                g[rng.random(m) < 0.3] = -0.0
            else:
                spent = rng.integers(0, 10**7, size=m)
                g = rng.normal(0.0, 1e4, size=m)
            want = lexsort_frontier(node, spent, g, path)
            got = esscreen.planner._pareto_frontier(node, spent, g, path)
            assert np.array_equal(got, want), m
        assert (g == 0.0).any() and np.signbit(g[g == 0.0]).any()

    def test_frontier_key_overflow_is_a_package_error(self):
        # the node, g rank, spend rank and path widths multiply to 2^63, so
        # every key fits in an int64; one more node value does not fit, and
        # raises rather than wrapping
        spent, g = np.array([2, 1, 1]), np.array([0.25, 0.5, 0.5])
        node, path = np.array([0, 0, 2**21 - 1]), np.array([0, 2**40 - 1, 5])
        kept = esscreen.planner._pareto_frontier(node, spent, g, path)
        assert np.array_equal(kept, lexsort_frontier(node, spent, g, path))
        assert kept.tolist() == [0, 1, 2]
        with pytest.raises(InvalidParameterError, match="too many"):
            esscreen.planner._pareto_frontier(node + 1, spent, g, path)


def lexsort_frontier(node, spent, g, path):
    """The frontier as it was before its one-key sort: a 4-key lexsort,
    then a node-restarted running minimum of ``spent``."""
    order = np.lexsort((path, spent, g, node))
    node, spent = node[order], spent[order]
    start = np.ones(node.size, dtype=bool)
    start[1:] = node[1:] != node[:-1]
    key = spent - np.cumsum(start) * (int(spent.max()) + 1)
    run_min = np.minimum.accumulate(key)
    keep = start
    keep[1:] |= key[1:] < run_min[:-1]
    return order[keep]


def random_robust_bounds(grid, rng):
    return RobustBounds(
        delta_lo={q: float(rng.uniform(0.0, 2.0)) * q for q in grid.q_grid},
        delta_hi={q: float(rng.uniform(2.0, 4.0)) * q for q in grid.q_grid},
        sigma_bar=float(rng.uniform(1.0, 6.0)),
    )


class TestTailBound:
    @pytest.mark.parametrize("robust", [False, True], ids=["theta", "robust"])
    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0), (2.0, 1.0)])
    def test_no_plan_ends_below_the_bound_of_a_prefix(self, robust, c, p):
        # admissibility of the bound-to-go tables: at every level, every
        # prefix label of a plan (its g, q, N index and spend, as the planner
        # holds them) and the (label, N') pair it came from score, with the
        # planner's rounding margin, at most the least value of the plans
        # that extend it.  The bound relaxes only the budget, so it meets
        # that least value at most prefixes (96% here): a vacuous bound
        # (zero to go) fails the tightness count.  The pruned planner still
        # returns the enumerated optimum and cost, and the frozen planner's
        # plan
        sub = SubGammaParams(c=c, p=p)
        rng = substream(23, 17)
        checked = 0
        scores = {}  # prefix -> (g + bound-to-go, least value of its plans)
        for trial in range(6):
            grid, target = random_small_grid(rng)
            if robust:
                target = random_robust_bounds(grid, rng)
            terms, mc_b, mc_c, steps = esscreen.planner._term_tables(
                target, sub, grid, grid.levels - 1
            )
            n_grid = np.array(grid.n_grid)
            cap = min(math.floor(grid.budget), grid.n_s * grid.n_grid[-1])
            q_index = {q: a for a, q in enumerate(grid.q_grid)}
            n_index = {n: i for i, n in enumerate(grid.n_grid)}
            for strat, _ in grid_plans(grid):
                value = strategy_bound(strat, target, sub, grid)
                g, spent = 0.0, 0
                i, last = n_index[strat.n[-2]] + 1, n_index[strat.n[-1]]
                for lvl in range(1, grid.levels):
                    a, q = q_index[strat.q[lvl - 1]], q_index[strat.q[lvl]]
                    b, k = n_index[strat.n[lvl]], grid.levels - lvl
                    spent += strat.q[lvl - 1] * (strat.n[lvl] - strat.n[lvl - 1])
                    reach = strat.n[lvl] + (cap - spent) // grid.n_w
                    e = int(np.searchsorted(n_grid, reach, "right")) - 1
                    assert e >= last
                    pair = (trial, strat.q[:lvl], strat.n[: lvl + 1])
                    label = (trial, strat.q[: lvl + 1], strat.n[: lvl + 1])
                    at_pair = g + steps[k][0][a, b, e]
                    g += terms[a, q, b]
                    at_label = g + steps[k - 1][1][q, b, e]
                    for key, score in ((pair, at_pair), (label, at_label)):
                        assert score * esscreen.planner._MARGIN <= value, (strat, score)
                        least = min(scores.get(key, (0, value))[1], value)
                        scores[key] = (score, least)
                        checked += 1
                assert value == (g + mc_b[i, last]) + mc_c[i, last]
            best = enumerate_optimum(grid, target, sub)
            if best is None or not math.isfinite(best[0]):
                with pytest.raises(InfeasiblePlanError):
                    dp_optimize(grid, target, sub)
                continue
            strat, value = dp_optimize(grid, target, sub)
            assert (value, cost(strat)) == best[:2]
            assert assert_matches_frozen(grid, target, sub)
        finite = [(s, v) for s, v in scores.values() if math.isfinite(v)]
        tight = sum(math.isclose(s, v, rel_tol=1e-12) for s, v in finite)
        assert checked > 1000 and tight >= 0.9 * len(finite), (tight, len(finite))


class TestDpOptimize:
    def test_matches_enumeration_on_random_grids(self):
        sub = SubGammaParams(c=0.0, p=1.0)
        rng = substream(23, 0)
        for trial in range(12):
            grid, theta = random_small_grid(rng)
            want = enumerate_optimum(grid, theta, sub)
            if want is None or not math.isfinite(want[0]):
                with pytest.raises(InfeasiblePlanError):
                    dp_optimize(grid, theta, sub)
                continue
            strat, value = dp_optimize(grid, theta, sub)
            assert value == want[0]  # bitwise
            assert cost(strat) == want[1]
            assert strat.q == want[2] and strat.n == want[3]

    def test_robust_target_matches_enumeration(self):
        sub = SubGammaParams(c=0.8, p=1.0)
        rng = substream(23, 1)
        checked = 0
        for _ in range(20):
            grid, theta = random_small_grid(rng)
            rb = RobustBounds(
                delta_lo={q: 0.5 * q for q in grid.q_grid},
                delta_hi={q: 3.0 * q for q in grid.q_grid},
                sigma_bar=4.0,
            )
            want = enumerate_optimum(grid, rb, sub)
            if want is None or not math.isfinite(want[0]):
                continue
            strat, value = dp_optimize(grid, rb, sub)
            assert value == want[0]
            assert (strat.q, strat.n) == (want[2], want[3])
            checked += 1
            if checked >= 5:
                break
        assert checked >= 5

    def test_uncovered_robust_threshold_is_named(self):
        grid = PlanningGrid(q_grid=(2, 5, 8), n_grid=(3, 9), budget=100, levels=3)
        rb = RobustBounds(delta_lo={2: 1.0}, delta_hi={2: 4.0}, sigma_bar=2.0)
        sub = SubGammaParams()
        with pytest.raises(InvalidParameterError, match="q=5"):
            dp_optimize(grid, rb, sub)
        with pytest.raises(InvalidParameterError, match="q=5"):
            strategy_bound(Strategy(q=(8, 5, 2), n=(0, 3, 9, 12)), rb, sub, grid)
        # an L = 2 plan stops at no interior threshold, yet its table spans
        # the whole grid
        two = PlanningGrid(q_grid=(2, 5, 8), n_grid=(3, 9), budget=100, levels=2)
        with pytest.raises(InvalidParameterError, match="q=5"):
            dp_optimize(two, rb, sub)

    def test_strategy_bound_is_the_bounds_module_value(self):
        # one summation serves the planner and the public bound of both
        # target kinds, bitwise
        from esscreen.bounds import F_p

        sub = SubGammaParams(c=0.3, p=1.0)
        rng = substream(23, 3)
        for _ in range(10):
            grid, theta = random_small_grid(rng)
            rb = RobustBounds(
                delta_lo={q: 0.5 * q for q in grid.q_grid},
                delta_hi={q: 3.0 * q for q in grid.q_grid},
                sigma_bar=4.0,
            )
            for _ in range(20):
                inner = rng.choice(grid.q_grid, size=grid.levels - 2)
                inner = sorted(inner, reverse=True)
                q = (grid.n_s, *inner, grid.n_w)
                n = (0, *sorted(rng.choice(grid.n_grid, size=grid.levels)))
                strat = Strategy(q=q, n=n)
                assert F_p(strat, theta, sub) == strategy_bound(strat, theta, sub, grid)
                assert F_p(strat, rb, sub) == strategy_bound(strat, rb, sub, grid)

    def test_budget_too_small_is_infeasible(self):
        grid = PlanningGrid(q_grid=(2, 5, 8), n_grid=(3, 9), budget=10, levels=2)
        theta = ScenarioParams(mu=-np.arange(1.0, 9.0), sigma=np.eye(8))
        with pytest.raises(InfeasiblePlanError):
            dp_optimize(grid, theta, SubGammaParams())

    def test_output_obeys_invariants_and_budget(self):
        sub = SubGammaParams(c=0.0, p=1.0)
        rng = substream(23, 2)
        for _ in range(10):
            grid, theta = random_small_grid(rng)
            try:
                strat, value = dp_optimize(grid, theta, sub)
            except InfeasiblePlanError:
                continue
            assert cost(strat) <= grid.budget
            assert strat.q[0] == grid.n_s and strat.n_w == grid.n_w
            assert math.isfinite(value)

    def test_paper_scale_beats_uniform(self):
        # Table-size problem: the planned strategy's bound must not exceed
        # the uniform benchmark's at equal budget.
        theta = paper_theta(general=False)
        sub = SubGammaParams(c=0.0, p=1.0)
        grid = paper_grid(4)
        strat, value = dp_optimize(grid, theta, sub)
        assert cost(strat) <= 10**7
        n1 = 10**7 // 253
        uniform = Strategy(q=(253, 6), n=(0, n1 - 1, n1))
        assert value <= strategy_bound(uniform, theta, sub, grid)


    def test_one_selection_row_per_path_count(self, monkeypatch):
        # work guard: one kernel call builds the row of every distinct N of
        # a table, not one call per N or per (q_prev, q_next, N) triple, and
        # the DPs at L = 3, 4 and 5 on one target share that table and its
        # bound-to-go in any order; another sub or grid rebuilds them, and a
        # target changed in place never plans from stale tables.  No timing
        # is asserted
        from esscreen.bounds import selection_term

        calls = []

        def counting(*args):
            calls.append(args[0])
            return selection_term(*args)

        monkeypatch.setattr(esscreen.planner, "selection_term", counting)
        sub = SubGammaParams()
        grids = {levels: paper_grid(levels) for levels in (3, 4, 5)}
        theta = paper_theta(general=False)
        fresh = {}
        for levels, grid in grids.items():
            fresh[levels] = dp_optimize(grid, ScenarioParams(theta.mu, theta.sigma), sub)
        calls.clear()
        for levels, grid in grids.items():
            assert dp_optimize(grid, theta, sub) == fresh[levels]
        assert len(calls) == 1 and calls[0].tolist() == list(PAPER_N_GRID)
        calls.clear()
        strat, value = fresh[5]
        assert strategy_bound(strat, theta, sub, grids[5]) == value
        assert len(calls) == 1 and calls[0].tolist() == sorted(set(strat.n[1:-1]))
        for order in itertools.permutations(grids):
            target = ScenarioParams(theta.mu, theta.sigma)
            assert [dp_optimize(grids[lv], target, sub) for lv in order] == [
                fresh[lv] for lv in order
            ]
        # another sub, q_grid or n_grid: new tables, and the fresh target's plan
        others = [
            (grids[4], SubGammaParams(c=50.0)),
            (PlanningGrid(PAPER_Q_GRID[:1] + PAPER_Q_GRID[2:], PAPER_N_GRID, 10**7, 4), sub),
            (PlanningGrid(PAPER_Q_GRID, PAPER_N_GRID[1:], 10**7, 4), sub),
        ]
        for grid, other in others:
            calls.clear()
            want = dp_optimize(grid, ScenarioParams(theta.mu, theta.sigma), other)
            assert dp_optimize(grid, theta, other) == want and len(calls) == 2
        # changed in place: the plan of a fresh copy, never the stale one
        theta.mu[:] = theta.mu * 0.5
        want = dp_optimize(grids[4], ScenarioParams(theta.mu.copy(), theta.sigma), sub)
        assert want != fresh[4] and dp_optimize(grids[4], theta, sub) == want
        stale, theta.sigma[:6] = want, theta.sigma[:6] * 0.25
        theta.sigma[:, :6] = theta.sigma[:6].T
        want = dp_optimize(grids[4], ScenarioParams(theta.mu, theta.sigma.copy()), sub)
        assert want != stale and dp_optimize(grids[4], theta, sub) == want
        # the snapshot holds what the tables read of sigma: its diagonal and
        # first n_w rows; the other entries leave every term as it was
        other = theta.sigma.copy()
        other[6:, 6:] += 1.0 - np.eye(253 - 6)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(
                level_terms(theta, sub, 6, 253, PAPER_Q_GRID, PAPER_N_GRID, selection_term),
                level_terms(
                    ScenarioParams(theta.mu, other), sub, 6, 253, PAPER_Q_GRID,
                    PAPER_N_GRID, selection_term,
                ),
            )
        )
        grid = PlanningGrid(q_grid=(2, 4, 7, 10), n_grid=(3, 9, 20), budget=300, levels=4)
        rb = RobustBounds({q: 1.0 for q in grid.q_grid}, {q: 6.0 for q in grid.q_grid}, 3.0)
        stale = dp_optimize(grid, rb, sub)
        rb.delta_hi[4] = rb.delta_lo[4] = 0.01
        want = dp_optimize(grid, RobustBounds(rb.delta_lo, rb.delta_hi, 3.0), sub)
        assert want != stale and dp_optimize(grid, rb, sub) == want

    def test_threads_planning_on_one_target_get_fresh_plans(self):
        # the tables kept on a target serve concurrent DPs at several level
        # counts: a thread that races another's build or extension of the
        # bound-to-go still gets the plans of fresh targets
        sub = SubGammaParams()
        theta = paper_theta(general=False)
        grids = [paper_grid(levels) for levels in (3, 4, 5)]
        want = {i: dp_optimize(g, ScenarioParams(theta.mu, theta.sigma), sub)
                for i, g in enumerate(grids)}
        got, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                target = ScenarioParams(theta.mu, theta.sigma)

                def plan(shift):
                    order = [(i + shift) % 3 for i in range(3)]
                    got.append({i: dp_optimize(grids[i], target, sub) for i in order})

                threads = [threading.Thread(target=plan, args=(t,)) for t in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 18 and all(plans == want for plans in got)

    def test_memory_is_bounded_by_the_pruned_level(self):
        # memory guard: a level expands only the (label, N') pairs that the
        # bound-to-go keeps, so the peak (under 2 MiB, tables included) stays
        # far below what the 118,581 candidates of an unpruned L=5 plan take
        theta = paper_theta(general=False)
        for levels in (3, 4, 5):
            tracemalloc.start()
            try:
                dp_optimize(paper_grid(levels), theta, SubGammaParams())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * 2**20, (levels, peak)

    def test_incumbent_prunes_half_the_frontier_input(self, monkeypatch):
        # work guard: candidates whose prefix plus the bound-to-go exceeds
        # the incumbent never reach the frontier (118,581 did on the paper
        # L=5 grid without an incumbent, 47,495 with the prefix test alone,
        # 19,937 with the old tail bound, 4,027 with the bound-to-go)
        frontier = esscreen.planner._pareto_frontier
        sizes = []

        def counting(node, *args):
            sizes.append(node.size)
            return frontier(node, *args)

        monkeypatch.setattr(esscreen.planner, "_pareto_frontier", counting)
        dp_optimize(paper_grid(5), paper_theta(general=False), SubGammaParams())
        assert 0 < sum(sizes) <= 4_100, sizes

    def test_paper_level_counts(self, caplog):
        # work guard: the paper-equi L=5 DP's DEBUG counts per level, so
        # that a weaker bound-to-go (or an unsound, stronger one) fails
        # whatever the timing noise; columns are expanded, pruned, bounded,
        # dominated and kept
        with caplog.at_level(logging.DEBUG, logger="esscreen.planner"):
            dp_optimize(paper_grid(5), paper_theta(general=False), SubGammaParams())
        columns = ("expanded", "pruned", "bounded", "dominated", "kept")
        records = [r.dp_level for r in caplog.records if hasattr(r, "dp_level")]
        assert [tuple(r[k] for k in columns) for r in records] == [
            (126, 0, 0, 0, 126),
            (7960, 3495, 740, 2583, 1142),
            (52091, 13069, 38847, 140, 35),
            (163, 0, 162, 0, 1),
        ]

    def test_every_level_calls_the_frontier_once(self, monkeypatch, caplog):
        # tight budgets and robust brackets: the bound-to-go drops every
        # candidate of some (label, N') pairs, and some plans run out of
        # candidates; each level still makes one frontier call, never with
        # an empty input, and the plan is the frozen planner's
        frontier = esscreen.planner._pareto_frontier
        calls = []

        def counting_frontier(node, *args):
            assert node.size > 0
            calls.append(node.size)
            return frontier(node, *args)

        monkeypatch.setattr(esscreen.planner, "_pareto_frontier", counting_frontier)
        rng = substream(23, 16)
        dropped = feasible = 0
        for trial in range(120):
            grid, _ = random_small_grid(rng)
            grid = PlanningGrid(
                q_grid=grid.q_grid,
                n_grid=grid.n_grid,
                budget=max(1, int(grid.budget * rng.uniform(0.05, 1.0))),
                levels=int(rng.integers(3, 6)),
            )
            c, p = [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0), (2.0, 1.0)][trial % 4]
            calls.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="esscreen.planner"):
                found = assert_matches_frozen(
                    grid, random_robust_bounds(grid, rng), SubGammaParams(c=c, p=p)
                )
            records = [r.dp_level for r in caplog.records if hasattr(r, "dp_level")]
            assert len(calls) == len(records)
            if found:
                assert len(calls) == grid.levels - 1
            feasible += found
            dropped += any(r["pruned"] + r["bounded"] for r in records)
        assert feasible >= 40 and dropped >= 20

    @pytest.mark.parametrize("levels", [3, 4])
    def test_optimum_ties_the_incumbent(self, levels, caplog):
        # zero variances and c = 0: every selection and Monte Carlo term is
        # exactly 0, so every plan ties the first incumbent and every
        # candidate equals it; the cheapest plan stops with N_{L-1} = N_{L-2}
        # and the tie order (value, cost, q, N) picks among the rest
        theta = ScenarioParams(mu=-2.0 * np.arange(1.0, 9.0), sigma=np.zeros((8, 8)))
        sub = SubGammaParams()
        grid = PlanningGrid(
            q_grid=(2, 3, 5, 8), n_grid=(4, 9, 30), budget=10**4, levels=levels
        )
        want = enumerate_optimum(grid, theta, sub)
        with caplog.at_level(logging.DEBUG, logger="esscreen.planner"):
            strat, value = dp_optimize(grid, theta, sub)
        assert (value, cost(strat), strat.q, strat.n) == want
        assert value == 0.0 and strat.n[-2] == strat.n[-3]
        dearer = Strategy(q=strat.q, n=(*strat.n[:-1], 30))
        assert strategy_bound(dearer, theta, sub, grid) == value
        assert cost(dearer) > cost(strat)
        last = [r.dp_level for r in caplog.records if hasattr(r, "dp_level")][-1]
        assert last["incumbent"] == value and last["pruned"] == 0
        assert assert_matches_frozen(grid, theta, sub)

    @pytest.mark.parametrize("levels", [3, 4, 5])
    def test_negative_terms_get_no_incumbent(self, levels):
        # impacts in increasing order give negative selection terms, where a
        # prefix above a completed plan may still end below it
        rng = substream(23, 15)
        checked = 0
        for _ in range(10):
            grid, theta = random_small_grid(rng)
            grid = PlanningGrid(
                q_grid=grid.q_grid,
                n_grid=grid.n_grid,
                budget=grid.budget,
                levels=levels,
            )
            flipped = ScenarioParams(mu=theta.mu[::-1].copy(), sigma=theta.sigma)
            want = enumerate_optimum(grid, flipped, SubGammaParams())
            if want is None or not math.isfinite(want[0]):
                continue
            strat, value = dp_optimize(grid, flipped, SubGammaParams())
            assert (value, cost(strat), strat.q, strat.n) == want
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("general", [False, True], ids=["equi", "iw"])
    def test_trace_accounts_for_every_candidate(self, general, monkeypatch, caplog):
        # one DEBUG record per level: expanded = pruned + bounded +
        # dominated + kept, with the frontier's own input and output
        # counted independently
        frontier = esscreen.planner._pareto_frontier
        seen = []

        def counting(node, *args):
            keep = frontier(node, *args)
            seen.append((node.size, keep.size))
            return keep

        monkeypatch.setattr(esscreen.planner, "_pareto_frontier", counting)
        grid = paper_grid(5)
        with caplog.at_level(logging.DEBUG, logger="esscreen.planner"):
            _, value = dp_optimize(grid, paper_theta(general), SubGammaParams())
        records = [r.dp_level for r in caplog.records if r.name == "esscreen.planner"]
        assert [r["level"] for r in records] == list(range(1, grid.levels))
        for r in records:
            assert r["expanded"] == (
                r["pruned"] + r["bounded"] + r["dominated"] + r["kept"]
            )
            assert min(r["pruned"], r["bounded"], r["dominated"], r["kept"]) >= 0
        assert sum(r["expanded"] - r["pruned"] - r["bounded"] for r in records) == sum(
            n for n, _ in seen
        )
        assert sum(r["kept"] for r in records) == sum(k for _, k in seen)
        assert len(seen) == grid.levels - 1
        bounds = [r["incumbent"] for r in records]
        assert bounds[0] == math.inf and records[0]["pruned"] == 0
        assert records[0]["bounded"] == 0
        assert all(a >= b for a, b in zip(bounds, bounds[1:])) and bounds[-1] >= value
        assert sum(r["pruned"] for r in records) > 0
        assert sum(r["bounded"] for r in records) > 0
        json.dumps(records)

    def test_no_trace_when_debug_is_off(self, caplog):
        with caplog.at_level(logging.INFO, logger="esscreen.planner"):
            dp_optimize(paper_grid(3), paper_theta(general=False), SubGammaParams())
        assert not [r for r in caplog.records if r.name == "esscreen.planner"]

    @pytest.mark.parametrize("width", [15, 25])
    def test_theta_and_grid_must_agree_on_n_s(self, width):
        # a narrower grid used to plan on the first scenarios only, a wider
        # one to fail with an IndexError
        theta = ScenarioParams(mu=-np.arange(1.0, 21.0), sigma=np.eye(20))
        grid = PlanningGrid(q_grid=(2, 8, width), n_grid=(3, 9), budget=500, levels=3)
        strat = Strategy(q=(width, 8, 2), n=(0, 3, 9, 12))
        with pytest.raises(InvalidParameterError, match=rf"n_s=20.*n_s={width}"):
            dp_optimize(grid, theta, SubGammaParams())
        with pytest.raises(InvalidParameterError, match=rf"n_s=20.*n_s={width}"):
            strategy_bound(strat, theta, SubGammaParams(), grid)


class TestHeuristicNumeric:
    def _hp(self, c):
        return HeuristicParams(
            delta0=2766.0,
            sigma_bar=math.sqrt(2 * (1 - 0.6)) * 2.2e6,
            c=c,
            budget=1e7,
            n2=100_000,
            n_s=253,
            n_w=6,
            p=1.0,
        )

    def test_reference_solution(self):
        # The tabulated reference optimum (71, 15934) corresponds to a scale
        # constant equal to the per-scenario sigma; the c = 0 variant of the
        # same objective has its exact optimum at (72, 15469).
        q1, n1 = heuristic_numeric(self._hp(c=2.2e6))
        assert (q1, n1) == (71, 15934)
        q1_c0, n1_c0 = heuristic_numeric(self._hp(c=0.0))
        assert (q1_c0, n1_c0) == (72, 15469)

    def test_matches_dense_scan(self):
        hp = self._hp(c=0.0)
        qs = range(6, int(min(253, 1e7 // 1e5)) + 1)
        dense = min(qs, key=lambda q: (h0(hp, q), q))
        assert heuristic_numeric(hp)[0] == dense

    def test_huge_slope_selects_minimum_width(self):
        hp = HeuristicParams(
            delta0=1e15,
            sigma_bar=1.0,
            c=0.0,
            budget=1e6,
            n2=1000,
            n_s=50,
            n_w=4,
        )
        q1, _ = heuristic_numeric(hp)
        assert q1 == 4

    def test_infeasible_rejected(self):
        with pytest.raises(InvalidParameterError):
            HeuristicParams(
                delta0=1.0, sigma_bar=1.0, c=0.0, budget=10, n2=100, n_s=5, n_w=2
            )


class TestHeuristicClosedForm:
    def _hp(self, c):
        return HeuristicParams(
            delta0=2766.0,
            sigma_bar=math.sqrt(0.8) * 2.2e6,
            c=c,
            budget=1e7,
            n2=100_000,
            n_s=253,
            n_w=6,
        )

    def test_candidates_reference_values(self):
        # With the per-scenario sigma as scale constant the candidates match
        # the tabulated reference (52.41, 68.33); at c = 0 the envelope
        # candidate is exactly 52.5 and the variance candidate is unchanged.
        sol = heuristic_closed_form(self._hp(c=2.2e6))
        assert sol.q1_12star == pytest.approx(52.415, abs=5e-3)
        assert sol.q1_2star == pytest.approx(68.333, abs=5e-3)
        sol0 = heuristic_closed_form(self._hp(c=0.0))
        assert sol0.q1_12star == pytest.approx(52.5, abs=1e-9)
        assert sol0.q1_2star == pytest.approx(68.3333, abs=1e-3)

    def test_fast_path_counts_reference_values(self):
        sol = heuristic_closed_form(self._hp(c=2.2e6))
        hp = self._hp(c=2.2e6)
        n1_12 = (hp.budget - sol.q1_12star * hp.n2) / (hp.n_s - sol.q1_12star)
        n1_2 = (hp.budget - sol.q1_2star * hp.n2) / (hp.n_s - sol.q1_2star)
        assert int(n1_12) == 23723
        assert int(n1_2) == 17148

    def test_zero_c_dispatches_to_variance_candidate(self):
        sol = heuristic_closed_form(self._hp(c=0.0))
        assert sol.b == math.inf
        assert sol.q1_real == sol.q1_2star
        assert sol.q1 == 68
        assert sol.n1 == 17297  # (1e7 - 68e5) // (253 - 68)

    def test_no_slack_forces_n_w(self):
        hp = HeuristicParams(
            delta0=5.0, sigma_bar=3.0, c=0.0, budget=6 * 1000, n2=1000, n_s=30, n_w=6
        )
        sol = heuristic_closed_form(hp)
        assert sol.q1 == 6

    def test_near_optimality_of_proxy(self):
        # The objective decays exponentially (values around 1e-20 at table
        # scale), so raw value ratios between neighbouring integers are
        # meaningless; near-optimality is measured on the exponent: the
        # table's choice must be within 5% of the dense-scan optimum in
        # |log h0|.
        for c in (0.0, 1e5, 2.2e6):
            hp = self._hp(c)
            sol = heuristic_closed_form(hp)
            qs = range(6, int(min(253, hp.budget // hp.n2)) + 1)
            best = min(h0(hp, q) for q in qs)
            assert abs(math.log(h0(hp, sol.q1))) <= 1.05 * abs(math.log(best))

    def test_rejects_other_orders(self):
        hp = HeuristicParams(
            delta0=1.0, sigma_bar=1.0, c=0.0, budget=1e5, n2=100, n_s=20, n_w=3, p=2.0
        )
        with pytest.raises(InvalidParameterError):
            heuristic_closed_form(hp)

    def test_executable_schedule(self):
        strat = heuristic_strategy(self._hp(c=0.0))
        assert strat.q == (253, 68, 6)
        assert strat.n == (0, 17297, 100_000, 100_000)
        assert cost(strat) == 9_999_945 <= 1e7


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0, -100])
def test_planning_grid_rejects_a_bad_budget(budget):
    # every ``spent > budget`` test is False for a nan budget, so an
    # unchecked nan would let dp_optimize return a plan of any cost
    with pytest.raises(InvalidParameterError, match="budget"):
        PlanningGrid(q_grid=(2, 5, 10), n_grid=(10, 20), budget=budget, levels=3)


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0.0, -1e6])
def test_heuristic_params_reject_a_bad_budget(budget):
    with pytest.raises(InvalidParameterError, match="budget"):
        HeuristicParams(
            delta0=1.0, sigma_bar=1.0, c=0.0, budget=budget, n2=100, n_s=20, n_w=3
        )


def test_closed_form_clamps_to_a_finite_objective():
    # q2* = 68 lies above n_s = 50; clamped to n_s it divided by n_s - q1 = 0
    hp = HeuristicParams(
        delta0=1, sigma_bar=2, c=0, budget=1e5, n2=1000, n_s=50, n_w=5
    )
    assert heuristic_numeric(hp) == (6, 2136)
    sol = heuristic_closed_form(hp)
    assert (sol.q1_2star, sol.q1, sol.n1) == (68.0, 49, 51_000)
    assert math.isfinite(h0(hp, sol.q1))


def test_huge_sigma_bar_is_no_bare_error():
    # squares with float ** raised a bare OverflowError above about 1.3e154;
    # a product is inf there, whose kernel is 1, as it is at 1e100
    kw = dict(delta0=1, c=0, budget=1e5, n2=1000, n_s=50, n_w=5)
    want = heuristic_numeric(HeuristicParams(sigma_bar=1e100, **kw))
    assert heuristic_numeric(HeuristicParams(sigma_bar=1e200, **kw)) == want
    scaled = HeuristicParams(**{**kw, "c": 1.0, "sigma_bar": 1e200})
    assert heuristic_closed_form(scaled).b == math.inf
    wide = HeuristicParams(**{**kw, "sigma_bar": 1.0, "budget": 1e300, "n2": 1})
    assert heuristic_closed_form(wide).delta == math.inf
    # a robust plan keeps a finite bound at p = 1; at p = 2 its Monte Carlo
    # terms are inf and no plan has a finite bound
    grid = PlanningGrid(q_grid=(2, 5, 8), n_grid=(3, 9, 30), budget=200, levels=3)
    lo, hi = ({q: f * q for q in grid.q_grid} for f in (0.5, 3.0))
    rb = RobustBounds(delta_lo=lo, delta_hi=hi, sigma_bar=1e200)
    strat, value = dp_optimize(grid, rb, SubGammaParams(c=1.0))
    assert math.isfinite(value)
    assert strategy_bound(strat, rb, SubGammaParams(c=1.0), grid) == value
    with pytest.raises(InfeasiblePlanError, match="finite bound"):
        dp_optimize(grid, rb, SubGammaParams(c=1.0, p=2.0))


def test_huge_scale_constant_is_no_bare_error():
    # c**p raised a bare OverflowError above about 1.3e154 at p = 2; the
    # Monte Carlo terms are inf there, so no plan has a finite bound
    grid = PlanningGrid(q_grid=(2, 5, 8), n_grid=(3, 9, 30), budget=200, levels=3)
    lo, hi = ({q: f * q for q in grid.q_grid} for f in (0.5, 3.0))
    rb = RobustBounds(delta_lo=lo, delta_hi=hi, sigma_bar=1.0)
    with pytest.raises(InfeasiblePlanError, match="finite bound"):
        dp_optimize(grid, rb, SubGammaParams(c=1e200, p=2.0))


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("n2", 0, "n2 >= 1"),
        ("n2", -5, "n2 >= 1"),
        ("n_w", 0, "n_w"),
        ("n_w", 50, "n_w < n_s"),
        ("sigma_bar", -1.0, "sigma_bar"),
        ("sigma_bar", math.inf, "sigma_bar"),
        ("sigma_bar", math.nan, "sigma_bar"),
        ("c", -0.5, "c >= 0"),
        ("p", 0.5, "p >= 1"),
        ("delta0", math.inf, "delta0"),
        ("n2", 1000.0, "n2 must be an integer"),
        ("n_s", 50.5, "n_s must be an integer"),
        ("n_w", True, "n_w must be an integer"),
    ],
)
def test_heuristic_params_reject_bad_counts_and_constants(field, value, match):
    # each of these used to raise ZeroDivisionError or plan q1 < 0
    good = dict(delta0=1, sigma_bar=2, c=0, budget=1e5, n2=1000, n_s=50, n_w=5)
    with pytest.raises(InvalidParameterError, match=match):
        HeuristicParams(**{**good, field: value})


@pytest.mark.parametrize(
    "q_grid,levels,match",
    [
        ((0, 3, 8), 3, "n_w"),
        ((-1, 3, 8), 3, "n_w"),
        ((), 3, "non-empty"),
        ((2, 3, 8), 2.5, "levels"),
        ((2, 3, 8), "3", "levels"),
        ((2, 3, 8), 1, "levels"),
    ],
)
def test_planning_grid_rejects_bad_thresholds_and_levels(q_grid, levels, match):
    with pytest.raises(InvalidParameterError, match=match):
        PlanningGrid(q_grid=q_grid, n_grid=(10, 20), budget=100, levels=levels)


@pytest.mark.parametrize(
    "q_grid,n_grid,match",
    [
        ((2.7, 10), (5, 10), "q_grid"),
        ((2, 10), (5.9, 10), "n_grid"),
        ((2, 10), (5, 10, True), "n_grid"),
        ((False, 10), (5, 10), "q_grid"),
        ((2, "10"), (5, 10), "q_grid"),
        (10, (5, 10), "q_grid"),
    ],
)
def test_planning_grid_rejects_non_integer_entries(q_grid, n_grid, match):
    # these used to be truncated silently: (2.7, 10) planned on (2, 10)
    with pytest.raises(InvalidParameterError, match=match):
        PlanningGrid(q_grid=q_grid, n_grid=n_grid, budget=100, levels=3)


def test_planning_grid_accepts_numpy_integer_levels():
    grid = PlanningGrid(q_grid=(2, 5), n_grid=(10, 20), budget=100, levels=np.int64(3))
    assert grid.levels == 3 and type(grid.levels) is int
    grid = PlanningGrid(
        q_grid=np.array([5, 2]), n_grid=(np.int32(20), 10), budget=100, levels=3
    )
    assert grid.q_grid == (2, 5) and grid.n_grid == (10, 20)
    assert all(type(v) is int for v in grid.q_grid + grid.n_grid)


def test_objective_vanishes_with_budget():
    vals = []
    for k in (1e4, 3e4, 1e5, 1e6):
        vals.append(
            h0(
                HeuristicParams(
                    delta0=0.05, sigma_bar=5.0, c=0.3, budget=k, n2=100, n_s=40, n_w=4
                ),
                10,
            )
        )
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-30


def test_plan_json_roundtrip(tmp_path):
    s = Strategy(q=(253, 35, 10, 6), n=(0, 6000, 44000, 44000, 1235666))
    text = plan_to_json(s, f_value=123.5)
    s2, f = plan_from_json(text)
    assert s2 == s and f == 123.5
    assert plan_from_json(plan_to_json(s)) == (s, None)
    assert plan_from_json(plan_to_json(s, f_value=math.inf)) == (s, math.inf)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "{",
        "[1, 2]",
        '"plan"',
        '{"N": [0, 1]}',
        '{"q": [1]}',
        '{"q": 3, "N": [0, 1]}',
        '{"q": [3, 1], "N": "ab"}',
        '{"q": [3, 1], "N": [0, 1.5, 2]}',
        '{"q": [3, true], "N": [0, 1, 2]}',
        '{"q": [3, 1], "N": [0, 1, 2], "F_value": "x"}',
        '{"q": [3, 1], "N": [0, 1, 2], "F_value": true}',
        '{"q": [3, 1], "N": [0, 1, 2], "F_value": [1.0]}',
    ],
)
def test_plan_from_json_rejects_a_malformed_document(text):
    # these used to raise a bare KeyError, TypeError or ValueError, or load
    with pytest.raises(InvalidStrategyError):
        plan_from_json(text)
