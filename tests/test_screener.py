"""Screening estimator: cost, ranking, the level recursion and its oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esscreen.errors import InvalidParameterError, InvalidStrategyError
from esscreen import model, screener
from esscreen.model import (
    EquicorrelatedSpec,
    ScenarioParams,
    simulate_prices,
    synthetic_book,
)
from esscreen.screener import (
    CHUNK_PRICINGS,
    GaussianSource,
    Strategy,
    correct_selection,
    cost,
    exact_es,
    fold_rows,
    rank_select,
    run_screening,
    worst_indexes,
)
from esscreen.planner import plan_from_json, plan_to_json
from esscreen.streams import substream


class TestStrategy:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidStrategyError):
            Strategy(q=(10, 4), n=(0, 5))  # n too short
        with pytest.raises(InvalidStrategyError):
            Strategy(q=(10, 4), n=(1, 5, 9))  # n[0] != 0
        with pytest.raises(InvalidStrategyError):
            Strategy(q=(4, 10), n=(0, 5, 9))  # q increasing
        with pytest.raises(InvalidStrategyError):
            Strategy(q=(10, 4), n=(0, 9, 5))  # n decreasing

    def test_roundtrip(self):
        s = Strategy(q=(253, 35, 10, 6), n=(0, 6000, 44000, 44000, 1235666))
        assert plan_from_json(plan_to_json(s)) == (s, None)

    @pytest.mark.parametrize(
        "q,n",
        [
            ((3, 1.5), (0, 1, 2)),
            ((3, 1), (0, 1.9, 2)),
            ((3, 1), (0, True, 2)),
            ((3.0, 1), (0, 1, 2)),
            ((3, "1"), (0, 1, 2)),
            (3, (0, 1)),
            ((3, 1), None),
        ],
    )
    def test_non_integer_entries_rejected(self, q, n):
        # these used to be truncated silently: (3, 1.5) screened (3, 1)
        with pytest.raises(InvalidStrategyError, match="q|n"):
            Strategy(q=q, n=n)

    def test_numpy_integers_accepted(self):
        s = Strategy(q=np.array([3, 1]), n=(np.int32(0), np.int64(1), 2))
        assert s == Strategy(q=(3, 1), n=(0, 1, 2))
        assert all(type(v) is int for v in s.q + s.n)


class TestCost:
    def test_heuristic_schedule(self):
        s = Strategy(q=(253, 68, 6), n=(0, 17297, 100000, 100000))
        assert cost(s) == 253 * 17297 + 68 * 82703 == 9_999_945

    def test_dp_schedule(self):
        s = Strategy(q=(253, 35, 10, 6), n=(0, 6000, 44000, 44000, 1235666))
        assert cost(s) == 1_518_000 + 1_330_000 + 0 + 7_149_996 == 9_997_996

    def test_zero_increments(self):
        s = Strategy(q=(5, 2), n=(0, 0, 0))
        assert cost(s) == 0


class TestRankSelect:
    def test_tie_breaks_to_lower_index(self):
        est = np.array([3.0, 5.0, 5.0, 1.0])
        idx = np.array([1, 2, 3, 4])
        np.testing.assert_array_equal(rank_select(est, idx, 1), [2])

    def test_keep_three(self):
        est = np.array([3.0, 5.0, 5.0, 1.0])
        idx = np.array([1, 2, 3, 4])
        np.testing.assert_array_equal(rank_select(est, idx, 3), [2, 3, 1])

    def test_keep_all_is_sorted_identity(self):
        est = np.array([3.0, 5.0, 5.0, 1.0])
        idx = np.array([1, 2, 3, 4])
        np.testing.assert_array_equal(rank_select(est, idx, 4), [2, 3, 1, 4])

    def test_keep_too_many_rejected(self):
        with pytest.raises(InvalidParameterError):
            rank_select(np.zeros(3), np.arange(3), 4)

    @pytest.mark.parametrize("keep", [-1, -3])
    def test_negative_keep_rejected(self, keep):
        # a negative count would slice from the end: all but the last |keep|
        with pytest.raises(InvalidParameterError, match="keep"):
            rank_select(np.array([3.0, 1.0, 2.0]), np.arange(3), keep)

    def test_keep_zero_is_empty(self):
        assert rank_select(np.array([3.0, 1.0]), np.arange(2), 0).size == 0

    @pytest.mark.parametrize("keep", [1.5, 2.0, True, np.float64(1.0), "1"])
    def test_non_integer_keep_rejected(self, keep):
        # a float fails inside the slice with a bare TypeError and a bool
        # counts as 0 or 1 unless they are rejected up front
        with pytest.raises(InvalidParameterError, match="keep"):
            rank_select(np.array([3.0, 1.0, 2.0]), np.arange(3), keep)

    def test_numpy_integer_keep_accepted(self):
        got = rank_select(np.array([3.0, 1.0, 2.0]), np.arange(3), np.int64(2))
        np.testing.assert_array_equal(got, [0, 2])

    @given(
        vals=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sort_oracle(self, vals, data):
        keep = data.draw(st.integers(1, len(vals)))
        est = np.array(vals, dtype=float)
        idx = np.arange(10, 10 + len(vals))
        oracle = [i for _, i in sorted(zip(est, idx), key=lambda t: (-t[0], t[1]))]
        np.testing.assert_array_equal(rank_select(est, idx, keep), oracle[:keep])

    @pytest.mark.parametrize("keep", [0, 1, 4, 9])
    def test_stacked_is_each_worlds_selection(self, keep):
        # one index set, a leading world axis on the estimates; integer
        # values make ties in every world
        est = substream(90, keep).integers(-2, 3, size=(7, 9)).astype(float)
        idx = np.array([0, 2, 3, 5, 8, 9, 11, 12, 20])
        got = rank_select(est, idx, keep)
        assert got.shape == (7, keep)
        for w in range(7):
            np.testing.assert_array_equal(got[w], rank_select(est[w], idx, keep))

    @pytest.mark.parametrize(
        "est, idx", [(np.zeros((2, 3)), np.zeros((2, 3))), (np.zeros(4), np.arange(3))]
    )
    def test_misaligned_index_set_rejected(self, est, idx):
        with pytest.raises(InvalidParameterError, match="align"):
            rank_select(est, idx, 1)


@pytest.mark.parametrize("keep", [9, 5, 2])
@pytest.mark.parametrize("n_prev", [0, 30])
def test_stacked_step_is_each_worlds_step(keep, n_prev):
    # S simulated batches from one entered set: every field of each world's
    # level equals the one-world step's, ties in the means included
    rng = substream(91, keep, n_prev)
    entered = np.array([1, 2, 4, 6, 7, 10, 11, 13, 15])
    sums = n_prev * rng.integers(-2, 3, size=9).astype(float)
    batch = rng.integers(-40, 40, size=(6, 9)).astype(float)
    scatter = rng.uniform(size=(6, 9))
    got = screener.step(entered, sums, n_prev, batch, scatter, 20, keep)
    for w in range(6):
        want = screener.step(entered, sums, n_prev, batch[w], scatter[w], 20, keep)
        np.testing.assert_array_equal(got.entered, want.entered)
        for name in ("kept", "sums", "mu_hat", "batch_mean", "scatter"):
            assert getattr(got, name)[w].tobytes() == getattr(want, name).tobytes()
        assert (got.dn, got.n_cum) == (want.dn, want.n_cum)


class TestExactEs:
    def test_linear_book(self):
        theta = ScenarioParams(mu=synthetic_book(3, 2766.0), sigma=np.zeros((3, 3)))
        assert exact_es(theta, 2) == pytest.approx(-4149.0)

    def test_full_width_is_mean(self):
        mu = np.array([4.0, -1.0, 3.0])
        theta = ScenarioParams(mu=mu, sigma=np.zeros((3, 3)))
        assert exact_es(theta, 3) == pytest.approx(mu.mean())

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=40)
        theta = ScenarioParams(mu=mu, sigma=np.zeros((40, 40)))
        assert exact_es(theta, 6) == pytest.approx(np.sort(mu)[::-1][:6].mean())

    @pytest.mark.parametrize("n_w", [0, -2, 4])
    def test_bad_window_rejected(self, n_w):
        # 0 would average an empty set (nan), -2 the top n_s - 2 impacts
        theta = ScenarioParams(mu=np.array([3.0, 1.0, 2.0]), sigma=np.zeros((3, 3)))
        with pytest.raises(InvalidParameterError, match="n_w"):
            exact_es(theta, n_w)

    @pytest.mark.parametrize("n_w", [1.5, 2.0, True, False, np.float64(2.0)])
    def test_non_integer_window_rejected(self, n_w):
        # a float or a bool is no window: exact_es(theta, 2.0) would fail
        # with a bare TypeError and worst_indexes(mu, True) return [0]
        theta = ScenarioParams(mu=np.array([3.0, 1.0, 2.0]), sigma=np.zeros((3, 3)))
        with pytest.raises(InvalidParameterError, match="n_w"):
            exact_es(theta, n_w)
        with pytest.raises(InvalidParameterError, match="n_w"):
            worst_indexes(theta.mu, n_w)
        run = run_screening(
            Strategy(q=(3, 1), n=(0, 1, 2)), GaussianSource(theta, substream(7, 1))
        )
        with pytest.raises(InvalidParameterError, match="n_w"):
            correct_selection(run, theta, n_w)

    def test_numpy_integer_window_accepted(self):
        theta = ScenarioParams(mu=np.array([3.0, 1.0, 2.0]), sigma=np.zeros((3, 3)))
        assert exact_es(theta, np.int64(2)) == 2.5
        assert worst_indexes(theta.mu, np.int32(2)).tolist() == [0, 2]

    @pytest.mark.parametrize("n_w", [0, -1])
    def test_worst_indexes_and_correct_selection_reject_a_window_below_one(
        self, n_w
    ):
        theta = ScenarioParams(mu=np.array([3.0, 1.0, 2.0]), sigma=np.zeros((3, 3)))
        with pytest.raises(InvalidParameterError, match="n_w"):
            worst_indexes(theta.mu, n_w)
        run = run_screening(
            Strategy(q=(3, 1), n=(0, 1, 2)), GaussianSource(theta, substream(7, 1))
        )
        with pytest.raises(InvalidParameterError, match="n_w"):
            correct_selection(run, theta, n_w)


def _equi_theta(n_s=8, delta0=10.0, sigma=4.0, rho=0.3):
    return ScenarioParams.equicorrelated(
        synthetic_book(n_s, delta0), EquicorrelatedSpec(sigma, rho)
    )


class TestRunScreening:
    def test_zero_variance_is_exact(self):
        mu = synthetic_book(10, 3.0)
        theta = ScenarioParams(mu=mu, sigma=np.zeros((10, 10)))
        s = Strategy(q=(10, 5, 3), n=(0, 2, 4, 8))
        run = run_screening(s, GaussianSource(theta, substream(0, 0)))
        assert run.es_hat == pytest.approx(exact_es(theta, 3))
        assert correct_selection(run, theta, 3)

    def test_survivor_sets_nested_with_exact_sizes(self):
        theta = _equi_theta(12)
        s = Strategy(q=(12, 7, 4, 2), n=(0, 3, 6, 10, 20))
        run = run_screening(s, GaussianSource(theta, substream(1, 0)))
        sizes = [len(ix) for ix in run.survivors]
        assert sizes == [12, 7, 4, 2]
        for a, b in zip(run.survivors[1:], run.survivors):
            assert set(a).issubset(set(b))

    def test_budget_equals_cost(self):
        theta = _equi_theta(9)
        s = Strategy(q=(9, 4, 2), n=(0, 5, 11, 30))
        run = run_screening(s, GaussianSource(theta, substream(1, 1)))
        assert run.pricings == cost(s)

    def test_path_reuse_identity(self):
        # mu_hat_l * N_l == mu_hat_{l-1} * N_{l-1} + delta_mu * dN: every
        # level's means are the running sums divided by the cumulative count,
        # bitwise, so the same paths are provably reused across levels.
        theta = _equi_theta(8)
        s = Strategy(q=(8, 4, 2), n=(0, 4, 10, 22))
        run = run_screening(s, GaussianSource(theta, substream(1, 2)))
        for lvl, stats in enumerate(run.levels, start=1):
            entered, mu_hat = stats.entered, stats.mu_hat
            n_cum = s.n[lvl]
            kept = (
                run.survivors[lvl] if lvl < s.levels else np.empty(0, dtype=np.intp)
            )
            # a scenario's sums freeze at its last level, so exact equality
            # with the returned sums holds where this was the last level
            last_here = ~np.isin(entered, kept)
            np.testing.assert_array_equal(
                mu_hat[last_here], run.sums[entered[last_here]] / n_cum
            )
            assert run.counts[entered[last_here]].tolist() == [n_cum] * int(
                last_here.sum()
            )

    def test_replay_deterministic(self):
        theta = _equi_theta(8)
        s = Strategy(q=(8, 4, 2), n=(0, 4, 10, 22))
        a = run_screening(s, GaussianSource(theta, substream(5, 0)))
        b = run_screening(s, GaussianSource(theta, substream(5, 0)))
        assert a.es_hat == b.es_hat
        for x, y in zip(a.survivors, b.survivors):
            np.testing.assert_array_equal(x, y)

    def test_model_with_rng_is_a_gaussian_source(self):
        theta = _equi_theta(8)
        s = Strategy(q=(8, 4, 2), n=(0, 4, 10, 22))
        a = run_screening(s, theta, substream(5, 0))
        b = run_screening(s, GaussianSource(theta, substream(5, 0)))
        assert a.es_hat == b.es_hat and a.strategy == b.strategy
        np.testing.assert_array_equal(a.sums, b.sums)
        with pytest.raises(InvalidParameterError, match="rng"):
            run_screening(s, theta)

    def test_chunking_invariance(self, monkeypatch):
        # Chunked accumulation must not change the selections; the price
        # stream itself is chunk-independent because draws are per level.
        theta = _equi_theta(8)
        s = Strategy(q=(8, 4, 2), n=(0, 100, 300, 500))
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 7 * 8)  # 7 rows at width 8
        a = run_screening(s, _RowSource(theta, substream(5, 1)))
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 10_000 * 8)
        b = run_screening(s, _RowSource(theta, substream(5, 1)))
        np.testing.assert_array_equal(a.final_survivors, b.final_survivors)
        assert a.es_hat == pytest.approx(b.es_hat, rel=1e-12)

    def test_default_chunks_match_one_chunk_per_level_at_paper_width(
        self, monkeypatch
    ):
        # 253 columns: the default takes CHUNK_PRICINGS // 253 = 518 rows per
        # chunk, so every level here is merged from several chunks
        theta = ScenarioParams.equicorrelated(
            synthetic_book(253, 2766.0), EquicorrelatedSpec(2.2e6, 0.6)
        )
        s = Strategy(q=(253, 45, 15, 6), n=(0, 2000, 6000, 10_000, 20_000))
        a = run_screening(s, _RowSource(theta, substream(5, 2)))
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 10_000 * 253)
        b = run_screening(s, _RowSource(theta, substream(5, 2)))
        for x, y in zip(a.survivors, b.survivors):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_allclose(a.sums, b.sums, rtol=1e-12, atol=0)
        assert a.es_hat == pytest.approx(b.es_hat, rel=1e-12)

    def test_uniform_one_level_form(self):
        # One pricing level plus a reusing final level: the estimate is the
        # mean of the n_w largest single-level Monte Carlo means.
        theta = _equi_theta(9)
        s = Strategy(q=(9, 3), n=(0, 50, 50))
        run = run_screening(s, GaussianSource(theta, substream(6, 0)))
        x = simulate_prices(theta, 50, substream(6, 0))
        means = x.mean(axis=0)
        top = np.sort(means)[::-1][:3]
        assert run.es_hat == pytest.approx(top.mean(), rel=1e-12)

    def test_zero_delta_n_reuses_previous_level(self):
        theta = _equi_theta(6)
        s = Strategy(q=(6, 3, 2), n=(0, 8, 8, 16))  # dN_2 == 0
        run = run_screening(s, GaussianSource(theta, substream(6, 1)))
        (e1, m1), (e2, m2), _ = [(st.entered, st.mu_hat) for st in run.levels]
        pos = np.searchsorted(e1, e2)
        np.testing.assert_array_equal(m2, m1[pos])

    def test_incorrect_selection_detected(self):
        theta = _equi_theta(8)
        s = Strategy(q=(8, 2), n=(0, 1, 2))
        # with one path per scenario selection errs often; just check the
        # predicate agrees with a manual comparison
        run = run_screening(s, GaussianSource(theta, substream(7, 0)))
        truth = set(worst_indexes(theta.mu, 2).tolist())
        assert correct_selection(run, theta, 2) == (
            set(run.final_survivors.tolist()) == truth
        )


def _general_theta(n_s=10, rank=None, seed=0):
    a = np.random.default_rng(seed).standard_normal((n_s, rank or n_s))
    return ScenarioParams(mu=synthetic_book(n_s, 2.0), sigma=a @ a.T)


class _RowSource:
    """The row route at every draw size: folds :func:`simulate_prices`
    rows of the survivors' sub-model."""

    def __init__(self, theta, rng):
        self.theta, self.rng, self.n_s = theta, rng, theta.n_s

    def draw(self, ids, count):
        sub = self.theta.restrict(ids)
        return fold_rows(lambda k: simulate_prices(sub, k, self.rng), sub.n_s, count)


class TestGaussianSourceDraw:
    @pytest.mark.parametrize("general", [False, True])
    def test_full_range_draw_is_simulate_prices(self, general):
        # below one chunk a draw is the fold of simulate_prices rows
        theta = _general_theta() if general else _equi_theta(10)
        src = GaussianSource(theta, substream(9, 0))
        rng = substream(9, 0)
        for count in (5, 3, 0):
            got = src.draw(np.arange(10), count)
            want = fold_rows(lambda k: simulate_prices(theta, k, rng), 10, count)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("general", [False, True])
    def test_simulate_prices_is_the_replayed_formula_bit_for_bit(self, general):
        theta = _general_theta() if general else _equi_theta(10)
        got = simulate_prices(theta, 40, substream(9, 4))
        rng = substream(9, 4)
        if general:
            f = theta.factor()
            want = theta.mu + rng.standard_normal((40, f.shape[1])) @ f.T
        else:
            spec = theta.equi
            z = rng.standard_normal((40, 11))
            mix = np.sqrt(spec.rho) * z[:, :1] + np.sqrt(1.0 - spec.rho) * z[:, 1:]
            want = theta.mu + spec.sigma_scalar * mix
        np.testing.assert_array_equal(got, want)

    def test_equicorrelated_subset_uses_one_factor_formula(self):
        # width q + 1: one common normal, then one per survivor column
        theta = _equi_theta(8, sigma=4.0, rho=0.3)
        spec = theta.equi
        draws = substream(9, 1)
        rng = substream(9, 1)
        for ids, count in [(np.arange(8), 7), (np.array([1, 4, 6]), 50), ([2], 3)]:
            ids = np.asarray(ids)
            z = rng.standard_normal((count, ids.size + 1))
            mix = np.sqrt(spec.rho) * z[:, :1] + np.sqrt(1.0 - spec.rho) * z[:, 1:]
            want = theta.mu[ids] + spec.sigma_scalar * mix
            got = simulate_prices(theta.restrict(ids), count, draws)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rank", [None, 3])
    def test_restricted_draws_have_the_principal_sub_covariance(self, rank):
        # 200k rows: a sample covariance entry has standard error at most
        # sqrt(2 / 200k) * max diag = 0.0032 max diag; allow 6 of them.  At
        # rank 3 the 4x4 sub-covariance is singular and the draws must stay
        # in its 3-dimensional range, up to the sqrt(eps)-sized pivot a
        # Cholesky of the rounded singular matrix may leave (1e-6 of the
        # largest singular value).
        theta = _general_theta(rank=rank, seed=4)
        ids = np.array([0, 3, 4, 8])
        x = simulate_prices(theta.restrict(ids), 200_000, substream(9, 2))
        assert x.shape == (200_000, ids.size)
        want = theta.sigma[np.ix_(ids, ids)]
        tol = 6 * np.sqrt(2 / 200_000) * want.diagonal().max()
        np.testing.assert_allclose(np.cov(x, rowvar=False), want, rtol=0, atol=tol)
        np.testing.assert_allclose(x.mean(axis=0), theta.mu[ids], rtol=0, atol=tol)
        if rank is not None:
            sv = np.linalg.svd(x - theta.mu[ids], compute_uv=False)
            assert sv[-1] < 1e-6 * sv[0]

    def test_each_level_factors_its_sub_covariance_once(self, monkeypatch):
        restricts, factors = [], []
        restrict, psd_factor = ScenarioParams.restrict, model.psd_factor

        def counting_restrict(self, idx):
            restricts.append(tuple(idx))
            return restrict(self, idx)

        def counting_factor(sigma):
            factors.append(sigma.shape[0])
            return psd_factor(sigma)

        monkeypatch.setattr(ScenarioParams, "restrict", counting_restrict)
        monkeypatch.setattr(model, "psd_factor", counting_factor)
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 7 * 10)  # 7 rows at width 10
        s = Strategy(q=(10, 5, 2), n=(0, 30, 60, 100))
        run = run_screening(s, GaussianSource(_general_theta(), substream(9, 3)))
        assert restricts == [tuple(ids) for ids in run.survivors[1:]]
        assert factors == [10, 5, 2]


def screening_oracle(strategy, theta, rng):
    """Straight-line re-implementation of the level recursion.

    Consumes the generator exactly like the production path (one Gaussian
    block per level, as wide as the ascending survivor set, through the
    Cholesky factor of the survivors' principal sub-covariance) but
    computes sums, ranking and the estimate with plain loops and sorts.
    """
    n_s = theta.n_s
    sums = dict.fromkeys(range(n_s), 0.0)
    alive = list(range(n_s))
    selections = [tuple(alive)]
    for lvl in range(1, strategy.levels + 1):
        d = strategy.n[lvl] - strategy.n[lvl - 1]
        if d > 0:
            factor = np.linalg.cholesky(theta.sigma[np.ix_(alive, alive)])
            z = rng.standard_normal((d, len(alive)))
            x = theta.mu[alive] + z @ factor.T
            for j, idx in enumerate(alive):
                sums[idx] += float(x[:, j].sum())
        n_cum = strategy.n[lvl]
        est = {i: (sums[i] / n_cum if n_cum else 0.0) for i in alive}
        if lvl <= strategy.levels - 1:
            ranked = sorted(alive, key=lambda i: (-est[i], i))
            alive = sorted(ranked[: strategy.q[lvl]])
            selections.append(tuple(alive))
    es = sum(est[i] for i in alive) / len(alive)
    return selections, es


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_brute_force_oracle(seed):
    theta = ScenarioParams(
        mu=synthetic_book(8, 5.0),
        sigma=build_full_equi(8, 3.0, 0.4),
    )
    s = Strategy(q=(8, 5, 2), n=(0, 4, 12, 24))
    for trial in range(300):
        run = run_screening(s, GaussianSource(theta, substream(seed, trial)))
        sel, es = screening_oracle(s, theta, substream(seed, trial))
        for got, want in zip(run.survivors, sel):
            np.testing.assert_array_equal(got, np.array(want))
        assert run.es_hat == pytest.approx(es, rel=1e-10)


def build_full_equi(n, sigma, rho):
    from esscreen.model import EquicorrelatedSpec, build_equicorrelated

    return build_equicorrelated(EquicorrelatedSpec(sigma, rho), n)


def test_consistency_error_shrinks_with_paths():
    # Fixed q-profile, N scaled by 1, 4, 16: the mean absolute error over
    # many seeds must decrease monotonically.
    theta = _equi_theta(12, delta0=5.0, sigma=8.0, rho=0.2)
    truth = exact_es(theta, 2)
    errs = []
    for scale in (1, 4, 16):
        base = Strategy(
            q=(12, 5, 2), n=(0, 4 * scale, 16 * scale, 48 * scale)
        )
        tot = 0.0
        for seed in range(1000):
            rng = substream(40 + scale, seed)
            run = run_screening(base, GaussianSource(theta, rng))
            tot += abs(run.es_hat - truth)
        errs.append(tot / 1000)
    assert errs[0] > errs[1] > errs[2]


def _replay(rows, ids):
    """Row function serving the ``ids`` columns of a fixed price matrix's
    rows, in order, as fresh blocks."""
    at = 0

    def draw(count):
        nonlocal at
        out = rows[at : at + count][:, ids]
        at += count
        return out

    return draw


class TestDrawBatch:
    def test_matches_two_pass_scatter_at_large_mean(self, monkeypatch):
        # mean 1e9, unit std: the one-pass sum-of-squares form loses every
        # digit here, while the chunk merge must match a two-pass scatter
        # (centred on the correctly rounded column mean) to 1e-12
        rng = np.random.default_rng(0)
        x = 1e9 + rng.standard_normal((200, 5))
        ids = np.arange(5)
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 7 * 5)  # 7 rows per chunk
        total, scatter = fold_rows(_replay(x, ids), ids.size, 200)
        mean = np.array([math.fsum(col) / 200 for col in x.T])
        want = np.sum((x - mean) ** 2, axis=0)
        np.testing.assert_allclose(scatter, want, rtol=1e-12)
        np.testing.assert_allclose(total, x.sum(axis=0), rtol=1e-14)
        one_pass = np.sum(x * x, axis=0) - x.sum(axis=0) ** 2 / 200
        assert np.all(np.abs(one_pass - want) > want)

    def test_column_subset_and_empty_batch(self, monkeypatch):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 6))
        ids = np.array([1, 4])
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 4 * 2)  # 4 rows per chunk
        total, scatter = fold_rows(_replay(x, ids), ids.size, 30)
        sub = x[:, ids]
        np.testing.assert_allclose(total, sub.sum(axis=0), rtol=1e-13)
        want = np.sum((sub - sub.mean(axis=0)) ** 2, axis=0)
        np.testing.assert_allclose(scatter, want, rtol=1e-12)
        total, scatter = fold_rows(_replay(x, ids), ids.size, 0)
        assert total.tolist() == [0.0, 0.0] and scatter.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("general", [False, True], ids=["equi", "dense"])
    def test_draw_memory_is_bounded_whatever_dn(self, general):
        # above one chunk the draw samples its statistics, in O(q) memory
        # (equicorrelated) or a few q x q blocks (dense)
        theta = _paper_theta(general)
        ids = np.arange(253)
        src = GaussianSource(theta, substream(9, 5))
        src.draw(ids, 1)  # factor the covariance outside the measurement
        for dn in (2000, 20_000):
            tracemalloc.start()
            try:
                src.draw(ids, dn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * CHUNK_PRICINGS * 8, (dn, peak)

    @pytest.mark.parametrize("general", [False, True], ids=["equi", "dense"])
    def test_row_fold_memory_is_bounded_whatever_dn(self, general):
        # the chunks hold CHUNK_PRICINGS prices; at a draw the
        # previous chunk, the new one's normals and its output are alive
        theta = _paper_theta(general)
        theta.factor()  # factor the covariance outside the measurement
        rng = substream(9, 6)
        for dn in (2000, 20_000):
            tracemalloc.start()
            try:
                fold_rows(lambda k: simulate_prices(theta, k, rng), 253, dn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * CHUNK_PRICINGS * 8, (dn, peak)


def _paper_theta(general):
    mu = synthetic_book(253, 2766.0)
    if general:
        return ScenarioParams(mu=mu, sigma=build_full_equi(253, 2.2e6, 0.6))
    return ScenarioParams.equicorrelated(mu, EquicorrelatedSpec(2.2e6, 0.6))


def _max_gap_in_se(a, b):
    """Largest difference between two samples' moments, in standard errors.

    ``a`` and ``b`` hold one draw per row.  Compared per column: means and
    variances; per pair of columns: correlations.  Each standard error is
    the plug-in one of the moment's per-draw summand (for a correlation,
    the delta-method summand ``u v - r (u^2 + v^2) / 2`` of the
    standardised columns), so skewed scatters get honest errors.
    """

    def moments(x):
        n = x.shape[0]
        c = x - x.mean(axis=0)
        var = (c * c).mean(axis=0)
        u = c / np.sqrt(var)
        i, j = np.triu_indices(x.shape[1], k=1)
        r = (u[:, i] * u[:, j]).mean(axis=0)
        corr_terms = u[:, i] * u[:, j] - r * (u[:, i] ** 2 + u[:, j] ** 2) / 2
        value = np.concatenate([x.mean(axis=0), var, r])
        se = np.concatenate([c.std(axis=0), (c * c).std(axis=0), corr_terms.std(axis=0)])
        return value, se / np.sqrt(n)

    (va, sa), (vb, sb) = moments(a), moments(b)
    return np.max(np.abs(va - vb) / np.hypot(sa, sb))


def _stats_sample(theta, ids, count, draws, seed):
    """``draws`` consecutive ``(sum, scatter)`` draws, one row each."""
    src = GaussianSource(theta, substream(seed, 0))
    return np.array([np.concatenate(src.draw(ids, count)) for _ in range(draws)])


class TestExactStatistics:
    """The sampled statistics of draws above one chunk against the row fold."""

    @pytest.mark.parametrize(
        "theta",
        [
            _equi_theta(3, sigma=2.0, rho=0.4),
            _general_theta(n_s=3, seed=2),
            _general_theta(n_s=3, rank=2, seed=3),
        ],
        ids=["equi", "dense", "rank-deficient"],
    )
    def test_moments_and_correlations_match_the_row_fold(self, theta, monkeypatch):
        # sums and scatters of dN paths over 3 columns, 6000 draws a route:
        # every mean, variance and cross-column correlation (sum with sum,
        # scatter with scatter, sum with scatter) within 4 SE.  The routes are
        # the source above one chunk and the trainer's, _dense_stats on a
        # rotated (non-triangular) factor; dN <= 3 takes a singular factor
        ids = np.arange(3)
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        f = model.psd_factor(theta.sigma) @ q
        for dn in (2, 3, 5):
            rows = _stats_sample(theta, ids, dn, 6000, seed=11)
            with monkeypatch.context() as patch:
                patch.setattr(screener, "CHUNK_PRICINGS", 1)
                fast = _stats_sample(theta, ids, dn, 6000, seed=12)
            assert _max_gap_in_se(fast, rows) < 4, dn
            rng = substream(13, dn)
            trainer = np.array(
                [screener._dense_stats(theta.mu, f, dn, rng) for _ in range(6000)]
            ).reshape(6000, 6)
            assert _max_gap_in_se(trainer, rows) < 4, dn

    def test_the_trainers_independent_scatter_would_fail(self):
        # power check: scatters drawn as independent chi^2 per column (zero
        # cross-column correlation, where the truth is rho^2 = 0.16) are
        # told apart from the row fold, so the test above can fail; no route
        # draws them (the value-net trainer draws through _dense_stats)
        theta = _equi_theta(3, sigma=2.0, rho=0.4)
        rows = _stats_sample(theta, np.arange(3), 5, 6000, seed=11)
        rng = np.random.default_rng(0)
        fake = rows.copy()
        fake[:, 3:] = 4.0 * rng.chisquare(4, (6000, 3))
        assert _max_gap_in_se(fake, rows) > 4

    @pytest.mark.parametrize(
        "theta",
        [
            _equi_theta(4),
            _general_theta(n_s=4),
            _equi_theta(1),
            _general_theta(n_s=1),
            _equi_theta(4, sigma=0.0),
            ScenarioParams(mu=synthetic_book(4, 1.0), sigma=np.zeros((4, 4))),
            _equi_theta(4, rho=0.0),
        ],
        ids=["equi", "dense", "equi-width-1", "dense-width-1", "equi-sigma-0",
             "dense-sigma-0", "equi-rho-0"],
    )
    def test_routing_edges_give_finite_statistics(self, theta, monkeypatch):
        # every non-empty draw is above one chunk: the closed form takes
        # dN >= 3 (one-factor) or every dN >= 1 (dense, singular below q + 1);
        # every other draw folds rows
        calls = []
        for name in ("_equicorrelated_stats", "_dense_stats"):
            fn = getattr(screener, name)
            monkeypatch.setattr(
                screener, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 0)
        q = theta.n_s
        src = GaussianSource(theta, substream(4, 0))
        for dn in sorted({0, 1, 2, 3, q, q + 1}):
            calls.clear()
            total, scatter = src.draw(np.arange(q), dn)
            assert total.shape == scatter.shape == (q,)
            assert np.isfinite(total).all() and np.isfinite(scatter).all()
            assert (scatter >= 0).all()
            if dn <= 1:
                assert scatter.tolist() == [0.0] * q
            if dn == 0:
                assert total.tolist() == [0.0] * q
            if theta.equi is not None:
                assert calls == (["_equicorrelated_stats"] if dn >= 3 else []), dn
            else:
                assert calls == (["_dense_stats"] if dn >= 1 else []), dn
            if not theta.sigma.any():
                np.testing.assert_allclose(total, dn * theta.mu, rtol=1e-15)
                assert scatter.tolist() == [0.0] * q

    @pytest.mark.parametrize("general", [False, True], ids=["equi", "dense"])
    def test_up_to_one_chunk_is_the_row_fold_bit_for_bit(self, general, monkeypatch):
        # a draw of exactly one chunk still folds rows; one path more samples
        theta = _general_theta() if general else _equi_theta(10)
        ids = np.array([1, 4, 6])
        monkeypatch.setattr(screener, "CHUNK_PRICINGS", 3 * 50)
        src = GaussianSource(theta, substream(8, 0))
        rows = _RowSource(theta, substream(8, 0))
        for count in (50, 7, 1):
            got = src.draw(ids, count)
            want = rows.draw(ids, count)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        got = src.draw(ids, 51)
        want = rows.draw(ids, 51)
        assert not np.array_equal(got[0], want[0])


@st.composite
def _strategies(draw):
    n_s = draw(st.integers(2, 9))
    levels = draw(st.integers(1, 4))
    q = [n_s]
    for _ in range(levels - 1):
        q.append(draw(st.integers(1, q[-1])))
    n = [0]
    for _ in range(levels):
        n.append(n[-1] + draw(st.integers(0, 5)))
    return Strategy(q=tuple(q), n=tuple(n))


@given(
    strategy=_strategies(),
    general=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_screening_invariants(strategy, general, seed, data):
    n_s = strategy.n_s
    if general:
        a = np.random.default_rng(seed).standard_normal((n_s, n_s))
        theta = ScenarioParams(mu=synthetic_book(n_s, 1.0), sigma=a @ a.T)
    else:
        theta = _equi_theta(n_s, delta0=1.0, sigma=2.0)
    run = run_screening(strategy, GaussianSource(theta, substream(seed, 0)))
    assert run.pricings == cost(strategy)
    assert [ids.size for ids in run.survivors] == list(strategy.q)
    np.testing.assert_array_equal(run.survivors[0], np.arange(n_s))
    for prev, ids in zip(run.survivors, run.survivors[1:]):
        assert np.all(np.diff(ids) > 0)
        assert np.all(np.isin(ids, prev))
    # a scenario's count and sum freeze at the last level it entered
    for lvl, stats in enumerate(run.levels, start=1):
        gone = np.setdiff1d(stats.entered, stats.kept)
        if lvl == strategy.levels:
            gone = stats.entered
        pos = np.searchsorted(stats.entered, gone)
        assert np.all(run.counts[gone] == strategy.n[lvl])
        np.testing.assert_array_equal(run.sums[gone], stats.sums[pos])
        if lvl < strategy.levels:
            perm = np.array(data.draw(st.permutations(range(stats.entered.size))))
            keep = strategy.q[lvl]
            np.testing.assert_array_equal(
                rank_select(stats.mu_hat[perm], stats.entered[perm], keep),
                rank_select(stats.mu_hat, stats.entered, keep),
            )
