"""Adaptive allocator: strategy generation, forward pass, plug-in bounds,
terminal-value Monte Carlo, policy training and online execution."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from esscreen.adaptive import (
    ActionSpec,
    AdaptiveConfig,
    PolicyBundle,
    PosteriorState,
    f_plugin,
    f_precompute,
    fit_value_functions,
    forward_pass,
    generate_strategies,
    mc_value_final,
    niw_update_diag_stats,
    run_adaptive,
)
from esscreen.adaptive.policy import features
from esscreen.bounds import AdaptiveState, SubGammaParams, f_p_ad
from esscreen.errors import InvalidParameterError
from esscreen.model import (
    EquicorrelatedSpec,
    NIWParams,
    ScenarioParams,
    build_equicorrelated,
    sample_niw,
    synthetic_book,
)
from esscreen.screener import (
    GaussianSource,
    Strategy,
    cost,
    exact_es,
    run_screening,
    worst_indexes,
)
from esscreen.streams import substream


def make_prior(n_s=12, n_w=2, delta0=5.0, sigma=8.0, rho=0.4, conf=40.0):
    mu0 = synthetic_book(n_s, delta0)
    cov = build_equicorrelated(EquicorrelatedSpec(sigma, rho), n_s)
    return NIWParams(
        m=mu0, k=conf, i=conf, s=(conf - n_s - 1) * cov, index_map=np.arange(n_s)
    )


def toy_config(**kw):
    n_s = kw.pop("n_s", 12)
    n_w = kw.pop("n_w", 2)
    defaults = dict(
        n_s=n_s,
        n_w=n_w,
        levels=3,
        budget=4000,
        q_grid=(2, 4, 6, 8, 12),
        prior=make_prior(n_s, n_w),
        sub=SubGammaParams(c=0.0, p=1.0),
        k_bar=8,
        j_bar=4,
        n_iter=800,
        probe_steps=200,
        lr_candidates=4,
        base_rate=1.0,
        n_e_final=400,
        n_p_final=100,
        n_e_mid=24,
        n_p_mid=8,
        n_e_open=16,
        max_scan=8,
        seed=3,
    )
    defaults.update(kw)
    return AdaptiveConfig(**defaults)


class TestGenerateStrategies:
    def test_invariants_and_budget(self):
        cfg = toy_config(k_bar=200)
        strats = generate_strategies(200, cfg, substream(1, 0))
        assert len(strats) == 200
        for s in strats:
            assert cost(s) <= cfg.budget
            assert s.q[0] == cfg.n_s and s.n_w == cfg.n_w
            assert all(a > b for a, b in zip(s.q, s.q[1:]))  # strictly decreasing
            assert all(b > a for a, b in zip(s.n, s.n[1:]))  # dN >= 1 everywhere

    def test_two_levels_forces_endpoints(self):
        cfg = toy_config(levels=2)
        for s in generate_strategies(50, cfg, substream(1, 1)):
            assert s.q == (cfg.n_s, cfg.n_w)

    def test_final_arc_gets_multiple_spacings(self):
        # the L+1 sorted uniforms cut [0,1] into L+2 exchangeable spacings of
        # mean 1/(L+2); the final allowance spans three of them (the last
        # inner spacing plus both edges through the wrap), so its mean share
        # is 3/(L+2) - several times a middle level's 1/(L+2)
        cfg = toy_config(budget=10**6, k_bar=4000)
        strats = generate_strategies(4000, cfg, substream(1, 2))
        last_share = np.mean(
            [s.q[-1] * (s.n[-1] - s.n[-2]) / cfg.budget for s in strats]
        )
        mid_share = np.mean(
            [s.q[0] * s.n[1] / cfg.budget for s in strats]
        )
        want_last = 3.0 / (cfg.levels + 2)
        want_mid = 1.0 / (cfg.levels + 2)
        assert abs(last_share - want_last) < 0.02
        assert abs(mid_share - want_mid) < 0.02
        assert last_share > 2.0 * mid_share

    def test_impossible_budget_raises(self):
        cfg = toy_config(budget=10)  # below one path for all n_s at level 1
        with pytest.raises(InvalidParameterError):
            generate_strategies(5, cfg, substream(1, 3))


@pytest.fixture(scope="module")
def toy_trajectories():
    cfg = toy_config()
    strategies = generate_strategies(cfg.k_bar, cfg, substream(cfg.seed, 0))
    books = [
        sample_niw(cfg.prior, substream(cfg.seed, 1, j)) for j in range(cfg.j_bar)
    ]
    return cfg, strategies, books, forward_pass(strategies, books, cfg)


class TestForwardPass:
    def test_one_trajectory_per_pair_schedule_major(self, toy_trajectories):
        cfg, strategies, books, trajs = toy_trajectories
        assert [(t.k, t.j) for t in trajs] == [
            (k, j) for k in range(len(strategies)) for j in range(len(books))
        ]
        assert all(t.strategy is strategies[t.k] for t in trajs)

    def test_pseudo_counts_track_paths(self, toy_trajectories):
        cfg, _, _, trajs = toy_trajectories
        for traj in trajs:
            for st in traj.states:
                assert st.niw.k == cfg.prior.k + traj.strategy.n[st.level]
                assert st.niw.i == cfg.prior.i + traj.strategy.n[st.level]

    def test_running_cost_identity(self, toy_trajectories):
        cfg, _, _, trajs = toy_trajectories
        for traj in trajs:
            c = 0
            for stats, st in zip(traj.levels, traj.states, strict=True):
                c += stats.entered.size * stats.dn
                assert st.cost == c
            assert c == cost(traj.strategy)

    def test_replayable(self, toy_trajectories):
        cfg, strategies, books, trajs = toy_trajectories
        again = forward_pass(strategies, books, cfg)
        for t1, t2 in zip(trajs, again, strict=True):
            for a, b in zip(t1.states, t2.states, strict=True):
                np.testing.assert_array_equal(a.mu_hat, b.mu_hat)
                np.testing.assert_array_equal(a.niw.m, b.niw.m)
                np.testing.assert_array_equal(a.niw.s, b.niw.s)

    def test_zero_variance_book_locks_posterior_mean(self):
        cfg = toy_config(k_bar=1, j_bar=1)
        mu = synthetic_book(cfg.n_s, 5.0)
        book = ScenarioParams(mu=mu, sigma=np.zeros((cfg.n_s, cfg.n_s)))
        strat = Strategy(q=(12, 4, 2), n=(0, 40, 120, 400))
        (traj,) = forward_pass([strat], [book], cfg)
        final = traj.states[-1]
        # with noiseless prices the location posterior contracts onto mu
        w = final.niw.k
        ids = final.ids
        want = (cfg.prior.k * cfg.prior.m[ids] + (w - cfg.prior.k) * mu[ids]) / w
        np.testing.assert_allclose(final.niw.m, want, rtol=1e-9)


class TestFPrecompute:
    def test_matches_direct_transcription(self, toy_trajectories):
        cfg, _, _, trajs = toy_trajectories
        traj = trajs[2]
        for level in (1, 2):
            stats = traj.levels[level - 1]
            if stats.kept.size == stats.entered.size:
                continue
            got = f_precompute(traj, level, cfg)
            # the unrestricted update of the previous posterior by the
            # level's batch, over every entered scenario
            prev_niw = traj.states[level - 2].niw if level >= 2 else cfg.prior
            half = niw_update_diag_stats(
                prev_niw, stats.batch_mean, stats.scatter, stats.dn, stats.entered
            )
            prev_mu = (
                traj.states[level - 2].mu_hat
                if level >= 2
                else np.zeros(stats.entered.size)
            )
            d = stats.entered.size
            state = AdaptiveState(
                mu_hat_prev=prev_mu,
                n_prev=stats.n_cum - stats.dn,
                delta_n=stats.dn,
                q_next=stats.kept.size,
                n_w=min(cfg.n_w, stats.kept.size),
            )
            want = f_p_ad(
                half.m,
                half.s / (half.i - d - 1),
                state,
                cfg.sub,
                rank_by=prev_mu,
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_plugin_monotone_in_paths(self):
        # at a fresh state (no accumulated margin) the inversion exponent is
        # -dN * gap^2 / ..., strictly tightening with more paths; with prior
        # estimates in play the margin itself depends on dN and monotonicity
        # is not claimed
        cfg = toy_config()
        state = PosteriorState(
            level=0,
            ids=np.arange(cfg.n_s),
            mu_hat=np.zeros(cfg.n_s),
            sums=np.zeros(cfg.n_s),
            niw=cfg.prior,
            n_cum=0,
            cost=0,
        )
        vals = [
            f_plugin(state, cfg.n_s - cfg.n_w, dn, cfg.n_w, cfg.sub)
            for dn in (5, 20, 100, 500)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] > vals[-1]

    def test_first_level_flat_prior_is_plain_kernel(self):
        # a near-flat prior at level 1 reduces the plug-in to the
        # deterministic selection kernel on the posterior means
        n_s = 6
        prior = make_prior(n_s=n_s, n_w=2, conf=n_s + 3)
        state = PosteriorState(
            level=0,
            ids=np.arange(n_s),
            mu_hat=np.zeros(n_s),
            sums=np.zeros(n_s),
            niw=prior,
            n_cum=0,
            cost=0,
        )
        sub = SubGammaParams(c=0.0, p=1.0)
        got = f_plugin(state, 3, 50, 2, sub)
        mu = prior.m
        sig = prior.sigma_mean()
        vals = []
        for i in range(2):
            for k in range(3, n_s):
                g = mu[i] - mu[k]
                v = sig[i, i] + sig[k, k] - 2 * sig[i, k]
                vals.append(g * math.exp(-50 * g * g / (2 * v)))
        assert got == pytest.approx(3 * max(vals), rel=1e-12)


def _random_state(seed, q=9, n_cum=0):
    """A posterior state over ``q`` survivors with a seeded random posterior
    and, when ``n_cum`` > 0, random running estimates."""
    rng = substream(61, seed)
    a = rng.standard_normal((q, q))
    niw = NIWParams(
        m=5.0 * rng.normal(size=q),
        k=float(rng.uniform(2.0, 50.0)),
        i=float(q + 2 + rng.uniform(1.0, 30.0)),
        s=a @ a.T + q * np.eye(q),
        index_map=np.arange(q),
    )
    mu_hat = 5.0 * rng.normal(size=q) if n_cum else np.zeros(q)
    return PosteriorState(
        level=1,
        ids=np.arange(q),
        mu_hat=mu_hat,
        sums=n_cum * mu_hat,
        niw=niw,
        n_cum=n_cum,
        cost=q * n_cum,
    )


_SUBS = [SubGammaParams(c=0.0, p=1.0), SubGammaParams(c=0.9, p=2.0)]


class TestFPluginIncrements:
    """An array of increments is scored in one pass, each entry equal to
    the scalar call."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n_cum", [0, 40])
    @pytest.mark.parametrize("sub", _SUBS)
    def test_array_dn_equals_scalar_calls(self, seed, n_cum, sub):
        state = _random_state(seed, n_cum=n_cum)
        dns = np.array([1, 5, 20, 20, 600, 7000])
        for dq in (0, 3, state.q - 2):  # no selection, and q_next == n_w
            got = f_plugin(state, dq, dns, 2, sub)
            want = [f_plugin(state, dq, int(dn), 2, sub) for dn in dns]
            assert all(type(w) is float for w in want)
            assert got.shape == dns.shape and got.tolist() == want

    @pytest.mark.parametrize("n_cum", [0, 40])
    @pytest.mark.parametrize("sub", _SUBS)
    def test_feature_column_is_per_action_f_plugin(self, n_cum, sub, monkeypatch):
        from esscreen.adaptive import policy

        state = _random_state(7, n_cum=n_cum)
        acts = [(0, 10), (3, 10), (3, 50), (7, 10), (3, 1), (7, 400), (0, 5)]
        want = [f_plugin(state, dq, dn, 2, sub) for dq, dn in acts]
        calls = []

        def counted(*args):
            calls.append(args[1])
            return f_plugin(*args)

        monkeypatch.setattr(policy, "f_plugin", counted)
        rows = policy.features(state, acts, 2, sub)
        assert rows[:, -1].tolist() == want
        assert rows[:, :2].tolist() == [list(a) for a in acts]
        assert sorted(calls) == [0, 3, 7]  # one call per distinct dq

    def test_increment_below_one_rejected(self):
        state = _random_state(0, n_cum=40)
        with pytest.raises(InvalidParameterError):
            f_plugin(state, 3, np.array([5, 0, 9]), 2, SubGammaParams())


@pytest.mark.parametrize("q", [1, 2, 25, 26, 253])
def test_feature_rows_have_one_layout_at_every_window(q):
    # 25 -> 26 crosses the window up to which the scale block once entered
    # in full
    from esscreen.adaptive.policy import _feature_width, features

    state = _random_state(q, q=q, n_cum=40)
    acts = [(0, 10), (0, 3)] + ([(q - 1, 10), (q // 2, 3)] if q > 1 else [])
    rows = features(state, acts, 1, SubGammaParams())
    assert _feature_width(q) == 8 + 3 * q
    assert rows.shape == (len(acts), 8 + 3 * q)
    order = np.lexsort((np.arange(q), -state.mu_hat))
    block = np.concatenate(
        [
            [q, state.n_cum, state.cost],
            state.mu_hat[order],
            state.niw.m[order],
            [state.niw.k, state.niw.i],
            np.diag(state.niw.s)[order],
        ]
    )
    np.testing.assert_array_equal(rows[:, :2], acts)
    np.testing.assert_array_equal(rows[:, 2:-1], np.tile(block, (len(acts), 1)))
    # no selection at dq = 0, as at every final-level row
    assert rows[:2, -1].tolist() == [0.0, 0.0]


class TestMcValueFinal:
    def _small_trajectories(self):
        cfg = toy_config(k_bar=2, j_bar=2)
        strategies = generate_strategies(2, cfg, substream(7, 0))
        books = [sample_niw(cfg.prior, substream(7, 1, j)) for j in range(2)]
        return forward_pass(strategies, books, cfg)

    def test_zero_posterior_variance(self):
        traj = self._small_trajectories()[0]
        final = traj.states[-1]
        final.niw = replace(final.niw, s=np.zeros_like(final.niw.s), k=1e18)
        got = mc_value_final(traj, 100, 10, substream(8, 0))
        want = abs(np.mean(final.mu_hat - final.niw.m))
        assert got == pytest.approx(want, rel=1e-6)

    def test_stderr_shrinks_with_draws(self):
        traj = self._small_trajectories()[1]

        def spread(n_e, reps, tag):
            vals = [
                mc_value_final(traj, n_e, 10, substream(9, tag, r))
                for r in range(reps)
            ]
            return np.std(vals)

        s_small, s_big = spread(50, 24, 0), spread(800, 24, 1)
        assert s_big < s_small / 2.5  # expect ~1/4 at 16x the draws

    def test_matches_fresh_wishart_estimator(self):
        # reusing one covariance draw per block must agree with a fresh draw
        # per sample within combined Monte Carlo error
        traj = self._small_trajectories()[0]
        pooled = [
            mc_value_final(traj, 3000, 50, substream(10, 0, r)) for r in range(8)
        ]
        fresh = [
            mc_value_final(traj, 3000, 1, substream(10, 1, r)) for r in range(8)
        ]
        se = math.hypot(np.std(pooled) / math.sqrt(8), np.std(fresh) / math.sqrt(8))
        assert abs(np.mean(pooled) - np.mean(fresh)) < 4 * se + 1e-12


class TestActionSpec:
    def _spec(self):
        return ActionSpec(
            q_grid=(2, 4, 6, 8, 12),
            n_w=2,
            levels=3,
            budget=4000,
            dn_quantum=10,
            max_scan=64,
        )

    def test_options_respect_budget_and_grid(self):
        spec = self._spec()
        for dq, dn in spec.actions(0, 12, 0):
            assert 12 - dq in spec.q_grid
            assert dn % 10 == 0
            assert 12 * dn + spec.min_future_cost(1, 12 - dq) <= 4000

    def test_forced_width_before_final(self):
        spec = self._spec()
        assert spec.next_q_options(1, 8) == [2]  # target level 2 == L-1
        assert spec.next_q_options(2, 2) == [2]  # final: no selection

    def test_admissibility_predicate(self):
        spec = self._spec()
        assert spec.is_admissible(0, 12, 0, 12 - 8, 10)
        assert not spec.is_admissible(0, 12, 0, 1, 10)  # 11 not on grid
        assert not spec.is_admissible(0, 12, 0, 4, 15)  # off-quantum
        assert not spec.is_admissible(0, 12, 0, 4, 10_000)  # over budget

    @pytest.mark.parametrize("max_scan", [1, 8, 24, 64])
    def test_cached_scan_grid_equals_uncached_formula(self, max_scan):
        # one level, one survivor and quantum 3: j_max = (budget - cost) // 3
        spec = ActionSpec(
            q_grid=(1,), n_w=1, levels=1, budget=1800, dn_quantum=3, max_scan=max_scan
        )
        for j_max in range(601):
            if j_max <= max_scan:
                want = np.arange(1, j_max + 1)
            else:
                want = np.unique(np.rint(np.geomspace(1, j_max, max_scan)).astype(np.int64))
            got = spec.dn_options(0, 1, 1, 3 * (600 - j_max))
            assert got.dtype == np.int64 and got.tolist() == (3 * want).tolist()
            got[:] = -1  # a caller's edit must not reach the next call
            again = spec.dn_options(0, 1, 1, 3 * (600 - j_max))
            assert again.tolist() == (3 * want).tolist()

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_admissibility_is_membership_in_the_unthinned_grid(self, levels):
        spec = ActionSpec(
            q_grid=(2, 4, 6, 8, 12),
            n_w=2,
            levels=levels,
            budget=600,
            dn_quantum=10,
            max_scan=10**6,
        )
        admitted = 0
        for level in range(levels):
            for q in spec.q_grid:
                for spent in range(0, spec.budget + 1, 50):
                    grid = set(spec.actions(level, q, spent))
                    admitted += len(grid)
                    for dq in range(q + 1):
                        for dn in range(-10, spec.budget // q + 20, 5):
                            want = (dq, dn) in grid
                            got = spec.is_admissible(level, q, spent, dq, dn)
                            assert got == want, (level, q, spent, dq, dn)
        assert admitted > 0


@pytest.fixture(scope="module")
def toy_bundle():
    cfg = toy_config()
    bundle, report = fit_value_functions(cfg)
    return cfg, bundle, report


class TestFitAndRun:
    def test_training_completes_without_divergence(self, toy_bundle):
        cfg, bundle, report = toy_bundle
        assert all(np.isfinite(v) for v in report.final_losses.values())
        assert bundle.first_action[1] >= 1

    def test_backward_loop_fits_one_row_per_trajectory_per_level(self, toy_bundle):
        # every (schedule, world) trajectory gives each level one training
        # row, and the final level's rows all sit at the n_w window
        cfg, bundle, report = toy_bundle
        assert set(report.target_stats) == set(bundle.nets)
        for level in range(1, cfg.levels):
            stats = report.target_stats.items()
            rows = [n for (lvl, _), (_, _, n) in stats if lvl == level]
            assert sum(rows) == cfg.k_bar * cfg.j_bar
        final = [key for key in report.target_stats if key[0] == cfg.levels - 1]
        assert final == [(cfg.levels - 1, cfg.n_w)]

    def test_policy_actions_always_feasible(self, toy_bundle):
        cfg, bundle, _ = toy_bundle
        spec = bundle.action_spec()
        for r in range(200):
            theta = sample_niw(cfg.prior, substream(50, r))
            res = run_adaptive(bundle, GaussianSource(theta, substream(51, r)))
            assert res.pricings <= cfg.budget
            assert cost(res.strategy) == res.pricings
            # re-audit each action against the unthinned admissible set
            c, q, lvl = 0, cfg.n_s, 0
            for (dq, dn) in res.actions:
                assert spec.is_admissible(lvl, q, c, dq, dn)
                c += q * dn
                q -= dq
                lvl += 1

    def test_zero_variance_world_always_correct(self, toy_bundle):
        cfg, bundle, _ = toy_bundle
        mu = synthetic_book(cfg.n_s, 5.0)
        theta = ScenarioParams(mu=mu, sigma=np.zeros((cfg.n_s, cfg.n_s)))
        res = run_adaptive(bundle, GaussianSource(theta, substream(52, 0)))
        assert set(res.final_survivors) == set(worst_indexes(mu, cfg.n_w))
        assert res.es_hat == pytest.approx(exact_es(theta, cfg.n_w))

    def test_deterministic_replay(self, toy_bundle):
        cfg, bundle, _ = toy_bundle
        theta = sample_niw(cfg.prior, substream(53, 0))
        a = run_adaptive(bundle, GaussianSource(theta, substream(53, 1)))
        b = run_adaptive(bundle, GaussianSource(theta, substream(53, 1)))
        assert a.es_hat == b.es_hat and a.strategy == b.strategy

    def test_bundle_roundtrip(self, toy_bundle, tmp_path):
        cfg, bundle, _ = toy_bundle
        path = tmp_path / "policy.npz"
        bundle.save(path)
        b2 = PolicyBundle.load(path)
        theta = sample_niw(cfg.prior, substream(54, 0))
        a = run_adaptive(bundle, GaussianSource(theta, substream(54, 1)))
        b = run_adaptive(b2, GaussianSource(theta, substream(54, 1)))
        assert a.es_hat == b.es_hat and a.actions == b.actions

    def test_prior_ids_off_the_scenario_range_are_refused_on_load(
        self, toy_bundle, tmp_path
    ):
        # survivor ids are places 0..n_s-1; the config refuses a prior
        # labelled otherwise, so the artifact does not load
        from esscreen.errors import PolicyError

        cfg, bundle, _ = toy_bundle
        path = tmp_path / "policy.npz"
        bundle.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["prior_ids"] = arrays["prior_ids"] + 1
        np.savez_compressed(path, **arrays)
        with pytest.raises(PolicyError, match="prior must cover scenarios"):
            PolicyBundle.load(path)

    def test_missing_artifact_error_names_path(self, tmp_path):
        from esscreen.errors import PolicyError

        missing = tmp_path / "nope.npz"
        with pytest.raises(PolicyError, match="nope.npz"):
            PolicyBundle.load(missing)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_other_version_rejected(self, toy_bundle, tmp_path, version):
        # a version-1 artifact's first layer expects pre-divided inputs; a
        # version-2 net reads the full scale block at windows up to 25 and
        # has no selection-bound column at the final level; a version-3
        # header holds the config's fields as separate keys
        from esscreen.errors import PolicyError

        path = tmp_path / "policy.npz"
        toy_bundle[1].save(path)
        _edit_artifact(path, header={"version": version})
        with pytest.raises(PolicyError, match=f"version {version}"):
            PolicyBundle.load(path)

    def test_opening_table_takes_one_f_plugin_call_per_dq(
        self, toy_bundle, monkeypatch
    ):
        # the table equals the one scored with a scalar f_plugin call per
        # action, bit for bit
        from esscreen.adaptive import policy, training

        cfg, bundle, _ = toy_bundle
        # uncapped: every level scans the full budget
        specs = dict.fromkeys(range(1, cfg.levels + 1), cfg.action_spec())
        report = training.TrainingReport({}, {}, {}, fallbacks=0)
        real = policy.f_plugin
        opening_calls = []

        def per_action(state, dq, dn, *args):
            if np.ndim(dn):
                return np.array([real(state, dq, int(d), *args) for d in dn])
            return real(state, dq, dn, *args)

        def counted(state, dq, dn, *args):
            if state.level == 0:
                opening_calls.append(dq)
            return real(state, dq, dn, *args)

        monkeypatch.setattr(policy, "f_plugin", per_action)
        want = training._tabulate_opening(cfg, specs, bundle.nets, report)
        monkeypatch.setattr(policy, "f_plugin", counted)
        got = training._tabulate_opening(cfg, specs, bundle.nets, report)
        assert got == want
        dqs = sorted({dq for dq, _, _ in got})
        assert len(dqs) >= 2 and len(got) > len(dqs)
        assert sorted(opening_calls) == dqs

    def test_lookahead_value_is_the_served_actions_prediction(
        self, toy_bundle, toy_trajectories
    ):
        # training's one-step lookahead scores a state as the min over the
        # actions the online policy picks its argmin from, so the value a
        # target uses is the prediction at the action the policy serves
        from esscreen.adaptive.policy import action_values, choose_action
        from esscreen.adaptive.training import _value_of_states

        cfg, bundle, _ = toy_bundle
        trajs = toy_trajectories[-1]
        spec = bundle.action_spec()
        specs = dict.fromkeys(range(1, cfg.levels + 1), spec)
        levels_seen = set()
        for traj in trajs:
            for st in traj.states[:-1]:
                acts, preds = action_values(bundle.nets, spec, st, cfg.sub)
                value, _ = _value_of_states(bundle.nets, specs, st, cfg.sub)
                assert value == preds[acts.index(choose_action(bundle, st))]
                levels_seen.add(st.level)
        assert levels_seen == set(range(1, cfg.levels))

    @pytest.mark.parametrize("drop", ["first_action", "net_2_2_w1"])
    def test_missing_key_rejected(self, toy_bundle, tmp_path, drop):
        from esscreen.errors import PolicyError

        path = tmp_path / "policy.npz"
        toy_bundle[1].save(path)  # net_2_2 is the final-level net, q = n_w
        _edit_artifact(path, drop=drop)
        with pytest.raises(PolicyError, match=drop):
            PolicyBundle.load(path)


def _set(a, idx, value):
    a = a.copy()
    a[idx] = value
    return a


#: one edited array of a saved net each: (array suffix, edit)
_TAMPERED_NETS = {
    "w1 column removed": ("w1", lambda a: a[:, :-1]),
    "w1 flattened": ("w1", np.ravel),
    "w1 row removed": ("w1", lambda a: a[1:]),
    "b1 short": ("b1", lambda a: a[:-1]),
    "w2 as a column": ("w2", lambda a: a[:, None]),
    "w1 nan": ("w1", lambda a: _set(a, (0, 1), np.nan)),
    "b1 inf": ("b1", lambda a: _set(a, 3, -np.inf)),
    "w2 nan": ("w2", lambda a: _set(a, -1, np.nan)),
    "b2 inf": ("b2", lambda a: _set(a, 0, np.inf)),
    "b2 empty": ("b2", lambda a: a[:0]),
}


@pytest.mark.parametrize("which", sorted(_TAMPERED_NETS))
def test_tampered_net_rejected_naming_its_key(toy_bundle, tmp_path, which):
    from esscreen.errors import PolicyError

    bundle = toy_bundle[1]
    part, edit = _TAMPERED_NETS[which]
    path = tmp_path / "policy.npz"
    for lvl, q in sorted(bundle.nets):  # nets with and without the f column
        bundle.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        key = f"net_{lvl}_{q}_{part}"
        arrays[key] = edit(arrays[key])
        np.savez_compressed(path, **arrays)
        with pytest.raises(PolicyError, match=re.escape(f"net ({lvl}, {q})")):
            PolicyBundle.load(path)


def _edit_artifact(path, header=None, config=None, drop=None, raw=None):
    """Rewrite an npz artifact with header keys and keys of the header's
    ``config`` replaced and one header key or array removed, or with the
    header bytes replaced by ``raw``."""
    import json

    with np.load(path) as data:
        arrays = dict(data)
    doc = json.loads(bytes(arrays["header"]).decode())
    doc.update(header or {})
    doc["config"].update(config or {})
    doc.pop(drop, None)
    arrays.pop(drop, None)
    if raw is None:
        raw = json.dumps(doc).encode()
    arrays["header"] = np.frombuffer(raw, dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def _header(**keys):
    return lambda path: _edit_artifact(path, header=keys)


def _config(**keys):
    return lambda path: _edit_artifact(path, config=keys)


def _raw_header(raw):
    return lambda path: _edit_artifact(path, raw=raw)


def _net_meta(edit):
    """Replace the header's list of net metas by ``edit`` of it."""
    import json

    def apply(path):
        with np.load(path) as data:
            metas = json.loads(bytes(data["header"]).decode())["net_meta"]
        _edit_artifact(path, header={"net_meta": edit(metas)})

    return apply


#: malformed artifacts, each made from a saved toy bundle by one edit
_MALFORMED = {
    "sub extra key": _header(sub={"c": 0.0, "p": 1.0, "x": 2.0}),
    "sub a list": _header(sub=[0.0, 1.0]),
    "header a list": _raw_header(b"[3, 1]"),
    "header not utf-8": _raw_header(b"\xff\xfe{}"),
    "header not json": _raw_header(b"{version: 4"),
    "not an npz": lambda path: path.write_bytes(b"not an npz archive"),
    "not a zip": lambda path: path.write_bytes(b"PK\x03\x04 truncated"),
    "seed a float": _config(seed=800.0),
    "levels a string": _config(levels="3"),
    "budget a string": _config(budget="4000"),
    "n_s a bool": _config(n_s=True),
    "n_w null": _config(n_w=None),
    "dn_quantum a string": _config(dn_quantum="1"),
    "max_scan a float": _config(max_scan=2.5),
    "q_grid a float entry": _config(q_grid=[2, 4.0]),
    "q_grid a number": _config(q_grid=4),
    "first_action a bool entry": _header(first_action=[1, True]),
    "n_s off the prior": _config(n_s=7),
    "net_meta a list": _net_meta(lambda metas: [list(m.values()) for m in metas]),
    "net_meta dn_hi a string": _net_meta(
        lambda metas: [{**m, "dn_hi": "9"} for m in metas]
    ),
    "net_meta short": _net_meta(lambda metas: metas[1:]),
    "n_w zero": _config(n_w=0),
    "q_grid above n_s": _config(q_grid=[2, 13]),
    "first_action negative": _header(first_action=[-1, -5]),
    "levels one": _config(levels=1),
    "dn_quantum negative": _config(dn_quantum=-1),
    "max_scan zero": _config(max_scan=0),
}


@pytest.mark.parametrize("which", sorted(_MALFORMED))
def test_malformed_artifact_rejected_naming_its_path(toy_bundle, tmp_path, which):
    from esscreen.errors import PolicyError

    path = tmp_path / "policy.npz"
    toy_bundle[1].save(path)
    _MALFORMED[which](path)
    with pytest.raises(PolicyError, match=re.escape(str(path))):
        PolicyBundle.load(path)


def test_every_varying_feature_reaches_the_net_standardized(monkeypatch):
    # features do not depend on the nets, so a short schedule sees the same
    # training rows as the full one
    from esscreen.adaptive import training

    raw, seen = [], []
    real_fit, real_search = training._fit_net, training.learning_rate_search

    def fit(nets, report, cfg, level, q, samples):
        raw.append(np.array([row for row, *_ in samples]))
        return real_fit(nets, report, cfg, level, q, samples)

    def search(x, *args, **kw):
        seen.append(x)
        return real_search(x, *args, **kw)

    monkeypatch.setattr(training, "_fit_net", fit)
    monkeypatch.setattr(training, "learning_rate_search", search)
    fit_value_functions(toy_config(n_iter=50, probe_steps=20))
    assert len(raw) == len(seen) >= 3
    for x, xt in zip(raw, seen):
        varying = np.ptp(x, axis=0) > 0
        np.testing.assert_allclose(xt[:, varying].std(axis=0), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(xt[:, ~varying], 0.0)


class TestTwoLevelDegenerate:
    def test_only_final_net_and_forced_selection(self):
        cfg = toy_config(levels=2, budget=3000, seed=11)
        bundle, report = fit_value_functions(cfg)
        assert set(bundle.nets) == {(1, cfg.n_w)}
        assert bundle.first_action[0] == cfg.n_s - cfg.n_w
        theta = sample_niw(cfg.prior, substream(60, 0))
        res = run_adaptive(bundle, GaussianSource(theta, substream(60, 1)))
        assert res.strategy.q == (cfg.n_s, cfg.n_w)
        assert res.pricings <= cfg.budget


def _replay_bundle(strategy, prior, budget):
    """An untrained bundle whose grid admits ``strategy``'s actions."""
    cfg = AdaptiveConfig(
        n_s=strategy.n_s,
        n_w=strategy.n_w,
        levels=strategy.levels,
        budget=budget,
        q_grid=tuple(sorted(set(strategy.q))),
        prior=prior,
        dn_quantum=1,
        max_scan=8,
    )
    first = (strategy.q[0] - strategy.q[1], strategy.n[1])
    return PolicyBundle(cfg, nets={}, first_action=first, first_action_table=[])


def _replay_actions(strategy):
    q = strategy.q + (strategy.n_w,)
    n = strategy.n
    return [(q[l] - q[l + 1], n[l + 1] - n[l]) for l in range(strategy.levels)]


@pytest.mark.parametrize("general", [False, True])
def test_adaptive_replay_of_a_strategy_equals_run_screening(general, monkeypatch):
    # run_adaptive driven by a fixed strategy's actions is the static engine:
    # same draws, same fold, same selections, bit for bit
    from esscreen.adaptive import policy

    n_s = 12
    prior = make_prior(n_s=n_s, n_w=2)
    if general:
        theta = sample_niw(prior, substream(80, 0))
    else:
        theta = ScenarioParams.equicorrelated(
            synthetic_book(n_s, 5.0), EquicorrelatedSpec(8.0, 0.4)
        )
    strategy = Strategy(q=(12, 6, 4, 2), n=(0, 5, 13, 30, 61))
    actions = _replay_actions(strategy)
    bundle = _replay_bundle(strategy, prior, budget=2 * cost(strategy))
    monkeypatch.setattr(policy, "choose_action", lambda b, state: actions[state.level])
    for r in range(5):
        res = run_adaptive(bundle, GaussianSource(theta, substream(81, r)))
        run = run_screening(strategy, GaussianSource(theta, substream(81, r)))
        assert res.actions == actions
        assert res.strategy == strategy
        assert res.pricings == run.pricings
        assert res.es_hat == run.es_hat
        assert len(res.survivors) == len(run.survivors)
        for a, b in zip(res.survivors, run.survivors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(res.sums, run.sums)
        np.testing.assert_array_equal(res.counts, run.counts)
        assert len(res.levels) == len(run.levels) == strategy.levels
        for a, b in zip(res.levels, run.levels):
            assert (a.dn, a.n_cum) == (b.dn, b.n_cum)
            for name in ("entered", "kept", "sums", "mu_hat", "batch_mean", "scatter"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_run_adaptive_updates_the_posterior_once_per_decision(monkeypatch):
    # the posterior is folded before each of the L - 1 later actions; no
    # decision follows the last level, so its batch updates nothing
    from esscreen.adaptive import policy

    strategy = Strategy(q=(12, 6, 4, 2), n=(0, 5, 13, 30, 61))
    actions = _replay_actions(strategy)
    bundle = _replay_bundle(strategy, make_prior(), budget=cost(strategy))
    monkeypatch.setattr(policy, "choose_action", lambda b, state: actions[state.level])
    calls = []

    def counting_update(*args):
        calls.append(args[3])
        return niw_update_diag_stats(*args)

    monkeypatch.setattr(policy, "niw_update_diag_stats", counting_update)
    theta = sample_niw(bundle.config.prior, substream(83, 0))
    res = run_adaptive(bundle, GaussianSource(theta, substream(83, 1)))
    assert res.actions == actions
    assert calls == [dn for _, dn in actions[:-1]]


def test_run_adaptive_rejects_an_over_budget_run(monkeypatch):
    # the budget is audited by an explicit check, which survives python -O
    from esscreen.adaptive import policy
    from esscreen.errors import PolicyError

    strategy = Strategy(q=(12, 2), n=(0, 10, 20))
    actions = _replay_actions(strategy)
    bundle = _replay_bundle(strategy, make_prior(), budget=cost(strategy) - 1)
    monkeypatch.setattr(ActionSpec, "is_admissible", lambda self, *args: True)
    monkeypatch.setattr(policy, "choose_action", lambda b, state: actions[state.level])
    theta = sample_niw(bundle.config.prior, substream(82, 0))
    with pytest.raises(PolicyError, match="budget"):
        run_adaptive(bundle, GaussianSource(theta, substream(82, 1)))


@pytest.mark.parametrize("budget", [math.nan, math.inf, 0, -4000, 4000.5, "4000"])
def test_adaptive_config_rejects_a_bad_budget(budget):
    with pytest.raises(InvalidParameterError, match="budget"):
        toy_config(budget=budget)


@pytest.mark.parametrize("levels", [1, 0, 2.5, "3"])
def test_adaptive_config_rejects_a_bad_level_count(levels):
    with pytest.raises(InvalidParameterError, match="levels"):
        toy_config(levels=levels)


@pytest.mark.parametrize(
    "name, value",
    [
        ("k_bar", 0),
        ("j_bar", 0),
        ("n_iter", 0),
        ("probe_steps", 0),
        ("lr_candidates", 0),
        ("n_e_final", -1),
        ("n_p_final", 100.0),
        ("n_e_mid", 0),
        ("n_p_mid", True),
        ("n_e_open", "16"),
        ("max_scan", 0),
        ("dn_quantum", -1),
        ("seed", 0.5),
        ("seed", -1),
        ("base_rate", 0.0),
        ("base_rate", math.nan),
        ("base_rate", math.inf),
    ],
)
def test_adaptive_config_rejects_a_bad_count_or_rate(name, value):
    with pytest.raises(InvalidParameterError, match=name):
        toy_config(**{name: value})


@pytest.mark.parametrize(
    "kw",
    [
        dict(q_grid=(1, 4, 6, 8, 12)),  # starts below n_w = 2
        dict(q_grid=(2, 4, 6, 8)),  # ends below n_s = 12
        dict(q_grid=(2, 4.0, 6, 8, 12)),
        dict(q_grid=(2, True, 6, 8, 12)),
        dict(q_grid=(12, 8, 6, 4, 2)),
        dict(q_grid=(2, 12), levels=3),  # fewer values than levels
    ],
)
def test_adaptive_config_rejects_a_q_grid_off_n_w_to_n_s(kw):
    with pytest.raises(InvalidParameterError, match="q_grid"):
        toy_config(**kw)


def test_adaptive_config_rejects_a_prior_with_other_scenario_ids():
    prior = replace(make_prior(), index_map=np.arange(12) + 5)
    with pytest.raises(InvalidParameterError, match="prior"):
        toy_config(prior=prior)


def test_adaptive_config_rejects_a_prior_of_another_dimension():
    with pytest.raises(InvalidParameterError, match="prior"):
        toy_config(n_s=10, q_grid=(2, 4, 6, 8, 10), prior=make_prior(n_s=12))


def test_single_worst_scenario_fits_and_runs():
    # n_w = 1: the final window, and the grid's smallest, is one survivor
    cfg = toy_config(n_w=1, q_grid=(1, 4, 6, 8, 12), n_iter=100, probe_steps=30)
    bundle, report = fit_value_functions(cfg)
    assert (cfg.levels - 1, 1) in bundle.nets
    assert all(np.isfinite(v) for v in report.final_losses.values())
    for r in range(20):
        theta = sample_niw(cfg.prior, substream(90, r))
        res = run_adaptive(bundle, GaussianSource(theta, substream(91, r)))
        assert res.final_survivors.size == 1 and res.pricings <= cfg.budget
        assert np.isfinite(res.es_hat)


def test_adaptive_config_with_numpy_integers_fits_saves_and_loads(tmp_path):
    cfg = toy_config(
        n_s=np.int64(12),
        n_w=np.int64(2),
        levels=np.int64(3),
        budget=np.int64(4000),
        q_grid=np.array([2, 4, 6, 8, 12]),
        dn_quantum=np.int64(3),
        max_scan=np.int64(8),
        seed=np.int64(3),
        n_iter=100,
        probe_steps=30,
    )
    bundle, _ = fit_value_functions(cfg)
    path = tmp_path / "policy.npz"
    bundle.save(path)  # the JSON header takes only built-in integers
    loaded = PolicyBundle.load(path).config
    assert (loaded.levels, loaded.budget, loaded.q_grid) == (3, 4000, (2, 4, 6, 8, 12))
    names = ("n_s", "n_w", "levels", "budget", "dn_quantum", "max_scan", "seed")
    assert {type(getattr(cfg, name)) for name in names} == {int}
    assert {type(v) for v in cfg.q_grid} == {int}


@pytest.mark.parametrize("config_seed", [21, 22])
def test_policy_close_to_enumerated_optimum(config_seed):
    # 10-scenario problem with a 3-point opening grid: the learned policy's
    # realized mean error over 500 evaluation runs must be within 1.1x of the
    # best fixed schedule found by exhaustive enumeration over the same
    # action grid.
    n_s, n_w = 10, 2
    prior = make_prior(n_s=n_s, n_w=n_w, delta0=6.0, sigma=10.0, rho=0.3, conf=30.0)
    cfg = AdaptiveConfig(
        n_s=n_s,
        n_w=n_w,
        levels=2,
        budget=3000,
        q_grid=(2, 10),
        prior=prior,
        sub=SubGammaParams(c=0.0, p=1.0),
        k_bar=24,
        j_bar=12,
        n_iter=6000,
        probe_steps=600,
        lr_candidates=4,
        base_rate=1.0,
        n_e_final=4000,
        n_p_final=200,
        n_e_mid=24,
        n_p_mid=8,
        n_e_open=48,
        dn_quantum=100,
        max_scan=40,
        seed=config_seed,
    )
    bundle, _ = fit_value_functions(cfg)

    runs = 500

    def eval_policy():
        tot = 0.0
        for r in range(runs):
            theta = sample_niw(prior, substream(70, r))
            res = run_adaptive(bundle, GaussianSource(theta, substream(71, r)))
            tot += abs(res.es_hat - exact_es(theta, n_w))
        return tot / runs

    def eval_fixed(strategy):
        from esscreen.screener import run_screening

        tot = 0.0
        for r in range(runs):
            theta = sample_niw(prior, substream(70, r))
            run = run_screening(strategy, GaussianSource(theta, substream(71, r)))
            tot += abs(run.es_hat - exact_es(theta, n_w))
        return tot / runs

    # all fixed schedules on the same quantized action grid
    candidates = []
    for dn1 in range(100, 3001, 100):
        spent = n_s * dn1
        rem = (cfg.budget - spent) // n_w
        if rem < 100:
            continue
        dn2 = (rem // 100) * 100
        candidates.append(Strategy(q=(n_s, n_w), n=(0, dn1, dn1 + dn2)))
    best_fixed = min(eval_fixed(s) for s in candidates)
    assert eval_policy() <= 1.1 * best_fixed


def _per_world_lookahead(state, action, draws, rng, nets, specs, sub):
    """The lookahead as a loop over worlds (one ``step``, ``advance`` and
    ``action_values`` each): the reference of the stacked pass."""
    from esscreen.adaptive.policy import action_values, advance
    from esscreen.screener import _dense_stats, step

    dq, dn = action
    values = []
    for mu_tilde, factor in draws:
        batch_sum, scatter = _dense_stats(mu_tilde, factor, dn, rng)
        stats = step(
            state.ids, state.sums, state.n_cum, batch_sum, scatter, dn, state.q - dq
        )
        nxt = advance(state, stats)
        acts, preds = action_values(nets, specs[nxt.level + 1], nxt, sub)
        assert acts
        values.append(float(np.min(preds)))
    return float(np.mean(values))


class TestStackedLookahead:
    """The lookahead steps all its worlds at once; every value keeps the
    bits of the per-world loop, in the same random stream order."""

    def _both(self, cfg, bundle, state, action, draws_of, seed):
        from esscreen.adaptive import training

        report = training.TrainingReport({}, {}, {}, fallbacks=0)
        specs = dict.fromkeys(range(1, cfg.levels + 1), bundle.action_spec())
        rng = substream(96, *seed)
        got = training._lookahead(
            state, action, draws_of(rng), rng, bundle.nets, specs, cfg.sub, report
        )
        rng = substream(96, *seed)
        want = _per_world_lookahead(
            state, action, draws_of(rng), rng, bundle.nets, specs, cfg.sub
        )
        assert report.fallbacks == 0
        return got, want

    def test_mid_level_is_the_per_world_loop(self, toy_bundle, toy_trajectories):
        from esscreen.adaptive.training import _predictive_draws

        cfg, bundle, _ = toy_bundle
        for traj in toy_trajectories[-1][::3]:
            state = traj.states[0]
            got, want = self._both(
                cfg,
                bundle,
                state,
                traj.strategy.actions[1],
                lambda rng: _predictive_draws(state.niw, cfg.n_e_mid, cfg.n_p_mid, rng),
                (traj.k, traj.j),
            )
            assert got == want

    def test_opening_is_the_per_world_loop(self, toy_bundle):
        from esscreen.adaptive.policy import scan_actions
        from esscreen.adaptive.training import _predictive_draws

        cfg, bundle, _ = toy_bundle
        state0 = PosteriorState.opening(cfg.prior)
        acts = scan_actions(bundle.nets, bundle.action_spec(), state0)
        assert len({dq for dq, _ in acts}) >= 2
        for a, action in enumerate(acts):
            rng = substream(97)
            draws = list(_predictive_draws(cfg.prior, cfg.n_e_open, cfg.n_p_mid, rng))
            got, want = self._both(cfg, bundle, state0, action, lambda rng: draws, (a,))
            assert got == want


def _zero_diagonal_prior(n_s=12, zero=5):
    """The toy prior with scenario ``zero``'s variance (row and column) 0."""
    prior = make_prior(n_s)
    s = prior.s.copy()
    s[zero, :] = s[:, zero] = 0.0
    return replace(prior, s=s)


def _stacked_and_worlds(prior, keep, worlds=6, dn=4, seed=0):
    """A stacked state after one simulated level from the opening, and the
    per-world states of the same batches; integer batch sums make ties in
    ``mu_hat``."""
    from esscreen.adaptive.policy import advance
    from esscreen.screener import step

    state = PosteriorState.opening(prior)
    rng = substream(98, keep, seed)
    batch = rng.integers(-3, 4, size=(worlds, state.q)).astype(float)
    scatter = rng.uniform(1.0, 9.0, size=(worlds, state.q))

    def one(b, sc):
        return advance(state, step(state.ids, state.sums, 0, b, sc, dn, keep))

    return one(batch, scatter), [one(b, sc) for b, sc in zip(batch, scatter)]


@pytest.mark.parametrize("keep", [12, 8, 6])
def test_stacked_advance_is_each_worlds_advance(keep):
    stacked, per_world = _stacked_and_worlds(_zero_diagonal_prior(), keep)
    assert stacked.q == keep and stacked.ids.shape == (6, keep)
    kept_zero = [5 in st.ids for st in per_world]
    assert keep == 12 or (any(kept_zero) and not all(kept_zero))
    for w, st in enumerate(per_world):
        for name in ("ids", "mu_hat", "sums"):
            assert getattr(stacked, name)[w].tobytes() == getattr(st, name).tobytes()
        assert stacked.niw.m[w].tobytes() == st.niw.m.tobytes()
        assert stacked.niw.s[w].tobytes() == st.niw.s.tobytes()
        assert (stacked.level, stacked.n_cum, stacked.cost) == (st.level, st.n_cum, st.cost)


@pytest.mark.parametrize("keep", [8, 6])
@pytest.mark.parametrize("sub", _SUBS)
def test_stacked_features_and_f_plugin_are_each_worlds(keep, sub):
    stacked, per_world = _stacked_and_worlds(_zero_diagonal_prior(), keep, seed=1)
    assert any(len(set(st.mu_hat.tolist())) < keep for st in per_world)  # ties
    acts = [(0, 6), (keep - 2, 6), (keep - 2, 90), (2, 30), (0, 3), (2, 3)]
    rows = features(stacked, acts, 2, sub)
    dns = np.array([1, 6, 90])
    assert rows.shape == (6, len(acts), 8 + 3 * keep)
    for w, st in enumerate(per_world):
        assert rows[w].tobytes() == features(st, acts, 2, sub).tobytes()
        for dq in (0, 2, keep - 2):
            got = f_plugin(stacked, dq, dns, 2, sub)
            assert got.shape == (3, 6)
            assert got[:, w].tobytes() == f_plugin(st, dq, dns, 2, sub).tobytes()
            assert got[1, w] == f_plugin(st, dq, 6, 2, sub)


class TestFallbackCount:
    def test_pool_edge_state_is_scored_and_counted(self, toy_bundle, toy_trajectories):
        # no cap room at the next level: the state is scored at the
        # cheapest legal continuation, and counted
        from esscreen.adaptive.training import _value_of_states
        from esscreen.adaptive.net import net_forward

        cfg, bundle, _ = toy_bundle
        state = toy_trajectories[-1][0].states[0]
        spec = bundle.action_spec()
        specs = {state.level + 1: replace(spec, budget=state.cost)}
        value, fallbacks = _value_of_states(bundle.nets, specs, state, cfg.sub)
        rows = features(state, [(state.q - cfg.n_w, spec.dn_quantum)], cfg.n_w, cfg.sub)
        assert fallbacks == 1
        assert value == net_forward(bundle.nets[(state.level, state.q)], rows)[0]

    def test_report_counts_every_fallback_world(self, monkeypatch):
        # with no admissible scan action anywhere, every simulated world of
        # every lookahead falls back: n_e_mid per trajectory at the level-1
        # targets and n_e_open per opening action
        from esscreen.adaptive import training

        monkeypatch.setattr(training, "action_values", lambda *a: ([], np.empty(0)))
        cfg = toy_config(
            k_bar=2, j_bar=2, n_iter=40, probe_steps=20, lr_candidates=2, base_rate=1e-3
        )
        bundle, report = fit_value_functions(cfg)
        opening = len(bundle.first_action_table)
        assert opening >= 1
        assert report.fallbacks == 2 * 2 * cfg.n_e_mid + opening * cfg.n_e_open
