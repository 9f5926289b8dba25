"""Adaptive allocator: strategy generation, forward pass, plug-in bounds,
terminal-value Monte Carlo, policy training and online execution."""

import math

import numpy as np
import pytest

from esscreen.adaptive import (
    ActionSpec,
    AdaptiveConfig,
    PolicyBundle,
    PosteriorState,
    TrajectorySet,
    f_plugin,
    f_precompute,
    fit_value_functions,
    forward_pass,
    generate_strategies,
    mc_value_final,
    run_adaptive,
)
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
from esscreen.screener import Strategy, cost, exact_es, run_screening, worst_indexes
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
    return cfg, forward_pass(strategies, books, cfg)


class TestForwardPass:
    def test_pseudo_counts_track_paths(self, toy_trajectories):
        cfg, ts = toy_trajectories
        for traj in ts.trajectories:
            strat = ts.strategies[traj.k]
            for rec in traj.records:
                assert rec.kappa == cfg.prior.k + strat.n[rec.level]
                assert rec.dof == cfg.prior.i + strat.n[rec.level]

    def test_running_cost_identity(self, toy_trajectories):
        cfg, ts = toy_trajectories
        for traj in ts.trajectories:
            strat = ts.strategies[traj.k]
            c = 0
            for rec in traj.records:
                c += rec.entered.size * rec.delta_n
                assert rec.c_run == c
            assert c == cost(strat)

    def test_replayable(self, toy_trajectories):
        cfg, ts = toy_trajectories
        ts2 = forward_pass(ts.strategies, ts.books, cfg)
        a = ts.trajectories[5].records[-1]
        b = ts2.trajectories[5].records[-1]
        np.testing.assert_array_equal(a.mu_hat_kept, b.mu_hat_kept)
        np.testing.assert_array_equal(a.s_diag, b.s_diag)

    def test_zero_variance_book_locks_posterior_mean(self):
        cfg = toy_config(k_bar=1, j_bar=1)
        mu = synthetic_book(cfg.n_s, 5.0)
        book = ScenarioParams(mu=mu, sigma=np.zeros((cfg.n_s, cfg.n_s)))
        strat = Strategy(q=(12, 4, 2), n=(0, 40, 120, 400))
        ts = forward_pass([strat], [book], cfg)
        rec = ts.trajectories[0].records[-1]
        # with noiseless prices the location posterior contracts onto mu
        w = rec.kappa
        want = (cfg.prior.k * cfg.prior.m[rec.kept] + (w - cfg.prior.k) * mu[rec.kept]) / w
        np.testing.assert_allclose(rec.m, want, rtol=1e-9)

    def test_save_load_roundtrip(self, toy_trajectories, tmp_path):
        cfg, ts = toy_trajectories
        path = tmp_path / "traj.npz"
        ts.save(path)
        ts2 = TrajectorySet.load(path)
        assert len(ts2.trajectories) == len(ts.trajectories)
        a = ts.trajectories[3].records[1]
        b = ts2.trajectories[3].records[1]
        np.testing.assert_array_equal(a.kept, b.kept)
        np.testing.assert_array_equal(a.half_s_diag, b.half_s_diag)
        assert ts2.strategies[ts2.trajectories[3].k] == ts.strategies[ts.trajectories[3].k]

    @pytest.mark.parametrize(
        "edit", [{"drop": "book1_mu"}, {"drop": "n_traj"}, {"header": {"version": 0}}]
    )
    def test_malformed_artifact_rejected(self, toy_trajectories, tmp_path, edit):
        from esscreen.errors import ConfigError

        path = tmp_path / "traj.npz"
        toy_trajectories[1].save(path)
        _edit_artifact(path, **edit)
        with pytest.raises(ConfigError, match=edit.get("drop", "version 0")):
            TrajectorySet.load(path)


class TestFPrecompute:
    def test_matches_direct_transcription(self, toy_trajectories):
        cfg, ts = toy_trajectories
        traj = ts.trajectories[2]
        for level in (1, 2):
            rec = traj.records[level - 1]
            if rec.kept.size == rec.entered.size:
                continue
            got = f_precompute(ts, traj, level, cfg.sub)
            prev_mu = (
                traj.records[level - 2].mu_hat_kept
                if level >= 2
                else np.zeros(rec.entered.size)
            )
            d = rec.entered.size
            state = AdaptiveState(
                mu_hat_prev=prev_mu,
                n_prev=rec.n_cum - rec.delta_n,
                delta_n=rec.delta_n,
                q_next=rec.kept.size,
                n_w=min(ts.n_w, rec.kept.size),
            )
            want = f_p_ad(
                level,
                rec.half_m,
                ts.s_full(rec, half=True) / (rec.half_dof - d - 1),
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


class TestMcValueFinal:
    def _small_ts(self):
        cfg = toy_config(k_bar=2, j_bar=2)
        strategies = generate_strategies(2, cfg, substream(7, 0))
        books = [sample_niw(cfg.prior, substream(7, 1, j)) for j in range(2)]
        return cfg, forward_pass(strategies, books, cfg)

    def test_zero_posterior_variance(self):
        cfg, ts = self._small_ts()
        traj = ts.trajectories[0]
        rec = traj.records[-1]
        rec.s_diag = np.zeros_like(rec.s_diag)
        rec.kappa = 1e18
        got = mc_value_final(ts, traj, 100, 10, substream(8, 0))
        want = abs(np.mean(rec.mu_hat_kept - rec.m))
        assert got == pytest.approx(want, rel=1e-6)

    def test_stderr_shrinks_with_draws(self):
        cfg, ts = self._small_ts()
        traj = ts.trajectories[1]

        def spread(n_e, reps, tag):
            vals = [
                mc_value_final(ts, traj, n_e, 10, substream(9, tag, r))
                for r in range(reps)
            ]
            return np.std(vals)

        s_small, s_big = spread(50, 24, 0), spread(800, 24, 1)
        assert s_big < s_small / 2.5  # expect ~1/4 at 16x the draws

    def test_matches_fresh_wishart_estimator(self):
        # reusing one covariance draw per block must agree with a fresh draw
        # per sample within combined Monte Carlo error
        cfg, ts = self._small_ts()
        traj = ts.trajectories[0]
        pooled = [
            mc_value_final(ts, traj, 3000, 50, substream(10, 0, r)) for r in range(8)
        ]
        fresh = [
            mc_value_final(ts, traj, 3000, 1, substream(10, 1, r)) for r in range(8)
        ]
        se = math.hypot(np.std(pooled) / math.sqrt(8), np.std(fresh) / math.sqrt(8))
        assert abs(np.mean(pooled) - np.mean(fresh)) < 4 * se + 1e-12


class TestActionSpec:
    def _spec(self):
        return ActionSpec(
            q_grid=(2, 4, 6, 8, 12), n_w=2, levels=3, budget=4000, dn_quantum=10
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

    def test_policy_actions_always_feasible(self, toy_bundle):
        cfg, bundle, _ = toy_bundle
        spec = bundle.action_spec()
        for r in range(200):
            theta = sample_niw(cfg.prior, substream(50, r))
            res = run_adaptive(bundle, theta, substream(51, r))
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
        res = run_adaptive(bundle, theta, substream(52, 0))
        assert set(res.final_survivors) == set(worst_indexes(mu, cfg.n_w))
        assert res.es_hat == pytest.approx(exact_es(theta, cfg.n_w))

    def test_deterministic_replay(self, toy_bundle):
        cfg, bundle, _ = toy_bundle
        theta = sample_niw(cfg.prior, substream(53, 0))
        a = run_adaptive(bundle, theta, substream(53, 1))
        b = run_adaptive(bundle, theta, substream(53, 1))
        assert a.es_hat == b.es_hat and a.strategy == b.strategy

    def test_bundle_roundtrip(self, toy_bundle, tmp_path):
        cfg, bundle, _ = toy_bundle
        path = tmp_path / "policy.npz"
        bundle.save(path)
        b2 = PolicyBundle.load(path)
        theta = sample_niw(cfg.prior, substream(54, 0))
        a = run_adaptive(bundle, theta, substream(54, 1))
        b = run_adaptive(b2, theta, substream(54, 1))
        assert a.es_hat == b.es_hat and a.actions == b.actions

    def test_missing_artifact_error_names_path(self, tmp_path):
        from esscreen.errors import PolicyError

        missing = tmp_path / "nope.npz"
        with pytest.raises(PolicyError, match="nope.npz"):
            PolicyBundle.load(missing)

    def test_other_version_rejected(self, toy_bundle, tmp_path):
        # a version-1 artifact's first layer expects pre-divided inputs
        from esscreen.errors import PolicyError

        path = tmp_path / "policy.npz"
        toy_bundle[1].save(path)
        _edit_artifact(path, header={"version": 1})
        with pytest.raises(PolicyError, match="version 1"):
            PolicyBundle.load(path)

    @pytest.mark.parametrize("drop", ["first_action", "net_2_2_w1"])
    def test_missing_key_rejected(self, toy_bundle, tmp_path, drop):
        from esscreen.errors import PolicyError

        path = tmp_path / "policy.npz"
        toy_bundle[1].save(path)  # net_2_2 is the final-level net, q = n_w
        _edit_artifact(path, drop=drop)
        with pytest.raises(PolicyError, match=drop):
            PolicyBundle.load(path)


def _edit_artifact(path, header=None, drop=None):
    """Rewrite an npz artifact with header keys replaced and one header key
    or array removed."""
    import json

    with np.load(path) as data:
        arrays = dict(data)
    doc = json.loads(bytes(arrays["header"]).decode())
    doc.update(header or {})
    doc.pop(drop, None)
    arrays.pop(drop, None)
    arrays["header"] = np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def test_every_varying_feature_reaches_the_net_standardized(monkeypatch):
    # features do not depend on the nets, so a short schedule sees the same
    # training rows as the full one
    from esscreen.adaptive import training

    raw, seen = [], []
    real_fit, real_search = training._fit_net, training.learning_rate_search

    def fit(*args, x, **kw):
        raw.append(x)
        return real_fit(*args, x=x, **kw)

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
        res = run_adaptive(bundle, theta, substream(60, 1))
        assert res.strategy.q == (cfg.n_s, cfg.n_w)
        assert res.pricings <= cfg.budget


def _replay_bundle(strategy, prior, budget):
    """An untrained bundle whose grid admits ``strategy``'s actions."""
    n_s, n_w = strategy.n_s, strategy.n_w
    return PolicyBundle(
        seed=0,
        levels=strategy.levels,
        budget=budget,
        n_s=n_s,
        n_w=n_w,
        q_grid=tuple(sorted(set(strategy.q))),
        dn_quantum=1,
        max_scan=8,
        sub=SubGammaParams(c=0.0, p=1.0),
        prior=prior,
        nets={},
        first_action=(strategy.q[0] - strategy.q[1], strategy.n[1]),
        first_action_table=[],
    )


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
        res = run_adaptive(bundle, theta, substream(81, r))
        run = run_screening(strategy, theta, substream(81, r))
        assert res.actions == actions
        assert res.strategy == strategy
        assert res.pricings == run.pricings
        assert res.es_hat == run.es_hat
        assert len(res.survivors) == len(run.survivors)
        for a, b in zip(res.survivors, run.survivors):
            np.testing.assert_array_equal(a, b)


def test_run_adaptive_rejects_an_over_budget_run(monkeypatch):
    # the budget is audited by an explicit check, which survives python -O
    from esscreen.adaptive import policy
    from esscreen.errors import PolicyError

    strategy = Strategy(q=(12, 2), n=(0, 10, 20))
    actions = _replay_actions(strategy)
    bundle = _replay_bundle(strategy, make_prior(), budget=cost(strategy) - 1)
    monkeypatch.setattr(ActionSpec, "is_admissible", lambda self, *args: True)
    monkeypatch.setattr(policy, "choose_action", lambda b, state: actions[state.level])
    theta = sample_niw(bundle.prior, substream(82, 0))
    with pytest.raises(PolicyError, match="budget"):
        run_adaptive(bundle, theta, substream(82, 1))


def test_policy_close_to_enumerated_optimum():
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
        seed=21,
    )
    bundle, _ = fit_value_functions(cfg)

    runs = 500

    def eval_policy():
        tot = 0.0
        for r in range(runs):
            theta = sample_niw(prior, substream(70, r))
            res = run_adaptive(bundle, theta, substream(71, r))
            tot += abs(res.es_hat - exact_es(theta, n_w))
        return tot / runs

    def eval_fixed(strategy):
        from esscreen.screener import run_screening

        tot = 0.0
        for r in range(runs):
            theta = sample_niw(prior, substream(70, r))
            run = run_screening(strategy, theta, substream(71, r))
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
