"""Value-function nets: forward pass, exact gradients, training loop."""

import logging

import numpy as np
import pytest

from esscreen.adaptive import net as net_mod
from esscreen.adaptive.net import (
    TrainSchedule,
    learning_rate_search,
    net_forward,
    net_loss_and_grads,
    train_level,
    xavier_net,
)
from esscreen.errors import TrainingDivergedError


def _net(d=7, seed=0, hidden=32):
    rng = np.random.default_rng(seed)
    return xavier_net(d, rng, hidden=hidden)


def _flatten(net):
    return np.concatenate([net.w1.ravel(), net.b1, net.w2, [net.b2]])


def _with_params(net, vec):
    h, d = net.w1.shape
    w1 = vec[: h * d].reshape(h, d)
    b1 = vec[h * d : h * d + h]
    w2 = vec[h * d + h : h * d + 2 * h]
    b2 = float(vec[-1])
    from dataclasses import replace

    return replace(net, w1=w1, b1=b1, w2=w2, b2=b2)


class TestGradients:
    @pytest.mark.parametrize("r", [2.0, 1.5, 3.0])
    def test_matches_central_differences(self, r):
        # exact backprop vs central finite differences at 100 random
        # parameter coordinates
        rng = np.random.default_rng(42)
        net = _net(d=6, seed=1, hidden=20)
        x = rng.normal(size=(9, 6)) * 2.0
        y = rng.normal(size=9) * 3.0
        _, grads = net_loss_and_grads(net, x, y, r)
        flat_grad = np.concatenate(
            [grads["w1"].ravel(), grads["b1"], grads["w2"], [grads["b2"]]]
        )
        theta0 = _flatten(net)
        coords = rng.choice(theta0.size, size=100, replace=False)
        for c in coords:
            h = 1e-4 * max(1.0, abs(theta0[c]))
            up, dn = theta0.copy(), theta0.copy()
            up[c] += h
            dn[c] -= h
            lu, _ = net_loss_and_grads(_with_params(net, up), x, y, r)
            ld, _ = net_loss_and_grads(_with_params(net, dn), x, y, r)
            fd = (lu - ld) / (2 * h)
            denom = max(abs(fd), abs(flat_grad[c]), 1e-8)
            assert abs(fd - flat_grad[c]) / denom < 1e-5

    def test_forward_deterministic(self):
        net = _net()
        x = np.random.default_rng(3).normal(size=(5, 7))
        np.testing.assert_array_equal(net_forward(net, x), net_forward(net, x))


class TestStandardizationFold:
    def test_folded_net_equals_trained_net_on_standardized_rows(self, monkeypatch):
        # _fit_net trains on standardized rows and stores a net over raw rows;
        # the two agree, and both ignore the columns constant in training
        from esscreen.adaptive import training
        from esscreen.adaptive.policy import FeatureLayout
        from esscreen.model import NIWParams

        layout = FeatureLayout.for_q(2, with_f=False)
        rng = np.random.default_rng(17)
        n = 24
        scales = np.logspace(-3, 12, layout.dim)
        offsets = rng.uniform(-20.0, 20.0, size=layout.dim)
        x = scales * (offsets + rng.normal(size=(n, layout.dim)))
        const = np.array([2, 4, 5])
        x[:, 2] = 6.0
        x[:, 4] = 0.0
        x[:, 5] = 1e15 + 10.0 * rng.normal(size=n)  # spread 1e-14 of its size
        y = 3e5 + 1e5 * rng.normal(size=n)
        cfg = training.AdaptiveConfig(
            n_s=2,
            n_w=2,
            levels=2,
            budget=100,
            q_grid=(2,),
            prior=NIWParams(m=np.zeros(2), k=1.0, i=4.0, s=np.eye(2), index_map=[0, 1]),
            n_iter=200,
            probe_steps=50,
            lr_candidates=2,
            base_rate=1e-3,
        )
        trained = []
        real = training.learning_rate_search

        def capture(xt, yt, *args, **kw):
            out = real(xt, yt, *args, **kw)
            trained.append((xt, out[0]))
            return out

        monkeypatch.setattr(training, "learning_rate_search", capture)
        nets, report = {}, training.TrainingReport({}, {}, {}, [])
        training._fit_net(
            nets, report, cfg, level=1, q=2, layout=layout, x=x, y=y,
            k_of=np.zeros(n, dtype=int), j_of=np.arange(n),
        )
        ((xt, net),) = trained
        folded = nets[(1, 2)]
        y_c, y_s, _ = report.target_stats[(1, 2)]
        np.testing.assert_array_equal(xt[:, const], 0.0)
        np.testing.assert_allclose(
            net_forward(folded, x), y_c + y_s * net_forward(net, xt), rtol=1e-10
        )
        keep = np.ones(layout.dim, dtype=bool)
        keep[const] = False
        col_c, col_s = x.mean(axis=0), x.std(axis=0)
        x_new = col_c + col_s * rng.normal(size=x.shape)
        x_new[:, const] = [7.0, 5.0, 3e15]
        z = np.zeros_like(x_new)
        z[:, keep] = (x_new[:, keep] - col_c[keep]) / col_s[keep]
        np.testing.assert_allclose(
            net_forward(folded, x_new), y_c + y_s * net_forward(net, z), rtol=1e-10
        )


class TestTraining:
    def test_constant_target_converges(self):
        # bias-only solution exists; at production width the fit is exact
        # well inside the 10^4-step allowance
        rng = np.random.default_rng(7)
        x = rng.normal(size=(48, 4))
        y = np.full(48, 3.7)
        net = xavier_net(4, np.random.default_rng(2), hidden=256)
        sched = TrainSchedule(n_iter=3000, rate=0.5, r=2.0, seed=0, j_batch=48, k_batch=1)
        net, losses = train_level(x, y, net, sched)
        pred = net_forward(net, x)
        assert np.max(np.abs(pred - 3.7)) < 1e-3
        assert losses[-1] < losses[0]

    def test_divergence_reported_with_iteration(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(32, 3)) * 100
        y = rng.normal(size=32) * 100
        net = _net(d=3, seed=3)
        sched = TrainSchedule(n_iter=2000, rate=1e6, r=2.0, seed=0)
        with pytest.raises(TrainingDivergedError) as exc:
            train_level(x, y, net, sched)
        assert exc.value.iteration is not None

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=5)
        sched = TrainSchedule(n_iter=500, rate=0.01, seed=11)
        n1, l1 = train_level(x, y, _net(d=5, seed=4), sched)
        n2, l2 = train_level(x, y, _net(d=5, seed=4), sched)
        np.testing.assert_array_equal(n1.w1, n2.w1)
        np.testing.assert_array_equal(l1, l2)

    def test_grouped_batches_respect_membership(self):
        rng = np.random.default_rng(10)
        n_k, n_j = 6, 5
        k_of = np.repeat(np.arange(n_k), n_j)
        j_of = np.tile(np.arange(n_j), n_k)
        x = rng.normal(size=(n_k * n_j, 3))
        y = rng.normal(size=n_k * n_j)
        sched = TrainSchedule(n_iter=50, rate=1e-3, j_batch=2, k_batch=2, seed=5)
        net, losses = train_level(x, y, _net(d=3, seed=5), sched, k_of=k_of, j_of=j_of)
        assert np.all(np.isfinite(losses))


class TestLearningRateSearch:
    def test_degenerate_single_candidate(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        sched = TrainSchedule(n_iter=300, rate=0.03, seed=1)
        net, rate, losses = learning_rate_search(
            x,
            y,
            lambda r: xavier_net(3, r, hidden=16),
            sched,
            candidates=1,
            probe_steps=50,
        )
        assert rate == pytest.approx(0.003)
        assert losses.size == 300

    def test_picks_sane_rate_on_quadratic_task(self):
        # probe rates 10, 1, 0.1, 0.01: the early ones diverge or thrash, an
        # interior rate wins, and the finished net actually fits the data
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 4))
        y = x @ np.array([2.0, -1.0, 0.0, 1.0]) + 0.5
        sched = TrainSchedule(n_iter=4000, rate=10.0, j_batch=8, k_batch=8, seed=2)
        net, rate, losses = learning_rate_search(
            x,
            y,
            lambda r: xavier_net(4, r, hidden=32),
            sched,
            candidates=4,
            probe_steps=400,
        )
        assert rate < 10.0
        pred = net_forward(net, x)
        assert np.mean((pred - y) ** 2) < 0.05 * np.var(y)

    def test_reproducible_selection(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        sched = TrainSchedule(n_iter=100, rate=1.0, seed=3)
        make = lambda r: xavier_net(3, r, hidden=8)
        a = learning_rate_search(x, y, make, sched, candidates=3, probe_steps=40)
        b = learning_rate_search(x, y, make, sched, candidates=3, probe_steps=40)
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[0].w1, b[0].w1)

    def test_all_divergent_raises_with_traces(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(20, 2)) * 1e3
        y = rng.normal(size=20) * 1e3
        sched = TrainSchedule(n_iter=100, rate=1e9, seed=4)
        with pytest.raises(TrainingDivergedError) as exc:
            learning_rate_search(
                x,
                y,
                lambda r: xavier_net(2, r, hidden=8),
                sched,
                candidates=2,
                probe_steps=50,
            )
        assert "rate" in str(exc.value)


class TestFinalRunFallback:
    """A final run that diverges falls back to the next-best converged probe."""

    def _task(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, 0.5, -1.0])
        sched = TrainSchedule(n_iter=120, rate=0.1, seed=6)
        return x, y, sched, lambda r: xavier_net(3, r, hidden=8)

    def _diverge_finals(self, monkeypatch, n_iter, bad_rates):
        real = net_mod.train_level
        calls = []

        def train_level(x, y, net, schedule, **kw):
            calls.append((schedule.n_iter, schedule.rate))
            if schedule.n_iter == n_iter and schedule.rate in bad_rates:
                raise TrainingDivergedError("loss became non-finite at iteration 4", 4)
            return real(x, y, net, schedule, **kw)

        monkeypatch.setattr(net_mod, "train_level", train_level)
        return calls

    def test_falls_back_to_next_best_probe(self, monkeypatch, caplog):
        x, y, sched, make = self._task()
        _, best_rate, _ = learning_rate_search(
            x, y, make, sched, candidates=3, probe_steps=30
        )
        calls = self._diverge_finals(monkeypatch, sched.n_iter, {best_rate})
        with caplog.at_level(logging.WARNING, logger="esscreen.adaptive.net"):
            net, rate, losses = learning_rate_search(
                x, y, make, sched, candidates=3, probe_steps=30
            )
        finals = [rate for n_iter, rate in calls if n_iter == sched.n_iter]
        assert finals == [best_rate, rate] and rate != best_rate
        assert losses.size == sched.n_iter and np.all(np.isfinite(losses))
        warned = [r for r in caplog.records if r.name == "esscreen.adaptive.net"]
        assert len(warned) == 1 and warned[0].levelno == logging.WARNING

    def test_raises_listing_every_attempt(self, monkeypatch):
        x, y, sched, make = self._task()
        rates = {sched.rate / 10.0**i for i in range(1, 4)}
        self._diverge_finals(monkeypatch, sched.n_iter, rates)
        with pytest.raises(TrainingDivergedError) as exc:
            learning_rate_search(x, y, make, sched, candidates=3, probe_steps=30)
        msg = str(exc.value)
        for rate in (0.1, 0.01, 0.001):
            assert f"rate {rate:g}: mean log loss" in msg  # each probe's outcome
        for rate in rates:
            assert f"final rate {rate:g}: diverged at 4" in msg
