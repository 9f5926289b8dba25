"""Value-function nets: forward pass, exact gradients, training loop."""

import logging
import warnings
from dataclasses import replace

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


def _xavier(d, rng, hidden):
    """:func:`xavier_net` with ``hidden`` hidden units."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(net_mod, "HIDDEN_UNITS", hidden)
        return xavier_net(d, rng, {})


def _net(d=7, seed=0, hidden=32):
    return _xavier(d, np.random.default_rng(seed), hidden)


def _labels(n, width):
    """Strategy and world labels of ``n`` samples laid out on a grid
    ``width`` strategies wide: every sample its own (k, j) pair."""
    rows = np.arange(n)
    return {"k_of": rows % width, "j_of": rows // width}


def _flatten(net):
    return np.concatenate([net.w1.ravel(), net.b1, net.w2, [net.b2]])


def _with_params(net, vec):
    h, d = net.w1.shape
    w1 = vec[: h * d].reshape(h, d)
    b1 = vec[h * d : h * d + h]
    w2 = vec[h * d + h : h * d + 2 * h]
    b2 = float(vec[-1])
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


def _out_of_place_loss_and_grads(net, x, y, r):
    """The step written with fresh temporaries, ``np.outer`` and ``np.mean``."""
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ net.w1.T + net.b1
        e = np.exp(-np.abs(z))
        h = np.maximum(z, 0.0) + np.log1p(e)
        err = h @ net.w2 + net.b2 - y
        abs_err = np.abs(err)
        dpred = r * abs_err ** (r - 1.0) * np.sign(err) / n
        sig = np.where(z >= 0, 1.0, e) / (1.0 + e)
        dz = np.outer(dpred, net.w2) * sig
    grads = {"w1": dz.T @ x, "b1": dz.sum(axis=0), "w2": h.T @ dpred}
    return float(np.mean(abs_err**r)), grads | {"b2": float(np.sum(dpred))}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r", [2.0, 1.5])
@pytest.mark.parametrize("n, d", [(1, 3), (16, 15), (16, 150), (40, 7)])
def test_step_is_bitwise_the_out_of_place_formula(seed, r, n, d):
    rng = np.random.default_rng(seed)
    net = replace(_net(d=d, seed=seed, hidden=256), b1=rng.normal(size=256))
    x = rng.normal(size=(n, d)) * np.logspace(-2, 3, d)
    y = rng.normal(size=n) * 100.0
    loss, grads = net_loss_and_grads(net, x, y, r)
    want_loss, want = _out_of_place_loss_and_grads(net, x, y, r)
    assert loss == want_loss and grads["b2"] == want["b2"]
    for p in ("w1", "b1", "w2"):
        assert grads[p].tobytes() == want[p].tobytes(), p


class TestActivations:
    """One ``e = exp(-|z|)`` gives the softplus and the sigmoid."""

    SPECIAL = [0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf]

    def _grid(self):
        dense = np.linspace(-800.0, 800.0, 160_001)
        fine = np.linspace(-40.0, 40.0, 80_001)
        tiny = np.concatenate([-np.logspace(-320, 2, 3000), np.logspace(-320, 2, 3000)])
        return np.concatenate([self.SPECIAL, dense, fine, tiny])

    def _both(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = np.exp(-np.abs(z))
            return net_mod._softplus(z, e), net_mod._sigmoid(z, e)

    def test_sigmoid_equals_two_branch_formula(self):
        z = self._grid()
        pos = z >= 0
        want = np.empty_like(z)
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        want[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
        np.testing.assert_array_equal(self._both(z)[1], want)

    def test_softplus_matches_logaddexp(self):
        z = self._grid()
        want = np.logaddexp(0.0, z)
        got = self._both(z)[0]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        exact = np.abs(z) >= 1000.0
        assert exact.sum() == 4
        np.testing.assert_array_equal(got[exact], want[exact])

    def test_nan_maps_to_nan(self):
        z = np.array([np.nan, 1.0, -np.nan])
        h, s = self._both(z)
        assert np.isnan(h[[0, 2]]).all() and np.isnan(s[[0, 2]]).all()
        assert np.isfinite(h[1]) and np.isfinite(s[1])


class TestStandardizationFold:
    def test_folded_net_equals_trained_net_on_standardized_rows(self, monkeypatch):
        # _fit_net trains on standardized rows and stores a net over raw rows;
        # the two agree, and both ignore the columns constant in training
        from esscreen.adaptive import training
        from esscreen.model import NIWParams

        dim = 14  # the feature width of a q = 2 window
        rng = np.random.default_rng(17)
        n = 24
        scales = np.logspace(-3, 12, dim)
        offsets = rng.uniform(-20.0, 20.0, size=dim)
        x = scales * (offsets + rng.normal(size=(n, dim)))
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
        nets, report = {}, training.TrainingReport({}, {}, {}, fallbacks=0)
        samples = [(row, target, 0, j) for j, (row, target) in enumerate(zip(x, y))]
        training._fit_net(nets, report, cfg, 1, 2, samples)
        ((xt, net),) = trained
        folded = nets[(1, 2)]
        y_c, y_s, _ = report.target_stats[(1, 2)]
        np.testing.assert_array_equal(xt[:, const], 0.0)
        np.testing.assert_allclose(
            net_forward(folded, x), y_c + y_s * net_forward(net, xt), rtol=1e-10
        )
        keep = np.ones(dim, dtype=bool)
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
        net = xavier_net(4, np.random.default_rng(2), {})
        sched = TrainSchedule(n_iter=3000, rate=0.5, seed=0)
        # one (strategy, world) label: every step sees the full batch
        one = np.zeros(48, dtype=int)
        net, losses = train_level(x, y, net, sched, k_of=one, j_of=one)
        pred = net_forward(net, x)
        assert np.max(np.abs(pred - 3.7)) < 1e-3
        assert losses[-1] < losses[0]

    def test_divergence_reported_with_iteration(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(32, 3)) * 100
        y = rng.normal(size=32) * 100
        net = _net(d=3, seed=3)
        sched = TrainSchedule(n_iter=2000, rate=1e6, seed=0)
        with pytest.raises(TrainingDivergedError) as exc:
            train_level(x, y, net, sched, **_labels(32, 8))
        assert exc.value.iteration is not None

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 5))
        y = x @ rng.normal(size=5)
        sched = TrainSchedule(n_iter=500, rate=0.01, seed=11)
        labels = _labels(40, 8)
        n1, l1 = train_level(x, y, _net(d=5, seed=4), sched, **labels)
        n2, l2 = train_level(x, y, _net(d=5, seed=4), sched, **labels)
        np.testing.assert_array_equal(n1.w1, n2.w1)
        np.testing.assert_array_equal(l1, l2)

    def test_grouped_batches_respect_membership(self, monkeypatch):
        monkeypatch.setattr(net_mod, "J_BATCH", 2)
        monkeypatch.setattr(net_mod, "K_BATCH", 2)
        rng = np.random.default_rng(10)
        n_k, n_j = 6, 5
        k_of = np.repeat(np.arange(n_k), n_j)
        j_of = np.tile(np.arange(n_j), n_k)
        x = rng.normal(size=(n_k * n_j, 3))
        y = rng.normal(size=n_k * n_j)
        sched = TrainSchedule(n_iter=50, rate=1e-3, seed=5)
        net, losses = train_level(x, y, _net(d=3, seed=5), sched, k_of=k_of, j_of=j_of)
        assert np.all(np.isfinite(losses))


class TestInPlaceTrainer:
    """train_level steps a private copy in place; the arithmetic is the
    reference loop's out-of-place ``p - rate * g``."""

    def _task(self):
        rng = np.random.default_rng(19)
        n_k, n_j = 5, 6
        k_of = np.repeat(np.arange(n_k), n_j)
        j_of = np.tile(np.arange(n_j), n_k)
        x = rng.normal(size=(n_k * n_j, 4))
        y = x @ np.array([1.0, -0.5, 0.25, 2.0]) + rng.normal(size=n_k * n_j)
        return x, y, k_of, j_of

    @staticmethod
    def _reference(x, y, net, sched, k_of, j_of):
        rng = np.random.default_rng(sched.seed)
        ks, js = np.unique(k_of), np.unique(j_of)
        losses = []
        for t in range(sched.n_iter):
            if t % net_mod.BATCH_CHANGE == 0:
                k_pick = rng.permutation(ks)[: net_mod.K_BATCH]
                j_pick = rng.permutation(js)[: net_mod.J_BATCH]
                batch = np.flatnonzero(np.isin(k_of, k_pick) & np.isin(j_of, j_pick))
            loss, g = net_loss_and_grads(net, x[batch], y[batch], net_mod.R_LOSS)
            losses.append(loss)
            params = ("w1", "b1", "w2", "b2")
            net = replace(net, **{p: getattr(net, p) - sched.rate * g[p] for p in params})
        return net, np.array(losses)

    def test_matches_out_of_place_reference_over_batch_changes(self, monkeypatch):
        monkeypatch.setattr(net_mod, "J_BATCH", 3)
        monkeypatch.setattr(net_mod, "K_BATCH", 2)
        x, y, k_of, j_of = self._task()
        sched = TrainSchedule(n_iter=2 * net_mod.BATCH_CHANGE + 40, rate=0.01, seed=8)
        start = _net(d=4, seed=6, hidden=8)
        net, losses = train_level(x, y, start, sched, k_of=k_of, j_of=j_of)
        ref, ref_losses = self._reference(x, y, start, sched, k_of, j_of)
        np.testing.assert_array_equal(losses, ref_losses)
        for p in ("w1", "b1", "w2"):
            np.testing.assert_array_equal(getattr(net, p), getattr(ref, p))
        assert net.b2 == ref.b2

    def test_caller_net_untouched(self):
        x, y, k_of, j_of = self._task()
        start = _net(d=4, seed=7, hidden=8)
        before = {p: np.copy(getattr(start, p)) for p in ("w1", "b1", "w2", "b2")}
        sched = TrainSchedule(n_iter=60, rate=0.01, seed=9)
        net, _ = train_level(x, y, start, sched, k_of=k_of, j_of=j_of)
        for p, value in before.items():
            np.testing.assert_array_equal(getattr(start, p), value)
            assert not np.array_equal(getattr(net, p), value)

    def test_one_loss_and_grads_call_per_step(self, monkeypatch):
        calls = []
        real = net_mod.net_loss_and_grads

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(net_mod, "net_loss_and_grads", counted)
        x, y, k_of, j_of = self._task()
        sched = TrainSchedule(n_iter=37, rate=0.01, seed=0)
        train_level(x, y, _net(d=4, hidden=8), sched, k_of=k_of, j_of=j_of)
        assert len(calls) == 37


class TestLearningRateSearch:
    def test_degenerate_single_candidate(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([1.0, -2.0, 0.5])
        sched = TrainSchedule(n_iter=300, rate=0.03, seed=1)
        net, rate, losses = learning_rate_search(
            x,
            y,
            lambda r: _xavier(3, r, 16),
            sched,
            candidates=1,
            probe_steps=50,
            **_labels(30, 6),
        )
        assert rate == pytest.approx(0.003)
        assert losses.size == 300

    def test_picks_sane_rate_on_quadratic_task(self, monkeypatch):
        # probe rates 10, 1, 0.1, 0.01: the early ones diverge or thrash, an
        # interior rate wins, and the finished net actually fits the data
        monkeypatch.setattr(net_mod, "J_BATCH", 8)
        monkeypatch.setattr(net_mod, "K_BATCH", 8)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(200, 4))
        y = x @ np.array([2.0, -1.0, 0.0, 1.0]) + 0.5
        sched = TrainSchedule(n_iter=4000, rate=10.0, seed=2)
        net, rate, losses = learning_rate_search(
            x,
            y,
            lambda r: _xavier(4, r, 32),
            sched,
            candidates=4,
            probe_steps=400,
            **_labels(200, 20),
        )
        assert rate < 10.0
        pred = net_forward(net, x)
        assert np.mean((pred - y) ** 2) < 0.05 * np.var(y)

    def test_reproducible_selection(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        sched = TrainSchedule(n_iter=100, rate=1.0, seed=3)
        make = lambda r: _xavier(3, r, 8)
        kw = dict(candidates=3, probe_steps=40, **_labels(50, 5))
        a = learning_rate_search(x, y, make, sched, **kw)
        b = learning_rate_search(x, y, make, sched, **kw)
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
                lambda r: _xavier(2, r, 8),
                sched,
                candidates=2,
                probe_steps=50,
                **_labels(20, 4),
            )
        assert "rate" in str(exc.value)


#: labels of the 40-sample tasks below
LABELS_40 = _labels(40, 5)


class TestFinalRunFallback:
    """A final run that diverges falls back to the next-best converged probe."""

    def _task(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, 0.5, -1.0])
        sched = TrainSchedule(n_iter=120, rate=0.1, seed=6)
        return x, y, sched, lambda r: _xavier(3, r, 8)

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
            x, y, make, sched, candidates=3, probe_steps=30, **LABELS_40
        )
        calls = self._diverge_finals(monkeypatch, sched.n_iter, {best_rate})
        with caplog.at_level(logging.WARNING, logger="esscreen.adaptive.net"):
            net, rate, losses = learning_rate_search(
                x, y, make, sched, candidates=3, probe_steps=30, **LABELS_40
            )
        finals = [rate for n_iter, rate in calls if n_iter == sched.n_iter]
        assert finals == [best_rate, rate] and rate != best_rate
        assert losses.size == sched.n_iter and np.all(np.isfinite(losses))
        warned = [r for r in caplog.records if r.name == "esscreen.adaptive.net"]
        assert len(warned) == 1 and warned[0].levelno == logging.WARNING

    def test_success_logs_outcomes_and_final_rate(self, caplog):
        x, y, sched, make = self._task()
        with caplog.at_level(logging.DEBUG, logger="esscreen.adaptive.net"):
            _, rate, _ = learning_rate_search(
                x, y, make, sched, candidates=3, probe_steps=30, **LABELS_40
            )
        (record,) = [r for r in caplog.records if r.name == "esscreen.adaptive.net"]
        assert record.levelno == logging.DEBUG
        msg = record.getMessage()
        assert f"final rate {rate:g}" in msg
        for probe in (0.1, 0.01, 0.001):
            assert f"rate {probe:g}: " in msg

    def test_raises_listing_every_attempt(self, monkeypatch):
        x, y, sched, make = self._task()
        rates = {sched.rate / 10.0**i for i in range(1, 4)}
        self._diverge_finals(monkeypatch, sched.n_iter, rates)
        with pytest.raises(TrainingDivergedError) as exc:
            learning_rate_search(
                x, y, make, sched, candidates=3, probe_steps=30, **LABELS_40
            )
        msg = str(exc.value)
        for rate in (0.1, 0.01, 0.001):
            assert f"rate {rate:g}: mean log loss" in msg  # each probe's outcome
        for rate in rates:
            assert f"final rate {rate:g}: diverged at 4" in msg


class TestGrowingProbe:
    """A probe whose loss stays finite but grows has not converged."""

    def _task(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.0, 0.5, -1.0])
        sched = TrainSchedule(n_iter=120, rate=0.1, seed=7)
        return x, y, sched, lambda r: _xavier(3, r, 8)

    def _patch_probes(self, monkeypatch, probe_steps, edit):
        """Probe runs return ``edit(rate, losses)`` in place of their losses;
        returns the (n_iter, rate) of every training run."""
        real = net_mod.train_level
        calls = []

        def train_level(x, y, net, schedule, **kw):
            calls.append((schedule.n_iter, schedule.rate))
            net, losses = real(x, y, net, schedule, **kw)
            if schedule.n_iter == probe_steps:
                losses = edit(schedule.rate, losses)
            return net, losses

        monkeypatch.setattr(net_mod, "train_level", train_level)
        return calls

    def test_growing_best_probe_is_not_continued(self, monkeypatch):
        # reversing the winning probe's losses keeps its mean log loss, so it
        # would still rank first; grown, it must not be continued
        x, y, sched, make = self._task()
        candidates, probe_steps = 3, 30
        _, best_final, _ = learning_rate_search(
            x,
            y,
            make,
            sched,
            candidates=candidates,
            probe_steps=probe_steps,
            **LABELS_40,
        )
        rates = [sched.rate / 10.0**i for i in range(candidates)]
        finals = [sched.rate / 10.0 ** (i + 1) for i in range(candidates)]
        best_probe = rates[finals.index(best_final)]
        grown = {}

        def reverse_best(rate, losses):
            if rate != best_probe:
                return losses
            tenth = losses.size // 10
            grown["first"] = losses[:tenth].mean()
            grown["last"] = losses[-tenth:].mean()
            return losses[::-1]

        calls = self._patch_probes(monkeypatch, probe_steps, reverse_best)
        _, rate, losses = learning_rate_search(
            x,
            y,
            make,
            sched,
            candidates=candidates,
            probe_steps=probe_steps,
            **LABELS_40,
        )
        assert grown["last"] < grown["first"]  # the reversed losses grow
        assert rate != best_final and rate in finals
        ran = [r for n_iter, r in calls if n_iter == sched.n_iter]
        assert ran == [rate]
        assert losses.size == sched.n_iter and np.all(np.isfinite(losses))

    def test_outcome_recorded_as_grew(self, monkeypatch):
        x, y, sched, make = self._task()
        self._patch_probes(monkeypatch, 30, lambda rate, _: np.linspace(1.0, 2.0, 30))
        with pytest.raises(TrainingDivergedError) as exc:
            learning_rate_search(
                x, y, make, sched, candidates=2, probe_steps=30, **LABELS_40
            )
        for rate in (0.1, 0.01):
            assert f"rate {rate:g}: grew, loss" in str(exc.value)


def _frozen_softplus_sigmoid(z):
    """Frozen copy of the activations: a rewrite of the step must keep these bits."""
    e = np.exp(-np.abs(z))
    h = np.maximum(z, 0.0) + np.log1p(e)
    sig = np.where(z >= 0, 1.0, e)
    return h, np.divide(sig, np.add(e, 1.0, out=e), out=sig)


def _frozen_loss_and_grads(net, x, y, r):
    """Frozen copy of the training step, one fresh array per intermediate;
    a rewrite that reuses buffers must keep these bits."""
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ net.w1.T
        z += net.b1
        h, sig = _frozen_softplus_sigmoid(z)
        err = h @ net.w2 + net.b2 - y
        abs_err = np.abs(err)
        loss = float(np.add.reduce(abs_err**r) / n)
        dpred = r * abs_err ** (r - 1.0) * np.sign(err) / n
        dz = dpred[:, None] * net.w2
        dz *= sig
    grads = {"w1": dz.T @ x, "b1": dz.sum(axis=0), "w2": h.T @ dpred}
    return loss, grads | {"b2": float(np.sum(dpred))}


@pytest.mark.parametrize("seed", range(6))
def test_step_and_forward_equal_the_frozen_formulas(seed):
    # random shapes and scales, saturated units (|z| in the hundreds) included
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(1, 40)), int(rng.integers(1, 30))
    net = replace(_net(d=d, seed=seed, hidden=256), b1=rng.normal(size=256) * 50)
    x = rng.normal(size=(n, d)) * np.logspace(-3, 2, d)[rng.permutation(d)]
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-1, 3)
    for r in (2.0, 1.0 + rng.uniform()):
        loss, grads = net_loss_and_grads(net, x, y, r)
        want_loss, want = _frozen_loss_and_grads(net, x, y, r)
        assert loss == want_loss and grads["b2"] == want["b2"]
        for p in ("w1", "b1", "w2"):
            assert grads[p].tobytes() == want[p].tobytes(), p
    with np.errstate(over="ignore"):
        h, _ = _frozen_softplus_sigmoid(x @ net.w1.T + net.b1)
    assert net_forward(net, x).tobytes() == (h @ net.w2 + net.b2).tobytes()


def test_stacked_forward_is_each_worlds_forward():
    # a leading world axis runs one matrix product per world, so a world's
    # predictions keep the bits of its own (n, d) call, at every row count
    rng = np.random.default_rng(7)
    net = _net(d=11, seed=7, hidden=256)
    for n in (1, 2, 3, 12):
        x = rng.normal(size=(5, n, 11)) * 30.0
        got = net_forward(net, x)
        assert got.shape == (5, n)
        for w in range(5):
            assert got[w].tobytes() == net_forward(net, x[w]).tobytes(), (n, w)
