"""One-hidden-layer value-function approximators and their trainer.

Each network maps a raw state/action feature vector to a predicted
cost-to-go: 256 softplus units and a linear read-out, Xavier-initialized,
trained by plain minibatch gradient descent on the mean |prediction -
target|^r loss with exact (hand-written) gradients.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InvalidParameterError, TrainingDivergedError

__all__ = [
    "PolicyNet",
    "TrainSchedule",
    "xavier_net",
    "net_forward",
    "net_loss_and_grads",
    "apply_grads",
    "train_level",
    "learning_rate_search",
]

HIDDEN_UNITS = 256

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolicyNet:
    """Affine-softplus-affine scalar net."""

    w1: np.ndarray  # (hidden, d)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def dim(self) -> int:
        return self.w1.shape[1]


def xavier_net(
    d: int,
    rng: np.random.Generator,
    hidden: int = HIDDEN_UNITS,
    meta: dict | None = None,
) -> PolicyNet:
    """Glorot-uniform initialized network for ``d`` raw input features."""
    lim1 = np.sqrt(6.0 / (d + hidden))
    lim2 = np.sqrt(6.0 / (hidden + 1))
    return PolicyNet(
        w1=rng.uniform(-lim1, lim1, size=(hidden, d)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-lim2, lim2, size=hidden),
        b2=0.0,
        meta=dict(meta or {}),
    )


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def net_forward(net: PolicyNet, x: np.ndarray) -> np.ndarray:
    """Predictions for feature rows ``x`` of shape (n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = x @ net.w1.T + net.b1
    return _softplus(z) @ net.w2 + net.b2


def net_loss_and_grads(net: PolicyNet, x: np.ndarray, y: np.ndarray, r: float):
    """Mean |pred - target|^r and its exact parameter gradients.

    Returns (loss, grads) with grads keyed like the parameter fields.
    Backprop is closed-form: d softplus = sigmoid.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ net.w1.T + net.b1
        h = _softplus(z)
        pred = h @ net.w2 + net.b2
        err = pred - y
        abs_err = np.abs(err)
        loss = float(np.mean(abs_err**r))
        dpred = r * abs_err ** (r - 1.0) * np.sign(err) / n
        dw2 = h.T @ dpred
        db2 = float(np.sum(dpred))
        dz = np.outer(dpred, net.w2) * _sigmoid(z)
        dw1 = dz.T @ x
        db1 = dz.sum(axis=0)
    return loss, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def apply_grads(net: PolicyNet, grads: dict, rate: float) -> PolicyNet:
    return replace(
        net,
        w1=net.w1 - rate * grads["w1"],
        b1=net.b1 - rate * grads["b1"],
        w2=net.w2 - rate * grads["w2"],
        b2=net.b2 - rate * grads["b2"],
    )


@dataclass(frozen=True)
class TrainSchedule:
    """Gradient-descent schedule for one network.

    A fresh minibatch (the cross product of ``j_batch`` sample indexes and
    ``k_batch`` strategy indexes, drawn from random permutations) is selected
    every ``batch_change`` steps.
    """

    n_iter: int
    rate: float
    r: float = 2.0
    j_batch: int = 4
    k_batch: int = 4
    batch_change: int = 1000
    seed: int = 0


def _batch_indexes(k_of, j_of, k_pick, j_pick):
    mask = np.isin(k_of, k_pick) & np.isin(j_of, j_pick)
    return np.flatnonzero(mask)


def train_level(
    x: np.ndarray,
    y: np.ndarray,
    net: PolicyNet,
    schedule: TrainSchedule,
    *,
    k_of: np.ndarray | None = None,
    j_of: np.ndarray | None = None,
) -> tuple[PolicyNet, np.ndarray]:
    """Fit one network by minibatch gradient descent; returns (net, losses).

    ``k_of``/``j_of`` label each sample with its strategy and book index for
    the permutation-based batch scheme; without them batches are plain random
    subsets of ``j_batch * k_batch`` samples.  Raises TrainingDivergedError
    (carrying the iteration index) if the loss goes non-finite.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] != y.size or x.shape[0] == 0:
        raise InvalidParameterError("empty or misaligned training set")
    rng = np.random.default_rng(schedule.seed)
    losses = np.empty(schedule.n_iter)
    rows = np.arange(x.shape[0])
    batch = rows
    for t in range(schedule.n_iter):
        if t % schedule.batch_change == 0:
            if k_of is not None and j_of is not None:
                ks = np.unique(k_of)
                js = np.unique(j_of)
                k_pick = rng.permutation(ks)[: min(schedule.k_batch, ks.size)]
                j_pick = rng.permutation(js)[: min(schedule.j_batch, js.size)]
                batch = _batch_indexes(k_of, j_of, k_pick, j_pick)
                if batch.size == 0:
                    batch = rows
            else:
                size = min(schedule.j_batch * schedule.k_batch, rows.size)
                batch = rng.permutation(rows)[:size]
        loss, grads = net_loss_and_grads(net, x[batch], y[batch], schedule.r)
        if not np.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at iteration {t}", iteration=t
            )
        losses[t] = loss
        net = apply_grads(net, grads, schedule.rate)
    return net, losses


def learning_rate_search(
    x: np.ndarray,
    y: np.ndarray,
    make_net,
    schedule: TrainSchedule,
    *,
    candidates: int = 4,
    probe_steps: int,
    k_of: np.ndarray | None = None,
    j_of: np.ndarray | None = None,
) -> tuple[PolicyNet, float, np.ndarray]:
    """Probe geometrically decreasing rates, keep the best, finish training.

    Trains ``candidates`` fresh nets at rates base/10^(i-1) for
    ``probe_steps`` each, ranks the converged ones by mean log loss, then
    continues the best for the full schedule at one notch below its probe
    rate.  If that final run diverges, the next-best converged probe is
    continued the same way (logged at WARNING).  Returns (net, final_rate,
    losses of the final run).  Raises only if every attempt diverges,
    listing each probe's and each final run's fate.
    """
    base = schedule.rate
    outcomes = []
    converged = []  # (mean_log_loss, idx, net)
    for idx in range(candidates):
        rate = base / 10.0**idx
        probe = replace(schedule, n_iter=probe_steps, rate=rate, seed=schedule.seed + idx)
        net0 = make_net(np.random.default_rng(probe.seed))
        try:
            net_i, losses = train_level(x, y, net0, probe, k_of=k_of, j_of=j_of)
        except TrainingDivergedError as exc:
            outcomes.append(f"rate {rate:g}: diverged at {exc.iteration}")
            continue
        mean_log = float(np.mean(np.log(np.maximum(losses, 1e-300))))
        outcomes.append(f"rate {rate:g}: mean log loss {mean_log:.4f}")
        converged.append((mean_log, idx, net_i))
    converged.sort(key=lambda c: (c[0], c[1]))
    for rank, (_, idx, net) in enumerate(converged):
        final_rate = base / 10.0 ** (idx + 1)
        final = replace(schedule, rate=final_rate)
        try:
            net, losses = train_level(x, y, net, final, k_of=k_of, j_of=j_of)
        except TrainingDivergedError as exc:
            outcomes.append(f"final rate {final_rate:g}: diverged at {exc.iteration}")
            _log.warning(
                "final training at rate %g diverged at iteration %s; "
                "%d converged probe(s) left to fall back on",
                final_rate,
                exc.iteration,
                len(converged) - rank - 1,
            )
            continue
        return net, final_rate, losses
    raise TrainingDivergedError(
        "every training attempt diverged: " + "; ".join(outcomes)
    )
