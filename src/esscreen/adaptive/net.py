"""One-hidden-layer value-function approximators and their trainer.

Each network maps a raw state/action feature vector to a predicted
cost-to-go: 256 softplus units and a linear read-out, Xavier-initialized,
trained by plain minibatch gradient descent on the mean |prediction -
target|^``R_LOSS`` loss with exact (hand-written) gradients.  A minibatch is
the samples of ``K_BATCH`` strategies crossed with ``J_BATCH`` worlds.

The softplus is ``max(z, 0) + log1p(e)`` with ``e = exp(-|z|)``, in training
and prediction alike; training reuses ``e`` for its derivative, the sigmoid
``where(z >= 0, 1, e) / (1 + e)``.

While a minibatch ``xb`` (n rows) stays fixed, every ``(w1, b1)`` step is
``-rate dz^T [xb, 1]``, so the pre-activations ``z = xb w1^T + b1`` step
exactly as ``z <- z - G dz`` with ``G = rate (xb xb^T + 1)`` (n x n, built
once per minibatch).  The trainer carries ``z`` and folds the summed ``dz``
into ``(w1, b1)`` when the minibatch changes and after the last step: a step
costs one n^2 H product, not two n d H products and an H x d update.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InvalidParameterError, TrainingDivergedError

__all__ = [
    "PolicyNet", "TrainSchedule", "xavier_net", "net_forward",
    "net_loss_and_grads", "train_level", "learning_rate_search",
]

#: Hidden units of every value net; :func:`xavier_net` reads it at call time.
HIDDEN_UNITS = 256

#: Gradient steps between two minibatch draws in :func:`train_level`.
BATCH_CHANGE = 1000

#: Exponent r of the training loss, mean |prediction - target|^r.
R_LOSS = 2.0

#: Strategies and worlds crossed into one :func:`train_level` minibatch.
K_BATCH = 4
J_BATCH = 4

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PolicyNet:
    """Affine-softplus-affine scalar net."""

    w1: np.ndarray  # (hidden, d)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float
    meta: dict = field(compare=False)

    @property
    def dim(self) -> int:
        return self.w1.shape[1]


def xavier_net(d: int, rng: np.random.Generator, meta: dict) -> PolicyNet:
    """Glorot-uniform initialized network of ``HIDDEN_UNITS`` hidden units
    (read at call time) for ``d`` raw input features."""
    lim1 = np.sqrt(6.0 / (d + HIDDEN_UNITS))
    lim2 = np.sqrt(6.0 / (HIDDEN_UNITS + 1))
    w1 = rng.uniform(-lim1, lim1, size=(HIDDEN_UNITS, d))
    w2 = rng.uniform(-lim2, lim2, size=HIDDEN_UNITS)
    return PolicyNet(w1, np.zeros(HIDDEN_UNITS), w2, 0.0, meta=dict(meta))


def _softplus(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(e)


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    sig = np.where(z >= 0, 1.0, e)  # then e becomes 1 + e, in place
    return np.divide(sig, np.add(e, 1.0, out=e), out=sig)


def net_forward(net: PolicyNet, x: np.ndarray) -> np.ndarray:
    """Predictions for feature rows ``x`` (n, d), or per world of (S, n, d)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    z = x @ net.w1.T + net.b1
    return _softplus(z, np.exp(-np.abs(z))) @ net.w2 + net.b2


def _head(z: np.ndarray, w2: np.ndarray, b2: float, y: np.ndarray, r: float):
    """Loss, dw2, db2 and dz from pre-activations ``z`` (n, hidden): one exp
    pass gives both activations; the sigmoid and ``dz`` are built in place."""
    e = np.exp(-np.abs(z))
    h = _softplus(z, e)
    sig = _sigmoid(z, e)
    err = h @ w2 + b2 - y
    abs_err = np.abs(err)
    loss = float(np.add.reduce(abs_err**r) / z.shape[0])
    dpred = r * abs_err ** (r - 1.0) * np.sign(err) / z.shape[0]
    dz = dpred[:, None] * w2
    dz *= sig
    return loss, h.T @ dpred, float(np.sum(dpred)), dz


def net_loss_and_grads(net: PolicyNet, x: np.ndarray, y: np.ndarray, r: float):
    """Mean |pred - target|^r and its exact parameter gradients, as (loss,
    grads) with grads keyed like the parameter fields; d softplus = sigmoid."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        z = x @ net.w1.T
        z += net.b1
        loss, dw2, db2, dz = _head(z, net.w2, net.b2, y, r)
        dw1 = dz.T @ x
        db1 = dz.sum(axis=0)
    return loss, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def _check_int(value, name: str, floor: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        raise InvalidParameterError(f"{name} must be an integer >= {floor}, got {value!r}")


@dataclass(frozen=True)
class TrainSchedule:
    """Gradient-descent schedule for one network: ``n_iter`` steps at
    ``rate``, minibatches drawn from ``seed``."""

    n_iter: int
    rate: float
    seed: int

    def __post_init__(self):
        _check_int(self.n_iter, "n_iter", 1)
        _check_int(self.seed, "seed", 0)
        if not 0.0 < self.rate < np.inf:
            raise InvalidParameterError(f"rate must be in (0, inf), got {self.rate!r}")


def train_level(
    x: np.ndarray, y: np.ndarray, net: PolicyNet, schedule: TrainSchedule, *,
    k_of: np.ndarray, j_of: np.ndarray,
) -> tuple[PolicyNet, np.ndarray]:
    """Fit one network by minibatch gradient descent; returns (net, losses).

    ``k_of``/``j_of`` label each sample with its strategy and world index.
    Every ``BATCH_CHANGE`` steps the minibatch becomes the samples of
    ``K_BATCH`` strategies and ``J_BATCH`` worlds, each set the head of a
    random permutation of the labels (all samples if that cross is empty).
    Within a minibatch the steps carry ``z <- z - G dz``, exact while the rows
    are fixed, and fold ``dz`` into ``(w1, b1)`` at its end (module docstring).
    Raises TrainingDivergedError, carrying the iteration, on a non-finite loss.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    k_of, j_of = np.asarray(k_of), np.asarray(j_of)
    n = x.shape[0]
    if n == 0 or x.shape != (n, net.dim) or not y.shape == k_of.shape == j_of.shape == (n,):
        raise InvalidParameterError(
            f"empty or misaligned training set: x {x.shape}, y {y.shape}, dim {net.dim}"
        )
    rng = np.random.default_rng(schedule.seed)
    rate, losses = schedule.rate, np.empty(schedule.n_iter)
    ks, js = np.unique(k_of), np.unique(j_of)
    w1, b1, w2, b2 = net.w1.copy(), net.b1.copy(), net.w2.copy(), net.b2
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, schedule.n_iter, BATCH_CHANGE):
            k_pick = rng.permutation(ks)[:K_BATCH]
            j_pick = rng.permutation(js)[:J_BATCH]
            batch = np.flatnonzero(np.isin(k_of, k_pick) & np.isin(j_of, j_pick))
            xb, yb = (x, y) if batch.size == 0 else (x[batch], y[batch])
            z = xb @ w1.T + b1
            gram = rate * (xb @ xb.T + 1.0)
            acc = np.zeros_like(z)
            for t in range(start, min(start + BATCH_CHANGE, schedule.n_iter)):
                loss, dw2, db2, dz = _head(z, w2, b2, yb, R_LOSS)
                if not np.isfinite(loss):
                    msg = f"loss became non-finite at iteration {t}"
                    raise TrainingDivergedError(msg, iteration=t)
                losses[t] = loss
                acc += dz
                z -= gram @ dz
                w2 -= rate * dw2
                b2 -= rate * db2
            w1 -= rate * (acc.T @ xb)
            b1 -= rate * acc.sum(axis=0)
    return replace(net, w1=w1, b1=b1, w2=w2, b2=b2), losses


def learning_rate_search(
    x: np.ndarray, y: np.ndarray, make_net, schedule: TrainSchedule, *,
    candidates: int, probe_steps: int, k_of: np.ndarray, j_of: np.ndarray,
) -> tuple[PolicyNet, float, np.ndarray]:
    """Probe geometrically decreasing rates, keep the best, finish training.

    Trains ``candidates`` fresh nets at rates base/10^(i-1) for
    ``probe_steps`` each, ranks the converged ones by mean log loss, then
    continues the best for the full schedule at one notch below its probe
    rate.  A probe has converged when its loss stayed finite and the mean of
    its last tenth of losses is not above the mean of its first tenth; a
    probe whose loss grew is never continued.  If the final run diverges,
    the next-best converged probe is continued the same way (logged at
    WARNING); a success logs every outcome and the final rate at DEBUG.
    Returns (net, final_rate, losses of the final run).  Raises only if no
    attempt converges, listing each probe's and each final run's fate.
    """
    _check_int(candidates, "candidates", 1)
    _check_int(probe_steps, "probe_steps", 1)
    base = schedule.rate
    outcomes, converged = [], []  # converged: (mean_log_loss, idx, net)
    for idx in range(candidates):
        rate = base / 10.0**idx
        probe = replace(schedule, n_iter=probe_steps, rate=rate, seed=schedule.seed + idx)
        net0 = make_net(np.random.default_rng(probe.seed))
        try:
            net_i, losses = train_level(x, y, net0, probe, k_of=k_of, j_of=j_of)
        except TrainingDivergedError as exc:
            outcomes.append(f"rate {rate:g}: diverged at {exc.iteration}")
            continue
        tenth = max(1, losses.size // 10)
        first, last = float(np.mean(losses[:tenth])), float(np.mean(losses[-tenth:]))
        if last > first:
            outcomes.append(f"rate {rate:g}: grew, loss {first:.4g} -> {last:.4g}")
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
            left = len(converged) - rank - 1
            _log.warning(
                "final training at rate %g diverged at iteration %s; %d converged "
                "probe(s) left to fall back on", final_rate, exc.iteration, left
            )
            continue
        _log.debug("rate search: %s; final rate %g", "; ".join(outcomes), final_rate)
        return net, final_rate, losses
    raise TrainingDivergedError("no training attempt converged: " + "; ".join(outcomes))
