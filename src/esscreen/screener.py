"""The L-level screening estimator of Expected Shortfall.

A strategy fixes survivor thresholds ``q_0 >= q_1 >= ... >= q_{L-1} = n_w``
and cumulative path counts ``0 = N_0 <= N_1 <= ... <= N_L``.  Level ``l``
draws ``dN_l = N_l - N_{l-1}`` fresh paths for each scenario still alive,
folds them into the running means (the same paths are reused by every later
level), and keeps the ``q_l`` scenarios with the largest estimates.  The last
level is a pure Monte Carlo step: the estimator is the average of the final
means over the ``n_w`` survivors.

:func:`run_levels` is the one level loop; a next-action rule gives each
level's ``(dq, dN)``.  :func:`run_screening` replays a fixed strategy's, and
the adaptive policy chooses each from the posterior after the level before.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStrategyError
from .model import ScenarioParams, simulate_prices

__all__ = [
    "Strategy",
    "ScreeningRun",
    "LevelStats",
    "GaussianSource",
    "draw_batch",
    "step",
    "cost",
    "rank_select",
    "run_levels",
    "run_screening",
    "exact_es",
    "correct_selection",
    "worst_indexes",
]

#: Prices per simulation chunk (1 MiB of float64).  A chunk holds
#: ``CHUNK_PRICINGS // width`` rows (at least one), so a level's draw memory
#: does not grow with dN or with the number of scenarios priced.
CHUNK_PRICINGS = 1 << 17


@dataclass(frozen=True)
class Strategy:
    """Screening schedule: thresholds ``q`` (length L) and cumulative path
    counts ``n`` (length L+1, ``n[0] == 0``).

    ``q[-1]`` is the final survivor count ``n_w``; ``q[0]`` the initial number
    of scenarios ``n_s``.  Zero increments are allowed (the 0/0 = 0 convention
    reuses the previous level's means).
    """

    q: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        q = tuple(int(v) for v in self.q)
        n = tuple(int(v) for v in self.n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        if len(q) < 1 or len(n) != len(q) + 1:
            raise InvalidStrategyError(
                f"need len(n) == len(q) + 1, got q={len(q)}, n={len(n)}"
            )
        if n[0] != 0:
            raise InvalidStrategyError(f"n[0] must be 0, got {n[0]}")
        if any(b < a for a, b in zip(n, n[1:])):
            raise InvalidStrategyError(f"path counts must be non-decreasing: {n}")
        if any(b > a for a, b in zip(q, q[1:])):
            raise InvalidStrategyError(f"thresholds must be non-increasing: {q}")
        if q[-1] < 1:
            raise InvalidStrategyError(f"final survivor count must be >= 1: {q}")

    @property
    def levels(self) -> int:
        return len(self.q)

    @property
    def n_s(self) -> int:
        return self.q[0]

    @property
    def n_w(self) -> int:
        return self.q[-1]

    def delta_n(self) -> np.ndarray:
        return np.diff(np.asarray(self.n, dtype=np.int64))

    @property
    def actions(self) -> list[tuple[int, int]]:
        """Per level ``(dq, dN)``: survivors dropped (0 at the last level)
        and paths added."""
        q, n = self.q + (self.n_w,), self.n
        return [(q0 - q1, n1 - n0) for q0, q1, n0, n1 in zip(q, q[1:], n, n[1:])]

    def to_dict(self) -> dict:
        return {"q": list(self.q), "N": list(self.n)}

    @classmethod
    def from_dict(cls, d: dict) -> "Strategy":
        return cls(q=tuple(d["q"]), n=tuple(d["N"]))


def cost(strategy: Strategy) -> int:
    """Total scalar pricings: sum of ``q_l * (N_{l+1} - N_l)`` over levels."""
    q = np.asarray(strategy.q, dtype=np.int64)
    return int(np.sum(q * strategy.delta_n()))


def _check_count(value, name: str) -> None:
    """Reject a count that is not an integer (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def rank_select(estimates: np.ndarray, index_set: np.ndarray, keep: int) -> np.ndarray:
    """Indexes of the ``keep`` largest estimates, ties to the smaller index.

    ``estimates[j]`` is the value attached to original index ``index_set[j]``.
    Returns original indexes ordered by (value desc, index asc); this total
    order is part of the algorithm's definition and must be bit-stable.
    """
    index_set = np.asarray(index_set, dtype=np.intp)
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.shape != index_set.shape:
        raise InvalidParameterError("estimates and index_set must align")
    _check_count(keep, "keep")
    if not 0 <= keep <= index_set.size:
        raise InvalidParameterError(
            f"keep = {keep} must be in [0, {index_set.size}], the index set size"
        )
    order = np.lexsort((index_set, -estimates))
    return index_set[order[:keep]]


class GaussianSource:
    """Price source drawing iid Gaussian rows from a ScenarioParams model.

    A price source is any object with ``n_s`` (the number of scenarios) and
    ``draw(indexes, count)``, which returns a new ``count x len(indexes)``
    block of prices (the caller may overwrite it) for the given ascending
    scenario indexes.  This one consumes its owned substream and returns
    :func:`simulate_prices` on ``theta.restrict(ids)``: the survivors' law is
    the principal submatrix ``Sigma[ids, ids]``, factored once per index set,
    so a row costs ``len(ids)`` normals (one more if equicorrelated).
    """

    def __init__(self, theta: ScenarioParams, rng: np.random.Generator):
        self.theta = theta
        self.rng = rng
        self._ids = np.arange(theta.n_s)
        self._sub = theta

    @property
    def n_s(self) -> int:
        return self.theta.n_s

    def shift_hint(self) -> np.ndarray:
        """The true impacts ``theta.mu``.  Not read by the screening engines."""
        return self.theta.mu

    def draw(self, indexes: np.ndarray, count: int) -> np.ndarray:
        if not np.array_equal(indexes, self._ids):
            self._ids = np.array(indexes, dtype=np.intp)
            self._sub = self.theta.restrict(self._ids)
        return simulate_prices(self._sub, count, self.rng)


def draw_batch(source, ids: np.ndarray, dn: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and centred scatter (per column) of ``dn`` fresh rows over ``ids``.

    Rows are drawn in chunks of ``max(1, CHUNK_PRICINGS // len(ids))`` rows,
    so memory is bounded whatever ``dn`` and the width.  Each chunk is
    centred in place on its rounded mean ``hi``; the centred residual sum
    restores the mean's lost digits, and the chunks are merged by the
    Chan-Golub-LeVeque update ``M2 = M2_a + M2_b + delta^2 n_a n_b / n``.
    The running mean is carried as an offset from the first chunk's ``hi``,
    so ``delta`` keeps full precision when a column's mean dwarfs its
    spread.  The rows drawn do not depend on the chunk size; the sums and
    scatter do, in their last bits.
    """
    chunk_rows = max(1, CHUNK_PRICINGS // max(ids.size, 1))
    total = np.zeros(ids.size)
    m2 = np.zeros(ids.size)
    offset = np.zeros(ids.size)  # running mean minus ``ref``
    ref = None
    done = 0
    while done < dn:
        rows = min(chunk_rows, dn - done)
        x = source.draw(ids, rows)
        ones = np.ones(rows)
        chunk_sum = ones @ x
        hi = chunk_sum / rows
        if ref is None:
            ref = hi
        x -= hi
        resid = ones @ x
        x *= x
        delta = (hi - ref) + resid / rows - offset
        m2 += ones @ x - resid * resid / rows
        m2 += delta * delta * (done * rows / (done + rows))
        offset += delta * (rows / (done + rows))
        total += chunk_sum
        done += rows
    return total, m2


@dataclass(frozen=True)
class LevelStats:
    """What one screening level saw and decided.

    ``entered`` are the ascending scenario indexes priced at the level and
    ``kept`` the ascending subset it passed on.  Over ``entered``: ``sums``
    are the running path sums after the level's ``dn`` fresh paths,
    ``mu_hat = sums / n_cum`` the cumulative means the selection ranked (0
    when ``n_cum`` is 0), and ``batch_mean``/``scatter`` the fresh batch's
    column means and centred sums of squares (0 when ``dn`` is 0).
    """

    entered: np.ndarray
    kept: np.ndarray
    dn: int
    n_cum: int
    sums: np.ndarray
    mu_hat: np.ndarray
    batch_mean: np.ndarray
    scatter: np.ndarray


def step(
    entered: np.ndarray,
    sums: np.ndarray,
    n_prev: int,
    batch_sum: np.ndarray,
    scatter: np.ndarray,
    dn: int,
    keep: int,
) -> LevelStats:
    """One level of the recursion: fold a batch in, keep the ``keep`` best.

    ``sums`` are the running sums over ``entered`` after ``n_prev`` paths;
    ``batch_sum``/``scatter`` the column sums and centred scatter of the
    level's ``dn`` fresh paths (from :func:`draw_batch`, or simulated).  The
    kept set is the ``keep`` largest cumulative means, ascending; keeping
    every scenario is the final level's no-selection step.
    """
    sums = sums + batch_sum
    n_cum = n_prev + dn
    mu_hat = sums / n_cum if n_cum > 0 else np.zeros(entered.size)
    if keep == entered.size:
        kept = entered
    else:
        kept = np.sort(rank_select(mu_hat, entered, keep))
    batch_mean = batch_sum / dn if dn > 0 else np.zeros(entered.size)
    return LevelStats(
        entered=entered,
        kept=kept,
        dn=dn,
        n_cum=n_cum,
        sums=sums,
        mu_hat=mu_hat,
        batch_mean=batch_mean,
        scatter=scatter,
    )


@dataclass
class ScreeningRun:
    """Everything a finished screening run produced.

    ``strategy`` is the schedule the run took, whether replayed or chosen
    level by level, and ``actions`` its per-level ``(dq, dN)``.
    ``survivors[l]`` is the ascending index set alive after level ``l``'s
    selection (``survivors[0]`` is the full index range); ``levels[l-1]``
    holds level ``l``'s statistics.  ``sums``/``counts`` freeze at a
    scenario's elimination level; ``pricings`` counts the prices drawn.
    """

    strategy: Strategy
    survivors: list[np.ndarray]
    levels: list[LevelStats]
    sums: np.ndarray
    counts: np.ndarray
    es_hat: float
    pricings: int

    @property
    def actions(self) -> list[tuple[int, int]]:
        return self.strategy.actions

    @property
    def final_survivors(self) -> np.ndarray:
        return self.survivors[-1]


def run_levels(
    source,
    rng: np.random.Generator | None,
    levels: int,
    next_action: Callable[[int, LevelStats | None], tuple[int, int]],
) -> ScreeningRun:
    """The screening recursion, with level ``l``'s ``(dq, dN)`` taken from
    ``next_action(l, stats)`` (``stats``: level ``l - 1``'s, None at ``l = 0``).

    ``source`` is either a ScenarioParams (then ``rng`` is required and a
    GaussianSource is built on it) or any price source: an object with
    ``n_s`` and ``draw(ids, count)``.  Each level draws ``dN`` paths for the
    scenarios alive (:func:`draw_batch`) and keeps all but ``dq`` of them
    (:func:`step`); the last keeps every one.  The run's strategy is the
    actions taken.
    """
    if isinstance(source, ScenarioParams):
        if rng is None:
            raise InvalidParameterError("rng required when passing ScenarioParams")
        source = GaussianSource(source, rng)
    sums = np.zeros(source.n_s)
    counts = np.zeros(source.n_s, dtype=np.int64)
    alive = np.arange(source.n_s, dtype=np.intp)
    done: list[LevelStats] = []
    stats = None
    for lvl in range(levels):
        dq, dn = next_action(lvl, stats)
        keep = alive.size - dq if lvl + 1 < levels else alive.size
        n_prev = stats.n_cum if stats is not None else 0
        batch_sum, scatter = draw_batch(source, alive, dn)
        stats = step(alive, sums[alive], n_prev, batch_sum, scatter, dn, keep)
        sums[alive] = stats.sums
        counts[alive] = stats.n_cum
        done.append(stats)
        alive = stats.kept
    return ScreeningRun(
        strategy=Strategy(
            q=tuple(ls.entered.size for ls in done),
            n=(0, *(ls.n_cum for ls in done)),
        ),
        survivors=[ls.entered for ls in done],
        levels=done,
        sums=sums,
        counts=counts,
        es_hat=float(np.mean(stats.mu_hat)),
        pricings=sum(ls.dn * ls.entered.size for ls in done),
    )


def run_screening(
    strategy: Strategy, source, rng: np.random.Generator | None = None
) -> ScreeningRun:
    """Execute the screening recursion for one fixed strategy: the
    :func:`run_levels` loop replaying ``strategy.actions`` on ``source``
    (with ``rng``, as there)."""
    if strategy.n_s != source.n_s:
        raise InvalidStrategyError(
            f"strategy covers {strategy.n_s} scenarios, source has {source.n_s}"
        )
    actions = strategy.actions
    return run_levels(source, rng, strategy.levels, lambda lvl, _: actions[lvl])


def worst_indexes(mu: np.ndarray, n_w: int) -> np.ndarray:
    """Indexes of the ``n_w`` largest impacts, ties to the smaller index."""
    _check_count(n_w, "n_w")
    if n_w < 1:
        raise InvalidParameterError(f"n_w must be >= 1, got {n_w}")
    mu = np.asarray(mu, dtype=np.float64)
    return rank_select(mu, np.arange(mu.size, dtype=np.intp), n_w)


def exact_es(theta: ScenarioParams, n_w: int) -> float:
    """Average of the ``n_w`` largest true impacts."""
    _check_count(n_w, "n_w")
    if not 1 <= n_w <= theta.n_s:
        raise InvalidParameterError(f"n_w = {n_w} must be in [1, n_s = {theta.n_s}]")
    top = np.sort(theta.mu)[::-1][:n_w]
    return float(np.mean(top))


def correct_selection(run: ScreeningRun, theta: ScenarioParams, n_w: int) -> bool:
    """True iff the final survivor set equals the true worst-``n_w`` set."""
    truth = set(worst_indexes(theta.mu, n_w).tolist())
    return set(run.final_survivors.tolist()) == truth
