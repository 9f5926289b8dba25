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

The paths come from a price source: any object with ``n_s`` (the number of
scenarios) and ``draw(ids, count)``, which returns ``(sum, scatter)``, the
column sums and the centred scatter diagonal (per-column sums of squared
deviations from the column mean) of ``count`` fresh iid price rows over the
ascending scenario indexes ``ids``.  That pair is all the engine reads.  A
source that produces rows folds them with :func:`fold_rows`;
:class:`GaussianSource` samples the pair exactly when a level is large.
"""

from __future__ import annotations

import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStrategyError
from .model import ScenarioParams, bartlett_factor, simulate_prices

__all__ = [
    "Strategy",
    "ScreeningRun",
    "LevelStats",
    "GaussianSource",
    "fold_rows",
    "step",
    "cost",
    "rank_select",
    "run_levels",
    "run_screening",
    "exact_es",
    "correct_selection",
    "worst_indexes",
]

#: Prices per chunk of :func:`fold_rows` (1 MiB of float64).  A chunk holds
#: ``CHUNK_PRICINGS // width`` rows (at least one), so a level's row memory
#: does not grow with dN or with the number of scenarios priced.  A
#: :class:`GaussianSource` draw of more than one chunk samples its batch
#: statistics exactly instead, where the closed form applies.
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
        q = _integers(self.q, "q", InvalidStrategyError)
        n = _integers(self.n, "n", InvalidStrategyError)
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
        if not isinstance(d, dict) or not {"q", "N"} <= d.keys():
            raise InvalidStrategyError(f"need a dict with keys q and N, got {d!r:.80}")
        return cls(q=d["q"], n=d["N"])


def cost(strategy: Strategy) -> int:
    """Total scalar pricings: sum of ``q_l * (N_{l+1} - N_l)`` over levels."""
    q = np.asarray(strategy.q, dtype=np.int64)
    return int(np.sum(q * strategy.delta_n()))


def _check_count(value, name: str) -> None:
    """Reject a count that is not an integer (a bool is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


def _integers(values, name: str, error) -> tuple[int, ...]:
    """``values`` as a tuple of ints, raising ``error`` unless it is a
    sequence of integers (a bool is not one)."""
    try:
        values = tuple(values)
        ints = tuple(map(operator.index, values))
    except TypeError:
        ints = None
    if ints is None or bool in map(type, values):
        raise error(f"{name} must be a sequence of integers, got {values!r}")
    return ints


def rank_select(estimates: np.ndarray, index_set: np.ndarray, keep: int) -> np.ndarray:
    """Indexes of the ``keep`` largest estimates, ties to the smaller index.

    ``estimates[..., j]`` (per world along a leading axis) is the value of
    original index ``index_set[j]``.  Returns original indexes ordered by
    (value desc, index asc), a total order that must be bit-stable.
    """
    index_set = np.asarray(index_set, dtype=np.intp)
    estimates = np.asarray(estimates, dtype=np.float64)
    if index_set.ndim != 1 or estimates.shape[-1:] != index_set.shape:
        raise InvalidParameterError("estimates and index_set must align")
    _check_count(keep, "keep")
    if not 0 <= keep <= index_set.size:
        raise InvalidParameterError(
            f"keep = {keep} must be in [0, {index_set.size}], the index set size"
        )
    order = np.lexsort((np.broadcast_to(index_set, estimates.shape), -estimates))
    return index_set[order[..., :keep]]


class GaussianSource:
    """Price source over iid Gaussian rows from a ScenarioParams model.

    It consumes its owned substream.  The survivors' law is the principal
    submatrix ``Sigma[ids, ids]`` (``theta.restrict(ids)``), restricted and
    factored once per index set.  A draw of at most one chunk (``len(ids) *
    count <= CHUNK_PRICINGS``) folds the rows of :func:`simulate_prices`
    (:func:`fold_rows`), so a row costs ``len(ids)`` normals (one more if
    equicorrelated).  A larger draw samples ``(sum, scatter)`` exactly from
    their joint law: dense models at every count (:func:`_dense_stats`),
    one-factor models at ``count >= 3`` (:func:`_equicorrelated_stats`).
    For Gaussian rows the sum is ``N(count mu, count Sigma)`` and
    independent of the scatter (Cochran), so neither needs the rows.  A
    one-factor draw of one or two paths above one chunk folds rows.
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

    def draw(self, indexes: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        if not np.array_equal(indexes, self._ids):
            self._ids = np.array(indexes, dtype=np.intp)
            self._sub = self.theta.restrict(self._ids)
        sub, rng = self._sub, self.rng
        if sub.n_s * count > CHUNK_PRICINGS:
            if sub.equi is None:
                return _dense_stats(sub.mu, sub.factor(), count, rng)
            if count >= 3:
                return _equicorrelated_stats(sub, count, rng)
        return fold_rows(lambda rows: simulate_prices(sub, rows, rng), sub.n_s, count)


def _equicorrelated_stats(theta: ScenarioParams, count: int, rng: np.random.Generator):
    """Exact ``(sum, scatter)`` of ``count >= 3`` one-factor rows
    ``mu + s (a z_0 + b z_j)``, ``a = sqrt(rho)``, ``b = sqrt(1 - rho)``.

    The sum is ``count mu + s sqrt(count) (a g_0 + b g_j)``.  Centred over
    the rows, ``z_0`` and each ``z_j`` are iid ``N(0, I_{count-1})`` vectors
    ``u_0``, ``u_j``, and column j's scatter is ``s^2 |a u_0 + b u_j|^2 =
    s^2 (rho S00 + 2ab S0j + (1 - rho) Sjj)``.  With ``c = |u_0|``
    (``S00 = c^2 ~ chi^2(count - 1)``), ``u_j`` splits into ``w_j`` along
    ``u_0`` (``S0j = c w_j``, ``w_j ~ N(0, 1)``) and an orthogonal part of
    squared length ``r_j ~ chi^2(count - 2)`` (``Sjj = w_j^2 + r_j``), so
    the scatter is ``s^2 ((a c + b w_j)^2 + (1 - rho) r_j)``: a sum of
    squares, never negative.  Draws ``len(mu) + 1`` normals, one chi^2,
    ``len(mu)`` normals and ``len(mu)`` chi^2, in that order.
    """
    spec, q = theta.equi, theta.n_s
    a, b = np.sqrt(spec.rho), np.sqrt(1.0 - spec.rho)
    g = rng.standard_normal(q + 1)
    total = count * theta.mu + spec.sigma_scalar * np.sqrt(count) * (a * g[0] + b * g[1:])
    c = np.sqrt(rng.chisquare(count - 1))
    along = a * c + b * rng.standard_normal(q)
    scatter = along * along + (1.0 - spec.rho) * rng.chisquare(count - 2, q)
    scatter *= spec.sigma_scalar**2
    return total, scatter


def _dense_stats(mu, f, count: int, rng: np.random.Generator):
    """Exact ``(sum, scatter)`` of ``count >= 1`` rows ``mu + F z``, ``F`` any
    square factor of the covariance (``F F^T = Sigma``).

    The sum is ``count mu + sqrt(count) F g``.  The centred scatter matrix
    is Wishart(count - 1, Sigma) ``= (F A)(F A)^T`` with ``A`` the Bartlett
    factor of a Wishart(count - 1, I) draw (:func:`bartlett_factor`, singular
    when ``count <= len(mu)``), so its diagonal is the row sums of ``(F A)^2``.
    """
    total = count * mu + np.sqrt(count) * (f @ rng.standard_normal(f.shape[1]))
    fa = f @ bartlett_factor(count - 1, f.shape[1], rng)
    return total, np.einsum("ij,ij->i", fa, fa)


def fold_rows(
    rows: Callable[[int], np.ndarray], width: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum and centred scatter (per column) of ``count`` rows of ``width``
    prices, drawn by ``rows(k)``: a fresh ``k x width`` block the fold may
    overwrite.

    Rows are drawn in chunks of ``max(1, CHUNK_PRICINGS // width)`` rows,
    so memory is bounded whatever ``count`` and the width.  Each chunk is
    centred in place on its rounded mean ``hi``; the centred residual sum
    restores the mean's lost digits, and the chunks are merged by the
    Chan-Golub-LeVeque update ``M2 = M2_a + M2_b + delta^2 n_a n_b / n``.
    The running mean is carried as an offset from the first chunk's ``hi``,
    so ``delta`` keeps full precision when a column's mean dwarfs its
    spread.  The rows drawn do not depend on the chunk size; the sums and
    scatter do, in their last bits.
    """
    chunk_rows = max(1, CHUNK_PRICINGS // max(width, 1))
    total = np.zeros(width)
    m2 = np.zeros(width)
    offset = np.zeros(width)  # running mean minus ``ref``
    ref = None
    done = 0
    while done < count:
        k = min(chunk_rows, count - done)
        x = rows(k)
        ones = np.ones(k)
        chunk_sum = ones @ x
        hi = chunk_sum / k
        if ref is None:
            ref = hi
        x -= hi
        resid = ones @ x
        x *= x
        delta = (hi - ref) + resid / k - offset
        m2 += ones @ x - resid * resid / k
        m2 += delta * delta * (done * k / (done + k))
        offset += delta * (k / (done + k))
        total += chunk_sum
        done += k
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
    level's ``dn`` fresh paths (from a price source, or simulated).  The
    kept set is the ``keep`` largest cumulative means, ascending; keeping
    every scenario is the final level's no-selection step.  Batches with a
    leading world axis step each world from the one ``entered`` set.
    """
    sums = sums + batch_sum
    n_cum = n_prev + dn
    mu_hat = sums / n_cum if n_cum > 0 else np.zeros(sums.shape)
    kept = np.sort(rank_select(mu_hat, entered, keep), axis=-1)
    batch_mean = batch_sum / dn if dn > 0 else np.zeros(sums.shape)
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
    GaussianSource is built on it) or any price source (see the module
    docstring).  Each level takes the batch statistics of ``dN`` fresh
    paths for the scenarios alive from one ``source.draw(alive, dN)`` call
    and keeps all but ``dq`` of them (:func:`step`); the last keeps every
    one.  The run's strategy is the actions taken.
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
        batch_sum, scatter = source.draw(alive, dn)
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
