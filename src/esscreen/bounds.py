"""Error-bound evaluation: Bernstein tails, the deterministic L^p bound, its
robust variant, and the adaptive (posterior-aware) selection bound.

All bounds share one exponential kernel, exp(-n x^2 / (2 p (v + c x))), the
sub-gamma tail of an n-sample mean with variance proxy v and scale constant c,
taken to the power 1/p for an L^p bound of order p.  Setting c = 0 gives the
pure sub-Gaussian case (valid for Gaussian pricing errors).  ``_kernel_exp``
is the kernel's only evaluation; every bound here and the planner's two-level
heuristic go through it.  ``level_terms`` is the only code that turns a target
into the deterministic or robust bound's selection terms: one table over a
set of thresholds and path counts, which the planner's dynamic program and
every strategy bound index.  ``F_p`` scores a strategy under either target:
a ScenarioParams for the deterministic bound, a RobustBounds for the robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidStrategyError
from .model import ScenarioParams, pair_variance
from .screener import Strategy

__all__ = [
    "SubGammaParams",
    "RobustBounds",
    "bernstein_tail",
    "gamma_constants",
    "selection_term",
    "robust_gap_max",
    "mc_terms_exact",
    "level_terms",
    "F_p",
    "f_p_ad",
    "AdaptiveState",
]

#: Exponents below this are treated as -inf: bound values under exp(-745)
#: are numerically zero for planning purposes and only cause denormal churn.
_EXP_FLOOR = -745.0


@dataclass(frozen=True)
class SubGammaParams:
    """Bernstein scale constant ``c`` (0 allowed) and moment order ``p >= 1``."""

    c: float = 0.0
    p: float = 1.0

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise InvalidParameterError(f"c must be finite and >= 0, got {self.c}")
        if not 1 <= self.p < math.inf:
            raise InvalidParameterError(f"p must be finite and >= 1, got {self.p}")


@dataclass(frozen=True)
class RobustBounds:
    """A-priori gap brackets per threshold and a uniform std bound.

    ``delta_lo[q]``/``delta_hi[q]`` bracket every gap ``mu_i - mu_k`` with
    ``i <= n_w < q < k``; ``sigma_bar`` dominates every per-scenario and
    pairwise standard deviation.
    """

    delta_lo: dict[int, float]
    delta_hi: dict[int, float]
    sigma_bar: float

    def __post_init__(self):
        for q, lo in self.delta_lo.items():
            hi = self.delta_hi.get(q)
            if hi is None:
                raise InvalidParameterError(f"missing delta_hi for q={q}")
            if not (0.0 <= lo <= hi):
                raise InvalidParameterError(
                    f"need 0 <= delta_lo <= delta_hi at q={q}, got [{lo}, {hi}]"
                )
        if not 0 <= self.sigma_bar < math.inf:
            raise InvalidParameterError("sigma_bar must be in [0, inf)")


def _kernel_exp(n, x, var, c, p=1.0):
    """exp(-n x^2 / (2 p (var + c x))), vectorized, underflow-clamped.

    The kernel is 1 where x <= 0 (the trivial probability bound) and 0 where
    x > 0 with a vanishing denominator (infinitely fast decay).
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow is inf, which the kernel takes
        denom = 2.0 * p * (var + c * x)
        expo = -n * x * x / np.where(denom > 0, denom, 1.0)
    # clamped entries are never passed to exp, so none of them goes subnormal
    out = np.exp(expo, out=np.zeros_like(expo), where=expo > _EXP_FLOOR)
    out = np.where((x > 0) & (denom <= 0), 0.0, out)
    return np.where(x <= 0, 1.0, out)


def bernstein_tail(x: float, n: int, var: float, c: float = 0.0) -> float:
    """Sub-gamma tail bound exp(-n x^2 / (2 (var + c x))), clamped to [0, 1].

    Bounds P[mean of n samples exceeds its expectation by x] under the
    Bernstein moment condition.  Returns 1 at x = 0.
    """
    if x < 0 or n < 1 or var < 0 or c < 0:
        raise InvalidParameterError(
            f"invalid arguments: x={x}, n={n}, var={var}, c={c}"
        )
    return float(_kernel_exp(n, x, var, c))


def gamma_constants(p: float) -> tuple[float, float]:
    """Moment constants (2^{p-1} Gamma(p/2), 4^p Gamma(p)) for order p >= 1."""
    if p < 1:
        raise InvalidParameterError(f"p must be >= 1, got {p}")
    return 2.0 ** (p - 1.0) * math.gamma(p / 2.0), 4.0**p * math.gamma(p)


def selection_term(
    n_paths, gaps: np.ndarray, variances: np.ndarray, sub: SubGammaParams
) -> np.ndarray:
    """Selection-risk row of one path count N, or one row per entry of an
    array of path counts.

    ``gaps`` and ``variances`` hold ``mu_i - mu_k`` and ``Var[P_i - P_k]``
    for i among the n_w best scenarios (rows) and every scenario k
    (columns).  Entry q of a row is the max over i and over k >= q of
    gap * exp(-N gap^2 / (2 p (var_ik + c gap))): one kernel pass, a max
    over i, then a running max from the right.  The level term for
    q_prev -> q_next is (q_prev - q_next)^{1/p} times entry q_next; a max
    is exact, so the row serves every threshold pair at this N.  An array
    of path counts takes one kernel pass for all its rows, each equal to
    the scalar call's bit for bit.
    """
    n_paths = np.asarray(n_paths)
    if (n_paths < 0).any():
        raise InvalidParameterError("n_paths must be >= 0")
    kern = _kernel_exp(n_paths[..., None, None], gaps, variances, sub.c, sub.p)
    vals = (gaps * kern).max(axis=-2)
    return np.maximum.accumulate(vals[..., ::-1], axis=-1)[..., ::-1]


def _mc_term(n, n_last, sigma_p: np.ndarray, n_w: int, sub: SubGammaParams):
    """(n / N_L) / n_w times the sum over ``sigma_p`` of the per-scenario
    moment bound (C_sig p sigma^p / n^{p/2} + C_c p c^p / n^p)^{1/p}: one
    term per entry of the lists ``n`` and ``n_last``, each power taken on its
    own entry, so every entry has the bits of a one-entry list."""
    c_sig, c_c = gamma_constants(sub.p)
    p = sub.p
    root = np.array([k ** (p / 2.0) for k in n])[:, None]
    full = np.array([k**p for k in n])[:, None]
    share = np.array([k / last for k, last in zip(n, n_last)])
    with np.errstate(over="ignore"):
        inner = c_sig * p * sigma_p / root + c_c * p * np.float64(sub.c) ** p / full
    return share / n_w * np.sum(inner ** (1.0 / p), axis=-1)


def mc_terms_exact(
    n_prev, n_last, sigma_p_sorted: np.ndarray, n_w: int, sub: SubGammaParams
):
    """Final-level and carried-over Monte Carlo terms under known parameters.

    ``sigma_p_sorted`` holds the per-scenario deviations raised to the p-th
    power, sorted descending; the fresh-path term (n = N_L - N_{L-1}) takes
    its ``n_w`` largest entries (the summand grows with sigma, so the max over
    ordered subsets is attained there), the carried-over term (n = N_{L-1})
    sums all of them.  Both terms are +inf unless ``0 < n_prev < n_last``:
    elsewhere they are undefined, and a plan that needs them must lose any
    minimization.

    The path counts broadcast to two arrays of terms, or two floats from two
    scalars; every entry takes the same per-entry arithmetic, so the
    planner's (N_{L-1}, N_L) table holds the bits of each strategy bound.
    """
    n_prev, n_last = np.broadcast_arrays(n_prev, n_last)
    fine = (n_prev > 0) & (n_last > n_prev)
    prev, last = n_prev[fine].tolist(), n_last[fine].tolist()
    fresh = [b - a for a, b in zip(prev, last)]
    term_b = np.full(fine.shape, math.inf)
    term_c = np.full(fine.shape, math.inf)
    term_b[fine] = _mc_term(fresh, last, sigma_p_sorted[:n_w], n_w, sub)
    term_c[fine] = _mc_term(prev, last, sigma_p_sorted, n_w, sub)
    if fine.ndim == 0:
        return float(term_b), float(term_c)
    return term_b, term_c


def _stationary_point(n_paths: float, sigma_bar: float, sub: SubGammaParams) -> float:
    """The one d > 0 where d * kernel(d) is stationary, for N, sbar > 0:
    sbar sqrt(p/N) at c = 0, else the positive root of the cubic
    h(d) = 2p (sbar^2 + c d)^2 - N d^2 (2 sbar^2 + c d), found by bisection
    until the midpoint equals an end; the end where h <= 0 is returned.  It
    runs on d = 2^e t, 2^e > max(sbar, c): exact, and no power overflows."""
    if sub.c == 0.0:
        return sigma_bar * math.sqrt(sub.p / n_paths)

    e = math.frexp(max(sigma_bar, sub.c))[1]
    sbar, c = math.ldexp(sigma_bar, -e), math.ldexp(sub.c, -e)
    var = sbar * sbar

    def h(t):
        s2 = var + c * t
        return 2.0 * sub.p * s2 * s2 - n_paths * t * t * (2.0 * var + c * t)

    t_hi = 4.0 * (sbar * math.sqrt(sub.p / n_paths) + 2.0 * sub.p * c / n_paths)
    while h(t_hi) > 0:
        t_hi *= 4.0
    # h(0) = 2p sbar^4 > 0 and h(t_hi) <= 0; the cubic's coefficients change
    # sign once, so it has one positive root (Descartes)
    t_lo = 0.0
    while t_lo < (mid := 0.5 * (t_lo + t_hi)) < t_hi:
        if h(mid) > 0:
            t_lo = mid
        else:
            t_hi = mid
    return math.ldexp(t_hi, e)


def robust_gap_max(
    n_paths: float, lo: float, hi: float, sigma_bar: float, sub: SubGammaParams
) -> float:
    """max over delta in [lo, hi] of delta * exp(-N delta^2 / (2p(sbar^2 + c delta))).

    The candidates are the bracket's ends and, when it lies inside, the
    stationary point of :func:`_stationary_point` (a bisection when c > 0).
    """
    if hi <= 0.0:
        return 0.0
    candidates = [lo, hi]
    if n_paths > 0 and sigma_bar > 0:
        stat = _stationary_point(n_paths, sigma_bar, sub)
        if lo < stat < hi:
            candidates.append(stat)
    cands = np.array(candidates)
    kern = _kernel_exp(n_paths, cands, sigma_bar * sigma_bar, sub.c, sub.p)
    return float(np.max(cands * kern))


def level_terms(
    target, sub: SubGammaParams, n_w: int, n_s: int, q_values, n_values, select
) -> tuple[np.ndarray, np.ndarray]:
    """Selection terms of every level between two thresholds of ``q_values``
    at every path count of ``n_values``, and the deviations that
    :func:`mc_terms_exact` takes.

    ``terms[a, b, d]`` is the term of the level ``q_values[a] ->
    q_values[b]`` at ``n_values[d]`` paths: (q_a - q_b)^{1/p} times a
    factor of (q_b, N), and 0 where q_b >= q_a or q_b >= n_s.  For a
    ScenarioParams ``target`` the factor is entry q_b of the row of N in
    ``select(distinct N, gaps, variances, sub)`` of :func:`selection_term`,
    over the n_w x n_s gap and pair-variance matrices: one call builds the
    row of every distinct N.  For a RobustBounds it is
    :func:`robust_gap_max` over the bracket at q_b, which must exist for
    every q_b < n_s.  ``select`` is passed by the caller so that
    instrumentation rebinding the caller's name sees the call.  Every
    bound of a concrete strategy and the planner's dynamic program read their
    terms from this table, so their values compare bitwise.
    """
    q_values = [int(q) for q in q_values]
    n_values = [int(n) for n in n_values]
    if isinstance(target, ScenarioParams):
        if target.n_s != n_s:
            raise InvalidParameterError(
                f"target has n_s={target.n_s} scenarios but the plan has n_s={n_s}"
            )
        i = np.arange(min(n_w, n_s))[:, None]
        k = np.arange(n_s)[None, :]
        gaps = target.mu[i] - target.mu[k]
        variances = pair_variance(target.sigma, i, k)
        sig_p = np.sort(np.sqrt(np.diag(target.sigma)) ** sub.p)[::-1]
        distinct = list(dict.fromkeys(n_values))
        rows = dict(zip(distinct, select(np.array(distinct), gaps, variances, sub)))

        def factor(q, n):
            return float(rows[n][q])

    elif isinstance(target, RobustBounds):
        missing = [q for q in q_values if q < n_s and q not in target.delta_lo]
        if missing:
            raise InvalidParameterError(
                f"RobustBounds does not cover threshold q={missing[0]}"
            )
        # a uniform std bound is the exact Monte Carlo term with every sigma_i = sbar
        with np.errstate(over="ignore"):  # float ** bit for bit, but inf on overflow
            sig_p = np.full(n_s, np.float64(target.sigma_bar) ** sub.p)

        def factor(q, n):
            lo, hi = target.delta_lo[q], target.delta_hi[q]
            return robust_gap_max(n, lo, hi, target.sigma_bar, sub)

    else:
        raise InvalidParameterError(
            f"target must be ScenarioParams or RobustBounds, got {type(target)!r}"
        )
    roots = [
        [(qa - qb) ** (1.0 / sub.p) if qb < qa else 0.0 for qb in q_values]
        for qa in q_values
    ]
    factors = [[factor(q, n) if q < n_s else 0.0 for n in n_values] for q in q_values]
    return np.array(roots)[:, :, None] * np.array(factors), sig_p


def _strategy_value(
    strategy: Strategy, target, sub: SubGammaParams, n_w: int, n_s: int, select
) -> float:
    """Bound of a concrete strategy: the per-level selection terms, then the
    final level's fresh-path and carried-over Monte Carlo terms, summed in
    that order.  Strategies with ``N_{L-1} == 0`` or ``dN_L == 0`` score
    +inf through :func:`mc_terms_exact`: their Monte Carlo terms are
    undefined and such plans must lose any minimization."""
    q, n = strategy.q, strategy.n
    terms, sig_p = level_terms(target, sub, n_w, n_s, q, n[1:-1], select)
    total = 0.0
    for lvl in range(1, strategy.levels):
        total += float(terms[lvl - 1, lvl, lvl - 1])
    term_b, term_c = mc_terms_exact(n[-2], n[-1], sig_p, n_w, sub)
    return total + term_b + term_c


def F_p(strategy: Strategy, target, sub: SubGammaParams) -> float:
    """L^p error bound of a strategy, deterministic or robust by ``target``.

    Sum of the per-level selection terms, the fresh-path Monte Carlo term of
    the final level, and the carried-over term from level L-1.  Scenarios are
    assumed sorted by decreasing impact (the planning convention).  A
    ScenarioParams ``target`` with the strategy's ``n_s`` gives the bound
    under known parameters; a RobustBounds gives its worst case over the
    a-priori gap brackets, with the uniform std bound for every scenario.
    """
    if isinstance(target, ScenarioParams) and strategy.n_s != target.n_s:
        raise InvalidStrategyError("strategy and target disagree on n_s")
    return _strategy_value(
        strategy, target, sub, strategy.n_w, strategy.n_s, selection_term
    )


@dataclass(frozen=True)
class AdaptiveState:
    """Inputs of the posterior selection bound at one level.

    ``mu_hat_prev`` are the cumulative estimates over the surviving scenarios
    after the previous level (aligned with the posterior draw's coordinates);
    ``n_prev``/``delta_n`` are the cumulative and incremental path counts
    (``delta_n`` may be an int array) and ``q_next`` the number kept.
    """

    mu_hat_prev: np.ndarray
    n_prev: int
    delta_n: int | np.ndarray
    q_next: int
    n_w: int

    def __post_init__(self):
        object.__setattr__(
            self, "mu_hat_prev", np.asarray(self.mu_hat_prev, dtype=np.float64)
        )
        if np.min(self.delta_n) < 1:
            raise InvalidParameterError(
                "delta_n must be >= 1 at a selection level (the posterior "
                "inversion margin is undefined without fresh paths)"
            )
        if not (self.n_w <= self.q_next < self.mu_hat_prev.size):
            raise InvalidParameterError(
                f"need n_w <= q_next < q_prev, got n_w={self.n_w}, "
                f"q_next={self.q_next}, q_prev={self.mu_hat_prev.size}"
            )


def f_p_ad(
    mu_tilde: np.ndarray,
    sigma_tilde: np.ndarray,
    state: AdaptiveState,
    sub: SubGammaParams,
    rank_by: np.ndarray | None = None,
) -> float | np.ndarray:
    """Posterior selection-risk bound for one level.

    Given a draw (or plug-in) of the parameters over the surviving scenarios,
    ranks them by ``mu_tilde`` (ties to the smaller coordinate), pairs the
    posterior-best ``n_w`` against the dropped tail (ranks beyond ``q_next``)
    and returns dq times the max of

        gap^p * ( exp(-dN rho^2 / (2 (var_ik + c rho))) 1{rho >= 0} + 1{rho < 0} )

    where ``rho = gap + (N_prev/dN) (muhat_i - muhat_k)`` folds the already
    accumulated empirical margin into the fresh-batch inversion bound.
    Plug-in callers may supply ``rank_by`` to take the pairing permutation
    from a different (e.g. previous-step empirical) ordering than the values.
    An array ``state.delta_n`` gives one bound per increment (each equal to
    the scalar call) from one ranking, pair block and kernel pass.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    sigma_tilde = np.asarray(sigma_tilde, dtype=np.float64)
    q_prev = mu_tilde.size
    if state.mu_hat_prev.size != q_prev or sigma_tilde.shape != (q_prev, q_prev):
        raise InvalidParameterError("state, mu_tilde and sigma_tilde must align")
    dq = q_prev - state.q_next  # >= 1: AdaptiveState requires q_next < q_prev
    ranker = mu_tilde if rank_by is None else np.asarray(rank_by, dtype=np.float64)
    if ranker.size != q_prev:
        raise InvalidParameterError("rank_by must align with mu_tilde")
    order = np.lexsort((np.arange(q_prev), -ranker))
    best = order[: state.n_w]
    tail = order[state.q_next :]
    ii, kk = np.meshgrid(best, tail, indexing="ij")
    gap = mu_tilde[ii] - mu_tilde[kk]
    var = pair_variance(sigma_tilde, ii, kk)
    dn = np.asarray(state.delta_n)[..., None, None]
    ratio = state.n_prev / dn if state.n_prev else 0.0
    rho = gap + ratio * (state.mu_hat_prev[ii] - state.mu_hat_prev[kk])
    # an inverted prior margin (rho <= 0) gets the kernel's full weight 1
    vals = np.abs(gap) ** sub.p * _kernel_exp(dn, rho, var, sub.c)
    out = dq * vals.max(axis=(-2, -1))
    return float(out) if out.ndim == 0 else out
