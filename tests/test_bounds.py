"""Bound evaluation: Bernstein tails, moment constants, the deterministic
bound and its robust/adaptive variants."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from esscreen.bounds import (
    AdaptiveState,
    F_p,
    RobustBounds,
    SubGammaParams,
    _kernel_exp,
    _stationary_point,
    bernstein_tail,
    f_p_ad,
    gamma_constants,
    level_terms,
    mc_terms_exact,
    robust_gap_max,
    selection_term,
)
from esscreen.errors import InvalidParameterError, InvalidStrategyError
from esscreen.model import (
    EquicorrelatedSpec,
    ScenarioParams,
    build_equicorrelated,
    synthetic_book,
)
from esscreen.planner import HeuristicParams, h0
from esscreen.screener import Strategy
from esscreen.streams import substream


class TestBernsteinTail:
    def test_one_at_zero(self):
        assert bernstein_tail(0.0, 100, 1.0, 0.0) == 1.0

    def test_closed_form_point(self):
        assert bernstein_tail(0.5, 200, 1.0, 0.0) == pytest.approx(
            math.exp(-25.0), rel=1e-12
        )

    def test_monotone_in_x_and_n(self):
        xs = np.linspace(0.0, 3.0, 50)
        vals = [bernstein_tail(x, 50, 2.0, 0.5) for x in xs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        ns = [1, 2, 5, 10, 100, 1000]
        vals = [bernstein_tail(0.7, n, 2.0, 0.5) for n in ns]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            bernstein_tail(-1.0, 10, 1.0)
        with pytest.raises(InvalidParameterError):
            bernstein_tail(1.0, 0, 1.0)

    def test_dominates_gaussian_mean_tail(self):
        # Monte Carlo check on a modest grid; the acceptance suite repeats
        # this at full scale.
        rng = substream(13, 0)
        n, m = 25, 200_000
        means = rng.standard_normal((m, n)).mean(axis=1)
        for x in np.linspace(0.05, 0.8, 10):
            emp = float(np.mean(means >= x))
            bound = bernstein_tail(float(x), n, 1.0, 0.0)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / m)
            assert emp <= bound + 3 * se


# The scalar formulas the bounds used before they shared ``_kernel_exp``,
# kept as oracles: the tail of bernstein_tail, the per-candidate objective
# of robust_gap_max and the heuristic objective h0.
def _scalar_tail(x, n, var, c):
    if x == 0:
        return 1.0
    denom = 2.0 * (var + c * x)
    if denom == 0.0:
        return 0.0
    expo = -n * x * x / denom
    if expo <= -745.0:
        return 0.0
    return min(1.0, math.exp(expo))


def _scalar_gap_term(delta, n, sbar, c, p):
    if delta <= 0:
        return 0.0
    expo = -n * delta * delta / (2.0 * p * (sbar**2 + c * delta))
    if expo <= -745.0:
        return 0.0
    return delta * math.exp(expo)


def _scalar_h0(hp, q1):
    u = q1 + 1.0 - hp.n_w
    rem = hp.n_s - q1
    if rem <= 0 or hp.budget - q1 * hp.n2 < 0:
        return math.inf
    gap = u * hp.delta0
    expo = (
        -(hp.budget - q1 * hp.n2)
        * gap
        * gap
        / (2.0 * hp.p * rem * (hp.sigma_bar**2 + hp.c * gap))
    )
    if expo <= -745.0:
        return 0.0
    return rem ** (1.0 / hp.p) * gap * math.exp(expo)


def _agrees(got, want):
    return got == want or abs(got - want) <= 1e-12 * abs(want)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


class TestKernelTranscription:
    """The shared kernel reproduces each bound's former scalar formula, over
    x = 0, var = 0, c > 0, p in {1, 1.5, 2} and deep underflow."""

    def test_bernstein_tail(self):
        rng = substream(31, 0)
        cases = [(0.0, 5, 1.0, 0.0), (0.3, 5, 0.0, 0.0), (0.3, 5, 0.0, 2.0)]
        cases += [(1.0, 10**9, 1.0, 0.0), (4.0, 10**6, 0.1, 0.5)]  # underflow
        for _ in range(2000):
            x = 0.0 if rng.random() < 0.05 else _log_uniform(rng, 1e-3, 10.0)
            var = 0.0 if rng.random() < 0.1 else _log_uniform(rng, 1e-3, 10.0)
            c = 0.0 if rng.random() < 0.3 else _log_uniform(rng, 1e-3, 10.0)
            n = int(_log_uniform(rng, 1.0, 1e5))
            cases.append((x, n, var, c))
        for x, n, var, c in cases:
            got, want = bernstein_tail(x, n, var, c), _scalar_tail(x, n, var, c)
            assert _agrees(got, want), (x, n, var, c, got, want)
        assert bernstein_tail(1.0, 10**9, 1.0, 0.0) == 0.0

    def test_robust_gap_term(self):
        # a one-point bracket scores only its point, the former g(delta)
        rng = substream(31, 1)
        cases = [(0.0, 50, 1.0, 0.0, 1.0), (0.7, 50, 0.0, 1.5, 2.0)]
        cases += [(5.0, 10**8, 1.0, 0.0, 1.5), (3.0, 10**7, 0.0, 0.2, 1.0)]
        for _ in range(2000):
            delta = 0.0 if rng.random() < 0.05 else _log_uniform(rng, 1e-3, 10.0)
            c = 0.0 if rng.random() < 0.3 else _log_uniform(rng, 1e-3, 10.0)
            sbar = _log_uniform(rng, 1e-2, 10.0)
            if c > 0 and rng.random() < 0.1:
                sbar = 0.0
            n = int(_log_uniform(rng, 1.0, 1e5))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            cases.append((delta, n, sbar, c, p))
        for delta, n, sbar, c, p in cases:
            sub = SubGammaParams(c=c, p=p)
            got = robust_gap_max(n, delta, delta, sbar, sub)
            want = _scalar_gap_term(delta, n, sbar, c, p)
            assert _agrees(got, want), (delta, n, sbar, c, p, got, want)
        assert robust_gap_max(10**8, 5.0, 5.0, 1.0, SubGammaParams(p=1.5)) == 0.0

    def test_heuristic_objective(self):
        rng = substream(31, 2)
        hps = [
            HeuristicParams(
                delta0=0.05, sigma_bar=5.0, c=0.3, budget=1e6, n2=100, n_s=40, n_w=4
            ),
            HeuristicParams(
                delta0=2.0, sigma_bar=0.0, c=0.5, budget=1e7, n2=10, n_s=60, n_w=3
            ),
        ]
        for _ in range(200):
            n_s = int(rng.integers(10, 300))
            n_w = int(rng.integers(1, 10))
            n2 = int(rng.integers(1, 1000))
            c = 0.0 if rng.random() < 0.3 else _log_uniform(rng, 1e-3, 10.0)
            hps.append(
                HeuristicParams(
                    delta0=_log_uniform(rng, 1e-3, 10.0),
                    sigma_bar=_log_uniform(rng, 1e-2, 50.0),
                    c=c,
                    budget=n_w * n2 * _log_uniform(rng, 1.0, 1e4),
                    n2=n2,
                    n_s=n_s,
                    n_w=n_w,
                    p=float(rng.choice([1.0, 1.5, 2.0])),
                )
            )
        for hp in hps:
            # q1 = n_w - 1 has a zero gap; q1 = n_s an empty fast level
            for q1 in range(hp.n_w - 1, hp.n_s + 1):
                if q1 == hp.n_w - 1 and hp.sigma_bar == 0.0:
                    continue  # the former formula divides by zero there
                got, want = h0(hp, q1), _scalar_h0(hp, q1)
                assert _agrees(got, want), (hp, q1, got, want)


class TestGammaConstants:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1.0, (math.sqrt(math.pi), 4.0)),
            (2.0, (2.0, 16.0)),
            (4.0, (8.0, 1536.0)),
        ],
    )
    def test_reference_points(self, p, expected):
        got = gamma_constants(p)
        assert got[0] == pytest.approx(expected[0], rel=1e-12)
        assert got[1] == pytest.approx(expected[1], rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_against_quadrature(self, p):
        # numerically integrated Gamma as the independent oracle
        def gamma_quad(y):
            val, _ = integrate.quad(
                lambda t: t ** (y - 1.0) * math.exp(-t), 0.0, np.inf
            )
            return val

        c_sig, c_c = gamma_constants(p)
        assert c_sig == pytest.approx(2 ** (p - 1) * gamma_quad(p / 2), rel=1e-10)
        assert c_c == pytest.approx(4**p * gamma_quad(p), rel=1e-10)


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
@pytest.mark.parametrize("field", ["c", "p"])
def test_sub_gamma_params_reject_bad_constants(field, value):
    with pytest.raises(InvalidParameterError, match=f"^{field} must be finite"):
        SubGammaParams(**{field: value})


def _theta(n_s=20, delta0=5.0, sigma=6.0, rho=0.4):
    return ScenarioParams.equicorrelated(
        synthetic_book(n_s, delta0), EquicorrelatedSpec(sigma, rho)
    )


def _sel(theta, sub, q_prev, q_next, n_paths, n_w=3):
    """The exact-parameter level term q_prev -> q_next at N paths."""
    terms, _ = level_terms(
        theta, sub, n_w, theta.n_s, (q_prev, q_next), (n_paths,), selection_term
    )
    return terms[0, 1, 0]


class TestSelectionTerm:
    def test_brute_force_max(self):
        theta = _theta()
        sub = SubGammaParams(c=0.7, p=2.0)
        n_w, n_s, q_next = 3, theta.n_s, 8

        def brute(q):
            best = -np.inf
            for i in range(n_w):
                for k in range(q, n_s):
                    g = theta.mu[i] - theta.mu[k]
                    v = (
                        theta.sigma[i, i]
                        + theta.sigma[k, k]
                        - 2 * theta.sigma[i, k]
                    )
                    kern = math.exp(-40 * g * g / (2 * sub.p * (v + sub.c * g)))
                    best = max(best, g * kern)
            return best

        got = _sel(theta, sub, 15, q_next, 40, n_w)
        want = (15 - q_next) ** (1 / sub.p) * brute(q_next)
        assert got == pytest.approx(want, rel=1e-12)
        # the row holds the max over k >= q for every threshold q >= n_w at once
        gaps = theta.mu[:n_w, None] - theta.mu[None, :]
        d = np.diag(theta.sigma)
        variances = d[:n_w, None] + d[None, :] - 2 * theta.sigma[:n_w]
        row = selection_term(40, gaps, variances, sub)
        assert row.shape == (n_s,)
        for q in range(n_w, n_s):
            assert row[q] == pytest.approx(brute(q), rel=1e-12)

    def test_vanishes_with_many_paths(self):
        theta = _theta()
        assert _sel(theta, SubGammaParams(), 15, 8, 10**9) == pytest.approx(
            0.0, abs=1e-300
        )

    def test_zero_dq_is_zero(self):
        assert _sel(_theta(), SubGammaParams(), 8, 8, 10) == 0.0

    def test_linear_book_reduces_to_gap_scan(self):
        # constant pair variance: the pair max is a 1-D scan over gap sizes
        theta = _theta(rho=0.6)
        sub = SubGammaParams(c=0.0, p=1.0)
        sig2 = 2 * 36.0 * (1 - 0.6)
        q_next, n_w, n = 8, 3, 60
        got = _sel(theta, sub, theta.n_s, q_next, n, n_w)
        gaps = np.array(
            [
                (k - i) * 5.0
                for i in range(1, n_w + 1)
                for k in range(q_next + 1, theta.n_s + 1)
            ]
        )
        scan = np.max(gaps * np.exp(-n * gaps**2 / (2 * sig2)))
        assert got == pytest.approx((theta.n_s - q_next) * scan, rel=1e-12)

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0), (2.0, 1.0)])
    def test_rows_of_an_array_equal_scalar_calls(self, c, p):
        # one kernel pass over every path count, N = 0 included (a zero
        # exponent), each row bit for bit the row of its own scalar call;
        # a one-factor book and a general covariance
        sub = SubGammaParams(c=c, p=p)
        rng = substream(23, 30)
        a = rng.standard_normal((20, 20))
        for sigma in (_theta().sigma, a @ a.T + np.eye(20)):
            theta = ScenarioParams(mu=synthetic_book(20, 5.0), sigma=sigma)
            gaps = theta.mu[:3, None] - theta.mu[None, :]
            d = np.diag(theta.sigma)
            variances = d[:3, None] + d[None, :] - 2 * theta.sigma[:3]
            n = np.array([0, 1, 7, 40, 40, 1000, 10**6, 10**9])
            rows = selection_term(n, gaps, variances, sub)
            assert rows.shape == (n.size, theta.n_s)
            for row, k in zip(rows, n.tolist()):
                want = selection_term(k, gaps, variances, sub)
                assert row.tobytes() == want.tobytes(), k
            assert (rows[0] > 0).all() and not rows[-1][3:].any()

    def test_negative_path_counts_raise(self):
        theta = _theta()
        gaps = theta.mu[:3, None] - theta.mu[None, :]
        variances = np.ones_like(gaps)
        for n in (-1, np.array([3, -1, 5]), np.array([-2])):
            with pytest.raises(InvalidParameterError, match="n_paths"):
                selection_term(n, gaps, variances, SubGammaParams())

    def test_one_row_per_path_count(self):
        calls = []

        def counting(n_paths, *args):
            calls.append(n_paths)
            return selection_term(n_paths, *args)

        q_values, n_values = (20, 15, 8, 8, 3), (10, 40, 10, 40)
        terms, _ = level_terms(
            _theta(), SubGammaParams(), 3, 20, q_values, n_values, counting
        )
        # one call builds the row of every distinct N
        assert len(calls) == 1 and calls[0].tolist() == [10, 40]
        assert terms.shape == (5, 5, 4)
        np.testing.assert_array_equal(terms[:, :, :2], terms[:, :, 2:])


class TestFp:
    def test_carryover_term_closed_form(self):
        # p=1, c=0 equicorrelated: the carried-over term reduces to
        # (N_{L-1}/N_L) (n_s/n_w) sqrt(pi) sigma / sqrt(N_{L-1}).
        theta = _theta(n_s=10, sigma=3.0)
        sub = SubGammaParams(c=0.0, p=1.0)
        s = Strategy(q=(10, 3), n=(0, 40, 100))
        # strip the selection term by comparing against a huge-gap book
        far = ScenarioParams.equicorrelated(
            synthetic_book(10, 1e9), EquicorrelatedSpec(3.0, 0.4)
        )
        val = F_p(s, far, sub)
        n_prev, n_last = 40, 100
        term_b = (n_last - n_prev) / n_last * math.sqrt(math.pi) * 3.0 / math.sqrt(
            n_last - n_prev
        )
        term_c = (
            (n_prev / n_last)
            * (10 / 3)
            * math.sqrt(math.pi)
            * 3.0
            / math.sqrt(n_prev)
        )
        assert val == pytest.approx(term_b + term_c, rel=1e-9)

    def test_infinite_gaps_leave_mc_terms(self):
        theta = _theta()
        far = ScenarioParams.equicorrelated(
            synthetic_book(theta.n_s, 1e12), EquicorrelatedSpec(6.0, 0.4)
        )
        sub = SubGammaParams(c=0.3, p=1.0)
        s = Strategy(q=(20, 8, 3), n=(0, 30, 60, 200))
        near = F_p(s, theta, sub)
        limit = F_p(s, far, sub)
        assert limit < near
        s_no_sel = Strategy(q=(20, 20, 3), n=(0, 30, 60, 200))
        # dq = 0 at level 1 has a zero selection term: the far-book value
        # keeps only level 2's (vanishing) term plus the MC terms
        assert F_p(s_no_sel, far, sub) == pytest.approx(limit, rel=1e-12)

    def test_degenerate_plans_score_infinity(self):
        theta = _theta()
        sub = SubGammaParams()
        assert F_p(Strategy(q=(20, 3), n=(0, 0, 50)), theta, sub) == math.inf
        assert F_p(Strategy(q=(20, 3), n=(0, 50, 50)), theta, sub) == math.inf

    def test_scenario_count_must_match_the_strategy(self):
        with pytest.raises(InvalidStrategyError, match="n_s"):
            F_p(Strategy(q=(20, 3), n=(0, 30, 60)), _theta(n_s=10), SubGammaParams())

    def test_selection_terms_monotone_in_paths(self):
        theta = _theta()
        sub = SubGammaParams(c=0.2, p=1.5)
        vals = [_sel(theta, sub, 20, 8, n) for n in (1, 5, 20, 100, 400)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def _scalar_mc_terms(n_prev, n_last, sig_p, n_w, sub):
    """The Monte Carlo terms as computed before they took path-count arrays."""
    c_sig, c_c = gamma_constants(sub.p)
    p = sub.p

    def moment(n, sigma_p):
        inner = c_sig * p * sigma_p / n ** (p / 2.0) + c_c * p * sub.c**p / n**p
        return inner ** (1.0 / p)

    dn = n_last - n_prev
    if n_prev == 0 or dn == 0:
        return math.inf, math.inf
    term_b = (dn / n_last) / n_w * float(np.sum(moment(dn, sig_p[:n_w])))
    term_c = (n_prev / n_last) / n_w * float(np.sum(moment(n_prev, sig_p)))
    return term_b, term_c


class TestMcTermsTable:
    """mc_terms_exact over path-count arrays: the planner's (N_{L-1}, N_L)
    table must hold the scalar call's bits, and +inf (never nan) where the
    terms are undefined."""

    def _case(self, rng, sub):
        n_s = int(rng.integers(3, 300))
        n_w = int(rng.integers(1, n_s))
        scale = float(rng.choice([1.0, 1e3, 2.2e6]))
        sig_p = np.sort(rng.gamma(2.0, scale, n_s) ** sub.p)[::-1]
        top = int(rng.choice([60, 10**4, 2 * 10**6]))
        n_grid = np.unique(rng.integers(0, top, size=int(rng.integers(1, 20))))
        return np.concatenate(([0], n_grid)), n_grid, sig_p, n_w

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0)])
    def test_entries_equal_scalar_calls_bitwise(self, c, p):
        sub = SubGammaParams(c=c, p=p)
        rng = substream(31, 7)
        for _ in range(20):
            n_ext, n_grid, sig_p, n_w = self._case(rng, sub)
            tb, tc = mc_terms_exact(n_ext[:, None], n_grid[None, :], sig_p, n_w, sub)
            assert tb.shape == tc.shape == (n_ext.size, n_grid.size)
            for a, n_prev in enumerate(n_ext.tolist()):
                for b, n_last in enumerate(n_grid.tolist()):
                    want = mc_terms_exact(n_prev, n_last, sig_p, n_w, sub)
                    assert tuple(map(type, want)) == (float, float)
                    assert (tb[a, b].hex(), tc[a, b].hex()) == tuple(
                        v.hex() for v in want
                    ), (n_prev, n_last)
                    if n_last >= n_prev:
                        # the scalar call keeps its former bits
                        old = _scalar_mc_terms(n_prev, n_last, sig_p, n_w, sub)
                        assert want == old

    @pytest.mark.parametrize("c,p", [(0.0, 1.0), (0.7, 1.5), (0.3, 2.0)])
    def test_undefined_entries_are_inf(self, c, p):
        # a zero N_{L-1}, an empty last level and a shrinking one are all
        # +inf, without a warning (warnings are errors here)
        sub = SubGammaParams(c=c, p=p)
        sig_p = np.sort(substream(31, 8).gamma(2.0, 5.0, 12) ** p)[::-1]
        n_prev = np.array([0, 0, 5, 5, 5, 40])[:, None]
        n_last = np.array([0, 7, 40])[None, :]
        tb, tc = mc_terms_exact(n_prev, n_last, sig_p, 3, sub)
        undefined = (n_prev == 0) | (n_last <= n_prev)
        assert not np.isnan(tb).any() and not np.isnan(tc).any()
        assert np.all(tb[undefined] == math.inf) and np.all(tc[undefined] == math.inf)
        assert np.isfinite(tb[~undefined]).all() and np.isfinite(tc[~undefined]).all()
        for a, b in zip(*np.nonzero(undefined)):
            pair = (int(n_prev[a, 0]), int(n_last[0, b]))
            terms = mc_terms_exact(*pair, sig_p, 3, sub)
            assert terms == (math.inf, math.inf)
            assert tuple(map(type, terms)) == (float, float)

    def test_no_defined_entry(self):
        sub = SubGammaParams()
        tb, tc = mc_terms_exact(np.array([0, 9]), np.array([4, 9]), np.ones(4), 2, sub)
        assert tb.tolist() == tc.tolist() == [math.inf, math.inf]

    def test_huge_scale_constant_gives_inf_terms(self):
        # c**p with float ** raised a bare OverflowError above about 1.3e154
        # at p = 2; the moment sum is inf there, without a warning
        terms = mc_terms_exact(10, 20, np.ones(5), 2, SubGammaParams(c=1e200, p=2.0))
        assert terms == (math.inf, math.inf)


class TestFRobust:
    def _rb(self, theta, q_values, slack=1.0):
        delta0 = 5.0
        n_w = 3
        lo = {q: (q + 1 - n_w) * delta0 for q in q_values}
        hi = {q: (theta.n_s - 1) * delta0 * slack for q in q_values}
        sig2 = 2 * 36.0 * (1 - 0.4)
        return RobustBounds(delta_lo=lo, delta_hi=hi, sigma_bar=math.sqrt(sig2))

    def test_degenerate_interval_matches_point_kernel(self):
        sub = SubGammaParams(c=0.0, p=1.0)
        rb = RobustBounds(delta_lo={3: 30.0}, delta_hi={3: 30.0}, sigma_bar=40.0)
        s = Strategy(q=(20, 3), n=(0, 2, 200))
        val = F_p(s, rb, sub)
        kern = 30.0 * math.exp(-2 * 30.0**2 / (2 * 40.0**2))
        manual = (20 - 3) * kern
        assert manual > 100.0  # the selection part genuinely contributes
        # remove the MC terms to isolate the selection part: with p = 1 and
        # c = 0 the moment term is m(n) = C_sig sbar / sqrt(n), and the
        # uniform bound gives (dN/N_L) m(dN) + (N_{L-1}/N_L)(n_s/n_w) m(N_{L-1})
        c_sig, _ = gamma_constants(1.0)

        def m(n):
            return c_sig * 40.0 / math.sqrt(n)

        _, sig_p = level_terms(rb, sub, 3, 20, (20, 3), (2,), selection_term)
        tb, tc = mc_terms_exact(2, 200, sig_p, 3, sub)
        assert tb == pytest.approx(198 / 200 * m(198), rel=1e-12)
        assert tc == pytest.approx(2 / 200 * (20 / 3) * m(2), rel=1e-12)
        assert val - tb - tc == pytest.approx(manual, rel=1e-9)

    def test_stationary_point_c0(self):
        # c = 0: interior max at sigma*sqrt(p/N) when inside the bracket
        sub = SubGammaParams(c=0.0, p=2.0)
        n, sbar = 80, 5.0
        star = sbar * math.sqrt(sub.p / n)
        got = robust_gap_max(n, star / 10, star * 10, sbar, sub)
        want = star * math.exp(-n * star**2 / (2 * sub.p * sbar**2))
        assert got == pytest.approx(want, rel=1e-12)
        # clamps to the interval when the stationary point is outside
        got_lo = robust_gap_max(n, star * 2, star * 3, sbar, sub)
        want_lo = star * 2 * math.exp(-n * (star * 2) ** 2 / (2 * sub.p * sbar**2))
        assert got_lo == pytest.approx(want_lo, rel=1e-12)

    def test_stationary_point_with_scale_constant(self):
        # the bisected stationary point must beat a dense scan up to scan error
        sub = SubGammaParams(c=2.0, p=1.0)
        n, sbar = 37, 3.0
        got = robust_gap_max(n, 1e-6, 50.0, sbar, sub)
        deltas = np.linspace(1e-6, 50.0, 400_001)
        scan = np.max(
            deltas
            * np.exp(-n * deltas**2 / (2 * sub.p * (sbar**2 + sub.c * deltas)))
        )
        assert got >= scan - 1e-12
        assert got == pytest.approx(scan, rel=1e-6)

    def test_bisection_matches_brentq(self):
        # the root finder robust_gap_max used before, kept as an oracle:
        # brentq on the cubic over the bracket the bisection starts from
        from scipy.optimize import brentq

        grid = itertools.product(
            np.geomspace(1.0, 1e7, 6),
            np.geomspace(1e-3, 2.2e6, 4),
            np.geomspace(1e-4, 1e3, 4),
            (1.0, 1.5, 2.0, 3.0),
        )
        for n, sbar, c, p in grid:
            n, sbar, c, sub = float(n), float(sbar), float(c), SubGammaParams(c=c, p=p)

            def h(d):
                s2 = sbar**2 + c * d
                return 2.0 * p * s2 * s2 - n * d * d * (2.0 * sbar**2 + c * d)

            d_hi = max(4.0 * (sbar * math.sqrt(p / n) + 2.0 * p * c / n), 1e-12)
            while h(d_hi) > 0:
                d_hi *= 4.0
            want = brentq(h, 1e-300, d_hi, xtol=1e-300, rtol=8.9e-16)
            got = _stationary_point(n, sbar, sub)
            assert abs(got - want) <= 4 * math.ulp(want), (n, sbar, c, p)
            peak = want * float(_kernel_exp(n, want, sbar**2, c, p))
            val = robust_gap_max(n, 0.0, 4.0 * want, sbar, sub)
            assert val == pytest.approx(peak, rel=1e-15, abs=0.0), (n, sbar, c, p)

    def test_huge_sigma_bar_is_no_bare_error(self):
        # sigma_bar**2 raised a bare OverflowError above about 1.3e154; the
        # product is inf there, and the kernel of an infinite variance is 1
        for c in (0.0, 1.0):
            sub = SubGammaParams(c=c)
            assert robust_gap_max(100, 1.0, 2.0, 1e200, sub) == 2.0
            assert robust_gap_max(100, 0.0, 2.0, 1e200, sub) == 2.0
        for bad in (math.inf, math.nan, -1.0):
            with pytest.raises(InvalidParameterError, match="sigma_bar"):
                RobustBounds(delta_lo={}, delta_hi={}, sigma_bar=bad)

    @pytest.mark.parametrize("sbar", [1e78, 1e100])
    def test_huge_sigma_bar_stationary_point_matches_the_scan(self, sbar):
        # sbar^4 overflowed the cubic above about 1e77 and the bisection
        # walked below the maximum: 9.48e74 where the scan reads 6.07e76 at
        # 1e78, 1.93e78 against 6.07e98 at 1e100
        sub = SubGammaParams(c=1.0, p=1.0)
        got = robust_gap_max(100, 0.0, sbar, sbar, sub)
        deltas = np.linspace(0.0, sbar, 200_001)
        scan = np.max(deltas * _kernel_exp(100, deltas, sbar * sbar, sub.c, sub.p))
        assert got >= scan * (1 - 1e-12)
        assert got == pytest.approx(scan, rel=1e-6)

    def test_tiny_sigma_bar_stationary_point_is_2pc_over_n(self):
        # at sbar^2 << c d the root of the cubic is 2 p c / N
        got = _stationary_point(100.0, 1e-300, SubGammaParams(c=1.0, p=1.5))
        assert got == pytest.approx(0.03, rel=1e-12)

    def test_widening_never_decreases(self):
        sub = SubGammaParams(c=0.5, p=1.0)
        vals = [
            robust_gap_max(60, 10.0 - w, 20.0 + w, 4.0, sub) for w in (0.0, 2.0, 5.0)
        ]
        assert vals[0] <= vals[1] <= vals[2]

    def test_dominates_exact_bound_when_brackets_hold(self):
        theta = _theta()
        sub = SubGammaParams(c=0.0, p=1.0)
        s = Strategy(q=(20, 8, 3), n=(0, 50, 90, 200))
        rb = self._rb(theta, q_values=[8, 3])
        assert F_p(s, rb, sub) >= F_p(s, theta, sub)


class TestAdaptiveBound:
    def _state(self, q_prev=10, q_next=4, n_w=3, n_prev=20, dn=10, seed=0):
        rng = substream(17, seed)
        mu_hat = rng.normal(size=q_prev)
        return AdaptiveState(
            mu_hat_prev=mu_hat, n_prev=n_prev, delta_n=dn, q_next=q_next, n_w=n_w
        )

    def _draw(self, q_prev=10, seed=1):
        rng = substream(18, seed)
        mu = rng.normal(size=q_prev) * 5
        a = rng.standard_normal((q_prev, q_prev))
        sigma = a @ a.T + q_prev * np.eye(q_prev)
        return mu, sigma

    def test_first_level_reduces_to_plain_kernel(self):
        q_prev, q_next, n_w, dn = 8, 3, 2, 12
        mu, sigma = self._draw(q_prev)
        state = AdaptiveState(
            mu_hat_prev=np.zeros(q_prev),
            n_prev=0,
            delta_n=dn,
            q_next=q_next,
            n_w=n_w,
        )
        sub = SubGammaParams(c=0.4, p=1.0)
        got = f_p_ad(mu, sigma, state, sub)
        order = np.argsort(-mu, kind="stable")
        best, tail = order[:n_w], order[q_next:]
        vals = []
        for i in best:
            for k in tail:
                g = mu[i] - mu[k]
                v = sigma[i, i] + sigma[k, k] - 2 * sigma[i, k]
                if g >= 0:
                    vals.append(
                        abs(g) ** sub.p
                        * math.exp(-dn * g * g / (2 * (v + sub.c * g)))
                    )
                else:
                    vals.append(abs(g) ** sub.p)
        assert got == pytest.approx((q_prev - q_next) * max(vals), rel=1e-12)

    def test_inverted_margin_gets_full_weight(self):
        # strongly inverted running estimates put rho < 0 for every pair,
        # so the bound is dq times the largest gap^p
        q_prev, q_next, n_w = 6, 3, 2
        mu = np.array([10.0, 8.0, 6.0, 4.0, 2.0, 0.0])
        sigma = np.eye(q_prev)
        state = AdaptiveState(
            mu_hat_prev=-(10**9) * mu,
            n_prev=100,
            delta_n=1,
            q_next=q_next,
            n_w=n_w,
        )
        got = f_p_ad(mu, sigma, state, SubGammaParams(c=0.0, p=2.0))
        assert got == pytest.approx((q_prev - q_next) * 10.0**2, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_transcription_oracle(self, seed):
        q_prev, q_next, n_w = 10, 5, 3
        mu, sigma = self._draw(q_prev, seed=seed)
        state = self._state(q_prev, q_next, n_w, n_prev=30, dn=7, seed=seed)
        sub = SubGammaParams(c=1.3, p=1.0)
        got = f_p_ad(mu, sigma, state, sub)
        order = sorted(range(q_prev), key=lambda j: (-mu[j], j))
        best, tail = order[:n_w], order[q_next:]
        vals = []
        for i in best:
            for k in tail:
                g = mu[i] - mu[k]
                rho = g + state.n_prev / state.delta_n * (
                    state.mu_hat_prev[i] - state.mu_hat_prev[k]
                )
                v = sigma[i, i] + sigma[k, k] - 2 * sigma[i, k]
                if rho >= 0:
                    kern = math.exp(
                        -state.delta_n * rho * rho / (2 * (v + sub.c * rho))
                    )
                else:
                    kern = 1.0
                vals.append(abs(g) ** sub.p * kern)
        want = (q_prev - q_next) * max(vals)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_delta_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveState(
                mu_hat_prev=np.zeros(5), n_prev=3, delta_n=0, q_next=2, n_w=1
            )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_prev", [0, 37])
    @pytest.mark.parametrize(
        "sub", [SubGammaParams(c=0.0, p=1.0), SubGammaParams(c=0.7, p=2.0)]
    )
    @pytest.mark.parametrize("q_next, n_w", [(5, 3), (3, 3)])
    def test_increment_array_equals_scalar_calls(self, seed, n_prev, sub, q_next, n_w):
        # one pass over an array of increments gives, entry by entry, the
        # exact float of the scalar call at that increment
        q_prev = 9
        mu, sigma = self._draw(q_prev, seed=seed)
        dns = np.array([1, 2, 7, 7, 40, 333, 5000])
        base = self._state(q_prev, q_next, n_w, n_prev=n_prev, dn=1, seed=seed)
        got = f_p_ad(mu, sigma, replace(base, delta_n=dns), sub, rank_by=-mu[::-1])
        want = [
            f_p_ad(mu, sigma, replace(base, delta_n=int(dn)), sub, rank_by=-mu[::-1])
            for dn in dns
        ]
        assert isinstance(want[0], float)
        assert got.shape == dns.shape
        assert got.tolist() == want

    def test_increment_array_below_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            self._state(6, 3, 2, dn=np.array([4, 0, 9]))
