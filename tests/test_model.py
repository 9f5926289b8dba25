"""Scenario model, prior sampling and price-path simulation."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from esscreen.errors import InvalidParameterError
from esscreen.model import (
    EquicorrelatedSpec,
    NIWParams,
    ScenarioParams,
    bartlett_factor,
    build_equicorrelated,
    psd_factor,
    sample_niw,
    simulate_prices,
    synthetic_book,
)
from esscreen.streams import substream


class TestSyntheticBook:
    def test_table_values(self):
        np.testing.assert_allclose(
            synthetic_book(3, 2766.0), [-2766.0, -5532.0, -8298.0]
        )

    def test_single_scenario(self):
        np.testing.assert_allclose(synthetic_book(1, 1.0), [-1.0])

    def test_rank_gap(self):
        mu = synthetic_book(253, 2766.0)
        # gap between ranks 6 and 100 (1-based) is 94 slopes
        assert mu[5] - mu[99] == 94 * 2766.0

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParameterError):
            synthetic_book(0, 1.0)
        with pytest.raises(InvalidParameterError):
            synthetic_book(3, 0.0)


class TestEquicorrelated:
    def test_off_diagonal_value(self):
        spec = EquicorrelatedSpec(sigma_scalar=2.2e6, rho=0.6)
        sigma = build_equicorrelated(spec, 4)
        assert sigma[0, 0] == pytest.approx(4.84e12)
        assert sigma[0, 1] == pytest.approx(2.904e12)

    def test_rho_zero_is_diagonal(self):
        sigma = build_equicorrelated(EquicorrelatedSpec(1.0, 0.0), 5)
        np.testing.assert_allclose(sigma, np.eye(5))

    def test_pair_variance_matches_table(self):
        # Var[P_i - P_k] = 2 sigma^2 (1 - rho); with rho = 0.6 this equals
        # the uniform bound (sqrt(2 * 0.4) * 2.2e6)^2.
        spec = EquicorrelatedSpec(2.2e6, 0.6)
        sigma = build_equicorrelated(spec, 3)
        v = sigma[0, 0] + sigma[1, 1] - 2 * sigma[0, 1]
        assert v == pytest.approx((np.sqrt(2 * 0.4) * 2.2e6) ** 2)

    def test_rho_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            EquicorrelatedSpec(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            EquicorrelatedSpec(1.0, -0.1)


def _small_niw(d=3, k=5.0, dof=None, scale=2.0, seed=0):
    dof = dof if dof is not None else d + 6
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    s = scale * (a @ a.T + d * np.eye(d))
    m = rng.standard_normal(d)
    return NIWParams(m=m, k=k, i=float(dof), s=s, index_map=np.arange(d))


class TestSampleNiw:
    def test_inverse_wishart_mean(self):
        # Mean of many draws must approach S / (i - d - 1).
        p = _small_niw(d=3, dof=12)
        rng = substream(7, 0)
        draws = np.zeros((3, 3))
        n = 20_000
        for _ in range(n):
            draws += sample_niw(p, rng).sigma
        mean = draws / n
        target = p.s / (p.i - 3 - 1)
        np.testing.assert_allclose(mean, target, rtol=0.05)

    def test_high_precision_pins_mean(self):
        p = _small_niw(d=2, k=1e12)
        rng = substream(7, 1)
        th = sample_niw(p, rng)
        np.testing.assert_allclose(th.mu, p.m, atol=1e-3)

    def test_prior_scale_convention(self):
        # With dof = 300 and scale = (300 - d - 1) * Sigma the covariance
        # draw is centered on Sigma itself.
        d = 6
        sigma = build_equicorrelated(EquicorrelatedSpec(2.0, 0.5), d)
        p = NIWParams(
            m=np.zeros(d),
            k=300.0,
            i=300.0,
            s=(300 - d - 1) * sigma,
            index_map=np.arange(d),
        )
        np.testing.assert_allclose(p.sigma_mean(), sigma)

    def test_zero_scale_matrix(self):
        p = NIWParams(
            m=np.array([1.0, -2.0]),
            k=4.0,
            i=10.0,
            s=np.zeros((2, 2)),
            index_map=np.arange(2),
        )
        th = sample_niw(p, substream(7, 2))
        np.testing.assert_allclose(th.sigma, 0.0)
        np.testing.assert_allclose(th.mu, p.m)

    def test_non_psd_scale_rejected(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        p = NIWParams(m=np.zeros(2), k=1.0, i=10.0, s=s, index_map=np.arange(2))
        with pytest.raises(InvalidParameterError):
            sample_niw(p, substream(7, 3))

    def test_reproducible(self):
        p = _small_niw()
        a = sample_niw(p, substream(11, 4))
        b = sample_niw(p, substream(11, 4))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)


class TestSimulatePrices:
    def test_empty_batch(self):
        theta = ScenarioParams.equicorrelated(
            synthetic_book(4, 1.0), EquicorrelatedSpec(1.0, 0.3)
        )
        assert simulate_prices(theta, 0, substream(1, 0)).shape == (0, 4)

    def test_reproducible(self):
        theta = ScenarioParams.equicorrelated(
            synthetic_book(6, 2.0), EquicorrelatedSpec(3.0, 0.5)
        )
        a = simulate_prices(theta, 100, substream(3, 1))
        b = simulate_prices(theta, 100, substream(3, 1))
        np.testing.assert_array_equal(a, b)

    def test_sample_covariance(self):
        # Off-diagonal of the sample covariance must sit within 3 standard
        # errors of rho * sigma^2 for the Table-size noise model.
        spec = EquicorrelatedSpec(2.2e6, 0.6)
        theta = ScenarioParams.equicorrelated(synthetic_book(5, 2766.0), spec)
        n = 1_000_000
        x = simulate_prices(theta, n, substream(5, 2))
        cov = np.cov(x, rowvar=False)
        s2 = 4.84e12
        target = 0.6 * s2
        se = np.sqrt((s2 * s2 + target * target) / n)
        off = cov[np.triu_indices(5, k=1)]
        # 4 standard errors: ten simultaneous comparisons share the budget
        assert np.all(np.abs(off - target) < 4 * se)

    def test_sample_mean(self):
        spec = EquicorrelatedSpec(2.0, 0.6)
        theta = ScenarioParams.equicorrelated(synthetic_book(5, 1.0), spec)
        n = 1_000_000
        x = simulate_prices(theta, n, substream(5, 3))
        np.testing.assert_allclose(
            x.mean(axis=0), theta.mu, atol=3 * 2.0 / np.sqrt(n) * 2
        )

    def test_one_factor_matches_full_factorization(self):
        # Kolmogorov-Smirnov at the 1% level on P_1 and on P_1 - P_2 between
        # the one-factor shortcut and the generic factorization path.
        spec = EquicorrelatedSpec(1.5, 0.6)
        mu = synthetic_book(4, 1.0)
        fast = ScenarioParams.equicorrelated(mu, spec)
        slow = ScenarioParams(mu=mu, sigma=build_equicorrelated(spec, 4))
        n = 100_000
        a = simulate_prices(fast, n, substream(9, 0))
        b = simulate_prices(slow, n, substream(9, 1))
        for sa, sb in [(a[:, 0], b[:, 0]), (a[:, 0] - a[:, 1], b[:, 0] - b[:, 1])]:
            assert stats.ks_2samp(sa, sb).pvalue > 0.01

    def test_zero_variance(self):
        mu = synthetic_book(3, 5.0)
        theta = ScenarioParams(mu=mu, sigma=np.zeros((3, 3)))
        x = simulate_prices(theta, 10, substream(2, 0))
        np.testing.assert_array_equal(x, np.tile(mu, (10, 1)))

    def test_non_psd_sigma_rejected(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        theta = ScenarioParams(mu=np.zeros(2), sigma=sigma)
        with pytest.raises(InvalidParameterError):
            simulate_prices(theta, 5, substream(2, 1))


def _niw(**kw):
    args = dict(m=np.zeros(2), k=1.0, i=4.0, s=np.eye(2), index_map=[0, 1])
    args.update(kw)
    return NIWParams(**args)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ScenarioParams(mu=[np.nan, 1.0], sigma=np.eye(2)), "mu"),
        (lambda: ScenarioParams(mu=[0.0, 1.0], sigma=np.diag([np.inf, 1.0])), "sigma"),
        (lambda: _niw(m=[np.nan, 0.0]), "m"),
        (lambda: _niw(i=np.inf), "i"),
        (lambda: _niw(k=np.inf), "k"),
        (lambda: _niw(s=np.diag([np.nan, 1.0])), "S"),
    ],
)
def test_non_finite_parameters_rejected(build, field):
    with pytest.raises(InvalidParameterError, match=rf"\b{field} must be finite"):
        build()


@pytest.mark.parametrize("equi", [False, True], ids=["general", "equi"])
def test_restrict_is_the_validated_sub_model_without_revalidation(equi, monkeypatch):
    rng = substream(2, 3)
    if equi:
        theta = ScenarioParams.equicorrelated(
            synthetic_book(9, 2.0), EquicorrelatedSpec(3.0, 0.4)
        )
    else:
        a = rng.standard_normal((9, 9))
        theta = ScenarioParams(mu=rng.standard_normal(9), sigma=a @ a.T)
    theta.factor()  # a cached full factor must not leak into the sub-model
    ids = np.array([0, 2, 3, 7])
    want = ScenarioParams(
        mu=theta.mu[ids], sigma=theta.sigma[np.ix_(ids, ids)], equi=theta.equi
    )

    def no_validation(self):
        raise AssertionError("restrict re-ran the constructor's checks")

    monkeypatch.setattr(ScenarioParams, "__post_init__", no_validation)
    sub = theta.restrict(ids)
    assert np.array_equal(sub.mu, want.mu) and np.array_equal(sub.sigma, want.sigma)
    assert sub.mu.dtype == sub.sigma.dtype == np.float64
    assert sub.equi == want.equi and sub.n_s == 4
    np.testing.assert_array_equal(sub.factor(), want.factor())
    draws = simulate_prices(sub, 5, substream(2, 4))
    assert np.array_equal(draws, simulate_prices(want, 5, substream(2, 4)))


def _replayed_bartlett(dof, d, rng):
    """Bartlett factor by the formula, ``d x m`` with ``m = d`` above ``d -
    1`` degrees of freedom and ``m = dof`` below: the normals strictly below
    the diagonal row by row, then the diagonal square roots of
    chi^2(dof - j)."""
    m = d if dof > d - 1 else int(dof)
    z = iter(rng.standard_normal(m * (2 * d - m - 1) // 2))
    a = np.zeros((d, m))
    for i in range(d):
        for j in range(min(i, m)):
            a[i, j] = next(z)
    for j, c in enumerate(rng.chisquare(dof - np.arange(m))):
        a[j, j] = np.sqrt(c)
    return a


def test_bartlett_factor_is_the_replayed_formula_bit_for_bit():
    # d x d above d - 1 degrees of freedom, d x dof (singular) at or below
    for dof, d in [(7.5, 4), (3.0, 1), (300.0, 6), (0, 3), (1, 4), (3, 4), (2.0, 5)]:
        got = bartlett_factor(dof, d, substream(3, 9))
        assert got.shape == (d, min(d, int(dof)))
        np.testing.assert_array_equal(got, _replayed_bartlett(dof, d, substream(3, 9)))


def test_singular_bartlett_factor_has_mean_dof_identity():
    # A A^T of a d x dof factor has mean dof I: each entry within 4 SE over
    # 4000 draws
    rng = substream(3, 10)
    for dof, d in [(1, 4), (2, 4), (3, 4)]:
        w = np.array([a @ a.T for a in (bartlett_factor(dof, d, rng) for _ in range(4000))])
        se = w.std(axis=0) / np.sqrt(4000)
        assert np.all(np.abs(w.mean(axis=0) - dof * np.eye(d)) < 4 * se), dof


@pytest.mark.parametrize("dof", [-1, -0.5, 1.5, 1.999, math.nan])
def test_bartlett_factor_rejects_a_dof_without_a_wishart(dof):
    # a singular Wishart (dof <= d - 1 = 2) needs an integer dof >= 0
    with pytest.raises(InvalidParameterError, match="dof"):
        bartlett_factor(dof, 3, substream(3, 9))


def test_sample_niw_is_the_replayed_formula_bit_for_bit():
    # one Bartlett draw inverted against the scale factor, then the location
    a = np.random.default_rng(1).standard_normal((5, 5))
    p = NIWParams(m=np.arange(5.0), k=2.0, i=9.0, s=a @ a.T, index_map=np.arange(5))
    got = sample_niw(p, substream(3, 10))
    rng = substream(3, 10)
    phi = solve_triangular(_replayed_bartlett(9.0, 5, rng), psd_factor(p.s).T, lower=True)
    sigma = phi.T @ phi
    sigma = (sigma + sigma.T) / 2.0
    mu = p.m + (phi.T @ rng.standard_normal(5)) / np.sqrt(2.0)
    np.testing.assert_array_equal(got.sigma, sigma)
    np.testing.assert_array_equal(got.mu, mu)


@pytest.mark.parametrize(
    "build",
    [
        lambda m: ScenarioParams(mu=np.zeros(2), sigma=m),
        lambda m: _niw(s=m),
    ],
    ids=["sigma", "S"],
)
def test_symmetry_is_checked_to_a_relative_tolerance(build):
    # an exactly symmetric matrix passes, so does one asymmetric within
    # 1e-8 relative; a clearly asymmetric one is rejected
    build(np.array([[2.0, 0.5], [0.5, 2.0]]))
    build(np.array([[2.0, 0.5], [0.5 * (1 + 5e-9), 2.0]]))
    with pytest.raises(InvalidParameterError, match="must be symmetric"):
        build(np.array([[2.0, 0.5], [0.5 * (1 + 1e-6), 2.0]]))
    with pytest.raises(InvalidParameterError, match="must be symmetric"):
        build(np.array([[2.0, 0.5], [0.6, 2.0]]))


def test_negative_substream_key_is_an_invalid_parameter():
    with pytest.raises(InvalidParameterError, match="key entries must be >= 0"):
        substream(0, 3, -1)
