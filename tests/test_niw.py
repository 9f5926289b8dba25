"""Conjugate NIW updates: closure, restriction and the diagonal variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esscreen.adaptive.niw import (
    niw_update_diag_stats,
    niw_update_stats,
    restrict_niw,
)
from esscreen.errors import InvalidParameterError
from esscreen.model import NIWParams, sample_niw
from esscreen.streams import substream


def niw_update(p, batch, keep_ids):
    """Full-matrix update from raw price rows whose columns are already
    restricted to ``keep_ids`` (ascending)."""
    keep_ids = np.asarray(keep_ids, dtype=np.intp)
    batch = np.asarray(batch, dtype=np.float64)
    restricted = restrict_niw(p, keep_ids)
    if batch.shape[0] == 0:
        return restricted
    mean = batch.mean(axis=0)
    centered = batch - mean
    return niw_update_stats(
        restricted, mean, centered.T @ centered, batch.shape[0], keep_ids
    )


def niw_update_diag(p, batch, keep_ids):
    """Diagonal-only variant of :func:`niw_update`."""
    keep_ids = np.asarray(keep_ids, dtype=np.intp)
    batch = np.asarray(batch, dtype=np.float64)
    restricted = restrict_niw(p, keep_ids)
    if batch.shape[0] == 0:
        return restricted
    mean = batch.mean(axis=0)
    centered = batch - mean
    scatter_diag = np.sum(centered * centered, axis=0)
    return niw_update_diag_stats(
        restricted, mean, scatter_diag, batch.shape[0], keep_ids
    )


def random_niw(rng, d, ids=None):
    a = rng.standard_normal((d, d))
    s = a @ a.T + d * np.eye(d)
    return NIWParams(
        m=rng.normal(size=d),
        k=float(rng.uniform(0.5, 10.0)),
        i=float(d + 2 + rng.uniform(0.5, 20.0)),
        s=s,
        index_map=np.arange(d) if ids is None else np.asarray(ids),
    )


class TestNiwUpdate:
    def test_empty_batch_identity_projection(self):
        rng = substream(31, 0)
        p = random_niw(rng, 4)
        out = niw_update(p, np.empty((0, 4)), p.index_map)
        np.testing.assert_array_equal(out.m, p.m)
        np.testing.assert_array_equal(out.s, p.s)
        assert out.k == p.k and out.i == p.i

    def test_single_observation_closed_form(self):
        p = NIWParams(
            m=np.array([0.0]), k=1.0, i=5.0, s=np.array([[3.0]]), index_map=[0]
        )
        out = niw_update(p, np.array([[2.0]]), np.array([0]))
        assert out.m[0] == pytest.approx(1.0)
        assert out.k == 2.0
        assert out.i == 6.0
        # scatter of one point is 0; the shrinkage term adds k dN/(k+dN) * gap^2
        assert out.s[0, 0] == pytest.approx(3.0 + 0.5 * 4.0)

    def test_counts_increase_by_batch_size(self):
        rng = substream(31, 1)
        p = random_niw(rng, 3)
        batch = rng.normal(size=(7, 3))
        out = niw_update(p, batch, p.index_map)
        assert out.k == p.k + 7 and out.i == p.i + 7

    @given(
        d=st.integers(1, 20),
        n1=st.integers(1, 12),
        n2=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequential_equals_batched(self, d, n1, n2, seed):
        rng = np.random.default_rng(seed)
        p = random_niw(rng, d)
        batch = rng.normal(size=(n1 + n2, d)) * 3.0
        seq = niw_update(niw_update(p, batch[:n1], p.index_map), batch[n1:], p.index_map)
        once = niw_update(p, batch, p.index_map)
        for a, b in [(seq.m, once.m), (seq.s, once.s), (seq.k, once.k), (seq.i, once.i)]:
            np.testing.assert_allclose(
                a, b, rtol=1e-9, atol=1e-9 * np.abs(np.asarray(b)).max()
            )

    def test_restriction_during_update(self):
        rng = substream(31, 2)
        p = random_niw(rng, 5)
        batch = rng.normal(size=(6, 5))
        keep = np.array([0, 2, 4])
        out = niw_update(p, batch[:, keep], keep)
        np.testing.assert_array_equal(out.index_map, keep)
        # restricting first then updating gives the same result
        alt = niw_update(restrict_niw(p, keep), batch[:, keep], keep)
        np.testing.assert_allclose(out.s, alt.s, rtol=1e-12)
        np.testing.assert_allclose(out.m, alt.m, rtol=1e-12)

    def test_foreign_ids_rejected(self):
        rng = substream(31, 3)
        p = random_niw(rng, 3, ids=[2, 5, 9])
        with pytest.raises(InvalidParameterError):
            restrict_niw(p, np.array([2, 4]))

    def test_stats_entry_point_matches_rows(self):
        rng = substream(31, 4)
        p = random_niw(rng, 4)
        batch = rng.normal(size=(9, 4))
        mean = batch.mean(axis=0)
        centered = batch - mean
        scatter = centered.T @ centered
        keep = np.array([1, 3])
        a = niw_update(p, batch[:, keep], keep)
        b = niw_update_stats(p, mean, scatter, 9, keep)
        np.testing.assert_allclose(a.s, b.s, rtol=1e-12)
        np.testing.assert_allclose(a.m, b.m, rtol=1e-12)


class TestNiwUpdateDiag:
    def test_diagonal_matches_full_update(self):
        rng = substream(32, 0)
        p = random_niw(rng, 5)
        batch = rng.normal(size=(8, 5))
        full = niw_update(p, batch, p.index_map)
        diag = niw_update_diag(p, batch, p.index_map)
        np.testing.assert_allclose(np.diag(diag.s), np.diag(full.s), rtol=1e-12)
        np.testing.assert_allclose(diag.m, full.m, rtol=1e-12)
        assert diag.k == full.k and diag.i == full.i

    def test_zero_prior_correlation_stays_zero(self):
        rng = substream(32, 1)
        p = NIWParams(
            m=np.zeros(3), k=2.0, i=8.0, s=np.diag([1.0, 2.0, 3.0]), index_map=range(3)
        )
        batch = rng.normal(size=(10, 3))
        out = niw_update_diag(p, batch, p.index_map)
        off = out.s[~np.eye(3, dtype=bool)]
        np.testing.assert_array_equal(off, 0.0)

    def test_offdiagonal_reconstruction_formula(self):
        rng = substream(32, 2)
        p = random_niw(rng, 5)
        batch = rng.normal(size=(12, 5))
        out = niw_update_diag(p, batch, p.index_map)
        corr = p.s / np.sqrt(np.outer(np.diag(p.s), np.diag(p.s)))
        want = corr * np.sqrt(np.outer(np.diag(out.s), np.diag(out.s)))
        np.testing.assert_allclose(
            out.s[~np.eye(5, dtype=bool)], want[~np.eye(5, dtype=bool)], rtol=1e-12
        )

    def test_stats_entry_point(self):
        rng = substream(32, 3)
        p = random_niw(rng, 4)
        batch = rng.normal(size=(6, 4))
        mean = batch.mean(axis=0)
        sd = np.sum((batch - mean) ** 2, axis=0)
        keep = np.array([0, 1, 3])
        a = niw_update_diag(p, batch[:, keep], keep)
        b = niw_update_diag_stats(p, mean, sd, 6, keep)
        np.testing.assert_allclose(a.s, b.s, rtol=1e-12)


def test_conjugacy_closure_concentrates_posterior():
    # a prior draw used as data tightens the posterior: pseudo-counts grow by
    # the batch size and the location moves toward the sample mean
    rng = substream(33, 0)
    prior = random_niw(np.random.default_rng(5), 4)
    theta = sample_niw(prior, rng)
    from esscreen.model import simulate_prices

    batch = simulate_prices(theta, 50, rng)
    post = niw_update(prior, batch, prior.index_map)
    assert post.k == prior.k + 50 and post.i == prior.i + 50
    assert np.linalg.norm(post.m - batch.mean(axis=0)) < np.linalg.norm(
        prior.m - batch.mean(axis=0)
    )


def test_posterior_scale_trace_contracts_statistically():
    # repeated updates from a fixed world shrink the posterior-mean
    # covariance trace expectation
    rng = substream(33, 1)
    prior = random_niw(np.random.default_rng(6), 3)
    theta = sample_niw(prior, rng)
    from esscreen.model import simulate_prices

    p = prior
    traces = [np.trace(p.sigma_mean())]
    for _ in range(5):
        batch = simulate_prices(theta, 200, rng)
        p = niw_update(p, batch, p.index_map)
        traces.append(np.trace(p.sigma_mean()))
    # after plenty of data the posterior mean cov approaches the truth, below
    # the diffuse prior's scale
    assert traces[-1] < traces[0] * 1.5
    assert abs(traces[-1] - np.trace(theta.sigma)) < 0.5 * np.trace(theta.sigma)
