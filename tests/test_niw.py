"""Conjugate NIW updates: closure, restriction and the diagonal variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esscreen.adaptive.niw import niw_update_diag_stats, restrict_niw
from esscreen.errors import InvalidParameterError
from esscreen.model import NIWParams, correlation, sample_niw
from esscreen.streams import substream


def niw_update_stats(p, delta_mean, scatter, delta_n, keep_ids):
    """Full-matrix conjugate update from batch sufficient statistics, the
    oracle of the diagonal update.

    ``delta_mean``/``scatter`` are the fresh-batch column means and centered
    scatter over the *current* coordinates; both are restricted to
    ``keep_ids`` before the update, matching an update computed directly on
    the restricted batch.
    """
    restricted = restrict_niw(p, keep_ids)
    if delta_n == 0:
        return restricted
    pos = np.searchsorted(p.index_map, restricted.index_map)
    dm = np.asarray(delta_mean, dtype=np.float64)[pos]
    sc = np.asarray(scatter, dtype=np.float64)[np.ix_(pos, pos)]
    k_new = p.k + delta_n
    gap = restricted.m - dm
    s_new = restricted.s + sc + (p.k * delta_n / k_new) * np.outer(gap, gap)
    return NIWParams(
        m=(p.k * restricted.m + delta_n * dm) / k_new,
        k=k_new,
        i=p.i + delta_n,
        s=(s_new + s_new.T) / 2.0,
        index_map=restricted.index_map,
    )


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


def masked_diag_update(p, delta_mean, scatter_diag, delta_n, keep_ids):
    """``(m, S)`` of the diagonal update written with the masked
    :func:`correlation` and ``np.outer`` for every prior."""
    pos = np.searchsorted(p.index_map, keep_ids)
    dm, sd, m_r = delta_mean[pos], scatter_diag[pos], p.m[pos]
    s_r = p.s[np.ix_(pos, pos)]
    k_new = p.k + delta_n
    gap = m_r - dm
    diag_new = np.diag(s_r) + sd + (p.k * delta_n / k_new) * gap * gap
    s_new = correlation(s_r) * np.sqrt(np.outer(diag_new, diag_new))
    np.fill_diagonal(s_new, diag_new)
    m_new = (p.k * m_r + delta_n * dm) / k_new
    return m_new, (s_new + s_new.T) / 2.0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("zeros", [(), (2,), (0, 5)])
def test_diag_update_is_bitwise_the_masked_correlation_formula(seed, zeros):
    # scales spread over many decades; a zero prior diagonal entry (its
    # row and column zero) sends the update through the masked branch
    rng = substream(33, seed)
    d = 7
    a = rng.standard_normal((d, d))
    scale = np.logspace(-6, 6, d)[rng.permutation(d)]
    s = scale[:, None] * (a @ a.T + np.eye(d)) * scale
    s[list(zeros), :] = 0.0
    s[:, list(zeros)] = 0.0
    p = NIWParams(
        m=rng.normal(size=d) * scale,
        k=float(rng.uniform(0.5, 30.0)),
        i=float(d + 2 + rng.uniform(0.5, 20.0)),
        s=s,
        index_map=np.arange(10, 10 + d),
    )
    mean = rng.normal(size=d) * scale
    sd = rng.uniform(0.0, 5.0, size=d) * scale**2
    for keep in (p.index_map, p.index_map[[0, 2, 3, 5, 6]]):
        out = niw_update_diag_stats(p, mean, sd, 17, keep)
        m_want, s_want = masked_diag_update(p, mean, sd, 17, keep)
        assert out.m.tobytes() == m_want.tobytes()
        assert out.s.tobytes() == s_want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_stacked_update_is_each_worlds_update(seed):
    # one prior, a world axis on the batch and the kept ids: each world's
    # posterior has the bits of its own update, also when some worlds keep
    # the coordinate whose prior diagonal is zero (the masked branch) and
    # others do not
    rng = substream(34, seed)
    d, worlds, keep = 8, 5, 5
    a = rng.standard_normal((d, d))
    s = a @ a.T + np.eye(d)
    s[3, :] = s[:, 3] = 0.0
    p = NIWParams(
        m=rng.normal(size=d),
        k=float(rng.uniform(0.5, 30.0)),
        i=float(d + 2 + rng.uniform(0.5, 20.0)),
        s=s,
        index_map=np.arange(20, 20 + d),
    )
    pos = np.sort([rng.permutation(d)[:keep] for _ in range(worlds)], axis=-1)
    pos[:2] = [0, 1, 2, 4, 5], [1, 3, 4, 6, 7]  # without and with coordinate 3
    mean = rng.normal(size=(worlds, d))
    sd = rng.uniform(0.0, 5.0, size=(worlds, d))
    ids = p.index_map[pos]
    for dn in (0, 9):
        got = niw_update_diag_stats(p, mean, sd, dn, ids)
        for w in range(worlds):
            want = niw_update_diag_stats(p, mean[w], sd[w], dn, ids[w])
            assert got.m[w].tobytes() == want.m.tobytes()
            assert got.s[w].tobytes() == want.s.tobytes()
            np.testing.assert_array_equal(got.index_map[w], want.index_map)
            assert (got.k, got.i) == (want.k, want.i)
    np.testing.assert_array_equal(restrict_niw(p, ids).s[1], restrict_niw(p, ids[1]).s)
    with pytest.raises(InvalidParameterError, match="subset"):
        niw_update_diag_stats(p, mean, sd, 9, ids - 20)


def test_stacked_correlation_is_each_worlds_correlation():
    rng = substream(35, 0)
    a = rng.standard_normal((4, 6, 6))
    s = a @ np.swapaxes(a, -1, -2)
    s[2, 1, :] = s[2, :, 1] = 0.0
    got = correlation(s)
    for w in range(4):
        assert got[w].tobytes() == correlation(s[w]).tobytes()


class TestTrustedConstruction:
    """Restriction and the diagonal update skip the NIWParams checks but
    return exactly what the validated constructor would."""

    def _no_validation(self, monkeypatch):
        def fail(self):
            raise AssertionError("NIWParams validation ran")

        monkeypatch.setattr(NIWParams, "__post_init__", fail)

    def _assert_as_validated(self, out):
        fields = ("m", "k", "i", "s", "index_map")
        want = NIWParams(**{f: getattr(out, f) for f in fields})
        for f in fields:
            got, ref = getattr(out, f), getattr(want, f)
            assert type(got) is type(ref)
            if isinstance(ref, np.ndarray):
                assert got.dtype == ref.dtype
                np.testing.assert_array_equal(got, ref, strict=True)
            else:
                assert got == ref

    def test_restrict_and_update_match_validated_construction(self, monkeypatch):
        rng = substream(32, 4)
        p = random_niw(rng, 6, ids=[1, 3, 4, 7, 8, 11])
        batch = rng.normal(size=(5, 6))
        mean = batch.mean(axis=0)
        sd = np.sum((batch - mean) ** 2, axis=0)
        keep = np.array([3, 7, 11])
        self._no_validation(monkeypatch)
        restricted = restrict_niw(p, keep)
        updated = niw_update_diag_stats(p, mean, sd, 5, keep)
        monkeypatch.undo()
        pos = np.array([1, 3, 5])
        np.testing.assert_array_equal(restricted.m, p.m[pos])
        np.testing.assert_array_equal(restricted.s, p.s[np.ix_(pos, pos)])
        for out in (restricted, updated):
            np.testing.assert_array_equal(out.index_map, keep)
            self._assert_as_validated(out)

    @pytest.mark.parametrize("bad", ["delta_mean", "scatter_diag"])
    def test_non_finite_batch_rejected(self, bad):
        rng = substream(32, 5)
        p = random_niw(rng, 3)
        stats = {"delta_mean": rng.normal(size=3), "scatter_diag": np.ones(3)}
        stats[bad][1] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            niw_update_diag_stats(p, **stats, delta_n=4, keep_ids=p.index_map)

    @pytest.mark.parametrize(
        "delta_n, size", [(-1, 3), (4, 2), (4, 4)]
    )
    def test_malformed_batch_rejected(self, delta_n, size):
        p = random_niw(substream(32, 6), 3)
        with pytest.raises(InvalidParameterError, match="NIW batch"):
            niw_update_diag_stats(
                p, np.zeros(size), np.ones(size), delta_n, p.index_map
            )


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
