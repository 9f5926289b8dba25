"""Normal-inverse-Wishart filtering of Gaussian pricing batches.

The posterior over (mean vector, covariance) of the pricing noise stays in
the NIW family under batch updates; the update may simultaneously restrict
the tracked coordinates to a survivor subset.  The update consumes the
batch's variance diagonal only: the scale-matrix diagonal follows the exact
conjugate update and off-diagonal entries are rebuilt by holding the
correlations fixed.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParameterError
from ..model import NIWParams, correlation

__all__ = [
    "restrict_niw",
    "niw_update_diag_stats",
]


def _positions(p: NIWParams, keep_ids: np.ndarray) -> np.ndarray:
    # index_map is kept ascending by construction (survivor sets are sorted)
    keep_ids = np.asarray(keep_ids, dtype=np.intp)
    pos = np.searchsorted(p.index_map, keep_ids)
    pos = np.minimum(pos, p.index_map.size - 1)
    if np.any(p.index_map[pos] != keep_ids):
        raise InvalidParameterError(
            "keep_ids must be a subset of the posterior's index_map"
        )
    return pos


def restrict_niw(p: NIWParams, keep_ids: np.ndarray) -> NIWParams:
    """Marginal NIW over a subset of the tracked scenarios."""
    pos = _positions(p, keep_ids)
    return NIWParams(
        m=p.m[pos],
        k=p.k,
        i=p.i,
        s=p.s[np.ix_(pos, pos)],
        index_map=p.index_map[pos],
    )


def niw_update_diag_stats(
    p: NIWParams,
    delta_mean: np.ndarray,
    scatter_diag: np.ndarray,
    delta_n: int,
    keep_ids: np.ndarray,
) -> NIWParams:
    """Diagonal conjugate update; prior correlations carry over unchanged.

    The scale-matrix diagonal follows the exact update; off-diagonal entries
    are rebuilt as prior_corr_ij * sqrt(S_ii S_jj).  Coordinates whose prior
    diagonal is zero get zero correlation.
    """
    pos = _positions(p, keep_ids)
    if delta_n == 0:
        return restrict_niw(p, keep_ids)
    delta_mean = np.asarray(delta_mean, dtype=np.float64)
    scatter_diag = np.asarray(scatter_diag, dtype=np.float64)
    dm = delta_mean[pos]
    sd = scatter_diag[pos]
    m_r = p.m[pos]
    s_r = p.s[np.ix_(pos, pos)]
    k_new = p.k + delta_n
    gap = m_r - dm
    diag_new = np.diag(s_r) + sd + (p.k * delta_n / k_new) * gap * gap
    s_new = correlation(s_r) * np.sqrt(np.outer(diag_new, diag_new))
    np.fill_diagonal(s_new, diag_new)
    m_new = (p.k * m_r + delta_n * dm) / k_new
    return NIWParams(
        m=m_new,
        k=k_new,
        i=p.i + delta_n,
        s=(s_new + s_new.T) / 2.0,
        index_map=p.index_map[pos],
    )
