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


def _trusted_niw(m, k, i, s, index_map) -> NIWParams:
    """NIWParams from already-valid fields, without the constructor's checks."""
    p = object.__new__(NIWParams)
    p.__dict__.update(m=m, k=k, i=i, s=s, index_map=index_map)
    return p


def restrict_niw(p: NIWParams, keep_ids: np.ndarray) -> NIWParams:
    """Marginal NIW over a subset of the tracked scenarios; a principal
    sub-NIW of a valid NIW is valid, so it is built unchecked."""
    return niw_update_diag_stats(p, None, None, 0, keep_ids)


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
    diagonal is zero get zero correlation.  The result skips the NIWParams
    checks (``S`` is symmetric by construction); a batch that makes ``m`` or
    ``S`` non-finite raises InvalidParameterError.  The masked
    :func:`correlation` runs only when a prior diagonal entry is zero.
    ``delta_n = 0`` only restricts.  A leading world axis on the batch and
    ``keep_ids`` updates per world.
    """
    pos = _positions(p, keep_ids)
    s_r = p.s[pos[..., :, None], pos[..., None, :]]
    r = _trusted_niw(p.m[pos], p.k, p.i, s_r, p.index_map[pos])
    if delta_n == 0:
        return r
    delta_mean = np.asarray(delta_mean, dtype=np.float64)
    scatter_diag = np.asarray(scatter_diag, dtype=np.float64)
    shape = pos.shape[:-1] + p.m.shape
    if delta_n < 0 or delta_mean.shape != shape or scatter_diag.shape != shape:
        raise InvalidParameterError("NIW batch: delta_n < 0 or stats not shaped like m")
    dm = np.take_along_axis(delta_mean, pos, -1)
    sd = np.take_along_axis(scatter_diag, pos, -1)
    k_new = p.k + delta_n
    gap = r.m - dm
    d = np.diagonal(s_r, axis1=-2, axis2=-1)
    diag_new = d + sd + (p.k * delta_n / k_new) * gap * gap
    denom = np.sqrt(d[..., :, None] * d[..., None, :])
    corr = s_r / denom if (denom > 0).all() else correlation(s_r)
    s_new = corr * np.sqrt(diag_new[..., :, None] * diag_new[..., None, :])
    s_new[..., range(pos.shape[-1]), range(pos.shape[-1])] = diag_new
    m_new = (p.k * r.m + delta_n * dm) / k_new
    s_new = (s_new + np.swapaxes(s_new, -1, -2)) / 2.0
    if not (np.isfinite(m_new).all() and np.isfinite(s_new).all()):
        raise InvalidParameterError("NIW update made m or S non-finite")
    return _trusted_niw(m_new, k_new, p.i + delta_n, s_new, r.index_map)
