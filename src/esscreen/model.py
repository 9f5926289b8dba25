"""Ground-truth scenario models, prior sampling, and correlated price paths.

The basic object is a Gaussian pricing model per historical scenario: scenario
``i`` has loss impact ``mu[i]`` and one simulated price path contributes one
draw of ``P_i ~ N(mu[i], sigma[i, i])``, with cross-scenario correlation given
by the covariance matrix.  Scenario indexes are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "ScenarioParams",
    "EquicorrelatedSpec",
    "NIWParams",
    "synthetic_book",
    "build_equicorrelated",
    "sample_niw",
    "bartlett_factor",
    "inverse_wishart_factor",
    "simulate_prices",
    "psd_factor",
    "pair_variance",
    "correlation",
]

#: Relative eigenvalue tolerance below which a symmetric matrix is rejected
#: as not positive semi-definite.
_PSD_RTOL = 1e-10


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """Reject a matrix that is not symmetric to ``rtol=1e-8``.

    An exactly symmetric matrix (the common case) passes on one elementwise
    comparison, without the float temporaries of the tolerance test.
    """
    if not (np.array_equal(m, m.T) or np.allclose(m, m.T, rtol=1e-8, atol=0.0)):
        raise InvalidParameterError(f"{name} must be symmetric")


def synthetic_book(n_s: int, delta0: float) -> np.ndarray:
    """Linearly decreasing loss-impact book ``mu[i] = -(i+1) * delta0``.

    The book is strictly decreasing with per-rank gap exactly ``delta0``, so
    the indifference-zone separation holds with equality at every rank.
    """
    if n_s < 1:
        raise InvalidParameterError(f"n_s must be >= 1, got {n_s}")
    if not delta0 > 0:
        raise InvalidParameterError(f"delta0 must be > 0, got {delta0}")
    return -delta0 * np.arange(1, n_s + 1, dtype=np.float64)


@dataclass(frozen=True)
class EquicorrelatedSpec:
    """Equicorrelated pricing noise: std ``sigma_scalar``, common correlation ``rho``."""

    sigma_scalar: float
    rho: float

    def __post_init__(self):
        if not (0.0 <= self.rho < 1.0):
            raise InvalidParameterError(f"rho must lie in [0, 1), got {self.rho}")
        if self.sigma_scalar < 0:
            raise InvalidParameterError("sigma_scalar must be >= 0")


def build_equicorrelated(spec: EquicorrelatedSpec, n_s: int) -> np.ndarray:
    """Covariance with ``sigma^2`` on the diagonal and ``rho * sigma^2`` off it."""
    s2 = float(spec.sigma_scalar) ** 2
    sigma = np.full((n_s, n_s), spec.rho * s2, dtype=np.float64)
    np.fill_diagonal(sigma, s2)
    return sigma


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor ``F`` with ``F @ F.T == sigma`` for a symmetric PSD matrix.

    Tries Cholesky first; falls back to an eigendecomposition so that
    semi-definite matrices (including the zero matrix) are accepted.  Raises
    on matrices with a meaningfully negative eigenvalue.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh((sigma + sigma.T) / 2.0)
    floor = -_PSD_RTOL * max(w[-1], 1.0) if w.size else 0.0
    if w.size and w[0] < floor:
        raise InvalidParameterError(
            f"covariance is not PSD (min eigenvalue {w[0]:.3e})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True)
class ScenarioParams:
    """Ground-truth mean vector and covariance of the scenario loss impacts.

    ``equi`` is set when the covariance is known to be equicorrelated, in
    which case price simulation uses the one-common-factor shortcut
    ``P_i = mu_i + sigma * (sqrt(rho) Z0 + sqrt(1-rho) Z_i)``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    equi: EquicorrelatedSpec | None = None
    _factor_cache: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        if mu.ndim != 1 or sigma.shape != (mu.size, mu.size):
            raise InvalidParameterError(
                f"shape mismatch: mu {mu.shape}, sigma {sigma.shape}"
            )
        if not np.isfinite(mu).all():
            raise InvalidParameterError("mu must be finite")
        if not np.isfinite(sigma).all():
            raise InvalidParameterError("sigma must be finite")
        _check_symmetric(sigma, "sigma")

    @classmethod
    def equicorrelated(
        cls, mu: np.ndarray, spec: EquicorrelatedSpec
    ) -> "ScenarioParams":
        mu = np.asarray(mu, dtype=np.float64)
        return cls(mu=mu, sigma=build_equicorrelated(spec, mu.size), equi=spec)

    @property
    def n_s(self) -> int:
        return self.mu.size

    def factor(self) -> np.ndarray:
        """Cached PSD factor of the covariance (one-time factorization)."""
        if not self._factor_cache:
            self._factor_cache.append(psd_factor(self.sigma))
        return self._factor_cache[0]

    def restrict(self, idx: np.ndarray) -> "ScenarioParams":
        """Parameters of the sub-model on scenario indexes ``idx``.

        A principal sub-model of validated parameters is valid, so it is
        built without re-running the constructor's checks.
        """
        idx = np.asarray(idx, dtype=np.intp)
        sub = object.__new__(ScenarioParams)
        object.__setattr__(sub, "mu", self.mu[idx])
        object.__setattr__(sub, "sigma", self.sigma[idx[:, None], idx])
        object.__setattr__(sub, "equi", self.equi)
        object.__setattr__(sub, "_factor_cache", [])
        return sub


def pair_variance(sigma: np.ndarray, i, k):
    """Variance of ``P_i - P_k``: ``sigma[i,i] + sigma[k,k] - 2 sigma[i,k]``."""
    sigma = np.asarray(sigma)
    return sigma[i, i] + sigma[k, k] - 2.0 * sigma[i, k]


def correlation(s: np.ndarray) -> np.ndarray:
    """Correlation matrix of a scale or covariance matrix.

    Unit diagonal; a row and column whose diagonal entry is zero get zero
    correlation off the diagonal.
    """
    diag = np.diag(s)
    denom = np.sqrt(np.outer(diag, diag))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, s / np.where(denom > 0, denom, 1.0), 0.0)
    np.fill_diagonal(corr, 1.0)
    return corr


@dataclass(frozen=True)
class NIWParams:
    """Normal-inverse-Wishart hyperparameters over a set of scenarios.

    ``m`` is the location vector, ``k`` the precision pseudo-count, ``i`` the
    degrees of freedom and ``s`` the scale matrix.  ``index_map`` lists the
    original scenario indexes these coordinates refer to, so posteriors can be
    restricted to survivor subsets without losing track of identities.
    """

    m: np.ndarray
    k: float
    i: float
    s: np.ndarray
    index_map: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        s = np.asarray(self.s, dtype=np.float64)
        imap = np.asarray(self.index_map, dtype=np.intp)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "index_map", imap)
        d = m.size
        if s.shape != (d, d) or imap.size != d:
            raise InvalidParameterError(
                f"NIW dims disagree: m {m.shape}, S {s.shape}, index_map {imap.shape}"
            )
        if not 0 < self.k < np.inf:
            raise InvalidParameterError(f"k must be finite and > 0, got {self.k}")
        if not d + 1 < self.i < np.inf:
            raise InvalidParameterError(
                f"degrees of freedom i must be finite and exceed dim+1 = {d + 1}, "
                f"got {self.i}"
            )
        if not np.isfinite(m).all():
            raise InvalidParameterError("m must be finite")
        if not np.isfinite(s).all():
            raise InvalidParameterError("S must be finite")
        _check_symmetric(s, "S")

    @property
    def dim(self) -> int:
        return self.m.size

    def sigma_mean(self) -> np.ndarray:
        """Posterior mean of the covariance, ``S / (i - dim - 1)``."""
        return self.s / (self.i - self.dim - 1)


def bartlett_factor(dof: float, d: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-trapezoidal Bartlett factor ``A`` (``d x m``) with ``A @ A.T ~
    Wishart(dof, I_d)``: ``m = d`` for ``dof > d - 1`` (Bartlett 1933), else
    the Wishart is singular and ``m = dof``, an integer (Srivastava, Ann.
    Statist. 31, 2003).  Draw order is fixed: the normals strictly below the
    diagonal (row-major), then the diagonal ``sqrt(chi^2(dof - j))``, j < m.
    """
    if not (dof > d - 1 or 0 <= dof == int(dof)):
        raise InvalidParameterError(f"dof {dof} is neither > d - 1 nor an integer >= 0")
    m = d if dof > d - 1 else int(dof)
    a = np.zeros((d, m))
    below = np.tri(d, m, -1, dtype=bool)
    a[below] = rng.standard_normal(np.count_nonzero(below))
    a.reshape(-1)[: m * m : m + 1] = np.sqrt(rng.chisquare(dof - np.arange(m)))
    return a


def inverse_wishart_factor(
    dof: float, s_factor: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Row factor ``phi`` with ``phi.T @ phi ~ inverse-Wishart(dof, S)``.

    ``s_factor`` is a square factor ``Ls`` of the scale matrix, ``Ls @ Ls.T
    == S``.  Draws the Bartlett factor ``A`` of a Wishart(dof, I) matrix
    (:func:`bartlett_factor`) and returns ``A^{-1} Ls^T``, so that
    ``phi.T @ phi = (Ls A^{-T}) (Ls A^{-T})^T``.  ``scipy.linalg`` is
    imported here, not at module level: it costs about 28 MB resident and
    only inverse-Wishart draws need it.
    """
    from scipy.linalg import solve_triangular

    a = bartlett_factor(dof, s_factor.shape[0], rng)
    return solve_triangular(a, s_factor.T, lower=True)


def sample_niw(p: NIWParams, rng: np.random.Generator) -> ScenarioParams:
    """One draw ``(mu~, Sigma~)`` from the Normal-inverse-Wishart prior.

    ``Sigma~`` is inverse-Wishart(i, S), sampled by inverting a Bartlett
    Wishart draw with scale ``S^{-1}``; ``mu~ | Sigma~`` is Gaussian(m,
    Sigma~/k).  Deterministic given the generator state.
    """
    phi = inverse_wishart_factor(p.i, psd_factor(p.s), rng)  # raises on non-PSD S
    sigma = phi.T @ phi
    sigma = (sigma + sigma.T) / 2.0
    z = rng.standard_normal(p.dim)
    mu = p.m + (phi.T @ z) / np.sqrt(p.k)
    return ScenarioParams(mu=mu, sigma=sigma)


def simulate_prices(
    theta: ScenarioParams, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` iid rows of Gaussian scenario prices under ``theta``.

    Equicorrelated models use the one-common-factor representation (O(1)
    additional work per scalar); anything else goes through the cached
    covariance factor.  Draw order is fixed (one ``standard_normal`` block of
    shape ``(count, width)``), so replay under a fixed substream is
    bit-identical.  Each row is ``mu + sigma * (sqrt(rho) z_0 + sqrt(1-rho) z)``
    or ``mu + z @ F.T``, built in place in the one output array, so the only
    full-size blocks a call holds are the normals and that array.  To draw a
    subset ``ids``, pass ``theta.restrict(ids)``: its principal
    sub-covariance is factored once; rows have ``len(ids)`` columns.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    n = theta.n_s
    if count == 0:
        return np.empty((0, n))
    if theta.equi is not None:
        spec = theta.equi
        z = rng.standard_normal((count, n + 1))
        x = np.multiply(z[:, 1:], np.sqrt(1.0 - spec.rho))
        x += np.sqrt(spec.rho) * z[:, :1]
        x *= spec.sigma_scalar
    else:
        f = theta.factor()
        z = rng.standard_normal((count, f.shape[1]))
        x = z @ f.T
    x += theta.mu
    return x
