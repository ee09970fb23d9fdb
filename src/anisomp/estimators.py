"""Statistical procedures built on the resolvent CLT.

* weak-spike strength estimation with confidence intervals (closed-form
  null Stieltjes transform),
* population-eigenvalue estimation with plug-in Stieltjes estimates,
* the four-step sphericity test (rescale, place E above the spectrum,
  bound the variance, compare the resolvent gap against the threshold).

Each reads its data as a ``matrix_models.SampleEnsemble``, the one source of
lambda_1, the plug-in Stieltjes estimates and the resolvent.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateData, OutsideDomain, ResolventDegenerate
from .matrix_models import (
    SampleEnsemble,
    _above_spectrum,
    _resolvent_parts,
    _row_kappa4,
    kappa4_hat,
    m2c_hat,
    m2c_hat_prime,
    resolvent_bilinear,
)
from .mp_law import as_unit_vector, null_mp_edges, null_mp_m2c, null_mp_m2c_prime
from .populations import PopulationModel

__all__ = [
    "EstimateWithInterval",
    "SphericityVerdict",
    "estimate_spike_strength",
    "estimate_population_eigenvalue",
    "sphericity_test",
    "alpha_from_omega",
    "confidence_from_alpha",
]

KAPPA_MODES = ("gaussian", "pooled", "per-row-max", "delocalized")


def alpha_from_omega(omega: float) -> float:
    """Quantile alpha with 2(1 - Phi(alpha)) = omega."""
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    return NormalDist().inv_cdf(1.0 - omega / 2.0)


def confidence_from_alpha(alpha: float) -> float:
    """2 Phi(alpha) - 1, the mass of the standard normal on [-alpha, alpha]."""
    return math.erf(alpha / math.sqrt(2.0))


@dataclass(frozen=True)
class EstimateWithInterval:
    """Point estimate with the CLT half-width delta_alpha / sqrt(N)."""

    point: float
    halfwidth: float
    alpha: float
    confidence: float
    E: float = math.nan
    m2c: float = math.nan
    m2c_prime: float = math.nan
    kappa_term: float = math.nan
    resolvent: float = math.nan
    method: str = ""

    def covers(self, sigma: float) -> bool:
        return abs(self.point - sigma) <= self.halfwidth

    def to_dict(self) -> dict:
        """Fields by name.  A non-finite number, such as a NaN default, is
        written as None, so the record is strict JSON."""
        return {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in asdict(self).items()
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


@dataclass(frozen=True)
class SphericityVerdict:
    """Outcome of the sphericity test with every intermediate quantity."""

    statistic: float
    threshold: float
    decision: str  # "accept" | "reject"
    gamma_sq: float
    rescale_sigma_sq: float
    E: float
    alpha: float
    omega: float
    m2c_hat: float
    m2c_prime_hat: float
    kappa4_max: float

    @property
    def reject(self) -> bool:
        return self.decision == "reject"

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _kappa_term(ens: SampleEnsemble, v: np.ndarray, mode: str) -> float:
    """(1/N) sum_{k,j} kappa4(k, j) v^4(k) under the chosen policy."""
    if mode not in KAPPA_MODES:
        raise ValueError(f"kappa mode must be one of {KAPPA_MODES}")
    if mode in ("gaussian", "delocalized"):
        # "delocalized" is the ||v||_inf = o(1) waiver: the weighted cumulant
        # sum is negligible
        return 0.0
    if mode == "pooled":
        v2 = np.square(np.asarray(v, dtype=float))
        prof = kappa4_hat(ens, "pooled")
        return float(prof.values) * float(np.sum(v2 * v2))
    prof = kappa4_hat(ens, "per-row")  # per-row-max
    return float(np.max(np.maximum(np.asarray(prof.values), 0.0)))


def estimate_spike_strength(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    *,
    alpha: float = 2.0,
    kappa_mode: str = "pooled",
    min_gap: float = 0.1,
) -> EstimateWithInterval:
    """Estimate the population eigenvalue along a known weak-spike direction.

    Inverts R_vv(E) ~ -E^{-1} / (1 + m(E) sigma) with the closed-form null
    Stieltjes transform; valid below the outlier threshold where the sample
    spectrum carries no trace of the spike.
    """
    v = as_unit_vector(v)
    d = ens.n / ens.N
    lam_plus, _ = null_mp_edges(d)
    if E <= lam_plus + min_gap:
        raise OutsideDomain(f"E = {E} too close to the bulk edge {lam_plus}")
    m, m_prime = null_mp_m2c(E, d), null_mp_m2c_prime(E, d)
    return _invert_resolvent(ens, v, E, m, m_prime, alpha, kappa_mode, "spike")


def estimate_population_eigenvalue(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    *,
    alpha: float = 2.0,
    kappa_mode: str = "gaussian",
    min_gap: float = 0.1,
) -> EstimateWithInterval:
    """Same inversion with the plug-in Stieltjes estimates, for general Sigma.

    lambda_1 and the plug-in estimates read the eigenvalues (one ``eigvalsh``),
    and R_vv(E) comes from one Cholesky factor, both from the draw's one Gram
    matrix: no ``eigh``."""
    v = as_unit_vector(v)
    if E <= ens.lambda_1 + min_gap:
        raise OutsideDomain(f"E = {E} not above lambda_1 + {min_gap} = {ens.lambda_1 + min_gap}")
    m, m_prime = m2c_hat(ens, E), m2c_hat_prime(ens, E)
    return _invert_resolvent(ens, v, E, m, m_prime, alpha, kappa_mode, "population")


def _invert_resolvent(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    m: complex,
    m_prime: complex,
    alpha: float,
    kappa_mode: str,
    method: str,
) -> EstimateWithInterval:
    """The estimate both estimators share: invert R_vv(E) ~ -E^{-1}/(1 + m sigma)
    for sigma, given m(E) and m'(E) from the estimator's Stieltjes source.
    E must lie above the sample spectrum; a Cholesky factor of E - Q1, which
    the resolvent reuses, shows that without reading lambda_1."""
    r = float(np.real(resolvent_bilinear(ens, v, v, E)))
    if abs(r) < 1e-12:
        raise ResolventDegenerate("R_vv(E) vanished; cannot invert")
    if not _above_spectrum(ens, E):
        raise OutsideDomain(f"E = {E} inside the sample spectrum")
    m = float(np.real(m))
    m_prime = float(np.real(m_prime))
    point = -(1.0 / m) * (1.0 / (E * r) + 1.0)
    kt = _kappa_term(ens, v, kappa_mode)
    delta = alpha * abs(point) * math.sqrt(kt + 2.0 * m_prime / m**2)
    return EstimateWithInterval(
        point=point,
        halfwidth=delta / math.sqrt(ens.N),
        alpha=alpha,
        confidence=confidence_from_alpha(alpha),
        E=E,
        m2c=m,
        m2c_prime=m_prime,
        kappa_term=kt,
        resolvent=r,
        method=method,
    )


def sphericity_test(
    raw_data: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    E_margin: float = 1.0,
    omega: float = 0.05,
) -> SphericityVerdict:
    """Four-step sphericity test on a raw n x N data matrix.

    1. rescale by sigma^2 = n^{-1} sum of squared entries;
    2. place E = lambda_1 + E_margin above the rescaled spectrum;
    3. bound the variance via plug-in Stieltjes estimates and the
       positive-part row-max fourth cumulant;
    4. reject when sqrt(N) |R_uu(E) - R_vv(E)| >= sqrt(2) alpha Gamma(E).

    A is read as one ``SampleEnsemble`` with Sigma = I: lambda_1 and the
    plug-in estimates come from its eigenvalues, R_uu(E) and R_vv(E) from
    its Cholesky factor and one triangular solve against [u, v], all from one
    Gram matrix A A^T; no eigenvector is computed.  A / sigma is never formed:
    (A A^T / sigma^2 - E)^{-1} = sigma^2 (A A^T - sigma^2 E)^{-1}, and the row
    cumulants come from A * A over sigma^4.  ``E_margin`` must be finite and
    > 0 (``ValueError`` otherwise).  sigma^2 is the ensemble's mean
    eigenvalue, the unit of its real-point rule, so the rule reads E_margin
    whatever the scale of A: below ``NEAR_FACTOR`` x ``REAL_GAP`` the
    resolvent comes from the eigenpairs, below ``REAL_GAP`` the call raises
    ``NearSingular``.
    """
    A = np.asarray(raw_data, dtype=float)
    if A.ndim != 2:
        raise DegenerateData("data matrix must be two-dimensional")
    n, N = A.shape
    u = as_unit_vector(u)
    v = as_unit_vector(v)
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    if not (math.isfinite(E_margin) and E_margin > 0.0):
        raise ValueError(f"E_margin must be finite and > 0, got {E_margin}")

    ens = SampleEnsemble.from_data(PopulationModel.identity(n), A)
    sigma_sq = ens.mean_eigenvalue
    if not (math.isfinite(sigma_sq) and sigma_sq > 0.0):
        raise DegenerateData(f"data matrix has scale {sigma_sq}; need a finite scale > 0")

    E = ens.lambda_1 / sigma_sq + E_margin
    z = sigma_sq * E
    Y, w = _resolvent_parts(ens, [u, v], z)
    gap = sigma_sq * float(((Y[0] * w) @ Y[0] - (Y[1] * w) @ Y[1]).real)
    m_hat = sigma_sq * m2c_hat(ens, z).real
    m_prime_hat = sigma_sq**2 * m2c_hat_prime(ens, z).real

    kappa_max = float(np.max(_row_kappa4(A, sigma_sq)))
    bracket = max(kappa_max, 0.0) + 2.0 * m_prime_hat / m_hat**2
    gamma_sq = m_hat**2 / (E**2 * abs(1.0 + m_hat) ** 4) * bracket

    alpha = alpha_from_omega(omega)
    statistic = math.sqrt(N) * abs(gap)
    threshold = math.sqrt(2.0) * alpha * math.sqrt(gamma_sq)
    return SphericityVerdict(
        statistic=statistic,
        threshold=threshold,
        decision="reject" if statistic >= threshold else "accept",
        gamma_sq=gamma_sq,
        rescale_sigma_sq=sigma_sq,
        E=E,
        alpha=alpha,
        omega=omega,
        m2c_hat=m_hat,
        m2c_prime_hat=m_prime_hat,
        kappa4_max=kappa_max,
    )
