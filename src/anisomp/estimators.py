"""Statistical procedures built on the resolvent CLT.

* weak-spike strength estimation with confidence intervals (closed-form
  null Stieltjes transform),
* population-eigenvalue estimation with plug-in Stieltjes estimates,
* the four-step sphericity test (rescale, place E above the spectrum,
  bound the variance, compare the resolvent gap against the threshold).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateData, OutsideDomain, ResolventDegenerate
from .matrix_models import (
    SampleEnsemble,
    kappa4_hat,
    m2c_hat,
    m2c_hat_prime,
    resolvent_bilinear,
)
from .mp_law import as_unit_vector, null_mp_edges, null_mp_m2c, null_mp_m2c_prime
from .populations import FourthCumulantProfile

__all__ = [
    "EstimateWithInterval",
    "SphericityVerdict",
    "estimate_spike_strength",
    "estimate_population_eigenvalue",
    "sphericity_test",
    "alpha_from_omega",
    "confidence_from_alpha",
]

KAPPA_MODES = ("gaussian", "pooled", "per-row-max", "delocalized", "custom")


def alpha_from_omega(omega: float) -> float:
    """Quantile alpha with 2(1 - Phi(alpha)) = omega."""
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")
    return float(ndtri(1.0 - omega / 2.0))


def confidence_from_alpha(alpha: float) -> float:
    return float(2.0 * ndtr(alpha) - 1.0)


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
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "decision": self.decision,
            "gamma_sq": self.gamma_sq,
            "rescale_sigma_sq": self.rescale_sigma_sq,
            "E": self.E,
            "alpha": self.alpha,
            "omega": self.omega,
            "m2c_hat": self.m2c_hat,
            "m2c_prime_hat": self.m2c_prime_hat,
            "kappa4_max": self.kappa4_max,
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), **kw)


def _kappa_term(
    ens: SampleEnsemble,
    v: np.ndarray,
    mode: str,
    kappa: FourthCumulantProfile | None,
) -> float:
    """(1/N) sum_{k,j} kappa4(k, j) v^4(k) under the chosen policy."""
    if mode not in KAPPA_MODES:
        raise ValueError(f"kappa mode must be one of {KAPPA_MODES}")
    v4 = np.asarray(v, dtype=float) ** 4
    if mode == "gaussian":
        return 0.0
    if mode == "delocalized":
        # ||v||_inf = o(1) waiver: the weighted cumulant sum is negligible
        return 0.0
    if mode == "pooled":
        prof = kappa4_hat(ens, "pooled")
        return float(prof.values) * float(np.sum(v4))
    if mode == "per-row-max":
        prof = kappa4_hat(ens, "per-row")
        return float(np.max(np.maximum(np.asarray(prof.values), 0.0)))
    if kappa is None:
        raise ValueError("custom kappa mode requires an explicit profile")
    return float(np.sum(kappa.row_weights(ens.n) * v4))


def estimate_spike_strength(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    *,
    alpha: float = 2.0,
    kappa_mode: str = "pooled",
    kappa: FourthCumulantProfile | None = None,
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
    r = float(np.real(resolvent_bilinear(ens, v, v, E)))
    if abs(r) < 1e-12:
        raise ResolventDegenerate("R_vv(E) vanished; cannot invert")
    m = float(np.real(null_mp_m2c(E, d)))
    m_prime = float(np.real(null_mp_m2c_prime(E, d)))
    point = -(1.0 / m) * (1.0 / (E * r) + 1.0)
    kt = _kappa_term(ens, v, kappa_mode, kappa)
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
        method="spike",
    )


def estimate_population_eigenvalue(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    *,
    alpha: float = 2.0,
    kappa_mode: str = "gaussian",
    kappa: FourthCumulantProfile | None = None,
    min_gap: float = 0.1,
) -> EstimateWithInterval:
    """Same inversion with the plug-in Stieltjes estimates, for general Sigma."""
    v = as_unit_vector(v)
    if E <= ens.lambda_1 + min_gap:
        raise OutsideDomain(f"E = {E} not above lambda_1 + {min_gap} = {ens.lambda_1 + min_gap}")
    r = float(np.real(resolvent_bilinear(ens, v, v, E)))
    if abs(r) < 1e-12:
        raise ResolventDegenerate("R_vv(E) vanished; cannot invert")
    m = float(np.real(m2c_hat(ens, E)))
    m_prime = float(np.real(m2c_hat_prime(ens, E)))
    point = -(1.0 / m) * (1.0 / (E * r) + 1.0)
    kt = _kappa_term(ens, v, kappa_mode, kappa)
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
        method="population",
    )


def sphericity_test(
    raw_data: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    E_margin: float = 1.0,
    omega: float = 0.05,
    *,
    kappa_mode: str = "per-row-max",
    split_samples: int | None = None,
) -> SphericityVerdict:
    """Four-step sphericity test on a raw n x N data matrix.

    1. rescale by sigma^2 = n^{-1} sum of squared entries;
    2. place E = lambda_1 + E_margin above the rescaled spectrum;
    3. bound the variance via plug-in Stieltjes estimates and the
       positive-part row-max fourth cumulant (or a split-sample variance);
    4. reject when sqrt(N) |R_uu(E) - R_vv(E)| >= sqrt(2) alpha Gamma(E).
    """
    A = np.asarray(raw_data, dtype=float)
    if A.ndim != 2:
        raise DegenerateData("data matrix must be two-dimensional")
    n, N = A.shape
    u = as_unit_vector(u)
    v = as_unit_vector(v)
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0, 1)")

    sigma_sq = float(np.sum(A**2) / n)
    if sigma_sq <= 0.0:
        raise DegenerateData("data matrix has zero scale")
    W = A / math.sqrt(sigma_sq)

    Q1 = W @ W.T
    try:
        lam, vec = np.linalg.eigh(Q1)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"eigensolver failed: {exc}") from exc
    lam = np.maximum(lam[::-1], 0.0)
    vec = vec[:, ::-1]
    nz = min(n, N)
    lam_q2 = np.concatenate([lam[:nz], np.zeros(max(N - nz, 0))])

    E = float(lam[0]) + E_margin
    m_hat = float(np.mean(1.0 / (lam_q2 - E)))
    m_prime_hat = float(np.mean(1.0 / (lam_q2 - E) ** 2))

    if split_samples:
        gamma_sq = _split_sample_gamma_sq(W, u, v, E, split_samples)
        kappa_max = math.nan
    else:
        kappa_rows = N * np.sum(W**4, axis=1) - 3.0
        kappa_max = float(np.max(kappa_rows))
        bracket = max(kappa_max, 0.0) + 2.0 * m_prime_hat / m_hat**2
        gamma_sq = m_hat**2 / (E**2 * abs(1.0 + m_hat) ** 4) * bracket

    alpha = alpha_from_omega(omega)
    pu = vec.T @ u
    pv = vec.T @ v
    r_uu = float(np.sum(pu**2 / (lam - E)))
    r_vv = float(np.sum(pv**2 / (lam - E)))
    statistic = math.sqrt(N) * abs(r_uu - r_vv)
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


def _split_sample_gamma_sq(
    W: np.ndarray, u: np.ndarray, v: np.ndarray, E: float, p: int
) -> float:
    """Variance estimate from p independent column blocks (optional mode).

    Each block gives one draw of the resolvent gap at its own scale; the
    rescaled sample variance estimates the single-direction gamma^2.
    """
    n, N = W.shape
    if p < 2 or N // p < 2:
        raise ValueError("split-sample variance needs p >= 2 blocks with >= 2 columns")
    block = N // p
    gaps = []
    for k in range(p):
        Wk = W[:, k * block : (k + 1) * block] * math.sqrt(N / block)
        Q1k = Wk @ Wk.T
        lamk, veck = np.linalg.eigh(Q1k)
        lamk = np.maximum(lamk[::-1], 0.0)
        veck = veck[:, ::-1]
        if E - lamk[0] < 1e-6:
            raise OutsideDomain("split block spectrum reaches beyond E")
        pu = veck.T @ u
        pv = veck.T @ v
        gaps.append(float(np.sum(pu**2 / (lamk - E)) - np.sum(pv**2 / (lamk - E))))
    # Var(sqrt(block) * gap) / 2 estimates the per-direction variance
    return float(np.var(np.asarray(gaps), ddof=1) * block / 2.0)
