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
    """Same inversion with the plug-in Stieltjes estimates, for general Sigma."""
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
    for sigma, given m(E) and m'(E) from the estimator's Stieltjes source."""
    r = float(np.real(resolvent_bilinear(ens, v, v, E)))
    if abs(r) < 1e-12:
        raise ResolventDegenerate("R_vv(E) vanished; cannot invert")
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
    *,
    split_samples: int | None = None,
) -> SphericityVerdict:
    """Four-step sphericity test on a raw n x N data matrix.

    1. rescale by sigma^2 = n^{-1} sum of squared entries;
    2. place E = lambda_1 + E_margin above the rescaled spectrum;
    3. bound the variance via plug-in Stieltjes estimates and the
       positive-part row-max fourth cumulant (or a split-sample variance);
    4. reject when sqrt(N) |R_uu(E) - R_vv(E)| >= sqrt(2) alpha Gamma(E).

    No eigenvectors are computed: lambda_1 and the plug-in estimates come
    from the eigenvalues of Q1 alone, and R_uu(E), R_vv(E) from one Cholesky
    factorisation of E - Q1, which exists because E lies above the spectrum,
    and one triangular solve against [u, v].
    ``E_margin`` must be finite and > 0 (``ValueError`` otherwise); a
    factorisation that fails anyway raises ``DegenerateData``.
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

    sigma_sq = float(np.sum(A**2) / n)
    if not math.isfinite(sigma_sq):
        raise DegenerateData("data matrix has a non-finite scale")
    if sigma_sq <= 0.0:
        raise DegenerateData("data matrix has zero scale")
    W = A / math.sqrt(sigma_sq)

    Q1 = W @ W.T
    lam = _descending_spectrum(Q1)
    nz = min(n, N)
    lam_q2 = np.concatenate([lam[:nz], np.zeros(max(N - nz, 0))])

    E = float(lam[0]) + E_margin
    gap = _resolvent_gap_above(Q1, u, v, E)
    m_hat = float(np.mean(1.0 / (lam_q2 - E)))
    m_prime_hat = float(np.mean(1.0 / (lam_q2 - E) ** 2))

    if split_samples:
        gamma_sq = _split_sample_gamma_sq(W, u, v, E, split_samples)
        kappa_max = math.nan
    else:
        W2 = W * W
        kappa_rows = N * np.sum(W2 * W2, axis=1) - 3.0
        kappa_max = float(np.max(kappa_rows))
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


def _descending_spectrum(Q1: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric Q1, descending and clamped at zero."""
    try:
        lam = np.linalg.eigvalsh(Q1)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"eigensolver failed: {exc}") from exc
    return np.maximum(lam[::-1], 0.0)


def _resolvent_gap_above(Q1: np.ndarray, u: np.ndarray, v: np.ndarray, E: float) -> float:
    """R_uu(E) - R_vv(E), with R = (Q1 - E)^{-1}, for real E above the spectrum.

    With E - Q1 = L L^T, -R_uu(E) = |L^{-1} u|^2.  The Cholesky factorisation
    exists only when E lies numerically above the spectrum, so it is also
    that check.  Everything stays in NumPy's LAPACK: SciPy links its own
    OpenBLAS, and alternating calls between the two leave two BLAS thread
    pools competing for the cores whenever more than one thread is allowed.
    Q1 is overwritten.
    """
    Q1 *= -1.0
    Q1.flat[:: Q1.shape[0] + 1] += E
    try:
        L = np.linalg.cholesky(Q1)
    except np.linalg.LinAlgError as exc:
        raise DegenerateData(f"E - Q1 is not positive definite at E = {E}: {exc}") from exc
    y = _lower_solve(L, np.column_stack([u, v]))
    return float(y[:, 1] @ y[:, 1]) - float(y[:, 0] @ y[:, 0])


def _lower_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-1} B for lower-triangular L, by block forward substitution.

    NumPy has no triangular solver; each 64-row diagonal block goes through
    ``np.linalg.solve`` and the rest of the work is matrix products.
    """
    Y = np.array(B, dtype=float)
    for s in range(0, len(L), 64):
        e = s + 64
        Y[s:e] = np.linalg.solve(L[s:e, s:e], Y[s:e])
        Y[e:] -= L[e:, s:e] @ Y[s:e]
    return Y


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
        if E - _descending_spectrum(Q1k)[0] < 1e-6:
            raise OutsideDomain("split block spectrum reaches beyond E")
        gaps.append(_resolvent_gap_above(Q1k, u, v, E))
    # Var(sqrt(block) * gap) / 2 estimates the per-direction variance
    return float(np.var(np.asarray(gaps), ddof=1) * block / 2.0)
