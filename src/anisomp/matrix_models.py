"""Sample-covariance ensembles and their empirical spectral statistics.

One ``SampleEnsemble`` is a single draw: the data matrix Sigma^{1/2} X
(entries of X scaled by N^{-1/2}) and the eigendecomposition of
Q1 = Sigma^{1/2} X X^T Sigma^{1/2}, computed once and shared by every statistic.
All resolvent quantities are spectral sums over the cached eigenpairs rather
than per-z linear solves, since each trial queries several spectral points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EigenFailure, NearSingular, QuadratureFailure
from .mp_law import ETA0, as_unit_vector, solve_m2c_grid, support_edges
from .clt_theory import TestFunction, _gl_panels, _m_at
from .populations import (
    EntryDistribution,
    FourthCumulantProfile,
    Population,
    PopulationModel,
)

__all__ = [
    "SampleEnsemble",
    "sample_ensemble",
    "vesd_eval",
    "resolvent_bilinear",
    "y_statistic",
    "z_statistic",
    "m2c_hat",
    "m2c_hat_prime",
    "kappa4_hat",
]

MAX_DESK_N = 4000


@dataclass(eq=False)
class SampleEnsemble:
    """One realization with its cached eigendecomposition.

    ``eigenvalues`` are descending; ``eigenvectors`` columns match them.
    Eigenvalues below eigensolver roundoff are clamped to exact zero, so
    lambda_k = 0 for k > min(n, N).
    """

    model: PopulationModel
    distribution: EntryDistribution
    seed: int
    N: int
    sqrt_X: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_data(
        cls,
        model: PopulationModel,
        data: np.ndarray,
        dist: EntryDistribution | None = None,
        seed: int = 0,
    ) -> "SampleEnsemble":
        """Wrap an n x N data matrix data = Sigma^{1/2} X and eigendecompose
        Q1 = data data^T once.  ``dist`` (Gaussian when None) and ``seed``
        only label the draw."""
        n, N = data.shape
        try:
            lam, vec = np.linalg.eigh(data @ data.T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise EigenFailure(str(exc)) from exc
        lam = lam[::-1].copy()
        vec = vec[:, ::-1].copy()
        lam[lam < 0.0] = 0.0
        lam[min(n, N) :] = 0.0
        return cls(
            model=model,
            distribution=dist or EntryDistribution.gaussian(),
            seed=seed,
            N=N,
            sqrt_X=data,
            eigenvalues=lam,
            eigenvectors=vec,
        )

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def pop(self) -> Population:
        return Population(self.model, self.N)

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])

    def projections(self, v: np.ndarray) -> np.ndarray:
        """<xi_k, v> for all eigenvectors."""
        return self.eigenvectors.T @ v

    def q2_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the companion N x N matrix (zeros accounted)."""
        nz = min(self.n, self.N)
        lam = self.eigenvalues[:nz]
        if self.N > nz:
            return np.concatenate([lam, np.zeros(self.N - nz)])
        return lam.copy()


def sample_ensemble(
    model: PopulationModel,
    N: int,
    dist: EntryDistribution,
    seed: int,
    *,
    max_n: int = MAX_DESK_N,
) -> SampleEnsemble:
    """Draw X and wrap Sigma^{1/2} X (``SampleEnsemble.from_data``),
    deterministically in seed."""
    n = model.n
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the desk-scale bound {max_n}")
    rng = np.random.default_rng(seed)
    X = dist.sample(rng, (n, N)) / np.sqrt(N)
    return SampleEnsemble.from_data(model, model.sqrt_apply(X), dist, seed)


def vesd_eval(ens: SampleEnsemble, u: np.ndarray, x: float) -> float:
    """Eigenvector empirical spectral distribution F_u(x)."""
    u = as_unit_vector(u)
    proj = ens.projections(u)
    return float(np.sum(proj[ens.eigenvalues <= x] ** 2))


def resolvent_bilinear(
    ens: SampleEnsemble, u: np.ndarray, v: np.ndarray, z: complex
) -> complex:
    """u^T (Q1 - z)^{-1} v from the cached eigenpairs."""
    z = complex(z)
    if z.imag == 0.0:
        gap = float(np.min(np.abs(ens.eigenvalues - z.real)))
        if gap < 1e-8:
            raise NearSingular(f"real z = {z.real} within 1e-8 of the spectrum")
    pu = ens.projections(np.asarray(u, dtype=float))
    pv = ens.projections(np.asarray(v, dtype=float))
    val = complex(np.sum(pu * pv / (ens.eigenvalues - z)))
    return val.real + 0.0j if z.imag == 0.0 else val


def y_statistic(
    ens: SampleEnsemble,
    v: np.ndarray,
    E: float,
    eta: float,
    w: complex,
    *,
    m: complex | None = None,
) -> complex:
    """Centered resolvent process sqrt(N eta) (R_vv(z) + z^{-1} (1+m Sigma)^{-1}_vv).

    With eta = 0 the boundary variant sqrt(N) (R_vv(E) + E^{-1}(...)) is
    returned, which is the eta^{-1/2}-rescaled limit used off the support.
    ``m``, when given, is m(z) at that point as the caller solved it: it does
    not depend on the draw, so a runner solves it once for all its trials.
    """
    v = as_unit_vector(v)
    pop = ens.pop
    z = _y_point(E, eta, w)
    scale = np.sqrt(ens.N) if eta == 0.0 else np.sqrt(ens.N * eta)
    if m is None:
        m = _m_at(z, pop)
    r = resolvent_bilinear(ens, v, v, z)
    centering = pop.model.inv_bilinear(m, v, v) / z
    return scale * (r + centering)


def _y_point(E: float, eta: float, w: complex) -> complex:
    """The spectral point z of ``y_statistic``: E itself at eta = 0, else E + w eta."""
    return complex(E, 0.0) if eta == 0.0 else complex(E) + complex(w) * eta


def _y_m_at(pop: Population, E: float, eta: float, w: complex) -> complex:
    """m(z) at the point ``y_statistic`` reads for (E, eta, w)."""
    return _m_at(_y_point(E, eta, w), pop)


def z_statistic(ens: SampleEnsemble, v: np.ndarray, f: TestFunction, E: float, eta: float) -> float:
    """Centered linear eigenvector statistic at scale eta around E.

    sqrt(N/eta) [ sum_k |<xi_k, v>|^2 f((lambda_k - E)/eta)
                  - integral of f((x - E)/eta) against the direction law ].
    """
    v = as_unit_vector(v)
    proj2 = ens.projections(v) ** 2
    emp = float(np.sum(proj2 * f((ens.eigenvalues - E) / eta)))
    sig, wts = ens.model.pair_weights(v, v)
    cent = _centering_integral(ens.pop.spectrum, tuple(sig), tuple(wts), f, E, eta)
    return float(np.sqrt(ens.N / eta) * (emp - cent))


@lru_cache(maxsize=512)
def _centering_integral(
    spectrum,
    sig: tuple,
    wts: tuple,
    f: TestFunction,
    E: float,
    eta: float,
    n_panels: int = 48,
) -> float:
    """integral f((x-E)/eta) dF_{1c,v}(x) by Gauss panels over supp f.

    Deterministic per (population, direction weights, f, E, eta); cached so
    Monte-Carlo sweeps pay for the quadrature once.
    """
    lo_u, hi_u = f.support
    lo, hi = E + eta * lo_u, E + eta * hi_u
    if hi <= 0.0:
        return 0.0
    lo = max(lo, 1e-12)
    # the direction law is exactly zero off the support bulks
    edges = support_edges(spectrum)
    pieces = []
    for k in range(len(edges) // 2):
        b_hi, b_lo = edges[2 * k], edges[2 * k + 1]
        p_lo, p_hi = max(lo, b_lo), min(hi, b_hi)
        if p_hi > p_lo:
            pieces.append((p_lo, p_hi))
    total = 0.0
    for p_lo, p_hi in pieces:
        u, wu = _gl_panels(p_lo, p_hi, n_panels, 8)
        m = solve_m2c_grid(u, ETA0, spectrum)
        rho = np.maximum(m.imag, 0.0) / np.pi
        acc = np.zeros_like(u)
        for s, wgt in zip(sig, wts):
            acc += wgt * s / np.abs(1.0 + m * s) ** 2
        total += float(np.sum(wu * f((u - E) / eta) * rho / u * acc))
    if not np.isfinite(total):
        raise QuadratureFailure("centering integral did not evaluate finitely")
    return total


def m2c_hat(ens: SampleEnsemble, z: complex) -> complex:
    """Plug-in Stieltjes transform N^{-1} tr (Q2 - z)^{-1}.

    Q2 shares the nonzero spectrum of Q1 and carries N - min(n, N) extra
    zeros, accounted explicitly.
    """
    z = complex(z)
    lam = ens.q2_eigenvalues()
    if z.imag == 0.0:
        if float(np.min(np.abs(lam - z.real))) < 1e-6:
            raise NearSingular(f"E = {z.real} within 1e-6 of the companion spectrum")
        return complex(float(np.mean(1.0 / (lam - z.real))))
    return complex(np.mean(1.0 / (lam - z)))


def m2c_hat_prime(ens: SampleEnsemble, z: complex) -> complex:
    """Plug-in derivative N^{-1} tr (Q2 - z)^{-2}."""
    z = complex(z)
    lam = ens.q2_eigenvalues()
    if z.imag == 0.0:
        if float(np.min(np.abs(lam - z.real))) < 1e-6:
            raise NearSingular(f"E = {z.real} within 1e-6 of the companion spectrum")
        return complex(float(np.mean(1.0 / (lam - z.real) ** 2)))
    return complex(np.mean(1.0 / (lam - z) ** 2))


def kappa4_hat(ens: SampleEnsemble, mode: str = "pooled") -> FourthCumulantProfile:
    """Estimate fourth cumulants from the data matrix.

    ``pooled``: (N/n) sum_ij (Sigma^{1/2} X)_ij^4 - 3, consistent when the
    raw entries are i.i.d.  ``per-row``: kappa(i) = N sum_j W_ij^4 - 3 on the
    globally rescaled matrix W, the variant used by the sphericity test.
    """
    A = ens.sqrt_X
    n, N = A.shape
    if mode == "pooled":
        A2 = A * A
        val = float(N / n * np.sum(A2 * A2) - 3.0)
        return FourthCumulantProfile.constant(max(val, -2.0))
    if mode == "per-row":
        sigma_sq = float(np.sum(A**2) / n)
        W = A / np.sqrt(sigma_sq)
        W2 = W * W
        vals = N * np.sum(W2 * W2, axis=1) - 3.0
        return FourthCumulantProfile.per_row(np.maximum(vals, -2.0))
    raise ValueError(f"unknown kappa4 mode {mode!r}")
