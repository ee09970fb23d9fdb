"""Sample-covariance ensembles and their empirical spectral statistics.

One ``SampleEnsemble`` is a single draw: the data matrix B = Sigma^{1/2} X
(entries of X scaled by N^{-1/2}).  Nothing is decomposed when it is made;
each statistic asks for what it reads, and that is computed once and kept.
A resolvent u^T (Q1 - E)^{-1} v at a real E above the spectrum of
Q1 = B B^T comes from one Cholesky factor of E - Q1, shared by every
direction at that E.  Reads of the eigenvalues alone (lambda_1, plug-in
Stieltjes transforms) take one ``eigvalsh``; everything else (complex
points, eigenvector laws, linear statistics) is a spectral sum over the
eigenpairs of Q1, from one ``eigh`` on first use.  The three read one Gram
matrix Q1: ``eigvalsh`` keeps it, and ``eigh`` or the factor consumes it.

A run of Monte-Carlo trials draws through one ``DrawBuffer``: every draw
overwrites the same n x N array, so no trial maps fresh memory for its data.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import EigenFailure, NearSingular, QuadratureFailure
from .mp_law import _arcsine_rule, _direction_density, as_unit_vector, solve_m2c_grid, support_bulks
from .clt_theory import TestFunction, _m_at
from .populations import (
    EntryDistribution,
    FourthCumulantProfile,
    Population,
    PopulationModel,
    _row_blocks,
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
# a real point within REAL_GAP mean eigenvalues of an eigenvalue is singular
# for the resolvent and the plug-in sums, whatever the scale of the data; the
# Cholesky route hands over to the eigenpairs NEAR_FACTOR times further out
REAL_GAP = 1e-8
NEAR_FACTOR = 100.0


class SampleEnsemble:
    """One realization: the data matrix and what its statistics have asked of it.

    ``sqrt_X`` is B = Sigma^{1/2} X.  ``eigenvalues`` (descending) come from
    one ``eigvalsh`` of Q1 = B B^T when they are read before any eigenvector;
    ``eigenvectors`` (columns matching the eigenvalues) come from one ``eigh``
    on first access, which also supplies the eigenvalues if none are known.
    Eigenvalues below eigensolver roundoff are clamped to exact zero, so
    lambda_k = 0 for k > min(n, N).  Eigenpairs passed in as arguments, or
    already computed, are used as they are and never recomputed.  ``None``
    for both means "decompose when asked".  Until then, a resolvent at a
    real point above the spectrum comes from a Cholesky factor of E - Q1
    (see ``resolvent_bilinear``), cached for the last such E.  Read for its
    eigenvalues alone, an ensemble keeps Q1 for a later factor or ``eigh``.
    """

    def __init__(
        self,
        model: PopulationModel,
        distribution: EntryDistribution,
        seed: int,
        N: int,
        sqrt_X: np.ndarray,
        eigenvalues: np.ndarray | None,
        eigenvectors: np.ndarray | None,
    ) -> None:
        self.model = model
        self.distribution = distribution
        self.seed = seed
        self.N = N
        self.sqrt_X = sqrt_X
        self._eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors
        self._gram: np.ndarray | None = None
        self._factor: tuple[float, np.ndarray | None] | None = None

    @classmethod
    def from_data(
        cls,
        model: PopulationModel,
        data: np.ndarray,
        dist: EntryDistribution | None = None,
        seed: int = 0,
    ) -> "SampleEnsemble":
        """Wrap an n x N data matrix data = Sigma^{1/2} X; nothing is computed
        until a statistic asks.  ``dist`` (Gaussian when None) and ``seed``
        only label the draw."""
        return cls(
            model=model,
            distribution=dist or EntryDistribution.gaussian(),
            seed=seed,
            N=data.shape[1],
            sqrt_X=data,
            eigenvalues=None,
            eigenvectors=None,
        )

    @cached_property
    def mean_eigenvalue(self) -> float:
        """tr(Q1) / n = |B|_F^2 / n, the unit of ``REAL_GAP``."""
        flat = self.sqrt_X.ravel()
        return float(flat @ flat) / len(self.sqrt_X)

    def _q1(self, consume: bool) -> np.ndarray:
        """Q1 = B B^T, formed once and kept until a reader consumes it: the
        Cholesky factor overwrites it, and after ``eigh`` nothing reads it."""
        Q1 = _gram(self.sqrt_X) if self._gram is None else self._gram
        self._gram = None if consume else Q1
        return Q1

    @property
    def eigenvalues(self) -> np.ndarray:
        if self._eigenvalues is None:
            lam = _eigen(np.linalg.eigvalsh, self._q1(consume=False))
            self._eigenvalues = _descending(lam, self.sqrt_X.shape)
        return self._eigenvalues

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._eigenvectors is None:
            self._decompose()
        return self._eigenvectors

    def _decompose(self) -> None:
        """Eigendecompose Q1 and fill in whichever of the eigenpairs is missing."""
        lam, vec = _eigen(np.linalg.eigh, self._q1(consume=True))
        if self._eigenvalues is None:
            self._eigenvalues = _descending(lam, self.sqrt_X.shape)
        if self._eigenvectors is None:
            self._eigenvectors = vec[:, ::-1].copy()
        self._factor = None  # the eigenpairs answer every later call

    def _factor_at(self, E: float) -> np.ndarray | None:
        """L with E - Q1 = L L^T, or None where E is not safely above the
        spectrum: E - lambda_1 < ``NEAR_FACTOR`` x ``REAL_GAP`` when the
        eigenvalues are known; otherwise the factorisation fails (E inside or
        below the spectrum), or inverse iteration puts lambda_1 that close.
        Kept for the last E asked."""
        if self._factor is None or self._factor[0] != E:
            near = NEAR_FACTOR * REAL_GAP * self.mean_eigenvalue
            known = self._eigenvalues is not None
            L = None
            if not known or E - self._eigenvalues[0] >= near:
                try:
                    L = _factor_above(self._q1(consume=True), E)
                    if not known and not _lowest_eigenvalue_bound(L) >= near:
                        L = None
                except np.linalg.LinAlgError:
                    pass
            self._factor = (E, L)
        return self._factor[1]

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
        return np.concatenate([self.eigenvalues[:nz], np.zeros(self.N - nz)])


def _gram(B: np.ndarray) -> np.ndarray:
    """Q1 = B B^T: every Gram matrix of a draw is formed here."""
    return B @ B.T


def _eigen(solver, Q1: np.ndarray):
    """``solver(Q1)`` (``eigh`` or ``eigvalsh``), a LAPACK failure raised as
    ``EigenFailure``."""
    try:
        return solver(Q1)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenFailure(str(exc)) from exc


def _descending(lam: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Ascending eigenvalues of Q1 for an n x N data matrix, reversed, with
    negatives and the min(n, N)-th on set to exact zero."""
    lam = lam[::-1].copy()
    lam[lam < 0.0] = 0.0
    lam[min(shape) :] = 0.0
    return lam


class DrawBuffer:
    """One n x N array that successive draws overwrite.

    ``ensemble`` is ``sample_ensemble`` writing into the kept array, so a run
    of trials reuses the same pages.  Each call overwrites the data of the
    ensemble the previous call returned, so a trial must be done with its
    ensemble before the next draw.  The array is made on the first call and
    again only when the shape changes.
    """

    def __init__(self) -> None:
        self._data: np.ndarray | None = None

    def ensemble(
        self, model: PopulationModel, N: int, dist: EntryDistribution, seed: int
    ) -> SampleEnsemble:
        n = model.n
        if n > MAX_DESK_N:
            raise ValueError(f"n = {n} exceeds the desk-scale bound {MAX_DESK_N}")
        if self._data is None or self._data.shape != (n, N):
            self._data = np.empty((n, N))
        X = dist.sample(np.random.default_rng(seed), self._data)
        X /= np.sqrt(N)
        return SampleEnsemble.from_data(model, model.sqrt_apply(X), dist, seed)


def sample_ensemble(
    model: PopulationModel,
    N: int,
    dist: EntryDistribution,
    seed: int,
) -> SampleEnsemble:
    """Draw X and wrap Sigma^{1/2} X (``SampleEnsemble.from_data``) in a fresh
    array, deterministically in seed; n may not exceed MAX_DESK_N."""
    return DrawBuffer().ensemble(model, N, dist, seed)


def vesd_eval(ens: SampleEnsemble, u: np.ndarray, x: float) -> float:
    """Eigenvector empirical spectral distribution F_u(x)."""
    u = as_unit_vector(u)
    proj = ens.projections(u)
    return float(np.sum(proj[ens.eigenvalues <= x] ** 2))


def resolvent_bilinear(
    ens: SampleEnsemble, u: np.ndarray, v: np.ndarray, z: complex
) -> complex:
    """u^T (Q1 - z)^{-1} v (see ``_resolvent_parts``)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # R_vv needs one solve: with u is v, the one column serves both sides
    Y, w = _resolvent_parts(ens, [u] if u is v else [u, v], z)
    return complex((Y[0] * w) @ Y[-1])


def _resolvent_parts(ens: SampleEnsemble, vectors: list[np.ndarray], z: complex) -> tuple:
    """(Y, w) with a_i^T (Q1 - z)^{-1} a_j = (Y[i] * w) @ Y[j] for the few ``vectors``.

    At a real z = E safely above the spectrum of an ensemble not yet
    decomposed: Y = L^{-1} [a_i] and w = -1, from the factor E - Q1 = L L^T
    kept for that E and one triangular solve.  Otherwise: Y the projections
    on the eigenvectors and w = 1 / (lambda - z), under the real-point rule.
    """
    z = complex(z)
    if z.imag == 0.0 and ens._eigenvectors is None:
        L = ens._factor_at(z.real)
        if L is not None:
            return _lower_solve(L, np.column_stack(vectors)).T, -1.0
    # projections first: the eigenvalues of the sum come from the same eigh
    Y = np.array([ens.projections(a) for a in vectors])
    if z.imag == 0.0:
        _require_clear(ens, ens.eigenvalues, z.real)
        return Y, 1.0 / (ens.eigenvalues - z.real)
    return Y, 1.0 / (ens.eigenvalues - z)


def _above_spectrum(ens: SampleEnsemble, E: float) -> bool:
    """Whether E lies above the spectrum of Q1: the factor of E - Q1 cached
    for E exists, else E > lambda_1 (within ``REAL_GAP`` mean eigenvalues of
    lambda_1 the resolvent at E has already raised ``NearSingular``)."""
    if ens._eigenvectors is None and ens._factor_at(E) is not None:
        return True
    return E > ens.lambda_1


def _require_clear(ens: SampleEnsemble, lam: np.ndarray, E: float) -> None:
    """The real-point rule: ``NearSingular`` within ``REAL_GAP`` of ``lam``."""
    gap = REAL_GAP * ens.mean_eigenvalue
    if float(np.min(np.abs(lam - E))) <= gap:
        raise NearSingular(f"real z = {E} within {gap:g} of the spectrum")


def _factor_above(Q1: np.ndarray, E: float) -> np.ndarray:
    """Lower Cholesky factor L of E - Q1 = L L^T; the symmetric Q1 is overwritten.

    The factorisation exists only when E lies numerically above the spectrum
    of Q1, so it is also that check: ``np.linalg.LinAlgError`` otherwise.
    Everything stays in NumPy's LAPACK: SciPy links its own OpenBLAS, and
    alternating calls between the two leave two BLAS thread pools competing
    for the cores whenever more than one thread is allowed.
    """
    Q1 *= -1.0
    Q1.flat[:: Q1.shape[0] + 1] += E
    return np.linalg.cholesky(Q1)


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


def _lower_t_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^{-T} B for lower-triangular L, by block back substitution."""
    Y = np.array(B, dtype=float)
    for e in range(len(L), 0, -64):
        s = max(e - 64, 0)
        Y[s:e] = np.linalg.solve(L[s:e, s:e].T, Y[s:e])
        Y[:s] -= L[s:e, :s].T @ Y[s:e]
    return Y


def _lowest_eigenvalue_bound(L: np.ndarray) -> float:
    """An upper bound on the smallest eigenvalue of M = L L^T, O(n^2): one
    step of inverse iteration from a fixed random start, then the Rayleigh
    quotient x^T M^{-1} x = |L^{-1} x|^2 at the iterate.

    For E - Q1 = L L^T that eigenvalue is E - lambda_1.  The bound is tight
    when E - lambda_1 is small against lambda_1 - lambda_2, unless the start
    is nearly orthogonal to the top eigenvector of Q1.
    """
    x = _lower_t_solve(L, _lower_solve(L, np.random.default_rng(0).standard_normal(len(L))))
    y = _lower_solve(L, x / np.linalg.norm(x))
    return 1.0 / float(y @ y)


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
) -> float:
    """integral f((x-E)/eta) dF_{1c,v}(x), the centering of ``z_statistic``,
    by ``mp_law._arcsine_rule`` (24 panels) on each piece bulk & (E + eta
    supp f), where the direction law can be nonzero, with the boundary
    values m(x + i0) of ``solve_m2c_grid``.  Cached per (population,
    direction weights, f, E, eta): Monte-Carlo sweeps pay for it once.
    """
    lo, hi = (E + eta * u for u in f.support)
    total = 0.0
    for b_lo, b_hi in support_bulks(spectrum):
        p_lo, p_hi = max(lo, b_lo), min(hi, b_hi)
        if p_hi > p_lo:
            x, w = _arcsine_rule(p_lo, p_hi, 24)
            dens = _direction_density(x, solve_m2c_grid(x, 0.0, spectrum), sig, wts)
            total += float(np.sum(w * f((x - E) / eta) * dens))
    if not np.isfinite(total):
        raise QuadratureFailure("centering integral did not evaluate finitely")
    return total


def m2c_hat(ens: SampleEnsemble, z: complex) -> complex:
    """Plug-in Stieltjes transform N^{-1} tr (Q2 - z)^{-1}."""
    return _plug_in_sum(ens, z, 1)


def m2c_hat_prime(ens: SampleEnsemble, z: complex) -> complex:
    """Plug-in derivative N^{-1} tr (Q2 - z)^{-2}."""
    return _plug_in_sum(ens, z, 2)


def _plug_in_sum(ens: SampleEnsemble, z: complex, p: int) -> complex:
    """N^{-1} sum_k (lambda_k - z)^{-p} over the spectrum of Q2 (the nonzero
    spectrum of Q1 and N - min(n, N) zeros), under the real-point rule."""
    z = complex(z)
    lam = ens.q2_eigenvalues()
    if z.imag == 0.0:
        _require_clear(ens, lam, z.real)
        return complex(float(np.mean(1.0 / (lam - z.real) ** p)))
    return complex(np.mean(1.0 / (lam - z) ** p))


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
        vals = _row_kappa4(A, ens.mean_eigenvalue)
        return FourthCumulantProfile.per_row(np.maximum(vals, -2.0))
    raise ValueError(f"unknown kappa4 mode {mode!r}")


def _row_kappa4(A: np.ndarray, sigma_sq: float) -> np.ndarray:
    """kappa(i) = N sum_j W_ij^4 - 3 for W = A / sigma, without forming W;
    A * A is formed one row block at a time."""
    sums = np.empty(len(A))
    for rows in _row_blocks(A):
        A2 = A[rows] * A[rows]
        sums[rows] = np.einsum("ij,ij->i", A2, A2)
    return A.shape[1] * sums / sigma_sq**2 - 3.0
