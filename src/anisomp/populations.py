"""Population covariance models, entry distributions and cumulant profiles.

A ``PopulationModel`` is the structural description of Sigma (identity,
spiked, diagonal or general symmetric) with just enough linear algebra to
serve both the deterministic theory (contractions through matrix functions
of Sigma) and the sampling side (multiplication by Sigma^{1/2}).

``Population`` bundles a model with the sample size N, which fixes the
aspect ratio d = n/N every deterministic law depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .mp_law import PopulationSpectrum, _tie_starts

# entries per row block of the in-place sampling steps: 64 KiB of float64,
# half of glibc's default threshold for serving an allocation by mmap
BLOCK_ENTRIES = 8192

__all__ = [
    "FourthCumulantProfile",
    "PopulationModel",
    "Population",
    "EntryDistribution",
]


@dataclass(frozen=True)
class FourthCumulantProfile:
    """Fourth cumulants of the sqrt(N)-scaled matrix entries.

    ``constant`` mode carries one kappa4 for every entry; ``per_row`` carries
    kappa4(i) per row.  The kernels only ever need the row-averaged
    combination s_i = sum_j kappa4(i, j) / N, exposed by ``row_weights``.
    """

    mode: str  # "constant" | "per_row"
    values: float | tuple[float, ...]

    def __post_init__(self) -> None:
        if self.mode not in ("constant", "per_row"):
            raise ValueError(f"unknown cumulant mode {self.mode!r}")
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(vals) & (vals >= -2.0)):
            raise ValueError("fourth cumulants must be finite and are bounded below by -2")
        if self.mode == "per_row":
            object.__setattr__(self, "values", tuple(float(v) for v in vals))
        else:
            object.__setattr__(self, "values", float(vals[0]))

    @classmethod
    def gaussian(cls) -> "FourthCumulantProfile":
        return cls("constant", 0.0)

    @classmethod
    def rademacher(cls) -> "FourthCumulantProfile":
        return cls("constant", -2.0)

    @classmethod
    def constant(cls, kappa4: float) -> "FourthCumulantProfile":
        return cls("constant", kappa4)

    @classmethod
    def per_row(cls, kappa4: np.ndarray) -> "FourthCumulantProfile":
        return cls("per_row", tuple(float(v) for v in kappa4))

    def row_weights(self, n: int) -> np.ndarray:
        """s_i = sum_j kappa4(i, j) / N as a length-n array.

        This is the kernel coefficient confirmed by direct Monte-Carlo
        calibration of the fourth-cumulant variance shift across entry
        distributions (Rademacher and uniform both land on kappa4/N to four
        digits; kappa4/(3N) misses by a factor of three).
        """
        if self.mode == "constant":
            return np.full(n, self.values)
        vals = np.asarray(self.values, dtype=float)
        if len(vals) != n:
            raise ValueError(f"per-row profile has {len(vals)} rows, expected {n}")
        return vals.copy()

    @property
    def is_zero(self) -> bool:
        if self.mode == "constant":
            return self.values == 0.0
        return all(v == 0.0 for v in self.values)


@dataclass(eq=False)
class PopulationModel:
    """Structural description of the population covariance Sigma (n x n)."""

    kind: str  # "identity" | "spiked" | "diagonal" | "general"
    n: int
    spike_strengths: tuple[float, ...] = ()
    spike_vectors: np.ndarray | None = None  # (n, r), orthonormal columns
    diagonal: np.ndarray | None = None  # (n,)
    matrix: np.ndarray | None = None  # (n, n) symmetric positive definite

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "spiked", "diagonal", "general"):
            raise ValueError(f"unknown population kind {self.kind!r}")
        if self.kind == "spiked":
            r = len(self.spike_strengths)
            if any(s <= -1.0 for s in self.spike_strengths):
                raise ValueError("spike strengths must exceed -1 (Sigma positive definite)")
            if self.spike_vectors is None:
                eye = np.zeros((self.n, r))
                for k in range(r):
                    eye[k, k] = 1.0
                self.spike_vectors = eye
            V = np.asarray(self.spike_vectors, dtype=float)
            if V.ndim == 1:
                V = V[:, None]
            if V.shape != (self.n, r):
                raise ValueError("spike_vectors must be (n, r)")
            gram = V.T @ V
            if not np.allclose(gram, np.eye(r), atol=1e-10):
                raise ValueError("spike vectors must be orthonormal within 1e-10")
            self.spike_vectors = V
        if self.kind == "diagonal":
            diag = np.asarray(self.diagonal, dtype=float)
            if diag.shape != (self.n,) or np.any(diag <= 0.0):
                raise ValueError("diagonal must be length n and positive")
            self.diagonal = diag
        if self.kind == "general":
            A = np.asarray(self.matrix, dtype=float)
            if A.shape != (self.n, self.n) or not np.allclose(A, A.T, atol=1e-10):
                raise ValueError("matrix must be symmetric (n, n)")
            self.matrix = 0.5 * (A + A.T)
        self._eig_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._atom_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._sqrt_cache: np.ndarray | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PopulationModel":
        return cls(kind="identity", n=n)

    @classmethod
    def spiked(
        cls, n: int, strengths, vectors: np.ndarray | None = None
    ) -> "PopulationModel":
        return cls(
            kind="spiked",
            n=n,
            spike_strengths=tuple(float(s) for s in np.atleast_1d(strengths)),
            spike_vectors=vectors,
        )

    @classmethod
    def from_diagonal(cls, values) -> "PopulationModel":
        values = np.asarray(values, dtype=float)
        return cls(kind="diagonal", n=len(values), diagonal=values)

    @classmethod
    def general(cls, sigma: np.ndarray) -> "PopulationModel":
        sigma = np.asarray(sigma, dtype=float)
        return cls(kind="general", n=sigma.shape[0], matrix=sigma)

    # -- spectral data ------------------------------------------------------

    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig_cache is None:
            vals, vecs = np.linalg.eigh(self.matrix)
            if vals[0] <= 0.0:
                raise ValueError("population covariance must be positive definite")
            self._eig_cache = (vals, vecs)
        return self._eig_cache

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order."""
        if self.kind == "identity":
            return np.ones(self.n)
        if self.kind == "spiked":
            vals = np.ones(self.n)
            vals[: len(self.spike_strengths)] = 1.0 + np.asarray(self.spike_strengths)
            return np.sort(vals)[::-1]
        if self.kind == "diagonal":
            return np.sort(self.diagonal)[::-1]
        return self._eig()[0][::-1].copy()

    def spectrum(self, aspect_ratio: float) -> PopulationSpectrum:
        return PopulationSpectrum(tuple(self.eigenvalues()), aspect_ratio)

    # -- matrix-function actions used by the kernels -------------------------

    def _decompose(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spike-parallel coefficients and the orthogonal remainder of v."""
        V = self.spike_vectors
        coef = V.T @ v
        return coef, v - V @ coef, 1.0 + np.asarray(self.spike_strengths)

    def phi(self, m: complex | np.ndarray, v: np.ndarray) -> np.ndarray:
        """Sigma^{1/2} (1 + m Sigma)^{-1} v, per original coordinate.

        A scalar m gives shape (n,); an array of m gives one row per m,
        shape (len(m), n).
        """
        m = np.asarray(m)[..., None]
        if self.kind == "identity":
            return v / (1.0 + m)
        if self.kind == "diagonal":
            return np.sqrt(self.diagonal) * v / (1.0 + m * self.diagonal)
        if self.kind == "spiked":
            coef, perp, sig = self._decompose(v)
            return perp / (1.0 + m) + (
                self.spike_vectors @ (np.sqrt(sig) * coef / (1.0 + m * sig)).T
            ).T
        vals, U = self._eig()
        return (U @ (np.sqrt(vals) * (U.T @ v) / (1.0 + m * vals)).T).T

    def sigma_bilinear(self, ma: complex, mb: complex, v1: np.ndarray, v2: np.ndarray) -> complex:
        """v1^T Sigma (1 + ma Sigma)^{-1} (1 + mb Sigma)^{-1} v2."""
        sig, w = self.pair_weights(v1, v2)
        return complex(np.sum(w * sig / ((1.0 + ma * sig) * (1.0 + mb * sig))))

    def inv_bilinear(self, m: complex, v1: np.ndarray, v2: np.ndarray) -> complex:
        """v1^T (1 + m Sigma)^{-1} v2."""
        sig, w = self.pair_weights(v1, v2)
        return complex(np.sum(w / (1.0 + m * sig)))

    def _atom_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort order of the eigenvalues of a diagonal or general Sigma, the
        start of each run of tied eigenvalues in that order, and each run's
        mean: the distinct atoms, tied by the rule the solver's atoms use."""
        if self._atom_cache is None:
            raw = self.diagonal if self.kind == "diagonal" else self._eig()[0]
            order = np.argsort(raw, kind="stable")
            vals = raw[order]
            starts = _tie_starts(vals)
            counts = np.diff(np.append(starts, len(vals)))
            self._atom_cache = (order, starts, np.add.reduceat(vals, starts) / counts)
        return self._atom_cache

    def pair_weights(self, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalue atoms sigma_k with weights sum_{i in k} (U^T v1)_i (U^T v2)_i.

        Quadratic forms in matrix functions of Sigma reduce to sums over
        these pairs; for unit v1 = v2 the weights sum to one.  Tied
        eigenvalues form one atom, so the number of pairs is the number of
        distinct eigenvalues.
        """
        if self.kind == "identity":
            return np.array([1.0]), np.array([float(v1 @ v2)])
        if self.kind == "spiked":
            c1 = self.spike_vectors.T @ v1
            c2 = self.spike_vectors.T @ v2
            sig = np.concatenate([1.0 + np.asarray(self.spike_strengths), [1.0]])
            w = np.concatenate([c1 * c2, [float(v1 @ v2) - float(c1 @ c2)]])
            return sig, w
        if self.kind == "diagonal":
            prod = v1 * v2
        else:
            U = self._eig()[1]
            prod = (U.T @ v1) * (U.T @ v2)
        order, starts, sig = self._atom_groups()
        return sig, np.add.reduceat(prod[order], starts)

    # -- sampling support ----------------------------------------------------

    def sqrt_apply(self, X: np.ndarray) -> np.ndarray:
        """Sigma^{1/2} X.  The identity, diagonal and spiked kinds overwrite X
        and return it; a general Sigma returns a new array.  The spike update
        runs in row blocks, so no second n x N array is made."""
        if self.kind == "identity":
            return X
        if self.kind == "diagonal":
            X *= np.sqrt(self.diagonal)[:, None]
            return X
        if self.kind == "spiked":
            V = self.spike_vectors
            scale = np.sqrt(1.0 + np.asarray(self.spike_strengths)) - 1.0
            C = scale[:, None] * (V.T @ X)
            for rows in _row_blocks(X):
                X[rows] += V[rows] @ C
            return X
        if self._sqrt_cache is None:
            vals, U = self._eig()
            self._sqrt_cache = (U * np.sqrt(vals)) @ U.T
        return self._sqrt_cache @ X


def _row_blocks(A: np.ndarray) -> list[slice]:
    """Slices of consecutive rows of A, each block about ``BLOCK_ENTRIES``
    entries, so a temporary the size of one block stays in reused heap
    memory instead of being mapped afresh."""
    step = max(1, BLOCK_ENTRIES // max(A.shape[1], 1))
    return [slice(s, s + step) for s in range(0, A.shape[0], step)]


@dataclass(eq=False)
class Population:
    """A population model together with the sample size N (so d = n/N)."""

    model: PopulationModel
    N: int

    def __post_init__(self) -> None:
        if self.N <= 0:
            raise ValueError("N must be positive")
        self._spectrum_cache: PopulationSpectrum | None = None

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def d(self) -> float:
        return self.model.n / self.N

    @property
    def spectrum(self) -> PopulationSpectrum:
        if self._spectrum_cache is None:
            self._spectrum_cache = self.model.spectrum(self.d)
        return self._spectrum_cache


@dataclass(frozen=True)
class EntryDistribution:
    """Law of the sqrt(N)-scaled entries: mean 0, variance 1."""

    kind: str  # "gaussian" | "rademacher"
    kappa4: FourthCumulantProfile

    @classmethod
    def gaussian(cls) -> "EntryDistribution":
        return cls("gaussian", FourthCumulantProfile.gaussian())

    @classmethod
    def rademacher(cls) -> "EntryDistribution":
        return cls("rademacher", FourthCumulantProfile.rademacher())

    def sample(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill the float64 array ``out`` in place with i.i.d. entries and
        return it.  The stream is that of one ``standard_normal`` or
        ``integers(0, 2)`` draw of out's shape; the Rademacher integers are
        drawn a row block at a time, which reads the same stream."""
        if self.kind == "gaussian":
            return rng.standard_normal(out=out)
        if self.kind == "rademacher":
            for rows in _row_blocks(out):
                block = out[rows]
                block[...] = rng.integers(0, 2, size=block.shape)
                block *= 2.0
                block -= 1.0
            return out
        raise ValueError(f"unknown entry distribution {self.kind!r}")
