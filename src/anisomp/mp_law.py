"""Deterministic spectral theory of anisotropic sample covariance matrices.

Everything here is driven by the self-consistent equation for the Stieltjes
transform m(z) of the deformed Marchenko-Pastur law,

    1/m = -z + d * (1/n) * sum_i sigma_i / (1 + m sigma_i),

solved on the upper half-plane and on the real boundary.  From m(z) we
recover the density via rho(E) = Im m(E + i0) / pi, locate the support edges
as critical values of the functional inverse z(m) on the real line, and
compute per-bulk masses and classical eigenvalue locations by quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BranchViolation,
    DegenerateDenominator,
    EdgeDegeneracy,
    NonConvergence,
)

__all__ = [
    "PopulationSpectrum",
    "StieltjesValue",
    "SupportStructure",
    "RegularityReport",
    "solve_m2c",
    "solve_m2c_points",
    "solve_m2c_grid",
    "m2c_derivative",
    "density_rho2c",
    "support_structure",
    "support_edges",
    "support_distance",
    "regularity_check",
    "anisotropic_density",
    "anisotropic_density_from_weights",
    "null_mp_m2c",
    "null_mp_m2c_prime",
    "null_mp_edges",
    "read_spectrum_file",
    "write_spectrum_file",
]


# Solver constants.  Boundary evaluations (eta = 0) require |E| >= OMEGA.
# ETA0 regularizes the eta -> 0+ limit: the boundary solve and the bulk
# quadratures descend the eta ladder to E + i*ETA0.  The damped fixed point
# (step DAMPING, at most MAX_ITER sweeps) hands over to Newton once a step
# is below NEWTON_SWITCH relative to max(1, |m|), and a point is converged
# once |m h(m)| <= RESIDUAL_TOL.
OMEGA = 1e-2
ETA0 = 1e-9
DAMPING = 0.5
NEWTON_SWITCH = 1e-3
RESIDUAL_TOL = 1e-12
MAX_ITER = 10_000

# The regularity margin tau of the paper's assumptions: tau <= d <= 1/tau,
# sigma_1 <= 1/tau, edges at least tau apart, and the distance an outside E
# keeps from the support.
TAU = 0.05


@dataclass(frozen=True)
class PopulationSpectrum:
    """Eigenvalues of the population covariance plus the aspect ratio n/N.

    ``eigenvalues`` are stored descending; exact ties are merged into
    weighted atoms before any solve.  Every eigenvalue and the aspect ratio
    must be finite (``ValueError`` otherwise).
    """

    eigenvalues: tuple[float, ...]
    aspect_ratio: float

    def __post_init__(self) -> None:
        raw = [float(v) for v in self.eigenvalues]
        if not all(math.isfinite(v) for v in raw):
            raise ValueError("population eigenvalues must be finite")
        vals = tuple(sorted(raw, reverse=True))
        object.__setattr__(self, "eigenvalues", vals)
        if not vals:
            raise ValueError("population spectrum must contain at least one eigenvalue")
        if vals[-1] < 0.0:
            raise ValueError("population eigenvalues must be nonnegative")
        if not (math.isfinite(self.aspect_ratio) and self.aspect_ratio > 0.0):
            raise ValueError("aspect ratio must be finite and positive")

    @classmethod
    def identity(cls, n: int, aspect_ratio: float) -> "PopulationSpectrum":
        return cls((1.0,) * n, aspect_ratio)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def sigma_max(self) -> float:
        return self.eigenvalues[0]

    def validate(self) -> None:
        """Enforce the admissibility bounds of margin TAU (raising)."""
        if self.sigma_max > 1.0 / TAU:
            raise ValueError("largest eigenvalue exceeds 1/tau")
        frac_small = sum(1 for v in self.eigenvalues if v <= TAU) / self.n
        if frac_small > 1.0 - TAU:
            raise ValueError("spectrum concentrates at zero beyond 1 - tau")
        if not TAU <= self.aspect_ratio <= 1.0 / TAU:
            raise ValueError("aspect ratio outside [tau, 1/tau]")


@dataclass(frozen=True)
class StieltjesValue:
    """Value of m(z) with the fixed-point defect."""

    m: complex
    residual: float = 0.0


@dataclass(frozen=True)
class SupportStructure:
    """Edges, per-bulk masses/counts and classical locations of the law.

    ``edges`` are descending (a1 > a2 > ... > a_{2L}); bulk k is the interval
    [edges[2k+1], edges[2k]].  ``classical_locations`` are descending, one per
    eigenvalue index j = 1..min(n, N).
    """

    edges: tuple[float, ...]
    bulk_masses: tuple[float, ...]
    bulk_counts: tuple[float, ...]
    classical_locations: tuple[float, ...]
    N: int

    @property
    def lambda_plus(self) -> float:
        return self.edges[0]

    @property
    def lambda_minus(self) -> float:
        return self.edges[-1]

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "bulk_counts": list(self.bulk_counts),
            "gamma": list(self.classical_locations),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


# ---------------------------------------------------------------------------
# atoms and elementary pieces of the self-consistent equation


def _tie_starts(ascending: np.ndarray) -> np.ndarray:
    """Indices in an ascending array where a new atom starts.

    A value within relative 1e-12 of its predecessor (relative to
    max(value, 1)) ties with it: this absorbs exact ties plus the
    floating-point scatter of eigensolver output.
    """
    ascending = np.asarray(ascending, dtype=float)
    gaps = np.diff(ascending) > 1e-12 * np.maximum(ascending[1:], 1.0)
    return np.concatenate([[0], np.nonzero(gaps)[0] + 1])


@lru_cache(maxsize=256)
def _atoms(pop: PopulationSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Distinct nonzero eigenvalues and their weights count/n.

    Ties (see ``_tie_starts``) are merged into one weighted atom; zero
    eigenvalues drop out of the equation entirely, so weights sum to the
    nonzero fraction.
    """
    vals = np.asarray(sorted(v for v in pop.eigenvalues if v > 0.0))
    groups = np.split(vals, _tie_starts(vals)[1:])
    merged = np.array([float(np.mean(g)) for g in groups])
    weights = np.array([len(g) for g in groups], dtype=float) / pop.n
    order = np.argsort(merged)[::-1]
    return merged[order], weights[order]


def _rungs(eta: float, top: float = 1.0) -> list[float]:
    """The eta ladder down to eta > 0: a first rung at ``top`` (at eta itself
    when eta >= top/10), then each rung max(0.2 * rung, eta) until eta is
    reached."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"the eta ladder needs a finite eta > 0, got {eta!r}")
    rungs = [eta if eta >= 0.1 * top else top]
    while rungs[-1] > eta:
        rungs.append(max(rungs[-1] * 0.2, eta))
    return rungs


def _defect_grid(
    m: np.ndarray, z: np.ndarray, d: float, vals: np.ndarray, wts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """h(m) = 1/m + z - d * avg(sigma/(1+m sigma)), zero at the solution, and
    its derivative, for arrays of m and z.

    The sums over atoms reduce each point's own row, so a point's value does
    not depend on how many points share the call (a matrix product may
    round differently with the number of rows).
    """
    r = 1.0 / (1.0 + np.multiply.outer(m, vals))
    h = 1.0 / m + z - d * np.einsum("...k,k->...", r, wts * vals)
    hp = -1.0 / m**2 + d * np.einsum("...k,k->...", r * r, wts * vals**2)
    return h, hp


def _newton_grid(
    m: np.ndarray,
    z: np.ndarray,
    d: float,
    vals: np.ndarray,
    wts: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton on h(m): each point steps until |m h(m)| <= tol, at most 60
    times, and stops early once it is non-finite.

    The points still stepping are kept packed (``live`` indexes them), so a
    step costs the same few array operations however many points have left.
    """
    m = m.copy()
    h, hp = _defect_grid(m, z, d, vals, wts)
    res = np.abs(m * h)
    live = np.nonzero(~(res <= tol))[0]
    ml, zl, hl, hpl = m[live], z[live], h[live], hp[live]
    with np.errstate(all="ignore"):  # a diverging point stops once non-finite
        for _ in range(60):
            if live.size == 0:
                break
            ml = ml - hl / hpl
            hl, hpl = _defect_grid(ml, zl, d, vals, wts)
            rl = np.abs(ml * hl)
            m[live], res[live] = ml, rl
            keep = ~(rl <= tol) & np.isfinite(rl)
            if not keep.all():
                live, ml, zl, hl, hpl = live[keep], ml[keep], zl[keep], hl[keep], hpl[keep]
    return m, res


def _off_branch(m: np.ndarray, res: np.ndarray, tol: float) -> np.ndarray:
    """Points that miss the residual tolerance or sit below the real axis.

    The sign test is relative to |m| when |m| < 1: for a spectrum of scale
    sigma, m is of order 1/sigma, and the wrong roots of Sigma = 200 I sit at
    Im m between -1e-12 and -4e-13, which an absolute -1e-12 test accepts.
    """
    return ~(res <= tol) | (m.imag < -1e-12 * np.minimum(1.0, np.abs(m)))


def _descend(
    E: np.ndarray, rungs: list[float], pop: PopulationSpectrum
) -> tuple[np.ndarray, np.ndarray]:
    """One descent of the eta ladder ``rungs`` for an array of E.

    The damped fixed point on the first rung, then Newton on each later one,
    vectorised over the points not yet converged.  No point's arithmetic
    depends on another's.  Returns m at E + i*rungs[-1] and the mask of the
    points that missed the residual tolerance on any rung or end off the
    branch (``_off_branch``).
    """
    vals, wts = _atoms(pop)
    d = pop.aspect_ratio
    z = E + 1j * rungs[0]
    m = -1.0 / z
    wv = wts * vals
    live = np.arange(E.size)
    for _ in range(MAX_ITER):
        if live.size == 0:
            break
        ml = m[live]
        avg = (wv / (1.0 + np.multiply.outer(ml, vals))).sum(axis=-1)
        step = 1.0 / (-z[live] + d * avg) - ml
        moving = ~(np.abs(step) <= NEWTON_SWITCH * np.maximum(1.0, np.abs(ml)))
        m[live[moving]] = ml[moving] + DAMPING * step[moving]
        live = live[moving & np.isfinite(step)]
    m, res = _newton_grid(m, z, d, vals, wts, RESIDUAL_TOL)
    failed = ~(res <= RESIDUAL_TOL)
    for rung in rungs[1:]:
        z = E + 1j * rung
        m, res = _newton_grid(m, z, d, vals, wts, RESIDUAL_TOL)
        failed |= ~(res <= RESIDUAL_TOL)
    return m, failed | _off_branch(m, res, RESIDUAL_TOL)


def _solve_ladder_grid(energies: np.ndarray, eta: float, pop: PopulationSpectrum) -> np.ndarray:
    """The eta ladder to E + i*eta for a whole array of E at once.

    Every point descends the rungs of ``_rungs(eta)`` (``_descend``).  The
    fixed point is stable high in the half-plane on the scale of the
    spectrum, so a point that fails descends again from a first rung of 10,
    then 100, and so on up to 1e6; a point that fails every ladder raises
    NonConvergence.
    """
    E = np.asarray(energies, dtype=float)
    top = 10.0
    with np.errstate(all="ignore"):  # a point may overflow before it is judged failed
        m, failed = _descend(E, _rungs(eta), pop)
        while failed.any() and top <= 1e6:
            k = np.nonzero(failed)[0]
            m[k], failed[k] = _descend(E[k], _rungs(eta, top), pop)
            top *= 10.0
    if failed.any():
        z = complex(E[int(np.argmax(failed))], eta)
        raise NonConvergence(f"self-consistent solve failed at z={z!r} on every eta ladder")
    return m


def _check_branch(z: np.ndarray | complex, m: np.ndarray | complex) -> None:
    """Raise BranchViolation at the first point with Im z > 0 whose m leaves
    the Nevanlinna branch (Im m < 0 or Im(z m) < 0)."""
    z, m = np.atleast_1d(z), np.atleast_1d(m)
    zm = z * m
    up = z.imag > 0
    low_m = up & (m.imag < -1e-12)
    if low_m.any():
        k = int(np.argmax(low_m))
        raise BranchViolation(f"Im m = {m[k].imag:.3e} < 0 at z = {complex(z[k])!r}")
    low_zm = up & (zm.imag < -1e-10 * np.maximum(1.0, np.abs(zm)))
    if low_zm.any():
        raise BranchViolation(f"Im(z m) < 0 at z = {complex(z[int(np.argmax(low_zm))])!r}")


def _solve_boundary(energies: np.ndarray, pop: PopulationSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """Boundary values m(E + i0) and their residuals for an array of real E.

    Each point is solved on its own, so a point's value does not depend on
    the rest of the array.  The vectorised eta ladder (``_solve_ladder_grid``)
    brings every point to E + i*ETA0; Newton at eta = 0 then converges to the
    root with Im m > 0 inside a bulk, and to the real root outside the bulks,
    started there from Re m.  Once the residual tolerance is met, one more
    Newton step polishes every point: within about 1e-4 of an edge z'(m) is
    small, and the first iterate inside the tolerance can still be 1e-9 off.
    Raises NonConvergence or BranchViolation at the first point that fails.
    """
    E = np.asarray(energies, dtype=float)
    vals, wts = _atoms(pop)
    d = pop.aspect_ratio
    m = _solve_ladder_grid(E, ETA0, pop)
    m = np.where(support_distance(E, pop) > 0.0, m.real + 0j, m)
    z = E + 0j
    m, _ = _newton_grid(m, z, d, vals, wts, RESIDUAL_TOL)
    with np.errstate(all="ignore"):  # an edge point fails the residual check below
        h, hp = _defect_grid(m, z, d, vals, wts)
        m = m - h / hp
        res = np.abs(m * _defect_grid(m, z, d, vals, wts)[0])
    failed = ~(res <= RESIDUAL_TOL)
    if failed.any():
        k = int(np.argmax(failed))
        raise NonConvergence(
            f"boundary solve failed at E={E[k]} (residual {res[k]:.3e}); "
            "the point may sit on a spectral edge"
        )
    below = m.imag < -1e-12
    if below.any():
        k = int(np.argmax(below))
        raise BranchViolation(f"boundary value has Im m = {m[k].imag:.3e} < 0 at E={E[k]}")
    return m, res


# ---------------------------------------------------------------------------
# public solver entry points


def solve_m2c_points(
    energies: np.ndarray, eta: float, pop: PopulationSpectrum
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m(E + i*eta), its residual and the density for an array of real E.

    Each point is solved on its own, so its values are those of a one-point
    call.  ``eta == 0`` encodes the boundary limit eta -> 0+ and is solved by
    ``_solve_boundary`` (every |E| must be at least OMEGA): the exact real
    root outside the support, the complex root with Im m > 0 inside, each
    polished by Newton at eta = 0; the density is Im m/pi, exactly 0 off the
    support.  ``eta > 0`` descends the vectorised eta ladder and checks the
    branch; the density is Im m(E + i*eta)/pi.  A negative or non-finite
    eta raises ValueError.
    """
    E = np.asarray(energies, dtype=float)
    if not (math.isfinite(eta) and eta >= 0.0):
        raise ValueError(
            f"expects a finite eta = Im z >= 0, got {eta!r}; conjugate the result instead"
        )
    if eta == 0.0:
        if np.any(np.abs(E) < OMEGA):
            raise ValueError(f"boundary evaluation requires |E| >= omega = {OMEGA}")
        m, res = _solve_boundary(E, pop)
        rho = np.where(support_distance(E, pop) > 0.0, 0.0, np.maximum(m.imag / math.pi, 0.0))
        return m, res, rho
    vals, wts = _atoms(pop)
    z = E + 1j * eta
    m = _solve_ladder_grid(E, eta, pop)
    _check_branch(z, m)
    res = np.abs(m * _defect_grid(m, z, pop.aspect_ratio, vals, wts)[0])
    return m, res, m.imag / math.pi


def solve_m2c(z: complex, pop: PopulationSpectrum) -> StieltjesValue:
    """Solve the self-consistent equation at z = E + i*eta, eta >= 0.

    ``solve_m2c_points`` on the one point: ``Im z == 0`` is the boundary
    limit eta -> 0+, ``Im z > 0`` descends the eta ladder.
    """
    z = complex(z)
    m, res, _ = solve_m2c_points(np.array([z.real]), z.imag, pop)
    return StieltjesValue(m=complex(m[0]), residual=float(res[0]))


_PANEL = 16  # energies per row of the march in solve_m2c_grid, the Gauss order of the quadratures


def solve_m2c_grid(energies: np.ndarray, eta: float, pop: PopulationSpectrum) -> np.ndarray:
    """Solve at E + i*eta, eta > 0, along an ascending grid of real energies.

    The grid is cut into rows of 16 consecutive energies, the last row padded
    with the last energy, and ``_solve_panels`` marches along all rows at
    once: each row starts from the vectorised eta ladder, each later point
    warm-starts from its neighbour, and one last Newton step polishes every
    point.  A grid of Gauss panels of order 16 is marched panel by panel.
    """
    E = np.asarray(energies, dtype=float)
    flat = E.ravel()
    if flat.size == 0:
        return np.empty(E.shape, dtype=complex)
    rows = -(-flat.size // _PANEL)
    padded = np.concatenate([flat, np.full(rows * _PANEL - flat.size, flat[-1])])
    m = _solve_panels(padded.reshape(rows, _PANEL), eta, pop)
    return m.ravel()[: flat.size].reshape(E.shape)


def _solve_panels(energies: np.ndarray, eta: float, pop: PopulationSpectrum) -> np.ndarray:
    """The warm-start march at E + i*eta on a (rows, cols) array whose rows
    ascend in E, vectorised across the rows.

    The first column comes from ``_solve_ladder_grid``.  Each later column
    is one vectorised Newton solve started from the column before it; a
    point that misses the residual tolerance or leaves the upper half-plane
    is re-solved by the ladder.  One last Newton step polishes every point.
    """
    E = np.asarray(energies, dtype=float)
    vals, wts = _atoms(pop)
    d = pop.aspect_ratio
    m = np.empty(E.shape, dtype=complex)
    m[:, 0] = _solve_ladder_grid(E[:, 0], eta, pop)
    for j in range(1, E.shape[1]):
        z = E[:, j] + 1j * eta
        m[:, j], res = _newton_grid(m[:, j - 1], z, d, vals, wts, RESIDUAL_TOL)
        bad = _off_branch(m[:, j], res, RESIDUAL_TOL)
        if bad.any():
            m[bad, j] = _solve_ladder_grid(E[bad, j], eta, pop)
    h, hp = _defect_grid(m, E + 1j * eta, d, vals, wts)
    return m - h / hp


def m2c_derivative(z: complex, pop: PopulationSpectrum) -> complex:
    """m'(z) by implicit differentiation of the self-consistent equation."""
    m = solve_m2c(z, pop).m
    vals, wts = _atoms(pop)
    avg_sq = complex(np.sum(wts * vals**2 / (1.0 + m * vals) ** 2))
    denom = 1.0 / m**2 - pop.aspect_ratio * avg_sq
    if abs(denom) < 1e-10:
        raise DegenerateDenominator(f"implicit-function denominator vanishes at z = {z!r}")
    return 1.0 / denom


def density_rho2c(E: float, pop: PopulationSpectrum) -> float:
    """Density of the law at E: Im m(E + i0)/pi, exactly zero off-support."""
    if E < OMEGA:
        raise ValueError(f"density requires E >= omega = {OMEGA}")
    if support_distance(E, pop) > 0.0:  # no solve: a point a hair off an edge may not converge
        return 0.0
    return float(solve_m2c_points(np.array([E]), 0.0, pop)[2][0])


# ---------------------------------------------------------------------------
# support structure: edges, bulk masses, classical locations


def _zfun(m: np.ndarray, d: float, vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    s = np.sum(wts * vals / (1.0 + np.multiply.outer(m, vals)), axis=-1)
    return -1.0 / m + d * s


def _zprime(m: np.ndarray, d: float, vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    s2 = np.sum(wts * vals**2 / (1.0 + np.multiply.outer(m, vals)) ** 2, axis=-1)
    return 1.0 / m**2 - d * s2


def _interval_samples(lo: float, hi: float) -> np.ndarray:
    """Geometric clustering toward both endpoints of a bounded interval."""
    width = hi - lo
    rel = np.geomspace(1e-9, 0.5, 200)
    fracs = np.unique(np.concatenate([rel, 1.0 - rel]))
    return lo + width * fracs


@lru_cache(maxsize=128)
def support_edges(pop: PopulationSpectrum) -> tuple[float, ...]:
    """Edges of the support in descending order (no regularity gating):
    critical values of z(m) at real critical points.

    Between consecutive poles of z(m) (at m = -1/sigma_a and m = 0) the sign
    changes of z'(m) are bracketed on geometric grids and refined by brentq.
    """
    vals, wts = _atoms(pop)
    d = pop.aspect_ratio
    poles = np.sort(-1.0 / vals)  # ascending, negative
    scale = max(1.0, abs(poles[0]))

    segments: list[np.ndarray] = []
    segments.append(poles[0] - np.geomspace(1e-9 * scale, 1e4 * scale, 400))
    for lo, hi in zip(poles[:-1], poles[1:]):
        segments.append(_interval_samples(lo, hi))
    segments.append(_interval_samples(poles[-1], 0.0))
    segments.append(np.geomspace(1e-9, 1e6, 400))

    crit: list[float] = []
    for grid in segments:
        grid = np.sort(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            zp = _zprime(grid, d, vals, wts)
        ok = np.isfinite(zp)
        grid, zp = grid[ok], zp[ok]
        sign_flip = np.nonzero(np.sign(zp[:-1]) * np.sign(zp[1:]) < 0)[0]
        for i in sign_flip:
            try:
                m_star = brentq(
                    lambda mm: float(_zprime(np.array([mm]), d, vals, wts)[0]),
                    grid[i],
                    grid[i + 1],
                    xtol=1e-14,
                    rtol=8.9e-16,
                )
            except ValueError:
                continue
            crit.append(float(_zfun(np.array([m_star]), d, vals, wts)[0]))

    crit = sorted((c for c in crit if c > 0.0), reverse=True)
    if len(crit) % 2 != 0 or not crit:
        raise EdgeDegeneracy(
            f"edge finder located {len(crit)} critical values; support is degenerate"
        )
    for a, b in zip(crit[:-1], crit[1:]):
        if a - b < 1e-8:  # below the bisection reliability floor
            raise EdgeDegeneracy(f"edges {a} and {b} coincide within 1e-8")
    return tuple(crit)


def support_distance(E: float | np.ndarray, pop: PopulationSpectrum) -> float | np.ndarray:
    """Distance from real E to the support of the law, 0 inside a bulk,
    elementwise for arrays.

    Off bulk [lo, hi] one of lo - E and E - hi is positive and is the
    distance to it.  A float difference has the sign of the exact one, so the
    distance is 0 exactly when lo <= E <= hi for some bulk.
    """
    edges = support_edges(pop)
    dist = np.inf
    for hi, lo in zip(edges[0::2], edges[1::2]):
        dist = np.minimum(dist, np.maximum(np.maximum(lo - E, E - hi), 0.0))
    return dist


@lru_cache(maxsize=None)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@dataclass(frozen=True)
class _BulkQuadrature:
    """Composite Gauss data for one bulk, in the arcsine variable t.

    x(t) = mid + half*sin(t) removes the square-root edge singularities, so a
    modest composite Gauss rule reaches the 1e-9 mass tolerance.  On panel k,
    t = (t_k + t_{k+1})/2 + s*(t_{k+1} - t_k)/2 with s in [-1, 1], and the
    integrand rho(x(t)) x'(t) is the degree-15 Legendre series in s with
    coefficients ``coeffs[k]``: the interpolant through its values at the 16
    Gauss nodes the quadrature already solved at.  Integrating that series
    gives the mass below any x without another solve.
    """

    lo: float
    hi: float
    t_bounds: np.ndarray  # panel boundaries in t
    cum_mass: np.ndarray  # cumulative integral of rho at panel boundaries
    coeffs: np.ndarray  # (panels, 16) Legendre coefficients of the integrand in s
    mass: float

    def x_of_t(self, t: np.ndarray | float) -> np.ndarray | float:
        mid, half = 0.5 * (self.lo + self.hi), 0.5 * (self.hi - self.lo)
        return mid + half * np.sin(t)


def _bulk_mass_panels(
    pop: PopulationSpectrum, lo: float, hi: float, panels: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    nodes, weights = _gl(16)
    t_bounds = np.linspace(-math.pi / 2, math.pi / 2, panels + 1)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # (panels, 16): row k holds panel k's Gauss nodes, ascending in t and x
    t_all = 0.5 * (t_bounds[:-1] + t_bounds[1:])[:, None] + 0.5 * np.diff(t_bounds)[:, None] * nodes
    m_all = _solve_panels(mid + half * np.sin(t_all), ETA0, pop)
    integrand = np.maximum(m_all.imag, 0.0) / math.pi * (half * np.cos(t_all))
    per_panel = integrand @ weights * (0.5 * (t_bounds[1:] - t_bounds[:-1]))
    cum = np.concatenate([[0.0], np.cumsum(per_panel)])
    # Gauss projection onto P_0..P_15 is exact for the degree-15 interpolant
    proj = weights[:, None] * np.polynomial.legendre.legvander(nodes, 15) * (np.arange(16) + 0.5)
    return t_bounds, cum, integrand @ proj, float(cum[-1])


@lru_cache(maxsize=64)
def _bulk_quadratures(pop: PopulationSpectrum) -> tuple[_BulkQuadrature, ...]:
    edges = support_edges(pop)
    out = []
    for k in range(len(edges) // 2):
        hi, lo = edges[2 * k], edges[2 * k + 1]
        panels = 64
        t_b, cum, coeffs, mass = _bulk_mass_panels(pop, lo, hi, panels)
        while panels < 1024:
            t_b2, cum2, coeffs2, mass2 = _bulk_mass_panels(pop, lo, hi, panels * 2)
            if abs(mass2 - mass) <= 1e-9:
                t_b, cum, coeffs, mass = t_b2, cum2, coeffs2, mass2
                break
            panels *= 2
            t_b, cum, coeffs, mass = t_b2, cum2, coeffs2, mass2
        out.append(
            _BulkQuadrature(lo=lo, hi=hi, t_bounds=t_b, cum_mass=cum, coeffs=coeffs, mass=mass)
        )
    return tuple(out)


def support_structure(pop: PopulationSpectrum, N: int) -> SupportStructure:
    """Edges, bulk masses/counts and classical locations for sample size N.

    Edges and the per-bulk quadratures are cached per spectrum.  Classical
    locations invert the cumulative mass through the quadrature's panel
    polynomials (see ``_BulkQuadrature``), so once a spectrum's quadratures
    exist, any N costs no further solves of the self-consistent equation.
    """
    d = pop.aspect_ratio
    if abs(d - 1.0) < TAU:
        raise ValueError("whole-support functionality requires |d - 1| >= tau")
    edges = support_edges(pop)
    for a, b in zip(edges[:-1], edges[1:]):
        if a - b < TAU:
            raise EdgeDegeneracy(f"edges {a} and {b} closer than tau = {TAU}")
    bulks = _bulk_quadratures(pop)
    masses = tuple(b.mass for b in bulks)
    counts = tuple(N * m for m in masses)

    n = int(round(d * N))
    K = min(n, N)
    # Descending classical locations: 1 - F(gamma_j) = (j - 1/2)/N, so the
    # mass above gamma_j inside the bulks equals (j - 1/2)/N.
    gammas = []
    tail_above = 0.0  # mass above the current bulk
    j = 1
    for b in bulks:  # bulks come ordered top-down
        within = (np.arange(j, K + 1) - 0.5) / N - tail_above  # mass in [gamma, b.hi]
        within = within[: int(np.searchsorted(within, b.mass, side="right"))]
        gammas.append(_invert_mass(b, b.mass - within))  # mass in [lo, gamma]
        j += len(within)
        tail_above += b.mass
    if j <= K:
        raise NonConvergence(
            f"classical locations exhausted the support mass at j={j} (K={K})"
        )
    gam = tuple(float(g) for g in np.concatenate(gammas))
    return SupportStructure(
        edges=edges,
        bulk_masses=masses,
        bulk_counts=counts,
        classical_locations=gam,
        N=N,
    )


def _invert_mass(bulk: _BulkQuadrature, targets: np.ndarray) -> np.ndarray:
    """The x with mass([lo, x]) = target, for each target.

    The prefix sums pick the panel holding each target; inside it, the mass
    below is cum_mass + (panel half-width) * integral of the panel's Legendre
    series, and safeguarded Newton solves for the local variable s (the
    series itself is the derivative).  A step leaving the bracket bisects.
    """
    leg = np.polynomial.legendre
    targets = np.asarray(targets, dtype=float)
    idx = np.clip(np.searchsorted(bulk.cum_mass, targets) - 1, 0, len(bulk.t_bounds) - 2)
    t_a, t_b = bulk.t_bounds[idx], bulk.t_bounds[idx + 1]
    hw = 0.5 * (t_b - t_a)
    dens = bulk.coeffs[idx].T  # (16, K): column k is target k's panel series
    prim = leg.legint(dens, lbnd=-1.0)  # integral from s = -1
    goal = (targets - bulk.cum_mass[idx]) / hw
    lo_s, hi_s = np.full(targets.shape, -1.0), np.full(targets.shape, 1.0)
    panel_goal = np.maximum(bulk.cum_mass[idx + 1] - bulk.cum_mass[idx], 1e-300) / hw
    s = np.clip(2.0 * goal / panel_goal - 1.0, -1.0, 1.0)  # linear start
    for _ in range(100):
        f = leg.legval(s, prim, tensor=False) - goal
        lo_s = np.where(f <= 0.0, s, lo_s)
        hi_s = np.where(f > 0.0, s, hi_s)
        fp = leg.legval(s, dens, tensor=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - f / fp
        bad = ~((lo_s <= s_new) & (s_new <= hi_s))  # also catches fp <= 0
        s_new = np.where(bad, 0.5 * (lo_s + hi_s), s_new)
        step = np.abs(s_new - s)
        s = s_new
        if np.all((step <= 1e-15) | (hi_s - lo_s <= 1e-15)):
            break
    x = np.asarray(bulk.x_of_t(t_a + hw * (s + 1.0)))
    return np.where(targets <= 0.0, bulk.lo, np.where(targets >= bulk.mass, bulk.hi, x))


# ---------------------------------------------------------------------------
# regularity report


@dataclass(frozen=True)
class EdgeFlags:
    edge: float
    above_tau: bool
    gap_ok: bool
    no_pole_ok: bool
    min_abs_one_plus_m_sigma: float

    @property
    def passed(self) -> bool:
        return self.above_tau and self.gap_ok and self.no_pole_ok


@dataclass(frozen=True)
class BulkFlags:
    lo: float
    hi: float
    interior_density_min: float

    @property
    def passed(self) -> bool:
        return self.interior_density_min > 0.0


@dataclass(frozen=True)
class RegularityReport:
    tau: float
    aspect_ratio_ok: bool
    whole_support_ok: bool  # |d - 1| >= tau
    sigma_max_ok: bool
    zero_mass_ok: bool
    edge_flags: tuple[EdgeFlags, ...]
    bulk_flags: tuple[BulkFlags, ...]

    @property
    def passed(self) -> bool:
        return (
            self.aspect_ratio_ok
            and self.whole_support_ok
            and self.sigma_max_ok
            and self.zero_mass_ok
            and all(e.passed for e in self.edge_flags)
            and all(b.passed for b in self.bulk_flags)
        )


def regularity_check(pop: PopulationSpectrum, tau: float = TAU) -> RegularityReport:
    """Report-only evaluation of the edge/bulk regularity conditions at
    margin ``tau``; bulk interiors are sampled ``tau`` inside their edges."""
    d = pop.aspect_ratio
    frac_small = sum(1 for v in pop.eigenvalues if v <= tau) / pop.n

    edges = support_edges(pop)
    sigmas = np.asarray(_atoms(pop)[0])
    edge_flags = []
    for a in edges:
        gaps = [abs(a - b) for b in edges if b != a]
        m_edge = solve_m2c(complex(a, ETA0), pop).m
        min_abs = float(np.min(np.abs(1.0 + m_edge * sigmas)))
        edge_flags.append(
            EdgeFlags(
                edge=a,
                above_tau=a >= tau,
                gap_ok=(min(gaps) >= tau) if gaps else True,
                no_pole_ok=min_abs >= tau,
                min_abs_one_plus_m_sigma=min_abs,
            )
        )

    bulk_flags = []
    for k in range(len(edges) // 2):
        hi, lo = edges[2 * k], edges[2 * k + 1]
        a, b = lo + tau, hi - tau
        if a >= b:
            bulk_flags.append(BulkFlags(lo=lo, hi=hi, interior_density_min=0.0))
            continue
        xs = np.linspace(a, b, 101)
        m = solve_m2c_grid(xs, ETA0, pop)
        bulk_flags.append(
            BulkFlags(lo=lo, hi=hi, interior_density_min=float(np.min(m.imag) / math.pi))
        )

    return RegularityReport(
        tau=tau,
        aspect_ratio_ok=tau <= d <= 1.0 / tau,
        whole_support_ok=abs(d - 1.0) >= tau,
        sigma_max_ok=pop.sigma_max <= 1.0 / tau,
        zero_mass_ok=frac_small <= 1.0 - tau,
        edge_flags=tuple(edge_flags),
        bulk_flags=tuple(bulk_flags),
    )


# ---------------------------------------------------------------------------
# anisotropic (direction-dependent) law


def anisotropic_density_from_weights(
    E: float, pop: PopulationSpectrum, sigmas: np.ndarray, weights: np.ndarray
) -> float:
    """Direction-resolved density with the direction given as eigenbasis
    weights: sum_k w_k * rho(E) * sigma_k / (E * |1 + m(E) sigma_k|^2)."""
    if support_distance(E, pop) > 0.0:
        return 0.0
    m = solve_m2c(complex(E, 0.0), pop).m
    rho = max(m.imag / math.pi, 0.0)
    sigmas = np.asarray(sigmas, dtype=float)
    weights = np.asarray(weights, dtype=float)
    val = rho / E * float(np.sum(weights * sigmas / np.abs(1.0 + m * sigmas) ** 2))
    return max(val, 0.0)


def anisotropic_density(
    E: float, v: np.ndarray, pop: PopulationSpectrum, eigenvectors: np.ndarray | None = None
) -> float:
    """Density of the anisotropic law along direction v.

    ``eigenvectors`` holds the population eigenvectors as columns, ordered to
    match pop.eigenvalues; None means the identity frame (diagonal Sigma).
    """
    v = as_unit_vector(v)
    if len(v) != pop.n:
        raise ValueError("direction vector length must equal the population dimension")
    vt = v if eigenvectors is None else eigenvectors.T @ v
    return anisotropic_density_from_weights(E, pop, np.asarray(pop.eigenvalues), vt**2)


def as_unit_vector(v: Iterable[float]) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= 1e-12:  # also rejects a NaN norm
        raise ValueError(f"direction vector must have unit norm (got {nrm!r})")
    return v


# ---------------------------------------------------------------------------
# closed forms for the null population (Sigma = I)


def null_mp_edges(d: float) -> tuple[float, float]:
    """(lambda_plus, lambda_minus) = ((1 +- sqrt(d))^2)."""
    r = math.sqrt(d)
    return (1.0 + r) ** 2, (1.0 - r) ** 2


def null_mp_m2c(z: complex, d: float) -> complex:
    """Closed-form m(z) for Sigma = I with the upper-half-plane branch.

    The branch sqrt((z - lm)(z - lp)) is taken factorwise with principal
    square roots, which is the analytic continuation from Im z > 0; real E is
    handled through the +0i boundary convention.
    """
    lp, lm = null_mp_edges(d)
    z = complex(z)
    s = np.sqrt(complex(z - lm)) * np.sqrt(complex(z - lp))
    m = (-(z + 1.0 - d) + s) / (2.0 * z)
    return complex(m)


def null_mp_m2c_prime(z: complex, d: float) -> complex:
    """Closed-form m'(z) for Sigma = I via implicit differentiation."""
    m = null_mp_m2c(z, d)
    denom = 1.0 / m**2 - d / (1.0 + m) ** 2
    return 1.0 / denom


# ---------------------------------------------------------------------------
# population spectrum text format: header "d_N=<real>", one eigenvalue/line


def read_spectrum_file(path) -> PopulationSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("d_N="):
        raise ValueError(f"{path}: expected header line 'd_N=<real>'")
    d = float(lines[0].split("=", 1)[1])
    vals = tuple(float(ln) for ln in lines[1:])
    if not vals:
        raise ValueError(f"{path}: no eigenvalues found")
    return PopulationSpectrum(vals, d)


def write_spectrum_file(path, pop: PopulationSpectrum) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d_N={pop.aspect_ratio!r}\n")
        for v in pop.eigenvalues:
            fh.write(f"{v!r}\n")
