"""Deterministic covariance kernels of the eigenvector-statistics CLTs.

Two families of kernels are evaluated from boundary values of m(z):

* ``alpha_kernel`` / ``alpha_hat`` carry the fourth-cumulant dependence and
  vanish identically for Gaussian entries;
* ``beta_kernel`` / ``beta_hat`` are the universal resolvent parts built from
  contractions v1^T Sigma (1+m Sigma)^{-1} (1+m' Sigma)^{-1} v2.

On top of these sit the limiting covariances of the resolvent process and of
the (global and local) linear eigenvector statistics.  The global one holds
the double integral of f_i(x1) beta(x1, x2) f_j(x2)/(x1 - x2); beta vanishes
on the diagonal, so the integrand is bounded and one product Gauss rule over
the support bulks evaluates it, the diagonal taking its analytic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutsideDomain, PositivityViolation
from .mp_law import (
    TAU,
    PopulationSpectrum,
    _atoms,
    _arcsine_rule,
    _defect_grid,
    _m_prime,
    as_unit_vector,
    solve_m2c,
    solve_m2c_grid,
    support_bulks,
    support_distance,
)
from .populations import FourthCumulantProfile, Population

__all__ = [
    "TestFunction",
    "CovarianceValue",
    "alpha_kernel",
    "beta_kernel",
    "alpha_hat",
    "beta_hat",
    "resolvent_covariance",
    "linear_stat_covariance",
    "variance_positivity",
]


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A C^1 test function on the positive half-line.

    ``bump``: exp(1 - 1/(1-u^2)) on |u| < 1 with u = (x-center)/width, zero
    elsewhere.  ``poly_gauss``: p(u) * exp(-u^2) restricted to x > 0, so its
    support is [max(center - 8 width, 0), center + 8 width]: the cut at
    x = 0 is an end of every rule that integrates it.
    """

    kind: str = "bump"
    center: float = 1.0
    width: float = 0.5
    poly_coeffs: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if self.kind not in ("bump", "poly_gauss"):
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "bump":
            return self.center - self.width, self.center + self.width
        return max(self.center - 8.0 * self.width, 0.0), self.center + 8.0 * self.width

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.width
        if self.kind == "bump":
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            ui = u[inside]
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui**2))
            return out
        out = np.polyval(self.poly_coeffs[::-1], u) * np.exp(-(u**2))
        return np.where(x > 0.0, out, 0.0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center,
            "width": self.width,
            "poly_coeffs": list(self.poly_coeffs),
        }


@dataclass(frozen=True)
class CovarianceValue:
    """A covariance evaluation with its quadrature error estimate."""

    mode: str
    value: float
    error_estimate: float

    def to_dict(self) -> dict:
        return {"mode": self.mode, "value": self.value, "error_estimate": self.error_estimate}


# ---------------------------------------------------------------------------
# boundary values of m


def _m_at(z: complex, pop: Population) -> complex:
    z = complex(z)
    if z.imag < 0:
        return np.conj(solve_m2c(np.conj(z), pop.spectrum).m)
    return solve_m2c(z, pop.spectrum).m


def _m_pair(z1: complex, z2: complex, pop: Population) -> tuple[complex, complex]:
    """m(z1) and m(z2), solved once when the points are equal."""
    m1 = _m_at(z1, pop)
    return m1, m1 if z2 == z1 else _m_at(z2, pop)


OMEGA = 1e-2  # the lower end of the paper's spectral domain: an outside E is at least OMEGA


# ---------------------------------------------------------------------------
# pointwise kernels


def alpha_kernel(
    x1: float,
    x2: float,
    v1: np.ndarray,
    v2: np.ndarray,
    pop: Population,
    kappa: FourthCumulantProfile,
) -> float:
    """Fourth-cumulant kernel at real energies (boundary values of m)."""
    v1, v2 = as_unit_vector(v1), as_unit_vector(v2)
    m1 = _m_at(complex(x1, 0.0), pop)
    m2 = _m_at(complex(x2, 0.0), pop)
    s = kappa.row_weights(pop.n)
    a1 = np.imag(m1 / x1 * pop.model.phi(m1, v1) ** 2)
    a2 = np.imag(m2 / x2 * pop.model.phi(m2, v2) ** 2)
    return float(s @ (a1 * a2))


def beta_kernel(
    x1: float,
    x2: float,
    v1: np.ndarray,
    v2: np.ndarray,
    pop: Population,
) -> float:
    """Universal two-point kernel at real energies; zero on the diagonal."""
    v1, v2 = as_unit_vector(v1), as_unit_vector(v2)
    m1 = _m_at(complex(x1, 0.0), pop)
    m2 = _m_at(complex(x2, 0.0), pop)
    c_mixed = pop.model.sigma_bilinear(m1, np.conj(m2), v1, v2)
    c_plain = pop.model.sigma_bilinear(m1, m2, v1, v2)
    term1 = np.real((m1 - np.conj(m2)) / (x1 * x2) * c_mixed**2)
    term2 = np.real((m1 - m2) / (x1 * x2) * c_plain**2)
    return float(term1 - term2)


def alpha_hat(
    z1: complex,
    z2: complex,
    v1: np.ndarray,
    v2: np.ndarray,
    pop: Population,
    kappa: FourthCumulantProfile,
) -> complex:
    """Complex fourth-cumulant kernel for the resolvent process."""
    v1, v2 = as_unit_vector(v1), as_unit_vector(v2)
    return _alpha_hat_at(z1, z2, *_m_pair(z1, z2, pop), v1, v2, pop, kappa)


def _alpha_hat_at(
    z1: complex, z2: complex, m1: complex, m2: complex, v1: np.ndarray, v2: np.ndarray,
    pop: Population, kappa: FourthCumulantProfile,
) -> complex:
    """``alpha_hat`` from m1 = m(z1) and m2 = m(z2)."""
    s = kappa.row_weights(pop.n)
    p1 = pop.model.phi(m1, v1) ** 2
    p2 = pop.model.phi(m2, v2) ** 2
    return complex(m1 * m2 / (complex(z1) * complex(z2)) * np.sum(s * p1 * p2))


def beta_hat(
    z1: complex,
    z2: complex,
    v1: np.ndarray,
    v2: np.ndarray,
    pop: Population,
) -> complex:
    """Universal resolvent kernel; the difference quotient of m becomes
    m'(z1) when the arguments coincide."""
    v1, v2 = as_unit_vector(v1), as_unit_vector(v2)
    z1, z2 = complex(z1), complex(z2)
    return _beta_hat_at(z1, z2, *_m_pair(z1, z2, pop), v1, v2, pop)


def _beta_hat_at(
    z1: complex, z2: complex, m1: complex, m2: complex, v1: np.ndarray, v2: np.ndarray,
    pop: Population,
) -> complex:
    """``beta_hat`` from m1 = m(z1) and m2 = m(z2); points within 1e-10 count
    as one, with m1 on both sides and m'(z1) as the difference quotient."""
    if abs(z1 - z2) < 1e-10:
        m2 = m1
        if z1.imag < 0:
            dq = np.conj(_m_prime(np.conj(m1), np.conj(z1), pop.spectrum))
        else:
            dq = _m_prime(m1, z1, pop.spectrum)
    else:
        dq = (m1 - m2) / (z1 - z2)
    c = pop.model.sigma_bilinear(m1, m2, v1, v2)
    return complex(2.0 * dq / (z1 * z2) * c**2)


def resolvent_covariance(
    mode: str,
    pop: Population,
    v1: np.ndarray,
    v2: np.ndarray,
    *,
    kappa: FourthCumulantProfile | None = None,
    z1: complex | None = None,
    z2: complex | None = None,
    E: float | None = None,
    w1: complex | None = None,
    w2: complex | None = None,
) -> complex:
    """Limiting covariance of the resolvent process.

    ``global``: alpha_hat + beta_hat at (z1, z2) in the upper/lower planes.
    ``local``: the indicator-gated bulk covariance at real E with scale
    directions w1, w2.  ``outside``: the real variance kernel at E at least
    TAU off the support (raises OutsideDomain otherwise), alpha_hat +
    beta_hat at (E, E).  Each point's m is solved once.  A point that is
    not finite raises ValueError.
    """
    if not all(np.isfinite(complex(x)) for x in (E, z1, z2, w1, w2) if x is not None):
        raise ValueError(f"spectral points must be finite, got E={E}, z1={z1}, z2={z2}")
    if mode == "local":
        if E is None or w1 is None or w2 is None:
            raise ValueError("local mode needs E, w1, w2")
        if (complex(w1).imag) * (complex(w2).imag) >= 0:
            return 0.0 + 0.0j
        m = _m_at(complex(E, 0.0), pop)
        c = pop.model.sigma_bilinear(m, np.conj(m), v1, v2)
        return complex(4.0j * m.imag / (E**2 * (complex(w1) - complex(w2))) * c**2)
    if mode == "outside":
        if E is None:
            raise ValueError("outside mode needs E")
        if E < OMEGA or support_distance(E, pop.spectrum) < TAU:
            raise OutsideDomain(f"E = {E} is not at distance >= {TAU} from the support")
        z1 = z2 = E
    elif mode != "global":
        raise ValueError(f"unknown mode {mode!r}")
    elif z1 is None or z2 is None:
        raise ValueError("global mode needs z1, z2")
    kappa = kappa or FourthCumulantProfile.gaussian()
    v1, v2 = as_unit_vector(v1), as_unit_vector(v2)
    z1, z2 = complex(z1), complex(z2)
    m1, m2 = _m_pair(z1, z2, pop)
    val = _alpha_hat_at(z1, z2, m1, m2, v1, v2, pop, kappa)
    val += _beta_hat_at(z1, z2, m1, m2, v1, v2, pop)
    return float(np.real(val)) if mode == "outside" else val


def variance_positivity(
    E: float,
    v: np.ndarray,
    pop: Population,
    kappa: FourthCumulantProfile,
) -> float:
    """alpha_hat + beta_hat at (E, E, v, v), the outside ``resolvent_covariance``
    of v with itself; provably >= 0 off the support."""
    val = resolvent_covariance("outside", pop, v, v, kappa=kappa, E=E)
    if val < -1e-12:
        raise PositivityViolation(f"variance kernel evaluated to {val} < -1e-12")
    return val


# ---------------------------------------------------------------------------
# linear-statistic covariances


def _bulk_panels(pop: Population, total_points: int) -> tuple[tuple[float, float, int], ...]:
    """The support bulks (lo, hi), ascending, each with its number of 16-node
    Gauss panels: about ``total_points`` nodes shared in proportion to the
    bulk widths, and at least 4 panels in every bulk."""
    bulks = support_bulks(pop.spectrum)[::-1]
    widths = np.array([hi - lo for lo, hi in bulks])
    alloc = np.maximum((total_points * widths / widths.sum()).astype(int), 64)
    return tuple((lo, hi, max(int(pts) // 16, 4)) for (lo, hi), pts in zip(bulks, alloc))


@lru_cache(maxsize=64)
def _support_nodes(
    spectrum: PopulationSpectrum, bulks: tuple[tuple[float, float, int], ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes/weights over the support bulks plus m and m' on the
    nodes, as read-only arrays.

    Each bulk takes ``mp_law._arcsine_rule``, which absorbs the square-root
    edge factors; the integrands of the covariance formulas all vanish
    identically off the support, so no exterior panels are needed.  The
    rows that ``solve_m2c_grid`` marches are exactly the rule's panels, at
    eta = 0: m is the boundary value m(x + i0), and m' = -1/h'(m) comes from
    the solver's defect derivative.  Cached: a family of covariances on one
    spectrum solves once.
    """
    xs, ws = zip(*(_arcsine_rule(lo, hi, panels) for lo, hi, panels in bulks))
    x = np.concatenate(xs)
    vals, wts = _atoms(spectrum)
    m = solve_m2c_grid(x, 0.0, spectrum)
    mp = -1.0 / _defect_grid(m, x + 0j, spectrum.aspect_ratio, vals, wts)[1]
    out = (x, np.concatenate(ws), m, mp)
    for arr in out:
        arr.setflags(write=False)
    return out


def _contraction_factors(
    sig: np.ndarray, wts: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """C(ma, mb) = v1^T Sigma (1+ma Sigma)^{-1} (1+mb Sigma)^{-1} v2 is a sum
    over the atoms (sigma, w) = ``pair_weights(v1, v2)``: left[a] @ right[b]
    with left = w sigma/(1+m sigma) and right = 1/(1+m sigma) at the points m,
    and C(ma, conj mb) = left[a] @ conj(right[b]) because sigma is real."""
    denom = 1.0 + np.multiply.outer(m, sig)
    return (wts * sig) / denom, 1.0 / denom


def linear_stat_covariance(
    mode: str,
    f_i: TestFunction,
    f_j: TestFunction,
    v_i: np.ndarray,
    v_j: np.ndarray,
    E: float,
    eta: float,
    pop: Population,
    kappa: FourthCumulantProfile,
    *,
    grid_points: int = 2000,
) -> CovarianceValue:
    """Limiting covariance of linear eigenvector statistics.

    ``global`` evaluates the three-term formula (fourth-cumulant double
    integral, double integral of beta(x1, x2)/(x1 - x2), and the diagonal
    density term) by a product Gauss rule on about ``grid_points`` nodes over
    the support bulks.  The integrand of the beta term is bounded, because
    beta vanishes on the diagonal, so no principal value is needed.  Only
    the nodes inside supp f_i U supp f_j enter the sums, so the cost scales
    with those nodes: the beta term with their square, the other two terms
    linearly.  ``local`` evaluates the single-scale product formula at E,
    which is eta-free, with the integral of f_i f_j by ``mp_law._arcsine_rule``
    (16 panels) on supp f_i & supp f_j, 0 if they do not overlap.  The error
    estimate of both is the change of the value when the rule has half its
    panels, plus 1e-9 of the value.
    """
    v_i, v_j = as_unit_vector(v_i), as_unit_vector(v_j)
    if mode == "local":
        lo = max(f_i.support[0], f_j.support[0])
        hi = min(f_i.support[1], f_j.support[1])
        if hi <= lo or support_distance(E, pop.spectrum) > 0.0:
            return CovarianceValue("local", 0.0, 0.0)
        m = _m_at(complex(E, 0.0), pop)
        rho = max(m.imag / math.pi, 0.0)
        c = pop.model.sigma_bilinear(m, np.conj(m), v_i, v_j)
        scale = 2.0 * rho / E**2 * float(np.real(c**2))
        value, coarse = (
            scale * float(np.sum(w * f_i(u) * f_j(u)))
            for u, w in (_arcsine_rule(lo, hi, 16), _arcsine_rule(lo, hi, 8))
        )
    elif mode == "global":
        bulks = _bulk_panels(pop, grid_points)
        value = _global_covariance(f_i, f_j, v_i, v_j, pop, kappa, bulks)
        halved = tuple((lo, hi, panels // 2) for lo, hi, panels in bulks)
        coarse = _global_covariance(f_i, f_j, v_i, v_j, pop, kappa, halved)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return CovarianceValue(mode, value, abs(value - coarse) + 1e-9 * abs(value))


def _global_covariance(
    f_i: TestFunction,
    f_j: TestFunction,
    v_i: np.ndarray,
    v_j: np.ndarray,
    pop: Population,
    kappa: FourthCumulantProfile,
    bulks: tuple[tuple[float, float, int], ...],
) -> float:
    """The three terms of the global covariance by one product rule on the
    nodes of ``bulks`` (see ``_support_nodes``).

    Every term carries f_i or f_j at each node, so a node where both vanish
    adds exactly zero: the terms run on the live nodes only, where f_i or
    f_j is nonzero, and a function nonzero on every node keeps them all.
    """
    x, w, m, mp = _support_nodes(pop.spectrum, bulks)
    fi_x, fj_x = f_i(x), f_j(x)
    live = (fi_x != 0.0) | (fj_x != 0.0)
    if not live.all():
        x, w, m, mp, fi_x, fj_x = (arr[live] for arr in (x, w, m, mp, fi_x, fj_x))

    # fourth-cumulant term: separable over original coordinates
    term1 = 0.0
    if not kappa.is_zero:
        s = kappa.row_weights(pop.n)
        rows_i = np.imag((m / x)[:, None] * pop.model.phi(m, v_i) ** 2)  # (nodes, n)
        rows_j = rows_i if v_j is v_i else np.imag((m / x)[:, None] * pop.model.phi(m, v_j) ** 2)
        ai = rows_i.T @ (w * fi_x)  # (n,)
        aj = rows_j.T @ (w * fj_x)
        term1 = float(np.sum(s * ai * aj)) / math.pi**2

    # beta term: beta(x_a, x_b)/(x_a - x_b) is bounded (see ``_beta_contraction``)
    beta, c0 = _beta_contraction(pop, v_i, v_j, x, m, mp, w * fi_x / x, w * fj_x / x)
    term2 = beta / math.pi**2

    # diagonal density term: C0 = C(m_a, conj m_a)
    rho = np.maximum(m.imag, 0.0) / math.pi
    term3 = 2.0 * float(np.sum(w * fi_x * fj_x * rho / x**2 * np.real(c0**2)))

    return term1 + term2 + term3


BLOCK = 32  # rows of the beta kernel held at once: 32 x 2000 complex entries are 1 MiB, inside L2


def _beta_contraction(
    pop: Population, v_i: np.ndarray, v_j: np.ndarray, x: np.ndarray, m: np.ndarray,
    mp: np.ndarray, p: np.ndarray, q: np.ndarray,
) -> tuple[float, np.ndarray]:
    """p^T K q for K[a, b] = x_a x_b beta(x_a, x_b)/(x_a - x_b) on the nodes x
    (m and m' given there), and C0 = C(m_a, conj m_a).

    Off the diagonal K = Re[(m_a - conj m_b) Cm^2 - (m_a - m_b) Cp^2]/(x_a - x_b)
    with Cm = C(m_a, conj m_b) and Cp = C(m_a, m_b).  K is symmetric: swapping
    the nodes conjugates Cm, leaves Cp and negates both m differences and
    x_a - x_b.  So only the blocks on and above the diagonal are formed, and
    K is never held whole: BLOCK rows R at a time, against the columns from
    R's first row on, Cm^2 and Cp^2 are scaled by 1/(x_a - x_b), taken 0 on
    the diagonal and halved on the square R x R, and applied to q, conj(m) q,
    p, conj(m) p and their twins with m, which adds p_R (K q)_R + q_R (K p)_R.
    Memory is O(BLOCK * nodes).  The diagonal is the limit ``_beta_diagonal``.
    """
    sig, wts = pop.model.pair_weights(v_i, v_j)
    left, right = _contraction_factors(sig, wts, m)
    right_c = np.conj(right)
    mc = np.conj(m)
    rhs_mixed = np.stack([q, mc * q, p, mc * p], 1)
    rhs_plain = np.stack([q, m * q, p, m * p], 1)
    total = 0.0
    for start in range(0, len(x), BLOCK):
        rows, cols = slice(start, start + BLOCK), slice(start, None)
        recip = np.subtract.outer(x[rows], x[cols])
        np.fill_diagonal(recip, 1.0)
        np.reciprocal(recip, out=recip)
        np.fill_diagonal(recip, 0.0)
        recip[:, :BLOCK] *= 0.5
        cm = left[rows] @ right_c[cols].T
        cm *= cm
        cm *= recip
        cp = left[rows] @ right[cols].T
        cp *= cp
        cp *= recip
        pm, pp = cm @ rhs_mixed[cols], cp @ rhs_plain[cols]
        acc = m[rows, None] * (pm[:, 0::2] - pp[:, 0::2]) - pm[:, 1::2] + pp[:, 1::2]
        total += float(p[rows] @ acc[:, 0].real + q[rows] @ acc[:, 1].real)
    diag, c0 = _beta_diagonal(sig, wts, m, mp)
    return total + float(np.sum(p * diag * q)), c0


def _beta_diagonal(
    sig: np.ndarray, wts: np.ndarray, m: np.ndarray, mp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal K[a, a] of ``_beta_contraction``'s kernel, and C0.

    beta(x, x) = 0 because C0 is real, so the quotient is bounded and its
    diagonal is the limit x_b -> x_a:
    -Re[-conj(m') C0^2 + 4i Im m C0 dC conj(m') + m' Cp^2], with Cp = C(m, m)
    and dC the derivative of C(m, mb) in mb at mb = conj m.
    """
    lo = 1.0 + np.multiply.outer(m, sig)
    hi = 1.0 + np.multiply.outer(np.conj(m), sig)
    c0 = np.sum(wts * sig / (lo * hi), axis=1)
    cp = np.sum(wts * sig / lo**2, axis=1)
    dc = -np.sum(wts * sig**2 / (lo * hi**2), axis=1)
    mpc = np.conj(mp)
    return -np.real(-mpc * c0**2 + 4j * m.imag * c0 * dc * mpc + mp * cp**2), c0
