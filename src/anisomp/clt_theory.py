"""Deterministic covariance kernels of the eigenvector-statistics CLTs.

Two families of kernels are evaluated from boundary values of m(z):

* ``alpha_kernel`` / ``alpha_hat`` carry the fourth-cumulant dependence and
  vanish identically for Gaussian entries;
* ``beta_kernel`` / ``beta_hat`` are the universal resolvent parts built from
  contractions v1^T Sigma (1+m Sigma)^{-1} (1+m' Sigma)^{-1} v2.

On top of these sit the limiting covariances of the resolvent process and of
the (global and local) linear eigenvector statistics, the latter requiring a
principal-value double integral handled by delta-regularization with
Richardson extrapolation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutsideDomain, PositivityViolation, QuadratureFailure
from .mp_law import (
    ETA0,
    OMEGA,
    TAU,
    as_unit_vector,
    m2c_derivative,
    solve_m2c,
    solve_m2c_grid,
    support_distance,
    support_edges,
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
    "pv_double_integral",
    "variance_positivity",
]


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A C^1 test function on the positive half-line.

    ``bump``: exp(1 - 1/(1-u^2)) on |u| < 1 with u = (x-center)/width, zero
    elsewhere.  ``poly_gauss``: p(u) * exp(-u^2) restricted to x > 0 (support
    treated as |u| <= 8 for quadrature purposes).
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
        half = self.width if self.kind == "bump" else 8.0 * self.width
        return self.center - half, self.center + half

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

    def derivative(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.width
        if self.kind == "bump":
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            ui = u[inside]
            f = np.exp(1.0 - 1.0 / (1.0 - ui**2))
            out[inside] = f * (-2.0 * ui / (1.0 - ui**2) ** 2) / self.width
            return out
        p = np.asarray(self.poly_coeffs)
        dp = p[1:] * np.arange(1, len(p))
        val = (np.polyval(dp[::-1], u) if len(dp) else 0.0) - 2.0 * u * np.polyval(
            p[::-1], u
        )
        return np.where(x > 0.0, val * np.exp(-(u**2)) / self.width, 0.0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": self.center,
            "width": self.width,
            "poly_coeffs": list(self.poly_coeffs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "TestFunction":
        return cls(
            kind=data.get("kind", "bump"),
            center=float(data["center"]),
            width=float(data["width"]),
            poly_coeffs=tuple(data.get("poly_coeffs", (1.0,))),
        )


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


def _m_prime_at(z: complex, pop: Population) -> complex:
    z = complex(z)
    if z.imag < 0:
        return np.conj(m2c_derivative(np.conj(z), pop.spectrum))
    return m2c_derivative(z, pop.spectrum)


def _require_outside(E: float, pop: Population) -> None:
    if E < OMEGA or support_distance(E, pop.spectrum) < TAU:
        raise OutsideDomain(f"E = {E} is not at distance >= {TAU} from the support")


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
    m1 = _m_at(z1, pop)
    m2 = _m_at(z2, pop)
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
    m1 = _m_at(z1, pop)
    if abs(z1 - z2) < 1e-10:
        dq = _m_prime_at(z1, pop)
        m2 = m1
    else:
        m2 = _m_at(z2, pop)
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
    TAU off the support (raises OutsideDomain otherwise).
    """
    if mode == "global":
        if z1 is None or z2 is None:
            raise ValueError("global mode needs z1, z2")
        kappa = kappa or FourthCumulantProfile.gaussian()
        return alpha_hat(z1, z2, v1, v2, pop, kappa) + beta_hat(z1, z2, v1, v2, pop)
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
        kappa = kappa or FourthCumulantProfile.gaussian()
        _require_outside(E, pop)
        val = alpha_hat(E, E, v1, v2, pop, kappa) + beta_hat(E, E, v1, v2, pop)
        return float(np.real(val))
    raise ValueError(f"unknown mode {mode!r}")


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
# principal-value double integrals


def _gl_panels(lo: float, hi: float, panels: int, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    bounds = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (bounds[:-1] + bounds[1:])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def _pv_on_grid(
    values: np.ndarray,
    x1: np.ndarray,
    w1: np.ndarray,
    x2: np.ndarray,
    w2: np.ndarray,
    base_delta: float | None = None,
) -> tuple[float, float]:
    """delta-regularized PV of values(x1, x2)/(x1 - x2) with Richardson.

    The regularized kernel Re[1/((x1-x2)+i delta)] is integrated at deltas
    {h, h/2, h/4}; the extrapolation rate is measured from the triple and
    clamped to [1/3, 2.5], consistent with the 1/3-rate worst-case bound for
    Hoelder-1/2 integrands.
    """
    diff = x1[:, None] - x2[None, :]
    if base_delta is None:
        # deltas must stay above the node spacing: on a fixed grid the
        # regularized sum converges to the (biased) raw lattice sum, not to
        # the principal value, once the Lorentzian is unresolved
        base_delta = 4.0 * float(
            max(np.max(np.diff(np.sort(x1))), np.max(np.diff(np.sort(x2))))
        )
    deltas = [base_delta, base_delta / 2.0, base_delta / 4.0]
    ints = []
    wv = w1[:, None] * values * w2[None, :]
    for dl in deltas:
        kern = diff / (diff * diff + dl * dl)
        ints.append(float(np.sum(wv * kern)))
    i0, i1, i2 = ints
    floor = 5e-13 * float(np.sum(np.abs(wv))) + 1e-300
    d01, d12 = i0 - i1, i1 - i2
    if abs(d12) <= floor:
        return i2, floor + abs(d12)
    if abs(d12) > 2.0 * abs(d01) + floor:
        raise QuadratureFailure(
            f"PV regularization diverges under delta halving ({d01:.3e} -> {d12:.3e})"
        )
    p = math.log2(max(abs(d01) / abs(d12), 1e-12))
    p = min(max(p, 1.0 / 3.0), 2.5)
    # Smooth integrands expand in integer powers of delta; snapping the
    # measured rate makes the two first-level extrapolants disagree by the
    # genuine next-order term (with only three deltas the measured-rate
    # extrapolants coincide identically and carry no error signal).
    snap = round(2.0 * p) / 2.0
    snapped = snap >= 0.5 and abs(p - snap) < 0.1
    if snapped:
        p = snap
    r = 2.0**p
    e1 = (r * i1 - i0) / (r - 1.0)
    e2 = (r * i2 - i1) / (r - 1.0)
    r2 = 2.0 ** (p + 1.0)
    val = (r2 * e2 - e1) / (r2 - 1.0)
    if snapped:
        err = abs(e2 - e1) + 0.5 * abs(val - e2) + floor
    else:
        err = 0.5 * abs(d12) + floor
    return val, err


def pv_double_integral(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    box: tuple[float, float, float, float],
    *,
    n_panels: int = 96,
    order: int = 8,
    base_delta: float | None = None,
) -> tuple[float, float]:
    """PV integral of g(x1, x2)/(x1 - x2) over [a1, b1] x [a2, b2].

    ``g`` must accept broadcasting arrays.  Returns (value, error estimate);
    the estimate bounds the change under halving the base delta.
    """
    a1, b1, a2, b2 = box
    x1, w1 = _gl_panels(a1, b1, n_panels, order)
    x2, w2 = _gl_panels(a2, b2, n_panels + 1, order)  # staggered: avoids x1 == x2
    values = np.asarray(g(x1[:, None], x2[None, :]), dtype=float)
    if values.shape != (len(x1), len(x2)):
        values = np.broadcast_to(values, (len(x1), len(x2)))
    return _pv_on_grid(values, x1, w1, x2, w2, base_delta)


# ---------------------------------------------------------------------------
# linear-statistic covariances


def _support_nodes(
    pop: Population, total_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes/weights over the support bulks plus m on the nodes.

    Each bulk is mapped through x = mid + half*sin(t), which absorbs the
    square-root edge factors; the integrands of the covariance formulas all
    vanish identically off the support, so no exterior panels are needed.
    Every bulk holds whole 16-node Gauss panels and the nodes ascend, so the
    rows that ``solve_m2c_grid`` marches are exactly these panels.
    """
    edges = support_edges(pop.spectrum)
    bulks = [(edges[2 * k + 1], edges[2 * k]) for k in range(len(edges) // 2)]
    bulks = bulks[::-1]  # ascending
    widths = np.array([hi - lo for lo, hi in bulks])
    alloc = np.maximum((total_points * widths / widths.sum()).astype(int), 64)
    xs, ws = [], []
    for (lo, hi), pts in zip(bulks, alloc):
        panels = max(pts // 16, 4)
        t, wt = _gl_panels(-math.pi / 2, math.pi / 2, panels, 16)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        xs.append(mid + half * np.sin(t))
        ws.append(wt * half * np.cos(t))
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    order = np.argsort(x)
    x, w = x[order], w[order]
    m = solve_m2c_grid(x, ETA0, pop.spectrum)
    return x, w, m


def _contraction_grid(
    pop: Population,
    v1: np.ndarray,
    v2: np.ndarray,
    ma: np.ndarray,
    mb: np.ndarray,
) -> np.ndarray:
    """C(ma_i, mb_j) = v1^T Sigma (1+ma_i Sigma)^{-1} (1+mb_j Sigma)^{-1} v2.

    A sum over the distinct eigenvalues sigma_k, so the whole grid is one
    product of (len(ma), k) and (k, len(mb)) factors.
    """
    sig, wts = pop.model.pair_weights(v1, v2)
    left = (wts * sig) / (1.0 + np.multiply.outer(ma, sig))
    right = 1.0 / (1.0 + np.multiply.outer(mb, sig))
    return left @ right.T


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
    integral, PV double integral of the beta kernel, and the diagonal density
    term); ``local`` evaluates the single-scale product formula at E, which
    is eta-free.
    """
    v_i, v_j = as_unit_vector(v_i), as_unit_vector(v_j)
    if mode == "local":
        if support_distance(E, pop.spectrum) > 0.0:
            return CovarianceValue("local", 0.0, 0.0)
        m = _m_at(complex(E, 0.0), pop)
        rho = max(m.imag / math.pi, 0.0)
        c = pop.model.sigma_bilinear(m, np.conj(m), v_i, v_j)
        lo = min(f_i.support[0], f_j.support[0])
        hi = max(f_i.support[1], f_j.support[1])
        u, wu = _gl_panels(lo, hi, 64, 8)
        ff = float(np.sum(wu * f_i(u) * f_j(u)))
        val = 2.0 * rho / E**2 * float(np.real(c**2)) * ff
        return CovarianceValue("local", val, abs(val) * 1e-10 + 1e-14)
    if mode != "global":
        raise ValueError(f"unknown mode {mode!r}")

    x, w, m = _support_nodes(pop, grid_points)
    fi_x, fj_x = f_i(x), f_j(x)

    # fourth-cumulant term: separable over original coordinates
    term1 = 0.0
    if not kappa.is_zero:
        s = kappa.row_weights(pop.n)
        rows_i = np.imag((m / x)[:, None] * pop.model.phi(m, v_i) ** 2)  # (nodes, n)
        rows_j = np.imag((m / x)[:, None] * pop.model.phi(m, v_j) ** 2)
        ai = rows_i.T @ (w * fi_x)  # (n,)
        aj = rows_j.T @ (w * fj_x)
        term1 = float(np.sum(s * ai * aj)) / math.pi**2

    # PV term of the beta kernel
    c_mixed = _contraction_grid(pop, v_i, v_j, m, np.conj(m))
    c_plain = _contraction_grid(pop, v_i, v_j, m, m)
    mdiff_mixed = m[:, None] - np.conj(m)[None, :]
    mdiff_plain = m[:, None] - m[None, :]
    inv_xx = 1.0 / np.multiply.outer(x, x)
    beta_grid = np.real(mdiff_mixed * inv_xx * c_mixed**2) - np.real(
        mdiff_plain * inv_xx * c_plain**2
    )
    values = fi_x[:, None] * beta_grid * fj_x[None, :]
    pv_val, pv_err = _pv_on_grid(values, x, w, x, w, base_delta=None)
    term2 = pv_val / math.pi**2

    # diagonal density term: C(m_i, conj m_i) is the diagonal of c_mixed
    c_diag = np.diagonal(c_mixed)
    rho = np.maximum(m.imag, 0.0) / math.pi
    term3 = 2.0 * float(np.sum(w * fi_x * fj_x * rho / x**2 * np.real(c_diag**2)))

    value = term1 + term2 + term3
    return CovarianceValue("global", value, pv_err / math.pi**2 + 1e-9 * abs(value))
