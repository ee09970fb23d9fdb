"""Reference values computed apart from anisomp, with NumPy and SciPy only.

Nothing here imports anisomp.  Every quantity the benchmark checks the
program against is recomputed from its definition:

* the Marchenko-Pastur law for Sigma = I (edges, density, m(E + i0) and the
  classical locations, by ``quad`` + ``brentq`` on the closed-form density);
* the outside variance kernel of R_vv(E) for a diagonal Sigma, from the real
  root of the self-consistent equation (``brentq``) and m' by implicit
  differentiation;
* the Sigma = I covariance of linear eigenvector statistics and its
  fourth-cumulant shift, by composite Gauss-Legendre quadrature;
* the four-step sphericity statistic, by an SVD and dense linear solves;
* binomial and chi-square bounds for the Monte-Carlo outputs, set from the
  trial counts and the reference variances, never from the draws.

References are computed afresh in every run; none is cached.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtri
from scipy.stats import binom, chi2

# Tail probability of every statistical bound: one false alarm in about
# three million checks, so a correct program does not trip a check across
# the benchmark's repeated runs.
TAIL = 3e-7


def bump(x, center: float, width: float) -> np.ndarray:
    """exp(1 - 1/(1 - u^2)) on |u| < 1, u = (x - center)/width; 0 elsewhere."""
    u = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


# ---------------------------------------------------------------------------
# Marchenko-Pastur law for Sigma = I (mass d on the bulk, 1 - d at zero)


def mp_edges(d: float) -> tuple[float, float]:
    """(upper, lower) edge: (1 +- sqrt d)^2."""
    r = math.sqrt(d)
    return (1.0 + r) ** 2, (1.0 - r) ** 2


def mp_m(E: float, d: float) -> complex:
    """m(E + i0) = integral of dF(x)/(x - E - i0) for the companion law."""
    up, lo = mp_edges(d)
    b = -(E + 1.0 - d)
    if E > up:
        s = math.sqrt((E - lo) * (E - up))
    elif E < lo:
        s = -math.sqrt((lo - E) * (up - E))
    else:
        s = 1j * math.sqrt((E - lo) * (up - E))
    return complex((b + s) / (2.0 * E))


def _bulk_t_rule(lo: float, hi: float, panels: int = 400, order: int = 20):
    """Composite Gauss-Legendre nodes in t for x = mid + half sin t.

    The substitution turns the square-root edge factors into cos t, so the
    integrands below are smooth in t.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    b = np.linspace(-math.pi / 2, math.pi / 2, panels + 1)
    t = (0.5 * (b[:-1] + b[1:])[:, None] + 0.5 * np.diff(b)[:, None] * nodes).ravel()
    wt = (0.5 * np.diff(b)[:, None] * weights).ravel()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * np.sin(t), wt * half * np.cos(t)


def mp_mass_above(x: float, d: float) -> float:
    """Integral of the density sqrt((up - y)(y - lo))/(2 pi y) over [x, up]."""
    up, lo = mp_edges(d)
    mid, half = 0.5 * (up + lo), 0.5 * (up - lo)
    t0 = math.asin(min(1.0, max(-1.0, (x - mid) / half)))

    def integrand(t: float) -> float:
        y = mid + half * math.sin(t)
        return (half * math.cos(t)) ** 2 / (2.0 * math.pi * y)

    return quad(integrand, t0, math.pi / 2, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


def mp_classical_locations(d: float, N: int, K: int) -> np.ndarray:
    """gamma_j with N * mass([gamma_j, up]) = j - 1/2, j = 1..K, descending."""
    up, lo = mp_edges(d)
    out = np.empty(K)
    for j in range(1, K + 1):
        target = (j - 0.5) / N
        out[j - 1] = brentq(
            lambda x: mp_mass_above(x, d) - target, lo, up, xtol=1e-14, rtol=1e-15
        )
    return out


# ---------------------------------------------------------------------------
# outside variance kernel for diagonal Sigma


def outside_variance(E: float, d: float, diag, v, kappa: float) -> float:
    """alpha_hat + beta_hat at (E, E, v, v) for Sigma = diag(diag), E > support.

    m is the real root of E = -1/m + d * mean(s/(1 + m s)) between the
    critical point nearest 0 and 0; m' = 1/z'(m).  The beta term is
    2 m'/E^2 * (sum v_i^2 s_i/(1 + m s_i)^2)^2 and the kappa4 term is
    kappa m^2/E^2 * sum (v_i^2 s_i/(1 + m s_i)^2)^2.
    """
    s = np.asarray(diag, dtype=float)
    vv = np.asarray(v, dtype=float) ** 2

    def z(m: float) -> float:
        return -1.0 / m + d * float(np.mean(s / (1.0 + m * s)))

    def zp(m: float) -> float:
        return 1.0 / m**2 - d * float(np.mean(s**2 / (1.0 + m * s) ** 2))

    pole = -1.0 / float(np.max(s))
    u = np.concatenate([np.geomspace(1e-9, 0.5, 400), 1.0 - np.geomspace(0.5, 1e-12, 800)[1:]])
    ms = pole * u
    zps = np.array([zp(m) for m in ms])
    k = int(np.argmax(zps < 0.0))
    if zps[k] >= 0.0:
        raise ValueError("no critical point of z(m) found")
    m_c = brentq(zp, ms[k - 1], ms[k], xtol=1e-16, rtol=1e-15)
    if not z(m_c) < E:
        raise ValueError(f"E = {E} is not above the support edge {z(m_c)}")
    m = brentq(lambda x: z(x) - E, m_c, pole * 1e-12, xtol=1e-17, rtol=1e-15)
    for _ in range(2):
        m -= (z(m) - E) / zp(m)
    m_prime = 1.0 / zp(m)
    q = vv * s / (1.0 + m * s) ** 2
    beta = 2.0 * m_prime / E**2 * float(np.sum(q)) ** 2
    alpha = kappa * m**2 / E**2 * float(np.sum(q**2))
    return beta + alpha


# ---------------------------------------------------------------------------
# linear-statistic covariances for Sigma = I


def identity_linear_cov(f, g, d: float) -> float:
    """2/d (int f g rho - int f rho int g rho), rho the normalized MP density."""
    up, lo = mp_edges(d)
    x, w = _bulk_t_rule(lo, up)
    dens = w * np.sqrt(np.maximum((up - x) * (x - lo), 0.0)) / (2.0 * math.pi * d * x)
    fx, gx = f(x), g(x)
    return 2.0 / d * (float(np.sum(fx * gx * dens)) - float(np.sum(fx * dens)) * float(np.sum(gx * dens)))


def identity_kappa_shift(f, g, d: float, v, kappa: float) -> float:
    """kappa sum v_i^4 A_f A_g / pi^2, A_f = int Im(m/(x (1+m)^2)) f(x) dx."""
    up, lo = mp_edges(d)
    x, w = _bulk_t_rule(lo, up)
    m = (-(x + 1.0 - d) + 1j * np.sqrt(np.maximum((x - lo) * (up - x), 0.0))) / (2.0 * x)
    kern = np.imag(m / (x * (1.0 + m) ** 2)) * w
    a_f, a_g = float(np.sum(kern * f(x))), float(np.sum(kern * g(x)))
    v4 = float(np.sum(np.asarray(v, dtype=float) ** 4))
    return kappa * v4 * a_f * a_g / math.pi**2


def identity_local_cov(f, g, support: tuple[float, float], E: float, d: float) -> float:
    """2 rho(E)/E^2 |1 + m|^-4 int f g for Sigma = I and a unit direction."""
    m = mp_m(E, d)
    rho = m.imag / math.pi
    lo, hi = support
    nodes, weights = np.polynomial.legendre.leggauss(40)
    b = np.linspace(lo, hi, 401)
    x = (0.5 * (b[:-1] + b[1:])[:, None] + 0.5 * np.diff(b)[:, None] * nodes).ravel()
    w = (0.5 * np.diff(b)[:, None] * weights).ravel()
    return 2.0 * rho / E**2 * abs(1.0 + m) ** -4 * float(np.sum(w * f(x) * g(x)))


# ---------------------------------------------------------------------------
# sphericity statistic


def sphericity_reference(A: np.ndarray, u, v, margin: float, omega: float) -> dict:
    """Statistic, E and threshold of the four-step test, recomputed densely.

    Eigenvalues come from an SVD of the rescaled data and R_uu(E) from a dense
    solve of (W W^T - E) x = u, instead of the program's eigen-sums.
    """
    n, N = A.shape
    sigma_sq = float(np.sum(A**2) / n)
    W = A / math.sqrt(sigma_sq)
    lam = np.linalg.svd(W, compute_uv=False) ** 2
    nz = min(n, N)
    lam_q2 = np.concatenate([lam[:nz], np.zeros(max(N - nz, 0))])
    E = float(lam[0]) + margin
    m = float(np.mean(1.0 / (lam_q2 - E)))
    m_prime = float(np.mean(1.0 / (lam_q2 - E) ** 2))
    kappa_max = float(np.max(N * np.sum(W**4, axis=1) - 3.0))
    gamma_sq = m**2 / (E**2 * abs(1.0 + m) ** 4) * (max(kappa_max, 0.0) + 2.0 * m_prime / m**2)
    G = W @ W.T - E * np.eye(n)
    r_uu = float(u @ np.linalg.solve(G, u))
    r_vv = float(v @ np.linalg.solve(G, v))
    alpha = float(ndtri(1.0 - omega / 2.0))
    return {
        "statistic": math.sqrt(N) * abs(r_uu - r_vv),
        "E": E,
        "threshold": math.sqrt(2.0) * alpha * math.sqrt(gamma_sq),
    }


# ---------------------------------------------------------------------------
# statistical bounds set from trial counts


def mean_bound(variance: float, trials: int) -> float:
    """|sample mean| bound: the two-sided normal quantile at TAIL times the se."""
    return float(ndtri(1.0 - TAIL / 2.0)) * math.sqrt(variance / trials)


def variance_band(variance: float, trials: int) -> tuple[float, float]:
    """Chi-square band for a sample variance of `trials` normal draws."""
    k = trials - 1
    return variance * chi2.ppf(TAIL, k) / k, variance * chi2.isf(TAIL, k) / k


def binomial_bound(trials: int, p: float) -> int:
    """Largest count a Binomial(trials, p) exceeds with probability <= TAIL."""
    return int(binom.isf(TAIL, trials, p))
