"""Kernel identities, reductions, positivity, and the global covariance against
a contour-integral reference."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisomp as a
from anisomp import FourthCumulantProfile as K4

BETA_HAT_44 = 0.05500734439491026  # 2 m'(4) / (16 (1+m(4))^4), Sigma = I, d = 1/2


def _pop(n=6, N=12, sig=None):
    if sig is None:
        model = a.PopulationModel.identity(n)
    else:
        model = a.PopulationModel.from_diagonal(np.asarray(sig))
    return a.Population(model, N)


def _unit(n, k=0):
    v = np.zeros(n)
    v[k] = 1.0
    return v


class TestTestFunction:
    def test_bump_support_and_smoothness(self):
        f = a.TestFunction(kind="bump", center=1.0, width=0.5)
        assert f(0.4999) == 0.0
        assert f(1.5001) == 0.0
        assert f(1.0) == pytest.approx(1.0)

    def test_poly_gauss_positive_halfline(self):
        f = a.TestFunction(kind="poly_gauss", center=2.0, width=0.5, poly_coeffs=(0.0, 1.0))
        assert f(-1.0) == 0.0
        assert f(2.5) == pytest.approx(1.0 * math.exp(-1.0))


class TestAlphaKernel:
    def test_gaussian_zero(self):
        pop = _pop()
        v = _unit(6)
        assert a.alpha_kernel(1.0, 1.5, v, v, pop, K4.gaussian()) == 0.0

    def test_outside_zero(self):
        pop = _pop()
        v = _unit(6)
        assert a.alpha_kernel(4.0, 1.0, v, v, pop, K4.rademacher()) == 0.0

    def test_rademacher_term_by_term(self):
        # independent re-computation of the cumulant kernel, coordinatewise
        pop = _pop()
        n = 6
        v1, v2 = _unit(n, 0), _unit(n, 1)
        x1 = x2 = 1.0
        m = a.null_mp_m2c(1.0, 0.5)
        phi1 = np.zeros(n, dtype=complex)
        phi1[0] = 1.0 / (1.0 + m)
        phi2 = np.zeros(n, dtype=complex)
        phi2[1] = 1.0 / (1.0 + m)
        want = sum(
            (-2.0)
            * np.imag(m / x1 * phi1[i] ** 2)
            * np.imag(m / x2 * phi2[i] ** 2)
            for i in range(n)
        )
        got = a.alpha_kernel(x1, x2, v1, v2, pop, K4.rademacher())
        assert got == pytest.approx(float(want), abs=1e-12)
        got_same = a.alpha_kernel(x1, x2, v1, v1, pop, K4.rademacher())
        phi_sq = np.imag(m / (1.0 + m) ** 2) ** 2
        assert got_same == pytest.approx(-2.0 * float(phi_sq), abs=1e-12)


class TestBetaKernel:
    def test_diagonal_zero(self):
        pop = _pop()
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = rng.standard_normal(6)
            v /= np.linalg.norm(v)
            E = rng.uniform(0.2, 2.8)
            assert abs(a.beta_kernel(E, E, v, v, pop)) < 1e-12

    def test_both_outside_zero(self):
        pop = _pop()
        v = _unit(6)
        assert a.beta_kernel(3.5, 4.5, v, v, pop) == pytest.approx(0.0, abs=1e-12)

    def test_bulk_reduction(self):
        # beta(x1,x2,v,v)/(x1-x2) = -2 d^-3 Im m(x1) Im m(x2) for Sigma = I
        pop = _pop()
        d = 0.5
        v = np.full(6, 1 / math.sqrt(6))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x1, x2 = rng.uniform(0.2, 2.8, size=2)
            if abs(x1 - x2) < 1e-3:
                continue
            lhs = a.beta_kernel(x1, x2, v, v, pop) / (x1 - x2)
            rhs = (
                -2.0
                / d**3
                * a.null_mp_m2c(x1, d).imag
                * a.null_mp_m2c(x2, d).imag
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestHatKernels:
    def test_alpha_hat_gaussian_zero(self):
        pop = _pop()
        v = _unit(6)
        assert a.alpha_hat(1 + 1j, 2 + 1j, v, v, pop, K4.gaussian()) == 0.0

    def test_alpha_hat_null_specialization(self):
        # Sigma = I: alpha_hat = kappa m1 m2 / (z1 z2 (1+m1)^2 (1+m2)^2) * sum v1_i^2 v2_i^2
        pop = _pop()
        rng = np.random.default_rng(7)
        v1 = rng.standard_normal(6)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(6)
        v2 /= np.linalg.norm(v2)
        z1, z2 = 1.2 + 0.8j, 2.5 + 0.4j
        kap = 3.3
        m1, m2 = a.null_mp_m2c(z1, 0.5), a.null_mp_m2c(z2, 0.5)
        want = (
            kap
            * m1
            * m2
            / (z1 * z2 * (1 + m1) ** 2 * (1 + m2) ** 2)
            * np.sum(v1**2 * v2**2)
        )
        got = a.alpha_hat(z1, z2, v1, v2, pop, K4.constant(kap))
        assert abs(got - want) < 1e-10

    def test_alpha_hat_conjugation(self):
        pop = _pop()
        v = _unit(6)
        z1, z2 = 1.1 + 0.9j, 0.7 + 0.2j
        x = a.alpha_hat(z1, z2, v, v, pop, K4.rademacher())
        y = a.alpha_hat(np.conj(z1), np.conj(z2), v, v, pop, K4.rademacher())
        assert abs(x - np.conj(y)) < 1e-14

    def test_beta_hat_equal_argument_limit(self):
        pop = _pop()
        v = _unit(6)
        z = 1.0 + 0.7j
        exact = a.beta_hat(z, z, v, v, pop)
        limit = a.beta_hat(z, z + 1e-6, v, v, pop)
        assert abs(exact - limit) < 1e-4 * abs(exact)

    def test_beta_hat_swap_symmetry(self):
        pop = _pop(sig=(2.0, 1.5, 1.0, 1.0, 0.7, 0.5))
        rng = np.random.default_rng(5)
        v1 = rng.standard_normal(6)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(6)
        v2 /= np.linalg.norm(v2)
        z1, z2 = 0.9 + 0.5j, 2.2 + 0.1j
        assert abs(
            a.beta_hat(z1, z2, v1, v2, pop) - a.beta_hat(z2, z1, v2, v1, pop)
        ) < 1e-13

    def test_beta_hat_outside_value(self):
        pop = _pop()
        got = a.beta_hat(4.0, 4.0, _unit(6), _unit(6), pop)
        assert got.real == pytest.approx(BETA_HAT_44, abs=1e-10)
        assert got.imag == pytest.approx(0.0, abs=1e-14)


class TestKernelSymmetries:
    @given(
        seed=st.integers(0, 10_000),
        kap=st.floats(-2.0, 6.0),
        x1=st.floats(0.3, 2.8),
        x2=st.floats(0.3, 2.8),
    )
    @settings(max_examples=40, deadline=None)
    def test_joint_swap(self, seed, kap, x1, x2):
        rng = np.random.default_rng(seed)
        sig = rng.uniform(0.5, 2.0, size=5)
        pop = a.Population(a.PopulationModel.from_diagonal(sig), 10)
        v1 = rng.standard_normal(5)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(5)
        v2 /= np.linalg.norm(v2)
        prof = K4.constant(kap)
        assert a.alpha_kernel(x1, x2, v1, v2, pop, prof) == pytest.approx(
            a.alpha_kernel(x2, x1, v2, v1, pop, prof), abs=1e-12
        )
        # beta flips sign under the joint swap: beta/(x1-x2) is the symmetric
        # object (cf. the bulk reduction above)
        assert a.beta_kernel(x1, x2, v1, v2, pop) == pytest.approx(
            -a.beta_kernel(x2, x1, v2, v1, pop), abs=1e-12
        )


class TestResolventCovariance:
    def test_global_matches_isotropic_closed_form(self):
        pop = _pop()
        d = 0.5
        v = np.full(6, 1 / math.sqrt(6))
        rng = np.random.default_rng(11)
        for _ in range(20):
            z1 = complex(rng.uniform(0.3, 4.0), rng.uniform(0.05, 2.0))
            z2 = complex(rng.uniform(0.3, 4.0), rng.uniform(0.05, 2.0))
            if abs(z1 - z2) < 1e-3:
                continue
            got = a.resolvent_covariance(
                "global", pop, v, v, kappa=K4.gaussian(), z1=z1, z2=z2
            )
            m1, m2 = a.null_mp_m2c(z1, d), a.null_mp_m2c(z2, d)
            want = (
                2.0
                * (z1 * m1 - z2 * m2) ** 2
                / (d**2 * z1 * z2 * (z1 - z2) * (m1 - m2))
            )
            assert abs(got - want) < 1e-8

    def test_local_same_side_zero(self):
        pop = _pop()
        v = _unit(6)
        got = a.resolvent_covariance("local", pop, v, v, E=1.0, w1=1j, w2=0.5 + 2j)
        assert got == 0.0

    def test_local_opposite_side_value(self):
        pop = _pop()
        v = _unit(6)
        E, w1, w2 = 1.0, 1j, 1 - 1j
        got = a.resolvent_covariance("local", pop, v, v, E=E, w1=w1, w2=w2)
        m = a.null_mp_m2c(E, 0.5)
        c = 1.0 / abs(1 + m) ** 2
        want = 4j * m.imag / (E**2 * (w1 - w2)) * c**2
        assert abs(got - want) < 1e-10

    def test_outside_value_and_domain(self):
        pop = _pop()
        v = _unit(6)
        got = a.resolvent_covariance("outside", pop, v, v, kappa=K4.gaussian(), E=4.0)
        assert got == pytest.approx(BETA_HAT_44, abs=1e-10)
        with pytest.raises(a.OutsideDomain):
            a.resolvent_covariance("outside", pop, v, v, kappa=K4.gaussian(), E=1.0)

    def test_outside_solves_m_once(self, monkeypatch):
        from anisomp import mp_law

        pop = a.Population(a.PopulationModel.from_diagonal([4.0, 4.0, 1.0, 1.0, 1.0, 2.5]), 12)
        rng = np.random.default_rng(12)
        v1, v2 = rng.standard_normal(6), rng.standard_normal(6)
        v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        kappa, E = K4.constant(1.3), 1.5 * a.support_edges(pop.spectrum)[0]
        want = float(np.real(
            a.alpha_hat(E, E, v1, v2, pop, kappa) + a.beta_hat(E, E, v1, v2, pop)
        ))
        calls = []
        solve = mp_law.solve_m2c_points
        monkeypatch.setattr(mp_law, "solve_m2c_points", lambda *args: calls.append(args) or solve(*args))
        got = a.resolvent_covariance("outside", pop, v1, v2, kappa=kappa, E=E)
        assert len(calls) == 1
        assert got == want


class TestVariancePositivity:
    def test_gaussian_equals_beta_hat(self):
        pop = _pop()
        v = _unit(6)
        got = a.variance_positivity(4.0, v, pop, K4.gaussian())
        assert got == pytest.approx(BETA_HAT_44, abs=1e-12)
        assert got > 0.0

    def test_cauchy_schwarz_outside(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            sig = rng.uniform(0.4, 2.5, size=4)
            pop = a.Population(a.PopulationModel.from_diagonal(sig), 8)
            edges = a.support_edges(pop.spectrum)
            E = edges[0] + rng.uniform(0.3, 2.0)
            m = a.solve_m2c(complex(E, 0.0), pop.spectrum).m.real
            mp = a.m2c_derivative(complex(E, 0.0), pop.spectrum).real
            assert m**2 <= mp + 1e-12

    @given(seed=st.integers(0, 100_000), kap=st.floats(-2.0, 6.0))
    @settings(max_examples=50, deadline=None)
    def test_random_draws_nonnegative(self, seed, kap):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        sig = rng.uniform(0.4, 2.5, size=n)
        N = int(rng.integers(n + 1, 4 * n + 2))
        pop = a.Population(a.PopulationModel.from_diagonal(sig), N)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam_plus = a.support_edges(pop.spectrum)[0]
        E = lam_plus + rng.uniform(0.2, 3.0)
        val = a.variance_positivity(E, v, pop, K4.constant(kap))
        assert val >= -1e-12


class TestLinearStatCovariance:
    def setup_method(self):
        self.pop = _pop(n=8, N=16)
        self.v = np.full(8, 1 / math.sqrt(8))
        self.fi = a.TestFunction(kind="bump", center=1.0, width=0.6)
        self.fj = a.TestFunction(kind="bump", center=1.8, width=0.7)

    @staticmethod
    def _simple_reduction(f1, f2, d=0.5):
        from scipy.integrate import quad

        lp, lm = a.null_mp_edges(d)

        def rho_c(x):
            return math.sqrt(max((x - lm) * (lp - x), 0.0)) / (2 * math.pi * d * x)

        t1 = quad(lambda x: f1(x) * f2(x) * rho_c(x), lm, lp, limit=400)[0]
        a1 = quad(lambda x: f1(x) * rho_c(x), lm, lp, limit=400)[0]
        a2 = quad(lambda x: f2(x) * rho_c(x), lm, lp, limit=400)[0]
        return 2.0 / d * (t1 - a1 * a2)

    def test_global_null_reduction(self):
        for f1, f2 in ((self.fi, self.fj), (self.fi, self.fi)):
            got = a.linear_stat_covariance(
                "global", f1, f2, self.v, self.v, 0.0, 1.0, self.pop, K4.gaussian()
            )
            want = self._simple_reduction(f1, f2)
            assert got.value == pytest.approx(want, rel=1e-4)

    def test_local_formula(self):
        from scipy.integrate import quad

        E = 1.0
        got = a.linear_stat_covariance(
            "local", self.fi, self.fi, self.v, self.v, E, 0.02, self.pop, K4.gaussian()
        )
        m = a.null_mp_m2c(E, 0.5)
        rho = m.imag / math.pi
        ff = quad(lambda u: self.fi(u) ** 2, *self.fi.support)[0]
        want = 2.0 * rho / E**2 * (1.0 / abs(1 + m) ** 2) ** 2 * ff
        assert got.value == pytest.approx(want, rel=1e-6)

    def test_local_cross_pair_on_the_overlap(self):
        # the theory benchmark's pair: bump(1, 0.5) x bump(2, 0.7) overlap on
        # [1.3, 1.5] only; Sigma = I, d = 1/2, a unit direction
        from scipy.integrate import quad

        f = a.TestFunction(kind="bump", center=1.0, width=0.5)
        g = a.TestFunction(kind="bump", center=2.0, width=0.7)
        pop, v, E = _pop(n=24, N=48), _unit(24), 1.2
        got = a.linear_stat_covariance("local", f, g, v, v, E, 0.0, pop, K4.gaussian())
        m = a.null_mp_m2c(E, 0.5)
        fg = quad(lambda u: f(u) * g(u), 1.3, 1.5, epsabs=0.0, epsrel=1e-13)[0]
        want = 2.0 * (m.imag / math.pi) / E**2 / abs(1 + m) ** 4 * fg
        assert got.value == pytest.approx(want, rel=1e-13, abs=0.0)
        assert abs(got.value - want) <= got.error_estimate

    def test_local_disjoint_supports_zero(self):
        far = a.TestFunction(kind="bump", center=3.0, width=0.5)
        got = a.linear_stat_covariance(
            "local", self.fi, far, self.v, self.v, 1.0, 0.02, self.pop, K4.gaussian()
        )
        assert (got.value, got.error_estimate) == (0.0, 0.0)

    def test_local_zero_function(self):
        zero = a.TestFunction(kind="poly_gauss", center=1.0, width=0.5, poly_coeffs=(0.0,))
        got = a.linear_stat_covariance(
            "local", self.fi, zero, self.v, self.v, 1.0, 0.02, self.pop, K4.gaussian()
        )
        assert got.value == 0.0

    def test_local_outside_support_zero(self):
        got = a.linear_stat_covariance(
            "local", self.fi, self.fi, self.v, self.v, 4.0, 0.02, self.pop, K4.gaussian()
        )
        assert got.value == 0.0


class TestContractions:
    def test_tied_diagonal_merges_into_atoms(self):
        model = a.PopulationModel.from_diagonal([2.0, 1.0, 2.0, 1.0 + 1e-14, 3.0])
        rng = np.random.default_rng(0)
        v1, v2 = rng.standard_normal(5), rng.standard_normal(5)
        sig, w = model.pair_weights(v1, v2)
        assert sig == pytest.approx([1.0, 2.0, 3.0], rel=1e-13)
        assert w == pytest.approx(
            [v1[1] * v2[1] + v1[3] * v2[3], v1[0] * v2[0] + v1[2] * v2[2], v1[4] * v2[4]],
            rel=1e-13,
        )

    def test_grid_matches_per_entry_sum(self):
        from anisomp.clt_theory import _contraction_factors

        diag = np.array([4.0, 1.0, 1.0, 2.5, 4.0, 0.7])
        pop = _pop(n=6, N=12, sig=diag)
        rng = np.random.default_rng(1)
        v1, v2 = rng.standard_normal(6), rng.standard_normal(6)
        ma = rng.standard_normal(7) + 1j * rng.uniform(0.1, 1.0, 7)
        mb = rng.standard_normal(5) - 1j * rng.uniform(0.1, 1.0, 5)
        want = sum(
            v1[k] * v2[k] * s / np.multiply.outer(1.0 + ma * s, 1.0 + mb * s)
            for k, s in enumerate(diag)
        )
        sig, w = pop.model.pair_weights(v1, v2)
        left, _ = _contraction_factors(sig, w, ma)
        _, right = _contraction_factors(sig, w, mb)
        got = left @ right.T
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "spiked", "general"])
    def test_phi_rows_match_the_per_node_loop(self, kind):
        n = 7
        rng = np.random.default_rng(2)
        A = rng.standard_normal((n, n))
        diag = rng.uniform(0.5, 3.0, n)
        V = np.linalg.qr(A)[0][:, :2]
        sigma = {
            "identity": np.eye(n),
            "diagonal": np.diag(diag),
            "spiked": np.eye(n) + V @ np.diag([1.5, 0.5]) @ V.T,
            "general": A @ A.T / n + np.eye(n),
        }[kind]
        model = {
            "identity": a.PopulationModel.identity(n),
            "diagonal": a.PopulationModel.from_diagonal(diag),
            "spiked": a.PopulationModel.spiked(n, (1.5, 0.5), V),
            "general": a.PopulationModel.general(sigma),
        }[kind]
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        m = rng.standard_normal(9) + 1j * rng.uniform(0.05, 1.0, 9)
        got = model.phi(m, v)
        loop = np.array([model.phi(mm, v) for mm in m])  # one call per node
        assert got.shape == (9, n)
        assert np.max(np.abs(got - loop)) <= 1e-13 * np.max(np.abs(loop))
        lam, U = np.linalg.eigh(sigma)
        half = (U * np.sqrt(lam)) @ U.T
        dense = np.array([half @ np.linalg.solve(np.eye(n) + mm * sigma, v) for mm in m])
        assert np.max(np.abs(got - dense)) <= 1e-11 * np.max(np.abs(dense))

    @pytest.mark.parametrize("kappa", [K4.gaussian(), K4.constant(-1.0)])
    def test_diagonal_of_ones_is_the_identity(self, kappa):
        n, N = 40, 80
        v = np.full(n, 1.0 / math.sqrt(n))
        f = a.TestFunction(kind="bump", center=1.0, width=0.5)
        g = a.TestFunction(kind="bump", center=2.0, width=0.7)
        vals = [
            a.linear_stat_covariance(
                "global", f, g, v, v, 0.0, 1.0, a.Population(model, N), kappa, grid_points=400
            ).value
            for model in (a.PopulationModel.identity(n), a.PopulationModel.from_diagonal(np.ones(n)))
        ]
        assert vals[1] == pytest.approx(vals[0], rel=1e-12)


def _poly_gauss_complex(f):
    """A ``poly_gauss`` test function continued to complex z."""
    return lambda z: np.polyval(f.poly_coeffs[::-1], (z - f.center) / f.width) * np.exp(
        -(((z - f.center) / f.width) ** 2)
    )


def _contour_covariance(f, g, vi, vj, pop, kappa, M):
    """(2 pi i)^-2 of the double contour integral of f(z1) g(z2) times
    alpha_hat + beta_hat over an ellipse around the support (Bai and
    Silverstein, Ann. Probab. 2004), by the M-point trapezoid rule.

    The ellipse stays in Re z > 0, clear of the cut of ``poly_gauss`` at
    x = 0 and of the kernels' pole at z = 0.  Its points avoid the real
    axis, and m at the lower ones is the conjugate of m at their mirror
    images.
    """
    edges = a.support_edges(pop.spectrum)
    lo, hi = edges[-1], edges[0]
    theta = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    A, B = 0.5 * (hi - lo) + 0.5 * lo, 0.5
    z = 0.5 * (lo + hi) + A * np.cos(theta) + 1j * B * np.sin(theta)
    dz = (-A * np.sin(theta) + 1j * B * np.cos(theta)) * (2.0 * np.pi / M)
    upper = z.imag > 0
    zu = np.where(upper, z, np.conj(z))
    m = np.array([a.solve_m2c(zz, pop.spectrum).m for zz in zu])
    mp = np.array([a.m2c_derivative(zz, pop.spectrum) for zz in zu])
    m, mp = np.where(upper, m, np.conj(m)), np.where(upper, mp, np.conj(mp))
    sig, w = pop.model.pair_weights(vi, vj)
    c = ((w * sig) / (1.0 + np.multiply.outer(m, sig))) @ (1.0 / (1.0 + np.multiply.outer(m, sig))).T
    gap = np.subtract.outer(z, z)
    np.fill_diagonal(gap, 1.0)
    quotient = np.subtract.outer(m, m) / gap
    np.fill_diagonal(quotient, mp)
    zz = np.multiply.outer(z, z)
    kern = 2.0 * quotient / zz * c**2
    if not kappa.is_zero:
        s = kappa.row_weights(pop.n)
        rows = (pop.model.phi(m, vi) ** 2 * s) @ (pop.model.phi(m, vj) ** 2).T
        kern += np.multiply.outer(m, m) / zz * rows
    val = (_poly_gauss_complex(f)(z) * dz) @ kern @ (_poly_gauss_complex(g)(z) * dz)
    return float(np.real(val / (2j * np.pi) ** 2))


class TestGlobalCovarianceContour:
    """The global covariance of analytic test functions against the contour
    form.  The spiked Sigma has two bulks.  The contour value converges
    geometrically in M: at M = 192 and 384 the four cases agree within
    1e-15."""

    N_DIM, N = 40, 80
    F = a.TestFunction(kind="poly_gauss", center=1.5, width=0.6, poly_coeffs=(1.0, 0.5))
    G = a.TestFunction(kind="poly_gauss", center=3.0, width=0.9, poly_coeffs=(0.3, -1.0, 0.2))

    def _case(self, model):
        n = self.N_DIM
        pop = a.Population(
            a.PopulationModel.identity(n) if model == "identity" else a.PopulationModel.spiked(n, (3.0,)),
            self.N,
        )
        return pop, np.full(n, 1.0 / math.sqrt(n)), _unit(n)

    @pytest.mark.parametrize("kappa", [K4.gaussian(), K4.constant(1.5)])
    @pytest.mark.parametrize("model", ["identity", "spiked"])
    def test_within_error_estimate_of_contour(self, model, kappa):
        pop, vi, vj = self._case(model)
        want = _contour_covariance(self.F, self.G, vi, vj, pop, kappa, 192)
        for options in ({"grid_points": 800}, {}):
            got = a.linear_stat_covariance(
                "global", self.F, self.G, vi, vj, 0.0, 1.0, pop, kappa, **options
            )
            assert abs(got.value - want) <= got.error_estimate, (options, got, want)

    @pytest.mark.parametrize("model", ["identity", "spiked"])
    def test_beta_grid_diagonal_is_the_limit(self, model):
        from anisomp.clt_theory import _beta_diagonal, _bulk_panels, _support_nodes

        pop, vi, vj = self._case(model)
        bulks = _bulk_panels(pop, 64)
        x, _, m, mp = _support_nodes(pop.spectrum, bulks)
        diag, _ = _beta_diagonal(*pop.model.pair_weights(vi, vj), m, mp)
        h = 1e-4
        starts = np.cumsum([0] + [16 * p for _, _, p in bulks])
        for lo, hi in zip(starts[:-1], starts[1:]):
            for k in (lo + (hi - lo) // 4, (lo + hi) // 2, lo + 3 * (hi - lo) // 4):
                xk = x[k]
                diff = (a.beta_kernel(xk, xk - h, vi, vj, pop) - a.beta_kernel(xk, xk + h, vi, vj, pop)) / (2 * h)
                assert diag[k] / xk**2 == pytest.approx(diff, rel=1e-6, abs=1e-9)


def _beta_grid(pop, vi, vj, x, m, mp):
    """The dense (nodes x nodes) kernel x_a x_b beta(x_a, x_b)/(x_a - x_b),
    its diagonal the analytic limit, and C0 = C(m_a, conj m_a): the reference
    that the row-blocked contraction must reproduce."""
    sig, w = pop.model.pair_weights(vi, vj)
    left = (w * sig) / (1.0 + np.multiply.outer(m, sig))
    c_mixed = left @ (1.0 / (1.0 + np.multiply.outer(np.conj(m), sig))).T
    c_plain = left @ (1.0 / (1.0 + np.multiply.outer(m, sig))).T
    c0, cp = np.diagonal(c_mixed), np.diagonal(c_plain)
    gap = np.subtract.outer(x, x)
    np.fill_diagonal(gap, 1.0)
    kern = np.real(np.subtract.outer(m, np.conj(m)) * c_mixed**2)
    kern -= np.real(np.subtract.outer(m, m) * c_plain**2)
    kern /= gap
    lo = 1.0 + np.multiply.outer(m, sig)
    hi = 1.0 + np.multiply.outer(np.conj(m), sig)
    dc = -np.sum(w * sig**2 / (lo * hi**2), axis=1)
    mpc = np.conj(mp)
    np.fill_diagonal(kern, -np.real(-mpc * c0**2 + 4j * m.imag * c0 * dc * mpc + mp * cp**2))
    return kern, c0


class TestBetaContraction:
    """The row-blocked beta term against the dense kernel, its memory, and
    the support nodes solved once per spectrum."""

    N_DIM, N = 24, 48
    F = a.TestFunction(kind="bump", center=1.0, width=0.5)
    G = a.TestFunction(kind="bump", center=2.0, width=0.7)

    def _pop(self, kind):
        n = self.N_DIM
        rng = np.random.default_rng(4)
        model = {
            "identity": lambda: a.PopulationModel.identity(n),
            "spiked": lambda: a.PopulationModel.spiked(n, (3.0, 1.0), np.linalg.qr(rng.standard_normal((n, 2)))[0]),
            "two_level": lambda: a.PopulationModel.from_diagonal(np.where(np.arange(n) < 10, 4.0, 1.0)),
            "atoms24": lambda: a.PopulationModel.from_diagonal(np.linspace(0.5, 3.0, n)),
        }[kind]()
        return a.Population(model, self.N)

    @pytest.mark.parametrize("kind", ["identity", "spiked", "two_level", "atoms24"])
    def test_matches_the_dense_kernel(self, kind):
        from anisomp.clt_theory import BLOCK, _beta_contraction, _bulk_panels, _support_nodes

        pop = self._pop(kind)
        rng = np.random.default_rng(5)
        vi, vj = rng.standard_normal(self.N_DIM), rng.standard_normal(self.N_DIM)
        vi, vj = vi / np.linalg.norm(vi), vj / np.linalg.norm(vj)
        x, w, m, mp = _support_nodes(pop.spectrum, _bulk_panels(pop, 440))
        assert len(x) % BLOCK != 0
        p, q = w * rng.standard_normal(len(x)), w * rng.standard_normal(len(x))  # no zero rows
        kern, c0_ref = _beta_grid(pop, vi, vj, x, m, mp)
        got, c0 = _beta_contraction(pop, vi, vj, x, m, mp, p, q)
        want = float(p @ kern @ q)
        assert got == pytest.approx(want, rel=1e-12)
        assert np.max(np.abs(c0 - c0_ref)) <= 1e-12 * np.max(np.abs(c0_ref))

    @pytest.mark.parametrize("kind", ["identity", "spiked", "two_level", "atoms24"])
    def test_the_kernel_is_symmetric(self, kind):
        from anisomp.clt_theory import _beta_contraction, _bulk_panels, _support_nodes

        pop = self._pop(kind)
        rng = np.random.default_rng(6)
        vi, vj = rng.standard_normal(self.N_DIM), rng.standard_normal(self.N_DIM)
        vi, vj = vi / np.linalg.norm(vi), vj / np.linalg.norm(vj)
        x, w, m, mp = _support_nodes(pop.spectrum, _bulk_panels(pop, 440))
        kern, _ = _beta_grid(pop, vi, vj, x, m, mp)
        # norm-wise: entries of adjacent nodes divide a cancelling numerator by a small gap
        assert np.linalg.norm(kern - kern.T) <= 1e-13 * np.linalg.norm(kern)
        p, q = w * rng.standard_normal(len(x)), w * rng.standard_normal(len(x))
        pq = _beta_contraction(pop, vi, vj, x, m, mp, p, q)[0]
        qp = _beta_contraction(pop, vi, vj, x, m, mp, q, p)[0]
        assert pq == pytest.approx(qp, rel=1e-13)

    @pytest.mark.parametrize(
        "kind, blocks",
        [("identity", 0.5), ("two_level", 0.5), ("identity", 1), ("spiked", 2), ("atoms24", 3)],
    )
    def test_node_counts_at_block_edges(self, kind, blocks):
        """Fewer nodes than one block, and exact multiples of BLOCK."""
        from anisomp.clt_theory import BLOCK, _beta_contraction, _bulk_panels, _support_nodes

        pop = self._pop(kind)
        bulks = _bulk_panels(pop, 64)
        total = int(blocks * BLOCK)
        panels = total // (16 * len(bulks))
        x, w, m, mp = _support_nodes(pop.spectrum, tuple((lo, hi, panels) for lo, hi, _ in bulks))
        assert len(x) == total and (total < BLOCK or total % BLOCK == 0)
        rng = np.random.default_rng(7)
        vi, vj = rng.standard_normal(self.N_DIM), rng.standard_normal(self.N_DIM)
        vi, vj = vi / np.linalg.norm(vi), vj / np.linalg.norm(vj)
        p, q = w * rng.standard_normal(len(x)), w * rng.standard_normal(len(x))
        kern, _ = _beta_grid(pop, vi, vj, x, m, mp)
        got, _ = _beta_contraction(pop, vi, vj, x, m, mp, p, q)
        assert got == pytest.approx(float(p @ kern @ q), rel=1e-12)

    def test_kappa_rows_once_per_direction(self, monkeypatch):
        calls = []
        phi = a.PopulationModel.phi
        monkeypatch.setattr(
            a.PopulationModel, "phi", lambda self, *args: calls.append(args) or phi(self, *args)
        )
        pop = self._pop("two_level")
        v = np.random.default_rng(8).standard_normal(self.N_DIM)
        v /= np.linalg.norm(v)

        def cov(vi, vj):
            return a.linear_stat_covariance(
                "global", self.F, self.G, vi, vj, 0.0, 1.0, pop, K4.constant(1.3), grid_points=400
            )

        same = cov(v, v)
        assert len(calls) == 2  # the full and the half-panel nodes
        copy = cov(v, v.copy())
        assert len(calls) == 2 + 4
        assert same == copy

    def test_memory_is_linear_in_the_nodes(self):
        import tracemalloc

        from anisomp.clt_theory import _support_nodes

        pop = self._pop("two_level")
        v = np.full(self.N_DIM, 1.0 / math.sqrt(self.N_DIM))
        peaks = {}
        for nodes in (2000, 4000):
            _support_nodes.cache_clear()
            tracemalloc.start()
            a.linear_stat_covariance(
                "global", self.F, self.G, v, v, 0.0, 1.0, pop, K4.constant(1.3), grid_points=nodes
            )
            peaks[nodes] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[2000] <= 84 * 2**20
        assert peaks[4000] <= 2.5 * peaks[2000]

    def test_support_nodes_solved_once_per_spectrum(self, monkeypatch):
        from anisomp import clt_theory

        calls = []
        solve = clt_theory.solve_m2c_grid
        monkeypatch.setattr(
            clt_theory, "solve_m2c_grid", lambda *args: calls.append(args) or solve(*args)
        )
        clt_theory._support_nodes.cache_clear()
        v = np.full(self.N_DIM, 1.0 / math.sqrt(self.N_DIM))
        pop = self._pop("two_level")

        def cov(pop, kappa):
            return a.linear_stat_covariance(
                "global", self.F, self.G, v, v, 0.0, 1.0, pop, kappa, grid_points=400
            )

        cov(pop, K4.gaussian())
        solved = len(calls)
        assert solved == 2  # the full and the half-panel nodes
        cov(pop, K4.constant(1.3))
        cov(self._pop("two_level"), K4.gaussian())  # an equal spectrum
        assert len(calls) == solved
        cov(self._pop("atoms24"), K4.gaussian())
        assert len(calls) == 2 * solved
        x, w, m, mp = clt_theory._support_nodes(pop.spectrum, clt_theory._bulk_panels(pop, 400))
        assert not any(arr.flags.writeable for arr in (x, w, m, mp))


def _full_node_value(f, g, vi, vj, pop, kappa, bulks):
    """The global covariance's three terms on every node of ``bulks``."""
    from anisomp.clt_theory import _beta_contraction, _support_nodes

    x, w, m, mp = _support_nodes(pop.spectrum, bulks)
    fx, gx = f(x), g(x)
    term1 = 0.0
    if not kappa.is_zero:
        ai = np.imag((m / x)[:, None] * pop.model.phi(m, vi) ** 2).T @ (w * fx)
        aj = np.imag((m / x)[:, None] * pop.model.phi(m, vj) ** 2).T @ (w * gx)
        term1 = float(np.sum(kappa.row_weights(pop.n) * ai * aj)) / math.pi**2
    beta, c0 = _beta_contraction(pop, vi, vj, x, m, mp, w * fx / x, w * gx / x)
    rho = np.maximum(m.imag, 0.0) / math.pi
    term3 = 2.0 * float(np.sum(w * fx * gx * rho / x**2 * np.real(c0**2)))
    return term1 + beta / math.pi**2 + term3


class TestLiveNodes:
    """The global covariance runs on the nodes where f_i or f_j is nonzero."""

    N_DIM, N, POINTS = 24, 48, 400
    F = a.TestFunction(kind="bump", center=1.0, width=0.5)
    G = a.TestFunction(kind="bump", center=2.0, width=0.7)
    P = a.TestFunction(kind="poly_gauss", center=3.0, width=1.0, poly_coeffs=(1.0, 0.5))
    PAIRS = {"bump/bump": (F, G), "bump/poly_gauss": (F, P), "poly_gauss/poly_gauss": (P, P)}

    def _pop(self, kind, N=None):
        n = self.N_DIM
        model = {
            "identity": lambda: a.PopulationModel.identity(n),
            "two_level": lambda: a.PopulationModel.from_diagonal(np.where(np.arange(n) < 10, 4.0, 1.0)),
            "spiked": lambda: a.PopulationModel.spiked(
                n, (3.0, 1.0), np.linalg.qr(np.random.default_rng(4).standard_normal((n, 2)))[0]
            ),
        }[kind]()
        return a.Population(model, N or self.N)

    @pytest.mark.parametrize("same_v", [True, False], ids=["u=v", "u!=v"])
    @pytest.mark.parametrize("kappa", [K4.gaussian(), K4.constant(-1.2)], ids=["k0", "k-1.2"])
    @pytest.mark.parametrize("kind", ["identity", "two_level", "spiked"])
    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_matches_every_node(self, pair, kind, kappa, same_v):
        from anisomp.clt_theory import _bulk_panels

        f, g = self.PAIRS[pair]
        pop = self._pop(kind)
        rng = np.random.default_rng(9)
        vi = rng.standard_normal(self.N_DIM)
        vi /= np.linalg.norm(vi)
        vj = vi if same_v else np.full(self.N_DIM, 1.0 / math.sqrt(self.N_DIM))
        got = a.linear_stat_covariance("global", f, g, vi, vj, 0.0, 1.0, pop, kappa, grid_points=self.POINTS)
        bulks = _bulk_panels(pop, self.POINTS)
        want = _full_node_value(f, g, vi, vj, pop, kappa, bulks)
        coarse = _full_node_value(f, g, vi, vj, pop, kappa, tuple((lo, hi, k // 2) for lo, hi, k in bulks))
        assert got.value == pytest.approx(want, rel=1e-13)
        assert abs(got.error_estimate - (abs(want - coarse) + 1e-9 * abs(want))) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_contraction_sees_the_live_nodes(self, monkeypatch, pair):
        from anisomp import clt_theory

        seen = []
        contract = clt_theory._beta_contraction
        monkeypatch.setattr(
            clt_theory, "_beta_contraction", lambda *args: seen.append(args[3]) or contract(*args)
        )
        f, g = self.PAIRS[pair]
        pop = self._pop("two_level")
        v = np.full(self.N_DIM, 1.0 / math.sqrt(self.N_DIM))
        a.linear_stat_covariance("global", f, g, v, v, 0.0, 1.0, pop, K4.constant(1.3), grid_points=self.POINTS)
        bulks = clt_theory._bulk_panels(pop, self.POINTS)
        assert len(seen) == 2  # the full and the half-panel nodes
        for x_seen, panels in zip(seen, (bulks, tuple((lo, hi, k // 2) for lo, hi, k in bulks))):
            x = clt_theory._support_nodes(pop.spectrum, panels)[0]
            live = (f(x) != 0.0) | (g(x) != 0.0)
            assert np.array_equal(x_seen, x[live])
            assert live.all() == ("poly_gauss" in pair)

    def test_functions_off_every_node(self):
        # one bump in the gap between the two bulks, one beyond the top edge
        pop = self._pop("two_level", N=240)
        edges = a.support_edges(pop.spectrum)
        gap = a.TestFunction(kind="bump", center=2.0, width=0.4)
        beyond = a.TestFunction(kind="bump", center=7.0, width=0.5)
        assert len(edges) == 4 and edges[2] < 1.6 and 2.4 < edges[1] and edges[0] < 6.5
        v = np.full(self.N_DIM, 1.0 / math.sqrt(self.N_DIM))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, g in ((gap, beyond), (gap, gap), (beyond, beyond)):
                cov = a.linear_stat_covariance("global", f, g, v, v, 0.0, 1.0, pop, K4.constant(1.3))
                assert (cov.value, cov.error_estimate) == (0.0, 0.0)
