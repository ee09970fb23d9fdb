"""Solver, density, support and regularity checks against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import anisomp as a
from anisomp import mp_law
from anisomp.mp_law import _atoms

# frozen oracle values computed from the closed-form null transform
M_AT_4 = -0.3048058983988962
M_AT_1 = -0.75 + 0.6614378277661476j
M_PRIME_AT_4 = 0.10278624024743216
RHO_AT_1 = 0.2105421996738962  # sqrt(1.75) / (2 pi)
LAMBDA_PLUS = 2.914213562373095
LAMBDA_MINUS = 0.08578643762690492


def residual_of(m, z, pop):
    vals, wts = _atoms(pop)
    avg = complex(np.sum(wts * vals / (1.0 + m * vals)))
    return abs(1.0 - m * (-z + pop.aspect_ratio * avg))


class TestSolve:
    def test_outside_real_point(self, null_pop_half):
        out = a.solve_m2c(4.0 + 0.0j, null_pop_half)
        assert out.m.imag == 0.0
        assert out.m.real == pytest.approx(M_AT_4, abs=1e-12)
        assert out.residual <= 1e-12
        assert -1.0 < out.m.real < 0.0  # branch above the top edge

    def test_bulk_boundary_point(self, null_pop_half):
        out = a.solve_m2c(1.0 + 0.0j, null_pop_half)
        assert abs(out.m - M_AT_1) < 1e-12

    def test_large_z_asymptotics(self):
        pop = a.PopulationSpectrum((2.0, 1.0, 1.0, 0.5), 0.7)
        z = 1000.0j
        m = a.solve_m2c(z, pop).m
        assert abs(m - (-1.0 / z)) <= 1e-3 * abs(1.0 / z)

    def test_closed_form_match_all_regimes(self):
        for d in (0.3, 0.5, 2.0):
            pop = a.PopulationSpectrum.identity(6, d)
            lp, lm = a.null_mp_edges(d)
            grid = np.concatenate(
                [
                    np.linspace(lm + 1e-4, lp - 1e-4, 60),  # inside
                    np.linspace(lp + 1e-3, lp + 3.0, 20),  # above
                    np.linspace(lp - 1e-3, lp - 1e-5, 10),  # near edge
                    np.linspace(max(lm - 0.05, 0.02), lm - 1e-5, 10),  # below
                ]
            )
            for E in grid:
                got = a.solve_m2c(complex(E, 0.0), pop).m
                want = a.null_mp_m2c(E, d)
                assert abs(got - want) < 1e-10, (d, E)

    def test_branch_conjugation_raises(self, null_pop_half):
        with pytest.raises(ValueError):
            a.solve_m2c(1.0 - 1.0j, null_pop_half)

    def test_omega_cutoff(self, null_pop_half):
        with pytest.raises(ValueError):
            a.solve_m2c(1e-4 + 0.0j, null_pop_half)

    @given(
        E=st.floats(0.05, 6.0),
        eta=st.floats(1e-6, 10.0),
        d=st.floats(0.1, 3.0),
        sig=st.lists(st.floats(0.2, 5.0), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_nevanlinna_and_residual(self, E, eta, d, sig):
        pop = a.PopulationSpectrum(tuple(sig), d)
        z = complex(E, eta)
        out = a.solve_m2c(z, pop)
        assert out.residual <= 1e-12
        assert out.m.imag >= -1e-13
        assert (z * out.m).imag >= -1e-10 * max(1.0, abs(z * out.m))

    def test_eta_stability(self, null_pop_half, monkeypatch):
        # solves just above the axis agree at two small eta
        for E in (0.5, 1.0, 1.5, 2.0, 2.5):
            m1 = a.solve_m2c(complex(E, 1e-9), null_pop_half).m
            m2 = a.solve_m2c(complex(E, 0.5e-9), null_pop_half).m
            assert abs(m1 - m2) <= 1e-8
        # boundary values (eta = 0) do not depend on the ladder's last rung ETA0,
        # inside the bulk and off the support
        energies = (0.5, 1.0, 1.5, 2.0, 2.5, 4.0)
        default = [a.solve_m2c(complex(E, 0.0), null_pop_half).m for E in energies]
        monkeypatch.setattr(mp_law, "ETA0", 0.5e-9)
        for E, m1 in zip(energies, default):
            m2 = a.solve_m2c(complex(E, 0.0), null_pop_half).m
            assert abs(m1 - m2) <= 1e-12 * abs(m1)


class TestPanelSolve:
    """The batched march that feeds the bulk quadratures."""

    @staticmethod
    def panels(lo, hi, rows=8, cols=16):
        # rows ascend in E; the outermost nodes sit 2e-8 half-widths inside the
        # edges, as close as the first Gauss node of a 64-panel quadrature
        t = np.linspace(-0.5 * math.pi + 2e-4, 0.5 * math.pi - 2e-4, rows * cols)
        return (0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sin(t)).reshape(rows, cols)

    def test_matches_closed_form(self):
        for d in (0.3, 0.5, 2.0):
            pop = a.PopulationSpectrum.identity(6, d)
            lp, lm = a.null_mp_edges(d)
            E = self.panels(lm, lp)
            got = mp_law._solve_panels(E, mp_law.ETA0, pop)
            want = np.array([a.null_mp_m2c(complex(e, mp_law.ETA0), d) for e in E.ravel()])
            assert np.max(np.abs(got.ravel() - want)) < 1e-10, d

    def test_matches_the_scalar_march(self):
        pop = a.PopulationSpectrum((4.0,) * 3 + (1.0,) * 9, 0.2)
        edges = a.support_edges(pop)
        for k in range(len(edges) // 2):
            E = self.panels(edges[2 * k + 1], edges[2 * k])
            got = mp_law._solve_panels(E, mp_law.ETA0, pop)
            for row, m_row in zip(E, got):
                assert np.max(np.abs(m_row - a.solve_m2c_grid(row, mp_law.ETA0, pop))) < 1e-8
            assert np.min(got.imag) > 0.0


class TestBoundaryAccuracy:
    """Grid and scalar values 1e-6 and 1e-4 inside both edges, d = 1/2."""

    D = 0.5

    def points(self):
        lp, lm = a.null_mp_edges(self.D)
        return np.array([lm + 1e-6, lm + 1e-4, lp - 1e-4, lp - 1e-6])

    def test_grid_matches_closed_form(self):
        eta0 = mp_law.ETA0
        pop = a.PopulationSpectrum.identity(8, self.D)
        x = self.points()
        got = a.solve_m2c_grid(x, eta0, pop)
        want = np.array([a.null_mp_m2c(complex(e, eta0), self.D) for e in x])
        assert np.max(np.abs(got - want)) < 1e-11

    def test_scalar_boundary_matches_closed_form(self):
        pop = a.PopulationSpectrum.identity(8, self.D)
        for E in self.points():
            got = a.solve_m2c(complex(E, 0.0), pop).m
            assert abs(got - a.null_mp_m2c(E, self.D)) < 1e-11, E


class TestBatchedPointSolves:
    """The point-independent kernels behind ``mp-law --grid``."""

    @pytest.mark.parametrize("eta", [1e-6, 0.5, 2.0])
    @pytest.mark.parametrize("sigma, d", [(1.0, 0.2), (4.0, 0.2), (1.0, 2.0)])
    def test_ladder_grid_matches_closed_form(self, sigma, d, eta):
        # Sigma = sigma I has m(z) = m_I(z / sigma) / sigma
        pop = a.PopulationSpectrum((sigma,) * 10, d)
        E = np.linspace(0.05, 8.0, 40)
        got = mp_law._solve_ladder_grid(E, eta, pop)
        want = [a.null_mp_m2c(complex(e, eta) / sigma, d) / sigma for e in E]
        assert np.max(np.abs(got - np.array(want))) < 5e-12

    def test_rungs_descend_to_eta(self):
        assert mp_law._rungs(2.0) == [2.0]
        rungs = mp_law._rungs(1e-9)
        assert rungs[0] == 1.0 and rungs[-1] == 1e-9
        assert all(b < a for a, b in zip(rungs, rungs[1:]))
        assert mp_law._rungs(1e-3, 100.0)[:2] == [100.0, 20.0]
        assert mp_law._rungs(20.0, 100.0) == [20.0]

    @pytest.mark.parametrize("eta", [-1.0, 0.0, math.nan, math.inf])
    def test_rungs_reject_eta_off_the_half_plane(self, eta):
        with pytest.raises(ValueError):
            mp_law._rungs(eta)

    @pytest.mark.parametrize("eta", [-1.0, -1e-300, math.nan, math.inf])
    def test_points_reject_bad_eta(self, eta):
        pop = a.PopulationSpectrum.identity(8, 0.5)
        with pytest.raises(ValueError):
            mp_law.solve_m2c_points(np.array([1.0, 2.0]), eta, pop)

    def test_points_are_the_scalar_calls(self):
        pop = a.PopulationSpectrum((4.0,) * 3 + (1.0,) * 9, 0.2)
        E = np.linspace(0.05, 8.0, 60)
        for eta in (0.0, 1e-3):
            m, res, rho = mp_law.solve_m2c_points(E, eta, pop)
            assert np.all(res <= 1e-12)
            for e, mm, r, dens in zip(E, m, res, rho):
                one = a.solve_m2c(complex(e, eta), pop)
                assert (one.m, one.residual) == (mm, r)
                if eta == 0.0:
                    assert a.density_rho2c(e, pop) == dens
                else:
                    assert dens == mm.imag / math.pi


@pytest.mark.filterwarnings("error")
class TestLargeSpectra:
    """Sigma = sigma I at d = 10 for sigma = 50 and 200: the first eta rung
    at 1 is small on the scale of the spectrum, and the restarts from higher
    rungs must find the root with Im m > 0."""

    D = 10.0

    @pytest.mark.parametrize("eta", [0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("sigma", [50.0, 200.0])
    def test_points_match_scaled_closed_form(self, sigma, eta):
        pop = a.PopulationSpectrum((sigma,) * 10, self.D)
        # below E = 1 the closed form itself loses digits near E = 0.011
        E = np.linspace(1.0, 1.2 * sigma * (1.0 + math.sqrt(self.D)) ** 2, 400)
        m = mp_law.solve_m2c_points(E, eta, pop)[0]
        want = np.array([a.null_mp_m2c(complex(e, eta) / sigma, self.D) / sigma for e in E])
        assert np.max(np.abs(m - want) / np.abs(want)) < 1e-10

    def test_classical_locations_scale(self):
        one = a.support_structure(a.PopulationSpectrum((1.0,) * 10, self.D), 50)
        big = a.support_structure(a.PopulationSpectrum((50.0,) * 10, self.D), 50)
        want = 50.0 * np.asarray(one.classical_locations)
        got = np.asarray(big.classical_locations)
        assert np.max(np.abs(got - want) / want) < 1e-9


class TestDerivative:
    def test_value_at_4(self, null_pop_half):
        got = a.m2c_derivative(4.0 + 0.0j, null_pop_half)
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(M_PRIME_AT_4, abs=1e-12)

    def test_positive_outside(self, null_pop_half):
        for E in (3.2, 4.0, 6.0, 0.05):
            got = a.m2c_derivative(complex(E, 0.0), null_pop_half)
            assert got.real > 0.0

    def test_large_z(self, null_pop_half):
        z = 1000.0j
        got = a.m2c_derivative(z, null_pop_half)
        assert abs(got - 1.0 / z**2) <= 1e-3 * abs(1.0 / z**2)

    def test_matches_finite_differences(self):
        pop = a.PopulationSpectrum((3.0, 1.0, 1.0, 0.5), 0.4)
        for z in (4.9 + 0.0j, 1.0 + 0.3j, 2.0 + 1.0j):
            got = a.m2c_derivative(z, pop)
            h = 1e-6
            fd = (a.solve_m2c(z + h, pop).m - a.solve_m2c(z - h, pop).m) / (2 * h)
            assert abs(got - fd) <= 1e-6 * abs(fd)


class TestDensity:
    def test_value_inside(self, null_pop_half):
        assert a.density_rho2c(1.0, null_pop_half) == pytest.approx(RHO_AT_1, abs=1e-12)

    def test_zero_at_edge_and_outside(self, null_pop_half):
        assert a.density_rho2c(4.0, null_pop_half) == 0.0
        assert a.density_rho2c(LAMBDA_PLUS + 1e-12, null_pop_half) == 0.0

    def test_square_root_edge_behavior(self, null_pop_half):
        ts = np.geomspace(1e-6, 1e-2, 9)
        ratios = [a.density_rho2c(LAMBDA_PLUS - t, null_pop_half) / math.sqrt(t) for t in ts]
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) < 1.5


class TestSupport:
    def test_null_edges(self, null_pop_half):
        s = a.support_structure(null_pop_half, 100)
        assert len(s.edges) == 2
        assert s.lambda_plus == pytest.approx(LAMBDA_PLUS, abs=1e-8)
        assert s.lambda_minus == pytest.approx(LAMBDA_MINUS, abs=1e-8)

    def test_two_population_case(self):
        # half ones, half twos: may merge into one bulk; counts stay integral
        pop = a.PopulationSpectrum((2.0,) * 5 + (1.0,) * 5, 0.5)
        s = a.support_structure(pop, 64)
        assert len(s.edges) in (2, 4)
        total = sum(s.bulk_counts)
        assert abs(total - 32) <= 0.5  # min(n, N) with d = 1/2
        for c in s.bulk_counts:
            assert abs(c - round(c)) <= 0.5

    def test_split_bulks(self):
        pop = a.PopulationSpectrum((8.0,) * 2 + (1.0,) * 8, 0.3)
        s = a.support_structure(pop, 100)
        assert len(s.edges) == 4
        assert abs(s.bulk_counts[0] - round(s.bulk_counts[0])) < 0.5

    def test_classical_locations(self, null_pop_half):
        s = a.support_structure(null_pop_half, 10)
        g = s.classical_locations
        assert len(g) == 5  # min(n, N) with n = d N
        assert g[0] < s.lambda_plus
        assert g[-1] > s.lambda_minus
        assert all(x > y for x, y in zip(g[:-1], g[1:]))

    def test_gamma_mass_targets(self, null_pop_half):
        # 1 - F(gamma_j) = (j - 1/2)/N, verified by independent quadrature
        from scipy.integrate import quad

        d = 0.5
        lp, lm = a.null_mp_edges(d)

        def rho2c(x):
            return math.sqrt(max((x - lm) * (lp - x), 0.0)) / (2 * math.pi * d * x) * d

        N = 10
        s = a.support_structure(null_pop_half, N)
        for j, gamma in enumerate(s.classical_locations, start=1):
            above = quad(rho2c, gamma, lp, limit=200)[0]
            assert above == pytest.approx((j - 0.5) / N, abs=5e-8)

    def test_classical_locations_match_closed_form_quantiles(self):
        # Sigma = I, d = 1/2: with edges lo < hi, mid = (lo + hi)/2 and
        # half = (hi - lo)/2, the mass of rho2c below x = mid + half sin(theta)
        # is prim(theta) - prim(-pi/2), divided by 2 pi
        from scipy.optimize import brentq

        d, N = 0.5, 250
        hi, lo = a.null_mp_edges(d)
        mid, half, root = 0.5 * (lo + hi), 0.5 * (hi - lo), math.sqrt(lo * hi)

        def prim(theta):
            return mid * theta + half * math.cos(theta) - 2.0 * root * math.atan(
                (mid * math.tan(theta / 2.0) + half) / root
            )

        def mass_below(x):
            theta = math.asin(min(1.0, max(-1.0, (x - mid) / half)))
            return (prim(theta) - prim(-math.pi / 2)) / (2.0 * math.pi)

        pop = a.PopulationSpectrum.identity(N // 2, d)
        got = np.asarray(a.support_structure(pop, N).classical_locations)
        want = [
            brentq(lambda x: mass_below(x) - (d - (j - 0.5) / N), lo, hi, xtol=1e-15)
            for j in range(1, len(got) + 1)
        ]
        assert len(got) == N // 2
        assert np.max(np.abs(got - np.asarray(want))) <= 1e-8

    def test_classical_locations_reuse_the_quadrature(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(mp_law, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        pop = a.PopulationSpectrum((4.0,) * 3 + (1.0,) * 9, 0.2)
        a.support_structure(pop, 60)  # fills the edge and quadrature caches
        for name in ("solve_m2c", "solve_m2c_grid"):
            monkeypatch.setattr(mp_law, name, counted(name))
        s = a.support_structure(pop, 600)
        assert calls == []
        assert len(s.classical_locations) == 120

    def test_mass_accounting(self):
        for d in (0.3, 0.5, 2.0):
            pop = a.PopulationSpectrum.identity(4, d)
            s = a.support_structure(pop, 50)
            bulk_mass = sum(s.bulk_masses)
            assert bulk_mass + max(1.0 - d, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_whole_support_requires_d_away_from_one(self):
        pop = a.PopulationSpectrum.identity(4, 0.999)
        with pytest.raises(ValueError):
            a.support_structure(pop, 100)

    def test_json_round_trip(self, null_pop_half):
        import json

        s = a.support_structure(null_pop_half, 10)
        data = json.loads(s.to_json())
        assert set(data) == {"edges", "bulk_counts", "gamma"}
        assert data["edges"] == list(s.edges)


class TestRegularity:
    def test_null_all_pass(self, null_pop_half):
        rep = a.regularity_check(null_pop_half, tau=0.01)
        assert rep.passed

    def test_d_near_one_fails_whole_support(self):
        pop = a.PopulationSpectrum.identity(4, 0.999)
        rep = a.regularity_check(pop, tau=0.01)
        assert not rep.whole_support_ok
        assert not rep.passed

    def test_huge_sigma_fails_bound(self):
        pop = a.PopulationSpectrum((200.0, 1.0, 1.0), 0.5)
        rep = a.regularity_check(pop, tau=0.01)
        assert not rep.sigma_max_ok


class TestAnisotropicDensity:
    def test_null_value(self, null_pop_half):
        v = np.zeros(8)
        v[0] = 1.0
        got = a.anisotropic_density(1.0, v, null_pop_half)
        assert got == pytest.approx(2.0 * RHO_AT_1, rel=1e-10)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(0)
        pop = a.PopulationSpectrum((2.0, 1.5, 1.0, 0.7), 0.5)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        x = a.anisotropic_density(1.2, v, pop)
        y = a.anisotropic_density(1.2, -v, pop)
        assert x == y
        assert x >= 0.0

    def test_total_mass_one_when_n_le_N(self, null_pop_half):
        from scipy.integrate import quad

        v = np.zeros(8)
        v[0] = 1.0
        lo, hi = LAMBDA_MINUS, LAMBDA_PLUS
        total = quad(
            lambda E: a.anisotropic_density(E, v, null_pop_half), lo, hi, limit=300
        )[0]
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_outside_zero(self, null_pop_half):
        v = np.zeros(8)
        v[0] = 1.0
        assert a.anisotropic_density(4.0, v, null_pop_half) == 0.0


class TestSpectrumIO:
    def test_round_trip(self, tmp_path):
        pop = a.PopulationSpectrum((2.0, 1.0, 0.5), 0.75)
        path = tmp_path / "spec.txt"
        a.write_spectrum_file(path, pop)
        back = a.read_spectrum_file(path)
        assert back.eigenvalues == pop.eigenvalues
        assert back.aspect_ratio == pop.aspect_ratio

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError):
            a.read_spectrum_file(path)

    # A header, eigenvalue lines and perhaps one line of any text.  Numbers
    # are drawn non-negative, non-finite or any float in equal parts, so that
    # whole files parse often and non-finite values are common.
    NUMBER = st.floats(min_value=0.0) | st.sampled_from((math.nan, math.inf)) | st.floats()

    @given(
        d=NUMBER,
        vals=st.lists(NUMBER, max_size=6),
        junk=st.lists(st.text(max_size=8), max_size=1),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_text_parses_or_raises(self, d, vals, junk, tmp_path):
        # a file either raises ValueError or gives a finite, admissible spectrum
        path = tmp_path / "spec.txt"
        lines = [f"d_N={d!r}", *map(repr, vals), *junk]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            pop = a.read_spectrum_file(path)
        except ValueError:
            return
        eig = np.asarray(pop.eigenvalues)
        assert np.all(np.isfinite(eig))
        assert np.all(eig >= 0.0)
        assert np.all(np.diff(eig) <= 0.0)
        assert math.isfinite(pop.aspect_ratio)
        assert pop.aspect_ratio > 0.0


class TestPopulationSpectrum:
    def test_sorted_on_construction(self):
        pop = a.PopulationSpectrum((1.0, 3.0, 2.0), 0.5)
        assert pop.eigenvalues == (3.0, 2.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            a.PopulationSpectrum((-1.0, 1.0), 0.5)

    def test_validate_bounds(self):
        pop = a.PopulationSpectrum((30.0, 1.0), 0.5)
        with pytest.raises(ValueError):
            pop.validate()
