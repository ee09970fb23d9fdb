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

    def test_zero_energy_rejected(self, null_pop_half):
        # m(E + i0) is undefined at E = 0, on every path to it
        with pytest.raises(ValueError):
            a.solve_m2c(0j, null_pop_half)
        with pytest.raises(ValueError):
            a.solve_m2c_grid(np.array([0.0, 0.5]), 0.0, null_pop_half)
        with pytest.raises(ValueError):
            a.density_rho2c(0.0, null_pop_half)

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

    def test_boundary_grid_matches_closed_form(self):
        pop = a.PopulationSpectrum.identity(8, self.D)
        x = self.points()
        got = a.solve_m2c_grid(x, 0.0, pop)
        want = np.array([a.null_mp_m2c(e, self.D) for e in x])
        assert np.max(np.abs(got - want)) < 1e-11

    def test_scalar_boundary_matches_closed_form(self):
        pop = a.PopulationSpectrum.identity(8, self.D)
        for E in self.points():
            got = a.solve_m2c(complex(E, 0.0), pop).m
            assert abs(got - a.null_mp_m2c(E, self.D)) < 1e-11, E


class TestBoundaryGrid:
    """``solve_m2c_grid`` at eta = 0 is the boundary value of the point solve."""

    def test_matches_points_over_bulks_and_gaps(self):
        pop = a.PopulationSpectrum((4.0,) * 3 + (1.0,) * 9, 0.2)
        edges = a.support_edges(pop)
        assert len(edges) == 4
        E = np.linspace(0.5 * edges[-1], 1.3 * edges[0], 1500)
        dist = mp_law.support_distance(E, pop)
        assert np.any(dist > 0.0) and np.any(dist == 0.0)
        want = mp_law.solve_m2c_points(E, 0.0, pop)[0]
        assert np.max(np.abs(a.solve_m2c_grid(E, 0.0, pop) - want)) < 1e-12

    @pytest.mark.parametrize("d", [0.5, 2.0])
    def test_one_domain_near_zero(self, d):
        # the point and grid solves accept the same small E
        pop = a.PopulationSpectrum.identity(8, d)
        E = np.array([1e-4, 1e-3, 5e-3])
        want = np.array([a.null_mp_m2c(e, d) for e in E])
        scalar = np.array([a.solve_m2c(complex(e), pop).m for e in E])
        for got in (mp_law.solve_m2c_points(E, 0.0, pop)[0], a.solve_m2c_grid(E, 0.0, pop), scalar):
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10
        assert [a.density_rho2c(e, pop) for e in E] == [0.0] * 3

    @pytest.mark.parametrize("eta", [-1e-3, math.nan])
    def test_negative_or_nan_eta_raises(self, null_pop_half, eta):
        with pytest.raises(ValueError):
            a.solve_m2c_grid(np.array([0.5, 1.0]), eta, null_pop_half)


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


class TestAcceptanceRule:
    """Every public point solve accepts m(z) by the one rule of
    ``mp_law._accept``: here ``_solve_panels`` returns a given value."""

    POP = a.PopulationSpectrum((100.0,) * 4, 0.5)  # m is of order 1/100
    M_TOP = -1.0 / (100.0 * (1.0 + math.sqrt(0.5)))  # m at the top edge

    VALUES = {
        # off the root, on the branch
        "residual": M_TOP * 1.001 + 1e-3j * abs(M_TOP),
        # a root at the top edge to the residual tolerance, below the axis
        # by 1e-10 |m|: an absolute -1e-12 test accepts it
        "below_axis": M_TOP - 5e-13j,
        # Im m = 0, and Im(z m) = eta Re m < 0
        "z_m_below_axis": complex(M_TOP),
    }

    @pytest.mark.parametrize(
        "case, eta, error",
        [
            ("residual", 0.0, a.NonConvergence),
            ("residual", 1e-13, a.NonConvergence),
            ("below_axis", 0.0, a.BranchViolation),
            ("below_axis", 1e-13, a.BranchViolation),
            ("z_m_below_axis", 1.0, a.BranchViolation),
        ],
    )
    def test_every_point_solve_rejects(self, monkeypatch, case, eta, error):
        pop, m = self.POP, self.VALUES[case]
        E = a.support_edges(pop)[0]  # on the support, so density_rho2c solves
        if case == "below_axis":  # only the sign rule can reject it
            vals, wts = _atoms(pop)
            z = np.array([complex(E, eta)])
            h = mp_law._defect_grid(np.array([m]), z, pop.aspect_ratio, vals, wts)[0]
            assert abs(m * h[0]) <= mp_law.RESIDUAL_TOL
        monkeypatch.setattr(
            mp_law, "_solve_panels", lambda E_, eta_, pop_: np.full(E_.shape, m, dtype=complex)
        )
        calls = [
            lambda: a.solve_m2c(complex(E, eta), pop),
            lambda: mp_law.solve_m2c_points(np.array([E]), eta, pop),
        ]
        if eta == 0.0:
            calls.append(lambda: a.density_rho2c(E, pop))
        for call in calls:
            with pytest.raises(error):
                call()


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
        assert np.max(np.abs(got - want) / want) < 1e-14


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


def _random_spectra(seed=16):
    """40 spectra of 1 to 5 atoms with |d - 1| >= 0.05."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        atoms = rng.uniform(0.2, 8.0, rng.integers(1, 6))
        counts = rng.integers(1, 20, atoms.size)
        d = float(rng.choice([rng.uniform(0.05, 0.95), rng.uniform(1.05, 3.0)]))
        yield a.PopulationSpectrum(tuple(np.repeat(atoms, counts)), d)


def _identity_locations(d, N, K):
    """The first K classical locations of Sigma = I with d < 1, from the
    closed-form mass of rho2c: with edges lo < hi, mid = (lo + hi)/2 and
    half = (hi - lo)/2, the mass below x = mid + half sin(theta) is
    prim(theta) - prim(-pi/2), divided by 2 pi."""
    from scipy.optimize import brentq

    hi, lo = a.null_mp_edges(d)
    mid, half, root = 0.5 * (lo + hi), 0.5 * (hi - lo), math.sqrt(lo * hi)

    def prim(theta):
        return mid * theta + half * math.cos(theta) - 2.0 * root * math.atan(
            (mid * math.tan(theta / 2.0) + half) / root
        )

    def mass_below(x):
        theta = math.asin(min(1.0, max(-1.0, (x - mid) / half)))
        return (prim(theta) - prim(-math.pi / 2)) / (2.0 * math.pi)

    return np.array(
        [
            brentq(lambda x: mass_below(x) - (d - (j - 0.5) / N), lo, hi, xtol=1e-15)
            for j in range(1, K + 1)
        ]
    )


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
        d, N = 0.5, 250
        pop = a.PopulationSpectrum.identity(N // 2, d)
        got = np.asarray(a.support_structure(pop, N).classical_locations)
        assert len(got) == N // 2
        assert np.max(np.abs(got - _identity_locations(d, N, len(got)))) <= 1e-13

    def test_half_integer_d_N_ends_at_the_lower_edge(self):
        # d N = 37.5 rounds to n = 38, and the 38th target (j - 1/2)/N is the
        # whole bulk mass d
        d, N = 0.3, 125
        s = a.support_structure(a.PopulationSpectrum.identity(4, d), N)
        got = np.asarray(s.classical_locations)
        assert len(got) == 38
        assert abs(got[-1] - s.lambda_minus) <= 1e-12
        assert np.max(np.abs(got[:-1] - _identity_locations(d, N, 37))) <= 1e-13

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

    def test_one_quadrature_pass_per_identity_bulk(self, monkeypatch):
        calls = []
        real = mp_law._bulk_mass_panels

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(mp_law, "_bulk_mass_panels", counted)
        for d in (0.1, 0.5, 2.0):  # uncached, whatever ran before
            mp_law._bulk_quadratures.__wrapped__(a.PopulationSpectrum.identity(7, d))
        assert calls == [128, 128, 128]

    def test_panel_counts_match_the_mass_doubling_rule(self):
        # the rule the error estimate replaced: double from 64 panels until
        # two successive masses agree within 1e-9, up to 1024
        def doubling_rule(pop, lo, hi):
            panels, mass = 64, mp_law._bulk_mass_panels(pop, lo, hi, 64)[3]
            while panels < 1024:
                panels *= 2
                finer = mp_law._bulk_mass_panels(pop, lo, hi, panels)[3]
                if abs(finer - mass) <= 1e-9:
                    break
                mass = finer
            return panels

        counts, want = [], []
        for pop in [*_random_spectra(16), *_random_spectra(2024)]:
            edges = a.support_edges(pop)
            counts += [len(b.t_bounds) - 1 for b in mp_law._bulk_quadratures(pop)]
            want += [doubling_rule(pop, lo, hi) for hi, lo in zip(edges[0::2], edges[1::2])]
        assert counts == want
        assert {256, 512} < set(counts)  # two bulks of the second set need finer panels

    def test_mass_accounting(self):
        for d in (0.3, 0.5, 2.0):
            pop = a.PopulationSpectrum.identity(4, d)
            s = a.support_structure(pop, 50)
            bulk_mass = sum(s.bulk_masses)
            assert bulk_mass + max(1.0 - d, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_whole_support_requires_d_away_from_one(self):
        pop = a.PopulationSpectrum.identity(4, 0.999)
        with pytest.raises(ValueError):
            a.support_structure(pop, 100)


def _brentq_edges(pop):
    """Support edges by brentq on sign changes of z'(m) over dense grids."""
    from scipy.optimize import brentq

    vals, counts = np.unique(pop.eigenvalues, return_counts=True)
    w, d = counts / pop.n, pop.aspect_ratio

    def zp(m):
        return 1.0 / m**2 - d * np.sum(w * vals**2 / (1.0 + np.multiply.outer(m, vals)) ** 2, axis=-1)

    def z(m):
        return -1.0 / m + d * np.sum(w * vals / (1.0 + m * vals))

    poles = np.sort(-1.0 / vals)
    frac = np.geomspace(1e-10, 0.5, 1000)
    frac = np.concatenate([frac, 1.0 - frac[::-1]])
    grids = [poles[0] - np.geomspace(1e-10, 1e5, 2000)[::-1]]
    grids += [lo + (hi - lo) * frac for lo, hi in zip(poles, [*poles[1:], 0.0])]
    grids.append(np.geomspace(1e-10, 1e7, 2000))
    crit = []
    for g in grids:
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.sign(zp(g))
        for i in np.nonzero(s[:-1] * s[1:] < 0)[0]:
            crit.append(z(brentq(zp, g[i], g[i + 1], xtol=1e-300, rtol=8.9e-16)))
    return sorted((c for c in crit if c > 0.0), reverse=True)


class TestEdgeFinder:
    """``support_edges`` refines its brackets by a vectorised Illinois step."""

    @given(d=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 20.0)))
    @settings(max_examples=80, deadline=None)
    def test_identity_closed_form(self, d):
        edges = a.support_edges(a.PopulationSpectrum.identity(3, d))
        # (1 - sqrt d)^2 without the cancellation of 1 - sqrt d
        want = ((1.0 + math.sqrt(d)) ** 2, (1.0 - d) ** 2 / (1.0 + math.sqrt(d)) ** 2)
        assert max(abs(e - w) / w for e, w in zip(edges, want)) <= 1e-13

    def test_matches_brentq_on_random_spectra(self):
        for pop in _random_spectra():
            edges, want = a.support_edges(pop), _brentq_edges(pop)
            assert len(edges) == len(want)
            assert np.max(np.abs(np.array(edges) - want) / np.array(want)) <= 1e-13

    def test_illinois_roots_in_twelve_evaluations(self):
        # wide and narrow brackets in either orientation, and a root that is
        # a bracket end (a = b, f(b) = 0), solved together
        a_ = np.array([0.1, 1.0, 1.9, 2.0, 5.0, 3.0])
        b_ = np.array([5.0, 3.0, 2.05, 2.0, 0.5, 1.5])
        calls = []

        def fn(x):
            calls.append(x.size)
            return x**3 - 8.0

        roots = mp_law._illinois_roots(a_, b_, a_**3 - 8.0, b_**3 - 8.0, fn)
        assert len(calls) <= 12
        assert np.max(np.abs(roots - 2.0)) <= 2e-12

    def test_root_on_a_grid_point(self):
        # z'(m) is exactly 0 at the bracketing grid point m = -0.625 here
        d = float(np.nextafter(0.36, 1.0))
        pop = a.PopulationSpectrum((4.0,) * 2 + (1.0,) * 2, d)
        assert 0.0 in mp_law._zprime(mp_law._interval_samples(-1.0, -0.25), d, *_atoms(pop))
        edges = a.support_edges(pop)
        assert len(edges) == 4 and edges[2] == pytest.approx(1.6, rel=1e-13)
        beside = a.support_edges(a.PopulationSpectrum(pop.eigenvalues, 0.36))
        assert np.allclose(edges, beside, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "eigenvalues, d",
        [((1.0,) * 4, 1.0), ((1.0,) * 4, 0.999999)],  # 0 and 1 critical values
    )
    def test_degenerate_supports_raise(self, eigenvalues, d):
        with pytest.raises(a.EdgeDegeneracy):
            a.support_edges(a.PopulationSpectrum(eigenvalues, d))

    def test_edges_closer_than_tau_raise(self):
        pop = a.PopulationSpectrum((4.0,) * 2 + (1.0,) * 2, 0.38)  # a gap of 0.024
        with pytest.raises(a.EdgeDegeneracy):
            a.support_structure(pop, 100)


class TestRegularity:
    def test_null_all_pass(self, null_pop_half):
        rep = a.regularity_check(null_pop_half, tau=0.01)
        assert rep.passed
        for tau in (0.0, math.nan, -0.1, 1.5):  # a margin outside (0, 1) is no margin
            with pytest.raises(ValueError):
                a.regularity_check(a.PopulationSpectrum.identity(4, 0.5), tau=tau)

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
        # the admissibility bounds of margin TAU are regularity_check's flags
        rep = a.regularity_check(a.PopulationSpectrum((30.0, 1.0), 0.5))
        assert not rep.sigma_max_ok
        assert rep.zero_mass_ok and rep.aspect_ratio_ok
        assert not rep.passed
