"""Ensembles, resolvent statistics, plug-in estimators, cumulant estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisomp as a


def _ensemble(n=40, N=80, dist=None, seed=1, model=None):
    model = model or a.PopulationModel.identity(n)
    dist = dist or a.EntryDistribution.gaussian()
    return a.sample_ensemble(model, N, dist, seed)


class TestSampleEnsemble:
    def test_trace_identity(self):
        ens = _ensemble(4, 8)
        assert np.trace(ens.sqrt_X @ ens.sqrt_X.T) == pytest.approx(
            np.sum(ens.eigenvalues)
        )
        assert np.sum(ens.eigenvalues) == pytest.approx(np.linalg.norm(ens.sqrt_X) ** 2)

    def test_rademacher_support(self):
        ens = _ensemble(6, 10, a.EntryDistribution.rademacher(), seed=2)
        vals = np.abs(np.sqrt(ens.N) * ens.sqrt_X)
        assert np.allclose(vals, 1.0)

    def test_seed_determinism(self):
        e1 = _ensemble(seed=7)
        e2 = _ensemble(seed=7)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.sqrt_X, e2.sqrt_X)
        e3 = _ensemble(seed=8)
        assert not np.array_equal(e1.eigenvalues, e3.eigenvalues)

    def test_eigenvalues_nonneg_and_padded(self):
        ens = _ensemble(12, 6)  # n > N: zero eigenvalues padded
        assert np.all(ens.eigenvalues >= 0.0)
        assert np.all(ens.eigenvalues[6:] == 0.0)

    def test_eigenvector_orthogonality(self):
        ens = _ensemble(30, 60)
        gram = ens.eigenvectors.T @ ens.eigenvectors
        assert np.max(np.abs(gram - np.eye(30))) < 1e-8

    def test_from_data_is_the_sampled_ensemble(self):
        model = a.PopulationModel.spiked(12, (0.5,))
        ens = _ensemble(12, 20, seed=3, model=model)
        again = a.SampleEnsemble.from_data(model, ens.sqrt_X, ens.distribution, ens.seed)
        assert np.array_equal(again.eigenvalues, ens.eigenvalues)
        assert np.array_equal(again.eigenvectors, ens.eigenvectors)

    def test_desk_scale_bound(self):
        with pytest.raises(ValueError):
            a.sample_ensemble(
                a.PopulationModel.identity(5000), 100, a.EntryDistribution.gaussian(), 0
            )


class TestVESD:
    def test_mass_bounds(self):
        ens = _ensemble(25, 50, seed=3)
        u = np.zeros(25)
        u[3] = 1.0
        assert a.vesd_eval(ens, u, ens.lambda_1 + 1.0) == pytest.approx(1.0, abs=1e-10)
        assert a.vesd_eval(ens, u, -0.5) == 0.0

    def test_monotone(self):
        ens = _ensemble(10, 20, seed=4)
        u = np.full(10, 1 / math.sqrt(10))
        xs = np.linspace(0, ens.lambda_1 + 0.5, 30)
        vals = [a.vesd_eval(ens, u, x) for x in xs]
        assert all(b >= a_ - 1e-15 for a_, b in zip(vals, vals[1:]))

    def test_one_by_one(self):
        ens = _ensemble(1, 1, seed=5)
        lam = ens.eigenvalues[0]
        u = np.ones(1)
        assert a.vesd_eval(ens, u, lam + 1e-12) == pytest.approx(1.0)
        assert a.vesd_eval(ens, u, lam - 1e-9) == 0.0
        assert lam == pytest.approx(ens.sqrt_X[0, 0] ** 2)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_total_mass_any_direction(self, seed):
        rng = np.random.default_rng(seed)
        ens = _ensemble(8, 12, seed=seed)
        u = rng.standard_normal(8)
        u /= np.linalg.norm(u)
        assert a.vesd_eval(ens, u, ens.lambda_1) == pytest.approx(1.0, abs=1e-10)


class TestResolvent:
    def test_upper_half_plane_positivity(self):
        ens = _ensemble(20, 40, seed=6)
        v = np.zeros(20)
        v[0] = 1.0
        r = a.resolvent_bilinear(ens, v, v, 0.5j)
        assert r.imag > 0.0

    def test_ward_identity(self):
        ens = _ensemble(30, 45, seed=7)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(30)
            v /= np.linalg.norm(v)
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(0.05, 1.0))
            lhs = np.sum(np.abs(ens.projections(v) / (ens.eigenvalues - z)) ** 2)
            rvv = a.resolvent_bilinear(ens, v, v, z)
            rv_norm_sq = lhs
            assert abs(lhs - rvv.imag / z.imag) <= 1e-8 * rv_norm_sq

    def test_near_singular_real_z(self):
        ens = _ensemble(10, 20, seed=8)
        v = np.zeros(10)
        v[0] = 1.0
        with pytest.raises(a.NearSingular):
            a.resolvent_bilinear(ens, v, v, complex(ens.eigenvalues[0], 0.0))

    def test_one_by_one_case(self):
        ens = _ensemble(1, 1, seed=9)
        q = ens.eigenvalues[0]
        u = np.ones(1)
        got = a.resolvent_bilinear(ens, u, u, 2.0 + 0.0j)
        assert got == pytest.approx(1.0 / (q - 2.0))


class TestYStatistic:
    def test_conjugation(self):
        ens = _ensemble(20, 40, seed=10)
        v = np.zeros(20)
        v[0] = 1.0
        y1 = a.y_statistic(ens, v, 1.0, 0.1, 0.5 + 1j)
        y2 = a.y_statistic(ens, v, 1.0, 0.1, 0.5 - 1j)
        assert y1 == pytest.approx(np.conj(y2))

    def test_centering_term_value(self):
        # at E = 4 with Sigma = I, d = 1/2 the deterministic part of R_vv is
        # -0.25/(1 + m(4)) = -0.3596117967977924
        ens = _ensemble(20, 40, seed=11)
        v = np.zeros(20)
        v[0] = 1.0
        y = a.y_statistic(ens, v, 4.0, 0.0, 1j)
        r = a.resolvent_bilinear(ens, v, v, 4.0 + 0.0j)
        centering = complex(y) / math.sqrt(ens.N) - r
        assert centering.real == pytest.approx(0.3596117967977924, abs=1e-10)
        assert centering.imag == 0.0


class TestZStatistic:
    def test_zero_function(self):
        ens = _ensemble(15, 30, seed=12)
        v = np.zeros(15)
        v[0] = 1.0
        zero = a.TestFunction(kind="poly_gauss", center=1.0, width=0.5, poly_coeffs=(0.0,))
        assert a.z_statistic(ens, v, zero, 0.0, 1.0) == 0.0

    def test_disjoint_support(self):
        ens = _ensemble(15, 30, seed=13)
        v = np.zeros(15)
        v[0] = 1.0
        f = a.TestFunction(kind="bump", center=ens.lambda_1 + 10.0, width=0.5)
        assert a.z_statistic(ens, v, f, 0.0, 1.0) == 0.0


class TestPlugInStieltjes:
    def test_direct_example(self):
        ens = a.SampleEnsemble(
            model=a.PopulationModel.identity(3),
            distribution=a.EntryDistribution.gaussian(),
            seed=0,
            N=3,
            sqrt_X=np.zeros((3, 3)),
            eigenvalues=np.array([3.0, 2.0, 1.0]),
            eigenvectors=np.eye(3),
        )
        got = a.m2c_hat(ens, 5.0)
        assert got.real == pytest.approx(-13.0 / 36.0, abs=1e-12)
        got_prime = a.m2c_hat_prime(ens, 5.0)
        assert got_prime.real > 0.0

    def test_matches_law_outside(self):
        n, N = 500, 1000
        ens = _ensemble(n, N, seed=14)
        got = a.m2c_hat(ens, 4.0)
        want = a.null_mp_m2c(4.0, 0.5)
        assert abs(got - want) <= 10.0 / N

    def test_zero_padding_counts(self):
        ens = _ensemble(6, 9, seed=15)
        lam = ens.q2_eigenvalues()
        assert len(lam) == 9
        assert np.sum(lam == 0.0) == 3

    def test_near_singular(self):
        ens = _ensemble(10, 20, seed=16)
        with pytest.raises(a.NearSingular):
            a.m2c_hat(ens, float(ens.eigenvalues[0]))

    def test_q1_q2_nonzero_spectrum_shared(self):
        # eigenvalues of X^T Sigma X match the nonzero spectrum of Q1
        ens = _ensemble(8, 12, seed=17)
        q2 = ens.sqrt_X.T @ ens.sqrt_X
        lam2 = np.sort(np.linalg.eigvalsh(q2))[::-1]
        assert np.allclose(lam2[:8], ens.eigenvalues[:8], atol=1e-8)

    def test_complex_bulk_variant(self):
        ens = _ensemble(200, 400, seed=18)
        eta = 400 ** (-0.25)
        got = a.m2c_hat(ens, complex(1.0, eta))
        want = a.solve_m2c(complex(1.0, eta), ens.pop.spectrum).m
        assert abs(got - want) < 0.1


class TestKappa4Hat:
    def test_gaussian_near_zero(self):
        ens = _ensemble(400, 800, seed=19)
        prof = a.kappa4_hat(ens, "pooled")
        assert -0.2 <= prof.values <= 0.2

    def test_rademacher_near_minus_two(self):
        ens = _ensemble(400, 800, a.EntryDistribution.rademacher(), seed=20)
        prof = a.kappa4_hat(ens, "pooled")
        assert abs(prof.values - (-2.0)) <= 0.2

    def test_zero_matrix_degenerate(self):
        ens = a.SampleEnsemble(
            model=a.PopulationModel.identity(3),
            distribution=a.EntryDistribution.gaussian(),
            seed=0,
            N=4,
            sqrt_X=np.zeros((3, 4)),
            eigenvalues=np.zeros(3),
            eigenvectors=np.eye(3),
        )
        # pooled estimate of the zero matrix is the cumulant floor: -3
        # clamped to the admissible bound -2
        prof = a.kappa4_hat(ens, "pooled")
        assert prof.values == -2.0
        raw = float(ens.N / ens.n * np.sum(ens.sqrt_X**4) - 3.0)
        assert raw == -3.0

    def test_per_row_mode(self):
        ens = _ensemble(100, 400, a.EntryDistribution.rademacher(), seed=21)
        prof = a.kappa4_hat(ens, "per-row")
        vals = np.asarray(prof.values)
        assert vals.shape == (100,)
        assert np.all(vals >= -2.0)
        assert np.mean(vals) < -1.5


class TestRigidityQualitative:
    def test_median_deviation_shrinks(self):
        meds = {}
        for N in (250, 500):
            n = N // 2
            pop = a.PopulationSpectrum.identity(n, 0.5)
            gam = np.asarray(a.support_structure(pop, N).classical_locations)
            devs = []
            for seed in range(3):
                ens = _ensemble(n, N, seed=100 + seed)
                lam = ens.eigenvalues[: len(gam)]
                dev = np.abs(lam - gam)
                devs.append(np.median(dev[n // 4 : 3 * n // 4]))
            meds[N] = np.median(devs)
        assert meds[500] < meds[250]

    def test_edge_fluctuation_exceeds_bulk(self):
        N = 500
        n = N // 2
        pop = a.PopulationSpectrum.identity(n, 0.5)
        gam = np.asarray(a.support_structure(pop, N).classical_locations)
        edge, bulk = [], []
        for seed in range(3):
            ens = _ensemble(n, N, seed=200 + seed)
            dev = np.abs(ens.eigenvalues[: len(gam)] - gam)
            edge.append(dev[0])
            bulk.append(np.median(dev[n // 4 : 3 * n // 4]))
        assert np.median(edge) > np.median(bulk)
