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


def _models(n):
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, 2)))
    return {
        "identity": a.PopulationModel.identity(n),
        "diagonal": a.PopulationModel.from_diagonal(np.linspace(0.5, 2.0, n)),
        "spiked": a.PopulationModel.spiked(n, (0.5,)),
        "two spikes": a.PopulationModel.spiked(n, (0.5, 1.5), q),
        "general": a.PopulationModel.general(np.eye(n) + 0.5 * q @ q.T),
    }


DISTS = [a.EntryDistribution.gaussian(), a.EntryDistribution.rademacher()]


class TestInPlaceDraws:
    def test_sample_ensemble_returns_fresh_arrays(self):
        model = a.PopulationModel.spiked(30, (0.5,))
        e1 = a.sample_ensemble(model, 50, a.EntryDistribution.gaussian(), 1)
        e2 = a.sample_ensemble(model, 50, a.EntryDistribution.gaussian(), 1)
        e3 = a.sample_ensemble(model, 50, a.EntryDistribution.gaussian(), 2)
        assert not np.shares_memory(e1.sqrt_X, e2.sqrt_X)
        assert not np.shares_memory(e1.sqrt_X, e3.sqrt_X)
        assert np.array_equal(e1.sqrt_X, e2.sqrt_X)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("kind", list(_models(4)))
    def test_buffer_draw_is_sample_ensemble(self, kind, dist):
        # one-row blocks at N = 9000, a partial last block at (37, 1500), and
        # one buffer across the shapes and seeds
        from anisomp.matrix_models import DrawBuffer

        draws = DrawBuffer()
        for n, N in ((7, 9000), (37, 1500)):
            model = _models(n)[kind]
            for seed in (3, 4):
                got = draws.ensemble(model, N, dist, seed).sqrt_X
                want = a.sample_ensemble(model, N, dist, seed).sqrt_X
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["identity", "diagonal", "spiked", "two spikes"])
    def test_buffer_is_reused(self, kind):
        from anisomp.matrix_models import DrawBuffer

        draws = DrawBuffer()
        model = _models(40)[kind]
        first = draws.ensemble(model, 90, a.EntryDistribution.gaussian(), 1).sqrt_X
        second = draws.ensemble(model, 90, a.EntryDistribution.gaussian(), 2).sqrt_X
        assert second is first

    def test_entries_are_one_draw_of_the_stream(self):
        n, N = 21, 1000
        for dist, draw in (
            (a.EntryDistribution.gaussian(), lambda g: g.standard_normal((n, N))),
            (
                a.EntryDistribution.rademacher(),
                lambda g: g.integers(0, 2, size=(n, N)).astype(float) * 2.0 - 1.0,
            ),
        ):
            got = dist.sample(np.random.default_rng(5), np.empty((n, N)))
            assert got.tobytes() == draw(np.random.default_rng(5)).tobytes()

    @pytest.mark.parametrize("kind", ["diagonal", "spiked", "two spikes"])
    def test_sqrt_apply_in_place(self, kind):
        n, N = 70, 1200
        model = _models(n)[kind]
        X = np.random.default_rng(6).standard_normal((n, N))
        if kind == "diagonal":
            want = np.sqrt(model.diagonal)[:, None] * X
        else:
            V = model.spike_vectors
            scale = np.sqrt(1.0 + np.asarray(model.spike_strengths)) - 1.0
            want = X + V @ (scale[:, None] * (V.T @ X))
        got = model.sqrt_apply(X)
        assert got is X
        assert got.tobytes() == want.tobytes()

    def test_row_kappa4_in_blocks(self):
        from anisomp.matrix_models import _row_kappa4

        A = np.random.default_rng(7).standard_normal((45, 700))
        A2 = A * A
        want = A.shape[1] * np.einsum("ij,ij->i", A2, A2) / 1.3**2 - 3.0
        assert _row_kappa4(A, 1.3).tobytes() == want.tobytes()


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call; return the record."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestLazyDecomposition:
    def test_decomposes_on_first_access_only(self, monkeypatch):
        # eigenvalues read alone take one eigvalsh; the first eigenvector read
        # takes one eigh and keeps the eigenvalues already known; both read
        # one Gram matrix
        from anisomp import matrix_models

        gram = _count_calls(monkeypatch, matrix_models, "_gram")
        eigh = _count_calls(monkeypatch, np.linalg, "eigh")
        eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        ens = _ensemble(20, 40, seed=4)
        assert eigh == [] and eigvalsh == []
        lam = ens.eigenvalues
        assert eigh == [] and len(eigvalsh) == 1
        vec = ens.eigenvectors
        assert len(eigh) == 1 and len(eigvalsh) == 1 and len(gram) == 1
        assert ens.eigenvalues is lam
        assert np.allclose((ens.sqrt_X @ ens.sqrt_X.T) @ vec, vec * lam, atol=1e-10)

    def test_given_eigenpairs_are_kept(self, monkeypatch):
        eigh = _count_calls(monkeypatch, np.linalg, "eigh")
        lam = np.array([5.0, 2.0, 1.0])
        ens = a.SampleEnsemble(
            model=a.PopulationModel.identity(3),
            distribution=a.EntryDistribution.gaussian(),
            seed=0,
            N=3,
            sqrt_X=np.zeros((3, 3)),
            eigenvalues=lam,
            eigenvectors=np.eye(3),
        )
        got = a.resolvent_bilinear(ens, np.eye(3)[0], np.eye(3)[0], 6.0)
        assert got == -1.0
        assert ens.eigenvalues is lam
        assert eigh == []


def _spiked(dist, seed, n=200, N=400):
    model = a.PopulationModel.spiked(n, (0.5,))
    return a.sample_ensemble(model, N, dist, seed)


def _decomposed(ens):
    """The same draw as ``ens``, decomposed, so it takes the eigenpair route."""
    again = a.SampleEnsemble.from_data(ens.model, ens.sqrt_X, ens.distribution, ens.seed)
    again.eigenvectors
    return again


class TestCholeskyRoute:
    @pytest.mark.parametrize(
        "dist", [a.EntryDistribution.gaussian(), a.EntryDistribution.rademacher()], ids=lambda d: d.kind
    )
    @pytest.mark.parametrize("E", [3.2, 4.0, 7.5])
    def test_matches_eigenpair_route(self, dist, E, monkeypatch):
        ens = _spiked(dist, seed=21)
        ref = _decomposed(ens)
        eigh = _count_calls(monkeypatch, np.linalg, "eigh")
        n = ens.n
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(n)
        flat /= np.linalg.norm(flat)
        e1, e2 = np.eye(n)[0], np.eye(n)[1]
        for u, v in ((e1, e1), (e2, e2), (flat, flat), (e1, e2), (e1, flat)):
            got = a.resolvent_bilinear(ens, u, v, E)
            want = a.resolvent_bilinear(ref, u, v, E)
            assert got.imag == 0.0
            assert abs(got - want) <= 1e-12 * abs(want), (u @ v, got, want)
        assert eigh == []

    def test_one_factor_per_point(self, monkeypatch):
        ens = _spiked(a.EntryDistribution.gaussian(), seed=22)
        chol = _count_calls(monkeypatch, np.linalg, "cholesky")
        e1, e2 = np.eye(ens.n)[0], np.eye(ens.n)[1]
        for u, v in ((e1, e1), (e2, e2), (e1, e2)):
            a.resolvent_bilinear(ens, u, v, 4.0)
        assert len(chol) == 1
        a.resolvent_bilinear(ens, e1, e1, 5.0)
        assert len(chol) == 2

    def test_inside_the_spectrum_is_the_eigenpair_value(self):
        ens = _spiked(a.EntryDistribution.gaussian(), seed=23)
        ref = _decomposed(ens)
        lam = ref.eigenvalues
        E = 0.5 * float(lam[50] + lam[51])
        v = np.eye(ens.n)[0]
        assert a.resolvent_bilinear(ens, v, v, E) == a.resolvent_bilinear(ref, v, v, E)

    @pytest.mark.parametrize("offset", [1e-10, -1e-10])
    def test_near_the_top_eigenvalue_raises(self, offset):
        ens = _spiked(a.EntryDistribution.gaussian(), seed=24)
        E = _decomposed(ens).lambda_1 + offset
        v = np.eye(ens.n)[1]
        with pytest.raises(a.NearSingular):
            a.resolvent_bilinear(ens, v, v, E)

    def test_the_rule_is_measured_in_the_mean_eigenvalue(self, monkeypatch):
        # on the data times 1e-4 the singular and hand-over bands shrink by
        # 1e-8 with the spectrum: the same relative offsets do the same
        ens = _spiked(a.EntryDistribution.gaussian(), seed=25)
        small = a.SampleEnsemble.from_data(ens.model, 1e-4 * ens.sqrt_X)
        ref = _decomposed(small)
        unit = small.mean_eigenvalue
        v = np.eye(ens.n)[0]
        with pytest.raises(a.NearSingular):
            a.resolvent_bilinear(ref, v, v, ref.lambda_1 + 1e-10 * unit)
        E = ref.lambda_1 + 1e-7 * unit
        eigh = _count_calls(monkeypatch, np.linalg, "eigh")
        assert a.resolvent_bilinear(small, v, v, E) == a.resolvent_bilinear(ref, v, v, E)
        assert len(eigh) == 1

    def test_just_outside_the_gap_hands_over(self, monkeypatch):
        # lambda_1 + 1e-7 is clear of the 1e-8 singular band but inside the
        # hand-over margin, so the value is the eigenpair route's, bit for bit
        ens = _spiked(a.EntryDistribution.gaussian(), seed=25)
        ref = _decomposed(ens)
        E = ref.lambda_1 + 1e-7
        eigh = _count_calls(monkeypatch, np.linalg, "eigh")
        v = np.eye(ens.n)[0]
        assert a.resolvent_bilinear(ens, v, v, E) == a.resolvent_bilinear(ref, v, v, E)
        assert len(eigh) == 1

    def test_transposed_triangular_solve(self):
        from scipy.linalg import solve_triangular

        from anisomp.matrix_models import _lower_t_solve

        rng = np.random.default_rng(3)
        M = rng.standard_normal((150, 300))
        L = np.linalg.cholesky(M @ M.T / 300.0)
        B = rng.standard_normal((150, 2))
        want = solve_triangular(L, B, lower=True, trans=True)
        got = _lower_t_solve(L, B)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_lowest_eigenvalue_bound(self):
        from anisomp.matrix_models import _lowest_eigenvalue_bound

        ens = _spiked(a.EntryDistribution.gaussian(), seed=26)
        lam1 = _decomposed(ens).lambda_1
        B = ens.sqrt_X
        # E - lambda_1 near the hand-over margin, far below the spectral gap
        # lambda_1 - lambda_2: two steps already land on it
        for gap in (1e-9, 1e-7, 1e-5):
            M = (lam1 + gap) * np.eye(ens.n) - B @ B.T
            bound = _lowest_eigenvalue_bound(np.linalg.cholesky(M))
            assert bound == pytest.approx(gap, rel=1e-3)


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


class TestCenteringIntegral:
    """The mean of the law that centres ``z_statistic``, by value.  For
    Sigma = I the direction law of every unit v is the Marchenko-Pastur law
    of ratio d, density sqrt((x - lm)(lp - x))/(2 pi d x) on its bulk."""

    # criterion 6's test function: bump(1, 1) on u in (0, 2), not even in u
    F = a.TestFunction(kind="bump", center=1.0, width=1.0)
    ETA6 = 2000 ** -0.5

    @staticmethod
    def _quad_reference(f, E, eta, d):
        from scipy.integrate import quad

        lp, lm = a.null_mp_edges(d)
        ends = [x for x in (E + eta * s for s in f.support) if lm < x < lp]

        def integrand(x):
            return float(f((x - E) / eta)) * math.sqrt((x - lm) * (lp - x)) / (2 * math.pi * d * x)

        return quad(integrand, lm, lp, points=ends or None, epsabs=0.0, epsrel=1e-13, limit=400)[0]

    @pytest.mark.parametrize("d", [0.5, 2.0])
    @pytest.mark.parametrize(
        "case",
        ["global", "criterion 6", "meets upper edge, local", "meets upper edge, eta = 0.3"],
    )
    def test_matches_quadrature(self, d, case):
        from anisomp.matrix_models import _centering_integral

        lp = a.null_mp_edges(d)[0]
        E, eta = {
            "global": (0.0, 1.0),  # f((x - E)/eta) is cut by the lower edge
            "criterion 6": (1.0, self.ETA6),
            "meets upper edge, local": (lp - 0.5 * self.ETA6, self.ETA6),
            "meets upper edge, eta = 0.3": (lp - 0.3, 0.3),
        }[case]
        spectrum = a.PopulationSpectrum.identity(10, d)
        got = _centering_integral(spectrum, (1.0,), (1.0,), self.F, E, eta)
        want = self._quad_reference(self.F, E, eta, d)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


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
