"""Spike/population estimators and the sphericity test."""

import math

import numpy as np
import pytest

import anisomp as a


def _spiked_ensemble(n=300, N=600, strength=0.5, seed=1, dist=None):
    model = a.PopulationModel.spiked(n, (strength,))
    return a.sample_ensemble(model, N, dist or a.EntryDistribution.gaussian(), seed)


def _e(n, k=0):
    v = np.zeros(n)
    v[k] = 1.0
    return v


ONE_GRAM_ONE_FACTOR = {
    "_gram": 1,
    "eigvalsh": 1,
    "cholesky": 1,
    "eigh": 0,
    "_lowest_eigenvalue_bound": 0,
}


def _count_linalg(monkeypatch):
    """Count the Gram matrices, decompositions and lambda_1 bounds that follow."""
    from anisomp import matrix_models

    calls = dict.fromkeys(ONE_GRAM_ONE_FACTOR, 0)
    for module, name in [
        (matrix_models, "_gram"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "cholesky"),
        (np.linalg, "eigh"),
        (matrix_models, "_lowest_eigenvalue_bound"),
    ]:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestAlphaOmega:
    def test_paper_threshold(self):
        assert a.alpha_from_omega(0.05) == pytest.approx(1.959964, abs=1e-5)

    def test_round_trip(self):
        for omega in (0.01, 0.05, 0.2):
            alpha = a.alpha_from_omega(omega)
            assert 1.0 - a.confidence_from_alpha(alpha) == pytest.approx(omega, abs=1e-12)

    @pytest.mark.parametrize("omega", [1e-3, 0.01, 0.05, 0.1, 0.5, 0.9])
    def test_quantile_matches_scipy(self, omega):
        from scipy.special import ndtri

        want = float(ndtri(1.0 - omega / 2.0))
        assert a.alpha_from_omega(omega) == pytest.approx(want, rel=2e-15, abs=0.0)


class TestEstimateRecord:
    def test_nan_defaults_are_strict_json(self):
        import json

        est = a.EstimateWithInterval(point=1, halfwidth=0.1, alpha=0.05, confidence=0.95)
        rec = json.loads(json.dumps(est.to_dict(), allow_nan=False))
        assert rec["point"] == 1 and rec["halfwidth"] == 0.1
        assert rec["E"] is None and rec["m2c"] is None and rec["resolvent"] is None
        assert rec["method"] == ""


class TestSpikeEstimator:
    def test_exact_plug_in_inversion(self):
        # replacing R_vv by its deterministic limit recovers sigma exactly
        d = 0.5
        m = a.null_mp_m2c(4.0, d).real
        for sigma in np.linspace(0.2, 1.6, 8):
            r = -1.0 / 4.0 / (1.0 + m * sigma)
            point = -(1.0 / m) * (1.0 / (4.0 * r) + 1.0)
            assert point == pytest.approx(sigma, abs=1e-12)

    def test_identity_inversion_on_grid(self):
        # same identity through the public API with a synthetic ensemble
        n, N, E = 50, 100, 4.0
        d = n / N
        m = a.null_mp_m2c(E, d).real
        sigma = 1.5
        r = -1.0 / E / (1.0 + m * sigma)
        lam = np.full(n, 1.0)  # spectrum irrelevant: eigenvectors aligned with e1
        lam[0] = E + 1.0 / r  # makes sum proj^2/(lam - E) equal r exactly
        ens = a.SampleEnsemble(
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            seed=0,
            N=N,
            sqrt_X=np.zeros((n, N)),
            eigenvalues=lam,
            eigenvectors=np.eye(n),
        )
        est = a.estimate_spike_strength(ens, _e(n), E, kappa_mode="gaussian")
        assert est.point == pytest.approx(sigma, abs=1e-10)

    def test_halfwidth_linear_in_alpha(self):
        ens = _spiked_ensemble()
        e1 = _e(300)
        est2 = a.estimate_spike_strength(ens, e1, 4.0, alpha=2.0, kappa_mode="gaussian")
        est3 = a.estimate_spike_strength(ens, e1, 4.0, alpha=3.0, kappa_mode="gaussian")
        assert est3.halfwidth / est2.halfwidth == pytest.approx(1.5, abs=1e-12)
        assert est3.point == est2.point

    def test_asymptotic_halfwidth_value(self):
        # Gaussian, sigma = 1, d = 1/2, E = 4: delta_alpha/(alpha sigma) =
        # sqrt(2 m'(4)/m(4)^2)
        ens = _spiked_ensemble(strength=0.0)
        est = a.estimate_spike_strength(ens, _e(300), 4.0, alpha=2.0, kappa_mode="gaussian")
        m = a.null_mp_m2c(4.0, 0.5).real
        mp = a.null_mp_m2c_prime(4.0, 0.5).real
        expected_unit = 2.0 * abs(est.point) * math.sqrt(2.0 * mp / m**2)
        assert est.halfwidth == pytest.approx(expected_unit / math.sqrt(600), rel=1e-12)

    def test_domain_guard(self):
        ens = _spiked_ensemble()
        with pytest.raises(a.OutsideDomain):
            a.estimate_spike_strength(ens, _e(300), 2.95)

    def test_degenerate_resolvent(self):
        n = 4
        ens = a.SampleEnsemble(
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            seed=0,
            N=8,
            sqrt_X=np.zeros((n, 8)),
            eigenvalues=np.array([9.0, 1.0, 1.0, 1.0]),
            eigenvectors=np.eye(n),
        )
        v = np.array([0.0, 1.0, 0.0, 0.0])
        # make R_vv = 0 by perfect cancellation: impossible with PSD spectrum
        # at real E > lambda_1, so check the error path with a doctored vector
        with pytest.raises(a.ResolventDegenerate):
            lam = ens.eigenvalues.copy()
            ens.eigenvalues[:] = [11.0, 9.0, 1.0, 1.0]
            w = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
            a.estimate_spike_strength(ens, w, 10.0, min_gap=-10.0)

    @pytest.mark.parametrize("kappa_mode", ["gaussian", "pooled"])
    def test_no_eigendecomposition(self, kappa_mode, monkeypatch):
        # R_vv(E) above the spectrum comes from a Cholesky factor; the
        # eigenpairs are computed only when something reads them
        calls = []
        eigh = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        ens = _spiked_ensemble(seed=3)
        est = a.estimate_spike_strength(ens, _e(300), 4.0, kappa_mode=kappa_mode)
        assert calls == []
        vec = ens.eigenvectors
        assert len(calls) == 1
        v = _e(300)
        want = float(np.sum((vec.T @ v) ** 2 / (ens.eigenvalues - 4.0)))
        assert est.resolvent == pytest.approx(want, rel=1e-12)


class TestPopulationEstimator:
    def test_agrees_with_spike_estimator(self):
        ens = _spiked_ensemble(seed=5)
        e1 = _e(300)
        spike = a.estimate_spike_strength(ens, e1, 4.0, kappa_mode="gaussian")
        popest = a.estimate_population_eigenvalue(ens, e1, 4.0, kappa_mode="gaussian")
        # the two differ only through m_hat vs the closed form: the
        # propagated error is bounded by the plug-in accuracy ~ 10/N
        jac = abs(1.0 / spike.m2c) * (1.0 / (4.0 * spike.resolvent**2)) / 4.0
        tol = 10.0 / ens.N * (jac + abs(spike.point / spike.m2c)) * 3.0
        assert abs(spike.point - popest.point) <= tol

    def test_eigenvalues_only(self, monkeypatch):
        # one trial forms one Gram matrix; lambda_1 and the plug-in estimates
        # read its eigenvalues, and R_vv(E) above the spectrum comes from one
        # Cholesky factor of it, checked against lambda_1 without a bound solve
        calls = _count_linalg(monkeypatch)
        ens = _spiked_ensemble(seed=5)
        est = a.estimate_population_eigenvalue(ens, _e(300), 4.0, kappa_mode="gaussian")
        assert calls == ONE_GRAM_ONE_FACTOR
        want = float(np.sum((ens.eigenvectors.T @ _e(300)) ** 2 / (ens.eigenvalues - 4.0)))
        assert est.resolvent == pytest.approx(want, rel=1e-12)

    def test_domain_guard_uses_sample_edge(self):
        ens = _spiked_ensemble(seed=6)
        with pytest.raises(a.OutsideDomain):
            a.estimate_population_eigenvalue(ens, _e(300), ens.lambda_1 + 0.05)

    def test_figure_like_setting_mean_within_band(self):
        # two-level background diag(sigma, 1 x (n/2-1), 2 x (n/2)), E = 6
        n, N, sigma = 200, 400, 1.5
        base = np.concatenate([[sigma], np.ones(n // 2 - 1), 2.0 * np.ones(n - n // 2)])
        model = a.PopulationModel.from_diagonal(base)
        points, hws = [], []
        for seed in range(40):
            ens = a.sample_ensemble(model, N, a.EntryDistribution.gaussian(), seed)
            est = a.estimate_population_eigenvalue(
                ens, _e(n), 6.0, kappa_mode="gaussian", min_gap=0.5
            )
            points.append(est.point)
            hws.append(est.halfwidth)
        assert abs(np.mean(points) - sigma) <= 2.0 * np.mean(hws)


class TestSphericity:
    def _data(self, n=200, N=400, a_spike=0.0, x=0.2, seed=0, dist=None):
        dist = dist or a.EntryDistribution.gaussian()
        rng = np.random.default_rng(seed)
        X = dist.sample(rng, np.empty((n, N))) / math.sqrt(N)
        if a_spike == 0.0:
            return X
        from anisomp.experiments import spike_direction

        model = a.PopulationModel.spiked(n, (a_spike,), spike_direction(n, x)[:, None])
        return model.sqrt_apply(X)

    def test_null_accepts_mostly(self):
        rejections = 0
        for seed in range(20):
            data = self._data(seed=seed)
            v = a.sphericity_test(data, _e(200), _e(200, 1))
            rejections += v.reject
        assert rejections <= 3

    def test_alternative_flat_vector_rejects(self):
        n = 200
        e_flat = np.full(n, 1.0 / math.sqrt(n))
        hits = 0
        for seed in range(10):
            data = self._data(a_spike=1.0, x=0.5, seed=seed)
            v = a.sphericity_test(data, _e(n), e_flat)
            hits += v.reject
        assert hits >= 9

    def test_scale_invariance_bitwise(self, monkeypatch):
        # the real-point rule is measured in sigma^2, so a small scale keeps
        # the Cholesky route and the verdict
        data = self._data(seed=3)
        u, v = _e(200), _e(200, 1)
        v1 = a.sphericity_test(data, u, v)
        calls = _count_linalg(monkeypatch)
        for scale in (2.7, 1e-3, 1e-6):
            calls.update(dict.fromkeys(calls, 0))
            v2 = a.sphericity_test(scale * data, u, v)
            assert calls == ONE_GRAM_ONE_FACTOR, scale
            assert v1.decision == v2.decision
            assert v2.rescale_sigma_sq == pytest.approx(scale**2 * v1.rescale_sigma_sq, rel=1e-12)
            for key in ("statistic", "threshold", "gamma_sq", "E", "m2c_hat", "m2c_prime_hat", "kappa4_max"):
                assert getattr(v2, key) == pytest.approx(getattr(v1, key), rel=1e-9), (scale, key)

    def test_threshold_decision_consistency(self):
        data = self._data(seed=4)
        v = a.sphericity_test(data, _e(200), _e(200, 1))
        assert v.reject == (v.statistic >= v.threshold)
        assert v.gamma_sq > 0.0
        assert v.alpha == pytest.approx(1.959964, abs=1e-5)

    def test_power_separation_deterministic(self):
        # Sigma = I + e1 e1^T at n = 500: the deterministic resolvent gap
        # between the spike and a bulk direction beats 10 N^{-1/2}
        n, N = 500, 1000
        model = a.PopulationModel.spiked(n, (1.0,))
        scale = model.eigenvalues().sum() / n
        tilde = a.PopulationModel.from_diagonal(model.eigenvalues() / scale)
        pop = a.Population(tilde, N)
        lam_plus = a.support_edges(pop.spectrum)[0]
        E = lam_plus + 1.0
        m = a.solve_m2c(complex(E, 0.0), pop.spectrum).m.real
        sig = tilde.diagonal
        gap = abs(1.0 / (1.0 + m * sig[0]) - 1.0 / (1.0 + m * sig[-1]))
        assert gap > 10.0 / math.sqrt(N)

    def test_degenerate_data(self):
        with pytest.raises(a.DegenerateData):
            a.sphericity_test(np.zeros((5, 10)), _e(5), _e(5, 1))
        bad = self._data(n=40, N=80, seed=2)
        bad[3, 5] = np.inf
        with pytest.raises(a.DegenerateData):
            a.sphericity_test(bad, _e(40), _e(40, 1))

    def test_has_no_kappa_mode(self):
        # the variance bound is always the positive-part per-row maximum
        data = self._data(n=40, N=80, seed=2)
        with pytest.raises(TypeError):
            a.sphericity_test(data, _e(40), _e(40, 1), kappa_mode="gaussian")

    @pytest.mark.parametrize("margin", [0.0, -1.0, math.nan, math.inf])
    def test_bad_margin_rejected(self, margin):
        data = self._data(n=40, N=80, seed=2)
        with pytest.raises(ValueError):
            a.sphericity_test(data, _e(40), _e(40, 1), E_margin=margin)

    def test_margin_in_the_singular_band(self):
        # E = lambda_1 + 1e-300 is lambda_1: within REAL_GAP of the spectrum
        W = self._data(n=40, N=80, seed=2)
        with pytest.raises(a.NearSingular):
            a.sphericity_test(W, _e(40), _e(40, 1), E_margin=1e-300)

    def test_margin_in_the_hand_over_band(self, monkeypatch):
        # lambda_1 + 1e-7 is clear of REAL_GAP but inside NEAR_FACTOR x
        # REAL_GAP: the resolvent comes from the eigenpairs
        W = self._data(n=40, N=80, seed=2)
        u, v = _e(40), np.full(40, 1.0 / math.sqrt(40))
        calls = _count_linalg(monkeypatch)
        got = a.sphericity_test(W, u, v, 1e-7, 0.05)
        assert calls["eigh"] == 1 and calls["cholesky"] == 0
        want = _eigh_sphericity(W, u, v, 1e-7, 0.05)
        # each side rounds E - lambda_1 = 1e-7 to within an ulp of lambda_1
        # (4.4e-16 here), so the top terms agree to a few parts in 1e9
        for key, val in want.items():
            assert getattr(got, key) == pytest.approx(val, rel=2e-8), key

    @pytest.mark.parametrize(
        "n, N, a_spike",
        [(200, 400, 0.0), (150, 300, 1.0), (120, 60, 0.0)],
        ids=["null", "spiked", "n>N"],
    )
    def test_matches_eigh_recomputation(self, n, N, a_spike):
        data = self._data(n=n, N=N, a_spike=a_spike, x=0.5, seed=11)
        u, v = _e(n), np.full(n, 1.0 / math.sqrt(n))
        got = a.sphericity_test(data, u, v, 1.0, 0.05)
        want = _eigh_sphericity(data, u, v, 1.0, 0.05)
        for key, val in want.items():
            assert getattr(got, key) == pytest.approx(val, rel=1e-9), key
        assert got.decision == ("reject" if want["statistic"] >= want["threshold"] else "accept")

    @pytest.mark.parametrize("a_spike, x", [(0.0, 0.2), (1.0, 0.5)], ids=["null", "spiked"])
    def test_matches_the_rescaled_copy(self, a_spike, x):
        # the statistic from Q1 = A A^T / sigma^2 and A * A / sigma^4 equals
        # the one computed on the rescaled copy W = A / sigma
        n, N = 200, 400
        data = self._data(n=n, N=N, a_spike=a_spike, x=x, seed=12)
        u, v = _e(n), _e(n, 1)
        got = a.sphericity_test(data, u, v, 1.0, 0.05)
        want = _rescaled_copy_sphericity(data, u, v, 1.0)
        for key, val in want.items():
            assert getattr(got, key) == pytest.approx(val, rel=1e-12), key

    def test_block_forward_solve(self):
        from scipy.linalg import solve_triangular

        from anisomp.matrix_models import _lower_solve

        rng = np.random.default_rng(3)
        M = rng.standard_normal((150, 300))
        L = np.linalg.cholesky(M @ M.T / 300.0)
        B = rng.standard_normal((150, 2))
        want = solve_triangular(L, B, lower=True)
        got = _lower_solve(L, B)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))

    def test_no_eigenvectors(self, monkeypatch):
        # one Gram matrix of the raw data: lambda_1 and the plug-in estimates
        # from its eigenvalues, R_uu and R_vv from one Cholesky factor of it
        calls = _count_linalg(monkeypatch)
        data = self._data(n=500, N=1000, seed=5)
        a.sphericity_test(data, _e(500), _e(500, 1))
        assert calls == ONE_GRAM_ONE_FACTOR

    def test_json_serialization(self):
        import json

        data = self._data(seed=8)
        v = a.sphericity_test(data, _e(200), _e(200, 1))
        record = json.loads(v.to_json())
        for key in ("statistic", "threshold", "decision", "gamma_sq", "E", "m2c_hat"):
            assert key in record


def _eigh_sphericity(A, u, v, margin, omega):
    """The test's numeric fields from a full eigendecomposition of Q1."""
    n, N = A.shape
    W = A / math.sqrt(np.sum(A**2) / n)
    lam, vec = np.linalg.eigh(W @ W.T)
    lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1]
    E = lam[0] + margin
    pu, pv = vec.T @ u, vec.T @ v
    g = np.sum(pu**2 / (lam - E)) - np.sum(pv**2 / (lam - E))
    lam_q2 = np.concatenate([lam[: min(n, N)], np.zeros(max(N - n, 0))])
    m = np.mean(1.0 / (lam_q2 - E))
    mp = np.mean(1.0 / (lam_q2 - E) ** 2)
    kappa_max = np.max(N * np.sum(W**4, axis=1) - 3.0)
    gamma_sq = m**2 / (E**2 * abs(1.0 + m) ** 4) * (max(kappa_max, 0.0) + 2.0 * mp / m**2)
    alpha = a.alpha_from_omega(omega)
    return {
        "statistic": math.sqrt(N) * abs(g),
        "threshold": math.sqrt(2.0) * alpha * math.sqrt(gamma_sq),
        "E": E,
        "m2c_hat": m,
        "m2c_prime_hat": mp,
        "kappa4_max": kappa_max,
    }


def _rescaled_copy_sphericity(A, u, v, margin):
    """The test's numbers from the explicitly rescaled copy W = A / sigma,
    the reference for the rescale folded into the spectral point and the row
    cumulants; the resolvent gap from a dense solve against W W^T - E."""
    n, N = A.shape
    sigma_sq = float(np.sum(A**2) / n)
    W = A / math.sqrt(sigma_sq)
    Q1 = W @ W.T
    lam = np.maximum(np.linalg.eigvalsh(Q1)[::-1], 0.0)
    E = float(lam[0]) + margin
    out = {"E": E, "rescale_sigma_sq": sigma_sq}
    R = np.linalg.solve(Q1 - E * np.eye(n), np.column_stack([u, v]))
    out["statistic"] = math.sqrt(N) * abs(float(u @ R[:, 0]) - float(v @ R[:, 1]))
    W2 = W * W
    out["kappa4_max"] = float(np.max(N * np.sum(W2 * W2, axis=1) - 3.0))
    return out
