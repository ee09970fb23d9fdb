"""Runner determinism, report plumbing, normality test, rigidity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisomp as a
from anisomp import clt_theory
from anisomp.experiments import (
    SphericityCell,
    _kolmogorov_sf,
    _normal_cdf,
    _pair_vectors,
    run_clt_check,
    run_coverage,
    run_linear_stat_check,
    run_sphericity_frequencies,
    spike_direction,
    trial_seed,
)


def _clt_cfg(trials=40, seed=9, mode="outside", **kw):
    n = kw.pop("n", 60)
    N = kw.pop("N", 120)
    e1 = np.zeros(n)
    e1[0] = 1.0
    e2 = np.zeros(n)
    e2[1] = 1.0
    defaults = dict(
        name="test_clt",
        model=a.PopulationModel.identity(n),
        distribution=a.EntryDistribution.gaussian(),
        N=N,
        trial_count=trials,
        master_seed=seed,
        mode=mode,
        E=4.0,
        vectors=(("e1", e1), ("e2", e2)),
    )
    defaults.update(kw)
    return a.ExperimentConfig(**defaults)


class TestNormalityTest:
    def test_null_calibration(self):
        rng = np.random.default_rng(0)
        stat, p = a.normality_test(rng.standard_normal(10_000))
        assert p > 0.01

    def test_uniform_rejected(self):
        rng = np.random.default_rng(1)
        stat, p = a.normality_test(rng.uniform(0, 1, 10_000))
        assert p < 1e-6

    def test_constant_degenerate(self):
        with pytest.raises(a.DegenerateVariance):
            a.normality_test(np.ones(100))

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            a.normality_test(np.arange(10.0))

    def test_normal_cdf_matches_scipy(self):
        from scipy.special import ndtr

        t = np.linspace(-8.0, 8.0, 20001)
        assert np.max(np.abs(_normal_cdf(t) - ndtr(t))) <= 1e-15

    @given(x=st.floats(0.02, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_kolmogorov_sf_matches_scipy(self, x):
        from scipy.special import kolmogorov

        want = float(kolmogorov(x))
        assert abs(_kolmogorov_sf(x) - want) <= 1e-13 * want

    @pytest.mark.parametrize("x", [0.0, -0.5, -np.inf])
    def test_kolmogorov_sf_is_one_at_and_below_zero(self, x):
        assert _kolmogorov_sf(x) == 1.0


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        assert trial_seed(1, 0) == trial_seed(1, 0)
        seeds = {trial_seed(1, k) for k in range(100)}
        assert len(seeds) == 100
        assert trial_seed(1, 0) != trial_seed(2, 0)


class TestRunCltCheck:
    def test_outside_report_structure(self):
        rep = run_clt_check(_clt_cfg())
        assert rep.trial_count == 40
        for label in ("e1", "e2"):
            assert "mean" in rep.stats[label]
            assert rep.predicted[label]["source"].endswith("resolvent_covariance[outside]")
            assert rep.normality[label]["p_value"] >= 0.0
        assert "cov[e1,e2]" in rep.predicted

    def test_reproducible_across_worker_counts(self):
        r1 = run_clt_check(_clt_cfg(workers=1))
        r2 = run_clt_check(_clt_cfg(workers=2))
        assert r1.stats["e1"]["mean"] == r2.stats["e1"]["mean"]
        assert r1.raw["e1"] == r2.raw["e1"]

    @pytest.mark.parametrize(
        "dist", [a.EntryDistribution.gaussian(), a.EntryDistribution.rademacher()], ids=lambda d: d.kind
    )
    def test_trials_are_fresh_draws(self, dist):
        # the runner's shared buffer gives each trial what a fresh
        # sample_ensemble of its seed gives, bit for bit
        cfg = _clt_cfg(trials=30, model=a.PopulationModel.spiked(60, (0.5, 1.0)), distribution=dist)
        rep = run_clt_check(cfg)
        for k in range(cfg.trial_count):
            ens = a.sample_ensemble(cfg.model, cfg.N, dist, trial_seed(cfg.master_seed, k))
            for label, v in cfg.vectors:
                y = a.y_statistic(ens, v, cfg.E, 0.0, 1.0j)
                assert rep.raw[label][k] == y.real

    def test_local_same_side_zero_within_noise(self):
        cfg = _clt_cfg(mode="local", E=1.0, eta=0.2, w_points=(1j, 0.5 + 1j), trials=60)
        rep = run_clt_check(cfg)
        key = "cov[e1,w0,w1]"
        pred = rep.predicted[key]
        assert pred["value_re"] == 0.0 and pred["value_im"] == 0.0
        emp = math.hypot(rep.stats[key]["value_re"], rep.stats[key]["value_im"])
        assert emp <= 4.0 * rep.stats[key]["se"] + 0.2

    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            run_clt_check(_clt_cfg(trials=10))

    @pytest.mark.parametrize(
        "kw",
        [{}, dict(mode="local", E=1.0, eta=0.2, w_points=(1j, 0.5 + 1j))],
        ids=["outside", "local"],
    )
    def test_m_solved_once_per_point(self, kw, monkeypatch):
        # m(z) does not depend on the draw: doubling the trials adds no solves
        solve = clt_theory.solve_m2c
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return solve(*args, **kwargs)

        monkeypatch.setattr(clt_theory, "solve_m2c", counted)
        counts = []
        for trials in (30, 60):
            calls.clear()
            run_clt_check(_clt_cfg(trials=trials, **kw))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 13

    def test_outside_trials_make_no_eigendecomposition(self, monkeypatch):
        # an outside trial reads R_vv(E) above the spectrum: one Cholesky
        # factor per trial, shared by both directions, and no eigh
        counts = {"eigh": 0, "cholesky": 0}
        for name in counts:
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        model = a.PopulationModel.spiked(60, (0.5,))
        rep = run_clt_check(_clt_cfg(trials=30, model=model))
        assert counts == {"eigh": 0, "cholesky": 30}
        assert rep.stats["e1"]["count"] == 30

    def test_budget_guard(self):
        # 10^9 trials of 60 x 120 exceed the budget before any trial runs
        with pytest.raises(a.BudgetExceeded):
            run_clt_check(_clt_cfg(trials=10**9))


class TestRunLinearStatCheck:
    def test_global_small(self):
        n = 50
        v = np.zeros(n)
        v[0] = 1.0
        cfg = a.ExperimentConfig(
            name="lin",
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            N=100,
            trial_count=40,
            master_seed=3,
            mode="global",
            vectors=(("e1", v),),
            functions=(a.TestFunction(kind="bump", center=1.2, width=0.8),),
        )
        rep = run_linear_stat_check(cfg)
        lab = "e1|f0"
        assert rep.predicted[lab]["value"] > 0.0
        assert rep.predicted[lab]["mean"] == 0.0
        assert rep.predicted[lab]["mean_source"].startswith("anisomp.")
        # crude sanity at tiny scale: within a factor of three
        assert 1 / 3 <= rep.stats[lab]["variance"] / rep.predicted[lab]["value"] <= 3


class TestRunCoverage:
    def test_spike_coverage_report(self):
        cfg = a.ExperimentConfig(
            name="cov",
            model=a.PopulationModel.identity(100),
            distribution=a.EntryDistribution.gaussian(),
            N=200,
            trial_count=40,
            master_seed=4,
            mode="spike",
            E=4.0,
            sigma_grid=(1.3,),
            alpha=2.0,
        )
        rep = run_coverage(cfg)
        rec = rep.frequencies["coverage[sigma=1.3]"]
        assert rec["trials"] == 40
        assert rec["count"] == round(rec["frequency"] * rec["trials"])
        assert rec["frequency"] >= 0.7

    @pytest.mark.parametrize("mode", ["spike", "population"])
    def test_reproducible_across_worker_counts(self, mode):
        cfg = dict(
            name="cov",
            model=a.PopulationModel.identity(60),
            distribution=a.EntryDistribution.rademacher(),
            N=120,
            trial_count=30,
            master_seed=4,
            mode=mode,
            E=6.0,
            sigma_grid=(1.3, 1.5),
        )
        r1 = run_coverage(a.ExperimentConfig(**cfg, workers=1))
        r2 = run_coverage(a.ExperimentConfig(**cfg, workers=2))
        assert r1.raw == r2.raw and r1.stats == r2.stats and r1.frequencies == r2.frequencies


class TestRunSphericity:
    def test_cells_and_reports(self, tmp_path):
        n = 80
        cfg = a.ExperimentConfig(
            name="sph",
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            N=160,
            trial_count=30,
            master_seed=5,
            cells=(
                SphericityCell(label="e1,e|x=0.5", pair="e1,e", x=0.5, a=1.0),
                SphericityCell(label="null", pair="e1,e2", x=0.0, a=0.0),
            ),
        )
        rep = run_sphericity_frequencies(cfg)
        assert rep.frequencies["e1,e|x=0.5"]["frequency"] <= 0.2
        assert rep.frequencies["null"]["frequency"] <= 0.2  # type-I errors
        paths = rep.write(tmp_path)
        data = json.loads((tmp_path / f"sph_5.json").read_text())
        assert data["name"] == "sph"
        assert (tmp_path / "sph_5_cells.csv").exists()

    @staticmethod
    def _cfg(**kw):
        n = 60
        return a.ExperimentConfig(
            name="sph",
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            N=120,
            trial_count=30,
            master_seed=12,
            cells=(
                SphericityCell(label="e1,e2|x=0.5", pair="e1,e2", x=0.5, a=1.0),
                SphericityCell(label="null", pair="e1,e", x=0.0, a=0.0),
            ),
            **kw,
        )

    def test_reproducible_across_worker_counts(self):
        r1 = run_sphericity_frequencies(self._cfg(workers=1))
        r2 = run_sphericity_frequencies(self._cfg(workers=2))
        assert r1.raw == r2.raw and r1.frequencies == r2.frequencies

    def test_trials_are_fresh_draws(self):
        # each trial tests the matrix a fresh sample_ensemble of its seed draws
        cfg = self._cfg()
        rep = run_sphericity_frequencies(cfg)
        n = cfg.n
        for cell in cfg.cells:
            model = (
                a.PopulationModel.spiked(n, (cell.a,), spike_direction(n, cell.x)[:, None])
                if cell.a
                else a.PopulationModel.identity(n)
            )
            u, v = _pair_vectors(cell.pair, n)
            for k in range(cfg.trial_count):
                seed = trial_seed(cfg.master_seed, k)
                ens = a.sample_ensemble(model, cfg.N, cfg.distribution, seed)
                verdict = a.sphericity_test(ens.sqrt_X, u, v, cfg.e_margin, cfg.omega)
                miss = verdict.reject if cell.a == 0.0 else not verdict.reject
                assert rep.raw[f"miss[{cell.label}]"][k] == int(miss)

    def test_pm_cell_report_is_strict_json(self):
        n = 80
        cfg = a.ExperimentConfig(
            name="sph_pm",
            model=a.PopulationModel.identity(n),
            distribution=a.EntryDistribution.gaussian(),
            N=160,
            trial_count=30,
            master_seed=5,
            cells=(SphericityCell(label="pm|x=0.5", pair="pm", x=0.5, a=1.0),),
        )
        rep = run_sphericity_frequencies(cfg)
        assert rep.frequencies["pm|x=0.5"]["trials"] == 30
        json.dumps(rep.to_dict(), allow_nan=False)

    def test_spike_direction_unit(self):
        v = spike_direction(50, 0.3)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert v[0] == 0.3


class TestRigidity:
    def test_medians_shrink(self):
        cfg = a.ExperimentConfig(
            name="rigidity",
            model=a.PopulationModel.identity(4),
            distribution=a.EntryDistribution.gaussian(),
            N=0,
            trial_count=3,
            master_seed=6,
        )
        rep = a.rigidity_diagnostic(cfg, sizes=(100, 200))
        m100 = rep.stats["N=100"]["median_bulk"]
        m200 = rep.stats["N=200"]["median_bulk"]
        assert m200 < m100
        assert rep.stats["N=100"]["edge_dev"] > m100
        assert rep.predicted == {}  # the medians are observations, not predictions


class TestReportPlumbing:
    def test_predictions_carry_sources(self):
        rep = run_clt_check(_clt_cfg(trials=30))
        for rec in rep.predicted.values():
            assert rec["source"].startswith("anisomp.")

    def test_csv_round_trip(self, tmp_path):
        rep = run_clt_check(_clt_cfg(trials=30))
        rep.write(tmp_path)
        csv_path = tmp_path / "test_clt_9.csv"
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0].startswith("trial,")
        assert len(rows) == 31
