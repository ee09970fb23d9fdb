"""Seeded Monte-Carlo harness verifying the CLTs against the kernel theory.

Every runner draws per-trial RNG streams keyed by (master_seed, trial_index),
so results are bit-reproducible regardless of the worker count, and every
predicted value in a report names the theory operation that produced it.
The trials of one runner call draw into one ``DrawBuffer`` per process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .clt_theory import TestFunction, linear_stat_covariance, resolvent_covariance
from .errors import BudgetExceeded, DegenerateVariance
from .estimators import estimate_population_eigenvalue, estimate_spike_strength, sphericity_test
from .matrix_models import DrawBuffer, _y_m_at, y_statistic, z_statistic
from .mp_law import support_structure
from .populations import EntryDistribution, Population, PopulationModel

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "SphericityCell",
    "run_clt_check",
    "run_linear_stat_check",
    "run_coverage",
    "run_sphericity_frequencies",
    "rigidity_diagnostic",
    "normality_test",
    "reproduce",
    "REPRODUCIBLE_NAMES",
]

DEFAULT_BUDGET = 4e12  # sum over trials of n * N * trial cost proxy


@dataclass(frozen=True)
class SphericityCell:
    """One table cell: a rank-one deviation and a test-vector strategy."""

    label: str
    pair: str  # "e1,e2" | "pm" | "e1,e"
    x: float
    a: float


@dataclass(eq=False)
class ExperimentConfig:
    """Shared configuration for all runners; unused fields stay at defaults."""

    name: str
    model: PopulationModel
    distribution: EntryDistribution
    N: int
    trial_count: int
    master_seed: int
    mode: str = ""
    E: float | None = None
    eta: float | None = None
    w_points: tuple[complex, ...] = ()
    vectors: tuple[tuple[str, np.ndarray], ...] = ()
    functions: tuple[TestFunction, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    cells: tuple[SphericityCell, ...] = ()
    alpha: float = 2.0
    omega: float = 0.05
    e_margin: float = 1.0
    workers: int = 1

    @property
    def n(self) -> int:
        return self.model.n

    def summary(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "n": self.n,
            "N": self.N,
            "trial_count": self.trial_count,
            "master_seed": self.master_seed,
            "distribution": self.distribution.kind,
            "E": self.E,
            "eta": self.eta,
            "alpha": self.alpha,
            "omega": self.omega,
            "sigma_grid": list(self.sigma_grid),
            "vectors": [label for label, _ in self.vectors],
            "functions": [f.to_dict() for f in self.functions],
        }


@dataclass(eq=False)
class ExperimentReport:
    """Monte-Carlo summary: moments, predictions, normality, frequencies."""

    name: str
    master_seed: int
    trial_count: int
    config: dict
    stats: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    normality: dict = field(default_factory=dict)
    frequencies: dict = field(default_factory=dict)
    wall_clock: float = 0.0
    raw: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "master_seed": self.master_seed,
            "trial_count": self.trial_count,
            "config": self.config,
            "stats": self.stats,
            "predicted": self.predicted,
            "normality": self.normality,
            "frequencies": self.frequencies,
            "wall_clock": self.wall_clock,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def write_trials_csv(self, path) -> None:
        labels = sorted(self.raw)
        rows = max((len(self.raw[k]) for k in labels), default=0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial"] + labels)
            for i in range(rows):
                writer.writerow(
                    [i] + [self.raw[k][i] if i < len(self.raw[k]) else "" for k in labels]
                )

    def write_cells_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "frequency", "trials"])
            for label, rec in sorted(self.frequencies.items()):
                writer.writerow([label, rec["frequency"], rec["trials"]])

    def write(self, out_dir) -> list[str]:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, f"{self.name}_{self.master_seed}")
        paths = [base + ".json", base + ".csv"]
        self.write_json(paths[0])
        self.write_trials_csv(paths[1])
        if self.frequencies:
            paths.append(base + "_cells.csv")
            self.write_cells_csv(paths[2])
        return paths


def _new_report(cfg: ExperimentConfig) -> ExperimentReport:
    """An empty report for a runner's configuration; the runner times it
    with ``time.perf_counter``."""
    return ExperimentReport(
        name=cfg.name,
        master_seed=cfg.master_seed,
        trial_count=cfg.trial_count,
        config=cfg.summary(),
    )


# ---------------------------------------------------------------------------
# deterministic per-trial RNG streams


def trial_seed(master_seed: int, trial_index: int) -> int:
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def _map_trials(fn, n_trials: int, workers: int) -> list:
    """[fn(k, draws) for k < n_trials], where draws is the ``DrawBuffer`` of
    the process running trial k.  A serial run makes one for the call; each
    worker of a pooled run makes its own when it starts, so no buffer is
    pickled, and the workers and their buffers end with the call."""
    if workers <= 1:
        draws = DrawBuffer()
        return [fn(k, draws) for k in range(n_trials)]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker) as ex:
        chunk = max(1, n_trials // (workers * 4))
        return list(ex.map(partial(_worker_trial, fn), range(n_trials), chunksize=chunk))


_worker_draws: DrawBuffer | None = None  # set in each pool worker by _start_worker


def _start_worker() -> None:
    global _worker_draws
    _worker_draws = DrawBuffer()


def _worker_trial(fn, k: int):
    return fn(k, _worker_draws)


def _check_budget(cfg: ExperimentConfig) -> None:
    if cfg.n * cfg.N * cfg.trial_count > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{cfg.name}: {cfg.trial_count} trials of size {cfg.n}x{cfg.N} exceed the budget"
        )


def _require_distributional(cfg: ExperimentConfig) -> None:
    if cfg.trial_count < 30:
        raise ValueError("distributional assertions require at least 30 trials")


def normality_test(samples) -> tuple[float, float]:
    """Kolmogorov-Smirnov distance against the moment-fitted normal.

    Returns (sqrt(n) * D, asymptotic p-value).  Fitting mean/variance first
    makes the p-value conservative under the null.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if len(x) < 30:
        raise ValueError("normality test requires at least 30 samples")
    mu = float(np.mean(x))
    var = float(np.var(x))
    if var <= (1e-12 * (abs(mu) + 1.0)) ** 2:
        raise DegenerateVariance("samples are (numerically) constant")
    cdf = _normal_cdf((x - mu) / math.sqrt(var))
    k = len(x)
    grid = np.arange(1, k + 1) / k
    d = float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / k)))))
    stat = math.sqrt(k) * d
    return stat, _kolmogorov_sf(stat)


def _normal_cdf(t: np.ndarray) -> np.ndarray:
    """The standard normal CDF Phi, elementwise: erfc(-t/sqrt 2)/2 keeps the
    lower tail's relative accuracy."""
    return np.array([0.5 * math.erfc(-ti / math.sqrt(2.0)) for ti in t.tolist()])


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for Kolmogorov's limit law K of sqrt(n) D_n, from its two
    classical series (Marsaglia, Tsang and Wang, 2003): below x = 1 the CDF
    sqrt(2 pi)/x sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2)), from x = 1 on the tail
    2 sum_k (-1)^(k - 1) exp(-2 k^2 x^2).  Eight terms of either series reach
    double precision on its side of x = 1."""
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        q = math.pi**2 / (8.0 * x * x)
        cdf = math.sqrt(2.0 * math.pi) / x * sum(math.exp(-((2 * k - 1) ** 2) * q) for k in range(1, 9))
        return 1.0 - cdf
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 9))


def _frequency(hits: np.ndarray) -> dict:
    """Count, trial count and frequency of a boolean array of outcomes."""
    return {"count": int(np.sum(hits)), "trials": len(hits), "frequency": float(np.mean(hits))}


def _moment_summary(samples: np.ndarray) -> dict:
    x = np.asarray(samples, dtype=float)
    k = len(x)
    var = float(np.var(x, ddof=1))
    return {
        "mean": float(np.mean(x)),
        "variance": var,
        "se_mean": math.sqrt(var / k),
        "se_variance": var * math.sqrt(2.0 / max(k - 1, 1)),
        "count": k,
    }


# ---------------------------------------------------------------------------
# CLT for the resolvent process


def _clt_trial(k: int, draws: DrawBuffer, cfg: ExperimentConfig, ms: tuple) -> dict:
    ens = draws.ensemble(cfg.model, cfg.N, cfg.distribution, trial_seed(cfg.master_seed, k))
    out = {}
    if cfg.mode == "outside":
        for label, v in cfg.vectors:
            out[label] = complex(y_statistic(ens, v, cfg.E, 0.0, 1.0j, m=ms[0]))
    else:
        for label, v in cfg.vectors:
            for idx, w in enumerate(cfg.w_points):
                out[f"{label}|w{idx}"] = complex(
                    y_statistic(ens, v, cfg.E, cfg.eta, w, m=ms[idx])
                )
    return out


def run_clt_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Verify the resolvent CLT: mean zero, kernel covariance, normality."""
    _require_distributional(cfg)
    _check_budget(cfg)
    t0 = time.perf_counter()
    report = _new_report(cfg)
    pop = Population(cfg.model, cfg.N)
    # m(z) is the same for every draw: solve each point once for all trials
    if cfg.mode == "outside":
        ms = (_y_m_at(pop, cfg.E, 0.0, 1.0j),)
    else:
        ms = tuple(_y_m_at(pop, cfg.E, cfg.eta, w) for w in cfg.w_points)
    rows = _map_trials(partial(_clt_trial, cfg=cfg, ms=ms), cfg.trial_count, cfg.workers)
    labels = sorted(rows[0])
    samples = {lab: np.array([r[lab] for r in rows]) for lab in labels}

    if cfg.mode == "outside":
        for (label, v) in cfg.vectors:
            x = samples[label].real
            report.raw[label] = x.tolist()
            report.stats[label] = _moment_summary(x)
            pred = resolvent_covariance(
                "outside", pop, v, v, kappa=cfg.distribution.kappa4, E=cfg.E
            )
            report.predicted[label] = {
                "value": float(np.real(pred)),
                "source": "anisomp.clt_theory.resolvent_covariance[outside]",
            }
            stat, p = normality_test(x)
            report.normality[label] = {"statistic": stat, "p_value": p}
        # cross covariance for the first pair of directions
        if len(cfg.vectors) >= 2:
            (la, va), (lb, vb) = cfg.vectors[0], cfg.vectors[1]
            xa, xb = samples[la].real, samples[lb].real
            emp = float(np.mean(xa * xb) - np.mean(xa) * np.mean(xb))
            pred = resolvent_covariance(
                "outside", pop, va, vb, kappa=cfg.distribution.kappa4, E=cfg.E
            )
            report.stats[f"cov[{la},{lb}]"] = {"value": emp}
            report.predicted[f"cov[{la},{lb}]"] = {
                "value": float(np.real(pred)),
                "source": "anisomp.clt_theory.resolvent_covariance[outside]",
            }
    else:
        for (label, v) in cfg.vectors:
            for i, wi in enumerate(cfg.w_points):
                for j, wj in enumerate(cfg.w_points):
                    if j < i:
                        continue
                    yi = samples[f"{label}|w{i}"]
                    yj = samples[f"{label}|w{j}"]
                    emp = complex(np.mean(yi * yj) - np.mean(yi) * np.mean(yj))
                    key = f"cov[{label},w{i},w{j}]"
                    se = float(np.std(np.real(yi * yj)) + np.std(np.imag(yi * yj)))
                    report.stats[key] = {
                        "value_re": emp.real,
                        "value_im": emp.imag,
                        "se": se / math.sqrt(cfg.trial_count),
                    }
                    pred = resolvent_covariance(
                        "local", pop, v, v, E=cfg.E, w1=wi, w2=wj
                    )
                    report.predicted[key] = {
                        "value_re": float(np.real(pred)),
                        "value_im": float(np.imag(pred)),
                        "source": "anisomp.clt_theory.resolvent_covariance[local]",
                    }
        for lab in labels:
            report.raw[lab + ".re"] = samples[lab].real.tolist()
            report.raw[lab + ".im"] = samples[lab].imag.tolist()
            report.stats[lab] = {
                "mean_re": float(np.mean(samples[lab].real)),
                "mean_im": float(np.mean(samples[lab].imag)),
                "variance_re": float(np.var(samples[lab].real, ddof=1)),
                "variance_im": float(np.var(samples[lab].imag, ddof=1)),
            }
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# CLT for linear eigenvector statistics


def _linear_trial(k: int, draws: DrawBuffer, cfg: ExperimentConfig, eta: float, E: float) -> dict:
    ens = draws.ensemble(cfg.model, cfg.N, cfg.distribution, trial_seed(cfg.master_seed, k))
    out = {}
    for vl, v in cfg.vectors:
        for fi, f in enumerate(cfg.functions):
            out[f"{vl}|f{fi}"] = z_statistic(ens, v, f, E, eta)
    return out


def run_linear_stat_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Verify the linear-statistic CLT against the covariance formulas."""
    _require_distributional(cfg)
    _check_budget(cfg)
    t0 = time.perf_counter()
    report = _new_report(cfg)
    if cfg.mode == "global":
        eta, E = 1.0, 0.0
    else:
        eta = cfg.eta if cfg.eta is not None else cfg.N ** (-0.5)
        E = cfg.E
    rows = _map_trials(
        partial(_linear_trial, cfg=cfg, eta=eta, E=E), cfg.trial_count, cfg.workers
    )
    pop = Population(cfg.model, cfg.N)
    for vl, v in cfg.vectors:
        for fi, f in enumerate(cfg.functions):
            lab = f"{vl}|f{fi}"
            x = np.array([r[lab] for r in rows])
            report.raw[lab] = x.tolist()
            report.stats[lab] = _moment_summary(x)
            pred = linear_stat_covariance(
                cfg.mode, f, f, v, v, E, eta, pop, cfg.distribution.kappa4
            )
            # z_statistic is centred by the finite-N direction law: mean 0
            report.predicted[lab] = {
                "value": pred.value,
                "error_estimate": pred.error_estimate,
                "source": f"anisomp.clt_theory.linear_stat_covariance[{cfg.mode}]",
                "mean": 0.0,
                "mean_source": "anisomp.matrix_models._centering_integral",
            }
            stat, p = normality_test(x)
            report.normality[lab] = {"statistic": stat, "p_value": p}
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# coverage of the spike/population estimators


def _coverage_trial(
    k: int, draws: DrawBuffer, cfg: ExperimentConfig, sigma: float, method: str, kappa_mode: str
) -> dict:
    n = cfg.n
    if method == "population":
        base = np.concatenate([[sigma], np.ones(n // 2 - 1), 2.0 * np.ones(n - n // 2)])
        model = PopulationModel.from_diagonal(base)
    else:
        model = PopulationModel.spiked(n, (sigma - 1.0,))
    ens = draws.ensemble(model, cfg.N, cfg.distribution, trial_seed(cfg.master_seed, k))
    e1 = np.zeros(n)
    e1[0] = 1.0
    if method == "population":
        est = estimate_population_eigenvalue(
            ens, e1, cfg.E, alpha=cfg.alpha, kappa_mode=kappa_mode, min_gap=0.5
        )
    else:
        est = estimate_spike_strength(
            ens, e1, cfg.E, alpha=cfg.alpha, kappa_mode=kappa_mode
        )
    return {"point": est.point, "halfwidth": est.halfwidth, "covered": est.covers(sigma)}


def run_coverage(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep the spiked strength over a grid; report coverage and bias.

    ``cfg.mode`` selects the estimator: "spike" (closed-form null transform)
    or "population" (plug-in transform, two-level diagonal background).
    """
    _require_distributional(cfg)
    _check_budget(cfg)
    t0 = time.perf_counter()
    report = _new_report(cfg)
    method = cfg.mode or "spike"
    kappa_mode = "gaussian" if cfg.distribution.kind == "gaussian" else "pooled"
    for sigma in cfg.sigma_grid:
        rows = _map_trials(
            partial(
                _coverage_trial, cfg=cfg, sigma=sigma, method=method, kappa_mode=kappa_mode
            ),
            cfg.trial_count,
            cfg.workers,
        )
        points = np.array([r["point"] for r in rows])
        halfwidths = np.array([r["halfwidth"] for r in rows])
        covered = np.array([r["covered"] for r in rows], dtype=bool)
        key = f"sigma={sigma:g}"
        report.raw[f"point[{key}]"] = points.tolist()
        report.raw[f"covered[{key}]"] = covered.astype(int).tolist()
        report.stats[key] = {
            **_moment_summary(points),
            "mean_halfwidth": float(np.mean(halfwidths)),
            "target": sigma,
        }
        report.frequencies[f"coverage[{key}]"] = _frequency(covered)
        report.predicted[key] = {
            "value": sigma,
            "source": f"anisomp.estimators.estimate_{'spike_strength' if method == 'spike' else 'population_eigenvalue'}",
        }
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# sphericity tables


def _pair_vectors(pair: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    e1 = np.zeros(n)
    e1[0] = 1.0
    e2 = np.zeros(n)
    e2[1] = 1.0
    if pair == "e1,e2":
        return e1, e2
    if pair == "pm":
        return (e1 + e2) / math.sqrt(2.0), (e1 - e2) / math.sqrt(2.0)
    if pair == "e1,e":
        return e1, np.full(n, 1.0 / math.sqrt(n))
    raise ValueError(f"unknown test-vector pair {pair!r}")


def spike_direction(n: int, x: float) -> np.ndarray:
    """Unit vector (x, r, ..., r) with r = sqrt((1 - x^2)/(n - 1))."""
    r = math.sqrt((1.0 - x**2) / (n - 1))
    v = np.full(n, r)
    v[0] = x
    return v


def _sphericity_trial(
    k: int, draws: DrawBuffer, cfg: ExperimentConfig, cell: SphericityCell
) -> dict:
    n = cfg.n
    if cell.a == 0.0:
        model = PopulationModel.identity(n)
    else:
        model = PopulationModel.spiked(n, (cell.a,), spike_direction(n, cell.x)[:, None])
    ens = draws.ensemble(model, cfg.N, cfg.distribution, trial_seed(cfg.master_seed, k))
    u, v = _pair_vectors(cell.pair, n)
    verdict = sphericity_test(ens.sqrt_X, u, v, E_margin=cfg.e_margin, omega=cfg.omega)
    miss = (not verdict.reject) if cell.a != 0.0 else verdict.reject
    return {"reject": verdict.reject, "miss": miss}


def run_sphericity_frequencies(cfg: ExperimentConfig) -> ExperimentReport:
    """Misestimation frequency per (deviation, test-vector strategy) cell."""
    _require_distributional(cfg)
    _check_budget(cfg)
    t0 = time.perf_counter()
    report = _new_report(cfg)
    for cell in cfg.cells:
        rows = _map_trials(
            partial(_sphericity_trial, cfg=cfg, cell=cell), cfg.trial_count, cfg.workers
        )
        miss = np.array([r["miss"] for r in rows], dtype=bool)
        rej = np.array([r["reject"] for r in rows], dtype=bool)
        report.raw[f"miss[{cell.label}]"] = miss.astype(int).tolist()
        report.frequencies[cell.label] = _frequency(miss)
        report.frequencies[cell.label + "|reject"] = _frequency(rej)
        if cell.pair != "pm":  # the pm strategy has no predicted frequency
            report.predicted[cell.label] = {
                "value": 0.0,
                "source": "anisomp.estimators.sphericity_test",
            }
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# rigidity diagnostics


RIGIDITY_D = 0.5  # the aspect ratio n/N of the rigidity diagnostic


def _rigidity_trial(
    k: int, draws: DrawBuffer, cfg: ExperimentConfig, N: int, gammas: np.ndarray
) -> dict:
    model = PopulationModel.identity(int(round(RIGIDITY_D * N)))
    ens = draws.ensemble(model, N, cfg.distribution, trial_seed(cfg.master_seed, 1000 * N + k))
    K = len(gammas)  # min(n, N)
    dev = np.abs(ens.eigenvalues[:K] - gammas)
    lo, hi = K // 4, 3 * K // 4
    return {
        "median_bulk": float(np.median(dev[lo:hi])),
        "edge_dev": float(dev[0]),
    }


def rigidity_diagnostic(
    cfg: ExperimentConfig, sizes: tuple[int, ...] = (250, 500, 1000)
) -> ExperimentReport:
    """Median |lambda_j - gamma_j| over the middle bulk at increasing N, for
    Sigma = I at d = RIGIDITY_D.

    The medians are observations, so they go to ``stats``; the classical
    locations gamma_j they are measured against come from one
    ``support_structure`` call per N.
    """
    t0 = time.perf_counter()
    report = _new_report(cfg)
    for N in sizes:
        pop = Population(PopulationModel.identity(int(round(RIGIDITY_D * N))), N)
        gammas = np.asarray(support_structure(pop.spectrum, N).classical_locations)
        rows = _map_trials(
            partial(_rigidity_trial, cfg=cfg, N=N, gammas=gammas),
            cfg.trial_count,
            cfg.workers,
        )
        med = float(np.median([r["median_bulk"] for r in rows]))
        edge = float(np.median([r["edge_dev"] for r in rows]))
        report.stats[f"N={N}"] = {"median_bulk": med, "edge_dev": edge}
    report.wall_clock = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# reproduction presets


@dataclass(frozen=True)
class BandResult:
    description: str
    passed: bool
    observed: float
    bound: str


def reproduce(
    name: str,
    seed: int = 1,
    full: bool = False,
    trials: int | None = None,
    out_dir: str | None = None,
    workers: int = 1,
) -> tuple[list[ExperimentReport], list[BandResult]]:
    """Run one reproduction preset and evaluate its acceptance bands."""
    if name not in REPRODUCIBLE_NAMES:
        raise ValueError(f"unknown reproduction {name!r}; choose from {REPRODUCIBLE_NAMES}")
    reports, bands = _PRESETS[name](seed, full, trials, workers)
    if out_dir:
        for rep in reports:
            rep.write(out_dir)
    return reports, bands


def _table_cells_1(n: int, a: float, xs: tuple[float, ...]) -> tuple[SphericityCell, ...]:
    cells = []
    for pair in ("e1,e2", "pm", "e1,e"):
        for x in xs:
            cells.append(SphericityCell(label=f"{pair}|x={x:g}", pair=pair, x=x, a=a))
    return tuple(cells)


def _table_config(name, cells, seed, full, trials, workers) -> ExperimentConfig:
    """A sphericity table: Sigma = I with n = 500, N = 1000, Gaussian entries,
    omega = 0.05 and E = lambda_1 + 1."""
    return ExperimentConfig(
        name=name,
        model=PopulationModel.identity(500),
        distribution=EntryDistribution.gaussian(),
        N=1000,
        trial_count=trials or (1000 if full else 200),
        master_seed=seed,
        cells=cells,
        omega=0.05,
        e_margin=1.0,
        workers=workers,
    )


def _reproduce_table1(seed, full, trials, workers):
    n = 500
    xs = (1.0 / math.sqrt(n), 0.2, 0.5)
    cells = _table_cells_1(n, 1.0, xs)
    rep = run_sphericity_frequencies(_table_config("table1", cells, seed, full, trials, workers))
    f = {k: v["frequency"] for k, v in rep.frequencies.items()}
    bands = [
        BandResult(f"(e1,e) x={x:g} miss <= 0.05", f[f"e1,e|x={x:g}"] <= 0.05, f[f"e1,e|x={x:g}"], "<= 0.05")
        for x in xs
    ]
    key = f"e1,e2|x={xs[0]:g}"
    bands.append(BandResult("(e1,e2) x=n^-1/2 miss >= 0.85", f[key] >= 0.85, f[key], ">= 0.85"))
    key = "e1,e2|x=0.5"
    bands.append(BandResult("(e1,e2) x=0.5 miss <= 0.05", f[key] <= 0.05, f[key], "<= 0.05"))
    return [rep], bands


def _reproduce_table2(seed, full, trials, workers):
    a_grid = (0.1, 0.25, 1.0)
    cells = []
    for pair in ("e1,e2", "e1,e"):
        for a in a_grid:
            cells.append(SphericityCell(label=f"{pair}|a={a:g}", pair=pair, x=0.2, a=a))
    cfg = _table_config("table2", tuple(cells), seed, full, trials, workers)
    rep = run_sphericity_frequencies(cfg)
    f = {k: v["frequency"] for k, v in rep.frequencies.items()}
    seq = [f[f"e1,e|a={a:g}"] for a in a_grid]
    bands = [
        BandResult("(e1,e) a=0.25 miss <= 0.10", f["e1,e|a=0.25"] <= 0.10, f["e1,e|a=0.25"], "<= 0.10"),
        BandResult(
            "(e1,e) miss nonincreasing in a within 0.1",
            all(seq[i + 1] <= seq[i] + 0.1 for i in range(len(seq) - 1)),
            max(seq[i + 1] - seq[i] for i in range(len(seq) - 1)),
            "<= 0.1",
        ),
    ]
    return [rep], bands


def _figure_config(name, dist, mode, E, sigma_grid, seed, full, trials, workers):
    """A coverage figure: N = 2n with n = 500 (2000 with ``full``), alpha = 2."""
    n = 2000 if full else 500
    return ExperimentConfig(
        name=name,
        model=PopulationModel.identity(n),  # rebuilt per sigma inside the runner
        distribution=dist,
        N=2 * n,
        trial_count=trials,
        master_seed=seed,
        mode=mode,
        E=E,
        sigma_grid=sigma_grid,
        alpha=2.0,
        workers=workers,
    )


def _reproduce_figure1(seed, full, trials, workers):
    t = trials or 500
    reports, bands = [], []
    floor = 0.93 if full else 0.90
    for dist in (EntryDistribution.gaussian(), EntryDistribution.rademacher()):
        cfg = _figure_config(
            f"figure1_{dist.kind}", dist, "spike", 4.0, (1.1, 1.3, 1.5), seed, full, t, workers
        )
        rep = run_coverage(cfg)
        reports.append(rep)
        for sigma in cfg.sigma_grid:
            freq = rep.frequencies[f"coverage[sigma={sigma:g}]"]["frequency"]
            bands.append(
                BandResult(
                    f"{dist.kind} coverage sigma={sigma:g} >= {floor}",
                    freq >= floor,
                    freq,
                    f">= {floor}",
                )
            )
            bands.append(_bias_band(rep, sigma, dist.kind))
    return reports, bands


def _reproduce_figure2(seed, full, trials, workers):
    gaussian = EntryDistribution.gaussian()
    cfg = _figure_config(
        "figure2", gaussian, "population", 6.0, (0.5, 1.0, 1.5), seed, full, trials or 200, workers
    )
    rep = run_coverage(cfg)
    return [rep], [_bias_band(rep, sigma, "population-estimator") for sigma in cfg.sigma_grid]


def _bias_band(rep: ExperimentReport, sigma: float, label: str) -> BandResult:
    """|mean estimate - sigma| within two mean half-widths, for a run_coverage report."""
    st = rep.stats[f"sigma={sigma:g}"]
    bias, bound = abs(st["mean"] - sigma), 2.0 * st["mean_halfwidth"]
    return BandResult(
        f"{label} bias sigma={sigma:g} <= 2 halfwidths", bias <= bound, bias, f"<= {bound:.4f}"
    )


_PRESETS = {
    "table1": _reproduce_table1,
    "table2": _reproduce_table2,
    "figure1": _reproduce_figure1,
    "figure2": _reproduce_figure2,
}
REPRODUCIBLE_NAMES = tuple(_PRESETS)
