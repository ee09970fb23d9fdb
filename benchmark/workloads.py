"""The benchmark's two workloads, monte-carlo and theory; one runs per process.

    PYTHONPATH=src python3 benchmark/workloads.py --workload NAME --seed S \
        --seconds T --trace 0|1 [--setup-only]

``run.py`` starts this with the environment pinned and prints the result
line; run this file directly only to debug one workload.  The process prints
one JSON object as its last line of standard output.

Each workload is made of two parts (mc-outside-clt and mc-sphericity;
theory-support and theory-covariance).  It builds its inputs from the seed,
runs one small untimed warm-up operation per part (together with the
imports this is the set-up time), then repeats whole rounds of the same
operations.  An operation is one call into
a public entry point (``anisomp.experiments.run_*``, ``anisomp.cli.main``,
``anisomp.clt_theory.*``).  Only the operations themselves are timed; the
outputs are checked against ``reference.py`` after the timed phase.
"""

import time

_START = time.perf_counter()  # set-up time includes every import below

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import anisomp  # noqa: E402
from anisomp import cli, clt_theory, experiments  # noqa: E402
from anisomp.experiments import ExperimentConfig, SphericityCell  # noqa: E402
from anisomp.populations import (  # noqa: E402
    EntryDistribution,
    FourthCumulantProfile,
    Population,
    PopulationModel,
)

from tracing import Tracer  # noqa: E402

ref = None  # the reference module, imported after set-up so it is not timed


def derive_seed(seed: int, *keys: int) -> int:
    """First 32-bit word of SeedSequence([seed, *keys])."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def unit(n: int, k: int) -> np.ndarray:
    v = np.zeros(n)
    v[k] = 1.0
    return v


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def strict_json(report) -> bool:
    try:
        json.dumps(report.to_dict(), allow_nan=False)
    except ValueError:
        return False
    return True


class Op:
    """One timed call: ``fn()`` does the work and counts ``trials`` trials.

    ``call`` names the exact work (kind plus cell, profile or pair); calls
    with the same name repeat the same work on new seeded inputs.  ``part``
    is the workload part that made the call and records its result.
    """

    def __init__(self, kind: str, fn, trials: int = 1, call: str | None = None, **info) -> None:
        self.kind, self.fn, self.trials, self.info = kind, fn, trials, info
        self.call = call or kind
        self.part: Workload | None = None

    @property
    def key(self) -> str:
        return f"{self.part.name}/{self.call}" if self.part else self.call


class Workload:
    """Inputs, operations, references and checks of one workload.

    ``round_s`` is the expected length of one round; a traced run does
    max(1, round(seconds / round_s)) rounds, so its counts do not depend on
    the machine's speed.
    """

    name = ""
    round_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.outputs: list[dict] = []

    def build(self) -> None:
        """Construct the inputs shared by every round."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def record(self, op: Op, result) -> None:
        """Keep what the checks need from one operation's result."""
        raise NotImplementedError

    def after(self) -> None:
        """Untimed program calls whose outputs the checks need."""

    def references(self) -> dict:
        raise NotImplementedError

    def check(self, refs: dict) -> list[str]:
        raise NotImplementedError

    def perturbations(self, refs: dict) -> list[tuple[str, dict]]:
        """Copies of refs, each off by more than one check's tolerance."""
        raise NotImplementedError

    def output_perturbations(self) -> list[tuple[str, int, dict]]:
        """(label, output index, changed fields) breaking a property that is
        checked without a reference."""
        return []


# ---------------------------------------------------------------------------
# mc-outside-clt


class OutsideCLT(Workload):
    """run_clt_check(mode="outside"): spike a = 0.5 on e1, n = 500, N = 1000,
    E = 4, directions e1 and e2; Gaussian and Rademacher calls alternate."""

    name = "mc-outside-clt"
    round_s = 4.2
    n, N, E, a, trials = 500, 1000, 4.0, 0.5, 30
    LABELS = ("e1", "e2")
    REL_TOL = 1e-10
    # Finite-n allowance on the limiting mean and variance (measured at
    # n = 500: bias well under 0.05 sd and a few percent of the variance).
    MEAN_BIAS_SD, VAR_BIAS = 0.1, 0.1

    def build(self) -> None:
        self.model = PopulationModel.spiked(self.n, (self.a,))
        self.vectors = tuple((lab, unit(self.n, k)) for k, lab in enumerate(self.LABELS))
        self.dists = (EntryDistribution.gaussian(), EntryDistribution.rademacher())

    def warm_up(self) -> None:
        cfg = ExperimentConfig(
            name="warm_up",
            model=PopulationModel.spiked(50, (self.a,)),
            distribution=self.dists[0],
            N=100,
            trial_count=30,
            master_seed=0,
            mode="outside",
            E=self.E,
            vectors=tuple((lab, unit(50, k)) for k, lab in enumerate(self.LABELS)),
        )
        experiments.run_clt_check(cfg)

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for j, dist in enumerate(self.dists):
            cfg = ExperimentConfig(
                name=f"outside_{dist.kind}",
                model=self.model,
                distribution=dist,
                N=self.N,
                trial_count=self.trials,
                master_seed=derive_seed(self.seed, 1, 2 * r + j),
                mode="outside",
                E=self.E,
                vectors=self.vectors,
            )
            ops.append(
                Op(dist.kind, lambda cfg=cfg: experiments.run_clt_check(cfg), self.trials)
            )
        return ops

    def record(self, op: Op, report) -> None:
        self.outputs.append(
            {
                "kind": op.kind,
                "strict_json": strict_json(report),
                "predicted": {k: v["value"] for k, v in report.predicted.items()},
                "samples": {lab: np.asarray(report.raw[lab]) for lab in self.LABELS},
            }
        )

    def references(self) -> dict:
        diag = np.ones(self.n)
        diag[0] = 1.0 + self.a
        variance = {}
        for dist in self.dists:
            for lab, v in self.vectors:
                kappa = float(dist.kappa4.values)
                variance[f"{dist.kind}|{lab}"] = ref.outside_variance(
                    self.E, self.n / self.N, diag, v, kappa
                )
        return {"variance": variance, "cross": 0.0, "mean": 0.0}

    def check(self, refs: dict) -> list[str]:
        bad = []
        pooled: dict[str, list[np.ndarray]] = {}
        for i, out in enumerate(self.outputs):
            tag = f"call {i} ({out['kind']})"
            if not out["strict_json"]:
                bad.append(f"{tag}: report is not strict JSON")
            cross = out["predicted"][f"cov[{self.LABELS[0]},{self.LABELS[1]}]"]
            scale = max(refs["variance"].values())
            if abs(cross - refs["cross"]) > self.REL_TOL * scale:
                bad.append(f"{tag}: cross covariance {cross} != {refs['cross']}")
            for lab in self.LABELS:
                key = f"{out['kind']}|{lab}"
                want = refs["variance"][key]
                got = out["predicted"][lab]
                if rel_err(got, want) > self.REL_TOL:
                    bad.append(f"{tag} {lab}: predicted variance {got!r} vs reference {want!r}")
                x = out["samples"][lab]
                pooled.setdefault(key, []).append(x)
                bad += self._moments(f"{tag} {lab}", x, want, refs["mean"])
        for key, xs in pooled.items():
            bad += self._moments(f"pooled {key}", np.concatenate(xs), refs["variance"][key], refs["mean"])
        return bad

    def _moments(self, tag: str, x: np.ndarray, variance: float, mean: float) -> list[str]:
        bad = []
        sd = math.sqrt(variance)
        bound = ref.mean_bound(variance, len(x)) + self.MEAN_BIAS_SD * sd
        if abs(np.mean(x) - mean) > bound:
            bad.append(f"{tag}: mean {np.mean(x):.4g} outside {mean} +- {bound:.4g}")
        lo, hi = ref.variance_band(variance, len(x))
        s2 = float(np.var(x, ddof=1))
        if not lo * (1.0 - self.VAR_BIAS) <= s2 <= hi * (1.0 + self.VAR_BIAS):
            bad.append(f"{tag}: variance {s2:.4g} outside [{lo:.4g}, {hi:.4g}]")
        return bad

    def perturbations(self, refs: dict) -> list[tuple[str, dict]]:
        out = []
        for key, val in refs["variance"].items():
            var = dict(refs["variance"])
            var[key] = val * (1.0 + 1e-8)
            out.append((f"variance {key} x (1 + 1e-8)", {**refs, "variance": var}))
            var = dict(refs["variance"])
            var[key] = val * 0.1
            out.append((f"variance {key} x 0.1", {**refs, "variance": var}))
        shift = math.sqrt(max(refs["variance"].values()))
        out.append(("mean + 1 sd", {**refs, "mean": shift}))
        out.append(("cross covariance + 1e-6", {**refs, "cross": 1e-6}))
        return out


# ---------------------------------------------------------------------------
# mc-sphericity


class Sphericity(Workload):
    """run_sphericity_frequencies on the criterion-8 cells (a = 1) and one
    null cell (a = 0), one call per cell; n = 500, N = 1000, omega = 0.05."""

    name = "mc-sphericity"
    round_s = 17.0
    n, N, trials, omega, margin = 500, 1000, 30, 0.05, 1.0
    REL_TOL = 1e-9

    def build(self) -> None:
        root = 1.0 / math.sqrt(self.n)
        self.cells = (
            SphericityCell(label="e1,e|x=root", pair="e1,e", x=root, a=1.0),
            SphericityCell(label="e1,e|x=0.5", pair="e1,e", x=0.5, a=1.0),
            SphericityCell(label="e1,e2|x=root", pair="e1,e2", x=root, a=1.0),
            SphericityCell(label="e1,e2|x=0.5", pair="e1,e2", x=0.5, a=1.0),
            SphericityCell(label="null", pair="e1,e2", x=0.5, a=0.0),
        )
        # the matrix the benchmark draws itself for the direct sphericity_test
        rng = rng_for(self.seed, 20)
        n, N = 200, 400
        X = rng.standard_normal((n, N)) / math.sqrt(N)
        v = np.full(n, 1.0 / math.sqrt(n))
        self.direct = {
            "A": X + np.outer(v, (math.sqrt(2.0) - 1.0) * (v @ X)),  # Sigma = I + v v^T
            "u": unit(n, 0),
            "v": unit(n, 1),
        }

    def config(self, n: int, trials: int, master_seed: int, cells) -> ExperimentConfig:
        return ExperimentConfig(
            name="sphericity",
            model=PopulationModel.identity(n),
            distribution=EntryDistribution.gaussian(),
            N=2 * n,
            trial_count=trials,
            master_seed=master_seed,
            cells=cells,
            omega=self.omega,
            e_margin=self.margin,
        )

    def warm_up(self) -> None:
        cell = SphericityCell(label="warm", pair="e1,e2", x=0.5, a=1.0)
        experiments.run_sphericity_frequencies(self.config(50, 30, 0, (cell,)))

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for k, cell in enumerate(self.cells):
            cfg = self.config(self.n, self.trials, derive_seed(self.seed, 2, r, k), (cell,))
            ops.append(
                Op(
                    "frequencies",
                    lambda cfg=cfg: experiments.run_sphericity_frequencies(cfg),
                    self.trials,
                    call=cell.label,
                )
            )
        return ops

    def record(self, op: Op, report) -> None:
        self.outputs.append(
            {"strict_json": strict_json(report), "frequencies": report.frequencies}
        )

    def after(self) -> None:
        d = self.direct
        verdict = anisomp.sphericity_test(d["A"], d["u"], d["v"], self.margin, self.omega)
        self.direct_out = {"statistic": verdict.statistic, "E": verdict.E, "threshold": verdict.threshold}

    def references(self) -> dict:
        d = self.direct
        return {
            "trials": self.trials,
            "null": "null",
            "strong": ["e1,e|x=root", "e1,e|x=0.5", "e1,e2|x=0.5"],
            "bound": ref.binomial_bound(self.trials, self.omega),
            "direct": ref.sphericity_reference(d["A"], d["u"], d["v"], self.margin, self.omega),
        }

    def check(self, refs: dict) -> list[str]:
        bad = []
        for i, out in enumerate(self.outputs):
            if not out["strict_json"]:
                bad.append(f"call {i}: report is not strict JSON")
            for label, rec in out["frequencies"].items():
                if rec["trials"] != refs["trials"]:
                    bad.append(f"call {i} {label}: {rec['trials']} trials, expected {refs['trials']}")
                if abs(rec["count"] - rec["frequency"] * rec["trials"]) > 1e-9:
                    bad.append(f"call {i} {label}: count {rec['count']} != frequency x trials")
                if label == refs["null"] + "|reject" and rec["count"] > refs["bound"]:
                    bad.append(f"call {i}: {rec['count']} null rejections > bound {refs['bound']}")
                if label in refs["strong"] and rec["count"] > refs["bound"]:
                    bad.append(f"call {i} {label}: {rec['count']} misses > bound {refs['bound']}")
        for key, want in refs["direct"].items():
            got = self.direct_out[key]
            if rel_err(got, want) > self.REL_TOL:
                bad.append(f"direct sphericity_test {key}: {got!r} vs dense {want!r}")
        return bad

    def perturbations(self, refs: dict) -> list[tuple[str, dict]]:
        out = [
            ("trials + 1", {**refs, "trials": refs["trials"] + 1}),
            # a strong alternative treated as the null: its rejections are
            # far above the null bound
            ("null cell -> e1,e|x=0.5", {**refs, "null": "e1,e|x=0.5"}),
            # the weak alternative misses most of the time
            ("weak cell counted as strong", {**refs, "strong": refs["strong"] + ["e1,e2|x=root"]}),
        ]
        for key, val in refs["direct"].items():
            direct = dict(refs["direct"])
            direct[key] = val * (1.0 + 1e-7)
            out.append((f"direct {key} x (1 + 1e-7)", {**refs, "direct": direct}))
        return out


# ---------------------------------------------------------------------------
# theory-support


class Support(Workload):
    """In-process ``anisomp mp-law`` calls: support structure of the identity
    and of a two-level spectrum, and boundary grids of the identity."""

    name = "theory-support"
    round_s = 6.5
    ID_N = 40  # --N of the identity calls: about 20 classical locations
    TWO_N, TWO_D, TWO_LEVELS = 300, 0.1, (4.0, 1.0)  # 30 population eigenvalues
    GRID_STEP, GRID_STOP = 0.01, 3.5
    EDGE_TOL, GAMMA_TOL, MASS_TOL, COUNT_TOL, GRID_TOL = 1e-8, 1e-7, 1e-8, 1e-8, 1e-10

    @staticmethod
    def mp_law(argv: list[str]) -> int:
        code = cli.main(["mp-law", *argv])
        if code != 0:
            raise RuntimeError(f"anisomp mp-law {' '.join(argv)} exited with {code}")
        return code

    def warm_up(self) -> None:
        self.mp_law(["--identity", "--d", "0.3", "--grid", "1.0:0.1:1.2", "--out", "warm_up.csv"])

    def round_ops(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, 3, r)
        ops = []
        for k in range(2):
            # 40 d within 0.1 of 20 keeps the work per call fixed and the
            # lowest classical location 0.4/40 of mass above the lower edge
            d = round(0.5 + rng.uniform(-0.0025, 0.0025), 9)
            path = f"r{r}_identity{k}.json"
            argv = ["--identity", "--d", repr(d), "--edges-only", "--N", str(self.ID_N), "--out", path]
            ops.append(Op("identity", lambda argv=argv: self.mp_law(argv), path=path, d=d))
        n_hi = int(rng.integers(13, 18))
        spec = f"r{r}_two_level.txt"
        n_two = round(self.TWO_D * self.TWO_N)
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(f"d_N={self.TWO_D!r}\n")
            fh.writelines(f"{lev!r}\n" for lev in (self.TWO_LEVELS[0],) * n_hi + (self.TWO_LEVELS[1],) * (n_two - n_hi))
        path = f"r{r}_two_level.json"
        argv = ["--spectrum", spec, "--edges-only", "--N", str(self.TWO_N), "--out", path]
        ops.append(Op("two_level", lambda argv=argv: self.mp_law(argv), path=path, counts=(n_hi, n_two - n_hi)))
        for k in range(3):
            d = round(float(rng.uniform(0.45, 0.55)), 9)
            up, lo = (1.0 + math.sqrt(d)) ** 2, (1.0 - math.sqrt(d)) ** 2
            while True:  # keep every grid point 1e-3 away from both edges
                start = round(0.01 + self.GRID_STEP * float(rng.uniform()), 9)
                # start:step:stop includes stop, as the CLI reads it
                count = math.floor((self.GRID_STOP - start) / self.GRID_STEP + 1e-9) + 1
                grid = start + self.GRID_STEP * np.arange(count)
                if min(np.min(np.abs(grid - up)), np.min(np.abs(grid - lo))) > 1e-3:
                    break
            path = f"r{r}_grid{k}.csv"
            argv = ["--identity", "--d", repr(d), "--grid", f"{start!r}:{self.GRID_STEP!r}:{self.GRID_STOP!r}", "--out", path]
            ops.append(Op("grid", lambda argv=argv: self.mp_law(argv), path=path, d=d, points=len(grid)))
        return ops

    def record(self, op: Op, code) -> None:
        out = {"kind": op.kind, **op.info}
        with open(op.info["path"], encoding="utf-8") as fh:
            if op.kind == "grid":
                out["rows"] = np.array(list(csv.reader(fh))[1:], dtype=float)
            else:
                out.update(json.load(fh))
        self.outputs.append(out)

    def references(self) -> dict:
        refs = {}
        for i, out in enumerate(self.outputs):
            if out["kind"] == "identity":
                d = out["d"]
                refs[i] = {
                    "edges": ref.mp_edges(d),
                    "mass": d,
                    "gamma": ref.mp_classical_locations(d, self.ID_N, round(d * self.ID_N)),
                }
            elif out["kind"] == "two_level":
                refs[i] = {"counts": np.array(out["counts"], dtype=float)}
            else:
                refs[i] = {"m": np.array([ref.mp_m(E, out["d"]) for E in out["rows"][:, 0]])}
        return refs

    def check(self, refs: dict) -> list[str]:
        bad = []
        for i, out in enumerate(self.outputs):
            tag = f"call {i} ({out['kind']})"
            want = refs[i]
            if out["kind"] == "identity":
                err = np.max(np.abs(np.array(out["edges"]) - np.array(want["edges"])))
                if err > self.EDGE_TOL:
                    bad.append(f"{tag}: edges off by {err:.3g}")
                mass = out["bulk_counts"][0] / self.ID_N
                if len(out["bulk_counts"]) != 1 or abs(mass - want["mass"]) > self.MASS_TOL:
                    bad.append(f"{tag}: bulk mass {mass!r} vs {want['mass']!r}")
                gamma = np.array(out["gamma"])
                if gamma.shape != want["gamma"].shape:
                    bad.append(f"{tag}: {gamma.size} classical locations, expected {want['gamma'].size}")
                elif np.max(np.abs(gamma - want["gamma"])) > self.GAMMA_TOL:
                    bad.append(f"{tag}: classical locations off by {np.max(np.abs(gamma - want['gamma'])):.3g}")
            elif out["kind"] == "two_level":
                counts = np.array(out["bulk_counts"])
                if counts.shape != want["counts"].shape or np.max(np.abs(counts - want["counts"])) > self.TWO_N * self.COUNT_TOL:
                    bad.append(f"{tag}: bulk counts {counts} vs {want['counts']}")
                gamma, edges = np.array(out["gamma"]), out["edges"]
                if gamma.size != want["counts"].sum() or not np.all(np.diff(gamma) < 0.0):
                    bad.append(f"{tag}: classical locations not strictly decreasing")
                inside = np.zeros(gamma.size, dtype=bool)
                for k in range(len(edges) // 2):
                    inside |= (edges[2 * k + 1] <= gamma) & (gamma <= edges[2 * k])
                if not inside.all():
                    bad.append(f"{tag}: {int((~inside).sum())} classical locations outside the bulks")
            else:
                rows = out["rows"]
                m = rows[:, 2] + 1j * rows[:, 3]
                scale = np.maximum(1.0, np.abs(want["m"]))
                if len(rows) != out["points"]:
                    bad.append(f"{tag}: {len(rows)} rows, expected {out['points']}")
                elif np.max(np.abs(m - want["m"]) / scale) > self.GRID_TOL:
                    bad.append(f"{tag}: m off by {np.max(np.abs(m - want['m']) / scale):.3g}")
                elif np.max(np.abs(rows[:, 1] - want["m"].imag / math.pi) / scale) > self.GRID_TOL:
                    bad.append(f"{tag}: density off the closed form")
        return bad

    def perturbations(self, refs: dict) -> list[tuple[str, dict]]:
        out = []
        seen = set()
        for i, want in refs.items():
            kind = self.outputs[i]["kind"]
            if kind in seen:
                continue
            seen.add(kind)
            if kind == "identity":
                changes = {
                    "edges": (want["edges"][0] + 1e-7, want["edges"][1]),
                    "mass": want["mass"] + 1e-7,
                    "gamma": want["gamma"] + np.eye(1, want["gamma"].size, 3)[0] * 1e-6,
                }
            elif kind == "two_level":
                changes = {"counts": want["counts"] + np.array([1e-5, 0.0])}
            else:
                changes = {"m": want["m"] + 1e-9 * (np.arange(want["m"].size) == 7)}
            for key, val in changes.items():
                out.append((f"{kind} {key}", {**refs, i: {**want, key: val}}))
        return out

    def output_perturbations(self) -> list[tuple[str, int, dict]]:
        for i, out in enumerate(self.outputs):
            if out["kind"] == "two_level":
                gamma = list(out["gamma"])
                swapped = gamma[:2][::-1] + gamma[2:]
                outside = [out["edges"][0] + 0.1] + gamma[1:]
                return [("gamma order", i, {"gamma": swapped}), ("gamma outside", i, {"gamma": outside})]
        return []


# ---------------------------------------------------------------------------
# theory-covariance


class Covariance(Workload):
    """linear_stat_covariance on diagonal Sigma given entry by entry, with the
    Gaussian profile and a constant kappa4, plus one local and one outside
    call.  n = 24 entries, N = 48."""

    name = "theory-covariance"
    round_s = 6.0
    n, N, grid_points = 24, 48, 800
    F, G = (1.0, 0.5), (2.0, 0.7)  # bump (center, width)
    TWO_LEVEL = 4.0
    REF_TOL, SHIFT_TOL, LOCAL_TOL, OUTSIDE_TOL = 1e-4, 1e-6, 1e-8, 1e-10

    def build(self) -> None:
        self.f = clt_theory.TestFunction(kind="bump", center=self.F[0], width=self.F[1])
        self.g = clt_theory.TestFunction(kind="bump", center=self.G[0], width=self.G[1])
        self.gauss = FourthCumulantProfile.gaussian()
        self.pop_id = Population(PopulationModel.from_diagonal(np.ones(self.n)), self.N)

    def warm_up(self) -> None:
        pop = Population(PopulationModel.from_diagonal(np.ones(4)), 8)
        clt_theory.linear_stat_covariance(
            "global", self.f, self.g, unit(4, 0), unit(4, 0), 0.0, 1.0, pop, self.gauss, grid_points=200
        )

    def round_ops(self, r: int) -> list[Op]:
        rng = rng_for(self.seed, 4, r)
        v = rng.standard_normal(self.n)
        v /= np.linalg.norm(v)
        kappa = float(rng.uniform(0.5, 2.0))
        n_hi = int(rng.integers(8, 17))
        diag = np.ones(self.n)
        diag[:n_hi] = self.TWO_LEVEL
        E_local = float(rng.uniform(0.8, 1.6))
        E_out = 1.25 * self.TWO_LEVEL * (1.0 + math.sqrt(self.n / self.N)) ** 2
        pop_two = Population(PopulationModel.from_diagonal(diag), self.N)
        prof = FourthCumulantProfile.constant(kappa)
        info = {"round": r, "v": v, "kappa": kappa, "diag": diag, "E_local": E_local, "E_out": E_out}

        def glob(a, b, pop, k):
            return lambda: clt_theory.linear_stat_covariance(
                "global", a, b, v, v, 0.0, 1.0, pop, k, grid_points=self.grid_points
            )

        ops = [
            Op("identity", glob(self.f, self.g, self.pop_id, self.gauss), call="identity/gauss", profile="gauss", **info),
            Op("identity", glob(self.f, self.g, self.pop_id, prof), call="identity/kappa", profile="kappa", **info),
        ]
        for name, k in (("gauss", self.gauss), ("kappa", prof)):
            for pair, (a, b) in {"ff": (self.f, self.f), "fg": (self.f, self.g), "gf": (self.g, self.f), "gg": (self.g, self.g)}.items():
                ops.append(
                    Op("two_level", glob(a, b, pop_two, k), call=f"two_level/{name}/{pair}", profile=name, pair=pair, **info)
                )
        ops.append(
            Op("local", lambda: clt_theory.linear_stat_covariance("local", self.f, self.g, v, v, E_local, 0.0, self.pop_id, prof), **info)
        )
        ops.append(
            Op("outside", lambda: clt_theory.resolvent_covariance("outside", pop_two, v, v, kappa=prof, E=E_out), **info)
        )
        return ops

    def record(self, op: Op, result) -> None:
        if isinstance(result, clt_theory.CovarianceValue):
            value, err = result.value, result.error_estimate
        else:
            value, err = float(result), 0.0
        self.outputs.append({"kind": op.kind, "value": value, "err": err, **op.info})

    def after(self) -> None:
        # the same Sigma = I given as ``identity``, once per round
        pop = Population(PopulationModel.identity(self.n), self.N)
        self.identity_model = {}
        for out in self.outputs:
            if out["kind"] == "identity" and out["profile"] == "gauss":
                c = clt_theory.linear_stat_covariance(
                    "global", self.f, self.g, out["v"], out["v"], 0.0, 1.0, pop, self.gauss, grid_points=self.grid_points
                )
                self.identity_model[out["round"]] = (c.value, c.error_estimate)

    def references(self) -> dict:
        d = self.n / self.N
        f = lambda x: ref.bump(x, *self.F)  # noqa: E731
        g = lambda x: ref.bump(x, *self.G)  # noqa: E731
        support = (min(self.F[0] - self.F[1], self.G[0] - self.G[1]), max(self.F[0] + self.F[1], self.G[0] + self.G[1]))
        refs = {"cov": ref.identity_linear_cov(f, g, d), "shift": {}, "local": {}, "outside": {}}
        for out in self.outputs:
            r = out["round"]
            if out["kind"] == "identity" and out["profile"] == "kappa":
                refs["shift"][r] = ref.identity_kappa_shift(f, g, d, out["v"], out["kappa"])
            elif out["kind"] == "local":
                refs["local"][r] = ref.identity_local_cov(f, g, support, out["E_local"], d)
            elif out["kind"] == "outside":
                refs["outside"][r] = ref.outside_variance(out["E_out"], d, out["diag"], out["v"], out["kappa"])
        return refs

    def check(self, refs: dict) -> list[str]:
        bad = []
        by_round: dict[int, dict] = {}
        for out in self.outputs:
            by_round.setdefault(out["round"], {})[(out["kind"], out.get("profile"), out.get("pair"))] = out
        for r, outs in sorted(by_round.items()):
            tag = f"round {r}"
            gauss, kap = outs.get(("identity", "gauss", None)), outs.get(("identity", "kappa", None))
            if gauss is not None:
                if rel_err(gauss["value"], refs["cov"]) > self.REF_TOL:
                    bad.append(f"{tag}: Sigma = I covariance {gauss['value']!r} vs reference {refs['cov']!r}")
                val, err = self.identity_model[r]
                if abs(gauss["value"] - val) > gauss["err"] + err:
                    bad.append(f"{tag}: diagonal-of-ones {gauss['value']!r} vs identity model {val!r}")
                if kap is not None and rel_err(kap["value"] - gauss["value"], refs["shift"][r]) > self.SHIFT_TOL:
                    bad.append(f"{tag}: kappa4 shift {kap['value'] - gauss['value']!r} vs {refs['shift'][r]!r}")
            for prof in ("gauss", "kappa"):
                c = {p: outs.get(("two_level", prof, p)) for p in ("ff", "fg", "gf", "gg")}
                if any(x is None for x in c.values()):
                    continue
                tol = sum(x["err"] for x in c.values())
                if abs(c["fg"]["value"] - c["gf"]["value"]) > c["fg"]["err"] + c["gf"]["err"]:
                    bad.append(f"{tag} {prof}: two-level covariance not symmetric")
                off = 0.5 * (c["fg"]["value"] + c["gf"]["value"])
                low = np.linalg.eigvalsh(np.array([[c["ff"]["value"], off], [off, c["gg"]["value"]]]))[0]
                if low < -tol:
                    bad.append(f"{tag} {prof}: two-level covariance has eigenvalue {low:.3g} < -{tol:.3g}")
            loc = outs.get(("local", None, None))
            if loc is not None and rel_err(loc["value"], refs["local"][r]) > self.LOCAL_TOL:
                bad.append(f"{tag}: local covariance {loc['value']!r} vs {refs['local'][r]!r}")
            outside = outs.get(("outside", None, None))
            if outside is not None and rel_err(outside["value"], refs["outside"][r]) > self.OUTSIDE_TOL:
                bad.append(f"{tag}: outside variance {outside['value']!r} vs {refs['outside'][r]!r}")
        return bad

    def perturbations(self, refs: dict) -> list[tuple[str, dict]]:
        r = min(refs["shift"])
        return [
            ("cov x (1 + 1e-3)", {**refs, "cov": refs["cov"] * (1.0 + 1e-3)}),
            ("shift x (1 + 1e-5)", {**refs, "shift": {**refs["shift"], r: refs["shift"][r] * (1.0 + 1e-5)}}),
            ("local x (1 + 1e-7)", {**refs, "local": {**refs["local"], r: refs["local"][r] * (1.0 + 1e-7)}}),
            ("outside x (1 + 1e-9)", {**refs, "outside": {**refs["outside"], r: refs["outside"][r] * (1.0 + 1e-9)}}),
        ]

    def output_perturbations(self) -> list[tuple[str, int, dict]]:
        def first(kind, **match):
            return next(
                i for i, o in enumerate(self.outputs)
                if o["kind"] == kind and all(o.get(k) == v for k, v in match.items())
            )

        i = first("identity", profile="gauss")
        j = first("two_level", profile="gauss", pair="gf")
        k = first("two_level", profile="gauss", pair="ff")
        return [
            ("identity model disagrees", i, {"value": self.outputs[i]["value"] + 10.0 * self.outputs[i]["err"] + 1e-6}),
            ("asymmetric", j, {"value": self.outputs[j]["value"] + 10.0 * self.outputs[j]["err"] + 1e-6}),
            ("not positive semidefinite", k, {"value": -1.0}),
        ]


class Combined(Workload):
    """Rounds made of one round of each part, run in one process.

    The parts keep their own inputs, seeds, references and checks; combining
    them lets each run measure longer within the same total time.
    """

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.members = [part(seed) for part in self.parts]
        self.round_s = sum(m.round_s for m in self.members)

    def build(self) -> None:
        for m in self.members:
            m.build()

    def warm_up(self) -> None:
        for m in self.members:
            m.warm_up()

    def round_ops(self, r: int) -> list[Op]:
        ops = []
        for m in self.members:
            for op in m.round_ops(r):
                op.part = m
                ops.append(op)
        return ops

    def record(self, op: Op, result) -> None:
        op.part.record(op, result)

    def after(self) -> None:
        for m in self.members:
            m.after()

    def references(self) -> dict:
        return {m.name: m.references() for m in self.members}

    def check(self, refs: dict) -> list[str]:
        return [f"{m.name}: {line}" for m in self.members for line in m.check(refs[m.name])]


class MonteCarlo(Combined):
    name = "monte-carlo"
    parts = (OutsideCLT, Sphericity)


class Theory(Combined):
    name = "theory"
    parts = (Support, Covariance)


WORKLOADS = {w.name: w for w in (MonteCarlo, Theory)}
PARTS = {w.name: w for w in (OutsideCLT, Sphericity, Support, Covariance)}


# ---------------------------------------------------------------------------
# timed loop and entry point


def run_rounds(w: Workload, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat whole rounds.  Untraced: stop at the round boundary nearest to
    `seconds` of operation time.  Traced: a fixed number of rounds."""
    fixed = max(1, round(seconds / w.round_s)) if tracer else None
    times: dict[str, list[float]] = {}  # Op.key -> durations of its calls, failed ones too
    failed = 0
    elapsed = 0.0
    r = 0
    while True:
        ops = w.round_ops(r)
        for op in ops:
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = op.fn()
            except Exception as exc:  # counted as a failed operation
                result = exc
            finally:
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.active = False
            elapsed += dt
            times.setdefault(op.key, []).append(dt)
            if isinstance(result, Exception):
                failed += 1
                print(f"{w.name}: {op.key} failed: {result!r}", file=sys.stderr)
                continue
            w.record(op, result)
        r += 1
        if fixed is not None:
            if r >= fixed:
                break
        elif elapsed + 0.5 * elapsed / r >= seconds:
            break
    # Throughput of a typical round: each call of the round at the median
    # duration of the same call over the rounds of this run, so a burst of
    # load from outside the process moves the figure less than a total over
    # the run would.
    return {
        "rounds": r,
        "attempted": r * len(ops),
        "failed": failed,
        "seconds": elapsed,
        "round_s": sum(statistics.median(times[op.key]) for op in ops),
        "round_calls": len(ops),
        "round_trials": sum(op.trials for op in ops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed)
    w.build()
    w.warm_up()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    run = run_rounds(w, args.seconds, tracer)
    # read before the references' imports (scipy.stats, scipy.integrate),
    # which the program itself does not use
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    global ref
    import reference as ref

    w.after()
    failures = w.check(w.references())
    for line in failures:
        print(f"{w.name}: check failed: {line}", file=sys.stderr)
    result = {
        **run,
        "correct": not failures,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "anisomp": os.path.dirname(anisomp.__file__),
    }
    if tracer:
        result["per_layer"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
