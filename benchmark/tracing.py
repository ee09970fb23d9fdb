"""Per-layer spans and counts, recorded from outside the program.

``install`` wraps anisomp's functions wherever the package's modules bind
them (``from .mp_law import solve_m2c`` makes a second binding), so calls
between the package's own modules are seen; ``numpy.linalg.eigh`` is wrapped
on ``numpy.linalg``, which is how the program reaches it.  Nothing under
``src/`` changes.  Recording happens only while ``Tracer.active`` is set,
which the workloads do around each timed operation, so the benchmark's own
references and checks are never counted.

A span's self time is its duration minus the durations of its direct traced
children; a layer's ``self_s`` sums that over the layer's spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Metric name -> (module attribute path, points counter).  The first dotted
# component of the name is the layer.
TARGETS = {
    "experiments.run_clt_check": ("anisomp.experiments", "run_clt_check", None),
    "experiments.run_sphericity_frequencies": (
        "anisomp.experiments",
        "run_sphericity_frequencies",
        None,
    ),
    "matrix_models.sample_ensemble": ("anisomp.matrix_models", "sample_ensemble", None),
    "matrix_models.y_statistic": ("anisomp.matrix_models", "y_statistic", None),
    "populations.EntryDistribution.sample": ("anisomp.populations", "EntryDistribution.sample", None),
    "populations.PopulationModel.sqrt_apply": (
        "anisomp.populations",
        "PopulationModel.sqrt_apply",
        None,
    ),
    "populations.PopulationModel.phi": ("anisomp.populations", "PopulationModel.phi", None),
    "linalg.eigh": ("numpy.linalg", "eigh", None),
    "estimators.sphericity_test": ("anisomp.estimators", "sphericity_test", None),
    "mp_law.solve_m2c": ("anisomp.mp_law", "solve_m2c", None),
    "mp_law.solve_m2c_grid": (
        "anisomp.mp_law",
        "solve_m2c_grid",
        lambda args, kwargs: len(args[0] if args else kwargs["energies"]),
    ),
    "mp_law.support_structure": ("anisomp.mp_law", "support_structure", None),
    "mp_law.density_rho2c": ("anisomp.mp_law", "density_rho2c", None),
    "clt_theory.resolvent_covariance": ("anisomp.clt_theory", "resolvent_covariance", None),
    "clt_theory.linear_stat_covariance": ("anisomp.clt_theory", "linear_stat_covariance", None),
    "cli.main": ("anisomp.cli", "main", None),
}

# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
PER_LAYER = (
    "experiments.run_clt_check.s",
    "experiments.run_sphericity_frequencies.s",
    "experiments.self_s",
    "matrix_models.sample_ensemble.calls",
    "matrix_models.sample_ensemble.s",
    "matrix_models.y_statistic.s",
    "populations.EntryDistribution.sample.s",
    "populations.PopulationModel.sqrt_apply.s",
    "populations.PopulationModel.phi.calls",
    "linalg.eigh.calls",
    "linalg.eigh.s",
    "estimators.sphericity_test.calls",
    "estimators.sphericity_test.s",
    "mp_law.solve_m2c.calls",
    "mp_law.solve_m2c.s",
    "mp_law.solve_m2c_grid.calls",
    "mp_law.solve_m2c_grid.points",
    "mp_law.solve_m2c_grid.s",
    "mp_law.support_structure.s",
    "mp_law.density_rho2c.calls",
    "clt_theory.resolvent_covariance.calls",
    "clt_theory.resolvent_covariance.s",
    "clt_theory.linear_stat_covariance.s",
    "cli.main.s",
    "cli.self_s",
)


class Tracer:
    """Inclusive seconds, call and point counts, and per-layer self time."""

    def __init__(self) -> None:
        self.active = False
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.points: dict[str, int] = defaultdict(int)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, points=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if points is not None:
                self.points[name] += points(args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self._depth[name] -= 1
                if self._stack:
                    self._stack[-1][0] += dt
                if self._depth[name] == 0:  # a recursive call is not counted twice
                    self.seconds[name] += dt
                self.self_seconds[layer] += dt - frame[0]

        return traced

    def install(self) -> None:
        """Wrap every target at every binding inside the anisomp package."""
        packages = [m for k, m in sys.modules.items() if k == "anisomp" or k.startswith("anisomp.")]
        for name, (module, path, points) in TARGETS.items():
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, points)
            setattr(owner, attr, wrapped)
            if not classes and module.startswith("anisomp"):
                for mod in packages:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def metrics(self) -> dict:
        out = {}
        for metric in PER_LAYER:
            name, kind = metric.rsplit(".", 1)
            if kind == "self_s":
                out[metric] = {"value": self.self_seconds[name], "unit": "s"}
            elif kind == "s":
                out[metric] = {"value": self.seconds[name], "unit": "s"}
            elif kind == "calls":
                out[metric] = {"value": self.calls[name], "unit": "count"}
            else:
                out[metric] = {"value": self.points[name], "unit": "count"}
        return out
