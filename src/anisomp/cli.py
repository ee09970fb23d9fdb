"""Command-line front door: laws, kernels, estimators and reproductions.

Each subcommand parses its inputs, calls the library and writes the result;
no subcommand catches an exception.  ``main`` is the one place that turns a
failure into an exit code, and it writes one line to stderr:

* 2, ``error: ...``: ``OSError`` or ``ValueError`` (bad input; a file that
  cannot be read or written; a bad ``--config``);
* 4, ``placement error: ...``: ``OutsideDomain``, ``NearSingular`` or
  ``ResolventDegenerate`` (a spectral parameter inside or too near the
  spectrum);
* 3, ``solver failure: ...``: any other ``AnisompError``.

0 is success and 5 a failed acceptance band of ``reproduce``; argparse
exits 2 on a command line it cannot parse.  All numeric output is produced
by the wrapped library operations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .clt_theory import CovarianceValue, resolvent_covariance, variance_positivity
from .errors import AnisompError, NearSingular, OutsideDomain, ResolventDegenerate
from .estimators import estimate_population_eigenvalue, estimate_spike_strength, sphericity_test
from .experiments import REPRODUCIBLE_NAMES, reproduce
from .io import read_matrix
from .matrix_models import SampleEnsemble
from .mp_law import (
    PopulationSpectrum,
    _require_boundary_domain,
    as_unit_vector,
    read_spectrum_file,
    solve_m2c_points,
    support_structure,
)
from .populations import FourthCumulantProfile, Population, PopulationModel

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_PLACEMENT = 4
EXIT_BANDS = 5

MAX_GRID_POINTS = 10**6

# the settings of ``reproduce``: name -> (default, the JSON types a --config
# file may give it); a flag overrides the file, which overrides the default
REPRODUCE_SETTINGS = {
    "seed": (1, (int,)),
    "trials": (None, (int, type(None))),
    "out_dir": (".", (str,)),
    "full": (False, (bool,)),
}


def _positive_int(text: str) -> int:
    """argparse type of the counts --n and --N: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _load_spectrum(args) -> PopulationSpectrum:
    if args.spectrum:
        return read_spectrum_file(args.spectrum)
    if not args.identity:
        raise ValueError("provide --spectrum FILE or --identity --d D")
    if args.d is None or not math.isfinite(args.d):
        raise ValueError("--identity requires a finite --d")
    n = max(round(args.d * (100 if args.N is None else args.N)), 1) if args.n is None else args.n
    return PopulationSpectrum.identity(n, args.d)


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:step:stop, got {spec!r}")
    start, step, stop = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (start, step, stop)):
        raise ValueError(f"grid start, step and stop must be finite, got {spec!r}")
    if step == 0.0:
        raise ValueError(f"grid step must be nonzero, got {spec!r}")
    span = (stop - start) / step + 1e-9
    if span < 0.0:
        raise ValueError(f"grid step must point from start to stop, got {spec!r}")
    if not (math.isfinite(span) and span < MAX_GRID_POINTS):
        raise ValueError(f"grid must have at most {MAX_GRID_POINTS} points, got {spec!r}")
    return start + step * np.arange(int(math.floor(span)) + 1)


def _unit_vector(spec: str, n: int) -> np.ndarray:
    """Named test vectors: e<k>, 'e' (flat), 'e1+e2', 'e1-e2', or @file."""
    if spec.startswith("@"):
        v = np.loadtxt(spec[1:], dtype=float).ravel()
        if v.size != n:
            raise ValueError(f"vector file {spec[1:]!r} holds {v.size} entries, not {n}")
        return _normalised(v, spec)
    if spec == "e":
        return np.full(n, 1.0 / math.sqrt(n))
    if "+" in spec or "-" in spec:
        sign = 1.0 if "+" in spec else -1.0
        a, b = spec.replace("-", "+").split("+")
        va, vb = _unit_vector(a, n), _unit_vector(b, n)
        return _normalised(va + sign * vb, spec)
    if spec.startswith("e"):
        idx = int(spec[1:]) - 1
        if not 0 <= idx < n:
            raise ValueError(f"basis index out of range in {spec!r}")
        v = np.zeros(n)
        v[idx] = 1.0
        return v
    raise ValueError(f"cannot parse vector spec {spec!r}")


def _normalised(v: np.ndarray, spec: str) -> np.ndarray:
    """v / |v|; ValueError when v is zero or not finite, or when its norm
    under- or overflows so that v / |v| is not a unit vector."""
    with np.errstate(all="ignore"):  # an overflowing norm is rejected below
        nrm = float(np.linalg.norm(v))
    if not (math.isfinite(nrm) and nrm > 0.0):
        raise ValueError(f"vector {spec!r} is zero or not finite")
    return as_unit_vector(v / nrm)


def _emit(args, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_data(path) -> np.ndarray:
    """The --data matrix; one with no rows or no columns, or with an entry
    that is not finite, is an input error."""
    data = read_matrix(path)
    if data.size == 0:
        raise ValueError(f"{path}: empty data matrix ({data.shape[0]} x {data.shape[1]})")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: every data entry must be finite")
    return data


def _reproduce_settings(args) -> dict:
    """``REPRODUCE_SETTINGS`` merged: flags > --config file > defaults.  The
    file must hold a JSON object whose keys are settings and whose values
    have their setting's JSON types (ValueError otherwise)."""
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
        unknown = sorted(config.keys() - REPRODUCE_SETTINGS.keys())
        if unknown:
            raise ValueError(f"{args.config}: unknown settings {unknown}; "
                             f"known: {list(REPRODUCE_SETTINGS)}")
    settings = {}
    for key, (default, types) in REPRODUCE_SETTINGS.items():
        value = config.get(key, default)
        if type(value) not in types:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ValueError(f"{args.config}: {key} must be {names}, got {value!r}")
        flag = getattr(args, key)
        settings[key] = value if flag is None else flag
    return settings


# ---------------------------------------------------------------------------
# subcommands


def cmd_mp_law(args) -> int:
    pop = _load_spectrum(args)
    energies = _parse_grid(args.grid) if args.grid else None
    if args.edges_only:
        payload = support_structure(pop, 100 if args.N is None else args.N).to_dict()
        if args.N is None:
            payload = {"edges": payload["edges"]}
        _emit(args, json.dumps(payload, indent=2))
        return EXIT_OK
    if energies is None:
        raise ValueError("provide --grid or --edges-only")
    if args.eta == 0.0:
        try:
            _require_boundary_domain(energies)
        except ValueError as exc:  # E = 0 is a placement of the grid, not a parse error
            raise OutsideDomain(str(exc)) from exc
    # each point is solved on its own, so the rows are those of
    # per-point solve_m2c and density_rho2c calls
    m, _, rho = solve_m2c_points(energies, args.eta, pop)
    rows = (f"{E:.12g},{r:.12g},{mm.real:.12g},{mm.imag:.12g}" for E, r, mm in zip(energies, rho, m))
    _emit(args, "\n".join(["E,rho2c,re_m,im_m", *rows]))
    return EXIT_OK


def cmd_clt_kernel(args) -> int:
    spec = _load_spectrum(args)
    N = max(round(spec.n / spec.aspect_ratio), 1) if args.N is None else args.N
    pop = Population(PopulationModel.from_diagonal(np.asarray(spec.eigenvalues)), N)
    v1 = _unit_vector(args.v1, pop.n)
    v2 = _unit_vector(args.v2 or args.v1, pop.n)
    kappa = FourthCumulantProfile.constant(args.kappa)
    if args.mode == "global":
        z1 = complex(args.z1) if args.z1 else complex(args.E, 1.0)
        z2 = complex(args.z2) if args.z2 else np.conj(z1)
        val = resolvent_covariance("global", pop, v1, v2, kappa=kappa, z1=z1, z2=z2)
        out = {"mode": "global", "value": [val.real, val.imag], "error_estimate": 0.0}
    elif args.mode == "variance":
        out = CovarianceValue("variance", variance_positivity(args.E, v1, pop, kappa), 0.0).to_dict()
    else:
        val = resolvent_covariance("outside", pop, v1, v2, kappa=kappa, E=args.E)
        out = CovarianceValue("outside", val, 0.0).to_dict()
    _emit(args, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_estimate(args) -> int:
    data = _read_data(args.data)
    v = _unit_vector(args.vector, data.shape[0])
    # Sigma of raw data is unknown; the model only labels the ensemble
    ens = SampleEnsemble.from_data(PopulationModel.identity(data.shape[0]), data)
    estimator = estimate_spike_strength if args.method == "spike" else estimate_population_eigenvalue
    est = estimator(ens, v, args.E, alpha=args.alpha, kappa_mode=args.kappa_mode)
    _emit(args, est.to_json(indent=2))
    return EXIT_OK


def cmd_sphericity(args) -> int:
    data = _read_data(args.data)
    u, v = (_unit_vector(spec, data.shape[0]) for spec in (args.u, args.v))
    verdict = sphericity_test(data, u, v, E_margin=args.margin, omega=args.omega)
    _emit(args, verdict.to_json(indent=2))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    settings = _reproduce_settings(args)
    workers = int(os.environ.get("ANISOMP_WORKERS", "1")) if args.workers is None else args.workers
    failed = 0
    for name in args.names:
        reports, bands = reproduce(name, **settings, workers=workers)
        for band in bands:
            failed += not band.passed
            print(f"[{'PASS' if band.passed else 'FAIL'}] {band.description}: "
                  f"observed {band.observed:.4g} (bound {band.bound})")
        for rep in reports:
            print(f"report: {rep.name} seed={rep.master_seed} trials={rep.trial_count} "
                  f"wall={rep.wall_clock:.1f}s -> {settings['out_dir']}")
    return EXIT_BANDS if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The five-subcommand parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call reads a fresh namespace from it."""
    parser = argparse.ArgumentParser(
        prog="anisomp",
        description="Deterministic spectral laws and CLT verification for "
        "anisotropic sample covariance matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mp-law", help="evaluate the deformed MP law on a grid")
    p.add_argument("--spectrum", help="population spectrum file (header d_N=..)")
    p.add_argument("--identity", action="store_true", help="use the flat spectrum")
    p.add_argument("--d", type=float, help="aspect ratio n/N for --identity")
    p.add_argument("--n", type=_positive_int, help="population dimension for --identity")
    p.add_argument("--N", type=_positive_int, help="sample count (enables counts and gamma)")
    p.add_argument("--grid", help="energy grid start:step:stop")
    p.add_argument("--eta", type=float, default=0.0, help="imaginary part (0 = boundary)")
    p.add_argument("--edges-only", action="store_true", help="emit support edges as JSON")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_mp_law)

    p = sub.add_parser("clt-kernel", help="evaluate covariance kernels")
    p.add_argument("--spectrum", help="population spectrum file")
    p.add_argument("--identity", action="store_true")
    p.add_argument("--d", type=float)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--N", type=_positive_int)
    p.add_argument("--mode", default="outside", choices=("outside", "global", "variance"))
    p.add_argument("--E", type=float, default=4.0)
    p.add_argument("--z1", help="complex like '4+1j' (global mode)")
    p.add_argument("--z2")
    p.add_argument("--v1", default="e1")
    p.add_argument("--v2")
    p.add_argument("--kappa", type=float, default=0.0, help="constant fourth cumulant")
    p.add_argument("--out")
    p.set_defaults(func=cmd_clt_kernel)

    p = sub.add_parser("estimate", help="eigenvalue estimate with confidence interval")
    p.add_argument("--data", required=True, help="matrix file (binary or CSV)")
    p.add_argument("--vector", default="e1", help="direction: e<k>, 'e', or @file")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--method", default="spike", choices=("spike", "population"))
    p.add_argument(
        "--kappa-mode",
        default="pooled",
        choices=("gaussian", "pooled", "per-row-max", "delocalized"),
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sphericity", help="test whether Sigma is proportional to I")
    p.add_argument("--data", required=True)
    p.add_argument("--u", default="e1")
    p.add_argument("--v", default="e2")
    p.add_argument("--omega", type=float, default=0.05, help="allowed type-I error")
    p.add_argument("--margin", type=float, default=1.0, help="E = lambda_1 + margin")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sphericity)

    p = sub.add_parser("reproduce", help="run reproduction presets (exit 5 if any band fails)")
    p.add_argument(
        "names",
        nargs="+",
        choices=REPRODUCIBLE_NAMES,
        metavar="name",
        help=f"one or more of {', '.join(REPRODUCIBLE_NAMES)}, run in turn",
    )
    p.add_argument("--seed", type=int, help="master seed (default 1)")
    p.add_argument("--full", action="store_true", default=None, help="full-scale sizes (n = 2000, 10^3 table trials)")
    p.add_argument("--trials", type=int, help="override the per-cell trial count")
    p.add_argument("--out-dir", help="directory for report files (default .)")
    p.add_argument("--config", help="JSON file with default seed/trials/out_dir/full")
    p.add_argument("--workers", type=int, help="worker processes (or $ANISOMP_WORKERS)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place a failure becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        message, code = f"error: {exc}", EXIT_PARSE
    except (OutsideDomain, NearSingular, ResolventDegenerate) as exc:
        message, code = f"placement error: {exc}", EXIT_PLACEMENT
    except AnisompError as exc:
        message, code = f"solver failure: {exc}", EXIT_SOLVER
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
