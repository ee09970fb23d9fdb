"""Command-line front door: laws, kernels, estimators and reproductions.

Exit codes: 0 success, 2 parse/input error, 3 solver failure, 4 bad spectral
parameter placement, 5 reproduction acceptance-band failure.  All numeric
output is produced by the wrapped library operations; the CLI only parses
and dispatches.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .clt_theory import CovarianceValue, resolvent_covariance, variance_positivity
from .errors import (
    AnisompError,
    NearSingular,
    OutsideDomain,
    ResolventDegenerate,
)
from .estimators import estimate_population_eigenvalue, estimate_spike_strength, sphericity_test
from .experiments import REPRODUCIBLE_NAMES, reproduce
from .io import read_matrix
from .matrix_models import SampleEnsemble
from .mp_law import (
    OMEGA,
    PopulationSpectrum,
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


def _workers(args) -> int:
    if getattr(args, "workers", None):
        return args.workers
    return int(os.environ.get("ANISOMP_WORKERS", "1"))


def _load_spectrum(args) -> PopulationSpectrum:
    if args.spectrum:
        return read_spectrum_file(args.spectrum)
    if args.identity:
        if args.d is None:
            raise ValueError("--identity requires --d")
        n = args.n or max(int(round(args.d * (args.N or 100))), 1)
        return PopulationSpectrum.identity(n, args.d)
    raise ValueError("provide --spectrum FILE or --identity --d D")


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


def _fail(message: str, code: int) -> int:
    """Write one line to stderr and return the exit code."""
    print(message, file=sys.stderr)
    return code


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_mp_law(args) -> int:
    try:
        pop = _load_spectrum(args)
        energies = _parse_grid(args.grid) if args.grid else None
    except (OSError, ValueError) as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    try:
        if args.edges_only:
            struct = support_structure(pop, args.N or 100)
            payload = struct.to_dict()
            if not args.N:
                payload = {"edges": payload["edges"]}
            _emit(args, json.dumps(payload, indent=2))
            return EXIT_OK
        if energies is None:
            return _fail("error: provide --grid or --edges-only", EXIT_PARSE)
        too_low = energies[np.abs(energies) < OMEGA] if args.eta == 0.0 else ()
        if len(too_low):
            return _fail(
                f"placement error: grid point E = {too_low[0]:.12g} has |E| < omega = {OMEGA}",
                EXIT_PLACEMENT,
            )
        # each point is solved on its own, so the rows are those of
        # per-point solve_m2c and density_rho2c calls
        m, _, rho = solve_m2c_points(energies, args.eta, pop)
        lines = ["E,rho2c,re_m,im_m"]
        for E, r, mm in zip(energies, rho, m):
            lines.append(f"{E:.12g},{r:.12g},{mm.real:.12g},{mm.imag:.12g}")
        _emit(args, "\n".join(lines))
        return EXIT_OK
    except ValueError as exc:  # e.g. |d - 1| < tau for the whole support, or eta < 0
        return _fail(f"error: {exc}", EXIT_PARSE)
    except AnisompError as exc:
        return _fail(f"solver failure: {exc}", EXIT_SOLVER)


def cmd_clt_kernel(args) -> int:
    try:
        pop_spec = _load_spectrum(args)
        N = args.N or max(int(round(pop_spec.n / pop_spec.aspect_ratio)), 1)
        model = PopulationModel.from_diagonal(np.asarray(pop_spec.eigenvalues))
        pop = Population(model, N)
        v1 = _unit_vector(args.v1, pop.n)
        v2 = _unit_vector(args.v2 or args.v1, pop.n)
        kappa = FourthCumulantProfile.constant(args.kappa)
    except (OSError, ValueError) as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    try:
        if args.mode == "variance":
            val = variance_positivity(args.E, v1, pop, kappa)
            out = CovarianceValue("variance", val, 0.0)
        elif args.mode == "outside":
            val = resolvent_covariance("outside", pop, v1, v2, kappa=kappa, E=args.E)
            out = CovarianceValue("outside", float(np.real(val)), 0.0)
        elif args.mode == "global":
            z1 = complex(args.z1) if args.z1 else complex(args.E, 1.0)
            z2 = complex(args.z2) if args.z2 else np.conj(z1)
            val = resolvent_covariance("global", pop, v1, v2, kappa=kappa, z1=z1, z2=z2)
            out = {"mode": "global", "value": [val.real, val.imag], "error_estimate": 0.0}
            _emit(args, json.dumps(out, indent=2))
            return EXIT_OK
        else:
            return _fail(f"error: unknown kernel mode {args.mode!r}", EXIT_PARSE)
        _emit(args, json.dumps(out.to_dict(), indent=2))
        return EXIT_OK
    except OutsideDomain as exc:
        return _fail(f"placement error: {exc}", EXIT_PLACEMENT)
    except AnisompError as exc:
        return _fail(f"solver failure: {exc}", EXIT_SOLVER)


def cmd_estimate(args) -> int:
    try:
        data = read_matrix(args.data)
        n, N = data.shape
        v = _unit_vector(args.vector, n)
    except (OSError, ValueError) as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    try:
        # Sigma of raw data is unknown; the model only labels the ensemble
        ens = SampleEnsemble.from_data(PopulationModel.identity(n), data)
        if args.E <= ens.lambda_1 + 1e-9:
            raise OutsideDomain(f"E = {args.E} inside the sample spectrum")
        if args.method == "spike":
            est = estimate_spike_strength(
                ens, v, args.E, alpha=args.alpha, kappa_mode=args.kappa_mode
            )
        else:
            est = estimate_population_eigenvalue(
                ens, v, args.E, alpha=args.alpha, kappa_mode=args.kappa_mode
            )
        _emit(args, est.to_json(indent=2))
        return EXIT_OK
    except (OutsideDomain, NearSingular, ResolventDegenerate) as exc:
        return _fail(f"placement error: {exc}", EXIT_PLACEMENT)
    except AnisompError as exc:
        return _fail(f"solver failure: {exc}", EXIT_SOLVER)


def cmd_sphericity(args) -> int:
    try:
        data = read_matrix(args.data)
        n, _ = data.shape
        u = _unit_vector(args.u, n)
        v = _unit_vector(args.v, n)
    except (OSError, ValueError) as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    try:
        verdict = sphericity_test(data, u, v, E_margin=args.margin, omega=args.omega)
        _emit(args, verdict.to_json(indent=2))
        return EXIT_OK
    except ValueError as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    except AnisompError as exc:
        return _fail(f"error: {exc}", EXIT_SOLVER)


def cmd_reproduce(args) -> int:
    # precedence: explicit flags > config file > defaults
    settings = {"seed": 1, "trials": None, "out_dir": ".", "full": False}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                settings.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            return _fail(f"error: {exc}", EXIT_PARSE)
    if args.seed is not None:
        settings["seed"] = args.seed
    if args.trials is not None:
        settings["trials"] = args.trials
    if args.out_dir is not None:
        settings["out_dir"] = args.out_dir
    if args.full:
        settings["full"] = True
    try:
        reports, bands = reproduce(
            args.name,
            seed=int(settings["seed"]),
            full=bool(settings["full"]),
            trials=settings["trials"],
            out_dir=settings["out_dir"],
            workers=_workers(args),
        )
    except ValueError as exc:
        return _fail(f"error: {exc}", EXIT_PARSE)
    except AnisompError as exc:  # e.g. BudgetExceeded
        return _fail(f"error: {exc}", EXIT_SOLVER)
    failed = 0
    for band in bands:
        status = "PASS" if band.passed else "FAIL"
        if not band.passed:
            failed += 1
        print(f"[{status}] {band.description}: observed {band.observed:.4g} (bound {band.bound})")
    for rep in reports:
        print(f"report: {rep.name} seed={rep.master_seed} trials={rep.trial_count} "
              f"wall={rep.wall_clock:.1f}s -> {settings['out_dir']}")
    return EXIT_BANDS if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=int, help="population dimension for --identity")
    p.add_argument("--N", type=int, help="sample count (enables counts and gamma)")
    p.add_argument("--grid", help="energy grid start:step:stop")
    p.add_argument("--eta", type=float, default=0.0, help="imaginary part (0 = boundary)")
    p.add_argument("--edges-only", action="store_true", help="emit support edges as JSON")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_mp_law)

    p = sub.add_parser("clt-kernel", help="evaluate covariance kernels")
    p.add_argument("--spectrum", help="population spectrum file")
    p.add_argument("--identity", action="store_true")
    p.add_argument("--d", type=float)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--N", type=int)
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

    p = sub.add_parser("reproduce", help="run a reproduction preset")
    p.add_argument("name", choices=REPRODUCIBLE_NAMES)
    p.add_argument("--seed", type=int, help="master seed (default 1)")
    p.add_argument("--full", action="store_true", help="full-scale sizes (n = 2000, 10^3 table trials)")
    p.add_argument("--trials", type=int, help="override the per-cell trial count")
    p.add_argument("--out-dir", help="directory for report files (default .)")
    p.add_argument("--config", help="JSON file with default seed/trials/out_dir/full")
    p.add_argument("--workers", type=int, help="worker processes (or $ANISOMP_WORKERS)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
