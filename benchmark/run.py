"""Run one benchmark workload and print its result as the last line.

    python3 benchmark/run.py --workload monte-carlo --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` of
the checkout this file sits in, never from an installed copy, and the run
fails without printing a result when ``src/anisomp`` is missing.

Each run starts the workload nine times as a fresh process, with one BLAS
thread: once to set up and measure, and four times before and four times
after that only to set up.  ``setup_s`` is the median of the nine set-up
times; taking them on both sides of the measurement spreads them over the
whole run.  Output files of the program go to
``.bench_runs/`` in the checkout and are removed at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("monte-carlo", "theory")
SETUPS_BEFORE = SETUPS_AFTER = 4  # set-up-only processes around the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = "1"


def child(cmd: list[str], cwd: Path, env: dict, timeout: float) -> dict:
    """Run one workload process; its last stdout line is a JSON object."""
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.monotonic()

    src = ROOT / "src"
    if not (src / "anisomp" / "__init__.py").is_file():
        print(f"error: no anisomp package under {src}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
    )
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    def setup_only() -> float:
        remaining = DEADLINE_S - (time.monotonic() - t0)
        return child(cmd + ["--setup-only"], run_dir, env, remaining)["setup_s"]

    try:
        setups = [setup_only() for _ in range(SETUPS_BEFORE)]
        out = child(cmd, run_dir, env, DEADLINE_S - (time.monotonic() - t0))
        setups += [out["setup_s"]] + [setup_only() for _ in range(SETUPS_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {args.workload}: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if Path(out["anisomp"]).resolve() != (src / "anisomp").resolve():
        print(f"error: imported anisomp from {out['anisomp']}, not {src}", file=sys.stderr)
        return 1

    # Both workloads report both throughputs of a typical round.  On
    # monte-carlo a trial is one Monte-Carlo trial and a call one runner call;
    # on theory a call is one theory call and a trial one round of the fixed
    # call mix.
    trials = out["round_trials"] if args.workload == "monte-carlo" else 1
    trials_per_s = trials / out["round_s"]
    calls_per_s = out["round_calls"] / out["round_s"]
    print(
        f"{args.workload}: {out['rounds']} rounds, {out['attempted']} operations in "
        f"{out['seconds']:.3f} s, {trials_per_s:.6g} trials/s, {calls_per_s:.6g} calls/s, "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s",
        file=sys.stderr,
    )
    if args.trace:
        metrics = out["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "trials_per_s": {"value": trials_per_s, "unit": "trials/s"},
            "calls_per_s": {"value": calls_per_s, "unit": "calls/s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
