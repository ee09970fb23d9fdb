"""Check the checks: every correctness check must fail on a wrong reference.

    python3 benchmark/selftest.py

For each part of a workload (mc-outside-clt, mc-sphericity, theory-support,
theory-covariance) this runs one round on seed 0 and confirms that the checks
pass against the references of ``reference.py``.  It then perturbs each
reference by more than its check's tolerance (and, for the properties
checked without a reference, breaks the output) and confirms that the
checks report a failure every time.  Exits 1 if any check passes vacuously.
Takes about a minute.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def selftest(name: str) -> list[str]:
    w = workloads.PARTS[name](0)
    w.build()
    w.warm_up()
    run = workloads.run_rounds(w, 1e-9, None)
    if run["failed"]:
        return [f"{name}: {run['failed']} operations failed"]
    w.after()
    refs = w.references()
    problems = [f"{name}: fails on the true references: {line}" for line in w.check(refs)]
    cases = 0
    for label, perturbed in w.perturbations(refs):
        cases += 1
        if not w.check(perturbed):
            problems.append(f"{name}: passes with reference perturbed ({label})")
    for label, i, change in w.output_perturbations():
        cases += 1
        saved = copy.copy(w.outputs[i])
        w.outputs[i].update(change)
        if not w.check(refs):
            problems.append(f"{name}: passes with output broken ({label})")
        w.outputs[i] = saved
    print(f"{name}: {cases} perturbations, {len(problems)} problems", file=sys.stderr)
    return problems


def main() -> int:
    import reference

    workloads.ref = reference
    scratch = ROOT / ".bench_runs" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    os.chdir(scratch)
    try:
        problems = [p for name in workloads.PARTS for p in selftest(name)]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
