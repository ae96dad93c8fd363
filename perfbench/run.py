"""End-to-end and per-layer benchmark of the `vuprop` CLI.

    python3 perfbench/run.py --workload prop-wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Run from the root of a checkout: vuprop is imported from its `src/`. The
workload's config is generated from the seed under `.perfbench-work/`,
every command runs in this process through `vuprop.cli.main`, and every
output is checked. `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a traced run (spans go to
`.perfbench-work/trace-<workload>.json`). The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"} (with `--workload all`,
one such line closes each workload's block); the lines before it give the
same numbers readably, with fail_ratio and the machine record.
Exits 1 if any command failed or any check did not hold, 2 if vuprop's
sources are missing.
"""

from __future__ import annotations

import os

# One client, no extra threads: pin BLAS and OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"


def _args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(workload, args) -> bool:
    """Measure one workload and print its result; True if every check held."""
    import measure

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=work_root))
    try:
        trial = measure.Trial(workload, args.seed, work_dir, SRC)
        if args.trace:
            trace_path = work_root / f"trace-{workload.name}.json"
            metrics, notes = measure.run_traced(trial, args.seconds, trace_path)
            units = measure.PER_LAYER
        else:
            metrics, notes = measure.run_untraced(trial, args.seconds)
            units = measure.END_TO_END
        copy = metrics.get("machine.copy_gb_per_s") or measure.copy_gb_per_s()
        machine = measure.machine_record(workload, copy)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = trial.failed == 0 and metrics.get("spans.errors", 0) == 0
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {args.seconds:g} s measured, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"  {'fail_ratio':48s} {trial.failed / trial.attempted:.6g} "
          f"({trial.failed} of {trial.attempted} commands)")
    for message in trial.messages[:20]:
        print(f"  FAILED {message}")
    print("notes: " + json.dumps(notes))
    print("machine: " + json.dumps(machine))
    print(json.dumps({
        "correct": correct,
        "attempted": trial.attempted,
        "failed": trial.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return correct


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "vuprop" / "__init__.py").is_file():
        print(f"error: no vuprop sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vuprop

    if Path(vuprop.__file__).resolve().parent != (SRC / "vuprop").resolve():
        print(f"error: imported vuprop from {vuprop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(workloads.WORKLOADS[name], args) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
