"""One benchmark run of one workload.

The load is a closed loop: one client in this process, no extra threads,
each `vuprop.cli.main` call starting after the previous one has returned.
Every command's outputs are checked after its sequence, outside the timed
region. End-to-end metrics come from an untraced run; a traced run gives the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from vuprop import cli

import spans
import workloads

HERE = Path(__file__).resolve().parent

SETUP_REPS = 12  # fresh interpreters per run, spread over its window
SETUP_GROUPS = 4  # setup_s is the median of this many interleaved group means
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "locations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Which end-to-end metric each layer should move, and where:
PER_LAYER = {
    # pdf construction and propagation: wall_s, locations_per_s and
    # peak_rss_mb on prop-wide; a small share of ipsa-report; nothing on
    # reuse-narrow or vars-local. The per-column scatter-adds
    # (engine.propagate) are child spans of engine.propagate_many.
    "distributions.scenario_matrix.self_s": "s",
    "distributions.scenario_matrix.bytes_computed": "bytes",
    "engine.propagate_many.self_s": "s",
    "engine.propagate.self_s": "s",
    "engine.propagate.calls": "count",
    "engine.propagate_many.bytes_computed": "bytes",
    "engine.propagate_many.gb_per_s": "GB/s",
    # Result writing, manifest and glue: wall_s on ipsa-report, a little on prop-wide.
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    # Summaries and deviation re-binning: wall_s on ipsa-report.
    "ipsa.summarize.self_s": "s",
    "ipsa.to_deviations.self_s": "s",
    "ipsa.output_matrix.self_s": "s",
    # YAML parsing: setup_s everywhere, wall_s on ipsa-report.
    "config.load.self_s": "s",
    # Deviation sweeps and variogram quadrature: wall_s on vars-local, nothing on prop-wide.
    "variogram.local_square_deviation.self_s": "s",
    "variogram.local_square_deviation.calls": "count",
    "variogram.integrated_variogram.self_s": "s",
    "models.eval.points": "count",
    "distributions.gaussian_on_grid.calls": "count",
    "distributions.gaussian_on_grid.self_s": "s",
    # Grid, model sweep and binning: setup_s on every workload with a
    # matrix, wall_s on reuse-narrow.
    "grid.make_grid.self_s": "s",
    "grid.nodes": "count",
    "models.eval.self_s": "s",
    "engine.build_model_matrix.self_s": "s",
    # Sidecar I/O and Monte Carlo: wall_s on reuse-narrow.
    "engine.save_matrix.self_s": "s",
    "engine.load_matrix.self_s": "s",
    "engine.sidecar_bytes": "bytes",
    "mc.mc_propagate_many.self_s": "s",
    "mc.draw_samples.self_s": "s",
    "mc.samples": "count",
    # The trace itself and the roofline reference, on every workload.
    "spans.errors": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "machine.copy_gb_per_s": "GB/s",
}


def median_of_means(samples, groups: int) -> float:
    """Median of the means of `groups` interleaved groups: sample i joins
    group i % groups, so each group spans the whole window. On a shared
    host a core's speed can switch between states some 1.4x apart for
    seconds at a time, which makes short samples such as one set-up bimodal;
    a plain median then jumps from one state to the other as their mix passes
    one half, while a group mean follows the mix smoothly, and the median
    over groups still drops a group that hit a stall."""
    if len(samples) < groups:
        raise ValueError(f"{groups} groups need at least {groups} samples, got {len(samples)}")
    return statistics.median(statistics.fmean(samples[g::groups]) for g in range(groups))


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at least
    TAIL_BEYOND samples beyond it; percentiles interpolate linearly between
    ranks, so the value is one of the samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - 1 - TAIL_BEYOND
    return sorted(samples)[rank], 100.0 * rank / (n - 1)


class Trial:
    """One workload's inputs, outputs and failure count for one run."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path, src: Path):
        self.workload = workload
        self.src = src
        self.config = work_dir / "run.yaml"
        self.out_dir = work_dir / "out"
        self.out_dir.mkdir(parents=True)
        workloads.write_config(workload, seed, self.config)
        self.commands = workloads.commands(workload, self.config, self.out_dir)
        self.checker = workloads.Checker(workload, seed, self.config)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, codes: list) -> None:
        """Count the commands of one sequence; a command fails if it did not
        exit 0 or if a check on its outputs fails."""
        failures = self.checker.check(self.out_dir)
        for i, (argv, code) in enumerate(zip(self.commands, codes)):
            self.attempted += 1
            if code != 0 or i in failures:
                self.failed += 1
                self.messages.append(f"{argv[0]}: exit {code}; "
                                     + "; ".join(failures.get(i, [])))

    def _clear_outputs(self) -> None:
        for path in self.out_dir.iterdir():
            path.unlink()

    def _call(self, argv):
        try:
            return cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            return None

    def sequence(self, tracer: spans.Tracer | None = None) -> float:
        """Run the command sequence once; returns its wall time."""
        self._clear_outputs()
        codes = []
        if tracer is None:
            t0 = time.perf_counter()
            for argv in self.commands:
                codes.append(self._call(argv))
            wall = time.perf_counter() - t0
        else:
            with tracer.installed():
                t0 = time.perf_counter()
                for run, argv in enumerate(self.commands):
                    tracer.run = run
                    started = time.time_ns()
                    with tracer.span("cli"):
                        codes.append(self._call(argv))
                    tracer.counters["cli.bytes_written"] += _bytes_written(self.out_dir, started)
                wall = time.perf_counter() - t0
        self.record(codes)
        return wall

    def child(self, spec: dict) -> dict:
        spec = dict(spec, src=str(self.src))
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {spec['mode']} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh process running the sequence once; its
        commands are checked and counted like the others."""
        self._clear_outputs()
        result = self.child({"mode": "rss", "commands": self.commands})
        self.record(result["codes"])
        return result["peak_rss_mb"]

    def setup_s(self) -> float:
        """Seconds a fresh interpreter takes to import vuprop and do the set-up."""
        return self.child({"mode": "setup", "kind": self.workload.command,
                           "config": str(self.config), "out_dir": str(self.out_dir)})["setup_s"]


def _bytes_written(out_dir: Path, since_ns: int) -> int:
    """Result files (CSV, manifest) the command wrote; the sidecar counts as
    engine.sidecar_bytes instead."""
    return sum(p.stat().st_size for p in out_dir.iterdir()
               if p.suffix in (".csv", ".json") and p.stat().st_mtime_ns >= since_ns)


def run_untraced(trial: Trial, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, plus notes on how they were taken."""
    peak = trial.peak_rss_mb()  # first, so it also writes the sidecar set-up loads
    trial.sequence()  # warm-up
    samples, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
            # Spread over the window, so set-up samples the same machine
            # conditions as the timed sequences.
            setups.append(trial.setup_s())
        elif elapsed < seconds or len(samples) <= TAIL_BEYOND:
            samples.append(trial.sequence())
        else:
            break
    wall = statistics.median(samples)
    tail_value, tail_pct = tail(samples)
    metrics = {
        "wall_s": wall,
        "wall_tail_s": tail_value,
        "locations_per_s": trial.workload.n_locations / wall,
        "setup_s": median_of_means(setups, SETUP_GROUPS),
        "peak_rss_mb": peak,
    }
    notes = {"samples": len(samples), "wall_tail_percentile": tail_pct,
             "wall_samples_s": [round(v, 6) for v in samples],
             "setup_s": f"median of {SETUP_GROUPS} interleaved group means "
                        f"of {len(setups)} fresh set-ups",
             "setup_samples_s": [round(v, 6) for v in setups]}
    return metrics, notes


def run_traced(trial: Trial, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced sequences, which alternate with
    untraced ones so that trace.overhead_frac compares like with like."""
    trial.sequence()  # warm-up
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        if len(plain) == len(traced):
            plain.append(trial.sequence())
        else:
            tracers.append(spans.Tracer())
            traced.append(trial.sequence(tracers[-1]))
    per_run = []
    for tracer, wall in zip(tracers, traced):
        r = tracer.aggregate()
        seconds_in = r.get("engine.propagate_many.total_s")
        r["engine.propagate_many.gb_per_s"] = (
            r["engine.propagate_many.bytes_computed"] / seconds_in / 1e9 if seconds_in else 0.0)
        r["trace.wall_s"] = wall
        per_run.append(r)
    metrics = {name: statistics.median(r.get(name, 0.0) for r in per_run) for name in PER_LAYER}
    metrics["spans.errors"] = sum(r["spans.errors"] for r in per_run)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["machine.copy_gb_per_s"] = copy_gb_per_s()
    with open(trace_path, "w") as fh:
        json.dump([t.to_json() for t in tracers], fh)
    notes = {"traced_samples": len(traced), "untraced_samples": len(plain),
             "spans": sum(len(t.spans) for t in tracers), "trace_file": trace_path.name,
             "bytes_computed": "from array sizes, not measured"}
    return metrics, notes


# --- machine record ----------------------------------------------------------

def l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            return None
    return None


def copy_gb_per_s(reps: int = 5) -> float:
    """Sustained copy bandwidth, counting bytes read plus bytes written, on
    arrays at least four times the L3 cache (256 MiB if its size is unknown)."""
    n = max(4 * (l3_bytes() or 64 * 1024 ** 2), 64 * 1024 ** 2) // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def _blas_threads() -> int | None:
    """Thread count of the BLAS numpy loaded, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(workload: workloads.Workload, copy_gb_s: float) -> dict:
    l3 = l3_bytes()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
        "l3_bytes": l3,
        "largest_array_bytes": workload.largest_array_bytes,
        "largest_array_over_l3": workload.largest_array_bytes / l3 if l3 else None,
        "copy_gb_per_s": copy_gb_s,
        "load": "closed loop, 1 client, 1 process, commands run back to back",
        "note": "no kernel, cgroup or cache setting was changed to measure; "
                "cache state is whatever the shared machine gives",
    }
