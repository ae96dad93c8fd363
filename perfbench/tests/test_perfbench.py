"""Tests of the benchmark itself, on tiny generated workloads.

    python -m pytest perfbench/tests -q
"""

import json
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import measure
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "prop-wide": dict(nx=60, na=20, n_locations=5),
    "ipsa-report": dict(nx=60, na=20, n_locations=6),
    "vars-local": dict(nx=60, na=20, n_locations=3),
    "reuse-narrow": dict(n_locations=2),  # MC needs the full grid to meet its bound
}


def tiny_trial(tmp_path, name, seed=3):
    workload = replace(workloads.WORKLOADS[name], **TINY[name])
    return measure.Trial(workload, seed, tmp_path, ROOT / "src")


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children_only_once():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert spans.self_times(tracer.spans) == [6, 2, 1, 1]
    agg = tracer.aggregate()
    assert agg["root.self_s"] == 6 and agg["a.total_s"] == 3 and agg["c.calls"] == 1
    assert agg["spans.errors"] == 0


def test_overlapping_children_count_their_union():
    s = [spans.Span("p", 0, 6, -1, 0), spans.Span("x", 1, 5, 0, 0),
         spans.Span("y", 3, 6, 0, 0)]
    assert spans.self_times(s)[0] == 1
    # Children that together last longer than their parent are an error.
    assert spans.nesting_errors(s) == 1


def test_child_outside_parent_is_an_error():
    s = [spans.Span("p", 0, 10, -1, 0), spans.Span("x", 8, 11, 0, 0)]
    assert spans.nesting_errors(s) == 1
    assert spans.nesting_errors([spans.Span("p", 0, 1, -1, 0, error=True)]) == 1


@pytest.mark.parametrize("n", [11, 12, 30, 101])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.1 + 1.0)
    value, pct = measure.tail(samples)
    assert sum(s > value for s in samples) == measure.TAIL_BEYOND
    assert np.isclose(np.percentile(samples, pct), value)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def test_median_of_means_groups_interleave_and_drop_a_stall():
    # Groups {0, 5}, {1, 6}, ... each span the window; the stall lands in one.
    samples = [1.0, 2.0] * 5
    samples[3] = 100.0
    assert measure.median_of_means(samples, 5) == 1.5
    with pytest.raises(ValueError):
        measure.median_of_means([1.0] * 4, 5)


def test_median_of_means_follows_a_two_state_mix_smoothly():
    # A plain median jumps from one state to the other as the slow share
    # passes one half; the group means move with the share.
    fast, slow = 1.0, 1.4
    values = {}
    for n_slow in (9, 11):
        samples = [slow if i % 20 < n_slow else fast for i in range(20)]
        values[n_slow] = (statistics.median(samples), measure.median_of_means(samples, 5))
    assert values[9][0] == fast and values[11][0] == slow
    assert abs(values[11][1] - values[9][1]) < 0.1 * fast


def test_inputs_follow_the_seed():
    w = workloads.WORKLOADS["prop-wide"]
    assert workloads.make_config(w, 5) == workloads.make_config(w, 5)
    assert workloads.locations(w, 5) != workloads.locations(w, 6)
    assert all(-4 < v < 4 for v in workloads.locations(w, 5))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(tmp_path, name):
    trial = tiny_trial(tmp_path, name)
    trial.sequence()
    assert trial.messages == []
    assert (trial.attempted, trial.failed) == (len(trial.commands), 0)


@pytest.mark.parametrize("name, path", [
    ("prop-wide", "output_matrix.csv"),
    ("ipsa-report", "summary.csv"),
    ("vars-local", "delta_sq.csv"),
    ("reuse-narrow", "mc_matrix.csv"),
])
def test_corrupted_output_counts_as_failed(tmp_path, name, path):
    trial = tiny_trial(tmp_path, name)
    trial.sequence()
    target = trial.out_dir / path
    lines = target.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * 1.001 + 1e-6)
    lines[2] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n")
    trial.record([0] * len(trial.commands))
    assert trial.failed == 1
    assert trial.attempted == 2 * len(trial.commands)


def test_nonzero_exit_counts_as_failed(tmp_path):
    trial = tiny_trial(tmp_path, "prop-wide")
    trial.sequence()
    trial.record([1])
    assert (trial.attempted, trial.failed) == (2, 1)


def test_traced_run_reports_layers_and_restores_originals(tmp_path, monkeypatch):
    import vuprop.cli
    import vuprop.engine
    import vuprop.models

    monkeypatch.setattr(measure, "copy_gb_per_s", lambda: 1.0)
    originals = (vuprop.cli.propagate_many, vuprop.engine.propagate,
                 vuprop.models.ModelFunction.__dict__["raw"])
    trial = tiny_trial(tmp_path, "prop-wide")
    metrics, notes = measure.run_traced(trial, 0.3, tmp_path / "trace.json")
    assert set(metrics) == set(measure.PER_LAYER)
    assert metrics["spans.errors"] == 0 and trial.failed == 0
    assert metrics["engine.propagate.calls"] == trial.workload.n_locations
    assert metrics["grid.nodes"] == trial.workload.n_nodes
    assert metrics["distributions.scenario_matrix.bytes_computed"] == (
        8 * trial.workload.n_nodes * trial.workload.n_locations)
    assert (vuprop.cli.propagate_many, vuprop.engine.propagate,
            vuprop.models.ModelFunction.__dict__["raw"]) == originals
    dumped = json.loads((tmp_path / "trace.json").read_text())
    assert len(dumped) == notes["traced_samples"]


def test_broken_program_output_fails_the_run(tmp_path, monkeypatch):
    import vuprop.cli

    write = vuprop.cli._write_heatmap

    def corrupt(path, cols, rows, values):
        write(path, cols, rows, np.asarray(values) * 1.01)

    monkeypatch.setattr(vuprop.cli, "_write_heatmap", corrupt)
    monkeypatch.setattr(measure, "copy_gb_per_s", lambda: 1.0)
    trial = tiny_trial(tmp_path, "prop-wide")
    measure.run_traced(trial, 0.2, tmp_path / "trace.json")
    assert trial.attempted > 0 and trial.failed == trial.attempted


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    trial = tiny_trial(tmp_path, "reuse-narrow")
    metrics, notes = measure.run_untraced(trial, 1.0)
    assert set(metrics) == set(measure.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert notes["samples"] > measure.TAIL_BEYOND
    assert trial.failed == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER


def test_refuses_to_run_without_vuprop_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "prop-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
