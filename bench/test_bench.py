"""Smoke test of the benchmark at its smallest sizes (``--tiny``)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, timeout=600,
                          cwd=cwd)


def tiny_run(workload, trace):
    p = bench("--workload", workload, "--seed", "1", "--seconds", "0",
              "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert list(res["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    return {k: v["value"] for k, v in res["metrics"].items()}


# A traced run also makes an untraced operation, so it covers each
# workload's code; the end-to-end metrics do not depend on the workload.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_layer_metric_is_emitted(workload):
    values = tiny_run(workload, 1)
    # predicted "no work" on the workloads that bypass the layer
    if workload != "drift_n5":
        assert values["linalg.pfaffian.calls"] == 0
    if workload != "closed_forms":
        assert values["densities.survival_montecarlo.calls"] == 0


def test_every_end_to_end_metric_is_emitted():
    assert all(v > 0 for v in tiny_run("drift_n5", 0).values())


def test_wrong_output_raises_failed_share(monkeypatch):
    run.load_program()
    import workloads
    from noncolbm import densities
    wl = workloads.DriftN5(1, True, None)
    good = run.run_op(wl, 0, 1, None)
    assert good["ok"] and run.failed_share([good], None) == 0
    # a survival probability off by a constant factor leaves the drift (a
    # log-gradient) unchanged but breaks Pf(A)^2 = det(A)
    pf = densities.survival_pfaffian
    monkeypatch.setattr(densities, "survival_pfaffian",
                        lambda t, x: 1.5 * pf(t, x))
    bad = run.run_op(wl, 0, 1, None)
    assert not bad["ok"] and run.failed_share([bad], None) == 1


def test_pool_spans_parent_to_the_command(tmp_path):
    run.load_program()
    import workloads
    from noncolbm import cli, paths
    wl = workloads.XitCsv(1, True, str(tmp_path))
    trc = tracer.Tracer({"paths": paths, "cli": cli})
    assert run.run_op(wl, 0, 1, trc)["ok"]
    stats = tracer.summarize(trc.spans)
    build = stats["paths.build_matrix_process"]
    assert build.parents == {"cli.cmd_simulate": wl.reps}
    cmd = stats["cli.cmd_simulate"]
    assert 0 < cmd.self_ns < cmd.ns


def test_self_time_subtracts_the_union_of_children():
    assert tracer._covered(0, 10, [(1, 4), (2, 6), (8, 12)]) == 7


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = bench("--workload", "drift_n5", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0 and not p.stdout.strip()


def test_reference_runs_for_at_least_the_time_asked():
    ref = run.Reference()
    ref.run_for(0.0)
    assert ref.units == 1
    ref.run_for(0.02)
    assert ref.units > 1 and ref.wall_s >= 0.02 and ref.cpu_s > 0
