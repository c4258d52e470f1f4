"""Smoke tests of the benchmark itself: ``python3 -m pytest perfbench``.

Every test runs the workloads at the ``--smoke`` size (a 16-host Clos,
sub-millisecond simulated windows, three-scenario fuzz campaigns), so the
file runs in seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

workloads = run.import_workloads()
SPEC = run.load_spec()
#: Every workload the command runs, including any BENCHMARK.json leaves out.
WORKLOADS = sorted(workloads.WORKLOADS)
#: Deterministic values whose unit is not a count.
DETERMINISTIC_EXTRA = {"lint.dead_rule_share", "deploy.virtual_time_s"}


def run_cli(capsys, *args):
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def test_spec_meets_the_benchmark_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    code, lines = run_cli(capsys, "--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", str(trace), "--smoke")
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # The headline figures (error_share, peak_rss_mb, ...) are printed by name with a unit.
    assert any(line.strip().startswith("error_share = ") for line in lines)
    assert any(line.strip().startswith("peak_rss_mb = ") for line in lines)


@pytest.mark.parametrize(
    "workload,fault",
    [(w, f) for w in WORKLOADS for f in workloads.FAULTS[w]],
)
def test_seeded_fault_raises_error_share(capsys, workload, fault):
    code, lines = run_cli(capsys, "--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "0", "--smoke",
                          "--fault", fault)
    result = json.loads(lines[-1])
    assert code == run.EXIT_FAILED
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any("CHECK FAILED" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_repeated_seed_reproduces_every_counter(workload):
    def counters():
        result = workloads.WORKLOADS[workload](workloads.SMOKE, 5, 0, False)
        assert not result.problems, result.problems
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        return {
            name: value for name, value in result.metrics.items()
            if units.get(name) == "count" or name in DETERMINISTIC_EXTRA
        }

    first = counters()
    assert first
    assert counters() == first


def test_tracer_attributes_self_time_to_layers():
    from tracing import Tracer

    tracer = Tracer()

    def inner():
        return 7

    def outer():
        return tracer.call("core", "inner", inner)

    assert tracer.call("bench", "outer", outer) == 7
    (_, _, _, o_start, o_end, o_parent), (_, _, _, i_start, i_end, i_parent) = tracer.spans
    assert o_parent == -1 and i_parent == 0
    selfs = tracer.self_seconds()
    assert selfs["core"] == pytest.approx(i_end - i_start)
    assert selfs["bench"] == pytest.approx((o_end - o_start) - (i_end - i_start))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
