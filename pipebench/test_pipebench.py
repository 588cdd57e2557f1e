"""Self-test of the benchmark's own code; runs in a few seconds.

    python3 -m pytest pipebench -q
"""

import json
from pathlib import Path

import pytest

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# cheap commands that still reach every stage: classify runs the monitors,
# reconstruction and rate fit, verify runs Picard checks, phase and barrier
CHEAP = [
    workloads.Command("classify", 4, 1, 1.0, (1.0,), (1.3,)),
    workloads.Command("verify", 4, 1, 1.0, (5.0,), (1.3,)),
]


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(ROOT)


@pytest.fixture(scope="module")
def passes(cli):
    return [run.run_pass(cli, CHEAP, traced) for traced in (False, True)]


def _units(metrics):
    line = json.loads(json.dumps(run.result_line([], metrics)))
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_every_end_to_end_metric_is_printed_with_its_unit(passes):
    metrics = run.e2e_metrics(passes, [0.2, 0.3, 0.25], [0.9, 1.0, 1.2],
                              attempted=4, failed=0, rss_mib=80.0)
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def test_every_layer_metric_is_printed_with_its_unit(passes):
    metrics = run.traced_metrics(passes, n_ops=len(CHEAP))
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(layers.ABSENT).isdisjoint(metrics)
    # the counters read from returned objects arrived
    assert metrics["orbit.steps"][0] > 0 and metrics["picard.iterations"][0] > 0


def test_real_outputs_pass_their_checks(passes):
    assert all(o.error is None for p in passes for o in p.outcomes)


def test_forged_wrong_class_is_a_failure(cli):
    cmd = CHEAP[0]
    _, rc, stdout, raised = run.run_command(cli, cmd.argv())
    report = json.loads(stdout)
    assert report["class"]["kind"] == "TypeB"
    report["class"]["kind"] = "TypeGamma"
    (outcome,) = workloads.check(cmd, rc, json.dumps(report), raised)
    assert outcome.error is not None and "TypeGamma" in outcome.error
    assert not run.result_line([outcome], {})["correct"]


def test_forged_sweep_row_is_a_failure():
    cmd = workloads.Command("sweep", 4, 1, 1.0, (-1.0, 1.0), (1.0,))
    header = "idx,rho,alpha,class,s_end,X_inf,exponent,log_power,status,error\n"
    good = header + "0,-1.0,1.0,TypeGamma,9,,,,ok,\n1,1.0,1.0,TypeB,9,,,,ok,\n"
    assert [o.error for o in workloads.check(cmd, 0, good)] == [None, None]
    forged = good.replace("TypeB", "NonAdmissible")
    errors = [o.error for o in workloads.check(cmd, 0, forged)]
    assert errors[0] is None and "NonAdmissible" in errors[1]
    assert [o.error for o in workloads.check(cmd, 0, header)] == ["missing row"] * 2


def test_only_known_failures_leave_a_run_correct():
    corner = workloads.Command("verify", 4, 1, 1e3, (1.0,), (1.0,))
    regular = workloads.Command("verify", 4, 1, 1.0, (1.0,), (1.0,))
    report = json.dumps({"all_pass": False, "checks": {"x": {"pass": False}}})
    (known,) = workloads.check(corner, 1, report)
    (unknown,) = workloads.check(regular, 1, report)
    assert known.error and unknown.error
    assert run.result_line([known], {}) == {
        "correct": True, "attempted": 1, "failed": 1, "metrics": {}}
    assert not run.result_line([known, unknown], {})["correct"]


def test_span_self_times_are_not_negative(passes):
    spans = passes[1].spans
    selfs = layers.self_times(spans)
    assert min(selfs.values()) >= 0.0
    roots = [sp for sp in spans if sp.name == layers.COMMAND_SPAN]
    assert len(roots) == len(CHEAP) and all(sp.parent is None for sp in roots)
    assert all(selfs[sp.id] >= 0.0 for sp in roots)


def test_self_time_of_overlapping_children():
    # two worker threads under one command: [1, 5] and [3, 8] cover 7 of 10
    parent = layers.Span(0, "cli.main", None, 0, 1, start=0.0, end=10.0)
    a = layers.Span(1, "orbit.run_orbit", 0, 0, 1, start=1.0, end=5.0)
    b = layers.Span(2, "orbit.run_orbit", 0, 0, 1, start=3.0, end=8.0)
    inner = layers.Span(3, "orbit.integrate", 1, 0, 1, start=2.0, end=4.0)
    selfs = layers.self_times([parent, a, b, inner])
    assert selfs == {0: 3.0, 1: 2.0, 2: 5.0, 3: 2.0}


def test_speed_scale_uses_the_calibrations_on_both_sides():
    ref = run.CAL_REF_S
    assert run.speed_scales([ref, ref, 3.0 * ref]) == [1.0, 0.5]
