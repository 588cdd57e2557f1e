"""Pipeline benchmark of the ksol command line.

Drives the real entry point ``ksol.cli.main(argv)`` from this one process as
a closed loop with one client: each command starts when the previous one
returns. A pass runs every command of the workload once; passes repeat
until --seconds have elapsed, and the end-to-end metrics are medians over
the passes. With --trace 1 the passes alternate between untraced and
traced; the traced ones give the per-layer metrics (see layers.py) and the
difference of the two medians is the tracing overhead.

Run from the repository root, which must hold the ksol sources in src/:

    python3 pipebench/run.py --workload stiff_classify --seed 1 --seconds 25 --trace 0

The end-to-end times are given at a reference machine speed: on a shared
host (measured on a 2-vCPU virtual machine) the speed of one CPU swings by
up to 40 % from one second to the next and drifts as much over minutes,
more than any regression bound could absorb. Each command's and each set-up sample's wall time is multiplied by
CAL_REF_S over the mean time of a fixed loop run just before and just after
it. The loop is the benchmark's own, so no change to the program moves it.

The last line of standard output is the result as JSON. The line before it
names the backend, versions, CPU count and seed, gives the times before
scaling, and lists the failed ops. The full record of a run, with every
span of a traced run, is written to pipebench/out/.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layers
import workloads

SETUP_SAMPLES = 11
CAL_REF_S = 0.15  # calibration time that defines the reference speed
CAL_STEPS = 60_000
_CAL_PARAMS = np.array([4.0, 1.0, 1.0 / 3.0, 1.5, 3.0, 2.0, 36.0, 9.0, 9.0, 9.0, 1.0, 6.0, 3.0])
# untimed before the passes: loads lazy imports and, with numba, compiles
# the kernels once
WARMUP_ARGV = ["classify", "--n=4", "--k=1", "--rho=1.0", "--theta=1.0"]


@dataclass
class PassResult:
    cmd_walls: list
    cmd_scales: list  # factors that bring each wall time to the reference speed
    outcomes: list
    spans: list | None = None

    @property
    def wall(self):
        return sum(self.cmd_walls)

    @property
    def scaled_walls(self):
        return [w * f for w, f in zip(self.cmd_walls, self.cmd_scales)]


def import_cli(root):
    """Import ksol.cli from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "ksol" / "cli.py").is_file():
        raise SystemExit(f"error: no ksol sources in {src}; run from the repository root")
    sys.path.insert(0, str(src))
    from ksol import cli

    if Path(cli.__file__).resolve().parent != (src / "ksol").resolve():
        raise SystemExit(f"error: imported ksol from {cli.__file__}, not from {src}")
    return cli


def calibrate():
    """Wall time of a fixed loop shaped like the pure-Python kernels: scalar
    float arithmetic reading a packed numpy parameter array."""
    pp = _CAL_PARAMS
    X, Z = 0.1, 1e-3
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = X ** (1.0 / pp[1])
        F = -(pp[0] - 2.0 * pp[1]) * (1.0 - x / pp[11]) * X + Z * pp[5] * (pp[4] - x)
        G = 2.0 * pp[1] * Z * (1.0 - x / pp[12])
        X += 1e-9 * F
        Z += 1e-9 * G
    return time.perf_counter() - t0


def speed_scales(cals):
    """Factors that bring the i-th timing, taken between calibrations
    cals[i] and cals[i + 1], to the reference speed."""
    return [2.0 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]


def time_setup(root, samples):
    """Wall times of a fresh interpreter importing ksol.cli from root/src,
    and the factors that bring them to the reference speed.

    The interpreters run pinned to one CPU with this process, so that the
    calibrations around each of them see the speed it ran at. Taken before
    the passes: a child's peak RSS includes the RSS of this process when the
    child starts, and peak_rss_mb adds the children's peak.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", "import ksol.cli"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        subprocess.run(argv, env=env, check=True)  # writes the bytecode caches
        times, cals = [], [calibrate()]
        for _ in range(samples):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True)
            times.append(time.perf_counter() - t0)
            cals.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return times, speed_scales(cals)


def run_command(cli, argv, tracer=None, cmd=0):
    """(wall, exit code, stdout, raised) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc = raised = None
    scope = tracer.command(cmd) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a command that raises is a failed op
            raised = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue(), raised


def run_pass(cli, commands, traced):
    """One pass over the commands, with a calibration before each command and
    after the last; outputs are checked after the clocks stop."""
    tracer = layers.Tracer() if traced else None
    ends, cals = [], [calibrate()]
    with tracer or contextlib.nullcontext():
        for i, cmd in enumerate(commands):
            ends.append(run_command(cli, cmd.argv(), tracer, i))
            cals.append(calibrate())
    outcomes = [o for cmd, end in zip(commands, ends) for o in workloads.check(cmd, *end[1:])]
    return PassResult([end[0] for end in ends], speed_scales(cals), outcomes,
                      tracer.spans if tracer else None)


def peak_rss_mib():
    """Peak RSS of this process plus the largest peak among its children,
    in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def unscaled_times(passes, setup_times):
    """Medians of the times as measured, before the speed scaling."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in passes),
        "cmd_max_s": statistics.median(max(p.cmd_walls) for p in passes),
    }


def e2e_metrics(passes, setup_times, setup_scales, attempted, failed, rss_mib):
    """End-to-end metrics; times are medians at the reference speed."""
    return {
        "setup_s": (statistics.median(t * f for t, f in zip(setup_times, setup_scales)), "s"),
        "wall_s": (statistics.median(sum(p.scaled_walls) for p in passes), "s"),
        "cmd_max_s": (statistics.median(max(p.scaled_walls) for p in passes), "s"),
        # the share of ops that pass, rather than fail: a metric must never read 0
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }


def traced_metrics(passes, n_ops):
    """Per-layer metrics, medians over the traced passes, with layer times as
    measured; the overhead is the difference of traced and untraced pass
    times at the reference speed."""
    traced = [p for p in passes if p.spans is not None]
    per_pass = [layers.layer_metrics(p.spans, n_ops) for p in traced]
    out = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    scaled = {True: [], False: []}
    for p in passes:
        scaled[p.spans is not None].append(sum(p.scaled_walls))
    overhead = statistics.median(scaled[True]) - statistics.median(scaled[False])
    out["bench.trace_overhead_s"] = (overhead, "s")
    return out


def trace_record(passes):
    """Spans of the traced passes, self time per layer and per command."""
    traced = [(i, p.spans) for i, p in enumerate(passes) if p.spans is not None]
    selfs = [(spans, layers.self_times(spans)) for _, spans in traced]
    by_layer = [layers.self_by_name(spans, st) for spans, st in selfs]
    return {
        "span_columns": ["pass", *layers.Span.COLUMNS],
        "spans": [[i] + sp.row() for i, spans in traced for sp in spans],
        "self_s_by_layer": {
            name: statistics.median(layer.get(name, 0.0) for layer in by_layer)
            for name in set().union(*by_layer)
        },
        "command_self_s": [
            [st[sp.id] for sp in spans if sp.name == layers.COMMAND_SPAN] for spans, st in selfs
        ],
    }


def result_line(outcomes, metrics):
    """The benchmark's result; only the known failures leave it correct."""
    failures = [o for o in outcomes if o.error is not None]
    return {
        "correct": all(o.known for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def stamp(args, n_passes):
    from ksol import _jit

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": n_passes,
        "backend": "numba" if _jit.JIT_ENABLED else "python",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = import_cli(root)
    commands = workloads.build(args.workload, args.seed)
    n_ops = sum(len(cmd.op_labels()) for cmd in commands)
    setup_times, setup_scales = time_setup(root, SETUP_SAMPLES)
    run_command(cli, WARMUP_ARGV)

    passes = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds or len(passes) < 1 + args.trace:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(cli, commands, traced))

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.error is not None]
    if args.trace:
        metrics = traced_metrics(passes, n_ops)
    else:
        metrics = e2e_metrics(passes, setup_times, setup_scales, len(outcomes), len(failures),
                              peak_rss_mib())
    result = result_line(outcomes, metrics)
    info = {
        "stamp": stamp(args, len(passes)),
        "unscaled": unscaled_times(passes, setup_times),
        "fail_share": len(failures) / len(outcomes),
        "failures": sorted({f"{o.label}: {o.error}" for o in failures}),
        "known_failures": workloads.KNOWN_FAILURES,
    }
    if args.trace:
        info["absent"] = layers.ABSENT
    record = dict(
        info,
        result=result,
        setup_times=setup_times,
        setup_scales=setup_scales,
        commands=[cmd.argv() for cmd in commands],
        passes=[{"cmd_walls": p.cmd_walls, "cmd_scales": p.cmd_scales,
                 "traced": p.spans is not None} for p in passes],
    )
    if args.trace:
        record.update(trace_record(passes))
    out_dir = root / "pipebench" / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
