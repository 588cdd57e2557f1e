"""Append the pipeline benchmark's medians for one checkout to the
trajectory file BENCH_pipeline.json.

For each workload it runs ``python3 pipebench/run.py`` in the checkout,
reads the result (the last line of its output) and the stamp on the line
before it, and appends one entry per workload: the commit, the workload and
seed, the backend, the Python and numpy versions and the CPU count of the
run, its end-to-end medians and their unscaled times, and its failed ops.

    python3 scripts/bench_trajectory.py --seed 1 --seconds 25
    python3 scripts/bench_trajectory.py --root ../parent --commit <sha> --out BENCH_pipeline.json

The file holds a JSON list, oldest entry first; a missing file is started.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("stiff_classify", "regime_verify", "alpha_sweep")
REPO = Path(__file__).resolve().parent.parent


def commit_of(root):
    """The commit checked out at root, or None outside a git checkout."""
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def run_workload(root, workload, seed, seconds):
    """(stamp line, result line) of one pipebench run in root."""
    argv = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    info, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def entry(commit, info, result, seconds):
    stamp = info["stamp"]
    return {
        "commit": commit,
        "workload": stamp["workload"],
        "seed": stamp["seed"],
        "seconds": seconds,
        "passes": stamp["passes"],
        "backend": stamp["backend"],
        "python": stamp["python"],
        "numpy": stamp["numpy"],
        "nproc": stamp["nproc"],
        "medians": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
        "unscaled": info["unscaled"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": info["failures"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--commit", help="commit of the checkout (default: git rev-parse HEAD)")
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_pipeline.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)

    commit = args.commit or commit_of(args.root)
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    for workload in args.workloads.split(","):
        info, result = run_workload(args.root, workload, args.seed, args.seconds)
        entries.append(entry(commit, info, result, args.seconds))
        print(workload, json.dumps(entries[-1]["medians"]))
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
