"""Classify the regime corpus at one theta and print its tallies.

The corpus is ``tests/test_corpus.py``'s PAIRS times RATIOS, at
rho = ratio * theta, each set run once by ``orbit.run_orbits`` at the
alphas of ``--alphas`` (default 1). The script prints how many runs end in
the regime table, how many outside it (wrong), how many are Undetermined
and how many raise a KsolError; how many runs end in each status; the
integrator's accepted and rejected steps, rhs evaluations, Newton
iterations and Newton failures summed over the runs (the integrated part
of each run; the alphas of one set share one continuation, so each of
them counts it); how many runs handed over to the slow-manifold series;
how many switched to Radau, and how those ended (handed over, or their
status); and the wall time of the whole pass, on the pure-Python kernels
unless numba is installed.

    PYTHONPATH=src python3 scripts/corpus_counts.py
    PYTHONPATH=src python3 scripts/corpus_counts.py --theta 1e-3 --sets > sets.txt
    PYTHONPATH=src python3 scripts/corpus_counts.py --alphas 0.5,1,2 --sets > sets.txt

With ``--sets`` it first prints one line per run, ``n k ratio kind
status``, with the alpha appended when ``--alphas`` is given, so that two
checkouts' outputs can be compared with diff.
"""

import argparse
import collections
import math
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from test_corpus import PAIRS, RATIOS  # noqa: E402

from ksol import _jit, orbit, phase  # noqa: E402
from ksol.errors import KsolError  # noqa: E402

COUNTERS = ("accepted_steps", "rejected_steps", "rhs_evals", "newton_iterations", "newton_failures")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--sets", action="store_true", help="print each run's kind and status")
    ap.add_argument("--alphas", help="comma list of alphas, run together per set (default 1)")
    args = ap.parse_args(argv)
    alphas = [float(a) for a in args.alphas.split(",")] if args.alphas else [1.0]

    tally = dict.fromkeys(("in_table", "wrong", "undetermined", "error"), 0)
    totals = dict.fromkeys(COUNTERS, 0)
    handed_over = 0
    ends = collections.Counter()
    radau_ends = collections.Counter()
    t0 = time.perf_counter()
    for n, k in PAIRS:
        for ratio in RATIOS:
            p = phase.make_params(n, k, ratio * args.theta, args.theta)
            for alpha, run in zip(alphas, orbit.run_orbits(p, alphas)):
                if isinstance(run, KsolError):
                    tally["error"] += 1
                    kind, status = type(run).__name__, "-"
                else:
                    _sol, trace, oc = run
                    kind, status = oc.kind, trace.status
                    ends[status] += 1
                    for name in COUNTERS:
                        totals[name] += getattr(trace, name)
                    handed_over += trace.hand_over is not None
                    if not math.isnan(trace.stiff_from_s):
                        radau_ends["handed over" if trace.hand_over else status] += 1
                    if kind == orbit.UNDETERMINED:
                        tally["undetermined"] += 1
                    elif kind in orbit.expected_kinds(p):
                        tally["in_table"] += 1
                    else:
                        tally["wrong"] += 1
                if args.sets:
                    tag = [f"{alpha:g}"] if args.alphas else []
                    print(n, k, f"{ratio:g}", kind, status, *tag)
    wall = time.perf_counter() - t0

    backend = "numba" if _jit.JIT_ENABLED else "python"
    runs = f" x {len(alphas)} alphas" if args.alphas else ""
    print(f"theta {args.theta:g}: {len(PAIRS) * len(RATIOS)} sets{runs}, backend {backend}")
    print("  " + ", ".join(f"{name} {count}" for name, count in tally.items()))
    print("  ends: " + ", ".join(f"{status} {count}" for status, count in sorted(ends.items())))
    print("  " + ", ".join(f"{name} {count:,}" for name, count in totals.items()))
    print(f"  handed over to the slow-manifold series: {handed_over}")
    radau = ", ".join(f"{end} {count}" for end, count in sorted(radau_ends.items()))
    print(f"  switched to Radau: {sum(radau_ends.values())} ({radau})")
    print(f"  wall {wall:.1f} s")


if __name__ == "__main__":
    main()
