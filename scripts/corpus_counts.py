"""Classify the regime corpus at one theta and print its tallies.

The corpus is ``tests/test_corpus.py``'s PAIRS times RATIOS, at
rho = ratio * theta and alpha 1, each set run once by ``orbit.run_orbit``.
The script prints how many sets end in the regime table, how many outside
it (wrong), how many are Undetermined and how many raise a KsolError; how
many runs end in each status; the integrator's accepted and rejected steps, rhs evaluations, Newton
iterations and Newton failures summed over the corpus (the integrated
part of each run); how many runs handed over to the slow-manifold series;
and the wall time of the whole pass, on the pure-Python kernels unless
numba is installed.

    PYTHONPATH=src python3 scripts/corpus_counts.py
    PYTHONPATH=src python3 scripts/corpus_counts.py --theta 1e-3 --sets > sets.txt

With ``--sets`` it first prints one line per set, ``n k ratio kind
status``, so that two checkouts' outputs can be compared with diff.
"""

import argparse
import collections
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
    ap.add_argument("--sets", action="store_true", help="print each set's kind and status")
    args = ap.parse_args(argv)

    tally = dict.fromkeys(("in_table", "wrong", "undetermined", "error"), 0)
    totals = dict.fromkeys(COUNTERS, 0)
    handed_over = 0
    ends = collections.Counter()
    t0 = time.perf_counter()
    for n, k in PAIRS:
        for ratio in RATIOS:
            p = phase.make_params(n, k, ratio * args.theta, args.theta)
            try:
                _sol, trace, oc = orbit.run_orbit(p)
            except KsolError as exc:
                tally["error"] += 1
                kind, status = type(exc).__name__, "-"
            else:
                kind, status = oc.kind, trace.status
                ends[status] += 1
                for name in COUNTERS:
                    totals[name] += getattr(trace, name)
                handed_over += trace.hand_over is not None
                if kind == orbit.UNDETERMINED:
                    tally["undetermined"] += 1
                elif kind in orbit.expected_kinds(p):
                    tally["in_table"] += 1
                else:
                    tally["wrong"] += 1
            if args.sets:
                print(n, k, f"{ratio:g}", kind, status)
    wall = time.perf_counter() - t0

    backend = "numba" if _jit.JIT_ENABLED else "python"
    print(f"theta {args.theta:g}: {len(PAIRS) * len(RATIOS)} sets, backend {backend}")
    print("  " + ", ".join(f"{name} {count}" for name, count in tally.items()))
    print("  ends: " + ", ".join(f"{status} {count}" for status, count in sorted(ends.items())))
    print("  " + ", ".join(f"{name} {count:,}" for name, count in totals.items()))
    print(f"  handed over to the slow-manifold series: {handed_over}")
    print(f"  wall {wall:.1f} s")


if __name__ == "__main__":
    main()
