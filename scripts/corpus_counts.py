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
checkouts' outputs can be compared with diff. ``--digest`` appends to each
line a SHA-256 of the run's LocalSolution fields and its trace's s, X, Z,
events and status, and adds one line per set for each other series the
corpus forms: ``A``, the A-chart local solution where rho > 2 theta, and
``M``, the slow-manifold coefficients (C and x^k) where n > 2k and
rho <= 0; equal digests mean bit-identical results.

    PYTHONPATH=src python3 scripts/corpus_counts.py --digest > digest.txt
    diff <(grep -v wall parent.txt) <(grep -v wall digest.txt)
"""

import argparse
import collections
import dataclasses
import hashlib
import math
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from test_corpus import PAIRS, RATIOS  # noqa: E402

import numpy as np  # noqa: E402

from ksol import _jit, manifold, orbit, phase, picard  # noqa: E402
from ksol.errors import KsolError  # noqa: E402

COUNTERS = ("accepted_steps", "rejected_steps", "rhs_evals", "newton_iterations", "newton_failures")


def digest(*values):
    """SHA-256 of values: arrays by their bytes, anything else by its repr,
    which round-trips floats exactly; a dataclass by its fields."""
    h = hashlib.sha256()

    def feed(value):
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                feed(getattr(value, f.name))
        elif isinstance(value, np.ndarray):
            h.update(repr((value.dtype.str, value.shape)).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())

    for value in values:
        feed(value)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--theta", type=float, default=1.0)
    ap.add_argument("--sets", action="store_true", help="print each run's kind and status")
    ap.add_argument("--alphas", help="comma list of alphas, run together per set (default 1)")
    ap.add_argument("--digest", action="store_true", help="print each run's and series' SHA-256")
    args = ap.parse_args(argv)
    args.sets |= args.digest
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
                    if args.digest:
                        tag.append(run_digest(run))
                    print(n, k, f"{ratio:g}", kind, status, *tag)
            if args.digest:
                for name, series in other_series(p):
                    print(n, k, f"{ratio:g}", name, series)
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


def run_digest(run):
    """The digest of one run of ``orbit.run_orbits``, or its error's name."""
    if isinstance(run, KsolError):
        return f"{type(run).__name__}: {run}"
    sol, trace, _oc = run
    return digest(sol, trace.s, trace.X, trace.Z, trace.events, trace.status)


def other_series(p):
    """(name, digest) of p's A-chart local solution and slow-manifold
    coefficients, where p has them."""
    out = []
    if p.rho > 2.0 * p.theta:
        try:
            out.append(("A", digest(picard.picard_solve_at_A(1.0, p))))
        except KsolError as exc:
            out.append(("A", f"{type(exc).__name__}: {exc}"))
    if p.n > 2 * p.k and p.rho <= 0.0:
        out.append(("M", digest(*manifold._coefficients(p, manifold.MAX_TERMS + manifold.TAIL_TERMS))))
    return out


if __name__ == "__main__":
    main()
