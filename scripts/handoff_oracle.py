"""Check each corpus set's hand-off against an independent integration.

For each set of ``tests/test_corpus.py``'s PAIRS times RATIOS at one theta
(alpha 1), the local series is solved (``picard.picard_solve``), and
``mpmath.odefun`` (a Taylor method) at 20 digits carries the series' point
at s0 - DEPTH, deep in the tail, to s0 in the chart (ln X, ln Z), with the
field written out here from the formulas. The script prints, per set, the
relative distance of the hand-off (X, Z) from that reference divided by
the hand-off's bound ``err``, then the worst ratio, and exits 1 if it
exceeds 1. About 0.6 s a set.

scipy's DOP853 at rtol 1e-13 misses by 2e-12 to 3e-12 relative on X over
one unit of s, some hundred times the bound, so it cannot serve here.

    PYTHONPATH=src python3 scripts/handoff_oracle.py
    PYTHONPATH=src python3 scripts/handoff_oracle.py --theta 1e-3
"""

import argparse
import math
import sys
from pathlib import Path

import mpmath

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from test_corpus import PAIRS, RATIOS  # noqa: E402

from ksol import phase, picard  # noqa: E402
from ksol.errors import KsolError  # noqa: E402

DEPTH = 1.0  # the reference starts this far below s0
DIGITS = 20


def reference(sol, p, digits=DIGITS):
    """(X, Z) at s0 from mpmath.odefun, started on the series at s0 - DEPTH.
    p is in its chart's own terms: the profile's numerator num_a + num_b x."""
    mp = mpmath.mp.clone()
    mp.dps = digits
    n, k = mp.mpf(p.n), p.k
    theta, rho = mp.mpf(p.theta), mp.mpf(p.rho)
    m = (n - 2 * k) / (n + 2 * k)
    gamma = (n + 2 * k) / k * (2 * theta + rho) / (4 * theta)
    c_nk = (n + 2 * k) / (2**k * math.comb(p.n - 1, k - 1)) * (k / (n + 2 * k)) ** (1 - k)
    cb = c_nk * ((1 - m) * theta) ** k
    x_A = (n + 2 * k) / k
    num_a, num_b = (gamma, -1) if p.chart == "XZ" else (gamma - x_A, 1)

    def field(_s, v):
        x = mp.exp(v[0] / k)
        q = 1 - x / x_A
        f = cb * q * ((num_a + num_b * x) / q) ** k
        return [-(n - 2 * k) * q + mp.exp(v[1] - v[0]) * f, 2 * k * (1 - 2 * x / x_A)]

    s_start = sol.s0 - DEPTH
    X0, Z0 = sol.state(s_start)
    start = [mp.log(mp.mpf(float(X0))), mp.log(mp.mpf(float(Z0)))]
    v = mp.odefun(field, mp.mpf(s_start), start)(mp.mpf(sol.s0))
    return float(mp.exp(v[0])), float(mp.exp(v[1]))


def ratio(sol, p, digits=DIGITS):
    """The hand-off's relative distance from the reference over its bound."""
    X, W = sol.state_at_s0(p)
    Z = math.exp(W) / p.cb
    X_ref, Z_ref = reference(sol, p, digits)
    return max(abs(X - X_ref) / X_ref, abs(Z - Z_ref) / Z_ref) / sol.err


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--theta", type=float, default=1.0)
    args = ap.parse_args(argv)
    worst = (0.0, None)
    for n, k in PAIRS:
        for r in RATIOS:
            p = phase.make_params(n, k, r * args.theta, args.theta)
            try:
                sol = picard.picard_solve(1.0, p)
            except KsolError as exc:
                print(f"{n} {k} {r:g} error {type(exc).__name__}: {exc}")
                continue
            q = ratio(sol, p)
            print(f"{n} {k} {r:g} s0 {sol.s0:.4f} terms {sol.terms} err {sol.err:.2e} ratio {q:.3f}")
            worst = max(worst, (q, (n, k, r)))
    print(f"theta {args.theta:g}: worst ratio {worst[0]:.3f} at {worst[1]}")
    return 0 if worst[0] <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
