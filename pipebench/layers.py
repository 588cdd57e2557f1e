"""Outside-in layer tracing of the ksol pipeline.

A ``Tracer`` replaces public functions of the ksol modules by wrappers
that record one span per call, and puts the originals back when it is
closed; nothing under ``src/`` changes. Only calls made through a module
attribute are seen: ``picard.picard_solve(...)`` from another module, or a
module-global name such as ``reconstruct_u(...)`` inside ``profile`` itself.
A name bound with ``from .phase import kth_root`` keeps the original.

Counters come from the objects the wrapped functions return: accepted steps,
events and status from ``OrbitTrace``, iterations and retries from
``LocalSolution``, the class from ``OrbitClass``. Rejected steps and rhs
evaluations happen inside ``integrate_core`` and cannot be seen from here;
``ABSENT`` names them instead of reporting them as zero.
"""

import functools
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# module (under ksol) -> wrapped functions; the layer label drops the "_"
WRAPPED = {
    "orbit": (
        "run_orbit",
        "integrate",
        "classify_orbit",
        "monitor_report",
        "monotonicity_monitor",
        "log_z_identity_check",
        "self_intersection_check",
        "barrier_compare",
    ),
    "profile": ("reconstruct_u", "potential_identity_residual", "elliptic_residual", "tail_rate"),
    "picard": ("picard_solve", "picard_solve_at_A", "derivative_residual"),
    "phase": ("system_rhs", "jacobian"),
    "_kernels": ("integrate_core",),
}

COMMAND_SPAN = "cli.main"

ABSENT = {
    "orbit.rejected_steps": "counted only inside integrate_core, which does not return it",
    "orbit.rhs_evals": "counted only inside integrate_core, which does not return it",
}


def _orbit_counts(trace, *args, **kwargs):
    return {
        "steps": int(trace.s.size - trace.tail_end_index),
        "events": len(trace.events),
        "status": trace.status,
    }


def _picard_counts(sol, *args, **kwargs):
    return {"iterations": sol.iterations, "retries": sol.retries}


def _class_counts(oc, trace, p, *args, **kwargs):
    from ksol import orbit

    return {
        "kind": oc.kind,
        "undetermined": oc.kind == orbit.UNDETERMINED,
        "in_table": oc.kind in orbit.expected_kinds(p),
    }


HOOKS = {
    "orbit.integrate": _orbit_counts,
    "orbit.classify_orbit": _class_counts,
    "picard.picard_solve": _picard_counts,
    "picard.picard_solve_at_A": _picard_counts,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    cmd: int
    pid: int
    start: float = 0.0
    end: float = 0.0
    thread_s: float = 0.0  # thread CPU time spent inside the span
    attrs: dict | None = None

    @property
    def wall(self):
        return self.end - self.start

    COLUMNS = ("id", "name", "start", "end", "parent", "cmd", "pid", "thread_s", "attrs")

    def row(self):
        return [getattr(self, col) for col in self.COLUMNS]


class Tracer:
    """Records spans while open; use as a context manager around a pass."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        self._root = None
        self._cmd = -1
        self._saved = []

    def __enter__(self):
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(f"ksol.{mod_name}")
            label = mod_name.lstrip("_")
            for fname in names:
                orig = getattr(mod, fname)
                self._saved.append((mod, fname, orig))
                name = f"{label}.{fname}"
                setattr(mod, fname, self._wrap(name, orig, HOOKS.get(name)))
        return self

    def __exit__(self, *exc):
        for mod, fname, orig in reversed(self._saved):
            setattr(mod, fname, orig)
        self._saved.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        # a call on a worker thread has an empty stack; its parent is the
        # command that started the thread
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), name, parent, self._cmd, self._pid)
        stack.append(span.id)
        span.thread_s = time.thread_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        span.thread_s = time.thread_time() - span.thread_s
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def command(self, cmd):
        """Root span of one CLI command; the closed loop runs one at a time."""
        self._cmd = cmd
        span = self._open(COMMAND_SPAN)
        self._root = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span.attrs = hook(out, *args, **kwargs)
            return out

        return traced


def self_times(spans):
    """Span id -> its wall time minus the part of it its children cover.

    Children on different threads may overlap; the covered part is the
    length of the union of their intervals within the parent's.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        reach = sp.start
        for a, b in sorted(children[sp.id]):
            a, b = max(a, reach), min(b, sp.end)
            if b > a:
                covered += b - a
                reach = b
        out[sp.id] = sp.wall - covered
    return out


def self_by_name(spans, selfs):
    """Total self time of the spans of each name."""
    out = defaultdict(float)
    for sp in spans:
        out[sp.name] += selfs[sp.id]
    return dict(out)


def layer_metrics(spans, n_ops):
    """Per-layer figures of one traced pass, as name -> (value, unit)."""
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def calls(name):
        return len(by_name[name])

    def wall(name):
        return sum(sp.wall for sp in by_name[name])

    def total(name, key):
        return sum(sp.attrs[key] for sp in by_name[name] if sp.attrs)

    integrate_s = wall("orbit.integrate")
    steps = total("orbit.integrate", "steps")
    kinds = [sp.attrs for sp in by_name["orbit.classify_orbit"] if sp.attrs]
    selfs = self_times(spans)
    out = {
        "orbit.integrate.calls": (calls("orbit.integrate"), "count"),
        "orbit.integrate.s": (integrate_s, "s"),
        "orbit.integrate.wait_s": (
            sum(sp.wall - sp.thread_s for sp in by_name["orbit.integrate"]), "s"),
        "orbit.integrate.calls_per_op": (calls("orbit.integrate") / n_ops, "1/op"),
        "kernels.integrate_core.s": (wall("kernels.integrate_core"), "s"),
        "orbit.steps": (steps, "count"),
        "orbit.step_us": (1e6 * integrate_s / steps if steps else 0.0, "us"),
        "orbit.undetermined": (sum(a["undetermined"] for a in kinds), "count"),
        "orbit.out_of_table": (sum(not a["in_table"] for a in kinds), "count"),
        "picard.picard_solve.calls": (calls("picard.picard_solve"), "count"),
        "picard.iterations": (
            total("picard.picard_solve", "iterations")
            + total("picard.picard_solve_at_A", "iterations"), "count"),
        "picard.retries": (
            total("picard.picard_solve", "retries")
            + total("picard.picard_solve_at_A", "retries"), "count"),
        "profile.reconstruct_u.calls": (calls("profile.reconstruct_u"), "count"),
        "phase.system_rhs.calls": (calls("phase.system_rhs"), "count"),
        "cli.self_s": (sum(selfs[sp.id] for sp in by_name[COMMAND_SPAN]), "s"),
    }
    for name in (
        "orbit.monitor_report",
        "orbit.self_intersection_check",
        "orbit.monotonicity_monitor",
        "orbit.log_z_identity_check",
        "orbit.barrier_compare",
        "profile.reconstruct_u",
        "profile.potential_identity_residual",
        "profile.elliptic_residual",
        "profile.tail_rate",
        "picard.picard_solve",
        "picard.picard_solve_at_A",
        "picard.derivative_residual",
        "phase.system_rhs",
        "phase.jacobian",
    ):
        out[f"{name}.s"] = (wall(name), "s")
    return out
