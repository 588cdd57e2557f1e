"""The pure-Python kernel path (KSOL_DISABLE_JIT=1) must agree with the
compiled path; the kernels share one source, so this guards the dispatch."""

import ast
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ksol import _jit, _kernels, orbit, phase


def classify_json(env_extra):
    env = dict(os.environ)
    env.update(env_extra)
    out = subprocess.run(
        [sys.executable, "-m", "ksol.cli", "classify", "--n", "4", "--k", "1",
         "--rho", "1", "--theta", "1", "--alpha", "1"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_fallback_matches_jit():
    try:
        import numba  # noqa: F401
    except ImportError:
        warnings.warn(
            "numba is not importable: both runs used the pure-Python kernels, "
            "so this compares Python with Python",
            UserWarning,
        )
    jit = classify_json({"KSOL_DISABLE_JIT": "0"})
    py = classify_json({"KSOL_DISABLE_JIT": "1"})
    assert py["class"] == jit["class"]
    assert py["monitors"] == jit["monitors"]
    # both paths run the identical kernel source, so results agree to
    # floating noise
    a = py["tail_rate"]["fitted_exponent"]
    b = jit["tail_rate"]["fitted_exponent"]
    assert abs(a - b) < 1e-9
    assert abs(py["residuals"]["elliptic_max_rel"]) < 1e-6


# the kernels integrate_core calls through module globals
STEP_KERNELS = (
    "kth_root", "rhs", "jac", "_spectral_radius",
    "_dop853_step", "_dop853_error", "_dop853_dense", "_extension", "_sample_count",
    "_radau_step", "_radau_safety", "_predict_factor", "_rms", "_collocation",
    "_quintic_miss", "_quintic_slope", "_hermite_coeffs", "_dense", "_event_value", "_bisect_event",
    "_sample", "_interior", "_collocation_interior", "_log_event", "certifies_b", "_on_series",
)
# the @njit kernel the step loop does not reach: the run holding the loop
OUTSIDE_STEP_LOOP = {"integrate_core"}


def test_step_kernels_list_every_njit_kernel():
    # a kernel added later is spied on below only if it is listed
    tree = ast.parse(Path(_kernels.__file__).read_text())
    njit = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "njit" for d in node.decorator_list)
    }
    assert njit - OUTSIDE_STEP_LOOP == set(STEP_KERNELS)


def _non_floats(values):
    """The numeric scalars among values (tuples flattened) that are not
    Python floats; np.float64 is a float subclass, so the type must match."""
    out = []
    for v in values:
        if isinstance(v, tuple):
            out += _non_floats(v)
        elif isinstance(v, (float, np.generic)) and type(v) is not float:
            out.append(v)
    return out


@pytest.mark.skipif(_jit.JIT_ENABLED, reason="the compiled kernels return numba's own types")
@pytest.mark.parametrize("n, k", [(4, 1), (5, 2)])
def test_fallback_kernels_compute_on_python_floats(n, k, monkeypatch):
    p = phase.make_params(n, k, 1.0, 1.0)
    for chart in ("XZ", "WV"):
        pp = _kernels.pack_params(p.in_chart(chart))
        assert len(pp) == _kernels.PP_SIZE
        assert all(type(v) is float for v in pp)
        out = _kernels.rhs(0.7, 0.3, pp) + _kernels.jac(0.7, 0.3, pp)
        assert all(type(v) is float for v in out), out

    # a numpy scalar anywhere in the step loop reaches the states, the step
    # size or a kernel result, and so the arguments or result of a kernel
    seen = []

    def spy(fn):
        def call(*args):
            out = fn(*args)
            seen.extend(_non_floats(args + (out,)))
            return out

        return call

    for name in STEP_KERNELS:
        monkeypatch.setattr(_kernels, name, spy(getattr(_kernels, name)))
    results = []
    integrate_core = _kernels.integrate_core
    monkeypatch.setattr(
        _kernels, "integrate_core", lambda *a: results.append(integrate_core(*a)) or results[-1]
    )
    orbit.run_orbit(p, 1.0)
    [result] = results
    h_min, h_max, stiff_from_s = result[-3:]
    assert type(h_min) is float and type(h_max) is float and type(stiff_from_s) is float
    assert seen == []


@pytest.mark.skipif(_jit.JIT_ENABLED, reason="the compiled kernels return numba's own types")
def test_series_kernel_computes_on_python_floats(monkeypatch):
    # an expander's run carries the packed slow-manifold series into the
    # step loop, and hands over to it: its floats stay Python floats
    seen, calls = [], []
    on_series = _kernels._on_series

    def spy(*args):
        out = on_series(*args)
        calls.append(out)
        seen.extend(_non_floats(args))
        return out

    monkeypatch.setattr(_kernels, "_on_series", spy)
    _sol, trace, _oc = orbit.run_orbit(phase.make_params(5, 2, -1.0, 1.0), 1.0)
    assert trace.hand_over is not None and calls[-1] is True
    assert seen == []


def test_integrate_core_arity():
    # orbit.py unpacks the result by position, on either path: the samples,
    # the events, the status, the certificate, the hand-over state, the
    # step, rhs and Newton counts, h_min, h_max and stiff_from_s
    p = phase.make_params(4, 1, -1.0, 1.0)
    ctl = orbit.OrbitControls(s_max=1.0)
    out = _kernels.integrate_core(
        0.1, 0.0, 0.0, ctl.s_max, _kernels.pack_params(p), ctl.rtol, ctl.step_floor,
        ctl.asym_tol, ctl.end_at_b, False, ctl.max_samples, _kernels.NO_SERIES,
    )
    assert len(out) == 17
    assert len(out[7]) == 5 and all(math.isnan(v) for v in out[7])
    assert len(out[8]) == 3 and all(math.isnan(v) for v in out[8])
    n_acc, n_rej, n_rhs, n_newton, n_newton_fail, h_min, h_max, stiff_from_s = out[-8:]
    assert all(isinstance(v, int) for v in (n_acc, n_rej, n_rhs, n_newton, n_newton_fail))
    assert all(isinstance(v, float) for v in (h_min, h_max, stiff_from_s))
    assert 0.0 < h_min <= h_max
