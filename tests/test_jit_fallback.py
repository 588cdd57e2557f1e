"""The pure-Python kernel path (KSOL_DISABLE_JIT=1) must agree with the
compiled path; the kernels share one source, so this guards the dispatch."""

import json
import os
import subprocess
import sys
import warnings


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
