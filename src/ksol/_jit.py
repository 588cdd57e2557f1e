"""JIT dispatch: numba-compiled kernels by default, pure Python on request.

Set KSOL_DISABLE_JIT=1 (before import) to run the identical kernel source
uncompiled. The fallback exists for debugging and as a correctness
cross-check; tests/test_jit_fallback.py compares the two paths.
"""

import os

_flag = os.environ.get("KSOL_DISABLE_JIT", "").strip().lower()
JIT_ENABLED = _flag not in {"1", "true", "yes", "on"}

if JIT_ENABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False

if JIT_ENABLED:

    def njit(func):
        return _numba_njit(cache=True, nogil=True)(func)

else:

    def njit(func):
        return func
