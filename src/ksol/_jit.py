"""JIT dispatch: numba-compiled kernels where numba is installed (the
optional ``jit`` extra), the identical source as pure Python otherwise.

Set KSOL_DISABLE_JIT=1 (before import) to run the kernels uncompiled even
with numba present, for debugging and as a correctness cross-check;
tests/test_jit_fallback.py compares the two paths.
"""

import os

_flag = os.environ.get("KSOL_DISABLE_JIT", "").strip().lower()
JIT_ENABLED = _flag not in {"1", "true", "yes", "on"}

if JIT_ENABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:  # numba is an optional extra
        JIT_ENABLED = False

if JIT_ENABLED:

    def njit(func):
        return _numba_njit(cache=True, nogil=True)(func)

else:

    def njit(func):
        return func
