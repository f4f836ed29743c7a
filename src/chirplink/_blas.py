"""One BLAS thread while a block runs, through numpy's bundled OpenBLAS.

numpy's wheels ship OpenBLAS in ``numpy.libs``, and its thread pool would
spin beside every worker of a multi-worker run.  The library is found through
``ctypes`` on first use, not at import; where no library or symbol is found,
:func:`one_thread` does nothing, and matrix products still give their results.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

# (library file pattern, symbol prefix): numpy 2.x wheels, then numpy 1.26 wheels.
_OPENBLAS = (("*scipy_openblas*", "scipy_openblas_"), ("*openblas*", "openblas_"))


@lru_cache(maxsize=None)
def _thread_calls():
    """``(get, set)`` of the bundled OpenBLAS thread count, or None where there is none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for pattern, prefix in _OPENBLAS:
        for path in sorted(libs.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"{prefix}get_num_threads64_")
                set_ = getattr(lib, f"{prefix}set_num_threads64_")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def one_thread():
    """Run the block on one BLAS thread, then restore the previous count, also on error."""
    calls = _thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
