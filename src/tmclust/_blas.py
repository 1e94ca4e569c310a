"""One BLAS thread for a block of code, through numpy's bundled OpenBLAS.

A fit's BLAS calls are small: only k-means' batch-sized products were large
enough for OpenBLAS to thread, and they left its second thread spinning
through the whole sweep.  :func:`one_blas_thread` sets the library's thread
count to 1 and restores the caller's count on exit; process pools opened
inside it fork workers that inherit the count.  The library is the one in
numpy's wheel (``numpy.libs`` or ``numpy/.dylibs``), found through
``ctypes`` on first use.  Any other BLAS is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager

# (get, set) symbol pairs, the scipy-openblas wheel's names first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0  # open scopes in this process
_restore = None  # the count to restore when the last scope closes, None if 1


@functools.cache
def _control():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None."""
    import numpy

    package = os.path.dirname(numpy.__file__)
    wheel_libs = (os.path.join(package, os.pardir, "numpy.libs"), os.path.join(package, ".dylibs"))
    for folder in wheel_libs:
        for path in sorted(glob.glob(os.path.join(folder, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                get = getattr(lib, get_name, None)
                set_ = getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread.

    A count that is already 1 is left alone: any thread-count call in a
    forked child restarts OpenBLAS's server thread, which then spins.
    Nested and concurrent scopes share one depth count, so the caller's
    count is restored once, when the last scope closes, also on an error.
    Does nothing when no OpenBLAS control is found.
    """
    global _depth, _restore
    control = _control()
    if control is None:
        yield
        return
    get, set_ = control
    with _lock:
        if _depth == 0:
            count = get()
            _restore = None if count == 1 else count
            if _restore is not None:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _restore is not None:
                set_(_restore)
                _restore = None

