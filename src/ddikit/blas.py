"""The thread count of the OpenBLAS that numpy loaded: read it back, and run
a block with one thread.

The library is found through ``/proc/self/maps``, so on a build without
OpenBLAS (MKL, Accelerate) or off Linux ``threads()`` is None and
``single_threaded()`` changes nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# (get, set) symbol pairs: numpy's bundled scipy-openblas, then ILP64 and
# LP64 builds of OpenBLAS itself.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _controls():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return None
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "blas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def threads() -> int | None:
    """The thread count the loaded OpenBLAS runs with, read back from the
    library; None when no OpenBLAS is found."""
    controls = _controls()
    return None if controls is None else controls[0]()


@contextlib.contextmanager
def single_threaded():
    """Run the block with one BLAS thread and restore the count after it,
    also when the block raises."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
