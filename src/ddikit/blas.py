"""The machine numpy runs on: its RAM, and the threads ddikit runs work on.

Importing this module reads the thread count the OpenBLAS numpy loaded
started with (``OPENBLAS_NUM_THREADS``, or one per core) and then sets
OpenBLAS to one thread for the life of the process. Every BLAS product runs
on the thread that calls it, and the count read is the number of workers
``map_in_threads`` runs work on: those workers are the only parallelism, and
no idle OpenBLAS thread spins against them. A product's bits can depend on
the BLAS thread count it runs at; as every product runs at one, every
output keeps its bytes at any ``OPENBLAS_NUM_THREADS``.

The library is found through ``/proc/self/maps``, so on a build without
OpenBLAS (MKL, Accelerate) or off Linux ``threads()`` is None and
``workers()`` is 1.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
import threading

# (get, set) symbol pairs: numpy's bundled scipy-openblas, then ILP64 and
# LP64 builds of OpenBLAS itself.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


def ram_bytes() -> int | None:
    """The machine's RAM in bytes, None where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _pin_to_one_thread() -> int | None:
    """The thread count the loaded OpenBLAS started with, after setting it
    to one thread; None when no OpenBLAS is found."""
    import numpy  # noqa: F401  (loads OpenBLAS, so the process maps it)
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
                count = get()
                put(1)
                return count
    return None


_THREADS = _pin_to_one_thread()


def threads() -> int | None:
    """The thread count OpenBLAS started with, read once at import before
    it was set to one thread; None when no OpenBLAS is found."""
    return _THREADS


def workers(jobs: int) -> int:
    """Threads to run ``jobs`` independent jobs on: one per thread OpenBLAS
    started with, at most one per core and one per job; 1 without
    OpenBLAS."""
    count = threads()
    if count is None:
        return 1
    return max(1, min(count, len(os.sched_getaffinity(0)), jobs))


def map_in_threads(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread and helper threads,
    ``workers(len(items))`` threads in all. One item runs on the caller
    alone. Each thread takes the next item no thread has taken, and every
    item runs. A helper runs in a copy of the caller's context, so numpy's
    ``errstate`` holds in it. Once every thread has stopped, the results
    come back in the order of ``items``; if items raised, the exception of
    the first of them in that order is raised instead."""
    out = [None] * len(items)
    errors = [None] * len(items)
    claims = itertools.count()

    def work():
        for i in claims:
            if i >= len(items):
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(workers(len(items)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out
