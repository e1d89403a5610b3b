"""The machine numpy runs on: its RAM, and the thread count of the OpenBLAS
numpy loaded: read it back, run a block with one thread, and run work on one
Python thread per BLAS thread, each with one BLAS thread.

The library is found through ``/proc/self/maps``, so on a build without
OpenBLAS (MKL, Accelerate) or off Linux ``threads()`` is None,
``single_threaded()`` changes nothing and ``workers()`` is 1.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
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


def workers(jobs: int) -> int:
    """Threads to run ``jobs`` independent jobs on: one per BLAS thread, at
    most one per core and one per job; 1 without OpenBLAS."""
    count = threads()
    if count is None:
        return 1
    return max(1, min(count, len(os.sched_getaffinity(0)), jobs))


def map_in_threads(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread and helper threads,
    ``workers(len(items))`` threads in all, with one BLAS thread each; the
    count is restored after. One item runs on the caller alone.
    Each thread takes the next item no thread has taken, and every item runs.
    A helper runs in a copy of the caller's context, so numpy's ``errstate``
    holds in it. Once every thread has stopped, the results come back in the
    order of ``items``; if items raised, the exception of the first of them
    in that order is raised instead."""
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
    with single_threaded():
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
