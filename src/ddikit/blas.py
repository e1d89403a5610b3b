"""The machine numpy runs on: its RAM, and the threads ddikit runs work on.

Importing this module reads the thread count the OpenBLAS numpy loaded
started with (``OPENBLAS_NUM_THREADS``, or one per core) and then sets
OpenBLAS to one thread for the life of the process. Every BLAS product runs
on the thread that calls it, and the count read is the number of workers
``map_in_threads`` runs work on: those workers are the only parallelism, and
no idle OpenBLAS thread spins against them. A product's bits can depend on
the BLAS thread count it runs at; as every product runs at one, every
output keeps its bytes at any ``OPENBLAS_NUM_THREADS``.

``build()`` names the OpenBLAS version and the core whose kernels it runs,
since those set a product's bits too. The library is found through
``/proc/self/maps``, so on a build without OpenBLAS (MKL, Accelerate) or off
Linux ``threads()`` and ``build()`` are None and ``workers()`` is 1.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
import threading

# The (prefix, suffix) of OpenBLAS's symbol names: numpy's bundled
# scipy-openblas, then ILP64 and LP64 builds of OpenBLAS itself.
_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def ram_bytes() -> int | None:
    """The machine's RAM in bytes, None where the OS does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _pin_to_one_thread() -> tuple[int | None, tuple[str, str] | None]:
    """The thread count the loaded OpenBLAS started with, read before
    setting it to one thread, and its (version, core name); (None, None)
    when no OpenBLAS is found."""
    import numpy  # noqa: F401  (loads OpenBLAS, so the process maps it)
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return None, None
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "blas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get, put, config, core = (getattr(lib, f"{prefix}{fn}{suffix}", None) for fn in
                                      ("get_num_threads", "set_num_threads", "get_config",
                                       "get_corename"))
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                count = get()
                put(1)
                build = None
                if config is not None and core is not None:
                    config.restype = core.restype = ctypes.c_char_p
                    config.argtypes = core.argtypes = []
                    build = (config().decode().split()[1], core().decode())
                return count, build
    return None, None


_THREADS, _BUILD = _pin_to_one_thread()


def threads() -> int | None:
    """The thread count OpenBLAS started with, read once at import before
    it was set to one thread; None when no OpenBLAS is found."""
    return _THREADS


def build() -> tuple[str, str] | None:
    """The loaded OpenBLAS's version and the name of the core whose kernels
    it runs, such as ``("0.3.31", "Haswell")``: a product's bits can differ
    between cores. None when no OpenBLAS is found."""
    return _BUILD


def workers(jobs: int) -> int:
    """Threads to run ``jobs`` independent jobs on: one per thread OpenBLAS
    started with, at most one per core and one per job; 1 without
    OpenBLAS."""
    count = threads()
    if count is None:
        return 1
    return max(1, min(count, len(os.sched_getaffinity(0)), jobs))


class _Pool(threading.local):
    running = False  # whether this thread is running map_in_threads items


_POOL = _Pool()


def map_in_threads(fn, items) -> list:
    """``[fn(x) for x in items]`` on the calling thread and helper threads,
    ``workers(len(items))`` threads in all. One item runs on the caller
    alone, and so does every item of a call made while this thread runs an
    item of another call (a conv inside a trunk tile, say), so the process
    never runs more than ``workers()`` threads. Each thread takes the next
    item no thread has taken, and every item runs. A helper runs in a copy
    of the caller's context, so numpy's ``errstate`` holds in it. Once every
    thread has stopped, the results come back in the order of ``items``; if
    items raised, the exception of the first of them in that order is raised
    instead."""
    out = [None] * len(items)
    errors = [None] * len(items)
    claims = itertools.count()

    def work():
        outer, _POOL.running = _POOL.running, True
        try:
            for i in claims:
                if i >= len(items):
                    return
                try:
                    out[i] = fn(items[i])
                except BaseException as exc:
                    errors[i] = exc
        finally:
            _POOL.running = outer

    count = 1 if _POOL.running else workers(len(items))
    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(count - 1)]
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
