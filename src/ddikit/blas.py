"""The thread count of the OpenBLAS that numpy loaded: read it back, run a
block with one thread, and run work on one Python thread per BLAS thread,
each with one BLAS thread.

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


def map_in_threads(fn, items, workers: int, fold=None) -> list | None:
    """``[fn(x) for x in items]`` on the calling thread and ``workers - 1``
    helper threads, with one BLAS thread each; the count is restored after.
    Each thread takes the next item no thread has taken. A helper runs in a
    copy of the caller's context, so numpy's ``errstate`` holds in it. The
    first exception reaches the caller once every thread has stopped.

    With ``fold``, each result is passed to ``fold`` instead, in the order of
    ``items``: a thread whose result comes early waits until the results
    before it are folded, so at most ``workers`` results are held at once and
    no two folds overlap. Returns None then."""
    out = [None] * len(items)
    claims = itertools.count()
    folded = 0
    errors = []
    turn = threading.Condition()

    def work():
        nonlocal folded
        for i in claims:
            if i >= len(items) or errors:
                return
            try:
                result = fn(items[i])
                if fold is None:
                    out[i] = result
                    continue
                with turn:
                    turn.wait_for(lambda: folded == i or errors)
                    if errors:
                        return
                    fold(result)
                    folded += 1
                    turn.notify_all()
            except BaseException as exc:
                with turn:
                    errors.append(exc)
                    turn.notify_all()

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(workers - 1)]
    with single_threaded():
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[0]
    return None if fold is not None else out
