"""What a job may use of the host: numpy's bundled OpenBLAS and the CPUs.

rotor takes LAPACK's dsterf from the OpenBLAS library that numpy's wheel
ships, and cli.run pins that library to one thread for a job.  The library
is looked up on first use, so importing vibrot loads neither it nor ctypes.
Where numpy's build has no such library (conda/MKL, a system BLAS), the
lookups give None and nothing is pinned.
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np


@functools.cache
def openblas(libs=None):
    """The OpenBLAS library in the directory libs, by default the one numpy's
    wheel ships (numpy.libs), as a ctypes.CDLL; None when the directory or
    the library is missing or does not load, as on other builds."""
    import ctypes  # numpy has loaded ctypes and pathlib; importing vibrot loads neither
    import pathlib

    try:
        libs = pathlib.Path(libs or pathlib.Path(np.__file__).parents[1] / "numpy.libs")
        path = next(p for p in libs.iterdir() if p.name.startswith("libscipy_openblas64_"))
        return ctypes.CDLL(str(path))
    except (OSError, StopIteration, TypeError):
        return None


@functools.cache
def _thread_count():
    """(get, set) of numpy's OpenBLAS thread count, or None."""
    import ctypes

    try:
        get = openblas().scipy_openblas_get_num_threads64_
        put = openblas().scipy_openblas_set_num_threads64_
    except AttributeError:  # no library, or no such symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, and at its old count
    again after it, on every exit.  The count is process-wide, so blocks on
    several threads of one process would undo each other's pin."""
    count = _thread_count()
    if count is None:
        yield
        return
    get, put = count
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


def usable_cpus() -> int:
    """The CPUs this process may run on (os.cpu_count() where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
