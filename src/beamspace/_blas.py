"""Pin OpenBLAS to one thread unless the user chose a thread count.

The simulator's BLAS calls are small (8x8 Gram matrices, 64x128 blocks), so
BLAS threads add synchronisation, not speed, and in a process pool they
oversubscribe the cores; parallelism comes from ``SimConfig.workers`` alone.
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when it is loaded, so the variable is
set before the package imports numpy.  Copies loaded before that (numpy's and
scipy's each bundle one) are set through their runtime setter.  Forked pool
workers inherit the setting; spawned ones inherit the variable.
"""

import ctypes
import os

_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads")


def _loaded_openblas() -> list:
    """The OpenBLAS libraries mapped into this process (found on Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


def pin_threads() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    except ValueError:
        return
    if threads < 1:
        return
    for lib in _loaded_openblas():
        for name in _SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(threads)
                break


pin_threads()
