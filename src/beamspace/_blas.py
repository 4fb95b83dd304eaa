"""Pin OpenBLAS to one thread unless the user chose; keep temporaries on the heap.

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
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc mallopt parameters


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


def keep_temporaries_on_heap() -> None:
    """Serve a 64x128 block's 128 KiB temporaries from the heap, not from fresh
    mappings faulted in page by page (160 faults per receive).  glibc raises its
    thresholds itself only after freeing a larger mapping, which may never happen."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 21)


pin_threads()
keep_temporaries_on_heap()
