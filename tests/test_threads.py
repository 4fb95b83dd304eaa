"""The package pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set,
and keeps its per-block temporaries on the heap.

Each thread case runs a probe script in a fresh interpreter that imports numpy
and scipy.linalg before beamspace, as the test modules do, so the libraries are
already loaded when the package pins them.
"""

import ctypes
import json
import os
import subprocess
import sys

import pytest

import beamspace

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beamspace.__file__)))

PROBE = '''
import ctypes
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy  # noqa: F401
import scipy.linalg  # noqa: F401

GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
           "openblas_get_num_threads")


def blas_threads():
    """Thread count of every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                out[path] = getter()
                break
    return out


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import beamspace  # noqa: F401
    with ProcessPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(blas_threads).result()
    print(json.dumps({"parent": blas_threads(), "worker": worker}))
'''


def _probe(tmp_path, threads_env):
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads_env is not None:
        env["OPENBLAS_NUM_THREADS"] = threads_env
    out = subprocess.run([sys.executable, str(script), SRC], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    seen = json.loads(out.strip().splitlines()[-1])
    if not seen["parent"]:
        pytest.skip("no OpenBLAS thread getter found among the loaded libraries "
                    "(numpy/scipy not built on OpenBLAS, or no /proc/self/maps)")
    return seen


def test_blas_pinned_to_one_thread(tmp_path):
    seen = _probe(tmp_path, None)
    assert set(seen["parent"].values()) == {1}, seen
    assert seen["worker"] == seen["parent"]


def test_user_thread_count_is_honoured(tmp_path):
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    if cores < 2:
        pytest.skip("OpenBLAS caps its thread count at the core count (1 here)")
    seen = _probe(tmp_path, "2")
    assert set(seen["parent"].values()) == {2}, seen
    assert seen["worker"] == seen["parent"]


HEAP_PROBE = '''
import resource
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
import beamspace

rng = np.random.default_rng(0)
H = rng.standard_normal((64, 8)) + 0j
s = rng.standard_normal((8, 128)) + 0j
adc = beamspace.AdcConfig(6, 0.5)
for _ in range(20):
    beamspace.receive(H, s, 0.1, adc, beamspace.unit_noise([rng], (64, 128)))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    beamspace.receive(H, s, 0.1, adc, beamspace.unit_noise([rng], (64, 128)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
'''


def test_block_temporaries_stay_on_the_heap(tmp_path):
    # a 64x128 receive makes 128 KiB temporaries; each one mapped afresh
    # faults in every page, 160 faults per receive at glibc's defaults
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("not glibc")
    script = tmp_path / "heap_probe.py"
    script.write_text(HEAP_PROBE)
    out = subprocess.run([sys.executable, str(script), SRC], check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert int(out) < 100
