"""The reference for ``setup_s``: import only the third-party modules that
``beamspace`` imports, and print the CPU time of the importing thread.

    python3 bench/setup_reference.py

``run.py`` runs it beside each set-up probe (``child.py --setup``).  Both
are the same kind of work, so the ratio of their medians keeps the host's
speed out of ``setup_s``; see ``GLOSSARY.md``.
"""

import time

T_START = time.thread_time()

import json  # noqa: E402

import numpy  # noqa: E402,F401
import scipy.linalg  # noqa: E402,F401
import scipy.optimize  # noqa: E402,F401
import scipy.special  # noqa: E402,F401

print(json.dumps({"reference_s": time.thread_time() - T_START}))
