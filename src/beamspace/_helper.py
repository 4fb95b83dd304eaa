"""The helper thread of one share of a round (``harness._sim_share``).

On a spare core it runs, beside the main thread, one job per chunk: the
path superpositions and data noise of the chunk after the one the main
thread runs, which numpy computes outside the GIL.  So about one chunk of
noise is held ahead (8 blocks of 64 x 128 unit normals, 1 MiB).  The
harness imports this module at the first share with a spare core, so
``import beamspace`` and a process without one never load it, nor
``queue``.
"""

import queue
import threading


class Helper(threading.Thread):
    """A share's helper thread.  It runs the jobs submitted to it in turn;
    ``submit`` returns a function that waits for the job and returns its
    result, or raises its exception.  ``close`` ends and joins the thread
    after its current job; a job still queued never runs."""

    def __init__(self):
        super().__init__(name="beamspace-chunk-helper")
        self._jobs, self._closed = queue.SimpleQueue(), False   # (fn, args, out); None ends
        self.start()

    def run(self) -> None:
        for fn, args, out in iter(self._jobs.get, None):
            if self._closed:
                return
            try:
                out.put((True, fn(*args)))
            except BaseException as exc:            # raised by the taker
                out.put((False, exc))

    def submit(self, fn, *args):
        out = queue.SimpleQueue()
        self._jobs.put((fn, args, out))

        def take():
            ok, value = out.get()
            if not ok:
                raise value
            return value

        return take

    def close(self) -> None:
        self._closed = True
        self._jobs.put(None)
        self.join()
