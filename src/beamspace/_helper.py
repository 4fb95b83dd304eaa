"""The helper thread of one share of a round (``harness._sim_share``).

On a spare core it runs, beside the main thread, one job per chunk: the
path superpositions and data noise of the chunk after the one the main
thread runs, which numpy computes outside the GIL.  So about one chunk of
noise is held ahead (8 blocks of 64 x 128 unit normals, 1 MiB; the
per-block helper held two blocks).  The harness imports this module at
the first share with a spare core, so ``import beamspace`` and a process
without one never load it.
"""

import threading


class Helper(threading.Thread):
    """A share's helper thread.  It runs the jobs submitted to it in turn;
    ``submit`` returns a function that waits for the job and returns its
    result, or raises its exception.  ``close`` ends and joins the thread
    after its current job."""

    def __init__(self):
        super().__init__(name="beamspace-chunk-helper")
        self._jobs, self._closed = [], False
        self._work = threading.Semaphore(0)
        self.start()

    def run(self) -> None:
        while self._work.acquire() and not self._closed:
            self._jobs.pop(0)()

    def submit(self, fn, *args):
        done, out = threading.Lock(), []
        done.acquire()

        def job():
            try:
                out.append((True, fn(*args)))
            except BaseException as exc:            # raised by the taker
                out.append((False, exc))
            done.release()

        def take():
            with done:
                ok, value = out[0]
            if not ok:
                raise value
            return value

        self._jobs.append(job)
        self._work.release()
        return take

    def close(self) -> None:
        self._closed = True
        self._work.release()
        self.join()
