"""The helper thread of one chunk of blocks (``harness._sim_chunk``).

On a spare core it computes, beside the main thread, work that numpy runs
outside the GIL.  The harness imports this module at the first chunk that
has a spare core, so ``import beamspace`` and a process without one never
load it.
"""

import threading


class Helper(threading.Thread):
    """A chunk's helper thread.  It computes the items handed to it in turn,
    each only once the result before it is taken, so it runs at most one
    item ahead; a failure is raised by the taker in place of the result.
    ``close`` ends and joins the thread after its current item."""

    def __init__(self):
        super().__init__(name="beamspace-chunk-helper")
        self._items, self._results, self._closed = [], [], False
        self._work, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self._credit = threading.Semaphore(1)      # the one item it may run ahead
        self.start()

    def run(self) -> None:
        while self._work.acquire() and self._credit.acquire() and not self._closed:
            fn, args = self._items.pop(0)
            try:
                self._results.append((True, fn(*args)))
            except BaseException as exc:            # raised by the taker
                self._results.append((False, exc))
            self._done.release()

    def _take(self):
        self._done.acquire()
        ok, value = self._results.pop(0)
        self._credit.release()
        if not ok:
            raise value
        return value

    def imap(self, fn, *iterables):
        """``map(fn, *iterables)``, computed on the helper."""
        args = list(zip(*iterables))
        self._items.extend((fn, a) for a in args)
        if args:
            self._work.release(len(args))
        return (self._take() for _ in args)

    def split_map(self, fn, *iterables):
        """``map(fn, *iterables)`` with every other item computed on the
        helper, at the same time as the items between them here."""
        args = list(zip(*iterables))
        odd = self.imap(fn, *zip(*args[1::2]))
        return (next(odd) if i % 2 else fn(*a) for i, a in enumerate(args))

    def close(self) -> None:
        self._closed = True
        self._work.release()
        self._credit.release()
        self.join()
