"""A *busy* dispatch target for :class:`BatchScheduler` tests.

Under the work-conserving policy a request waits in the queue only
while every dispatch slot is occupied, so a test that wants to see
queueing (fill-to-deadline, shedding, coalescing) needs a downstream it
can hold busy.  :class:`GatedTarget` is that downstream: every dispatch
returns a :class:`~concurrent.futures.Future` the test resolves — a gate
instead of a sleep — and records the coalesced inputs it was handed.
"""

import threading
from concurrent.futures import Future


class GatedTarget:
    """Callable dispatch target whose batches complete when told to.

    Args:
        run: computes a batch's real result from its coalesced inputs
            (``session.run``); :meth:`finish` needs it.
    """

    def __init__(self, run=None):
        self._run = run
        self._cond = threading.Condition()
        #: (coalesced inputs, future) per dispatch, in dispatch order.
        self.batches = []

    def __call__(self, inputs):
        future = Future()
        with self._cond:
            self.batches.append((inputs, future))
            self._cond.notify_all()
        return future

    def wait_for(self, count, timeout=30.0):
        """Block until ``count`` batches have been dispatched."""
        with self._cond:
            arrived = self._cond.wait_for(
                lambda: len(self.batches) >= count, timeout
            )
            assert arrived, (
                f"{len(self.batches)} batches dispatched, "
                f"expected {count}"
            )

    def unresolved(self):
        with self._cond:
            return [
                index
                for index, (_, future) in enumerate(self.batches)
                if not future.done()
            ]

    def words(self, index):
        """Words per signal of batch ``index`` (1-word requests: its
        request count)."""
        inputs = self.batches[index][0]
        return next(iter(inputs.values())).size

    def finish(self, index):
        """Complete batch ``index`` with its real result."""
        inputs, future = self.batches[index]
        future.set_result(self._run(inputs))

    def fail(self, index, exc):
        self.batches[index][1].set_exception(exc)
