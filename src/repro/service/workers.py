"""Per-HSM worker queues: one FIFO, one thread per device.

Real HSMs process one command at a time over a serial link; the discrete-
event capacity model (``repro.sim``) assumes exactly this — one M/M/1 queue
per device.  :class:`HsmWorkerPool` makes the concurrency model of the live
service match: every request to device *i* is enqueued on FIFO *i* and
executed by that device's single worker thread, so device state (Bloom-
filter punctures, log digests) is never touched by two requests at once no
matter how many client sessions are in flight.

Thread safety: the pool is the synchronization primitive — ``submit``/
``call`` may be invoked from any number of threads concurrently (they only
touch thread-safe queues), and everything a thunk does runs single-threaded
on its device's worker.  ``start``/``stop`` are idempotent but must not
race each other.  The epoch shard lanes reuse the same class: lane *k* is
"device" *k* of a second, smaller pool.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional

from repro.hsm.device import HsmUnavailableError
from repro.service.channel import Channel, ChannelFactory


class _Job:
    __slots__ = ("thunk", "done", "result", "error")

    def __init__(self, thunk: Callable[[], object]) -> None:
        self.thunk = thunk
        self.done = threading.Event()
        self.result: object = None
        self.error: Optional[BaseException] = None


_STOP = object()


class HsmWorkerPool:
    """One FIFO queue and one worker thread per HSM index."""

    def __init__(self, num_devices: int, call_timeout: float = 60.0) -> None:
        if num_devices < 1:
            raise ValueError("worker pool needs at least one device")
        self._queues: List["queue.Queue"] = [queue.Queue() for _ in range(num_devices)]
        self._threads: List[threading.Thread] = []
        self._call_timeout = call_timeout
        self.jobs_processed = [0] * num_devices

    def __len__(self) -> int:
        return len(self._queues)

    @property
    def running(self) -> bool:
        """Whether the worker threads are live."""
        return bool(self._threads)

    def start(self) -> None:
        """Spawn one daemon worker per queue (idempotent)."""
        if self._threads:
            return
        for index in range(len(self._queues)):
            thread = threading.Thread(
                target=self._serve, args=(index,), name=f"hsm-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Drain and join the workers (safe to call twice or before start)."""
        # Not running: enqueuing sentinels here would poison the queues for
        # a later start(), whose fresh workers would consume them and exit.
        if not self._threads:
            return
        for q in self._queues:
            q.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=self._call_timeout)
        self._threads = []

    def _serve(self, index: int) -> None:
        q = self._queues[index]
        while True:
            job = q.get()
            if job is _STOP:
                return
            try:
                job.result = job.thunk()
            except BaseException as exc:  # re-raised on the caller's thread
                job.error = exc
            finally:
                self.jobs_processed[index] += 1
                job.done.set()

    def submit(self, index: int, thunk: Callable[[], object]) -> _Job:
        """Enqueue ``thunk`` on worker ``index``'s FIFO without waiting.

        Returns the job handle; collect it with :meth:`result`.  This is
        the fan-out primitive the shard epoch lanes use: submit one job
        per lane, then join them all.
        """
        if not self._threads:
            raise RuntimeError("worker pool is not running (call start() first)")
        job = _Job(thunk)
        self._queues[index].put(job)
        return job

    def result(self, job: _Job, timeout: Optional[float] = None) -> object:
        """Wait for a submitted job; re-raises the thunk's exception."""
        if not job.done.wait(self._call_timeout if timeout is None else timeout):
            raise TimeoutError(
                f"job did not complete within {self._call_timeout if timeout is None else timeout}s"
            )
        if job.error is not None:
            raise job.error
        return job.result

    def call(self, index: int, thunk: Callable[[], object]) -> object:
        """Run ``thunk`` on device ``index``'s worker, in FIFO order."""
        return self.result(self.submit(index, thunk))


class QueuedChannel(Channel):
    """A channel that routes through a device's FIFO worker queue."""

    def __init__(self, pool: HsmWorkerPool, index: int, inner: Channel) -> None:
        self._pool = pool
        self._index = index
        self._inner = inner

    def decrypt_share(self, request):
        """Run the inner channel's decrypt on the device's FIFO worker."""
        try:
            return self._pool.call(
                self._index, lambda: self._inner.decrypt_share(request)
            )
        except TimeoutError as exc:
            # A device whose queue backed up past the deadline is, to this
            # session, indistinguishable from a fail-stopped one: surface it
            # as the ⊥-share case so the rest of the cluster can still meet
            # the threshold.  (The queued job may still execute later and
            # puncture the share — the same loss as a reply dropped by the
            # network.)
            raise HsmUnavailableError(
                f"HSM {self._index} request timed out in its queue"
            ) from exc


def queued_channels(pool: HsmWorkerPool, inner: ChannelFactory) -> ChannelFactory:
    """Wrap a channel factory so every call queues on the device's FIFO."""

    def factory(index: int) -> Channel:
        return QueuedChannel(pool, index, inner(index))

    return factory
