"""A persistent, shareable thread pool for scattering GIL-free kernels.

The batched kernels evaluate whole-array NumPy expressions, which release
the GIL — so the independent per-partition kernel batches of one GROUP-BY
(:func:`repro.core.batched.run_group_by_batched` with two or more remote
vertical partitions) can overlap on a multi-core host.  That is all the pool
serves: whole shard executions are interpreter-bound and run as a plain loop
(see :mod:`repro.sharding.executor`).  :class:`ScatterPool` wraps one lazily
created ``ThreadPoolExecutor`` that :class:`~repro.service.service.QueryService`
owns and threads through its engines, so a batch of queries reuses warm
worker threads instead of re-spawning an executor per GROUP-BY.

With one worker or fewer than two items ``map`` is a plain loop and no thread
is ever started.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable, Iterable
from typing import TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_scatter_workers() -> int:
    """Worker count for kernel scatter: one per core, at least one."""
    return max(1, os.cpu_count() or 1)


class ScatterPool:
    """A lazily started thread pool shared across engines and batches.

    The underlying executor is created on first parallel use and kept for
    the lifetime of the pool, so repeated batches do not pay thread
    startup.  With ``max_workers <= 1`` (or fewer than two items) work runs
    inline on the calling thread — results and their order are identical
    either way, since the scattered functions only perform pure functional
    kernel work.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        # Assigned before validating: __del__ runs on a rejected instance too.
        self._executor: ThreadPoolExecutor | None = None
        if max_workers is None:
            max_workers = default_scatter_workers()
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = int(max_workers)
        # Marks this pool's own worker threads: a map issued from inside a
        # mapped function must run inline on the worker — blocking a worker
        # on tasks that need a worker slot would deadlock the pool.
        self._local = threading.local()

    @property
    def parallel(self) -> bool:
        """Whether this pool can actually overlap work."""
        return self.max_workers > 1

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="scatter"
            )
        return self._executor

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, in parallel when it can pay off.

        Returns results in input order.  Falls back to an inline loop when
        the pool is single-worker, there are fewer than two items, or the
        caller already runs on one of this pool's workers (nested scatter).
        """
        items = list(items)
        if (
            not self.parallel
            or len(items) < 2
            or getattr(self._local, "worker", False)
        ):
            return [fn(item) for item in items]

        def on_worker(item: T) -> R:
            self._local.worker = True
            return fn(item)

        return list(self._ensure_executor().map(on_worker, items))

    def close(self) -> None:
        """Shut the worker threads down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> ScatterPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        self.close()
