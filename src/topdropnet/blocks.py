"""One thread pool for every pass the package splits into blocks.

A pass whose output falls into independent blocks hands :func:`split` a
function ``work(start)`` and the blocks' first indices. The blocks run on
one pool of :func:`usable_cpus` threads, created on first use and kept for
the life of the process. ``work`` must write only its own block's part of
the output, and call nothing but numpy: the result then does not depend
on which thread ran a block, numpy releases the interpreter lock inside
its loops, and perfbench's single span stack is never touched from a pool
thread. A worker never submits to the pool.

Tensor operations split by :func:`halves`: two fixed halves of the batch,
and only for batches big enough to pay for the hand-over. The halves do
not depend on the CPU count, so neither do the bytes.
"""

import os
import threading

# A batch array of at least this many values, and at least this many
# images, is worked on in two halves. Halves of at least 2 images keep
# each half's conv GEMM on the bytes of the whole-batch one; a 1-image
# half can move them.
SPLIT_VALUES = 1 << 17
SPLIT_IMAGES = 4

_pool = None
_pool_lock = threading.Lock()


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool_in_child():
    # A forked child has none of its parent's threads: it makes its own pool.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # its import costs the CLI's start-up about 7 ms

            _pool = ThreadPoolExecutor(usable_cpus(), thread_name_prefix="topdropnet-blocks")
        return _pool


def split(work, starts) -> None:
    """Call ``work(start)`` once per block start. A single block runs on
    the calling thread; more go to the process pool, a free thread taking
    the next queued block. Every block runs even when one raises; the
    first error in block order is re-raised after all have finished."""
    starts = list(starts)
    if len(starts) <= 1:
        for start in starts:
            work(start)
        return
    pool = _executor()
    futures = [pool.submit(work, start) for start in starts]  # map would drop queued blocks on an error
    for future in futures:
        future.exception()  # waits for the block
    for future in futures:
        future.result()


def halves(work, arr) -> None:
    """Call ``work(index)`` with indices whose parts of the batch array
    ``arr`` together cover it. When ``arr`` holds at least
    ``SPLIT_VALUES`` values and at least ``SPLIT_IMAGES`` images, they are the image
    slices ``[0, ceil(n/2))`` and ``[ceil(n/2), n)``, run through
    :func:`split`; otherwise ``work(...)`` runs once on the calling
    thread."""
    n = arr.shape[0] if arr.ndim else 0
    if n < SPLIT_IMAGES or arr.size < SPLIT_VALUES:
        work(...)
        return
    mid = (n + 1) // 2
    split(lambda start: work(slice(start, mid if start == 0 else n)), (0, mid))
