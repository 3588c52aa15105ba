"""The one worker driver, for the scan's blocks and the joint search's indices."""

from contextlib import contextmanager


@contextmanager
def ordered_map(fn, items: list, workers: int):
    """Yield fn's results over items, in order: in this process for one worker
    or item, else from a process pool whose workers ignore SIGINT, so that
    Ctrl-C reaches only the parent.  However the with block ends, the pool is
    shut down with its queued calls cancelled."""
    if workers <= 1 or len(items) <= 1:
        yield map(fn, items)
        return
    import concurrent.futures  # here, so that runs without a pool do not import it
    import signal

    pool = concurrent.futures.ProcessPoolExecutor(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        yield pool.map(fn, items)
    finally:
        pool.shutdown(cancel_futures=True)
