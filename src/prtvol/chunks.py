"""Deterministic fan-out of fixed-size chunks over a thread pool.

Chunk bounds depend only on the item count and chunk size, and results
come back in chunk order, so the thread count cannot change any output.
"""

from concurrent.futures import ThreadPoolExecutor


def map_chunks(fn, n, chunk, threads):
    """[fn(lo, hi) for each chunk [lo, hi) of range(n)], in chunk order.

    Chunks run inline when threads <= 1 or there is only one chunk, and
    on a pool of `threads` workers otherwise.
    """
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if threads <= 1 or len(bounds) <= 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))
