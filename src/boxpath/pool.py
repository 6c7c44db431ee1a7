"""The one worker pool shared by the samplers and the analytic kernels."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def run_each(task, items, workers: int) -> None:
    """Call `task(item)` for every item, on `workers` threads when above one.

    Each task must write only its own output slot, or add integers into a
    shared total under a lock, so results do not depend on the worker count
    or on the order the tasks run in.
    """
    if workers <= 1:
        for item in items:
            task(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(task, items))
