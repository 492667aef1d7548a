"""The one process pool: an order-preserving map over worker processes.

Grid cells (`quality_grid`), datasets (`cmd_grid`) and static-strategy
cells (`assess_bank`) all run through `parallel_map`. Every task derives its
own RNG stream from the master seed and results come back in input order, so
results do not depend on the worker count.
"""

from __future__ import annotations

from typing import Callable, Sequence

_worker: tuple = ()  # (fn, context) of this pool worker


def _init_worker(fn: Callable, context) -> None:
    global _worker
    _worker = (fn, context)


def _run(item):
    fn, context = _worker
    return fn(context, item)


def parallel_map(fn: Callable, items: Sequence, workers: int, context=None) -> list:
    """`[fn(context, item) for item in items]`, computed on up to `workers` processes
    and never more processes than items.

    Runs in this process when `workers <= 1` or there is at most one item.
    Otherwise `fn` and `context` reach each worker once, through the pool's
    initializer, so whatever the context fills on first use (a grid's
    `FoldSplits`) fills once per worker and serves all of that worker's
    items. `fn` must be a module-level function. A worker that dies raises
    ChildProcessError.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(context, item) for item in items]
    # imported here: the pool loads multiprocessing, which serial runs never need
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(fn, context)) as pool:
        try:
            return list(pool.map(_run, items))
        except BrokenProcessPool:  # an OSError ends the command in one error line
            raise ChildProcessError(f"a worker process of {workers} died before its tasks "
                                    "finished; rerun the command to resume") from None
