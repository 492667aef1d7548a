import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from resamplerec.parallel import parallel_map


def _square(context, item):
    return item * item


def _fail_first(marker_dir, item):
    """Item 0 raises after 50 ms; every other item sleeps 300 ms, then leaves a marker."""
    if item == 0:
        time.sleep(0.05)
        raise RuntimeError("item 0 failed")
    time.sleep(0.3)
    (Path(marker_dir) / f"{item}.done").touch()
    return item


def _die_on_item_1(context, item):
    if item == 1:
        os._exit(3)
    return item


def test_pool_never_larger_than_item_count(monkeypatch):
    pools = []
    real_init = ProcessPoolExecutor.__init__

    def counting_init(pool, *args, **kwargs):
        pools.append(kwargs["max_workers"])
        real_init(pool, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", counting_init)
    assert parallel_map(_square, [1, 2, 3], workers=8) == [1, 4, 9]
    assert pools == [3]


def test_failed_task_stops_the_queue(tmp_path):
    """Only the items already handed to a worker or to the call queue
    (`max_workers + 1` of them) still run after a task raises."""
    with pytest.raises(RuntimeError, match="item 0 failed"):
        parallel_map(_fail_first, list(range(60)), workers=2, context=str(tmp_path))
    assert len(list(tmp_path.glob("*.done"))) <= 10


def test_a_dead_worker_is_a_child_process_error():
    """A worker that dies abruptly is an OSError naming the pool size, not
    the pool's own BrokenProcessPool (a RuntimeError)."""
    with pytest.raises(ChildProcessError, match="^a worker process of 2 died "):
        parallel_map(_die_on_item_1, [0, 1, 2], workers=2)
