import concurrent.futures
import os

import pytest

from agedelay import experiments


@pytest.fixture
def pool_sizes(monkeypatch):
    """Lets any suite of two or more jobs fork a real pool of two; lists each pool's worker count.

    A worker's share of work is cut to one weighted packet-run and the
    usable CPUs to two, so a small test suite pools on any host, as a
    large one does on two CPUs.
    """
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    class Spy(real):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(experiments, "_WORK_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # run_suite imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return sizes
