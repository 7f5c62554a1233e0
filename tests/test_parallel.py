"""parallel_map: order, inline runs, and a pool no larger than the work."""

import concurrent.futures

from fracspde.parallel import parallel_map


class FakePool:
    """Records max_workers and maps inline, so no process is started."""

    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_has_at_most_one_process_per_item(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    assert parallel_map(abs, [-1, 2, -3], workers=100000) == [1, 2, 3]
    assert parallel_map(abs, list(range(-5, 5)), workers=4) == [
        5, 4, 3, 2, 1, 0, 1, 2, 3, 4]
    assert FakePool.sizes == [3, 4]


def test_one_worker_or_one_item_runs_inline(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    assert parallel_map(abs, [-1, 2], workers=1) == [1, 2]
    assert parallel_map(abs, [-7], workers=8) == [7]
    assert parallel_map(abs, [], workers=8) == []
    assert FakePool.sizes == []
