"""The one process-pool path, _pool.ordered_map, with a stand-in pool: no test
here starts a process."""

import concurrent.futures
import os

import pytest

from harmonicgap import _pool, construct, scan


class _InlinePool:
    """ProcessPoolExecutor's stand-in: records max_workers, maps in this process."""

    def __init__(self, sizes, max_workers, initializer=None, initargs=()):
        sizes.append(max_workers)

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def pool_sizes(monkeypatch):
    # more cores than any test asks workers for, so items and workers set the size
    monkeypatch.setattr(os, "cpu_count", lambda: 1 << 20)
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", lambda *a, **kw: _InlinePool(sizes, *a, **kw)
    )
    return sizes


def test_no_more_workers_than_items(pool_sizes):
    with _pool.ordered_map(str, [3, 1, 2], 1000) as results:
        assert list(results) == ["3", "1", "2"]
    with _pool.ordered_map(str, [3, 1, 2], 2) as results:
        assert list(results) == ["3", "1", "2"]
    assert pool_sizes == [3, 2]


@pytest.mark.parametrize("cores", [2, None])
def test_no_more_workers_than_cores(pool_sizes, monkeypatch, cores):
    # os.cpu_count() is None where the count is unknown: then one process
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    with _pool.ordered_map(str, [3, 1, 2, 5], 1000) as results:
        assert list(results) == ["3", "1", "2", "5"]
    assert pool_sizes == [cores or 1]


def test_scan_pool_sized_by_blocks(pool_sizes, tmp_path):
    n_max = 1_000_000
    blocks = len(list(scan._screen_args(n_max, 2)))
    assert blocks == 14  # spans grow to lo // 8 past the fixed block size
    tables = {}
    for threads in (1, 1000):
        ckpt = tmp_path / f"t{threads}.ckpt"
        tables[threads] = scan.scan_records(n_max, threads=threads, checkpoint_path=str(ckpt))
    assert pool_sizes == [blocks]
    assert tables[1000].json_obj() == tables[1].json_obj()
    assert (tmp_path / "t1000.ckpt").read_bytes() == (tmp_path / "t1.ckpt").read_bytes()


def test_joint_search_pool_sized_by_indices(pool_sizes):
    def keys(search):
        pairs, skipped = search
        return [(p.k, p.d, p.m, p.n) for p in pairs], skipped

    pooled = keys(construct.joint_search(6, window=5, workers=1000))
    assert pool_sizes == [3]  # k = 2, 4, 6
    assert pooled == keys(construct.joint_search(6, window=5))
