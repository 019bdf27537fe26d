import pytest

from roadnet.parallel import MIN_BLOCK_WORK, block_ranges

SIZES = [*range(40), 10**6, 1_082_042, 3_091_946]


@pytest.mark.parametrize("kernel", sorted(MIN_BLOCK_WORK))
def test_block_ranges_tile_near_evenly_within_every_bound(kernel):
    least = MIN_BLOCK_WORK[kernel]
    works = [0, 1, least - 1, least, 2 * least, 3 * least + 5, 10**12]
    for n in SIZES:
        for work in works:
            for threads in range(1, 9):
                ranges = block_ranges(n, kernel, work, threads)
                if n == 0:
                    assert ranges == [(0, 0)]
                    continue
                starts, stops = zip(*ranges)
                assert starts[0] == 0 and stops[-1] == n
                assert list(starts[1:]) == list(stops[:-1])
                sizes = [b - a for a, b in ranges]
                assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
                # as many blocks as every bound allows, and at least one
                assert len(ranges) == max(1, min(threads, n, work // least))
