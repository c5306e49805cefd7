"""Partition helpers: `frequencies`, `n_stat` and `check_partition` from
hall_littlewood, and the `partitions_iter` / `sub_partitions` oracles."""

import pytest

from cmpplab.hall_littlewood import check_partition, frequencies, n_stat
from cmpplab.series import poch
from oracles import partitions_iter, sub_partitions


def test_stats_example():
    lam = (5, 3, 3, 2, 2, 2, 1)
    assert frequencies(lam) == {5: 1, 3: 2, 2: 3, 1: 1}
    assert sum(lam) == 18
    assert len(lam) == 7


def test_frequencies_sum_to_weight():
    assert n_stat((2, 2)) == 2
    for lam in partitions_iter(20):
        assert sum(i * f for i, f in frequencies(lam).items()) == sum(lam)
        assert n_stat(lam) == sum(i * p for i, p in enumerate(lam))


def test_iter_counts_match_euler_product():
    n = 25
    inv = poch(1, 1, None, n).invert()
    counts = [0] * (n + 1)
    for lam in partitions_iter(n):
        counts[sum(lam)] += 1
    assert counts == inv.q_coeffs(n)


def test_iter_bounded():
    got = list(partitions_iter(4, part_max=2))
    assert got == [(), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2),
                   (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_iter(0)) == [()]


def test_iter_len_max():
    for lam in partitions_iter(12, len_max=3):
        assert len(lam) <= 3
    two_rows = sum(1 for _ in partitions_iter(10, len_max=2))
    # 1 + floor(n/2)+1 partitions of n into <= 2 parts
    assert two_rows == sum(n // 2 + 1 for n in range(11))


def test_validation():
    assert check_partition([3, 1, 1]) == (3, 1, 1)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((0,))


def test_sub_partitions():
    subs = sub_partitions((2, 1))
    assert sorted(subs) == [(), (1,), (1, 1), (2,), (2, 1)]
    assert sub_partitions(()) == [()]
    box = sub_partitions((2, 2, 2))
    assert len(box) == 10  # partitions inside a 3x2 box: C(5,2)
