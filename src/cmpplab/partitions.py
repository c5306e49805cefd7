"""Ordinary integer partitions: generation, conjugation, statistics.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

Partition = tuple[int, ...]


def check_partition(parts: Partition) -> Partition:
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError("parts must be positive: %r" % (parts,))
        if i and parts[i - 1] < p:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    return tuple(parts)


def weight(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def frequencies(lam: Partition) -> dict[int, int]:
    freq: dict[int, int] = {}
    for p in lam:
        freq[p] = freq.get(p, 0) + 1
    return freq


def multiplicity(lam: Partition, i: int) -> int:
    return sum(1 for p in lam if p == i)


def n_stat(lam: Partition) -> int:
    """n(lambda) = sum (i-1) * lambda_i."""
    return sum(i * p for i, p in enumerate(lam))


class PartitionStats(NamedTuple):
    conjugate: Partition
    frequencies: dict[int, int]
    n_stat: int
    length: int
    weight: int


def partition_stats(lam: Partition) -> PartitionStats:
    check_partition(lam)
    return PartitionStats(conjugate(lam), frequencies(lam), n_stat(lam),
                          len(lam), sum(lam))


def _parts_of(n: int, part_max: int, len_max: int) -> Iterator[list[int]]:
    if n == 0:
        yield []
        return
    if len_max <= 0:
        return
    for first in range(min(n, part_max), 0, -1):
        for rest in _parts_of(n - first, first, len_max - 1):
            yield [first] + rest


def _colex_key(lam: list[int], pad: int) -> tuple[int, ...]:
    return tuple(reversed(lam + [0] * (pad - len(lam))))


def partitions_iter(total_max: int, part_max: Optional[int] = None,
                    len_max: Optional[int] = None) -> Iterator[Partition]:
    """All partitions with |lambda| <= total_max, parts <= part_max,
    length <= len_max, each exactly once.

    Order: by weight, then colexicographic on the part list (shorter
    partitions of equal weight come first).
    """
    pm = total_max if part_max is None else part_max
    lm = total_max if len_max is None else len_max
    for n in range(total_max + 1):
        batch = list(_parts_of(n, pm, lm))
        batch.sort(key=lambda lam: _colex_key(lam, n))
        for lam in batch:
            yield tuple(lam)


def sub_partitions(lam: Partition) -> list[Partition]:
    """All partitions contained in lam."""
    out: list[Partition] = []

    def rec(i: int, prev: int, acc: list[int]):
        if i == len(lam):
            out.append(tuple(acc))
            return
        for p in range(min(prev, lam[i]), -1, -1):
            if p == 0:
                out.append(tuple(acc))
                return
            acc.append(p)
            rec(i + 1, p, acc)
            acc.pop()

    rec(0, lam[0] if lam else 0, [])
    return out
