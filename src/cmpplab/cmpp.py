"""Coloured partitions with path-bounded frequency arrays.

Three families of coloured partitions are supported, named by their tag:

* A: n colours, no parity restriction; the frequency array has 2n rows
     (per colour one row of even part sizes including the virtual f_0,
     one of odd sizes including the virtual f_{-1}).
* C: 2n+1 colours, parts of colour c have parity c (odd colours hold odd
     parts); one row per colour.  n = 0 gives a one-row array (odd parts).
* D: 2n-1 colours, parts of colour c have the opposite parity; n = 1
     gives a one-row array (even parts) whose single boundary label is
     k_0 + k_1.

A path picks one entry per row, top-down through the rows, with part-size
indices >= -1 differing by exactly 1 between consecutive rows.  Virtual
columns i = -1, 0 hold the boundary values k_0..k_n.  A coloured partition
is admissible when every path sums to at most k_0 + ... + k_n, and the
generating function sums z^{l(lambda)} q^{|lambda|} over admissible
partitions.

The ordering among colours of equal-size parts is immaterial: partitions
are represented canonically by their frequency data, never as ordered
part lists (the optional convention of ordering the colour set is not
used anywhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .series import QSeries

_NEG = -(1 << 60)

FAMILIES = ("A", "C", "D")


def family_rows(family: str, n: int) -> int:
    if family == "A":
        if n < 1:
            raise ValueError("family A requires n >= 1")
        return 2 * n
    if family == "C":
        if n < 0:
            raise ValueError("family C requires n >= 0")
        return 2 * n + 1
    if family == "D":
        if n < 1:
            raise ValueError("family D requires n >= 1")
        return 2 * n - 1
    raise ValueError("unknown family %r" % (family,))


def _row_layout(family: str, n: int,
                boundary: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per row (in path order): allowed-index parity and boundary value.

    Parity 0 rows hold even indices >= 0 (boundary at i = 0), parity 1
    rows hold odd indices >= -1 (boundary at i = -1).
    """
    if len(boundary) != n + 1:
        raise ValueError("boundary must have n+1 = %d entries" % (n + 1))
    if any(k < 0 for k in boundary):
        raise ValueError("boundary entries must be >= 0")
    m = family_rows(family, n)
    parities: list[int] = []
    bases: list[int] = []
    if family == "A":
        for r in range(m):
            c = r // 2 + 1
            if r % 2 == 0:
                parities.append(0)
                bases.append(boundary[0] if c == 1 else 0)
            else:
                parities.append(1)
                bases.append(boundary[c])
    elif family == "C":
        for r in range(m):
            c = r + 1
            if c % 2 == 1:
                parities.append(1)
                bases.append(boundary[(c - 1) // 2])
            else:
                parities.append(0)
                bases.append(0)
    else:  # D
        for r in range(m):
            c = r + 1
            if c % 2 == 1:
                parities.append(0)
                base = 0
                if c == 1:
                    base += boundary[0]
                if c == m:
                    base += boundary[n]
                bases.append(base)
            else:
                parities.append(1)
                bases.append(boundary[c // 2])
    return parities, bases


def colour_size_parity(family: str, colour: int) -> int | None:
    """Part-size parity admitted for a colour (None = both, family A)."""
    if family == "A":
        return None
    if family == "C":
        return colour % 2  # colour parity equals size parity
    return 1 - colour % 2  # D: opposite parity


@dataclass
class FrequencyArray:
    """The data f_i^{(c)} of a coloured partition, finitely supported."""

    family: str
    n: int
    freq: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        m = family_rows(self.family, self.n)
        ncolours = self.n if self.family == "A" else m
        for (c, i), f in self.freq.items():
            if f < 0:
                raise ValueError("negative frequency at %r" % ((c, i),))
            if not 1 <= c <= ncolours:
                raise ValueError("colour %d out of range" % c)
            if i < 1:
                raise ValueError("part sizes start at 1")
            want = colour_size_parity(self.family, c)
            if want is not None and i % 2 != want and f:
                raise ValueError(
                    "parity rule: colour %d cannot hold parts of size %d"
                    % (c, i))

    def weight(self) -> int:
        return sum(i * f for (_, i), f in self.freq.items())

    def length(self) -> int:
        return sum(self.freq.values())


def _freq_row(family: str, colour: int, size: int) -> int:
    """Row index (path order) holding f_size^{(colour)}."""
    if family == "A":
        return 2 * (colour - 1) + (size % 2)
    return colour - 1


def _max_path(vals: list[list[int]], parities: list[int], jmax: int) -> int:
    """Max path sum over the array; vals[r][j+1] is the entry at index j.

    Indices are scanned through jmax + 2; entries above the largest
    occupied column are zero, and any path excursion above can be
    reflected into that margin without changing its sum.
    """
    top = jmax + 2
    width = top + 2
    prev = [_NEG] * width
    v0 = vals[0]
    for j in range(-parities[0], top + 1, 2):
        prev[j + 1] = v0[j + 1]
    for r in range(1, len(parities)):
        cur = [_NEG] * width
        vr = vals[r]
        for j in range(-parities[r], top + 1, 2):
            best = _NEG
            if j >= 0:
                t = prev[j]
                if t > best:
                    best = t
            if j + 2 < width:
                t = prev[j + 2]
                if t > best:
                    best = t
            if best != _NEG:
                cur[j + 1] = best + vr[j + 1]
        prev = cur
    return max(prev)


def _build_vals(parities: list[int], bases: list[int],
                jtop: int) -> list[list[int]]:
    vals = []
    for parity, base in zip(parities, bases):
        row = [0] * (jtop + 4)
        row[0 if parity else 1] = base
        vals.append(row)
    return vals


def max_path_sum(array: FrequencyArray, boundary: tuple[int, ...]) -> int:
    """Maximum path sum of the frequency array with the given boundary."""
    parities, bases = _row_layout(array.family, array.n, tuple(boundary))
    jmax = max((i for (_, i) in array.freq), default=0)
    vals = _build_vals(parities, bases, jmax)
    for (c, i), f in array.freq.items():
        if f:
            vals[_freq_row(array.family, c, i)][i + 1] += f
    return _max_path(vals, parities, jmax)


def gen_fun(family: str, n: int, boundary: tuple[int, ...], N: int) -> QSeries:
    """Two-variable generating function sum z^{l} q^{|lambda|} over
    admissible coloured partitions with |lambda| <= N.

    Reference enumerator: assigns frequencies by decreasing part size and
    prunes with the max-path bound of the partially built array (entries
    not yet assigned are zero, so the bound only grows).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    boundary = tuple(boundary)
    parities, bases = _row_layout(family, n, boundary)
    level = sum(boundary)
    acc: dict[tuple[int, int], int] = {}
    if level == 0 or N == 0:
        # only the empty partition is admissible
        return QSeries({(0, 0, 0): 1}, N, 0, _clean=True)

    rows_by_parity = ([r for r, p in enumerate(parities) if p == 0],
                      [r for r, p in enumerate(parities) if p == 1])
    positions = [(i, r) for i in range(N, 0, -1)
                 for r in rows_by_parity[i % 2]]
    vals = _build_vals(parities, bases, N)
    npos = len(positions)

    def rec(p: int, budget: int, zlen: int, qwt: int, jmax: int):
        while p < npos and positions[p][0] > budget:
            p += 1
        if p == npos:
            kk = (zlen, qwt)
            acc[kk] = acc.get(kk, 0) + 1
            return
        i, r = positions[p]
        rec(p + 1, budget, zlen, qwt, jmax)
        row = vals[r]
        jm = jmax if jmax else i
        fmax = min(level, budget // i)
        for f in range(1, fmax + 1):
            row[i + 1] = f
            if _max_path(vals, parities, jm) > level:
                break
            rec(p + 1, budget - f * i, zlen + f, qwt + f * i, jm)
        row[i + 1] = 0

    rec(0, N, 0, 0, 0)
    return QSeries({(z, 0, d): c for (z, d), c in acc.items()}, N, 0,
                   _clean=True)


def gordon_series(k: int, a: int, N: int) -> QSeries:
    """Two-variable generating function of Gordon's partitions B_{k,a}:
    f_i + f_{i+1} <= k for all i >= 1 and f_1 <= a, by direct enumeration."""
    if not 0 <= a <= k:
        raise ValueError("need 0 <= a <= k")
    acc: dict[tuple[int, int], int] = {}

    def rec(size: int, budget: int, prev_f: int, zlen: int, qwt: int):
        if size > budget:
            kk = (zlen, qwt)
            acc[kk] = acc.get(kk, 0) + 1
            return
        cap = k - prev_f
        if size == 1:
            cap = min(cap, a)
        for f in range(0, min(cap, budget // size) + 1):
            rec(size + 1, budget - f * size, f, zlen + f, qwt + f * size)

    rec(1, N, 0, 0, 0)
    return QSeries({(z, 0, d): c for (z, d), c in acc.items()}, N, 0,
                   _clean=True)
