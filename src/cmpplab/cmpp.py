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

from array import array
from dataclasses import dataclass, field
from functools import lru_cache

from .series import QSeries

_NEG = -(1 << 60)
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1

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


class _ScanTable:
    """The column moves of ``gen_fun``'s part-size scan, for one row layout
    and level, explored lazily and shared by every boundary and order.

    A state summarises the array in the columns scanned so far (all part
    sizes <= j) by the best path segments there, each either -inf or a
    sum in 0..level:

    * A[r1, r2]: from row r1 to row r2, both ends in column j;
    * S[r]: from row 0 (any column) to row r in column j;
    * E[r]: from row r in column j to the last row (any column).

    It is interned as ``bytes`` (the column parity, then the entries plus
    one, 0 for -inf; a tuple when level > 254) with an int id.  The moves
    of a state are the admissible next columns, as (sum of entries, id of
    the next state) packed into one int, sorted; they depend only on the
    state, so a table holds no result of any one boundary.
    """

    def __init__(self, parities: tuple[int, ...], level: int):
        self.m = len(parities)
        self.level = level
        # rows alternate in parity, so between two rows of one column lie
        # the rows of the other column, every second row
        self.rows = tuple(tuple(r for r, p in enumerate(parities) if p == par)
                          for par in (0, 1))
        self.pairs = tuple([(a, b) for i, a in enumerate(rows)
                            for b in rows[i:]] for rows in self.rows)
        self.pack = bytes if level < 255 else tuple
        self.ids: dict = {}
        self.states: list = []
        self.caps: list[int] = []  # per state: the sum its moves reach
        self.moves: list[array | None] = []

    def intern(self, state) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            self.caps.append(-1)
            self.moves.append(None)
        return sid

    def start(self, bases: list[int]) -> int:
        """The state after the boundary columns -1 and 0."""
        state = self.pack([0] * (1 + len(self.pairs[0])
                                 + 2 * len(self.rows[0])))
        for _ in range(2):
            [(_, state)] = self.successors(state, 0, bases)
        return self.intern(state)

    def column_moves(self, sid: int, cap: int) -> array:
        """The moves of state ``sid`` with sum <= cap (maybe more)."""
        state = self.states[sid]
        cap = min(cap, self.level * len(self.rows[1 - state[0]]))
        if self.caps[sid] < cap:
            self.moves[sid] = array("Q", sorted(
                (total << _ID_BITS) | self.intern(nxt)
                for total, nxt in self.successors(state, cap)))
            self.caps[sid] = cap
        return self.moves[sid]

    def successors(self, state, cap: int, fixed: list[int] | None = None):
        """Every admissible next column with entry sum <= cap (or with
        the given entries) as (sum, next state).

        Rows are chosen from the bottom up.  The paths that enter the new
        column first at row r are checked as soon as row r is chosen:
        S[r - 1] (0 at row 0) + E'[r] <= level, where E'[r] is the best
        path from row r of the new column to the last row.  Every entry of
        A', S' and E' is non-decreasing in each cell, so a row's loop ends
        at its first failing value, and a failure at a row's smallest value
        ends the loop of the row below as well.
        """
        m, level, NEG = self.m, self.level, _NEG
        par = state[0]
        old, new = self.rows[par], self.rows[1 - par]
        npairs = len(self.pairs[par])
        vals = [v - 1 if v else NEG for v in state[1:]]
        A = [[NEG] * m for _ in range(m)]
        for (a, b), v in zip(self.pairs[par], vals):
            A[a][b] = v
        # S[m] = E[m] = 0, so S[-1] lets a path start in the new column at
        # row 0 and E[m] lets it end there at the last row
        S = [NEG] * (m + 1)
        E = [NEG] * (m + 1)
        S[m] = E[m] = 0
        for i, r in enumerate(old):
            S[r] = vals[npairs + i]
            E[r] = vals[npairs + len(old) + i]
        An = [[NEG] * m for _ in range(m)]
        En = [NEG] * m
        order = new[::-1]
        out = []

        def leaf(total: int) -> None:
            Sn = [max([S[s] + An[s + 1][r] for s in range(r - 1, -2, -2)])
                  for r in new]
            vals = [An[a][b] for a, b in self.pairs[1 - par]] + Sn + \
                [En[r] for r in new]
            out.append((total, self.pack([1 - par] + [
                v + 1 if v >= 0 else 0 for v in vals])))

        def choose(k: int, rem: int, total: int) -> bool:
            if k == len(order):
                leaf(total)
                return True
            r1 = order[k]
            # segments from row r1 to each new row below, less r1's entry
            rel = [(r1, 0)] + [
                (r2, max([A[r1 + 1][s] + An[s + 1][r2]
                          for s in range(r1 + 1, r2, 2)]))
                for r2 in reversed(order[:k])]
            e0 = max([b + E[s + 1] for s, b in rel])
            pre = S[r1 - 1]
            hi = level - pre - e0 if pre >= 0 and e0 >= 0 else level
            if fixed is None:
                lo, hi = 0, min(hi, rem)
            else:
                lo = fixed[r1]
                if lo > hi:
                    return False
                hi = lo
            row = An[r1]
            for v in range(lo, hi + 1):
                for r2, b in rel:
                    row[r2] = v + b if b >= 0 else NEG
                En[r1] = v + e0 if e0 >= 0 else NEG
                if not choose(k + 1, rem - v, total + v):
                    if v == lo:
                        return False
                    break
            return hi >= lo

        choose(0, cap, 0)
        return out


@lru_cache(maxsize=64)  # bounded: a table keeps every state it explored
def _scan_table(parities: tuple[int, ...], level: int) -> _ScanTable:
    return _ScanTable(parities, level)


def gen_fun(family: str, n: int, boundary: tuple[int, ...], N: int) -> QSeries:
    """Two-variable generating function sum z^{l} q^{|lambda|} over
    admissible coloured partitions with |lambda| <= N.

    Scans the part sizes j = 1..N as columns of the frequency array (see
    ``_ScanTable``): each state of the scan carries the counts of the
    (length, weight) pairs reaching it, and a column with entry sum s
    adds z^s q^{j s}.  Columns above a partition's weight budget are
    zero, and zero columns at j >= 1 never fail the path bound (a path's
    visits to such a column fold back two columns onto entries >= 0), so
    a pair leaves the scan as soon as no nonzero column fits its budget.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    boundary = tuple(boundary)
    parities, bases = _row_layout(family, n, boundary)
    level = sum(boundary)
    if level == 0 or N == 0:
        # only the empty partition is admissible
        return QSeries({(0, 0, 0): 1}, N, 0, _clean=True)

    table = _scan_table(tuple(parities), level)
    W = N + 1  # a (length z, weight w) pair is the key w * W + z
    cur = {table.start(bases): {0: 1}}
    out: dict[int, int] = {}
    for j in range(1, N + 2):
        nxt: dict[int, dict[int, int]] = {}
        done = (N - j + 1) * W  # keys from here have no room for part j
        for sid, keys in cur.items():
            live = []
            for key, cnt in keys.items():
                if key >= done:
                    out[key] = out.get(key, 0) + cnt
                else:
                    live.append((key, cnt))
            if not live:
                continue
            cap = (N - min(live)[0] // W) // j
            total = -1
            for mv in table.column_moves(sid, cap):
                if mv >> _ID_BITS != total:
                    total = mv >> _ID_BITS
                    if total > cap:
                        break
                    shift = total * (j * W + 1)
                    lim = (N - j * total + 1) * W
                    moved = [(key + shift, cnt) for key, cnt in live
                             if key < lim]
                d = nxt.get(mv & _ID_MASK)
                if d is None:
                    d = nxt[mv & _ID_MASK] = {}
                for key, cnt in moved:
                    d[key] = d.get(key, 0) + cnt
        cur = nxt
    return QSeries({(key % W, 0, key // W): c for key, c in out.items()},
                   N, 0, _clean=True)


def gen_fun_reference(family: str, n: int, boundary: tuple[int, ...],
                      N: int) -> QSeries:
    """``gen_fun`` by brute force: the independent oracle of the tests.

    Assigns frequencies by decreasing part size and prunes with the
    max-path bound of the partially built array (entries not yet assigned
    are zero, so the bound only grows).  It recurses once per array cell,
    about N * rows / 2 frames deep, so for A2 it reaches Python's default
    1000-frame limit near N = 500.
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
