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

from functools import lru_cache

from .series import QSeries

_NEG = -(1 << 60)


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


class _ScanTable:
    """The column moves of ``_scan``'s part-size scan, for one row layout
    and level, explored lazily and shared by every boundary and order.

    A state summarises the array in the columns scanned so far (all part
    sizes <= j) by the best path segments there, each either -inf or a
    sum in 0..level (rows are numbered 0..m-1 in path order):

    * A[r1, r2]: from row r1 to row r2, both ends in column j;
    * S[r]: from row 0 (any column) to row r in column j;
    * E[r]: from row r in column j to the last row (any column).

    It is interned as ``bytes`` (the column parity, then the entries plus
    one, 0 for -inf; a tuple when level > 254) with an int id.  States are
    canonical: A[0, .], A[., m-1], S[m-1] and E[0] are stored as -inf, so
    states that differ only there are one state.  No later column reads
    them.  It joins an A segment to the new column through the rows just
    above its start and just below its end, which row 0 and row m-1 lack
    (S and E carry the paths that start or end there), and S[m-1] and E[0]
    are complete paths, checked against the level when their column was
    chosen.  The moves of a state are the admissible next columns, as the
    ids of the next states bucketed by the column's sum of entries.  They
    depend only on the state, so a table holds no result of any one
    boundary, and a larger cap only appends the buckets above the old one.
    """

    def __init__(self, parities: tuple[int, ...], level: int):
        m = len(parities)
        self.level = level
        # rows alternate in parity, so between two rows of one column lie
        # the rows of the other column, every second row
        rows = tuple(tuple(r for r, p in enumerate(parities) if p == par)
                     for par in (0, 1))
        pairs = tuple([(a, b) for i, a in enumerate(rs) for b in rs[i:]]
                      for rs in rows)
        self.pack = bytes if level < 255 else tuple
        self.ids: dict = {}
        self.states: list = []
        self.moves: list[list[list[int]]] = []  # per state: ids by sum
        # ``successors`` from a state of parity par works on one list w:
        # the state, then 0 (S[m] = E[m] = 0 let a path start in the new
        # column at row 0 and end there at the last row), -inf, and the
        # next state's cells A', S', E'; its plan holds indices into w
        self.plans = []
        for par in (0, 1):
            old, new = rows[par], rows[1 - par]
            cells = ([("A",) + p for p in pairs[par]] + [("S", r) for r in old]
                     + [("E", r) for r in old])
            news = ([("A'",) + p for p in pairs[1 - par]]
                    + [("S'", r) for r in new] + [("E'", r) for r in new])
            zero = 1 + len(cells)
            at = {key: i for i, key in enumerate(cells, 1)}
            at["S", m] = at["E", m] = zero
            at.update((key, zero + 2 + i) for i, key in enumerate(news))
            unread = {("S'", m - 1), ("E'", 0)}
            unread.update(("A'", a, b) for a, b in pairs[1 - par]
                          if a == 0 or b == m - 1)
            # rows are chosen bottom-up; row r1 sets A'[r1, r2] for the
            # new rows r2 >= r1 and E'[r1]
            choose = []
            for k, r1 in enumerate(reversed(new)):
                choose.append((
                    r1, at["S", r1 - 1 if r1 else m], at["E", r1 + 1],
                    [(at["A'", r1, r2], at["E", r2 + 1],
                      [(at["A", r1 + 1, s], at["A'", s + 1, r2])
                       for s in range(r1 + 1, r2, 2)])
                     for r2 in new[len(new) - k:]],
                    at["A'", r1, r1], at["E'", r1]))
            leaf = [(at["S'", r], [(at["S", s if s >= 0 else m],
                                    at["A'", s + 1, r])
                                   for s in range(r - 1, -2, -2)])
                    for r in new]
            out = [zero + 1 if key in unread else at[key] for key in news]
            self.plans.append((choose, leaf, out,
                               [0] + [_NEG] * (1 + len(news))))

    def intern(self, state) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            self.moves.append([])
        return sid

    def start(self, bases: list[int]) -> int:
        """The state after the boundary columns -1 and 0."""
        # the all -inf state of parity 0, whose cells are those that a
        # move from parity 1 writes
        state = self.pack([0] * (1 + len(self.plans[1][2])))
        for _ in range(2):
            moves: list[list[int]] = [[] for _ in range(self.level + 1)]
            self.successors(state, moves, 0, bases)
            [[sid]] = [ids for ids in moves if ids]
            state = self.states[sid]
        return sid

    def column_moves(self, sid: int, cap: int) -> list[list[int]]:
        """The moves of state ``sid`` by sum, through cap (maybe more)."""
        state, moves = self.states[sid], self.moves[sid]
        cap = min(cap, self.level * len(self.plans[state[0]][0]))
        if len(moves) <= cap:
            need = len(moves)
            moves.extend([] for _ in range(cap + 1 - need))
            self.successors(state, moves, need)
        return moves

    def successors(self, state, moves: list[list[int]], need: int,
                   fixed: list[int] | None = None) -> None:
        """Append every admissible next column with entry sum in
        need..len(moves) - 1 (or with the given entries) to moves[sum], as
        the id of its next state.

        Rows are chosen from the bottom up.  The paths that enter the new
        column first at row r are checked as soon as row r is chosen:
        S[r - 1] (0 at row 0) + E'[r] <= level, where E'[r] is the best
        path from row r of the new column to the last row.  Every entry of
        A', S' and E' is non-decreasing in each cell, so a row's loop ends
        at its first failing value, and a failure at a row's smallest value
        ends the loop of the row below as well.  A row's values start where
        the rows above it, at most level each, can still bring the sum to
        need.
        """
        choose, leaf, out, tail = self.plans[state[0]]
        w = [v - 1 if v else _NEG for v in state] + tail
        level, last, par, pack, ids = (self.level, len(choose), 1 - state[0],
                                       self.pack, self.ids)

        def pick(k: int, rem: int, total: int) -> bool:
            if k == last:
                for dst, terms in leaf:
                    w[dst] = max([w[x] + w[y] for x, y in terms])
                nxt = pack([par] + [
                    v + 1 if v >= 0 else 0 for v in [w[i] for i in out]])
                sid = ids.get(nxt)
                moves[total].append(self.intern(nxt) if sid is None else sid)
                return True
            r1, pre, e, rel, own, end = choose[k]
            # segments from row r1 to each new row below, less r1's entry
            e0 = w[e]
            segs = []
            for dst, e, terms in rel:
                b = max([w[x] + w[y] for x, y in terms])
                segs.append((dst, b))
                e0 = max(e0, b + w[e])
            pre = w[pre]
            hi = level - pre - e0 if pre >= 0 and e0 >= 0 else level
            if fixed is None:
                lo, hi = 0, min(hi, rem)
            else:
                lo = fixed[r1]
                if lo > hi:
                    return False
                hi = lo
            for v in range(max(lo, need - total - level * (last - 1 - k)),
                           hi + 1):
                w[own] = v
                w[end] = v + e0
                for dst, b in segs:
                    w[dst] = v + b
                if not pick(k + 1, rem - v, total + v):
                    if v == lo:
                        return False
                    break
            return hi >= lo

        pick(0, len(moves) - 1, 0)


@lru_cache(maxsize=64)  # a catalog pass fills 37 (a table keeps its states)
def _scan_table(parities: tuple[int, ...], level: int) -> _ScanTable:
    return _ScanTable(parities, level)


@lru_cache(maxsize=64)  # a catalog pass fills 10
def _slot_bits(rows: int, N: int) -> int:
    """The slot width of ``_scan``: the bit length of the number of
    ``rows``-coloured partitions of weight <= N.

    A slot holds the count of one key at one state: the number of
    distinct frequency arrays over the columns scanned so far, of one
    weight w <= N (and, keyed by length too, one length l), that reach
    the state (or, in the output, that are admissible).  A (length,
    weight) count is at most its weight's count, and giving the entry in
    row r and column j colour r maps the arrays of weight w one-to-one
    to ``rows``-coloured partitions of weight w, so no slot count, nor
    any sum of them that the scan forms, exceeds this number, and no
    slot carries into the next.
    """
    p = [1] + [0] * N  # p[w]: rows-coloured partitions of weight w
    for _ in range(rows):
        for part in range(1, N + 1):
            for w in range(part, N + 1):
                p[w] += p[w - part]
    return sum(p).bit_length()


def _scan(family: str, n: int, boundary: tuple[int, ...], N: int, W: int,
          dz: int) -> QSeries:
    """sum z^{dz l} q^w over the admissible coloured partitions of weight
    w <= N and length l: ``gen_fun`` with W = N + 1 and dz = 1, and
    ``gen_fun_z1`` with W = 1 and dz = 0.

    Scans the part sizes j = 1..N as columns of the frequency array (see
    ``_ScanTable``).  A state of the scan carries its counts as one int,
    a slot of B bits per key w W + dz l (Kronecker substitution, B from
    ``_slot_bits``): a column with entry sum s at part j shifts the slots
    up by s (j W + dz), and a mask cuts the weights above N.  Keyed by
    length too, keys cannot collide, as l <= w <= N < W.  Columns above
    a partition's weight budget are zero, and zero columns at j >= 1
    never fail the path bound (a path's visits to such a column fold back
    two columns onto entries >= 0), so a count leaves the scan as soon as
    no nonzero column fits its weight budget.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    boundary = tuple(boundary)
    parities, bases = _row_layout(family, n, boundary)
    level = sum(boundary)
    if level == 0 or N == 0:
        return QSeries({(0, 0, 0): 1}, N, 0, _clean=True)
    table = _scan_table(tuple(parities), level)
    B = _slot_bits(len(parities), N)
    full = (1 << B * W * (N + 1)) - 1
    cur = {table.start(bases): 1}
    out = 0
    for j in range(1, N + 2):
        nxt: dict[int, int] = {}
        room = (1 << B * W * (N - j + 1)) - 1  # the weights with room for j
        for sid, counts in cur.items():
            live = counts & room
            out += counts ^ live
            if not live:
                continue
            cap = (N - ((live & -live).bit_length() - 1) // (B * W)) // j
            moves = table.column_moves(sid, cap)
            for total in range(min(cap + 1, len(moves))):
                if not moves[total]:
                    continue
                moved = (live << B * total * (j * W + dz)) & full
                for nid in moves[total]:
                    nxt[nid] = nxt.get(nid, 0) + moved
        cur = nxt
    # cut out each weight's W slots first: shifting the small blocks is
    # cheaper than shifting out once per key
    slot, block = (1 << B) - 1, (1 << B * W) - 1
    return QSeries({(l, 0, w): c for w in range(N + 1)
                    if (ws := (out >> B * W * w) & block)
                    for l in range(W) if (c := (ws >> B * l) & slot)},
                   N, 0, _clean=True)


def gen_fun(family: str, n: int, boundary: tuple[int, ...], N: int) -> QSeries:
    """Two-variable generating function sum z^{l} q^{|lambda|} over
    admissible coloured partitions with |lambda| <= N (see ``_scan``)."""
    return _scan(family, n, boundary, N, N + 1, 1)


def gen_fun_z1(family: str, n: int, boundary: tuple[int, ...],
               N: int) -> QSeries:
    """``gen_fun(family, n, boundary, N).at_one("z")``: the admissible
    coloured partitions with |lambda| <= N counted by weight alone (see
    ``_scan``)."""
    return _scan(family, n, boundary, N, 1, 0)


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
