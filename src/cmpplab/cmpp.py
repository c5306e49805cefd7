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

from collections.abc import Callable
from functools import lru_cache

from .series import QSeries

_NEG = float("-inf")


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
    rows hold odd indices >= -1 (boundary at i = -1).  Rows alternate in
    parity: row r has parity (r + f) mod 2, f = 1 in C and 0 otherwise.
    A parity-1 row r holds k_{(r+1)/2}, a parity-0 row 0, except that row
    0 holds k_0 in A and D and D's last row holds k_n too (D with n = 1:
    one row holding k_0 + k_1).
    """
    if len(boundary) != n + 1:
        raise ValueError("boundary must have n+1 = %d entries" % (n + 1))
    if any(k < 0 for k in boundary):
        raise ValueError("boundary entries must be >= 0")
    m = family_rows(family, n)
    parities = [(r + (family == "C")) % 2 for r in range(m)]
    bases = [boundary[(r + 1) // 2] if p else 0
             for r, p in enumerate(parities)]
    if family != "C":
        bases[0] += boundary[0]
    if family == "D":
        bases[-1] += boundary[n]
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

    It is interned as a tuple (the column parity, then the entries, -inf
    as ``_NEG``, the float -inf) with an int id.  States are canonical:
    A[0, .], A[., m-1], S[m-1] and E[0] are stored as -inf, so states that
    differ only there are one state.  No later column reads them.  It
    joins an A segment to the new column through the rows just above its
    start and just below its end, which row 0 and row m-1 lack (S and E
    carry the paths that start or end there), and S[m-1] and E[0] are
    complete paths, checked against the level when their column was
    chosen.  The moves of a state
    are the admissible next columns, as the ids of the next states
    bucketed by the column's sum of entries.  They depend only on the
    state, so a table holds no result of any one boundary, and a larger
    cap only appends the buckets above the old one.

    The moves of a state of parity par are explored by ``kernels[par]``,
    one Python function that ``_kernel`` compiles from ``plans[par]``.
    Its locals are the state's cells and the new column's cells A', S'
    and E'.  Its loops are one nested ``for`` per row of the new column,
    bottom-up, over the row's entry, with each segment sum inlined as a
    ``max`` of sums before the loop, and its innermost body interns the
    next state.
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
        self.ids: dict = {}
        self.states: list = []
        self.moves: list[list[list[int]]] = []  # per state: ids by sum
        self.free = (0,) * m, (level,) * m  # the entry bounds of any row
        # a plan names each value that a move from a state of parity par
        # reads or writes by an int: the state's cells 1.., then the next
        # state's cells A', S', E'; 0 is the constant 0 (S[m] = E[m] = 0
        # let a path start in the new column at row 0 and end there at the
        # last row) and -1 the constant -inf (the unread cells of the next
        # state).  It holds the next state's parity, per new row the reads
        # and writes of choosing it, the sums of the S' cells, and the next
        # state's cells in order.
        self.plans = []
        for par in (0, 1):
            old, new = rows[par], rows[1 - par]
            cells = ([("A",) + p for p in pairs[par]] + [("S", r) for r in old]
                     + [("E", r) for r in old])
            news = ([("A'",) + p for p in pairs[1 - par]]
                    + [("S'", r) for r in new] + [("E'", r) for r in new])
            at = {key: i for i, key in enumerate(cells + news, 1)}
            at["S", m] = at["E", m] = 0
            unread = {("S'", m - 1), ("E'", 0)}
            unread.update(("A'", a, b) for a, b in pairs[1 - par]
                          if a == 0 or b == m - 1)
            # rows are chosen bottom-up; row r1 sets A'[r1, r2] for the
            # new rows r2 >= r1 and E'[r1]
            choose = tuple(
                (r1, at["S", r1 - 1 if r1 else m], at["E", r1 + 1],
                 tuple((at["A'", r1, r2], at["E", r2 + 1],
                        tuple((at["A", r1 + 1, s], at["A'", s + 1, r2])
                              for s in range(r1 + 1, r2, 2)))
                       for r2 in new[len(new) - k:]),
                 at["A'", r1, r1], at["E'", r1])
                for k, r1 in enumerate(reversed(new)))
            leaf = tuple((at["S'", r], tuple((at["S", s if s >= 0 else m],
                                              at["A'", s + 1, r])
                                             for s in range(r - 1, -2, -2)))
                         for r in new)
            out = tuple(-1 if key in unread else at[key] for key in news)
            self.plans.append((1 - par, choose, leaf, out))
        self.kernels = [_kernel(plan) for plan in self.plans]

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
        state = (0,) + (_NEG,) * len(self.plans[1][3])
        for _ in range(2):
            moves: list[list[int]] = [[] for _ in range(self.level + 1)]
            self.successors(state, moves, 0, bases)
            [[sid]] = [ids for ids in moves if ids]
            state = self.states[sid]
        return sid

    def column_moves(self, sid: int, cap: int) -> None:
        """Explore ``moves[sid]``, the moves of state ``sid`` by sum,
        through cap (maybe more)."""
        state, moves = self.states[sid], self.moves[sid]
        cap = min(cap, self.level * len(self.plans[state[0]][1]))
        if len(moves) <= cap:
            need = len(moves)
            moves.extend([] for _ in range(cap + 1 - need))
            self.successors(state, moves, need)

    def successors(self, state, moves: list[list[int]], need: int,
                   fixed: list[int] | None = None) -> None:
        """Append every admissible next column with entry sum in
        need..len(moves) - 1 (or with the given entries) to moves[sum], as
        the id of its next state.

        Rows are chosen from the bottom up.  The paths that enter the new
        column first at row r are checked as soon as row r is chosen:
        S[r - 1] (0 at row 0) + E'[r] <= level, where E'[r] is the best
        path from row r of the new column to the last row.  So row r's
        entry is at most the level less S[r - 1] and less the best path
        on from below the entry, and a -inf path bounds nothing (level -
        (-inf) is +inf).  A row's values start where the rows above it, at
        most level each, can still bring the sum to need.  Row r's entries
        lie in lo[r]..hi[r]: 0..level, or the given entry.
        """
        lo, hi = self.free if fixed is None else (fixed, fixed)
        self.kernels[state[0]](state, moves, need, lo, hi, self.level,
                               self.intern)


_ROWS_PER_FUNCTION = 16  # CPython nests at most 20 blocks in a function


@lru_cache(maxsize=64)  # a catalog pass fills 26 (two per row layout)
def _kernel(plan: tuple) -> Callable[..., None]:
    """Compile a ``_ScanTable`` plan into the function that appends the
    moves of one state: ``kernel(state, moves, need, lo, hi, level,
    intern)`` (see ``_ScanTable.successors``).

    The cells the plan reads, the state's and the new column's, are the
    locals ``x<i>`` (a state's cell i is read as ``x<i> = state[<i>]``); a
    cell that equals another cell or 0 is not copied.  Each new row,
    bottom-up, is one ``for`` over its entry, from max(lo[r], need less
    the sum so far ``t<k>`` and what the rows above can add) to ``h<k>``,
    the least of hi[r], what is left of the sum and the level less the
    best paths through the row.  Before the loop, each segment from the
    row down to a lower new row, less the row's entry, is one inlined
    ``max(a + b, c + d)`` (``b<i>``), and ``e<k>`` is the best path from
    the row to the last row, less the row's entry.  The innermost body
    builds the next state as a tuple literal and interns it.  Every
    ``_ROWS_PER_FUNCTION`` rows the loops go on in a new function.  The
    source is built from the plan's ints alone.

    -inf is the float -inf, which a sum keeps, so every cell the kernel
    forms is an int in 0..level or -inf, as a state stores it, and a
    bound ``level - <path>`` with a -inf path is +inf, which the row's
    other bounds undercut.
    """
    par, choose, leaf, out = plan
    last = len(choose)
    leaf = [(dst, terms) for dst, terms in leaf if dst in out]
    reads = [{pre, e} | {i for _, e2, terms in rel
                         for i in (e2,) + sum(terms, ())}
             for _, pre, e, rel, _, _ in choose]
    reads.append({i for _, terms in leaf for t in terms for i in t} | set(out))
    writes = [{own, end} | {dst for dst, _, _ in rel}
              for _, _, _, rel, own, end in choose]
    writes.append({dst for dst, _ in leaf})
    needed = set().union(*reads)
    name = {0: "0", -1: "_NEG"}
    lines: list[str] = []

    def x(i: int) -> str:
        return name.get(i, "x%d" % i)

    def plus(*terms: str) -> str:
        return " + ".join(s for s in terms if s != "0") or "0"

    def best(terms) -> str:
        sums = [plus(*map(x, t)) if isinstance(t, tuple) else t
                for t in terms]
        return sums[0] if len(sums) == 1 else "max(%s)" % ", ".join(sums)

    def args(k: int) -> str:
        """The arguments of the function that goes on at row k."""
        ins = set().union(*reads[k:]) - set().union(*writes[k:]) - {0, -1}
        return ", ".join(["moves, need, lo, hi, level, intern, top",
                          "t%d" % k] + sorted({x(i) for i in ins}))

    def let(pad: str, var: str, value: str) -> str:
        """Emit var = value, unless value is a name or 0; what to read."""
        if value.isidentifier() or value == "0":
            return value
        lines.append("%s%s = %s" % (pad, var, value))
        return var

    def rows(k: int, pad: str, first: int, t: str) -> None:
        """Emit rows k.. at indent pad, with the sum so far in t."""
        if k == last:
            for dst, terms in leaf:
                name[dst] = let(pad, "x%d" % dst, best(terms))
            lines.append("%smoves[%s].append(intern((%s,)))" % (
                pad, t, ", ".join([str(par)] + [x(i) for i in out])))
            return
        if k > first and k % _ROWS_PER_FUNCTION == 0:
            lines.append("%s_k%d(%s)" % (pad, k, args(k)))
            return
        r1, pre, e, rel, own, end = choose[k]
        v = name[own] = "x%d" % own
        segs = [(dst, e2, let(pad, "b%d" % dst, best(terms)))
                for dst, e2, terms in rel]
        tail = let(pad, "e%d" % k,
                   best([x(e)] + [plus(b, x(e2)) for _, e2, b in segs]))
        bound = " - ".join(["level"] + [s for s in (x(pre), tail) if s != "0"])
        start = ["need"] + [t] * (k > 0) + [
            "level * %d" % (last - 1 - k)] * (k < last - 1)
        lines.extend([
            "%sh%d = min(%s, hi[%d], %s)" % (pad, k, bound, r1,
                                             "top - " + t if k else "top"),
            "%sfor %s in range(max(lo[%d], %s), h%d + 1):"
            % (pad, v, r1, " - ".join(start), k)])
        pad += "    "
        if end in needed:
            name[end] = let(pad, "x%d" % end, plus(v, tail))
        for dst, _, b in segs:
            if dst in needed:
                name[dst] = let(pad, "x%d" % dst, plus(v, b))
        total = plus(t, v)
        if k + 1 < last:
            total = let(pad, "t%d" % (k + 1), total)
        rows(k + 1, pad, first, total)

    lines.append("def _k0(state, moves, need, lo, hi, level, intern):")
    lines.append("    top = len(moves) - 1")
    lines.extend("    x%d = state[%d]" % (i, i)
                 for i in sorted(needed - set().union(*writes) - {0, -1}))
    rows(0, "    ", 0, "0")
    for first in range(_ROWS_PER_FUNCTION, last, _ROWS_PER_FUNCTION):
        lines.append("def _k%d(%s):" % (first, args(first)))
        rows(first, "    ", first, "t%d" % first)
    namespace: dict = {"_NEG": _NEG}
    exec(compile("\n".join(lines), "<scan kernel>", "exec"), namespace)
    return namespace["_k0"]


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


def _length_bound(parities: tuple[int, ...], level: int, N: int) -> int:
    """L: no admissible partition of weight <= N has more than L parts.

    Rows alternate in parity, so for every c >= 0 the path through index
    2c of each parity-0 row and index 2c + 1 of each parity-1 row sums to
    at most the level; index 0 is a boundary column, with entries >= 0.
    So each band {2c, 2c + 1} holds at most ``level`` parts, counting
    only the sizes the layout has (even sizes >= 2 on parity-0 rows, odd
    sizes on parity-1 rows).  The most parts of weight <= N under that
    bound take ``level`` parts at each band's least size, bands in
    increasing order, until the weight runs out.  It is one short
    pass over N // 2 + 1 bands, so it goes uncached.
    """
    length, left = 0, N
    for c in range(N // 2 + 1):
        size = 2 * c if c and 0 in parities else 2 * c + 1  # band c's least
        if size % 2 in parities:
            parts = min(level, left // size)
            length += parts
            left -= parts * size
    return length


def _scan(family: str, n: int, boundary: tuple[int, ...], N: int,
          dz: int) -> QSeries:
    """sum z^{dz l} q^w over the admissible coloured partitions of weight
    w <= N and length l: ``gen_fun`` with dz = 1, and ``gen_fun_z1`` with
    dz = 0.

    Scans the part sizes j = 1..N as columns of the frequency array (see
    ``_ScanTable``).  A state of the scan carries its counts as one int,
    a slot of B bits per key w W + dz l (Kronecker substitution, B from
    ``_slot_bits``): a column with entry sum s at part j shifts the slots
    up by s (j W + dz), and a mask cuts the weights above N.  Columns
    above a partition's weight budget are zero, and zero columns at
    j >= 1 never fail the path bound (a path's visits to such a column
    fold back two columns onto entries >= 0), so a count leaves the scan
    as soon as no nonzero column fits its weight budget.  So every count
    the scan forms is of a prefix that zero columns extend to an
    admissible partition of the same weight and length.  Keyed by length
    too, W = L + 1 with L from ``_length_bound``, and keys cannot
    collide, as l <= L < W; keyed by weight alone, W = 1.
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
    W = _length_bound(tuple(parities), level, N) + 1 if dz else 1
    full = (1 << B * W * (N + 1)) - 1
    cur = {table.start(bases): 1}
    out = 0
    for j in range(1, N + 2):
        nxt: dict[int, int] = {}
        width = B * W * (N - j + 1)  # the slots of weights with room for j
        room = (1 << width) - 1
        step = B * (j * W + dz)  # the shift of one part j
        for sid, counts in cur.items():
            live = counts
            if counts.bit_length() > width:
                live = counts & room
                out += counts ^ live
                if not live:
                    continue
            cap = (N - ((live & -live).bit_length() - 1) // (B * W)) // j
            moves = table.moves[sid]
            if len(moves) <= cap:  # not yet explored through cap
                table.column_moves(sid, cap)
            for total, ids in enumerate(moves[:cap + 1]):
                if ids:
                    moved = (live << step * total) & full if total else live
                    for nid in ids:
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
    admissible coloured partitions with |lambda| <= N.  The scan keys a
    partition by w (L + 1) + l, where L from ``_length_bound`` bounds the
    length, so keys cannot collide, as l <= L (see ``_scan``)."""
    return _scan(family, n, boundary, N, 1)


def gen_fun_z1(family: str, n: int, boundary: tuple[int, ...],
               N: int) -> QSeries:
    """``gen_fun(family, n, boundary, N).at_one("z")``: the admissible
    coloured partitions with |lambda| <= N counted by weight alone (see
    ``_scan``)."""
    return _scan(family, n, boundary, N, 0)


def gordon_series(k: int, a: int, N: int) -> QSeries:
    """Two-variable generating function of Gordon's partitions B_{k,a}:
    f_i + f_{i+1} <= k for all i >= 1 and f_1 <= a, summed one part size
    at a time.  The state is the previous frequency f (a virtual f_0 = k -
    a makes f_1 <= a), mapped to the count of each (length, weight); a
    count leaves once the next size no longer fits its weight."""
    if not 0 <= a <= k:
        raise ValueError("need 0 <= a <= k")
    if N < 0:
        raise ValueError("N must be >= 0")
    acc: dict[tuple[int, int], int] = {}
    cur = {k - a: {(0, 0): 1}}
    for size in range(1, N + 2):
        nxt: dict[int, dict[tuple[int, int], int]] = {}
        for prev, counts in cur.items():
            for (zlen, qwt), c in counts.items():
                if qwt + size > N:
                    acc[zlen, qwt] = acc.get((zlen, qwt), 0) + c
                    continue
                for f in range(min(k - prev, (N - qwt) // size) + 1):
                    to = nxt.setdefault(f, {})
                    key = (zlen + f, qwt + f * size)
                    to[key] = to.get(key, 0) + c
        cur = nxt
    return QSeries({(z, 0, d): c for (z, d), c in acc.items()}, N, 0,
                   _clean=True)
