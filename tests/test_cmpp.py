import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from cmpplab import cmpp
from cmpplab.cmpp import (_NEG, _row_layout, _ScanTable, family_rows,
                          gen_fun, gen_fun_z1, gordon_series)
from oracles import (FrequencyArray, gen_fun_reference,
                     gordon_series_by_enumeration, max_path_sum, outcome,
                     row_layout_by_family, successors_by_plan)


def test_family_rows():
    assert family_rows("A", 2) == 4
    assert family_rows("C", 0) == 1
    assert family_rows("D", 1) == 1
    with pytest.raises(ValueError):
        family_rows("A", 0)
    with pytest.raises(ValueError):
        family_rows("D", 0)


def test_row_layout_matches_the_layout_by_family():
    # the one alternating-parity rule against the layout stated family by
    # family: every boundary with entries in 0..2 of A and D with n 1..7
    # and of C with n 0..7, and the error texts of bad input
    cases = [(fam, n, w) for fam, ns in (("A", range(1, 8)), ("C", range(8)),
                                         ("D", range(1, 8)))
             for n in ns for w in product(range(3), repeat=n + 1)]
    assert len(cases) == 29514
    for case in cases:
        assert _row_layout(*case) == row_layout_by_family(*case), case
    for case, text in (
            (("B", 1, (1, 1)), "unknown family 'B'"),
            (("A", 0, (1,)), "family A requires n >= 1"),
            (("C", -1, ()), "family C requires n >= 0"),
            (("D", 0, (1,)), "family D requires n >= 1"),
            (("C", 2, (1, 1)), "boundary must have n+1 = 3 entries"),
            (("D", 2, (1, -1, 0)), "boundary entries must be >= 0")):
        assert outcome(_row_layout, *case) == text \
            == outcome(row_layout_by_family, *case), case


def test_max_path_boundary_zigzag():
    # the boundary-only path collects every k_i
    arr = FrequencyArray("A", 2, {})
    assert max_path_sum(arr, (1, 2, 3)) == 6
    arr = FrequencyArray("C", 2, {})
    assert max_path_sum(arr, (2, 0, 1)) == 3
    arr = FrequencyArray("D", 2, {})
    assert max_path_sum(arr, (1, 1, 1)) == 3


def test_max_path_colour_asymmetry():
    # one part of size 1: colour 1 can be combined with the k_n boundary,
    # colour n cannot
    arr1 = FrequencyArray("A", 2, {(1, 1): 1})
    assert max_path_sum(arr1, (0, 0, 2)) == 3
    arr2 = FrequencyArray("A", 2, {(2, 1): 1})
    assert max_path_sum(arr2, (0, 0, 2)) == 2


def test_parity_validation():
    with pytest.raises(ValueError):
        FrequencyArray("C", 1, {(1, 2): 1})  # odd colour, even size
    with pytest.raises(ValueError):
        FrequencyArray("D", 2, {(1, 1): 1})  # odd colour needs even size
    FrequencyArray("C", 1, {(1, 1): 1, (2, 2): 2})
    FrequencyArray("D", 2, {(1, 2): 1, (2, 1): 2})


def test_gen_fun_rogers_ramanujan():
    g = gen_fun("A", 1, (0, 1), 6).at_one()
    assert g.q_coeffs(6) == [1, 1, 1, 1, 2, 2, 3]
    g = gen_fun("A", 1, (1, 0), 6).at_one()
    assert g.q_coeffs(6) == [1, 0, 1, 1, 1, 1, 2]


def test_gen_fun_zero_boundary():
    for fam, n in (("A", 2), ("C", 1), ("D", 2)):
        g = gen_fun(fam, n, (0,) * (n + 1), 8)
        assert g.terms == {(0, 0, 0): 1}


def test_gen_fun_d_even_parts():
    g = gen_fun("D", 1, (1, 0), 6).at_one()
    assert g.q_coeffs(6) == [1, 0, 1, 0, 1, 0, 2]


def test_gen_fun_matches_gordon():
    # two-variable identity for every boundary with k0 + k1 <= 3
    for k0 in range(4):
        for k1 in range(4 - k0):
            a = gen_fun("A", 1, (k0, k1), 30)
            b = gordon_series(k0 + k1, k1, 30)
            assert a.compare(b, 30) is None


def test_gordon_series_matches_the_enumeration():
    # the sum one part size at a time against the partitions one by one,
    # windows and error texts included
    cases = [(k, a, N) for k in range(5) for a in range(k + 1)
             for N in range(21)]
    cases += [(2, 3, 5), (1, -1, 5), (2, 1, -1), (3, 4, -1)]
    for case in cases:
        assert outcome(gordon_series, *case) == \
            outcome(gordon_series_by_enumeration, *case), case
    assert outcome(gordon_series, 3, 4, -1) == "need 0 <= a <= k"


def test_d_n1_depends_on_sum_only():
    a = gen_fun("D", 1, (2, 1), 14)
    b = gen_fun("D", 1, (0, 3), 14)
    c = gen_fun("D", 1, (3, 0), 14)
    assert a.compare(b, 14) is None and b.compare(c, 14) is None


def test_automorphism_reversal():
    for fam, n in (("C", 2), ("D", 2), ("C", 3), ("D", 3)):
        for w in [(1, 0, 1), (2, 1, 0), (0, 1, 2)]:
            w = w + (0,) * (n + 1 - len(w))
            a = gen_fun(fam, n, w, 10)
            b = gen_fun(fam, n, tuple(reversed(w)), 10)
            assert a.compare(b, 10) is None


def test_monotone_in_boundary():
    base = gen_fun("A", 2, (1, 0, 1), 10)
    for bump in ((2, 0, 1), (1, 1, 1), (1, 0, 2)):
        bigger = gen_fun("A", 2, bump, 10)
        for key, c in base.terms.items():
            assert bigger.terms.get(key, 0) >= c


def test_z_grading_invariants():
    for fam, n, w in (("A", 2, (1, 0, 1)), ("C", 1, (1, 1)),
                      ("D", 2, (0, 2, 0))):
        g = gen_fun(fam, n, w, 12)
        assert g.coeff(0, 0, 0) == 1
        for (dz, dw, dq) in g.terms:
            assert dw == 0
            assert dz <= dq
            assert (dz >= 1) == (dq >= 1)


def test_truncation_stability():
    a = gen_fun("C", 2, (1, 0, 1), 15)
    b = gen_fun("C", 2, (1, 0, 1), 9)
    assert a.compare(b, 9) is None


def test_shape_errors():
    with pytest.raises(ValueError):
        gen_fun("A", 1, (1, 0, 1), 5)
    with pytest.raises(ValueError):
        gen_fun("D", 1, (-1, 1), 5)
    with pytest.raises(ValueError):
        max_path_sum(FrequencyArray("A", 2, {}), (1, 1))


def test_brute_force_oracle_small():
    # independent check of the enumerator on tiny instances: enumerate all
    # frequency assignments with weight <= N directly
    fam, n, boundary, N = "A", 2, (0, 1, 1), 7
    level = sum(boundary)
    sizes = range(1, N + 1)
    colours = range(1, n + 1)
    cells = [(c, i) for i in sizes for c in colours]
    counts = {}

    def rec(idx, budget, freq):
        if idx == len(cells):
            arr = FrequencyArray(fam, n, dict(freq))
            if max_path_sum(arr, boundary) <= level:
                key = (arr.length(), arr.weight())
                counts[key] = counts.get(key, 0) + 1
            return
        c, i = cells[idx]
        f = 0
        while f * i <= budget:
            if f:
                freq[(c, i)] = f
            rec(idx + 1, budget - f * i, freq)
            freq.pop((c, i), None)
            f += 1

    rec(0, N, {})
    for build in (gen_fun, gen_fun_reference):
        g = build(fam, n, boundary, N)
        assert {(z, d): c for (z, _, d), c in g.terms.items()} == counts


def _length_bound(fam: str, n: int, w: tuple[int, ...], N: int) -> int:
    parities, _ = _row_layout(fam, n, w)
    return cmpp._length_bound(tuple(parities), sum(w), N)


def _longest(s) -> int:
    return max(z for z, _, _ in s.terms)


def test_scan_matches_reference():
    # the column scan against the brute force: A with n <= 3, C with
    # n <= 3, D with n <= 4, every boundary of level <= 3 (<= 2 from n = 3);
    # no admissible partition is longer than the length bound L, so
    # gen_fun's keys w (L + 1) + l never collide
    cases = 0
    for fam, ns in (("A", (1, 2, 3)), ("C", (0, 1, 2, 3)),
                    ("D", (1, 2, 3, 4))):
        for n in ns:
            top = 3 if n < 3 else 2
            for w in product(range(top + 1), repeat=n + 1):
                if sum(w) > top:
                    continue
                for N in (0, 1, 5, 10):
                    a = gen_fun(fam, n, w, N)
                    b = gen_fun_reference(fam, n, w, N)
                    assert (a.terms, a.q_order, a.q_floor) == \
                        (b.terms, b.q_order, b.q_floor), (fam, n, w, N)
                    assert _longest(b) <= _length_bound(fam, n, w, N) <= N, \
                        (fam, n, w, N)
                    cases += 1
    assert cases == 640
    # levels of 255 and 300, far above every other level here; at them, N
    # parts of size 1 fit the bound
    for fam, n, w, N in (("A", 1, (300, 2), 8), ("C", 1, (255, 0), 6),
                         ("A", 2, (0, 300, 1), 5)):
        a, b = gen_fun(fam, n, w, N), gen_fun_reference(fam, n, w, N)
        assert a.terms == b.terms, (fam, n, w, N)
        assert _length_bound(fam, n, w, N) == N


def test_scan_matches_reference_at_level_4():
    # every level-4 boundary of C2 and D3, where merging the cells no move
    # reads folds the most states; reversing a boundary mirrors the rows
    # (see test_automorphism_reversal), so one reference serves a pair
    refs = {}
    for fam, n in (("C", 2), ("D", 3)):
        for w in product(range(5), repeat=n + 1):
            if sum(w) != 4:
                continue
            key = (fam, n, min(w, w[::-1]))
            if key not in refs:
                refs[key] = gen_fun_reference(fam, n, key[2], 14)
            a, b = gen_fun(fam, n, w, 14), refs[key]
            assert (a.terms, a.q_order, a.q_floor) == \
                (b.terms, b.q_order, b.q_floor), (fam, n, w)
    assert len(refs) == 9 + 19


def _window(s):
    return s.terms, s.q_order, s.q_floor


def test_weight_scan_matches_the_bivariate_scan_and_reference():
    # gen_fun_z1 is gen_fun at z = 1, and the brute force at z = 1: every
    # family at small n, every boundary of level <= 3, N = 0..12
    cases = 0
    for fam, ns in (("A", (1, 2)), ("C", (0, 1, 2)), ("D", (1, 2, 3))):
        for n in ns:
            for w in product(range(4), repeat=n + 1):
                if sum(w) > 3:
                    continue
                for N in range(13):
                    got = _window(gen_fun_z1(fam, n, w, N))
                    assert got == _window(gen_fun(fam, n, w, N).at_one("z")) \
                        == _window(gen_fun_reference(fam, n, w, N)
                                   .at_one("z")), (fam, n, w, N)
                    cases += 1
    assert cases == 13 * (10 + 20 + 4 + 10 + 20 + 10 + 20 + 35)
    # counts up to 1.3 * 10^8 (at N = 60) and levels of 255 and 300; both
    # sides run through _scan, so these rows check the two keyings against
    # each other only (the criterion-3 grid checks z = 1 at large N against
    # the products, an independent route)
    for fam, n, w, N in (("A", 3, (1, 0, 1, 1), 40), ("C", 2, (2, 1, 1), 60),
                         ("D", 4, (1, 0, 1, 0, 1), 40), ("A", 1, (300, 2), 8),
                         ("C", 1, (255, 0), 6)):
        assert _window(gen_fun_z1(fam, n, w, N)) == \
            _window(gen_fun(fam, n, w, N).at_one("z")), (fam, n, w, N)


def test_slot_width_bounds_every_count():
    # 19 partitions of weight <= 5 need 5 bits; 2 colours: 1 + 2 + 5 = 8
    # of weight <= 2, 4 bits
    assert cmpp._slot_bits(1, 5) == 5
    assert cmpp._slot_bits(2, 2) == 4
    for fam, n, w, N in (("C", 2, (2, 1, 1), 30), ("A", 2, (1, 1, 1), 30)):
        bound = 1 << cmpp._slot_bits(family_rows(fam, n), N)
        for build in (gen_fun, gen_fun_z1):
            assert max(build(fam, n, w, N).terms.values()) < bound
    # level 0 and N = 0 admit only the empty partition, with no scan
    for fam, n, w, N in (("C", 2, (0, 0, 0), 9), ("A", 1, (2, 1), 0)):
        for build in (gen_fun, gen_fun_z1):
            assert _window(build(fam, n, w, N)) == ({(0, 0, 0): 1}, N, 0)


def test_too_narrow_slots_are_caught(monkeypatch):
    # a mutant whose slots are far too narrow carries one key's count into
    # the next; both keyings run through _scan, so each is compared with
    # the brute force, whose largest counts here are 258 and 527
    ref = ("C", 2, (1, 1, 1), 12)
    right = gen_fun_reference(*ref)
    right_z1 = right.at_one("z")
    assert max(right.terms.values()) == 258
    assert max(right_z1.terms.values()) == 527
    assert gen_fun(*ref) == right and gen_fun_z1(*ref) == right_z1
    monkeypatch.setattr(cmpp, "_slot_bits", lambda rows, N: 3)
    assert gen_fun(*ref) != right
    assert gen_fun_z1(*ref) != right_z1


def test_length_bound_is_reached(monkeypatch):
    # a single row holds at most `level` parts of each of its sizes, so
    # the longest partition of C0 and D1 has L parts, and A1's does at
    # these two refs; one length slot fewer makes keys collide
    refs = [("A", 1, (0, 1), 10), ("A", 1, (0, 2), 9)]
    refs += [(fam, n, w, N) for fam, n in (("C", 0), ("D", 1))
             for w in product(range(3), repeat=n + 1) if 1 <= sum(w) <= 2
             for N in range(1, 13)]
    assert len(refs) == 2 + 2 * 12 + 5 * 12
    right = {ref: gen_fun_reference(*ref) for ref in refs}
    for ref in refs:
        assert _longest(right[ref]) == _length_bound(*ref), ref
        assert gen_fun(*ref) == right[ref], ref
    bound = cmpp._length_bound
    monkeypatch.setattr(cmpp, "_length_bound", lambda *key: bound(*key) - 1)
    for ref in refs:
        assert gen_fun(*ref) != right[ref], ref


def _all_moves(table: _ScanTable, state) -> list[list[int]]:
    moves: list[list[int]] = [[] for _ in range(table.level * len(state))]
    table.successors(state, moves, 0)
    return moves


def _explored_table(fam: str, n: int, level: int) -> _ScanTable:
    """A fresh table with every state that a scan of any boundary of the
    level reaches, each explored through every column sum."""
    m = family_rows(fam, n)
    table = _ScanTable(tuple(_row_layout(fam, n, (level,) + (0,) * n)[0]),
                       level)
    for w in product(range(level + 1), repeat=n + 1):
        if sum(w) == level:
            table.start(_row_layout(fam, n, w)[1])
    sid = 0
    while sid < len(table.states):
        table.column_moves(sid, level * m)
        sid += 1
    return table


def _explored_tables():
    """(fam, n, level, table) for the fully explored table of A and C with
    n <= 3 and D with n <= 4, at levels 1-4."""
    for fam, ns in (("A", (1, 2, 3)), ("C", (0, 1, 2, 3)),
                    ("D", (1, 2, 3, 4))):
        for n in ns:
            for level in range(1, 5):
                yield fam, n, level, _explored_table(fam, n, level)


# boundary entries of 255 and 300, far above every other level here
HIGH_LEVEL_REFS = (("A", 1, (300, 2), 8), ("C", 1, (255, 0), 6),
                   ("A", 2, (0, 300, 1), 5))


def _high_level_table(fam: str, n: int, w: tuple[int, ...],
                      N: int) -> _ScanTable:
    """The shared table of a high-level ref, as its scan leaves it."""
    gen_fun(fam, n, w, N)
    return cmpp._scan_table(tuple(_row_layout(fam, n, w)[0]), sum(w))


def _kernel_and_plan_moves(table: _ScanTable, state, top: int, need: int,
                           fixed=None) -> tuple[list, list]:
    """The next states by sum through top, from the table's compiled
    kernel and from the plan interpreter of the oracles."""
    got: list[list[int]] = [[] for _ in range(top + 1)]
    table.successors(state, got, need, fixed)
    want: list[list] = [[] for _ in range(top + 1)]
    successors_by_plan(table, state, want, need, fixed)
    return [[table.states[sid] for sid in ids] for ids in got], want


def test_kernel_moves_match_the_plan_interpreter():
    # every state of fully explored tables, A and C with n <= 3 and D with
    # n <= 4 at levels 1-4: all moves, the moves from a sum need > 0 on
    # (as column_moves asks for when its cap grows), and both boundary
    # columns of every boundary, whose entries are fixed
    states = 0
    for fam, n, level, table in _explored_tables():
        for state in list(table.states):
            top = level * len(table.plans[state[0]][1])
            for need in (0, (top + 1) // 2):
                got, want = _kernel_and_plan_moves(table, state, top, need)
                assert got == want, (fam, n, level, state, need)
            states += 1
        for w in product(range(level + 1), repeat=n + 1):
            if sum(w) != level:
                continue
            bases = _row_layout(fam, n, w)[1]
            state = (0,) + (_NEG,) * len(table.plans[1][3])
            for _ in range(2):
                got, want = _kernel_and_plan_moves(table, state, level, 0,
                                                   bases)
                assert got == want, (fam, n, w)
                [[state]] = [s for s in got if s]
    assert states == 10415
    # levels of 255 and 300: the tables as the scans leave them; a
    # boundary entry of 255 or 300 keeps the level bound of every row
    # tight at small sums
    for fam, n, w, N in HIGH_LEVEL_REFS:
        table = _high_level_table(fam, n, w, N)
        for state in list(table.states):
            for need in (0, 5):
                got, want = _kernel_and_plan_moves(table, state, 40, need)
                assert got == want, (fam, n, w, state, need)


def test_scan_states_are_canonical():
    # every state of the fully explored tables and of the high-level
    # tables is (parity, *cells) with as many cells as a move into its
    # parity writes, each an int in 0..level or -inf (_NEG itself, so that
    # equal states intern once), and each is interned once
    tables = [((fam, n, level), table)
              for fam, n, level, table in _explored_tables()]
    assert sum(len(table.states) for _, table in tables) == 10415
    tables += [(ref, _high_level_table(*ref)) for ref in HIGH_LEVEL_REFS]
    for key, table in tables:
        assert len(table.ids) == len(table.states), key
        for sid, state in enumerate(table.states):
            parity, *cells = state
            assert parity in (0, 1), (key, state)
            assert len(cells) == len(table.plans[1 - parity][3]), (key, state)
            for v in cells:
                assert v == _NEG or type(v) is int and 0 <= v <= table.level, \
                    (key, state)
            assert table.ids[state] == sid, (key, state)


def test_a_layout_deeper_than_the_block_limit_builds():
    # C20 has 21 rows of one parity, more nested loops than CPython allows
    # in one function, so its kernel goes on in a second function
    parities = tuple(_row_layout("C", 20, (1,) + (0,) * 20)[0])
    assert max(map(parities.count, (0, 1))) == 21
    g = gen_fun("C", 20, (1,) + (0,) * 20, 5)
    assert g == gen_fun_reference("C", 20, (1,) + (0,) * 20, 5)
    table = cmpp._scan_table(parities, 1)
    for sid, state in enumerate(list(table.states)):
        top = len(table.moves[sid]) - 1
        got, want = _kernel_and_plan_moves(table, state, top, 0)
        assert got == want, state


def test_importing_compiles_no_kernel():
    # kernels compile with the first table that needs them, so importing
    # the package (what every CLI call pays first) compiles none
    code = ("import cmpplab, cmpplab.cli; from cmpplab import cmpp; "
            "print(cmpp._kernel.cache_info().currsize, "
            "cmpp._scan_table.cache_info().currsize)")
    src = str(Path(cmpp.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == ["0", "0"]
    gen_fun("C", 1, (1, 1), 3)
    assert cmpp._kernel.cache_info().currsize >= 2


def test_unread_scan_cells_do_not_change_moves():
    # the cells A[0, .], A[., m-1], S[m-1] and E[0] of every state of a
    # fully explored table are stored as -inf; any other value there gives
    # the same moves, while clearing a cell that is read, S[m-2], does not
    rng = random.Random(20261018)
    for fam, n, level in (("C", 2, 4), ("D", 3, 4), ("A", 2, 3),
                          ("C", 1, 4), ("D", 2, 3)):
        m = family_rows(fam, n)
        parities = _row_layout(fam, n, (level,) + (0,) * n)[0]
        table = _explored_table(fam, n, level)
        changed = 0
        for state in list(table.states):
            old = [r for r, p in enumerate(parities) if p == state[0]]
            cells = ([("A", a, b) for i, a in enumerate(old) for b in old[i:]]
                     + [("S", r) for r in old] + [("E", r) for r in old])
            unread = [1 + i for i, cell in enumerate(cells)
                      if cell[0] == "A" and (cell[1] == 0 or cell[2] == m - 1)
                      or cell in (("S", m - 1), ("E", 0))]
            moves = _all_moves(table, state)
            for i in unread:
                assert state[i] == _NEG, (fam, n, state)
            for _ in range(2):
                other = list(state)
                for i in unread:
                    other[i] = rng.randint(0, level)
                assert _all_moves(table, tuple(other)) == moves, \
                    (fam, n, state, other)
            if ("S", m - 2) in cells:
                other = list(state)
                other[1 + cells.index(("S", m - 2))] = _NEG
                changed += _all_moves(table, tuple(other)) != moves
        assert changed, (fam, n)
