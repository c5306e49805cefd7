import random
from itertools import product

import pytest

from cmpplab import cmpp
from cmpplab.cmpp import (_row_layout, _ScanTable, family_rows, gen_fun,
                          gen_fun_z1, gordon_series)
from oracles import FrequencyArray, gen_fun_reference, max_path_sum


def test_family_rows():
    assert family_rows("A", 2) == 4
    assert family_rows("C", 0) == 1
    assert family_rows("D", 1) == 1
    with pytest.raises(ValueError):
        family_rows("A", 0)
    with pytest.raises(ValueError):
        family_rows("D", 0)


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


def test_scan_matches_reference():
    # the column scan against the brute force: A with n <= 3, C with
    # n <= 3, D with n <= 4, every boundary of level <= 3 (<= 2 from n = 3)
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
                    cases += 1
    assert cases == 640
    # levels above 254 keep their states as tuples instead of bytes
    for fam, n, w, N in (("A", 1, (300, 2), 8), ("C", 1, (255, 0), 6),
                         ("A", 2, (0, 300, 1), 5)):
        a, b = gen_fun(fam, n, w, N), gen_fun_reference(fam, n, w, N)
        assert a.terms == b.terms, (fam, n, w, N)


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
    # counts up to 1.3 * 10^8 (at N = 60) and levels above 254, whose
    # states are tuples; both sides run through _scan, so these rows check
    # the two keyings against each other only (the criterion-3 grid checks
    # z = 1 at large N against the products, an independent route)
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


def _all_moves(table: _ScanTable, state) -> list[list[int]]:
    moves: list[list[int]] = [[] for _ in range(table.level * len(state))]
    table.successors(state, moves, 0)
    return moves


def test_unread_scan_cells_do_not_change_moves():
    # the cells A[0, .], A[., m-1], S[m-1] and E[0] of every state of a
    # fully explored table are stored as -inf; any other value there gives
    # the same moves, while clearing a cell that is read, S[m-2], does not
    rng = random.Random(20261018)
    for fam, n, level in (("C", 2, 4), ("D", 3, 4), ("A", 2, 3),
                          ("C", 1, 4), ("D", 2, 3)):
        m = family_rows(fam, n)
        parities = _row_layout(fam, n, (level,) + (0,) * n)[0]
        table = _ScanTable(tuple(parities), level)
        for w in product(range(level + 1), repeat=n + 1):
            if sum(w) == level:
                table.start(_row_layout(fam, n, w)[1])
        sid = 0
        while sid < len(table.states):
            table.column_moves(sid, level * m)
            sid += 1
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
                assert state[i] == 0, (fam, n, state)
            for _ in range(2):
                other = list(state)
                for i in unread:
                    other[i] = rng.randint(1, level + 1)
                assert _all_moves(table, table.pack(other)) == moves, \
                    (fam, n, state, other)
            if ("S", m - 2) in cells:
                other = list(state)
                other[1 + cells.index(("S", m - 2))] = 0
                changed += _all_moves(table, table.pack(other)) != moves
        assert changed, (fam, n)
