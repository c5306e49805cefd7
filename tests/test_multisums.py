import random
from itertools import product

import pytest

from cmpplab.cmpp import gen_fun
from cmpplab.hall_littlewood import hl_sum_over_bounded
from cmpplab.multisums import (_double_sum, ag_sum, atomic_residual, f_sum,
                               s_series, shun2_sum, shun_sum, wz_sum)
from cmpplab.series import QSeries
from oracles import double_sum_by_box, is_zero_through, s_series_by_box


def test_f_sum_rr():
    assert f_sum(1, 1, 1, 6).at_one().q_coeffs(6) == [1, 1, 1, 1, 2, 2, 3]
    assert f_sum(2, 0, 0, 0).q_coeffs(0) == [1]
    with pytest.raises(ValueError):
        f_sum(2, 3, 1, 5)


def test_f_sum_z_tracks_r1():
    s = f_sum(2, 1, 1, 10)
    for (dz, _, dq) in s.terms:
        assert dz * dz <= dq  # q^{r_1^2 + ...} with z^{r_1}


def test_ag_sum_vs_gordon_partitions():
    from cmpplab.cmpp import gordon_series
    for k, a in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 2)]:
        s = ag_sum(k, a, 16)
        g = gordon_series(k, a, 16)
        assert s.compare(g, 16) is None, (k, a)


def test_f_bridges_two_variable():
    for n in (1, 2, 3):
        for a in range(n + 1):
            w = tuple(1 if i == a else 0 for i in range(n + 1))
            aa = 2 * a if a <= n // 2 else 2 * n - 2 * a + 1
            assert gen_fun("A", n, w, 14).compare(
                f_sum(n, aa, 1, 14), 14) is None
            cc = 2 * a + 1 if a <= n // 2 else 2 * n - 2 * a + 1
            assert gen_fun("C", n, w, 14).compare(
                f_sum(n + 1, cc, 0, 14), 14) is None
            dd = 2 * a if a <= n // 2 else 2 * n - 2 * a
            assert gen_fun("D", n, w, 14).compare(
                f_sum(n, dd, 0, 14), 14) is None


def test_shun_sum_example():
    assert shun_sum(1, 4).at_one().q_coeffs(4) == [1, 1, 1, 2, 2]
    assert shun_sum(0, 5).terms == {(0, 0, 0): 1}


def test_shun_matches_hall_littlewood():
    for k in (0, 1, 2, 3):
        a = shun_sum(k, 14)
        b = hl_sum_over_bounded(k, 2, 14)
        assert a.compare(b, 14) is None, k


def test_shun2_variants_vs_enumeration():
    targets = {"kL0": lambda k: (k, 0, 0), "kL1": lambda k: (0, k, 0),
               "omega": lambda k: (1, k - 1, 0)}
    for variant, wf in targets.items():
        for k in (1, 2, 3):
            s = shun2_sum(k, variant, 13)
            g = gen_fun("D", 2, wf(k), 13)
            assert s.compare(g, 13) is None, (variant, k)
    with pytest.raises(ValueError):
        shun2_sum(2, "bogus", 5)


def test_omega_all_si_zero_reduces_to_q_rk():
    # with every s_i = 0 the omega weight collapses onto q^{r_k}: the
    # omega variant at w-erased s-support equals the AG weighting a = k-1
    k = 3
    guess = wz_sum("guess_omega", 14, k=k).at_zero("w")
    assert guess.compare(ag_sum(k, k - 1, 14), 14) is None


def test_thm48_reductions():
    for which, w in (("A", (2, 0, 0)), ("B", (0, 2, 0)), ("C", (1, 1, 0)),
                     ("D", (1, 0, 1))):
        wz = wz_sum(which, 14).substitute(w=(1, 0, 0))
        assert wz.compare(gen_fun("D", 2, w, 14), 14) is None, which


def test_wz_boundary_specialisations():
    B0 = wz_sum("B", 14).at_zero("w")
    assert B0.compare(gen_fun("A", 1, (0, 2), 14), 14) is None
    A0 = wz_sum("A", 14).at_zero("w")
    D0 = wz_sum("D", 14).at_zero("w")
    assert A0.compare(D0, 14) is None
    C0 = wz_sum("C", 14).at_zero("z")
    Dz = wz_sum("D", 14).at_zero("z")
    assert C0.compare(Dz, 14) is None
    # z=0 reductions live in (w, q^2)
    inner = gen_fun("A", 1, (2, 0), 7).substitute(z=(0, 1, 0), qpow=2)
    assert wz_sum("A", 14).at_zero("z").compare(inner, 14) is None


def test_guess_reductions():
    for k in (1, 2, 3):
        g = wz_sum("guess_B", 14, k=k)
        assert g.at_zero("w").compare(ag_sum(k, k, 14), 14) is None
        wside = ag_sum(k, k, 7).substitute(z=(0, 1, 0), qpow=2)
        assert g.at_zero("z").compare(wside, 14) is None


def test_s_series_basics():
    s = s_series(1, 2, 1, 2, 12)
    assert s.coeff(0, 0, 0) == 1
    # coefficient of z^1 w^0: only (m1, m2) = (1, 0): q^{1+k1}/(q;q)_1
    sl = {dq: c for (dz, dw, dq), c in s.terms.items() if dz == 1 and dw == 0}
    want = (QSeries.monomial(1, dq=2) *
            QSeries({(0, 0, 0): 1, (0, 0, 1): -1}, None, 0).invert(12))
    assert sl == {dq: c for (_, _, dq), c in want.truncate(12).terms.items()}


def _window(s: QSeries):
    return s.terms, s.q_order


def test_double_sum_matches_the_box_for_rows_of_any_sign():
    rng = random.Random(26)
    for k in (1, 2, 3):
        rows = list(product((-4, -1, 0, 2), repeat=k))
        pairs = [(a, b) for a in rows for b in rows]
        for lin_r, lin_s in (pairs if k < 3 else rng.sample(pairs, 64)):
            for N in (0, 3, 8):
                assert _window(_double_sum(k, N, lin_r, lin_s, w_apart=True)) \
                    == _window(double_sum_by_box(k, N, lin_r, lin_s)), \
                    (lin_r, lin_s, N)


def test_s_series_matches_the_box():
    grid = [(p, N) for p in product(range(-3, 3), repeat=4) for N in (0, 2, 6)]
    grid += [(p, N) for p in product((-6, -4, 0, 2), repeat=4)
             for N in (3, 8)]
    for p, N in grid:
        assert _window(s_series(*p, N)) == _window(s_series_by_box(*p, N)), \
            (p, N)


def test_s_series_shift_law():
    for (m, n) in ((1, 1), (2, 0), (0, 2)):
        lhs = s_series(0, 0, 0, 0, 15).substitute(z=(1, 0, m), w=(0, 1, 2 * n))
        rhs = s_series(m, 2 * m, n, 2 * n, 15)
        assert lhs.compare(rhs, 15) is None, (m, n)


def test_atomic_relations_sampled():
    rng = random.Random(20240809)
    seen = set()
    while len(seen) < 20:
        seen.add(tuple(rng.randint(-2, 4) for _ in range(4)))
    for params in sorted(seen):
        for which in ("R1", "R2", "R3", "R4"):
            r = atomic_residual(which, params, 12)
            assert is_zero_through(r, 12), (which, params)


def test_toshow_combinations():
    for i in (1, 2, 3, 4):
        r = atomic_residual("toshow%d" % i, (0, 0, 0, 0), 13)
        assert is_zero_through(r, 13), i
