import random

import pytest

from cmpplab.cmpp import gen_fun
from cmpplab.products import (PochFactor, ProductSpec, ThetaFactor,
                              ag_type_product, c_level1_product, c_n0_product,
                              c_n0_two_variable, char_product,
                              d_level1_product, expand, gordon_product,
                              jms_product, theta_q, theta_reduce,
                              theta_sum)
from cmpplab.series import QSeries, euler_product, poch
from oracles import (d_n1_product, expand_by_factors, outcome,
                     poch_by_factors, theta_by_factors)


def test_theta_basic():
    assert theta_q(1, 5, 6).q_coeffs(6) == [1, -1, 0, 0, -1, 1, -1]
    assert theta_q(5, 5, 10).is_exact_zero()
    assert theta_q(0, 7, 10).is_exact_zero()


def test_theta_symmetry():
    for a, m in [(1, 5), (2, 7), (3, 8)]:
        assert theta_q(a, m, 25).compare(theta_q(m - a, m, 25), 25) is None


def test_theta_quasi_periodicity():
    # theta(q^a; q^m) = -q^{m-a} theta(q^{a-m}; q^m), iterated out of range
    lhs = theta_q(6, 5, 12)
    rhs = theta_q(1, 5, 14).scale(-1) * QSeries.monomial(1, dq=-1)
    assert lhs.compare(rhs, 12) is None
    lhs = theta_q(-2, 5, 12)
    rhs = theta_q(3, 5, 15).scale(-1) * QSeries.monomial(1, dq=-2)
    assert lhs.compare(rhs, 12) is None


def test_theta_reduce_bookkeeping():
    assert theta_reduce(6, 5) == (-1, -1, 1)
    assert theta_reduce(12, 5) == (1, -9, 2)
    # the closed form against one quasi-period step at a time
    for m in range(1, 12):
        for a0 in range(-60, 61):
            sign, shift, a = 1, 0, a0
            while a >= m:
                sign, shift, a = -sign, shift + m - a, a - m
            while a < 0:
                sign, shift, a = -sign, shift + a, a + m
            assert theta_reduce(a0, m) == (sign, shift, a), (a0, m)
    # a huge argument costs no loop over its a / m periods; the shift is
    # the least exponent of m C(j,2) + a j, whose real vertex 1/2 - a/m
    # lies inside the window below
    a, m = 20000000, 3
    j0 = -(a // m)
    least = min(m * (j * (j - 1) // 2) + a * j for j in range(j0 - 2, j0 + 3))
    assert theta_reduce(a, m) == (1, least, 2)
    for m in (0, -1):
        with pytest.raises(ValueError):
            theta_reduce(1, m)
        with pytest.raises(ValueError):
            expand(ProductSpec((ThetaFactor(1, m),), ()), 3)


def test_jacobi_triple_product():
    n = 60
    for m in range(1, 9):
        for a in range(-m, 2 * m + 1):
            lhs = theta_q(a, m, n) * \
                poch(m, m, None, n - theta_reduce(a, m)[1])
            terms = {}
            for j in range(-40, 41):
                e = m * (j * (j - 1) // 2) + a * j
                if e <= n:
                    terms[(0, 0, e)] = terms.get((0, 0, e), 0) + (-1) ** j
            rhs = QSeries(terms, n, min((k[2] for k in terms), default=0))
            assert lhs.compare(rhs, n) is None, (a, m)
            s = theta_sum(m, a, n)
            assert (s.terms, s.q_order, s.q_floor) == \
                (rhs.terms, n, rhs.q_floor), (a, m)
    # the floor is the least exponent even when its pair of terms cancels
    s = theta_sum(5, -5, 10)
    assert not s.terms and s.q_floor == -5
    s = theta_sum(3, 2, 20, sign=1, shift=-4)
    assert s.q_floor == -4 and s.q_coeffs(6) == [0, 1, 0, 1, 0, 0, 0]


def test_char_product_rogers_ramanujan():
    assert char_product("A", "nonstandard", 1, (1, 0), 6).q_coeffs(6) == \
        [1, 0, 1, 1, 1, 1, 2]
    assert char_product("A", "nonstandard", 1, (0, 1), 6).q_coeffs(6) == \
        [1, 1, 1, 1, 2, 2, 3]


def test_char_product_d_n1_closed_form():
    for w in [(1, 0), (2, 0), (1, 2)]:
        cp = char_product("D", "nonstandard", 1, w, 20)
        assert cp.compare(expand(d_n1_product(sum(w)), 20), 20) is None


def test_char_product_rejects_bad_input():
    with pytest.raises(ValueError):
        char_product("A", "nonstandard", 0, (1,), 5)
    with pytest.raises(ValueError):
        char_product("A", "weird", 1, (1, 0), 5)
    with pytest.raises(ValueError):
        char_product("A", "nonstandard", 1, (1, 0, 0), 5)


def test_c_principal_equals_nonstandard():
    a = char_product("C", "principal", 2, (1, 0, 1), 15)
    b = char_product("C", "nonstandard", 2, (1, 0, 1), 15)
    assert a.compare(b, 15) is None


def test_principal_specialisations_are_products_of_positive_series():
    # principal A and D should also count partitions: non-negative
    for fam, n, w in (("A", 1, (1, 1)), ("A", 2, (1, 0, 1)),
                      ("D", 2, (1, 1, 0))):
        s = char_product(fam, "principal", n, w, 20)
        assert all(c >= 0 for c in s.terms.values()), (fam, n, w)


def test_nonstandard_a_nonnegative():
    # the A products count coloured partitions; a negative coefficient
    # would be a finding
    for n in (1, 2):
        for w in [(2, 0), (1, 1), (1, 0, 1), (0, 1, 1)]:
            if len(w) != n + 1:
                continue
            s = char_product("A", "nonstandard", n, w, 25)
            bad = {k: c for k, c in s.terms.items() if c < 0}
            assert not bad, (n, w, bad)


def test_gordon_product_is_first_rr():
    s = expand(gordon_product(1, 1), 6)
    assert s.q_coeffs(6) == [1, 1, 1, 1, 2, 2, 3]
    assert expand(ProductSpec(), 5).terms == {(0, 0, 0): 1}


def test_quotient_vs_enumeration_dk1():
    s = expand(d_level1_product(1, 0), 14)
    g = gen_fun("D", 1, (1, 0), 14).at_one()
    assert s.compare(g, 14) is None


def test_named_products_match_char_products():
    # level-one quotients against the assembled character products
    for n in (1, 2, 3):
        for a in range(n + 1):
            w = tuple(1 if i == a else 0 for i in range(n + 1))
            jp = expand(jms_product(n, a), 20)
            cp = char_product("A", "nonstandard", n, w, 20)
            assert jp.compare(cp, 20) is None, ("A", n, a)
            cl = expand(c_level1_product(n, a), 20)
            cc = char_product("C", "nonstandard", n, w, 20)
            assert cl.compare(cc, 20) is None, ("C", n, a)
            dl = expand(d_level1_product(n, a), 20)
            dc = char_product("D", "nonstandard", n, w, 20)
            assert dl.compare(dc, 20) is None, ("D", n, a)


def test_c_n0_products():
    for k in (1, 2, 3):
        g1 = gen_fun("C", 0, (k,), 14).at_one()
        assert g1.compare(expand(c_n0_product(k), 14), 14) is None
        g2 = gen_fun("C", 0, (k,), 14)
        assert g2.compare(c_n0_two_variable(k, 14), 14) is None


def test_theta_in_denominator():
    spec = ProductSpec((ThetaFactor(1, 5, 1), ThetaFactor(1, 5, -1)), ())
    assert expand(spec, 10).compare(QSeries.one(10), 10) is None
    with pytest.raises(ValueError):
        expand(ProductSpec((ThetaFactor(5, 5, -1),), ()), 5)


def test_expand_out_of_range_theta_argument():
    # theta(q^12; q^5) = q^{-9} theta(q^2; q^5): the quotient against the
    # reduced form must still be exact through the full window
    spec = ProductSpec((ThetaFactor(12, 5, 1),), ())
    got = expand(spec, 20)
    assert got.q_order >= 20 and got.q_floor == -9
    want = theta_q(2, 5, 30) * QSeries.monomial(1, dq=-9)
    assert got.compare(want, 20) is None
    two = expand(ProductSpec((ThetaFactor(12, 5, 1), ThetaFactor(7, 5, 1)),
                             ()), 15)
    red = theta_q(2, 5, 40) * theta_q(2, 5, 40) * \
        QSeries.monomial(1, dq=-9) * QSeries.monomial(-1, dq=-2)
    assert two.compare(red, 15) is None


def test_ag_type_products_positive():
    for which in ("c-kL0", "d-kL0", "d-kL1", "d-omega"):
        for k in (1, 2, 3):
            s = expand(ag_type_product(which, k), 25)
            assert all(c >= 0 for c in s.terms.values()), (which, k)


def test_poch_factor_powers():
    spec = ProductSpec((), (PochFactor(1, 1, 2),))
    direct = poch(1, 1, None, 15) * poch(1, 1, None, 15)
    assert expand(spec, 15).compare(direct, 15) is None


def test_pochhammer_products_match_factor_by_factor():
    # the recurrence against one mul per factor 1 - q^e, and its inverse
    # against invert()
    for c in range(1, 8):
        for m in range(1, 6):
            for count in (None, 0, 1, 2, 3, 4, 5):
                for n in range(31):
                    want = poch_by_factors(c, m, count, n)
                    inv = want.invert()
                    assert outcome(poch, c, m, count, n) == \
                        (want.terms, want.q_order, want.q_floor)
                    assert outcome(euler_product, ((c, m, count, -1),),
                                    n) == (inv.terms, inv.q_order, inv.q_floor)
    for c, m in ((1, 0), (2, -1), (0, 2), (-3, 1)):
        want = outcome(poch_by_factors, c, m, None, 6)
        assert outcome(poch, c, m, None, 6) == want
        assert outcome(euler_product, ((c, m, None, -1),), 6) == want


def test_theta_matches_factor_by_factor():
    for m in range(1, 10):
        for a in range(-12, 15):
            for n in range(31):
                assert outcome(theta_q, a, m, n) == \
                    outcome(theta_by_factors, a, m, n), (a, m, n)
    for a, m in ((1, 0), (3, -2)):
        assert outcome(theta_q, a, m, 5) == \
            outcome(theta_by_factors, a, m, 5)


def test_expand_matches_factor_by_factor():
    # one recurrence over the exponent vector against a mul per factor
    # and an invert per denominator: terms, window and error text
    fixed = [
        ProductSpec((ThetaFactor(5, 5, 1), ThetaFactor(1, 5, -1)),
                    (PochFactor(1, 1, -1),)),  # vanishing numerator
        ProductSpec((ThetaFactor(2, 5, 1), ThetaFactor(10, 5, -2)), ()),
        ProductSpec((ThetaFactor(0, 3, 0), ThetaFactor(-4, 3, -1)),
                    (PochFactor(3, 3, 2),)),  # vanishing at power 0
        ProductSpec((ThetaFactor(6, 6, 1),), (PochFactor(0, 2, 1),)),
        ProductSpec((ThetaFactor(1, 4, 1),), (PochFactor(2, 0, 0),)),
    ]
    rng = random.Random(19)
    specs = [(spec, n) for spec in fixed for n in (0, 1, 7, 30)]
    for _ in range(1500):
        thetas = tuple(ThetaFactor(rng.randint(-12, 14), rng.randint(1, 9),
                                   rng.randint(-2, 3))
                       for _ in range(rng.randint(0, 3)))
        pochs = tuple(PochFactor(rng.randint(1, 9), rng.randint(1, 9),
                                 rng.randint(-2, 3))
                      for _ in range(rng.randint(0, 3)))
        specs.append((ProductSpec(thetas, pochs), rng.randint(0, 30)))
    seen = set()
    for spec, n in specs:
        got = outcome(expand, spec, n)
        assert got == outcome(expand_by_factors, spec, n), (spec, n)
        for t in spec.thetas:
            if t.a % t.m == 0:
                seen.add("vanishing, power %s" % ((t.power > 0) -
                                                  (t.power < 0)))
        seen.add("error" if isinstance(got, str) else
                 "zero" if not got[0] else "series")
        seen.update("a < 0" if t.a < 0 else "a >= m" if t.a >= t.m else
                    "a in [0, m)" for t in spec.thetas)
    assert seen == {"vanishing, power 1", "vanishing, power 0",
                    "vanishing, power -1", "error", "zero", "series",
                    "a < 0", "a >= m", "a in [0, m)"}
