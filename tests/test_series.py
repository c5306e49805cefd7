import random

import pytest

from cmpplab.series import QSeries, euler_product, poch, qbin
from oracles import qbin_by_pascal


def q_only(coeffs, order):
    return QSeries({(0, 0, d): c for d, c in enumerate(coeffs)}, order)


def test_mul_difference_of_squares():
    a = q_only([1, -1], 10)
    b = q_only([1, 1], 10)
    assert (a * b).q_coeffs(3) == [1, 0, -1, 0]


def test_mul_identity():
    rng = random.Random(1)
    for _ in range(20):
        terms = {(rng.randint(0, 3), 0, rng.randint(0, 12)):
                 rng.randint(-9, 9) for _ in range(8)}
        s = QSeries(terms, 12, 0)
        assert (s * QSeries.one(None)).compare(s, 12) is None


def test_mul_qq4_coefficients():
    # (1-q)(1-q^2)(1-q^3)(1-q^4); the full expansion is
    # 1 - q - q^2 + 2q^5 - q^8 - q^9 + q^10
    p = poch(1, 1, 4, 12)
    assert p.q_coeffs(10) == [1, -1, -1, 0, 0, 2, 0, 0, -1, -1, 1]


def _random_series(rng, order=10):
    terms = {}
    for _ in range(rng.randint(0, 10)):
        key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, order))
        terms[key] = rng.randint(-5, 5)
    return QSeries(terms, order, 0)


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(30):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert (a * b).compare(b * a, 10) is None
        lhs = (a * b) * c
        rhs = a * (b * c)
        up = min(o for o in (lhs.q_order, rhs.q_order) if o is not None)
        assert lhs.compare(rhs, up) is None
        assert (a * (b + c)).compare(a * b + a * c, 10) is None
        # collect over shifted parts, a and -a cancelling, is the `+` chain
        sh = [(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-3, 3))
              for _ in range(4)]
        parts = [(sh[0], a), (sh[1], b), (sh[0], -a), (sh[2], c),
                 (sh[3], b * c)]
        shifted = [QSeries.monomial(1, *k) * s for k, s in parts]
        chain = QSeries.zero()
        for p in shifted:
            chain = chain + p
        got = QSeries.collect(parts, chain.q_order, chain.q_floor)
        assert got == chain
        assert 0 not in got.terms.values()
        # and coefficientwise, without `+`
        for k in set(got.terms).union(*(p.terms for p in shifted)):
            want = sum(p.coeff(*k) for p in shifted)
            assert got.coeff(*k) == (want if k[2] <= got.q_order else 0)


def test_pentagonal_numbers():
    n = 60
    s = poch(1, 1, None, n)
    pent = {k * (3 * k - 1) // 2: (-1) ** k for k in range(-10, 11)}
    for d, c in enumerate(s.q_coeffs(n)):
        assert c == pent.get(d, 0)


def test_invert_geometric():
    s = QSeries({(0, 0, 0): 1, (0, 0, 1): -1}, None, 0)
    assert s.invert(8).q_coeffs(8) == [1] * 9


def test_invert_one():
    assert QSeries.one(6).invert().q_coeffs(6) == [1, 0, 0, 0, 0, 0, 0]


def test_invert_partition_numbers():
    inv = poch(1, 1, None, 6).invert()
    assert inv.q_coeffs(6) == [1, 1, 2, 3, 5, 7, 11]


def test_invert_roundtrip_random():
    rng = random.Random(7)
    for _ in range(15):
        terms = {(0, 0, 0): 1}
        for _ in range(6):
            terms[(rng.randint(0, 2), 0, rng.randint(1, 10))] = \
                rng.randint(-4, 4)
        s = QSeries(terms, 12, 0)
        assert (s * s.invert()).compare(QSeries.one(12), 12) is None


def test_invert_rejects_non_unit():
    with pytest.raises(ValueError):
        QSeries({(0, 0, 0): 2}, 5, 0).invert()
    with pytest.raises(ValueError):
        QSeries({(0, 0, 1): 1}, 5, 0).invert()
    with pytest.raises(ValueError):
        QSeries({(0, 0, 0): 1, (1, 0, 0): 1}, 5, 0).invert()


def test_substitute_monomials():
    zq = QSeries.monomial(1, dz=1, dq=1, order=10)
    assert zq.substitute(z=(1, 0, 2)).terms == {(1, 0, 3): 1}
    s = q_only([1, 1], 10)
    assert s.substitute(qpow=2).terms == {(0, 0, 0): 1, (0, 0, 2): 1}
    m = QSeries.monomial(1, dz=2, dq=3, order=10)
    assert m.substitute(z=(1, 0, 1)).terms == {(2, 0, 5): 1}


def test_substitute_base_change_consistency():
    # substituting q -> q^m agrees with computing natively in base q^m
    n = 20
    a = poch(1, 1, None, n).substitute(qpow=2)
    b = poch(2, 2, None, 2 * n + 1)
    assert a.compare(b, 2 * n + 1) is None


def test_substitute_order_bookkeeping():
    s = q_only([1] * 6, 5)
    t = s.substitute(qpow=3)
    assert t.q_order == 17


def test_substitute_rejects_lowering():
    s = QSeries.monomial(1, dz=1, dq=1, order=5)
    with pytest.raises(ValueError):
        s.substitute(z=(1, 0, -1))
    with pytest.raises(ValueError):
        s.substitute(qpow=0)


def test_poch_examples():
    assert poch(2, 5, 1, 10).q_coeffs(3) == [1, 0, -1, 0]
    assert poch(1, 1, 0, 10).q_coeffs(2) == [1, 0, 0]
    # c < 1 is refused for every count: 1 - q^0 vanishes, and 1 - q^-2
    # would put a term below floor 0
    for c, m, count in ((0, 1, None), (0, 1, 2), (-2, 3, 2), (0, 1, 0)):
        with pytest.raises(ValueError, match="c >= 1"):
            poch(c, m, count, 5)
        with pytest.raises(ValueError, match="c >= 1"):
            euler_product(((c, m, count, -1),), 5)
    # below order 0 there is nothing to claim, for a product or its inverse
    assert poch(1, 1, None, -1) == QSeries({}, -1, 0)
    assert euler_product(((1, 1, None, -1),), -1) == QSeries({}, -1, 0)


def test_qbin_examples():
    assert qbin(2, 1).q_coeffs(2) == [1, 1, 0]
    assert qbin(3, 5).terms == {}
    assert qbin(7, 0, 3).terms == {(0, 0, 0): 1}
    # (q;q)_n / ((q;q)_k (q;q)_{n-k}) cross-check
    for n in range(7):
        for k in range(n + 1):
            lhs = qbin(n, k) * poch(1, 1, k, 40) * poch(1, 1, n - k, 40)
            assert lhs.compare(poch(1, 1, n, 40), 40) is None


def test_qbin_in_base_q_m():
    # [4, 2] = 1 + q + 2q^2 + q^3 + q^4, read in base q^2
    assert qbin(4, 2, 2).terms == {(0, 0, 0): 1, (0, 0, 2): 1, (0, 0, 4): 2,
                                   (0, 0, 6): 1, (0, 0, 8): 1}
    # base q^0 would sum the coefficients, base q^-1 leave the window
    for m in (0, -1):
        with pytest.raises(ValueError):
            qbin(2, 1, m)


def test_qbin_matches_the_pascal_rule():
    # Euler's recurrence against the q-Pascal rule, the window included,
    # inside and outside 0 <= k <= n, in bases q, q^2 and q^3
    cases = 0
    for n in range(-2, 25):
        for k in range(-2, n + 3):
            for m in (1, 2, 3):
                assert qbin(n, k, m) == qbin_by_pascal(n, k, m), (n, k, m)
                cases += 1
    assert cases == 3 * sum(n + 5 for n in range(-2, 25))


def test_compare_reports_first_mismatch():
    a = QSeries.one(10)
    b = q_only([1, 0, 0, 1], 10)
    assert a.compare(b, 2) is None
    mm = a.compare(b, 5)
    assert mm == (0, 0, 3, 0, 1)


def test_compare_insufficient_truncation():
    a = q_only([1], 4)
    with pytest.raises(ValueError):
        a.compare(QSeries.one(10), 5)


def test_mul_order_window():
    # orders tighten per min(a.order + b.floor, b.order + a.floor)
    a = q_only([1, 1], 4)
    b = QSeries.monomial(1, dq=3)
    assert (a * b).q_order == 7
    c = QSeries.monomial(1, dq=-2)
    prod = a * c
    assert prod.q_order == 2
    assert prod.q_floor == -2


def test_truncation_stability():
    wide = poch(1, 1, None, 30).invert()
    narrow = poch(1, 1, None, 12).invert()
    assert wide.compare(narrow, 12) is None


def test_tsv_dump():
    s = QSeries({(0, 0, 0): 1, (1, 0, 2): -3}, 5, 0)
    assert s.dump_tsv() == "# order=5 floor=0\n0\t0\t0\t1\n1\t0\t2\t-3\n"


def test_big_coefficients_exact():
    s = poch(1, 1, None, 120).invert()
    # p(120) = 1844349560, beyond 2^30; exactness is the point
    assert s.coeff(dq=120) == 1844349560


def test_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.functions.combinatorial.numbers import partition
    q = sympy.symbols("q")
    expr = sympy.prod([1 - q ** j for j in range(1, 5)])
    coeffs = [int(c) for c in sympy.Poly(expr, q).all_coeffs()[::-1]]
    assert poch(1, 1, 4, 12).q_coeffs(len(coeffs) - 1) == coeffs
    inv = poch(1, 1, None, 40).invert()
    assert all(inv.coeff(dq=n) == int(partition(n)) for n in range(41))


def test_dense_multiplication_speed():
    import time
    a = QSeries({(0, 0, d): d + 1 for d in range(201)}, 200, 0)
    b = QSeries({(0, 0, d): 2 * d + 1 for d in range(201)}, 200, 0)
    t0 = time.monotonic()
    c = a * b
    assert time.monotonic() - t0 < 1.0
    assert c.coeff(dq=0) == 1


# -- window laws against exact polynomials ------------------------------------


def _exact_poly(rng, unit=False) -> QSeries:
    """A random exact polynomial with an honest floor; a unit one has the
    constant term +-1, free of z and w, and its other terms above q^0."""
    floor = 0 if unit else rng.randint(-3, 1)
    low = 1 if unit else floor
    terms = {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(low, low + 8)):
             rng.randint(-4, 4) for _ in range(rng.randint(0, 8))}
    if unit:
        terms[(0, 0, 0)] = rng.choice((1, -1))
        return QSeries(terms, None, 0)
    # the floor is honest at or below the least exponent
    return QSeries(terms, None, floor - rng.randint(0, 1))


def _cut(rng, p: QSeries) -> QSeries:
    """p as it is or cut to a random window around its terms."""
    if rng.random() < 0.25:
        return p
    return p.truncate(rng.randint(p.q_floor - 1, p.q_floor + 9))


def _exact(terms: dict) -> QSeries:
    return QSeries(terms, None, min([0] + [k[2] for k in terms]))


def _assert_honest(got: QSeries, exact: QSeries, what):
    """got agrees with the exact series at every key through its claimed
    q_order (at every key if it claims to be exact), and its q_floor is at
    or below its least q-exponent."""
    top = got.q_order
    assert top is not None or exact.q_order is None, what
    for k in set(got.terms) | set(exact.terms):
        if top is None or k[2] <= top:
            assert got.coeff(*k) == exact.coeff(*k), (what, k)
    assert not got.terms or got.q_floor <= got.min_q_degree(), what


def test_window_laws_against_exact_polynomials():
    # every ring operation on cut windows of exact polynomials claims a
    # window (q_order, q_floor) that the untruncated result bears out; the
    # exact products, substitutions and shifted sums come from plain loops
    # over the terms
    rng = random.Random(20261019)
    for _ in range(300):
        p, r = _exact_poly(rng), _exact_poly(rng)
        a, b = _cut(rng, p), _cut(rng, r)

        prod: dict = {}
        for (z1, w1, d1), c1 in p.terms.items():
            for (z2, w2, d2), c2 in r.terms.items():
                k = (z1 + z2, w1 + w2, d1 + d2)
                prod[k] = prod.get(k, 0) + c1 * c2
        _assert_honest(a * b, _exact(prod), ("mul", a, b))
        _assert_honest(a + b, p + r, ("add", a, b))

        n = rng.randint(a.q_floor - 1, a.q_floor + 9)
        _assert_honest(a.truncate(n), p, ("truncate", a, n))

        zi = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        wi = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        m = rng.randint(1, 3)
        sub: dict = {}
        for (dz, dw, dq), c in p.terms.items():
            k = (zi[0] * dz + wi[0] * dw, zi[1] * dz + wi[1] * dw,
                 m * dq + zi[2] * dz + wi[2] * dw)
            sub[k] = sub.get(k, 0) + c
        _assert_honest(a.substitute(z=zi, w=wi, qpow=m), _exact(sub),
                       ("substitute", a, zi, wi, m))

        # collect with the window a caller states: the least shifted
        # order and floor of its parts
        shifts = [(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2))
                  for _ in (a, b)]
        orders = [s.q_order + c for (_, _, c), s in zip(shifts, (a, b))
                  if s.q_order is not None]
        order = min(orders) if orders else None
        floor = min(s.q_floor + c for (_, _, c), s in zip(shifts, (a, b)))
        total: dict = {}
        for (x, y, c), s in zip(shifts, (p, r)):
            for (dz, dw, dq), v in s.terms.items():
                k = (dz + x, dw + y, dq + c)
                total[k] = total.get(k, 0) + v
        _assert_honest(QSeries.collect(zip(shifts, (a, b)), order, floor),
                       _exact(total), ("collect", a, b, shifts))

        # an inverse times the exact polynomial is 1 through its window
        u = _exact_poly(rng, unit=True)
        cu = u.truncate(rng.randint(0, 10))
        for inv in (cu.invert(), cu.invert(rng.randint(0, 12)),
                    u.invert(rng.randint(0, 12))):
            assert inv.q_floor <= inv.min_q_degree(), cu
            _assert_honest(inv * u, QSeries.one(), ("invert", cu))
