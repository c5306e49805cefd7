import random
from itertools import permutations, product

import pytest

from cmpplab.macdonald import (HalfWeight, macdonald_sum, pi_product,
                               specialized_character_sum)
from cmpplab.products import char_product
from oracles import is_zero_through


def test_half_weight_validation():
    hw = HalfWeight(4, (2, 2))
    assert hw.k_integral and hw.lambda_integral
    assert hw.weight() == (1, 0, 1)
    assert not HalfWeight(3, (2,)).k_integral
    assert not HalfWeight(2, (1, 1)).lambda_integral
    with pytest.raises(ValueError):
        HalfWeight(2, (2, 1))  # mixed parity
    with pytest.raises(ValueError):
        HalfWeight(2, (1, 2))
    with pytest.raises(ValueError):
        HalfWeight(1, (1,)).weight()


def test_pi_vanishing_cases():
    assert pi_product("B", (3, 1), 7, -1, 1, 10).is_exact_zero()
    assert pi_product("D", (3, 1), 7, 1, -1, 10).is_exact_zero()
    assert pi_product("D", (3, 1), 7, -1, 1, 10).is_exact_zero()
    # coincident theta argument makes the product vanish identically
    assert pi_product("B", (7, 3), 7, 1, 1, 10).is_exact_zero()



def test_macdonald_b_identity():
    for exps, base in [((2,), 5), ((3,), 7), ((3, 1), 7), ((4, 1), 9),
                       ((5, 3, 1), 9), ((6, 4, 2), 11)]:
        s = macdonald_sum("B", exps, base, 1, 1, 30)
        p = pi_product("B", exps, base, 1, 1, 30).scale(2)
        assert s.compare(p, 30) is None, (exps, base)


def test_macdonald_b_sigma_vanishing():
    for exps, base in [((2,), 5), ((3, 1), 7), ((5, 3, 1), 9)]:
        s = macdonald_sum("B", exps, base, -1, 1, 30)
        assert is_zero_through(s, 30), (exps, base)


def test_macdonald_d_identity():
    for exps, base in [((3, 1), 7), ((4, 1), 8), ((5, 3, 1), 9)]:
        s = macdonald_sum("D", exps, base, 1, 1, 28)
        p = pi_product("D", exps, base, 1, 1, 28).scale(4)
        assert s.compare(p, 28) is None, (exps, base)
    with pytest.raises(ValueError):
        macdonald_sum("D", (2,), 5, 1, 1, 10)


def test_macdonald_d_twisted_vanishing():
    for sigma, tau in ((-1, 1), (1, -1), (-1, -1)):
        s = macdonald_sum("D", (3, 1), 8, sigma, tau, 28)
        assert is_zero_through(s, 28), (sigma, tau)


def test_macdonald_extreme_exponent_ratios():
    # large x-exponents against a small base push the rows' least
    # exponents far below zero; the row windows must still be exact
    for exps, base in [((40, 1), 3), ((25, 13), 2)]:
        s = macdonald_sum("B", exps, base, 1, 1, 30)
        p = pi_product("B", exps, base, 1, 1, 30).scale(2)
        assert s.compare(p, 30) is None, (exps, base)
        d = macdonald_sum("D", exps, base, 1, 1, 30)
        pd = pi_product("D", exps, base, 1, 1, 30).scale(4)
        assert d.compare(pd, 30) is None, (exps, base)


def test_quasi_periodicity_cross_check():
    # shifting an exponent by the base changes both sides by the same
    # signed monomial: verified by cross-multiplication
    for kind, exps, base in (("B", (3, 1), 7), ("D", (4, 1), 8)):
        shifted = (exps[0] + base,) + exps[1:]
        n = 20
        s1 = macdonald_sum(kind, exps, base, 1, 1, n)
        s2 = macdonald_sum(kind, shifted, base, 1, 1, n)
        p1 = pi_product(kind, exps, base, 1, 1, n)
        p2 = pi_product(kind, shifted, base, 1, 1, n)
        pad = -min(s.q_floor for s in (s1, s2, p1, p2))
        s1 = macdonald_sum(kind, exps, base, 1, 1, n + pad)
        s2 = macdonald_sum(kind, shifted, base, 1, 1, n + pad)
        p1 = pi_product(kind, exps, base, 1, 1, n + pad)
        p2 = pi_product(kind, shifted, base, 1, 1, n + pad)
        assert (s2 * p1).compare(s1 * p2, n) is None, kind


def test_character_sum_a_matches_product():
    cases = [(1, HalfWeight(0, (0,))), (1, HalfWeight(2, (2,))),
             (1, HalfWeight(4, (2,))), (2, HalfWeight(2, (2, 0))),
             (2, HalfWeight(4, (2, 2)))]
    for n, hw in cases:
        s = specialized_character_sum("A", n, hw, 20)
        cp = char_product("A", "nonstandard", n, hw.weight(), 20)
        assert s.compare(cp, 20) is None, (n, hw)


def test_character_sum_a_half_level_vanishes():
    for n, hw in [(1, HalfWeight(1, (0,))), (2, HalfWeight(3, (2, 0)))]:
        s = specialized_character_sum("A", n, hw, 20)
        assert is_zero_through(s, 20), hw


def test_character_sum_d_matches_product():
    cases = [(2, HalfWeight(2, (2, 0))), (2, HalfWeight(4, (2, 2))),
             (3, HalfWeight(2, (2, 0, 0))), (3, HalfWeight(4, (2, 2, 0)))]
    for n, hw in cases:
        s = specialized_character_sum("D", n, hw, 18)
        cp = char_product("D", "nonstandard", n, hw.weight(), 18)
        assert s.compare(cp, 18) is None, (n, hw)


def test_character_sum_d_vanishing_cases():
    for n, hw in [(2, HalfWeight(2, (1, 1))), (2, HalfWeight(3, (2, 0))),
                  (3, HalfWeight(4, (3, 1, 1)))]:
        s = specialized_character_sum("D", n, hw, 18)
        assert is_zero_through(s, 18), hw


def test_character_sum_shape_errors():
    with pytest.raises(ValueError):
        specialized_character_sum("A", 2, HalfWeight(2, (2,)), 10)
    with pytest.raises(ValueError):
        specialized_character_sum("D", 1, HalfWeight(2, (2,)), 10)
    with pytest.raises(ValueError):
        specialized_character_sum("A", 1, HalfWeight(2, (1,)), 10)
    with pytest.raises(ValueError):
        specialized_character_sum("A", 1, HalfWeight(2, (4,)), 10)


def _display(kind, exps, base, sigma, tau):
    """The identities of the module docstring as data: (p-exponent c of
    C(r,2), sign twist, second-entry coefficient, lift)."""
    n = len(exps)
    if kind == "B":
        return 2 * n - 1, -sigma, -1, 1
    return 2 * (n - 1), sigma, tau, 0


def _box_radius(kind, exps, base, sigma, tau, N):
    """A box radius R outside which no lattice point reaches q^N.

    Column j of the display contributes q^{f(r_j)} to each monomial, with
    f(r) = base c C(r,2) + L r + K, where L is base (j-1) +- c x_i and K
    the constant of the prefactor and the entry.  With A >= |L| and
    K >= K0 the contribution is at least g(|r|) = base c C(|r|,2) - A|r|
    + K0, and g(t+1) - g(t) = base c t - A, so g increases from
    t0 = ceil(A / (base c)).  Every column gives at least g(t0); a
    lattice point with some |r_j| > R >= t0 has exponent at least
    g(R+1) + (n-1) g(t0), which the loop makes exceed N."""
    n = len(exps)
    c, _, _, lift = _display(kind, exps, base, sigma, tau)
    m = base * c
    A = base * (n - 1) + c * max(abs(x) for x in exps)
    K0 = min(exps[j] * (n - 1 - j) for j in range(n)) + \
        min(min(x * (j + 1 - n), x * (n - 1 - j + lift))
            for x in exps for j in range(n))

    def g(t):
        return m * (t * (t - 1) // 2) - A * t + K0
    R = -(-A // m)
    least = g(R)
    while g(R + 1) + (n - 1) * least <= N:
        R += 1
    return R


def _box_sum(kind, exps, base, sigma, tau, N, R):
    """The lattice sum of the module docstring over max |r_j| <= R, a
    Leibniz determinant per lattice point, cut at N."""
    n = len(exps)
    c, twist, coeff2, lift = _display(kind, exps, base, sigma, tau)
    x = exps

    def col(j, r):
        # the prefactor exponent and the entries of column j at r_j = r
        pref = base * (c * (r * (r - 1) // 2) + j * r) + x[j] * (n - 1 - j)
        return pref, [((1, x[i] * (c * r + j + 1 - n)),
                       (coeff2, x[i] * (-c * r + n - j - 1 + lift)))
                      for i in range(n)]

    box = range(-R, R + 1)
    cols = {(j, r): col(j, r) for j in range(n) for r in box}
    acc = {}
    for perm in permutations(range(n)):
        inv = sum(perm[i] > perm[k] for i in range(n)
                  for k in range(i + 1, n))
        # det D = sum over perm of sgn(perm) prod_i D[i][perm(i)]; expand
        # the product by the monomial t_i taken from each entry
        for ts in product((0, 1), repeat=n):
            def mono(i, r):
                pref, ents = cols[perm[i], r]
                coeff, e = ents[i][ts[i]]
                return coeff, pref + e
            exp = {(i, r): mono(i, r)[1] for i in range(n) for r in box}
            low = [min(exp[i, r] for r in box) for i in range(n)]
            ranges = [[r for r in box if exp[i, r] + sum(low) - low[i] <= N]
                      for i in range(n)]
            for rs in product(*ranges):  # rs[i] = r_{perm(i)}
                e = sum(exp[i, r] for i, r in enumerate(rs))
                if e <= N:
                    coeff = (-1) ** inv * twist ** (sum(rs) % 2)
                    for i, r in enumerate(rs):
                        coeff *= mono(i, r)[0]
                    acc[e] = acc.get(e, 0) + coeff
    return {e: v for e, v in acc.items() if v}


def test_macdonald_sum_matches_box_enumeration():
    # the row-by-row theta sums against the display summed point by point
    rng = random.Random(20261020)
    cases = [("B", (5, 6, -3), 1, 1, 1, 3)]
    for _ in range(40):
        kind = rng.choice("BD")
        n = rng.randint(1 if kind == "B" else 2, 3)
        cases.append((kind, tuple(rng.randint(-3, 6) for _ in range(n)),
                      rng.randint(1, 9), rng.choice((1, -1)),
                      rng.choice((1, -1)), rng.randint(0, 6)))
    for case in cases:
        R = _box_radius(*case)
        want = _box_sum(*case, R)
        assert _box_sum(*case, R + 2) == want, case
        got = macdonald_sum(*case)
        assert {k[2]: v for k, v in got.terms.items()} == want, case
        assert got.q_order == case[-1], case
        assert got.q_floor == min([0] + list(want)), case


def test_macdonald_sum_vanishes_at_base_one():
    # at p = q every theta argument of Pi is = 0 (mod 1), so the product
    # is the exact zero and the sum has no terms through N
    rng = random.Random(20261021)
    for _ in range(40):
        kind = rng.choice("BD")
        n = rng.randint(1 if kind == "B" else 2, 3)
        exps = tuple(rng.randint(-4, 6) for _ in range(n))
        sigma, tau = rng.choice((1, -1)), rng.choice((1, -1))
        N = rng.randint(0, 12)
        assert pi_product(kind, exps, 1, sigma, tau, N).is_exact_zero()
        assert not macdonald_sum(kind, exps, 1, sigma, tau, N).terms, \
            (kind, exps, sigma, tau, N)


def test_macdonald_rejects_base_below_one():
    for base in (0, -2):
        with pytest.raises(ValueError):
            macdonald_sum("B", (1,), base, 1, 1, 3)
        with pytest.raises(ValueError):
            pi_product("B", (1,), base, 1, 1, 3)
