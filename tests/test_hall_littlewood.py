import importlib

import pytest

import cmpplab
from cmpplab import hall_littlewood
from cmpplab.hall_littlewood import (bailey_alpha_side, hl_chain_sum,
                                     hl_inf_spec, hl_ls_2r1s,
                                     hl_principal_finite,
                                     hl_sum_over_bounded, hl_symmetrization,
                                     hl_weighted_chain, multisum_term,
                                     prop_gow_sum)
from cmpplab.multisums import ag_sum
from cmpplab.series import QSeries
from oracles import (bailey_alpha_side_by_factors, h_step_by_factors,
                     hl_ls_2r1s_by_factors, outcome, partitions_iter,
                     psi_poly_by_factors, qbin_by_pascal, sub_partitions)


def test_public_names_resolve():
    for name in cmpplab.__all__:
        assert hasattr(cmpplab, name), name
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cmpplab.partitions")


def test_principal_finite_examples():
    assert hl_principal_finite((2,), 3, 1, 6).q_coeffs(3) == [1, 1, 1, 0]
    assert hl_principal_finite((), 4, 3, 5).q_coeffs(2) == [1, 0, 0]
    # stability: too-long shape gives the zero series
    assert hl_principal_finite((1, 1, 1), 2, 1, 5).terms == {}


def test_elementary_specialisation():
    # shape (1^r): q^{m binom(r,2)} [k, r] in base q^m
    for k in (3, 5):
        for r in range(k + 1):
            for m in (1, 2):
                got = hl_principal_finite((1,) * r, k, m, 40)
                want = QSeries.monomial(1, dq=m * (r * (r - 1) // 2)) * \
                    qbin_by_pascal(k, r, m)
                assert got.compare(want, 40) is None


def test_symmetrization_small():
    assert hl_symmetrization((1,), 2, 1, 5).q_coeffs(2) == [1, 1, 0]
    assert hl_symmetrization((1, 1), 2, 1, 5).q_coeffs(2) == [0, 1, 0]
    assert hl_symmetrization((2,), 2, 2, 5).q_coeffs(4) == [1, 1, 1, -1, 0]
    with pytest.raises(ValueError):
        hl_symmetrization((1,), 10, 1, 5)


def test_symmetrization_rejects_a_negative_order():
    # one error for every shape: (1,) used to fail inside a Pochhammer
    # inverse, (2, 1) to return an empty series
    for shape in ((1,), (2, 1)):
        with pytest.raises(ValueError, match="N must be >= 0"):
            hl_symmetrization(shape, 2, 1, -1)


def test_oracle_triangle():
    # definition == single sum at x_i = q^{i-1}; closed form == definition
    # at the fully principal point x_i = t^{i-1}
    N = 25
    for L in (2, 4, 6):
        for (r, s) in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2),
                       (1, 3), (3, 1)]:
            if r + s > 4 or r + s > L:
                continue
            shape = (2,) * r + (1,) * s
            for m in (1, 2, 3, 4):
                sym = hl_symmetrization(shape, L, m, N)
                ls = hl_ls_2r1s(r, s, L, m, N)
                assert sym.compare(ls, N) is None, (L, r, s, m)
                pf = hl_principal_finite(shape, L, m, N)
                symp = hl_symmetrization(shape, L, m, N, xstep=m)
                assert pf.compare(symp, N) is None, (L, r, s, m)


def test_inf_spec_examples():
    assert hl_inf_spec((2,), 3, 3).q_coeffs(3) == [1, 1, 2, 2]
    assert hl_inf_spec((), 2, 4).q_coeffs(2) == [1, 0, 0]
    # P_{(2)}(1,q,...;q) = 1/(1-q)
    assert hl_inf_spec((2,), 1, 8).q_coeffs(8) == [1] * 9


def test_inf_spec_stability_against_symmetrization():
    for lam in [(2,), (2, 1), (2, 2), (3, 1)]:
        for m in (1, 2, 3):
            a = hl_inf_spec(lam, m, 8)
            b = hl_symmetrization(lam, 9, m, 8)
            assert a.compare(b, 8) is None, (lam, m)


def test_gow_sum_examples():
    assert prop_gow_sum(0, 2, 1, 6).q_coeffs(2) == [1, 0, 0]
    assert prop_gow_sum(1, 1, 1, 3).q_coeffs(3) == [1, 1, 2, 2]
    assert prop_gow_sum(1, 0, 1, 6).q_coeffs(6) == [1] * 7


def test_gow_equals_branching():
    for r in range(5):
        for n in (0, 1, 2):
            for d in (0, 1):
                if 2 * n + d < 1:
                    continue
                a = prop_gow_sum(r, n, d, 18)
                b = hl_inf_spec((2,) * r, 2 * n + d, 18)
                assert a.compare(b, 18) is None, (r, n, d)


def test_chain_sum_small():
    assert hl_chain_sum(0, 2, 10).terms == {(0, 0, 0): 1}
    assert hl_chain_sum(1, 2, 4).at_one().q_coeffs(4) == [1, 1, 1, 2, 2]


def test_chain_sum_is_ag_at_base_q():
    for k in (1, 2, 3):
        a = hl_chain_sum(k, 1, 16)
        b = ag_sum(k, k, 16)
        assert a.compare(b, 16) is None


def test_ls_and_bailey_terms_match_factor_by_factor():
    # one euler_product call per term against the qbin and Pochhammer
    # products it replaced: terms, q_order, q_floor and error text; the
    # Bailey sum through r_max = 4 holds every r <= 4 as its z^r part
    orders = (0, 1, 2, 3, 5, 8, 12, 17, 23, 30)
    for m in range(4):
        for s in range(-1, 4):
            for r in range(5):
                for kvars in range(-1, 9):
                    for N in orders:
                        assert outcome(hl_ls_2r1s, r, s, kvars, m, N) == \
                            outcome(hl_ls_2r1s_by_factors, r, s, kvars, m,
                                    N), (r, s, kvars, m, N)
            for N in orders:
                assert outcome(bailey_alpha_side, s, m, 4, N) == \
                    outcome(bailey_alpha_side_by_factors, s, m, 4, N), \
                    (s, m, N)
    # m is checked before the terms past kvars are skipped
    with pytest.raises(ValueError, match="base exponent m must be >= 1"):
        hl_ls_2r1s(0, 1, 0, 0, 6)


def test_h_step_and_psi_match_factor_by_factor():
    # m >= 1, as their callers ensure: hl_chain_sum and hl_weighted_chain
    # pass n >= 1, and hl_inf_spec checks m
    for m in range(1, 4):
        for u in range(7):
            for l in range(u + 1):
                for l_next in range(l + 1):
                    for W in range(-2, 25):
                        # == compares terms, q_order and q_floor
                        assert hall_littlewood._h_step.__wrapped__(
                            u, l, l_next, m, W) == \
                            h_step_by_factors(u, l, l_next, m, W), \
                            (u, l, l_next, m, W)
        for mu in partitions_iter(8):
            for nu in partitions_iter(8):
                assert hall_littlewood._psi_poly.__wrapped__(mu, nu, m) == \
                    psi_poly_by_factors(mu, nu, m), (mu, nu, m)


def test_chain_sum_equals_bounded_hl_sum():
    for k in (1, 2):
        for n in (1, 2, 3):
            a = hl_chain_sum(k, n, 16)
            b = hl_sum_over_bounded(k, n, 16)
            assert a.compare(b, 16) is None, (k, n)


def _h_step_uncut(upper, lower, m):
    """The exact chain-step product, with no window: the oracle of
    _pair_step."""
    e = sum(lower)
    out = QSeries.one()
    for i, u in enumerate(upper):
        li = lower[i] if i < len(lower) else 0
        lnext = lower[i + 1] if i + 1 < len(lower) else 0
        e += m * ((u - li) * (u - li - 1) // 2)
        out = out * qbin_by_pascal(u - lnext, u - li, m)
    return QSeries.monomial(1, dq=e) * out


# -- the pair DP: the chain sums over every pair (mu, nu <= mu), memoised
# per (a, mu) and top, the oracle of hall_littlewood._chain_dp, which sums
# hl_chain_sum and both levels of hl_weighted_chain one part at a time in
# tables shared by every top and cut by the key alone


def _pair_step(upper, lower, m, W):
    """One chain-step weight: prod_i q^{lower_i} t^{C(upper_i - lower_i,
    2)} qbin(upper_i - lower_{i+1}, upper_i - lower_i)_t with t = q^m
    (entries beyond l(upper) contribute 1), cut at q^W, with floor e."""
    low = lower + (0,) * (len(upper) + 1 - len(lower))
    e = sum(lower) + sum(m * ((u - low[i]) * (u - low[i] - 1) // 2)
                         for i, u in enumerate(upper))
    if e > W:
        return QSeries({}, W, e, _clean=True)
    out = QSeries.monomial(1, dq=e, order=W)
    for i, u in enumerate(upper):
        out = out * qbin_by_pascal(u - low[i + 1], u - low[i],
                                   m).truncate(W - e)
    return out


def _pair_chain_dp(n, N, spent_bound, step):
    """G_a(mu) = sum over nu <= mu of step(mu, nu, n, W) G_{a+1}(nu), cut
    at W = N - spent_bound(a, |mu|), memoised per (a, mu)."""
    memo = {}

    def G(a, mu):
        if a == n:
            return QSeries.one(None) if not mu else QSeries.zero()
        if (a, mu) not in memo:
            my_ord = N - spent_bound(a, sum(mu))
            memo[(a, mu)] = QSeries.collect(
                (((0, 0, 0), step(mu, nu, n, my_ord) * G(a + 1, nu))
                 for nu in sub_partitions(mu)
                 if spent_bound(a + 1, sum(nu)) <= N), my_ord, 0)
        return memo[(a, mu)]

    return G


def _pair_chain_sum(k, n, N, step=_pair_step):
    G = _pair_chain_dp(n, N, lambda a, w: ((2 * a + 1) * w + 1) // 2, step)
    return QSeries.collect(
        (((csum, 0, 0), multisum_term(csum, factors, N) * G(0, mu0))
         for csum, mu0, factors in hall_littlewood._tops(k, n, N)), N, 0)


def _pair_weighted_chain(variant, param, N, step=_pair_step):
    n, k = (param, 1) if variant == "v1" else (2, param)
    G = _pair_chain_dp(n, N, lambda a, w: a * w, step)

    def parts():
        for csum, mu0, factors in hall_littlewood._tops(k, n, N):
            gaps = multisum_term(0, factors, N)
            for mu1 in sub_partitions(mu0):
                e = n * (csum - (mu1[0] if mu1 else 0))
                if sum(mu1) <= N and e <= N:
                    yield (csum, 0, e), \
                        gaps * step(mu0, mu1, n, N - e) * G(1, mu1)

    return QSeries.collect(parts(), N, 0)


def test_h_step_is_the_cut_uncut_step():
    for upper in partitions_iter(12, part_max=4, len_max=3):
        for lower in sub_partitions(upper):
            for m in (1, 2, 3):
                full = _h_step_uncut(upper, lower, m)
                for W in (0, 1, 3, 7, 12):
                    # == compares terms, q_order and q_floor
                    assert _pair_step(upper, lower, m, W) == \
                        full.truncate(W), (upper, lower, m, W)


def test_part_factors_multiply_to_the_pair_step():
    for upper in partitions_iter(12, part_max=4, len_max=3):
        for lower in sub_partitions(upper):
            low = lower + (0,) * (len(upper) + 1 - len(lower))
            for m in (1, 2, 3):
                for W in (0, 1, 3, 7, 12):
                    prod = QSeries.one()
                    for i, u in enumerate(upper):
                        prod = prod * hall_littlewood._h_step(
                            u, low[i], low[i + 1], m, W)
                    assert prod.truncate(W) == \
                        _pair_step(upper, lower, m, W), (upper, lower, m, W)


def test_chain_sums_match_the_pair_dp():
    # == compares terms, q_order and q_floor
    for k in range(4):
        for n in range(1, 5):
            for N in (0, 1, 3, 6, 10):
                assert hl_chain_sum(k, n, N) == _pair_chain_sum(k, n, N), \
                    (k, n, N)
    grid = [("v1", n) for n in range(1, 6)] + [("v2", k) for k in range(1, 5)]
    for variant, param in grid:
        for N in (-1, 0, 1, 2, 3, 6, 10, 13):
            assert hl_weighted_chain(variant, param, N) == \
                _pair_weighted_chain(variant, param, N), (variant, param, N)
    # the criterion-12 points at their order, where level-0 tables are
    # shared by tops of different shifts (v2, k >= 2)
    for variant, param in grid:
        if param <= {"v1": 4, "v2": 3}[variant]:
            assert hl_weighted_chain(variant, param, 18) == \
                _pair_weighted_chain(variant, param, 18), (variant, param)


def test_chain_sums_match_uncut_steps():
    # the fast builders' windows drop only terms that cannot reach the sum:
    # they equal the pair DP with every step uncut
    def uncut(upper, lower, m, W):
        return _h_step_uncut(upper, lower, m)

    for k in range(4):
        for n in range(1, 5):
            for N in (0, 1, 3, 6, 10):
                assert hl_chain_sum(k, n, N) == \
                    _pair_chain_sum(k, n, N, uncut), (k, n, N)
    grid = [("v1", n) for n in range(1, 5)] + [("v2", k) for k in range(1, 4)]
    for variant, param in grid:
        for N in (0, 1, 3, 6, 10):
            assert hl_weighted_chain(variant, param, N) == \
                _pair_weighted_chain(variant, param, N, uncut), \
                (variant, param, N)


def _symmetrization_uncut(lam, L, m, N, xstep):
    """Every coset unit expanded through N - min(shift, 0), cut at N only
    in the sum: the oracle of hl_symmetrization's per-coset windows."""
    padded = list(lam) + [0] * (L - len(lam))
    parts = [((0, 0, shift), hall_littlewood._sym_unit(
                 sign, num, den, N - min(shift, 0)))
             for shift, sign, num, den in hall_littlewood._sym_cosets(
                 padded, m, xstep)]
    return QSeries.collect(parts, N,
                           min([0] + [shift for (_, _, shift), _ in parts]))


def test_symmetrization_matches_uncut_cosets():
    for L in range(6):
        for lam in partitions_iter(15, part_max=3, len_max=L):
            for m in (1, 2, 3):
                for xstep in {1, m}:
                    for N in (0, 1, 4, 10):
                        assert hl_symmetrization(lam, L, m, N, xstep) == \
                            _symmetrization_uncut(lam, L, m, N, xstep), \
                            (lam, L, m, xstep, N)


def test_weighted_chain_small():
    # v1 at n=1 is the two-variable first Rogers-Ramanujan series
    v = hl_weighted_chain("v1", 1, 10)
    rr = ag_sum(1, 1, 10)
    assert v.compare(rr, 10) is None
    with pytest.raises(ValueError):
        hl_weighted_chain("v1", 0, 5)
    with pytest.raises(ValueError):
        hl_weighted_chain("v3", 1, 5)


def test_v1_v2_consistency():
    # mu0 has equal pairs, so the two weighted sums coincide at k=1, n=2
    a = hl_weighted_chain("v1", 2, 14)
    b = hl_weighted_chain("v2", 1, 14)
    assert a.compare(b, 14) is None
