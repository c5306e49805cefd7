"""Hall-Littlewood specialisations.

Four independent routes to specialised Hall-Littlewood polynomials are
implemented and cross-checked against each other:

* hl_principal_finite: the closed form for P_lambda(1, t, ..., t^{k-1}; t),
  valid for any t (here t = q^m);
* hl_symmetrization: the defining coset-symmetrization, evaluated at a
  geometric point x_i = q^{step*(i-1)} by exact series division;
* hl_ls_2r1s: the Lassalle-Schlosser single sum for shapes (2^r, 1^s) at
  x_i = q^{i-1};
* hl_inf_spec: P_lambda(1, q, q^2, ...; q^m) by the branching rule over
  horizontal-strip chains (the weight (1 - t^{m_i}) over indices where the
  smaller partition has one extra part of size i is validated in-repo
  against the symmetrization).

On top of these sit the chain multisum HL_{k,n}(z,q), its two weighted
variants, the Gordon-Ono-Warnaar style multisum for P_{(2^r)}, and the
two sides of a Bailey pair, from its alpha sequence and in Hall-Littlewood
form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .series import QSeries, _qbin_factors, euler_product, poch

# A partition is a tuple of weakly decreasing positive ints; the empty
# tuple is the unique partition of 0.
Partition = tuple[int, ...]


def check_partition(parts: Partition) -> Partition:
    for i, p in enumerate(parts):
        if p < 1:
            raise ValueError("parts must be positive: %r" % (parts,))
        if i and parts[i - 1] < p:
            raise ValueError("parts must be weakly decreasing: %r" % (parts,))
    return tuple(parts)


def frequencies(lam: Partition) -> dict[int, int]:
    freq: dict[int, int] = {}
    for p in lam:
        freq[p] = freq.get(p, 0) + 1
    return freq


def n_stat(lam: Partition) -> int:
    """n(lambda) = sum (i-1) * lambda_i."""
    return sum(i * p for i, p in enumerate(lam))


def multisum_term(e: int, factors, N: int) -> QSeries:
    """q^e / prod over (base, count) in factors of (q^base; q^base)_count,
    to order N; count 0 factors are 1, and with no other factor the term
    is the exact monomial q^e."""
    pochs = [(base, base, count, -1) for base, count in factors if count]
    if not pochs:
        return QSeries.monomial(1, dq=e, order=None)
    return euler_product(pochs, N, 1, e)


def _ls_factors(i: int, s: int, m: int) -> list:
    """[i+s, s]_t (1 - t^{2i+s}) / (1 - t^{i+s}) at t = q^m, s >= 0, as
    euler_product factors ([i+s, s] = [i+s, i]); the i = 0 ratio counts
    as 1."""
    out = _qbin_factors(i + s, i, m)
    if i > 0:
        a, b = m * (2 * i + s), m * (i + s)
        out += [(a, a, 1, 1), (b, b, 1, -1)]
    return out


def hl_principal_finite(lam: Partition, kvars: int, m: int, N: int) -> QSeries:
    """P_lambda(1, t, ..., t^{kvars-1}; t) at t = q^m via the closed form
    t^{n(lambda)} (t;t)_kvars / prod_{i>=0} (t;t)_{f_i}, f_0 = kvars - l."""
    lam = check_partition(lam)
    if m < 1:
        raise ValueError("m >= 1")
    if len(lam) > kvars:
        return QSeries({}, N, 0, _clean=True)
    return euler_product([(m, m, kvars, 1), (m, m, kvars - len(lam), -1)] +
                         [(m, m, f, -1) for f in frequencies(lam).values()],
                         N, 1, m * n_stat(lam))


def hl_ls_2r1s(r: int, s: int, kvars: int, m: int, N: int) -> QSeries:
    """P_{(2^r,1^s)}(1, q, ..., q^{kvars-1}; q^m) by the Lassalle-Schlosser
    sum over i = 0..r; the i = 0 ratio (1-t^s)/(1-t^s) counts as 1."""
    if r < 0 or s < 0:
        raise ValueError("r, s >= 0")
    if m < 1:
        raise ValueError("base exponent m must be >= 1")

    def term(i: int) -> QSeries:
        e = m * (i * (i - 1) // 2) + \
            (r - i) * (r - i - 1) // 2 + (r + s + i) * (r + s + i - 1) // 2
        return euler_product(_ls_factors(i, s, m) +
                             _qbin_factors(kvars, r - i, 1) +
                             _qbin_factors(kvars, r + s + i, 1),
                             N, (-1) ** i, e)

    # the term i is 0 once [kvars, r+s+i]_q is, at r+s+i > kvars (and
    # r-i <= r+s+i); its factors would read that as a count of 0
    return QSeries.collect((((0, 0, 0), term(i))
                            for i in range(min(r, kvars - r - s) + 1)),
                           N, 0)


def hl_symmetrization(lam: Partition, L: int, m: int, N: int,
                      xstep: int = 1) -> QSeries:
    """P_lambda(x_1,...,x_L; q^m) at x_i = q^{xstep*(i-1)} from the coset
    symmetrization sum_{w in S_L/S_L^lambda} w(x^lambda prod (x_i - t x_j)
    / (x_i - x_j)), expanded by exact series division.

    xstep = m evaluates the fully principal point 1, t, ..., t^{L-1}.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    lam = check_partition(lam)
    if not 0 <= len(lam) <= L:
        raise ValueError("need l(lambda) <= L")
    if L > 9:
        raise ValueError("L > 9 is a factorial-cost wall (L! cosets)")
    parts: list[tuple[tuple[int, int, int], QSeries]] = []
    for shift, sign, num_factors, den_factors in _sym_cosets(
            list(lam) + [0] * (L - len(lam)), m, xstep):
        # the unit has exponents >= 0, so the window needs it only through
        # N - shift; a coset with shift > N adds no term, and skipping a
        # positive shift leaves the floor min(0, shifts) as it is
        if shift > N:
            continue
        parts.append(((0, 0, shift),
                      _sym_unit(sign, num_factors, den_factors, N - shift)))
    return QSeries.collect(parts, N,
                           min([0] + [shift for (_, _, shift), _ in parts]))


def _sym_cosets(padded: list[int], m: int, xstep: int):
    """The nonzero coset terms of hl_symmetrization at shape ``padded``
    (with L entries), as (shift, sign, num_factors, den_factors): the term
    is sign * q^shift * prod (1 - q^u) / prod (1 - q^v) over u in
    num_factors and v in den_factors."""
    L = len(padded)
    pairs = [(i, j) for i in range(L) for j in range(L)
             if padded[i] > padded[j]]
    for alpha in sorted(set(permutations(padded)), reverse=True):
        # order-preserving assignment of original indices to positions
        w = [0] * L
        taken = {}
        for i in range(L):
            v = padded[i]
            pos = taken.get(v, 0)
            while alpha[pos] != v:
                pos += 1
            w[i] = pos
            taken[v] = pos + 1
        sign = 1
        shift = sum(padded[i] * xstep * w[i] for i in range(L))
        num_factors: list[int] = []
        den_factors: list[int] = []
        dead = False
        for (i, j) in pairs:
            a = xstep * w[i]
            b = m + xstep * w[j]
            if a == b:
                dead = True
                break
            shift += min(a, b)
            if a > b:
                sign = -sign
            num_factors.append(abs(a - b))
            c, d = xstep * w[i], xstep * w[j]
            shift -= min(c, d)
            if c > d:
                sign = -sign
            den_factors.append(abs(c - d))
        if not dead:
            yield shift, sign, num_factors, den_factors


def _sym_unit(sign: int, num_factors: list[int], den_factors: list[int],
              inner: int) -> QSeries:
    """sign * prod (1 - q^u) / prod (1 - q^v), exact through q^inner."""
    return euler_product([(u, u, 1, 1) for u in num_factors] +
                         [(v, v, 1, -1) for v in den_factors], inner, sign)


# -- infinite principal specialisation via branching -------------------------


@lru_cache(maxsize=1024)  # a catalog pass fills 385
def _psi_poly(mu: Partition, nu: Partition, m: int) -> tuple[tuple[int, int], ...]:
    """Branching weight of the horizontal strip nu/mu as (exponent, coeff)
    pairs: prod over {i: m_i(mu) = m_i(nu) + 1} of (1 - t^{m_i(mu)}), t=q^m."""
    mm, mn = frequencies(mu), frequencies(nu)
    exps = [m * f for i, f in mm.items() if f == mn.get(i, 0) + 1]
    poly = euler_product([(e, e, 1, 1) for e in exps], sum(exps))
    return tuple(sorted((dq, c) for (_, _, dq), c in poly.terms.items()))


@lru_cache(maxsize=512)  # a catalog pass fills 194
def _strips_within(mu: Partition, cap: Partition) -> tuple[Partition, ...]:
    """All nu with mu <= nu <= cap and nu/mu a horizontal strip."""
    out: list[Partition] = []
    k = len(cap)

    def rec(i: int, acc: list[int]):
        if i == k:
            lam = tuple(acc)
            while lam and lam[-1] == 0:
                lam = lam[:-1]
            out.append(lam)
            return
        lo = mu[i] if i < len(mu) else 0
        hi = cap[i] if i == 0 else min(acc[i - 1], cap[i])
        # strip condition: nu_{i+1} <= mu_i
        if i > 0:
            hi = min(hi, mu[i - 1] if i - 1 < len(mu) else 0)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            rec(i + 1, acc)
            acc.pop()

    rec(0, [])
    return tuple(out)


def hl_inf_spec(lam: Partition, m: int, N: int) -> QSeries:
    """P_lambda(1, q, q^2, ...; q^m) to order N.

    Sums over chains of horizontal strips empty = nu^(0) < ... < nu^(L)
    = lambda with L = N + 1 variables (monomials touching variable index
    > N have q-degree > N, so this is the stable value through q^N)."""
    lam = check_partition(lam)
    if m < 1:
        raise ValueError("m >= 1")
    if not lam:
        return QSeries.one(N)
    L = N + 1
    wt = sum(lam)
    state: dict[Partition, dict[int, int]] = {(): {0: 1}}
    for step in range(1, L + 1):
        new: dict[Partition, dict[int, int]] = {}
        xexp = step - 1
        for mu, coeffs in state.items():
            wmu = sum(mu)
            for nu in _strips_within(mu, lam):
                grow = (sum(nu) - wmu) * xexp
                psi = _psi_poly(mu, nu, m)
                acc = new.setdefault(nu, {})
                rem = wt - sum(nu)
                for d, c in coeffs.items():
                    for pd, pc in psi:
                        e = d + grow + pd
                        if e + step * rem > N:
                            continue
                        acc[e] = acc.get(e, 0) + c * pc
        # drop zeros first: an empty nu leaves the state, which can end
        # the loop early
        state = {}
        for nu, cs in new.items():
            cs = {e: c for e, c in cs.items() if c}
            if cs:
                state[nu] = cs
        if list(state) == [lam]:
            # every next step multiplies by psi = 1 with grow = 0
            break
    final = state.get(lam, {})
    return QSeries({(0, 0, d): c for d, c in final.items() if d <= N}, N, 0,
                   _clean=True)


def prop_gow_sum(r: int, n: int, delta: int, N: int) -> QSeries:
    """The (n-fold) multisum for P_{(2^r)}(1, q, q^2, ...; q^{2n+delta}):
    sum over r >= r_1 >= ... >= r_n >= 0 of
    q^{r^2 - r + sum r_i^2 + sum r_i} / ((q;q)_{r-r_1} ... (q^{2-delta};
    q^{2-delta})_{r_n})."""
    if delta not in (0, 1) or 2 * n + delta < 1:
        raise ValueError("delta in {0, 1}, 2n + delta >= 1")
    if r < 0:
        raise ValueError("r >= 0")

    # e is the exponent so far; every r_i adds r_i^2 + r_i >= 0
    def terms(chain: list[int], e: int):
        if e > N:
            return
        if len(chain) == n + 1:
            yield (0, 0, 0), multisum_term(
                e, [(1, chain[i] - chain[i + 1]) for i in range(n)] +
                [(2 - delta, chain[-1])], N)
            return
        for v in range(chain[-1], -1, -1):
            chain.append(v)
            yield from terms(chain, e + v * v + v)
            chain.pop()

    return QSeries.collect(terms([r], r * (r - 1)), N, 0)


# -- chain multisums ---------------------------------------------------------


@lru_cache(maxsize=1024)  # a catalog pass fills 410
def _h_step(u: int, l: int, l_next: int, m: int, W: int) -> QSeries:
    """One part's chain-step factor q^l t^{C(u - l, 2)} [u - l_next,
    u - l]_t with t = q^m, cut at q^W.  A chain step from mu to nu is
    the product of these over the parts (u, l, l_next) = (mu_i, nu_i,
    nu_{i+1}), with nu padded by zeros.

    The factor is q^e times a Gaussian binomial with constant term 1,
    built with euler_product's window (W, e): the empty series with floor
    e when e > W.  A floor of 0 there would claim a window e short of W,
    and a product with it would drop kept terms."""
    e = l + m * ((u - l) * (u - l - 1) // 2)
    return euler_product(_qbin_factors(u - l_next, u - l, m), W, 1, e)


def _tops(k: int, n: int, N: int):
    """Per top of a chain in S_{k,n}: (csum, mu0, factors) for each weakly
    decreasing c = (c_1, ..., c_k) >= 0 with csum = |c| <= N, mu0 = (c_1,
    c_1, c_2, c_2, ...) without zeros the top partition and factors the
    (base, count) pairs of the top's lead 1 / prod_j (q^n; q^n)_{c_j -
    c_{j+1}} (see multisum_term)."""
    def rec(c: tuple[int, ...], left: int):
        if len(c) == k:
            yield sum(c), tuple(v for v in c for _ in range(2) if v), \
                [(n, v - (c[j + 1] if j + 1 < k else 0))
                 for j, v in enumerate(c)]
            return
        for v in range(min(c[-1] if c else N, left), -1, -1):
            yield from rec(c + (v,), left - v)

    return rec((), N)


def _chain_dp(k: int, n: int, N: int, spent, lift: int = 0) -> QSeries:
    """The chain sum over the tops (csum, mu0, factors) of _tops(k, n, N):
    the sum of z^csum q^e multisum_term(0, factors, N - e) G_0(mu0) over
    the tops with e = spent(0, mu0) <= N.  G_n(mu) is 1 if mu is empty
    else 0, and G_a(mu) is the sum over nu <= mu of q^{[a = 0] lift (mu_1
    - nu_1)} prod_i f(mu_i, nu_i, nu_{i+1}) G_{a+1}(nu), with f the
    factor of _h_step, summed one nu_i at a time (variable elimination):

        T_0(nu) = G_{a+1}(nu),
        T_j(key) = sum_{l = key_{j+1}}^{key_j} f(key_j, l, key_{j+1})
                   T_{j-1}(key with key_j replaced by l),

    the lift riding on the factor of T_1 at a = 0, and G_a(mu) = T_L(mu),
    L = l(mu).  The key of T_j is (mu_1, ..., mu_j, nu_{j+1}, ..., nu_L)
    without trailing zeros, again a partition; one memo per level holds
    the tables by (j, key), shared by every mu and top that reaches them.
    A table with no terms is one shared empty series, and a top whose
    G_0(mu0) has none builds no lead.

    T_j(key) at level a is cut at N - spent(a, key) - (key_{j+1} + ... +
    key_L), and a term whose factor (with its lift) alone passes the cut
    is skipped.  At a top the cut is N - e, all that the lead (exponents
    >= 0) needs.  No cut term reaches a kept one if, for partitions key'
    <= key (partwise),

    (1) spent(a, key') <= spent(a, key) when key'_1 = key_1, and
    (2) spent(a + 1, key') <= spent(a, key) + |key'| + [a = 0] lift
        (key_1 - key'_1) when key'_i = key_i for i >= 2.

    Indeed T_j(key) needs T_{j-1}(key') only through its own cut less l
    (and the lift), the least exponent of the factor, and the cut of
    T_{j-1}(key') is no lower: by (1) when j >= 2, and by (2) when j =
    1, where T_0(key') = G_{a+1}(key') is cut at N - spent(a+1, key')."""
    memos: list[dict] = [{} for _ in range(n)]
    empty = QSeries.zero()

    def T(a: int, j: int, key: Partition) -> QSeries:
        if j == 0:
            if a + 1 == n:
                return QSeries.one(None) if not key else empty
            return T(a + 1, len(key), key)
        got = memos[a].get((j, key))
        if got is not None:
            return got
        W = N - spent(a, key) - sum(key[j:])
        u = key[j - 1]
        nxt = key[j] if j < len(key) else 0
        lift_u = lift if a == 0 and j == 1 else 0
        parts = []
        for l in range(nxt, u + 1):
            s = lift_u * (u - l)
            if s + l + n * ((u - l) * (u - l - 1) // 2) > W:
                continue
            # l = 0 only when key_{j+1}, ... are 0: the key stays stripped
            rest = T(a, j - 1, key[:j - 1] + ((l,) if l else ()) + key[j:])
            if rest.terms:
                parts.append(((0, 0, s), _h_step(u, l, nxt, n, W - s) * rest))
        memos[a][(j, key)] = out = \
            QSeries.collect(parts, W, 0) if parts else empty
        return out

    def parts():
        for csum, mu0, factors in _tops(k, n, N):
            e = spent(0, mu0)
            if e <= N:
                g = T(0, len(mu0), mu0)
                if g.terms:
                    yield (csum, 0, e), multisum_term(0, factors, N - e) * g

    return QSeries.collect(parts(), N, 0)


def hl_chain_sum(k: int, n: int, N: int) -> QSeries:
    """HL_{k,n}(z,q): the chain multisum equal (by the branching rule) to
    sum_{lambda_1 <= k} (zq)^{|lambda|} P_{2 lambda}(1, q, q^2, ...; q^n).

    Evaluated by dynamic programming over the nested levels (_chain_dp),
    each level summed one part at a time."""
    if n < 1:
        raise ValueError("n >= 1")
    if k < 0:
        raise ValueError("k >= 0")
    # the top carries q^{|mu0|/2} and each step above level a carries
    # q^{|mu|}: spent grows with |mu| alone, and by |mu| from a to a + 1
    return _chain_dp(k, n, N,
                     lambda a, mu: ((2 * a + 1) * sum(mu) + 1) // 2)


def hl_weighted_chain(variant: str, param: int, N: int) -> QSeries:
    """The two weighted chain sums (z evaluated at z/q):

    * variant "v1", param n >= 1: sum over S_{1,n} with weight
      q^{n mu0_1 - n mu1_1};
    * variant "v2", param k >= 1: sum over S_{k,2} with weight
      q^{sum_i mu0_i - 2 mu1_1}.

    With csum = |mu0| / 2 both weights are q^{n (csum - mu1_1)}, and the
    z/q evaluation cancels the q^{csum} of the top row.  The weight is
    q^{n (csum - mu0_1)} q^{n (mu0_1 - mu1_1)}: the shift e = spent(0, mu0)
    of the top, with spent(0, mu) = max(0, n (|mu| - 2 mu_1) // 2), and
    the lift n of _chain_dp; below the first level spent(a, mu) = a |mu|.
    (1) of _chain_dp holds as spent(a, mu) grows with |mu| at a fixed
    mu_1: a level-0 key has the first part of every top it feeds and no
    larger size, so its cut is no lower than theirs.  (2) holds as
    spent(1, key') = |key'| and (a + 1) |key'| <= a |key| + |key'|.
    """
    if variant == "v1":
        n, k = param, 1
        if n < 1:
            raise ValueError("v1 needs n >= 1")
    elif variant == "v2":
        k, n = param, 2
        if k < 1:
            raise ValueError("v2 needs k >= 1")
    else:
        raise ValueError(variant)
    return _chain_dp(k, n, N, lambda a, mu: a * sum(mu) if a else
                     max(0, n * (sum(mu) - 2 * sum(mu[:1])) // 2), lift=n)


def hl_sum_over_bounded(k: int, m: int, N: int) -> QSeries:
    """sum_{lambda_1 <= k} (zq)^{|lambda|} P_{2 lambda}(1, q, ...; q^m),
    assembled from hl_inf_spec; the oracle for hl_chain_sum."""
    def parts(prev: int, acc: list[int]):
        wl = sum(acc)
        yield (wl, 0, wl), hl_inf_spec(tuple(2 * p for p in acc), m, N - wl)
        for v in range(1, min(prev, k) + 1):
            if wl + v > N:
                break
            acc.append(v)
            yield from parts(v, acc)
            acc.pop()

    return QSeries.collect(parts(k, []), N, 0)


# -- Bailey pair --------------------------------------------------------------


def bailey_alpha_side(s: int, m: int, r_max: int, N: int) -> QSeries:
    """sum_{r <= r_max} z^r beta_r to order N, beta_r built from the alpha
    sequence of the Bailey pair relative to q^s with t = q^m."""
    def term(r: int, i: int) -> QSeries:
        e = m * (i * (i - 1) // 2) + i * (i + s)
        return euler_product(_ls_factors(i, s, m) + [
            (1, 1, r - i, -1), (s + 1, 1, r + i, -1)], N, (-1) ** i, e)

    return QSeries.collect((((r, 0, 0), term(r, i))
                            for r in range(r_max + 1) for i in range(r + 1)),
                           N, 0)


def bailey_hl_side(s: int, m: int, r_max: int, N: int) -> QSeries:
    """sum_{r <= r_max} z^r q^{-binom(r,2)-binom(r+s,2)} (q;q)_s
    P_{(2^r,1^s)}(1,q,...; q^m) to order N, the Hall-Littlewood form of
    the beta_r of bailey_alpha_side."""
    def parts():
        for r in range(r_max + 1):
            D = r * (r - 1) // 2 + (r + s) * (r + s - 1) // 2
            shape = tuple([2] * r + [1] * s)
            yield (r, 0, -D), \
                hl_inf_spec(shape, m, N + D) * poch(1, 1, s, N + D)

    return QSeries.collect(parts(), N, 0)
