"""Explicit multisum sides: Andrews-Gordon and F-sums, the double sums in
(r_i, s_i) with base-q and base-q^2 Pochhammers, the w-deformed k=2 system
and its four-fold auxiliary S-series with the atomic shift relations.

All sums are evaluated with exact lower bounds derived from their
quadratic exponents; index tuples violating the chain inequalities are
skipped (the usual 1/(q;q)_{negative} = 0 convention).

Every double sum has the exponent sum_i (r_i+s_i)^2 + s_i^2 plus a
linear term sum_i lin_r[i] r_i + lin_s[i] s_i.  A variant is data: the
tables _SHUN2_ROWS and _WZ_ROWS map it to (lin_r, lin_s, omega), its two
coefficient rows and whether it carries the Omega weight, s_series is one
row pair, and _double_sum evaluates them all.
"""

from __future__ import annotations

from math import isqrt

from .hall_littlewood import multisum_term
from .series import QSeries


def _chain_sum(k: int, a: int, last_base: int, z_all: bool,
               N: int) -> QSeries:
    """sum over r_1 >= ... >= r_k >= 0 of z^{r_1+...+r_k if z_all else
    r_1} q^{r_1^2+...+r_k^2+r_{a+1}+...+r_k} / ((q;q)_{r_1-r_2} ...
    (q;q)_{r_{k-1}-r_k} (q^last_base; q^last_base)_{r_k}), k >= 1."""
    def parts(chain: list[int]):
        if len(chain) == k:
            e = sum(v * v for v in chain) + sum(chain[a:])
            if e <= N:
                yield (sum(chain) if z_all else chain[0], 0, 0), multisum_term(
                    e, [(1, chain[i] - chain[i + 1]) for i in range(k - 1)] +
                    [(last_base, chain[-1])], N)
            return
        cap = chain[-1] if chain else isqrt(N)
        base = sum(v * v for v in chain)
        for v in range(cap + 1):
            if base + v * v > N:
                break
            chain.append(v)
            yield from parts(chain)
            chain.pop()

    return QSeries.collect(parts([]), N, 0)


def f_sum(n: int, a: int, delta: int, N: int) -> QSeries:
    """F^{(n)}_{a,delta}(z,q): the n-fold sum over r_1 >= ... >= r_n >= 0 of
    z^{r_1} q^{r_1^2+...+r_n^2+r_{a+1}+...+r_n} with denominators
    (q;q)_{r_i - r_{i+1}} and a final (q^{2-delta}; q^{2-delta})_{r_n}."""
    if not 0 <= a <= n:
        raise ValueError("need 0 <= a <= n")
    if delta not in (0, 1):
        raise ValueError("delta in {0,1}")
    if n == 0:
        raise ValueError("n >= 1")
    return _chain_sum(n, a, 2 - delta, False, N)


def ag_sum(k: int, a: int, N: int) -> QSeries:
    """The Andrews-Gordon multisum: sum over r_1 >= ... >= r_k >= 0 of
    z^{r_1+...+r_k} q^{r_1^2+...+r_k^2+r_{a+1}+...+r_k} /
    ((q;q)_{r_1-r_2} ... (q;q)_{r_k})."""
    if not 0 <= a <= k:
        raise ValueError("need 0 <= a <= k")
    if k == 0:
        return QSeries.one(N)
    return _chain_sum(k, a, 1, True, N)


# -- double (r, s) sums ------------------------------------------------------


def _double_sum(k: int, N: int, lin_r, lin_s, w_apart: bool = False,
                omega: bool = False) -> QSeries:
    """sum over r_1 >= ... >= r_k >= 0 and 0 <= s_1 <= ... <= s_k of
    z^{|r|+|s|} (w_apart: z^{|r|} w^{|s|}) q^{sum_i (r_i+s_i)^2 + s_i^2 +
    lin_r[i] r_i + lin_s[i] s_i} / prod_i ((q;q)_{r_i-r_{i+1}}
    (q^2;q^2)_{s_i-s_{i-1}}), times Omega = sum_{i<k} q^{r_i+2s_i}
    (1-q^{2s_{i+1}-2s_i}) + q^{r_k+2s_k} if omega.

    A row shorter than k repeats its last entry; entries may have any sign.
    Index i adds g = (r+s)^2 + s^2 + a r + b s, (a, b) = (lin_r[i],
    lin_s[i]), and g >= (r^2 + a r) + (2s^2 + b s) >= least[i], the sum of
    the brackets' minima over integers r, s >= 0.  Indices fill from k-1
    down (r grows, s shrinks); those left add at least low[i] = least[0] +
    ... + least[i-1] (Omega adds exponents >= 0), so f + low[i] > N prunes.
    g is convex in s: past an s over budget with forward difference 2r + 4s
    + 2 + b >= 0, no s fits.  Past an r where r^2 + a r + min(2s^2 + b s) is
    over budget and 2r + 1 + a >= 0, no r fits.  The cap: with c = max(0,
    -min entry), r^2 + a r <= N - sum(least) = M and r^2 + a r >= (r -
    c/2)^2 - c^2/4 give r <= c + isqrt(M), and s alike.
    """
    if k < 0:
        raise ValueError("k >= 0")
    if k == 0:
        return QSeries.one(N)
    lin_r = [lin_r[min(i, len(lin_r) - 1)] for i in range(k)]
    lin_s = [lin_s[min(i, len(lin_s) - 1)] for i in range(k)]

    def least(c2: int, c1: int) -> int:  # min of c2 v^2 + c1 v over v >= 0
        return min(c2 * v * v + c1 * v for v in range(max(0, -c1) + 1))

    ls = [least(2, b) for b in lin_s]
    low = [0]
    for a, b in zip(lin_r, ls):
        low.append(low[-1] + least(1, a) + b)
    cap = isqrt(N - low[k]) + max(0, -min(lin_r + lin_s)) + 1
    r, s = [0] * (k + 1), [0] * k  # r[k] = 0 bounds r[k-1] below

    def term(e: int) -> QSeries:
        out = multisum_term(e, [
            f for i in range(k)
            for f in ((1, r[i] - r[i + 1]), (2, s[i] - (s[i - 1] if i else 0)))
        ], N)
        if omega:
            one = QSeries.one()
            out = out * QSeries.collect(
                [((0, 0, r[i] + 2 * s[i]), one) for i in range(k)] +
                [((0, 0, r[i] + 2 * s[i + 1]), -one) for i in range(k - 1)],
                None, 0)
        return out

    def parts(i: int, e: int):
        if i < 0:
            key = ((sum(r), sum(s), 0) if w_apart
                   else (sum(r) + sum(s), 0, 0))
            yield key, term(e)
            return
        a, b, room = lin_r[i], lin_s[i], N - low[i]
        s_hi = s[i + 1] if i + 1 < k else cap
        for r[i] in range(r[i + 1], cap + 1):
            if (e + r[i] ** 2 + a * r[i] + ls[i] > room
                    and 2 * r[i] + 1 + a >= 0):
                break
            for s[i] in range(s_hi + 1):
                f = e + (r[i] + s[i]) ** 2 + s[i] ** 2 + a * r[i] + b * s[i]
                if f <= room:
                    yield from parts(i - 1, f)
                elif 2 * r[i] + 4 * s[i] + 2 + b >= 0:
                    break

    return QSeries.collect(parts(k - 1, 0), N, 0)


_SHUN2_ROWS = {"kL0": ((1,), (2,), False), "kL1": ((0,), (0,), False),
               "omega": ((0,), (0,), True), "omega_r1": ((1, 0), (0,), True)}


def shun_sum(k: int, N: int) -> QSeries:
    """sum prod_i z^{r_i+s_i} q^{(r_i+s_i)^2 + s_i^2 + s_i} /
    ((q;q)_{r_i-r_{i+1}} (q^2;q^2)_{s_i-s_{i-1}}): the conjectured
    expansion of sum_{lambda_1<=k} (zq)^{|lambda|} P_{2 lambda}(...; q^2)."""
    return _double_sum(k, N, (0,), (1,))


def shun2_sum(k: int, variant: str, N: int) -> QSeries:
    """The three conjectured multisums for the rank-2 even-parity family:
    variant "kL0" (exponent extra r_i + 2s_i), "kL1" (no extra), or
    "omega" (Omega-weighted, weight Lambda_0 + (k-1) Lambda_1); "omega_r1"
    is the second single-Omega rewriting (extra exponent r_1)."""
    if variant not in _SHUN2_ROWS:
        raise ValueError(variant)
    lin_r, lin_s, omega = _SHUN2_ROWS[variant]
    if omega and k < 1:
        raise ValueError("%s variant needs k >= 1" % variant)
    return _double_sum(k, N, lin_r, lin_s, omega=omega)


# -- the w-deformed k=2 series and guesses -----------------------------------

_WZ_ROWS = {"A": ((1,), (2,), False), "B": ((0,), (0,), False),
            "C": ((0, 1), (0, 2), False), "D": ((1,), (0, 2), False),
            "guess_B": ((0,), (0,), False),
            "guess_omega": ((0,), (0,), True)}


def wz_sum(variant: str, N: int, k: int = 2) -> QSeries:
    """The (z, w, q) series of the deformed rank-2 system.

    variant in {"A", "B", "C", "D"} gives the four k=2 series (z tracks
    sum r_i, w tracks sum s_i; C and D carry the trailing factor
    1 + w q^{2 + sum_i (r_i + 2 s_i)}); "guess_B" / "guess_omega" give the
    conjectured k-fold interwoven sums.
    """
    if variant not in _WZ_ROWS:
        raise ValueError(variant)
    if variant in ("A", "B", "C", "D") and k != 2:
        raise ValueError("variant %s needs k = 2" % variant)
    lin_r, lin_s, omega = _WZ_ROWS[variant]
    base = _double_sum(k, N, lin_r, lin_s, w_apart=True, omega=omega)
    if variant not in ("C", "D") or N < 2:
        return base
    # the trailing w q^{2 + sum_i (r_i + 2 s_i)}: the same sum with rows
    # +1 / +2, built at order N - 2 and shifted by w q^2
    tail = _double_sum(2, N - 2, [c + 1 for c in lin_r],
                       [c + 2 for c in lin_s], w_apart=True)
    return QSeries.collect((((0, 0, 0), base), ((0, 1, 2), tail)), N, 0)


# -- the four-fold S-series and its atomic relations -------------------------


def s_series(k1: int, k2: int, l1: int, l2: int, N: int) -> QSeries:
    """S_{k1,k2,l1,l2}(z,w): sum over m1, m2, n1, n2 >= 0 with M1 = m1+m2,
    M2 = m2, N1 = n1+n2, N2 = n2 of z^{M1+M2} w^{N1+N2}
    q^{(M1+N2)^2 + (M2+N1)^2 + N1^2 + N2^2 + k1 m1 + k2 m2 + 2 l1 n1 +
    2 l2 n2} / ((q;q)_{m1} (q;q)_{m2} (q^2;q^2)_{n1} (q^2;q^2)_{n2}).

    Satisfies S(z q^m, w q^{2n}) = S_{k1+m, k2+2m, l1+n, l2+2n}(z, w).

    It is the k = 2 double sum at r = (M1, M2), s = (N2, N1)."""
    return _double_sum(2, N, (k1, k2 - k1), (2 * l2 - 2 * l1, 2 * l1),
                       w_apart=True)


# R1..R4 at p = (k1, k2, l1, l2):
#   S_p - S_{p + e_i} - z^dz w^dw q^{c p_i + d} S_{p + t} = 0,
# one row (i, dz, dw, c, d, t) each.
_ATOMIC = {"R1": (0, 1, 0, 1, 1, (2, 2, 0, 1)),
           "R2": (1, 2, 0, 1, 2, (2, 4, 1, 2)),
           "R3": (2, 0, 1, 2, 2, (0, 2, 2, 2)),
           "R4": (3, 0, 2, 2, 4, (2, 4, 2, 4))}

# The four combinations of the level-2 proof, as (prefactor, S-parameters)
# pairs; toshow3 is cleared by z.
_TOSHOW = {
    "toshow1": ((((1, 0, 0, 0),), (0, 0, 0, 0)),
                (((-1, 0, 0, 0),), (1, 2, 0, 0)),
                (((-1, 1, 0, 1),), (1, 3, 1, 1)),
                (((-1, 1, 1, 3),), (2, 5, 2, 3)),
                (((-1, 2, 0, 2),), (2, 4, 1, 2))),
    "toshow2": ((((1, 0, 0, 0),), (0, 0, 1, 1)),
                (((1, 0, 1, 2),), (1, 2, 2, 3)),
                (((-1, 0, 0, 0),), (0, 0, 1, 2)),
                (((-1, 0, 1, 2),), (1, 3, 2, 3)),
                (((-1, 0, 2, 6),), (2, 5, 3, 5)),
                (((-1, 2, 0, 2),), (2, 4, 2, 3)),
                (((-1, 2, 1, 6),), (3, 6, 3, 5)),
                (((1, 2, 0, 2),), (2, 4, 2, 4))),
    "toshow3": ((((1, 1, 0, 0),), (0, 0, 0, 0)),
                (((-1, 1, 0, 0), (-1, 0, 1, 0)), (0, 1, 1, 1)),
                (((-1, 1, 1, 2), (-1, 0, 2, 2)), (1, 3, 2, 3)),
                (((1, 0, 1, 0),), (1, 2, 1, 1)),
                (((1, 0, 2, 2),), (2, 4, 2, 3)),
                (((1, 1, 1, 1), (-1, 3, 0, 2)), (2, 4, 1, 2))),
    "toshow4": ((((1, 0, 0, 0),), (0, 1, 1, 1)),
                (((1, 0, 1, 2),), (1, 3, 2, 3)),
                (((-1, 0, 0, 0),), (1, 2, 1, 1)),
                (((-1, 0, 1, 2),), (2, 4, 2, 3)),
                (((-1, 1, 0, 1),), (2, 4, 1, 2)),
                (((-1, 2, 0, 3),), (2, 5, 2, 3)),
                (((-1, 2, 1, 7),), (3, 7, 3, 5)),
                (((-1, 1, 1, 4),), (3, 6, 2, 4))),
}


def atomic_relation(which: str, params: tuple[int, int, int, int]):
    """The atomic S-relation R1..R4 at params, or the fixed combination
    toshow1..toshow4 (params unused), as (prefactor, S-parameters) pairs:
    the sum of prefactor * S_{parameters}(z, w) over the pairs vanishes.  A
    prefactor is a tuple of (coeff, dz, dw, dq) monomials."""
    if which in _TOSHOW:
        return _TOSHOW[which]
    if which not in _ATOMIC:
        raise ValueError(which)
    i, dz, dw, c, d, t = _ATOMIC[which]
    p = tuple(params)
    return ((((1, 0, 0, 0),), p),
            (((-1, 0, 0, 0),), tuple(v + (j == i) for j, v in enumerate(p))),
            (((-1, dz, dw, c * p[i] + d),),
             tuple(v + s for v, s in zip(p, t))))


def atomic_residual(which: str, params: tuple[int, int, int, int],
                    N: int) -> QSeries:
    """The sum of the terms of atomic_relation(which, params) through order
    N: zero when the relation holds.  A prefactor with a negative
    q-exponent f raises its S-series' order to N - f."""
    parts = []
    low = 0
    for pref, sp in atomic_relation(which, params):
        f = min([0] + [m[3] for m in pref])
        s = s_series(*sp, N - f)
        parts += [((dz, dw, dq), s.scale(c)) for c, dz, dw, dq in pref]
        low = min(low, f)
    return QSeries.collect(parts, N, low)
