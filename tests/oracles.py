"""Independent routes that the tests compare the library's builders with.

* ``gen_fun_reference``: ``cmpp.gen_fun`` by a brute-force search over
  frequency arrays, pruned by their max-path sum (``max_path_sum``);
* ``partitions_iter`` and ``sub_partitions``: the partitions that the
  Hall-Littlewood pair-DP oracle sums over;
* ``d_n1_product``: the product side of the one-row D family;
* ``poch_by_factors``, ``theta_by_factors`` and ``expand_by_factors``:
  ``series.poch``, ``products.theta_q`` and ``products.expand`` multiplied
  out one factor 1 - q^e at a time, each denominator by
  ``QSeries.invert``;
* ``hl_ls_2r1s_by_factors``, ``bailey_alpha_side_by_factors``,
  ``h_step_by_factors`` and ``psi_poly_by_factors``: the Hall-Littlewood
  q-products multiplied out one ``qbin`` or Pochhammer factor at a time;
* ``double_sum_by_box`` and ``s_series_by_box``: ``multisums._double_sum``
  and ``multisums.s_series`` summed over a box of their indices;
* ``outcome``: what the differential tests compare;
* ``is_zero_through``: whether a series has no term through a q order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

from cmpplab.cmpp import _NEG, _row_layout, family_rows
from cmpplab.hall_littlewood import Partition, frequencies
from cmpplab.products import PochFactor, ProductSpec, theta_reduce
from cmpplab.series import QSeries, qbin


def outcome(build, *args):
    """(terms, q_order, q_floor) of a build, or its ValueError text."""
    try:
        s = build(*args)
    except ValueError as exc:
        return str(exc)
    return s.terms, s.q_order, s.q_floor


def is_zero_through(s: QSeries, up_to: int) -> bool:
    """No term of s has q degree <= up_to; raises when s is cut below."""
    if s.q_order is not None and s.q_order < up_to:
        raise ValueError("insufficient truncation")
    return all(k[2] > up_to for k in s.terms)


# -- coloured partitions by brute force -------------------------------------


def colour_size_parity(family: str, colour: int) -> int | None:
    """Part-size parity admitted for a colour (None = both, family A)."""
    if family == "A":
        return None
    if family == "C":
        return colour % 2  # colour parity equals size parity
    return 1 - colour % 2  # D: opposite parity


@dataclass
class FrequencyArray:
    """The data f_i^{(c)} of a coloured partition, finitely supported."""

    family: str
    n: int
    freq: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        m = family_rows(self.family, self.n)
        ncolours = self.n if self.family == "A" else m
        for (c, i), f in self.freq.items():
            if f < 0:
                raise ValueError("negative frequency at %r" % ((c, i),))
            if not 1 <= c <= ncolours:
                raise ValueError("colour %d out of range" % c)
            if i < 1:
                raise ValueError("part sizes start at 1")
            want = colour_size_parity(self.family, c)
            if want is not None and i % 2 != want and f:
                raise ValueError(
                    "parity rule: colour %d cannot hold parts of size %d"
                    % (c, i))

    def weight(self) -> int:
        return sum(i * f for (_, i), f in self.freq.items())

    def length(self) -> int:
        return sum(self.freq.values())


def _freq_row(family: str, colour: int, size: int) -> int:
    """Row index (path order) holding f_size^{(colour)}."""
    if family == "A":
        return 2 * (colour - 1) + (size % 2)
    return colour - 1


def _max_path(vals: list[list[int]], parities: list[int], jmax: int) -> int:
    """Max path sum over the array; vals[r][j+1] is the entry at index j.

    Indices are scanned through jmax + 2; entries above the largest
    occupied column are zero, and any path excursion above can be
    reflected into that margin without changing its sum.
    """
    top = jmax + 2
    width = top + 2
    prev = [_NEG] * width
    v0 = vals[0]
    for j in range(-parities[0], top + 1, 2):
        prev[j + 1] = v0[j + 1]
    for r in range(1, len(parities)):
        cur = [_NEG] * width
        vr = vals[r]
        for j in range(-parities[r], top + 1, 2):
            best = _NEG
            if j >= 0:
                t = prev[j]
                if t > best:
                    best = t
            if j + 2 < width:
                t = prev[j + 2]
                if t > best:
                    best = t
            if best != _NEG:
                cur[j + 1] = best + vr[j + 1]
        prev = cur
    return max(prev)


def _build_vals(parities: list[int], bases: list[int],
                jtop: int) -> list[list[int]]:
    vals = []
    for parity, base in zip(parities, bases):
        row = [0] * (jtop + 4)
        row[0 if parity else 1] = base
        vals.append(row)
    return vals


def max_path_sum(array: FrequencyArray, boundary: tuple[int, ...]) -> int:
    """Maximum path sum of the frequency array with the given boundary."""
    parities, bases = _row_layout(array.family, array.n, tuple(boundary))
    jmax = max((i for (_, i) in array.freq), default=0)
    vals = _build_vals(parities, bases, jmax)
    for (c, i), f in array.freq.items():
        if f:
            vals[_freq_row(array.family, c, i)][i + 1] += f
    return _max_path(vals, parities, jmax)


def gen_fun_reference(family: str, n: int, boundary: tuple[int, ...],
                      N: int) -> QSeries:
    """``gen_fun`` by brute force: the independent oracle of the tests.

    Assigns frequencies by decreasing part size and prunes with the
    max-path bound of the partially built array (entries not yet assigned
    are zero, so the bound only grows).  It recurses once per array cell,
    about N * rows / 2 frames deep, so for A2 it reaches Python's default
    1000-frame limit near N = 500.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    boundary = tuple(boundary)
    parities, bases = _row_layout(family, n, boundary)
    level = sum(boundary)
    acc: dict[tuple[int, int], int] = {}
    if level == 0 or N == 0:
        # only the empty partition is admissible
        return QSeries({(0, 0, 0): 1}, N, 0, _clean=True)

    rows_by_parity = ([r for r, p in enumerate(parities) if p == 0],
                      [r for r, p in enumerate(parities) if p == 1])
    positions = [(i, r) for i in range(N, 0, -1)
                 for r in rows_by_parity[i % 2]]
    vals = _build_vals(parities, bases, N)
    npos = len(positions)

    def rec(p: int, budget: int, zlen: int, qwt: int, jmax: int):
        while p < npos and positions[p][0] > budget:
            p += 1
        if p == npos:
            kk = (zlen, qwt)
            acc[kk] = acc.get(kk, 0) + 1
            return
        i, r = positions[p]
        rec(p + 1, budget, zlen, qwt, jmax)
        row = vals[r]
        jm = jmax if jmax else i
        fmax = min(level, budget // i)
        for f in range(1, fmax + 1):
            row[i + 1] = f
            if _max_path(vals, parities, jm) > level:
                break
            rec(p + 1, budget - f * i, zlen + f, qwt + f * i, jm)
        row[i + 1] = 0

    rec(0, N, 0, 0, 0)
    return QSeries({(z, 0, d): c for (z, d), c in acc.items()}, N, 0,
                   _clean=True)


def successors_by_plan(table, state, moves: list[list], need: int,
                       fixed: list[int] | None = None) -> None:
    """``_ScanTable.successors`` by interpreting the table's plan, as the
    scan did before its plans were compiled: append each next state (the
    packed state itself, not its id; the table is left as it was) to
    moves[sum].

    One list w holds the values: w[0] = 0, the state's cells, the next
    state's cells, and w[-1] = -inf.  A recursive ``pick`` chooses the
    rows bottom-up with the early exits of ``successors``.
    """
    par, choose, leaf, out = table.plans[state[0]]
    w = [0] + [v - 1 if v else _NEG for v in state[1:]] \
        + [_NEG] * (len(out) + 1)
    level, last, pack = table.level, len(choose), table.pack

    def pick(k: int, rem: int, total: int) -> bool:
        if k == last:
            for dst, terms in leaf:
                w[dst] = max([w[x] + w[y] for x, y in terms])
            moves[total].append(pack([par] + [
                v + 1 if v >= 0 else 0 for v in [w[i] for i in out]]))
            return True
        r1, pre, e, rel, own, end = choose[k]
        # segments from row r1 to each new row below, less r1's entry
        e0 = w[e]
        segs = []
        for dst, e, terms in rel:
            b = max([w[x] + w[y] for x, y in terms])
            segs.append((dst, b))
            e0 = max(e0, b + w[e])
        pre = w[pre]
        hi = level - pre - e0 if pre >= 0 and e0 >= 0 else level
        if fixed is None:
            lo, hi = 0, min(hi, rem)
        else:
            lo = fixed[r1]
            if lo > hi:
                return False
            hi = lo
        for v in range(max(lo, need - total - level * (last - 1 - k)),
                       hi + 1):
            w[own] = v
            w[end] = v + e0
            for dst, b in segs:
                w[dst] = v + b
            if not pick(k + 1, rem - v, total + v):
                if v == lo:
                    return False
                break
        return hi >= lo

    pick(0, len(moves) - 1, 0)


# -- ordinary partitions ------------------------------------------------------


def _parts_of(n: int, part_max: int, len_max: int) -> Iterator[list[int]]:
    if n == 0:
        yield []
        return
    if len_max <= 0:
        return
    for first in range(min(n, part_max), 0, -1):
        for rest in _parts_of(n - first, first, len_max - 1):
            yield [first] + rest


def _colex_key(lam: list[int], pad: int) -> tuple[int, ...]:
    return tuple(reversed(lam + [0] * (pad - len(lam))))


def partitions_iter(total_max: int, part_max: Optional[int] = None,
                    len_max: Optional[int] = None) -> Iterator[Partition]:
    """All partitions with |lambda| <= total_max, parts <= part_max,
    length <= len_max, each exactly once.

    Order: by weight, then colexicographic on the part list (shorter
    partitions of equal weight come first).
    """
    pm = total_max if part_max is None else part_max
    lm = total_max if len_max is None else len_max
    for n in range(total_max + 1):
        batch = list(_parts_of(n, pm, lm))
        batch.sort(key=lambda lam: _colex_key(lam, n))
        for lam in batch:
            yield tuple(lam)


def sub_partitions(lam: Partition) -> list[Partition]:
    """All partitions contained in lam."""
    out: list[Partition] = []

    def rec(i: int, prev: int, acc: list[int]):
        if i == len(lam):
            out.append(tuple(acc))
            return
        for p in range(min(prev, lam[i]), -1, -1):
            if p == 0:
                out.append(tuple(acc))
                return
            acc.append(p)
            rec(i + 1, p, acc)
            acc.pop()

    rec(0, lam[0] if lam else 0, [])
    return out


# -- product sides ------------------------------------------------------------


def d_n1_product(k: int) -> ProductSpec:
    """(q^{2k+2}; q^{2k+2})_inf / (q^2; q^2)_inf: even parts, multiplicity <= k."""
    return ProductSpec((), (PochFactor(2 * k + 2, 2 * k + 2, 1),
                            PochFactor(2, 2, -1)))


# -- q-products factor by factor ---------------------------------------------


def poch_by_factors(c: int, m: int, count: Optional[int], n: int) -> QSeries:
    """prod_{j<count} (1 - q^{c+jm}) to order n, one mul per factor."""
    if m < 1:
        raise ValueError("base exponent m must be >= 1")
    if c < 1:
        raise ValueError("infinite product needs c >= 1 to terminate")
    out = QSeries.one(n)
    j = 0
    e = c
    while (count is None or j < count) and e <= n:
        out = out * QSeries({(0, 0, 0): 1, (0, 0, e): -1}, None, 0)
        j += 1
        e += m
    return out.truncate(n)


def theta_by_factors(a: int, m: int, N: int) -> QSeries:
    """theta(q^a; q^m) to order N as sign * q^shift times two products."""
    sign, shift, r = theta_reduce(a, m)
    if r == 0:
        return QSeries.zero()
    inner = N - shift  # shift <= 0
    s = poch_by_factors(r, m, None, inner) * \
        poch_by_factors(m - r, m, None, inner)
    return s.scale(sign) * QSeries.monomial(1, dq=shift)


def expand_by_factors(spec: ProductSpec, N: int) -> QSeries:
    """A ProductSpec to order N, one factor at a time: each theta and each
    Pochhammer factor is expanded far enough past N that the product stays
    exact through N, and multiplied in once per unit of its power."""
    out = QSeries.one(None)
    shift_total = 0
    for t in spec.thetas:
        _, shift, _ = theta_reduce(t.a, t.m)
        shift_total += shift * max(t.power, 0)
    inner = N - shift_total
    for t in spec.thetas:
        if t.power >= 0:
            factor = theta_by_factors(t.a, t.m, inner)
        else:
            sign, shift, r = theta_reduce(t.a, t.m)
            if r == 0:
                raise ValueError("division by a vanishing theta")
            factor = poch_by_factors(r, t.m, None, inner - shift).invert() * \
                poch_by_factors(t.m - r, t.m, None, inner - shift).invert() * \
                QSeries.monomial(sign, dq=-shift)
        for _ in range(abs(t.power)):
            out = out * factor
    for p in spec.pochs:
        if p.power >= 0:
            factor = poch_by_factors(p.c, p.m, None, inner)
        else:
            factor = poch_by_factors(p.c, p.m, None,
                                     inner - min(out.q_floor, 0)).invert()
        for _ in range(abs(p.power)):
            out = out * factor
    return out.truncate(N)


# -- Hall-Littlewood q-products factor by factor ------------------------------


def _ls_factor_by_factors(i: int, s: int, m: int, e: int, N: int) -> QSeries:
    """(-1)^i q^e [i+s, s]_t (1 - t^{2i+s}) / (1 - t^{i+s}) at t = q^m,
    to order N; the i = 0 ratio counts as 1."""
    out = QSeries.monomial((-1) ** i, dq=e, order=None) * qbin(i + s, s, m)
    if i > 0:
        num = QSeries({(0, 0, 0): 1, (0, 0, m * (2 * i + s)): -1}, None, 0)
        d = m * (i + s)
        out = out * num * poch_by_factors(d, d, 1, N + e).invert()
    return out


def hl_ls_2r1s_by_factors(r: int, s: int, kvars: int, m: int,
                          N: int) -> QSeries:
    """hall_littlewood.hl_ls_2r1s, each term a product of the
    Lassalle-Schlosser factor and two Gaussian binomials in q."""
    if r < 0 or s < 0:
        raise ValueError("r, s >= 0")

    def term(i: int) -> QSeries:
        e = m * (i * (i - 1) // 2) + \
            (r - i) * (r - i - 1) // 2 + (r + s + i) * (r + s + i - 1) // 2
        return (_ls_factor_by_factors(i, s, m, e, N) *
                qbin(kvars, r - i, 1) * qbin(kvars, r + s + i, 1))

    return QSeries.collect((((0, 0, 0), term(i)) for i in range(r + 1)),
                           N, 0)


def bailey_alpha_side_by_factors(s: int, m: int, r_max: int,
                                 N: int) -> QSeries:
    """hall_littlewood.bailey_alpha_side, each term the Lassalle-Schlosser
    factor over two Pochhammer products, each inverted by invert()."""
    def term(r: int, i: int) -> QSeries:
        e = m * (i * (i - 1) // 2) + i * (i + s)
        return (_ls_factor_by_factors(i, s, m, e, N) *
                poch_by_factors(1, 1, r - i, N).invert() *
                poch_by_factors(s + 1, 1, r + i, N).invert())

    return QSeries.collect((((r, 0, 0), term(r, i))
                            for r in range(r_max + 1) for i in range(r + 1)),
                           N, 0)


def h_step_by_factors(u: int, l: int, l_next: int, m: int,
                      W: int) -> QSeries:
    """hall_littlewood._h_step as q^e times a cut qbin, with floor e, and
    the empty series with floor e when e > W."""
    e = l + m * ((u - l) * (u - l - 1) // 2)
    if e > W:
        return QSeries({}, W, e)
    return QSeries.monomial(1, dq=e, order=W) * \
        qbin(u - l_next, u - l, m).truncate(W - e)


def psi_poly_by_factors(mu: Partition, nu: Partition,
                        m: int) -> tuple[tuple[int, int], ...]:
    """hall_littlewood._psi_poly, one mul per factor 1 - t^f."""
    mm, mn = frequencies(mu), frequencies(nu)
    poly = QSeries.one()
    for i, f in mm.items():
        if f == mn.get(i, 0) + 1:
            poly = poly * (QSeries.one() - QSeries.monomial(1, dq=m * f))
    return tuple(sorted((dq, c) for (_, _, dq), c in poly.terms.items()))


# -- double sums over a box --------------------------------------------------


def _box(parts: list[tuple[int, int]], N: int) -> list[int]:
    """Caps on the indices v >= 0 of a sum whose exponent is at least the
    sum of c2 v^2 + c1 v over its indices, (c2, c1) in parts, c2 >= 1.  A
    term within N has each part at most N minus the least values of the
    other parts, and a part with v > |c1| is at least v."""
    least = [min(c2 * v * v + c1 * v for v in range(abs(c1) + 1))
             for c2, c1 in parts]
    caps = []
    for (c2, c1), lo in zip(parts, least):
        room = N - sum(least) + lo
        caps.append(max((v for v in range(abs(c1) + max(room, 0) + 1)
                         if c2 * v * v + c1 * v <= room), default=-1))
    return caps


@lru_cache(maxsize=None)
def _inv_poch(base: int, count: int, n: int) -> QSeries:
    """1 / (q^base; q^base)_count to order n."""
    return poch_by_factors(base, base, count, n).invert(n)


def _box_sum(terms, N: int) -> QSeries:
    """The sum of z^a w^b q^e / prod (q^base; q^base)_count over the
    ((a, b), e, ((base, count), ...)) in terms with e <= N, cut at N."""
    parts = []
    for (a, b), e, factors in terms:
        if e <= N:
            s = QSeries.one(N - e)
            for base, count in factors:
                s = s * _inv_poch(base, count, N - e)
            parts.append(((a, b, e), s))
    return QSeries.collect(parts, N, 0)


def double_sum_by_box(k: int, N: int, lin_r, lin_s) -> QSeries:
    """multisums._double_sum with w_apart and without Omega, rows of length
    k, summed over every (r, s) in a box.  The exponent is at least the sum
    of r_i^2 + lin_r[i] r_i and 2 s_i^2 + lin_s[i] s_i, as 2 r_i s_i >= 0;
    tuples off the chains r_1 >= ... >= r_k and s_1 <= ... <= s_k are
    skipped."""
    caps = _box([(1, a) for a in lin_r] + [(2, b) for b in lin_s], N)

    def terms():
        for v in product(*(range(c + 1) for c in caps)):
            r, s = v[:k] + (0,), (0,) + v[k:]
            if any(r[i] < r[i + 1] or s[i] > s[i + 1] for i in range(k)):
                continue
            e = sum((r[i] + s[i + 1]) ** 2 + s[i + 1] ** 2 + lin_r[i] * r[i]
                    + lin_s[i] * s[i + 1] for i in range(k))
            yield (sum(r), sum(s)), e, tuple(
                f for i in range(k)
                for f in ((1, r[i] - r[i + 1]), (2, s[i + 1] - s[i])))

    return _box_sum(terms(), N)


def s_series_by_box(k1: int, k2: int, l1: int, l2: int, N: int) -> QSeries:
    """multisums.s_series by its four-fold definition, summed over every
    (m1, m2, n1, n2) in a box.  Expanding the squares, the exponent is at
    least m1^2 + 2 m2^2 + n1^2 + 2 n2^2 + k1 m1 + k2 m2 + 2 l1 n1 + 2 l2 n2,
    as every cross term is >= 0."""
    caps = _box([(1, k1), (2, k2), (1, 2 * l1), (2, 2 * l2)], N)
    return _box_sum(
        (((m1 + 2 * m2, n1 + 2 * n2),
          (m1 + m2 + n2) ** 2 + (m2 + n1 + n2) ** 2 + (n1 + n2) ** 2 + n2 ** 2
          + k1 * m1 + k2 * m2 + 2 * l1 * n1 + 2 * l2 * n2,
          ((1, m1), (1, m2), (2, n1), (2, n2)))
         for m1, m2, n1, n2 in product(*(range(c + 1) for c in caps))), N)
