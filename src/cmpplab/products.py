"""Theta functions and the closed-form product sides.

theta_q(a, m, N) expands theta(q^a; q^m) = (q^a; q^m)_inf (q^{m-a}; q^m)_inf,
reducing any integer a into [0, m) through the quasi-periodicity
theta(x; p) = -x theta(xp; p), which contributes a signed q-power (possibly
with a negative exponent, carried by the series' q_floor).

ProductSpec is declarative data: a list of theta factors theta(q^a; q^m)^e
and Pochhammer factors (q^c; q^m)_inf^e, assembled by expand() in one call
of series.euler_product.  All the named product sides (Gordon, the
level-one theorems, the specialised character products, the
Andrews-Gordon-type conjectural products) are built here as ProductSpecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import QSeries, euler_product


@dataclass(frozen=True)
class ThetaFactor:
    a: int
    m: int
    power: int = 1


@dataclass(frozen=True)
class PochFactor:
    c: int
    m: int
    power: int = 1


@dataclass(frozen=True)
class ProductSpec:
    thetas: tuple[ThetaFactor, ...] = ()
    pochs: tuple[PochFactor, ...] = ()


def theta_reduce(a: int, m: int) -> tuple[int, int, int]:
    """Normalise theta(q^a; q^m) to sign * q^shift * theta(q^r; q^m),
    r in [0, m): with a = km + r, sign = (-1)^k and shift =
    m C(k+1, 2) - ka.  The shift is also the least exponent of
    m C(j, 2) + aj over j in Z, reached at j = -k."""
    if m < 1:
        raise ValueError("modulus exponent m must be >= 1")
    k, r = divmod(a, m)
    return (-1) ** (k % 2), m * (k * (k + 1) // 2) - k * a, r


def theta_sum(m: int, a: int, N: int, sign: int = -1,
              shift: int = 0) -> QSeries:
    """sum over j in Z of sign^j q^{m C(j,2) + aj + shift}, cut at N.

    The exponent is least at the vertex j0 (see theta_reduce) and grows
    outward on both sides, so each walk stops at its first exponent past
    N.  The floor is the least exponent, even when its terms cancel, or 0
    if that is higher."""
    def exp(j):
        return m * (j * (j - 1) // 2) + a * j + shift

    low = theta_reduce(a, m)[1] + shift
    j0 = -(a // m)
    terms: dict[tuple[int, int, int], int] = {}
    for step, j in ((1, j0), (-1, j0 - 1)):
        e = exp(j)
        while e <= N:
            terms[(0, 0, e)] = terms.get((0, 0, e), 0) + sign ** (j % 2)
            j += step
            e = exp(j)
    return QSeries(terms, N, min(low, 0))


def theta_q(a: int, m: int, N: int) -> QSeries:
    """theta(q^a; q^m) truncated at order N; zero when a = 0 (mod m)."""
    sign, shift, r = theta_reduce(a, m)
    if r == 0:
        return QSeries.zero()
    return euler_product(((r, m, None, 1), (m - r, m, None, 1)), N, sign,
                         shift)


def expand(spec: ProductSpec, N: int) -> QSeries:
    """Expand a ProductSpec to order N (exact).

    A theta factor is sign * q^shift times two Pochhammer factors (see
    theta_reduce), so the product is one euler_product with the window
    (N, the total shift); a theta that vanishes makes it the zero series
    cut at N."""
    reduced = [theta_reduce(t.a, t.m) for t in spec.thetas]
    factors = [(p.c, p.m, None, p.power) for p in spec.pochs]
    sign, shift, vanishes = 1, 0, False
    for t, (t_sign, t_shift, r) in zip(spec.thetas, reduced):
        if r == 0 and t.power < 0:
            raise ValueError("division by a vanishing theta")
        if r == 0:
            vanishes = vanishes or t.power > 0
            continue
        sign *= t_sign ** abs(t.power)
        shift += t_shift * t.power
        factors += [(r, t.m, None, t.power), (t.m - r, t.m, None, t.power)]
    out = euler_product(factors, N, sign, shift)
    # the factors are checked even when a theta vanishes
    return QSeries({}, N, 0, _clean=True) if vanishes else out


# -- specialised character products ----------------------------------------


def _lambdas(weight: tuple[int, ...]) -> list[int]:
    """lambda_i = k_i + ... + k_n for i = 1..n."""
    n = len(weight) - 1
    return [sum(weight[i:]) for i in range(1, n + 1)]


def char_product(family: str, spec_kind: str, n: int,
                 weight: tuple[int, ...], N: int) -> QSeries:
    """Closed-form product of the specialised character for the family's
    weight (k_0, ..., k_n); spec_kind is "nonstandard" or "principal".

    For family C the two kinds coincide (the specialisation is the
    ordinary principal one there).  n = 0 is rejected: the C n=0 case has
    no Lie product and is served by c_n0_product().
    """
    weight = tuple(weight)
    if len(weight) != n + 1 or any(k < 0 for k in weight):
        raise ValueError("weight must be n+1 non-negative integers")
    if n < 1:
        raise ValueError("char_product requires n >= 1; "
                         "use c_n0_product for the C n=0 quotient")
    if spec_kind not in ("nonstandard", "principal"):
        raise ValueError(spec_kind)
    k = sum(weight)
    lam = _lambdas(weight)
    thetas: list[ThetaFactor] = []
    pochs: list[PochFactor] = []
    if family == "A":
        kappa = 2 * k + 2 * n + 1
        pochs.append(PochFactor(kappa, kappa, n))
        pochs.append(PochFactor(1, 1, -n))
        for i in range(1, n + 1):
            thetas.append(ThetaFactor(lam[i - 1] + n - i + 1, kappa))
        if spec_kind == "principal":
            pochs.append(PochFactor(2 * n + 1, 4 * n + 2, 1))
            pochs.append(PochFactor(1, 2, -1))
            for i in range(1, n + 1):
                thetas.append(ThetaFactor(2 * k - 2 * lam[i - 1] + 2 * i - 1,
                                          2 * kappa))
    elif family == "C":
        kappa = 2 * k + 2 * n + 2
        pochs.append(PochFactor(k + n + 1, kappa, 1))
        pochs.append(PochFactor(kappa, kappa, n))
        pochs.append(PochFactor(1, 2, -1))
        pochs.append(PochFactor(1, 1, -n))
        for i in range(1, n + 1):
            thetas.append(ThetaFactor(lam[i - 1] + n - i + 1, k + n + 1))
    elif family == "D":
        kappa = 2 * k + 2 * n
        pochs.append(PochFactor(kappa, kappa, n))
        if spec_kind == "nonstandard":
            pochs.append(PochFactor(2, 2, -1))
            if n > 1:
                pochs.append(PochFactor(1, 1, -(n - 1)))
        else:
            pochs.append(PochFactor(1, 2, -1))
            pochs.append(PochFactor(1, 1, -n))
            for i in range(1, n + 1):
                thetas.append(ThetaFactor(2 * lam[i - 1] + 2 * n - 2 * i + 1,
                                          kappa))
    else:
        raise ValueError("unknown family %r" % (family,))
    pair_shift = 1 if family == "D" else 2
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            li, lj = lam[i - 1], lam[j - 1]
            thetas.append(ThetaFactor(li - lj - i + j, kappa))
            thetas.append(ThetaFactor(li + lj + 2 * n - i - j + pair_shift,
                                      kappa))
    return expand(ProductSpec(tuple(thetas), tuple(pochs)), N)


def c_n0_product(k: int) -> ProductSpec:
    """(q^{k+1}; q^{2k+2})_inf / (q; q^2)_inf: odd parts, multiplicity <= k."""
    return ProductSpec((), (PochFactor(k + 1, 2 * k + 2, 1),
                            PochFactor(1, 2, -1)))


def c_n0_two_variable(k: int, N: int) -> QSeries:
    """prod_{j odd} (1 - (zq^j)^{k+1}) / (1 - zq^j): the bounded-multiplicity
    generating function of odd parts, z tracking the number of parts."""
    out = QSeries.one(N)
    for j in range(1, N + 1, 2):
        # each quotient is 1 + zq^j + ... + (zq^j)^k, cut at q^N
        geo = QSeries({(i, 0, i * j): 1 for i in range(min(k, N // j) + 1)},
                      None, 0, _clean=True)
        out = (out * geo).truncate(N)
    return out


# -- level-one and Gordon-type quotients ------------------------------------


def _level_one(a: int, mod: int) -> ProductSpec:
    """(q^a, q^{mod-a}, q^mod; q^mod)_inf / (q; q)_inf."""
    return ProductSpec((ThetaFactor(a, mod),),
                       (PochFactor(mod, mod, 1), PochFactor(1, 1, -1)))


def gordon_product(k: int, a: int) -> ProductSpec:
    """(q^{a+1}, q^{2k-a+2}, q^{2k+3}; q^{2k+3})_inf / (q; q)_inf."""
    if not 0 <= a <= k:
        raise ValueError("0 <= a <= k")
    return _level_one(a + 1, 2 * k + 3)


def jms_product(n: int, a: int) -> ProductSpec:
    """(q^{2a+1}, q^{2n-2a+2}, q^{2n+3}; q^{2n+3})_inf / (q; q)_inf."""
    return _level_one(2 * a + 1, 2 * n + 3)


def c_level1_product(n: int, a: int) -> ProductSpec:
    """(q^{2a+2}, q^{2n-2a+2}, q^{2n+4}; q^{2n+4})_inf / (q; q)_inf."""
    return _level_one(2 * a + 2, 2 * n + 4)


def d_level1_product(n: int, a: int) -> ProductSpec:
    """(q^{2a+1}, q^{2n-2a+1}, q^{2n+2}; q^{2n+2})_inf / (q; q)_inf."""
    return _level_one(2 * a + 1, 2 * n + 2)


def ag_type_product(which: str, k: int) -> ProductSpec:
    """The four conjectural Andrews-Gordon-type product sides for the
    double multisums: which in {"c-kL0", "d-kL0", "d-kL1", "d-omega"}."""
    if which == "c-kL0":
        mod = k + 2
        return ProductSpec((ThetaFactor(1, mod),),
                           (PochFactor(mod, mod, 1), PochFactor(1, 2, -1),
                            PochFactor(1, 1, -1)))
    mod = 2 * k + 4
    common = (PochFactor(mod, mod, 2), PochFactor(2, 2, -1),
              PochFactor(1, 1, -1))
    if which == "d-kL0":
        thetas = (ThetaFactor(1, mod), ThetaFactor(2, mod))
    elif which == "d-kL1":
        thetas = (ThetaFactor(k + 1, mod), ThetaFactor(k + 2, mod))
    elif which == "d-omega":
        thetas = (ThetaFactor(k, mod), ThetaFactor(k + 1, mod))
    else:
        raise ValueError(which)
    return ProductSpec(thetas, common)
