"""Macdonald identities in determinant form and the specialised character
determinant sums, including the vanishing (sign-twisted) cases.

The two lattice identities are

* type B:  sum over r in Z^n of det(x_i^{(2n-1)r_j + j - n} -
  x_i^{-(2n-1)r_j + n - j + 1}) prod_i (-sigma)^{r_i}
  p^{(2n-1) C(r_i,2) + (i-1) r_i} x_i^{n-i}  =  2 Pi_{B;sigma}(x, p),
* type D (n >= 2):  the analogous sum with entries x_i^{2(n-1)r_j + j - n}
  + tau x_i^{-2(n-1)r_j + n - j}  =  4 Pi_{D;sigma,tau}(x, p),

evaluated at x_i = q^{a_i} and p = q^base.  Pi_{B;-1} = 0 and
Pi_{D;sigma,-1} = 0, so those cases assert exact vanishing of the sums.
The product sides are theta products expanded by products.expand.

Row i of the (transposed) summand depends only on r_i: its prefactor,
its sign twist and its entries.  The determinant is multilinear in its
rows, so the sum over r in Z^n is det(S), where S_ij is the sum over r
in Z of row i's factor times entry (i, j): two bilateral theta sums
sign^r q^{m C(r,2) + l r + c} with m = base * c2 (products.theta_sum).
Row i's least exponent low_i is exact at the vertices, and a Leibniz
term meets each row once, so row i is built exact through N minus the
other rows' least exponents; no term at or below the truncation order is
missed.

The specialised character sums are these Macdonald sums at a special
point: substituting r -> -r turns the family-A display into the type-B
sum at x_i = q^{lambda_i + n - i + 1}, p = q^{2k + 2n + 1}, and the
family-D display into the type-D sum at x_i = q^{lambda_i + n - i + 1/2},
p = q^{2k + 2n}, with sigma = -1 for half-integral k and tau = -1 for a
half-partition lambda.  The half-integral exponents of family D are
handled in doubled coordinates (the whole sum is computed in u = q^{1/2}
and re-indexed, asserting that all odd u-exponents cancel).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .products import (PochFactor, ProductSpec, ThetaFactor, expand,
                       theta_reduce, theta_sum)
from .series import QSeries, euler_product


@dataclass(frozen=True)
class HalfWeight:
    """Level and highest-weight data in doubled coordinates: k = two_k/2
    and lambda_i = two_lambda_i / 2."""

    two_k: int
    two_lambda: tuple[int, ...]

    def __post_init__(self):
        if self.two_k < 0:
            raise ValueError("two_k >= 0")
        tl = self.two_lambda
        if any(v < 0 for v in tl):
            raise ValueError("two_lambda >= 0")
        if any(tl[i] < tl[i + 1] for i in range(len(tl) - 1)):
            raise ValueError("two_lambda weakly decreasing")
        if tl and len({v % 2 for v in tl}) > 1:
            raise ValueError("two_lambda must have a single parity "
                             "(partition or half-partition)")

    @property
    def k_integral(self) -> bool:
        return self.two_k % 2 == 0

    @property
    def lambda_integral(self) -> bool:
        return all(v % 2 == 0 for v in self.two_lambda)

    def weight(self) -> tuple[int, ...]:
        """The coefficients (k_0, ..., k_n) when everything is integral."""
        if not (self.k_integral and self.lambda_integral):
            raise ValueError("weight needs integral k and lambda")
        lam = [v // 2 for v in self.two_lambda]
        k = self.two_k // 2
        n = len(lam)
        out = [k - (lam[0] if lam else 0)]
        for i in range(n - 1):
            out.append(lam[i] - lam[i + 1])
        if n:
            out.append(lam[n - 1])
        return tuple(out)


def _perms_with_sign(n: int) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for p in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if p[i] > p[j])
        out.append((p, 1 if inv % 2 == 0 else -1))
    return out


def pi_product(kind: str, exps: tuple[int, ...], base: int, sigma: int,
               tau: int = 1, N: int = 0) -> QSeries:
    """Pi_{B;sigma}(x, p) (kind "B") or Pi_{D;sigma,tau}(x, p) (kind "D")
    at x_i = q^{exps[i]}, p = q^base; zero for sigma = -1 (B) and for
    sigma = -1 or tau = -1 (D)."""
    if kind not in ("B", "D"):
        raise ValueError(kind)
    n = len(exps)
    args = list(exps) if kind == "B" else []
    for i in range(n):
        for j in range(i + 1, n):
            args += [exps[i] - exps[j], exps[i] + exps[j]]
    # a vanishing product is the exact zero, not a zero series cut at N
    if sigma == -1 or (kind == "D" and tau == -1) or \
            any(theta_reduce(a, base)[2] == 0 for a in args):
        return QSeries.zero()
    return expand(ProductSpec(tuple(ThetaFactor(a, base) for a in args),
                              (PochFactor(base, base, n),)), N)


def check_macdonald_data(kind: str, exps: tuple[int, ...], base: int,
                         sigma: int, tau: int = 1) -> None:
    """Raise ValueError unless macdonald_sum is defined at (kind, exps,
    base, sigma, tau)."""
    if not exps:
        raise ValueError("at least e1 required")
    if kind not in ("B", "D"):
        raise ValueError("kind in {B, D}")
    if kind == "D" and len(exps) < 2:
        raise ValueError("type D needs n >= 2")
    if base < 1:
        raise ValueError("base >= 1")
    if sigma not in (1, -1) or tau not in (1, -1):
        raise ValueError("sigma, tau in {-1, 1}")


def macdonald_sum(kind: str, exps: tuple[int, ...], base: int, sigma: int,
                  tau: int = 1, N: int = 0) -> QSeries:
    """The determinant lattice sum equal to 2 Pi_{B;sigma} (kind "B",
    n >= 1) or 4 Pi_{D;sigma,tau} (kind "D", n >= 2), truncated at N."""
    check_macdonald_data(kind, exps, base, sigma, tau)
    n = len(exps)
    a = list(exps)
    # (c2, sign twist, second-entry coefficient, lift) of the two
    # identities in the module docstring
    c2, twist, coeff2, lift = ((2 * n - 1, -sigma, -1, 1) if kind == "B"
                               else (2 * (n - 1), sigma, tau, 0))
    m = base * c2

    def monos(i, j):
        # entry (i, j) times the prefactor of row i: two theta sums
        # coeff * twist^r q^{m C(r,2) + lin r + const}, as (coeff, lin,
        # const); the display attaches r to the column, the transposed
        # determinant to row i
        const = a[i] * (n - 1 - i)
        return ((1, base * i + a[j] * c2, a[j] * (i + 1 - n) + const),
                (coeff2, base * i - a[j] * c2,
                 a[j] * (n - i - 1 + lift) + const))

    # row i's least exponent, exact at the vertices; a Leibniz term meets
    # every row once, so each row is built relative to its own least
    # exponent and exact through N minus all of them
    lows = [min(theta_reduce(lin, m)[1] + const for j in range(n)
                for _, lin, const in monos(i, j)) for i in range(n)]
    inner = N - sum(lows)

    def entry(i, j):
        return QSeries.collect(
            (((0, 0, 0),
              theta_sum(m, lin, inner, twist, const - lows[i]).scale(coeff))
             for coeff, lin, const in monos(i, j)), inner, 0)

    S = [[entry(i, j) for j in range(n)] for i in range(n)]

    def leibniz_term(perm, psign):
        out = S[0][perm[0]].scale(psign)
        for i in range(1, n):
            out = out * S[i][perm[i]]
        return out

    out = QSeries.collect((((0, 0, sum(lows)), leibniz_term(p, sg))
                           for p, sg in _perms_with_sign(n)), N, 0)
    # the floor is the lowest exponent that survives cancellation
    floor = min([0] + [k[2] for k in out.terms])
    return QSeries(out.terms, N, floor, _clean=True)


def check_character_data(family: str, n: int, hw: HalfWeight) -> None:
    """Raise ValueError unless specialized_character_sum is defined at
    (family, n, hw)."""
    if len(hw.two_lambda) != n:
        raise ValueError("two_lambda needs n entries")
    if family == "A":
        if n < 1:
            raise ValueError("family A needs n >= 1")
        if not hw.lambda_integral:
            raise ValueError("family A needs an integral partition")
        if hw.two_lambda and hw.two_lambda[0] > 2 * ((hw.two_k) // 2):
            raise ValueError("lambda_1 <= floor(k)")
    elif family == "D":
        if n < 2:
            raise ValueError("family D needs n >= 2")
        if hw.two_lambda and hw.two_lambda[0] > hw.two_k:
            raise ValueError("lambda_1 <= k")
    else:
        raise ValueError(family)


def specialized_character_sum(family: str, n: int, hw: HalfWeight,
                              N: int) -> QSeries:
    """The determinant-sum value of the non-standard specialisation of the
    character with highest-weight data hw; equals the corresponding
    char_product for integral data and vanishes for half-integral level
    (both families) or half-partition weight (family D).

    Substituting r -> -r turns the character's lattice sum into the
    Macdonald sum of type B (family A) or D (family D)."""
    check_character_data(family, n, hw)
    sigma = 1 if hw.k_integral else -1
    if family == "A":
        y = tuple(hw.two_lambda[i] // 2 + n - i for i in range(n))
        raw = macdonald_sum("B", y, hw.two_k + 2 * n + 1, sigma, 1, N)
        den = euler_product(((1, 1, None, -n),), N - min(raw.q_floor, 0))
        return _halve((raw * den).truncate(N), 2, N)
    tau = 1 if hw.lambda_integral else -1
    yu = tuple(hw.two_lambda[i] + 2 * (n - i) - 1 for i in range(n))
    Nu = 2 * N + 1
    raw = macdonald_sum("D", yu, 2 * (hw.two_k + 2 * n), sigma, tau, Nu)
    inner = Nu - min(raw.q_floor, 0)
    den = euler_product(((2, 2, None, 1 - n), (4, 4, None, -1)), inner)
    out = (raw * den).truncate(Nu)
    out = _halve(out, 4, Nu)
    terms: dict[tuple[int, int, int], int] = {}
    for (dz, dw, du), c in out.terms.items():
        if du % 2:
            raise AssertionError("odd half-exponent survived: u^%d" % du)
        terms[(dz, dw, du // 2)] = c
    return QSeries(terms, N, min(out.q_floor // 2, 0), _clean=True)


def _halve(s: QSeries, d: int, N: int) -> QSeries:
    terms = {}
    for k, c in s.terms.items():
        if c % d:
            raise AssertionError("coefficient %d not divisible by %d" % (c, d))
        terms[k] = c // d
    return QSeries(terms, s.q_order, s.q_floor, _clean=True)
