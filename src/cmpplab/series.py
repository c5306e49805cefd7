"""Exact truncated power series in q with auxiliary variables z and w.

The ring element is a finite map (dz, dw, dq) -> integer coefficient,
where dz, dw >= 0 and dq may be negative (Laurent part, tracked by
``q_floor``).  Every series carries the largest q-exponent ``q_order``
through which its coefficients are guaranteed exact; ``q_order = None``
means the series is exact at every order (polynomials, monomials, the
zero series).  All arithmetic keeps the tightest provable window:

* add/sub:  order = min of the operands' orders
* mul:      order = min(a.order + b.floor, b.order + a.floor)

Coefficients are plain Python ints, so everything is exact.  Two rules
hold throughout:

* ``terms`` never stores a zero coefficient.  Arithmetic accumulates
  plainly and leaves the dropping of zeros to the constructor.
* A sum of many series, each times a monomial, goes through the one
  accumulator ``QSeries.collect`` rather than a chain of ``+``, which
  would copy the running sum once per term.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

Key = tuple[int, int, int]  # (dz, dw, dq)


def _min_order(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class Mismatch(NamedTuple):
    dz: int
    dw: int
    dq: int
    lhs: int
    rhs: int


class QSeries:
    __slots__ = ("terms", "q_order", "q_floor")

    def __init__(self, terms: dict[Key, int], q_order: Optional[int] = None,
                 q_floor: int = 0, _clean: bool = False):
        if not _clean:
            terms = {k: c for k, c in terms.items() if c}
        self.terms = terms
        self.q_order = q_order
        self.q_floor = q_floor

    # -- construction -----------------------------------------------------

    @staticmethod
    def zero() -> "QSeries":
        return QSeries({}, None, 0, _clean=True)

    @staticmethod
    def monomial(coeff: int, dz: int = 0, dw: int = 0, dq: int = 0,
                 order: Optional[int] = None) -> "QSeries":
        if coeff == 0:
            return QSeries({}, order, 0, _clean=True)
        return QSeries({(dz, dw, dq): coeff}, order, dq, _clean=True)

    @staticmethod
    def one(order: Optional[int] = None) -> "QSeries":
        return QSeries.monomial(1, order=order)

    @staticmethod
    def collect(parts: Iterable[tuple[Key, "QSeries"]],
                order: Optional[int], floor: int) -> "QSeries":
        """sum of z^a w^b q^c * s over the ((a, b, c), s) in parts, cut at
        q^order (None: exact), with the window (order, floor) the caller
        states for the sum."""
        terms: dict[Key, int] = {}
        for (a, b, c), s in parts:
            for (dz, dw, dq), v in s.terms.items():
                k = (dz + a, dw + b, dq + c)
                terms[k] = terms.get(k, 0) + v
        if order is not None:
            terms = {k: v for k, v in terms.items() if k[2] <= order}
        return QSeries(terms, order, floor)

    # -- basic queries ----------------------------------------------------

    def is_exact_zero(self) -> bool:
        return not self.terms and self.q_order is None

    def coeff(self, dz: int = 0, dw: int = 0, dq: int = 0) -> int:
        return self.terms.get((dz, dw, dq), 0)

    def q_coeffs(self, n: int) -> list[int]:
        """Coefficients of q^0..q^n for a series with no z/w dependence."""
        out = [0] * (n + 1)
        for (dz, dw, dq), c in self.terms.items():
            if dz or dw:
                raise ValueError("series has z/w dependence")
            if 0 <= dq <= n:
                out[dq] = c
        return out

    def min_q_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(k[2] for k in self.terms)

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries({k: -c for k, c in self.terms.items()},
                       self.q_order, self.q_floor, _clean=True)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries.collect(
            (((0, 0, 0), self), ((0, 0, 0), other)),
            _min_order(self.q_order, other.q_order),
            min(self.q_floor, other.q_floor))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        if (not self.terms and self.q_order is None) or \
           (not other.terms and other.q_order is None):
            return QSeries.zero()
        a, b = self, other
        if len(a.terms) > len(b.terms):
            a, b = b, a
        order = _min_order(
            None if a.q_order is None else a.q_order + b.q_floor,
            None if b.q_order is None else b.q_order + a.q_floor)
        floor = a.q_floor + b.q_floor
        b_items = sorted(b.terms.items(), key=lambda kv: kv[0][2])
        terms: dict[Key, int] = {}
        for (z1, w1, d1), c1 in a.terms.items():
            for (z2, w2, d2), c2 in b_items:
                d = d1 + d2
                if order is not None and d > order:
                    break
                k = (z1 + z2, w1 + w2, d)
                terms[k] = terms.get(k, 0) + c1 * c2
        return QSeries(terms, order, floor)

    def scale(self, c: int) -> "QSeries":
        if c == 0:
            return QSeries({}, self.q_order, 0, _clean=True)
        return QSeries({k: c * v for k, v in self.terms.items()},
                       self.q_order, self.q_floor, _clean=True)

    def truncate(self, n: int) -> "QSeries":
        """Restrict validity (and terms) to q-exponents <= n."""
        order = n if self.q_order is None else min(self.q_order, n)
        terms = {k: c for k, c in self.terms.items() if k[2] <= order}
        return QSeries(terms, order, self.q_floor, _clean=True)

    # -- substitution -------------------------------------------------------

    def substitute(self, z: Optional[tuple[int, int, int]] = None,
                   w: Optional[tuple[int, int, int]] = None,
                   qpow: int = 1) -> "QSeries":
        """Monomial substitution z -> z^a w^b q^c, w -> z^a' w^b' q^c', q -> q^qpow.

        Only exponent-raising maps are provably truncation-safe: a, b, c >= 0
        and qpow >= 1 are enforced.  The result's q_order is (N+1)*qpow - 1
        for qpow > 1, else N.
        """
        if qpow < 1:
            raise ValueError("q -> q^m requires m >= 1")
        zi = (1, 0, 0) if z is None else z
        wi = (0, 1, 0) if w is None else w
        for img in (zi, wi):
            if img[0] < 0 or img[1] < 0:
                raise ValueError("z/w images need non-negative z/w exponents")
            if img[2] < 0:
                raise ValueError(
                    "substitution would make q-exponents unbounded below "
                    "the declared floor; rewrite the identity with shifts "
                    "on the other side")
        if self.q_order is None:
            order = None
        elif qpow == 1:
            order = self.q_order
        else:
            order = (self.q_order + 1) * qpow - 1
        terms: dict[Key, int] = {}
        for (dz, dw, dq), c in self.terms.items():
            k = (zi[0] * dz + wi[0] * dw,
                 zi[1] * dz + wi[1] * dw,
                 qpow * dq + zi[2] * dz + wi[2] * dw)
            if order is not None and k[2] > order:
                continue
            terms[k] = terms.get(k, 0) + c
        return QSeries(terms, order, qpow * self.q_floor)

    def at_one(self, var: str = "z") -> "QSeries":
        """Set z (or w) to 1 by collapsing its exponent."""
        if var == "z":
            return self.substitute(z=(0, 0, 0))
        if var == "w":
            return self.substitute(w=(0, 0, 0))
        raise ValueError(var)

    def at_zero(self, var: str) -> "QSeries":
        """Set z (or w) to 0 by dropping terms with a positive exponent."""
        idx = {"z": 0, "w": 1}[var]
        terms = {k: c for k, c in self.terms.items() if k[idx] == 0}
        return QSeries(terms, self.q_order, self.q_floor, _clean=True)

    # -- inversion -----------------------------------------------------------

    def invert(self, order: Optional[int] = None) -> "QSeries":
        """Multiplicative inverse through the given q-order, at most its own.

        Requires q_floor = 0 and lowest layer equal to +-1 with no z/w
        dependence; solved layer by layer in ascending q-degree.
        """
        order = _min_order(order, self.q_order)
        if order is None:
            raise ValueError("invert needs a finite truncation order")
        if self.q_floor < 0 or self.min_q_degree() not in (0, None):
            raise ValueError("not invertible at this truncation: "
                             "lowest q-exponent must be 0")
        layers: dict[int, list[tuple[int, int, int]]] = {}
        for (dz, dw, dq), c in self.terms.items():
            if dq > order:
                continue
            layers.setdefault(dq, []).append((dz, dw, c))
        base = layers.get(0, [])
        if len(base) != 1 or base[0][:2] != (0, 0) or base[0][2] not in (1, -1):
            raise ValueError("not invertible at this truncation: "
                             "constant term must be +-1 and z/w free")
        c0 = base[0][2]
        inv_layers: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): c0}}
        for d in range(1, order + 1):
            acc: dict[tuple[int, int], int] = {}
            for d1, lay in layers.items():
                if d1 == 0 or d1 > d:
                    continue
                prev = inv_layers.get(d - d1)
                if not prev:
                    continue
                for (z1, w1, c1) in lay:
                    for (z2, w2), c2 in prev.items():
                        k = (z1 + z2, w1 + w2)
                        acc[k] = acc.get(k, 0) + c1 * c2
            # an all-zero layer is left out, so `prev` above skips it
            layer = {k: -c0 * v for k, v in acc.items() if v}
            if layer:
                inv_layers[d] = layer
        terms = {(z, w, d): c
                 for d, lay in inv_layers.items() for (z, w), c in lay.items()}
        return QSeries(terms, order, 0, _clean=True)

    # -- comparison ------------------------------------------------------------

    def compare(self, other: "QSeries", up_to: int) -> Optional[Mismatch]:
        """Coefficientwise equality through q-exponent up_to.

        Returns None when equal, else the lexicographically first
        (dz, dw, dq) mismatch with both coefficients.
        """
        for s in (self, other):
            if s.q_order is not None and s.q_order < up_to:
                raise ValueError("insufficient truncation for compare(%d): "
                                 "order %d" % (up_to, s.q_order))
        keys = set()
        for k in self.terms:
            if k[2] <= up_to:
                keys.add(k)
        for k in other.terms:
            if k[2] <= up_to:
                keys.add(k)
        for k in sorted(keys):
            ca = self.terms.get(k, 0)
            cb = other.terms.get(k, 0)
            if ca != cb:
                return Mismatch(k[0], k[1], k[2], ca, cb)
        return None

    # -- export -------------------------------------------------------------

    def dump_tsv(self) -> str:
        """One row per term, `dz dw dq coeff`, sorted lexicographically."""
        order = self.q_order
        if order is None:
            order = max((k[2] for k in self.terms), default=0)
        lines = ["# order=%d floor=%d" % (order, self.q_floor)]
        for k in sorted(self.terms):
            lines.append("%d\t%d\t%d\t%d" % (k[0], k[1], k[2], self.terms[k]))
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.terms == other.terms and self.q_order == other.q_order
                and self.q_floor == other.q_floor)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.q_order, self.q_floor))

    def __repr__(self) -> str:
        n = len(self.terms)
        return "QSeries(%d terms, order=%s, floor=%d)" % (
            n, self.q_order, self.q_floor)


# -- named constructors ---------------------------------------------------


def euler_product(factors: Iterable[tuple[int, int, Optional[int], int]],
                  order: int, sign: int = 1, shift: int = 0) -> QSeries:
    """sign * q^shift * prod (q^c; q^m)_count^power over the (c, m, count,
    power) in factors (count None: the infinite product), exact through
    q^order: the window (order, shift).

    The factors are first reduced to the exponent vector of
    prod_{e=1}^{L} (1 - q^e)^{c_e}, L = order - shift, since no factor
    past q^L reaches q^order.  The product's coefficients f_n then follow
    from its logarithmic derivative, q f'/f = -sum_k sigma(k) q^k with
    sigma(k) = sum_{e | k} e c_e (Euler's recurrence):

        n f_n = -sum_{k <= n, sigma(k) != 0} sigma(k) f_{n-k},  f_0 = 1.

    The division by n is exact, because f has integer coefficients."""
    top = order - shift
    vec = [0] * (top + 1)
    for c, m, count, power in factors:
        if m < 1:
            raise ValueError("base exponent m must be >= 1")
        if c < 1:
            raise ValueError("infinite product needs c >= 1 to terminate")
        stop = top + 1 if count is None else min(top + 1, c + count * m)
        for e in range(c, stop, m):
            vec[e] += power
    if top < 0:
        return QSeries({}, order, shift, _clean=True)
    sigma = [0] * (top + 1)
    for e in range(1, top + 1):
        if vec[e]:
            w = e * vec[e]
            for k in range(e, top + 1, e):
                sigma[k] += w
    nonzero = [(k, s) for k, s in enumerate(sigma) if s]
    f = [1] + [0] * top
    for n in range(1, top + 1):
        acc = 0
        for k, s in nonzero:
            if k > n:
                break
            acc += s * f[n - k]
        f[n] = -acc // n
    return QSeries({(0, 0, d + shift): sign * v for d, v in enumerate(f) if v},
                   order, shift, _clean=True)


def poch(c: int, m: int, count: Optional[int], n: int) -> QSeries:
    """Truncated q-Pochhammer product prod_{j<count} (1 - q^{c+jm}), to order n.

    count=None means the infinite product; factors beyond q^n are dropped
    either way, so the result's order is n.  c must be >= 1 for every
    count: a factor 1 - q^e with e <= 0 has no place under floor 0.
    """
    return euler_product(((c, m, count, 1),), n)


@lru_cache(maxsize=128)  # a catalog pass fills 0 (only `expand qbin`)
def _qbin_poly(n: int, k: int) -> QSeries:
    """Gaussian binomial [n, k]_q as an exact polynomial."""
    if k < 0 or k > n:
        return QSeries.zero()
    if k == 0 or k == n:
        return QSeries.one()
    # [n,k] = [n-1,k-1] + q^k [n-1,k]
    return QSeries.collect((((0, 0, 0), _qbin_poly(n - 1, k - 1)),
                            ((0, 0, k), _qbin_poly(n - 1, k))), None, 0)


def qbin(n: int, k: int, m: int = 1) -> QSeries:
    """Gaussian binomial coefficient [n, k] in base q^m, exact polynomial.

    Zero when k < 0 or k > n.
    """
    if m < 1:
        raise ValueError("base exponent m must be >= 1")
    return QSeries({(0, 0, m * d): c
                    for (_, _, d), c in _qbin_poly(n, k).terms.items()},
                   None, 0, _clean=True)
