"""Catalog of functional equations, bridges and identity checks.

Every check is declarative: an id and a builder whose arguments are the
check's parameters.  The builder validates them and returns the signed
terms of the two sides, built as exact series at a requested order, and
a status marking the instance proved or conjectural.  Proved entries are
regressions (a mismatch is a bug); conjectural entries report mismatches
as findings.

Generating-function shifts such as A(zq^2) are realised through the
truncation-safe substitution z -> z q^c (c >= 0); the catalog stores all
equations in a form where only such raising shifts occur (e.g. the
C^(1)/D^(2) bridge is stated with zq on the C side rather than z/q on
the D side), and equations with w/z prefactors are cleared by z.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import cmpp, hall_littlewood, macdonald, multisums, products
from .series import Mismatch, QSeries


class ParamError(ValueError):
    """Parameters outside a check's documented range."""


# -- series resolver ----------------------------------------------------------


def _d2_tags(k: int):
    """(idx, w): d2-unique tags the idx-th level-k rank-2 weight by w^idx."""
    from .d2solver import _weights
    return enumerate(sorted(_weights(k)))


def _d2_solved(k: int, N: int) -> QSeries:
    """All level-k rank-2 solver series, tagged as by _d2_tags."""
    from .d2solver import solve_d2_system
    family = solve_d2_system(k, N)
    return QSeries.collect((((0, idx, 0), family[w])
                            for idx, w in _d2_tags(k)), N, 0)


# Series kind -> builder; a ref (kind, *args) is built at order N as
# builder(*args, N).  A "module.function" name is looked up on the module
# at each build, never stored, so that rebinding that attribute (tracing,
# test patches) changes what the catalog builds.  Every ref's arguments are
# its builder's own, in order, but for three kinds: wz and hlsym, whose
# builders take a defaulted argument after N that their refs give before
# it, and d2solved, which tags the solver's series.  No builder asks the
# memo for another series: a term is one series under a monomial
# prefactor.
_BUILDERS: dict[str, str | Callable[..., QSeries]] = {
    "gen": "cmpp.gen_fun",
    "gen1": "cmpp.gen_fun_z1",
    "gordon_b": "cmpp.gordon_series",
    "prodspec": "products.expand",
    "charprod": "products.char_product",
    "c_n0_2var": "products.c_n0_two_variable",
    "fsum": "multisums.f_sum",
    "ag": "multisums.ag_sum",
    "hlchain": "hall_littlewood.hl_chain_sum",
    "hlsum": "hall_littlewood.hl_sum_over_bounded",
    "hlweighted": "hall_littlewood.hl_weighted_chain",
    "hlinf": "hall_littlewood.hl_inf_spec",
    "gow": "hall_littlewood.prop_gow_sum",
    "shun": "multisums.shun_sum",
    "shun2": "multisums.shun2_sum",
    # ("wz", variant) or ("wz", variant, k)
    "wz": lambda variant, *k_N: multisums.wz_sum(variant, k_N[-1],
                                                 *k_N[:-1]),
    "sser": "multisums.s_series",
    "pi": "macdonald.pi_product",
    "macsum": "macdonald.macdonald_sum",
    "speccharsum": "macdonald.specialized_character_sum",
    "hlsym": lambda shape, L, m, xstep, N:
        hall_littlewood.hl_symmetrization(shape, L, m, N, xstep=xstep),
    "hlls": "hall_littlewood.hl_ls_2r1s",
    "hlpf": "hall_littlewood.hl_principal_finite",
    "baileyl": "hall_littlewood.bailey_alpha_side",
    "baileyr": "hall_littlewood.bailey_hl_side",
    "jtp_sum": "products.theta_sum",
    "d2solved": _d2_solved,
}


def _build(ref: tuple, N: int) -> QSeries:
    """The series ``ref`` built afresh at order N, through its builder."""
    try:
        build = _BUILDERS[ref[0]]
    except KeyError:
        raise ValueError("unknown series kind %r" % (ref[0],)) from None
    if isinstance(build, str):
        module, name = build.split(".")
        build = getattr(globals()[module], name)
    return build(*ref[1:], N)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


class _OrderMemo:
    """Memo of ``build(ref, N)`` keyed by ref alone: it keeps the deepest
    build of each ref and the order N it was built at, and evicts the least
    recently used ref beyond ``maxsize``.

    A request at order M <= N is a hit when the kept build can serve it:
    an exact build (``q_order`` None, exact at every order) as it is, any
    other cut to M if its ``q_order`` >= M, since ``build(N).truncate(M)``
    is ``build(M)`` (tested per builder kind).  ``cache_info()`` counts
    such a serve as a hit, as ``lru_cache`` does.
    """

    def __init__(self, build: Callable[[tuple, int], QSeries],
                 maxsize: int):
        self.build = build
        self.maxsize = maxsize
        self.kept: OrderedDict[tuple, tuple[int, QSeries]] = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, ref: tuple, N: int) -> QSeries:
        kept = self.kept.get(ref)
        if kept is not None:
            self.kept.move_to_end(ref)
            n, s = kept
            if N == n or (N < n and s.q_order is None):
                self.hits += 1
                return s
            if N < n and s.q_order >= N:
                self.hits += 1
                return s.truncate(N)
        self.misses += 1
        s = self.build(ref, N)
        if kept is None or N > kept[0]:
            self.kept[ref] = (N, s)
            if len(self.kept) > self.maxsize:
                self.kept.popitem(last=False)
        return s

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize,
                          len(self.kept))

    def cache_clear(self) -> None:
        self.kept.clear()
        self.hits = self.misses = 0


# Refs the series memo keeps: a seed-1 pass of perfbench's catalog pool
# leaves 2,179 distinct refs in len(_series.kept); none may be evicted.
_SERIES_MEMO_SIZE = 4096

_series = _OrderMemo(_build, _SERIES_MEMO_SIZE)


_UNIT = ((1, 0, 0, 0),)


@dataclass(frozen=True)
class Term:
    """sign * prefactor * post-processed series with substituted argument."""

    side: int
    series: tuple
    pref: tuple[tuple[int, int, int, int], ...] = _UNIT
    subst: tuple[int, int, int] = (0, 0, 1)  # z -> z q^cz, w -> w q^cw, q^m
    post: str = ""  # a key of _POST


@dataclass(frozen=True)
class EquationSpec:
    terms: tuple[Term, ...]
    status: str  # "proved" | "conjectural"


# Term.post -> what it does to the term's series, before the substitution
_POST = {"": lambda s: s,
         "z1": lambda s: s.at_one("z"),
         "w0": lambda s: s.at_zero("w"),
         "z0": lambda s: s.at_zero("z"),
         "neg": lambda s: QSeries({k: c for k, c in s.terms.items() if c < 0},
                                  s.q_order, s.q_floor, _clean=True),
         "w_to_z": lambda s: s.substitute(w=(1, 0, 0)),
         "z_to_w": lambda s: s.substitute(z=(0, 1, 0))}


def _eval_term(term: Term, M: int) -> QSeries:
    """The term's series, post-processed and substituted, exact through
    order M at least: fetched through M // m under q -> q^m, whose image
    is exact through (M // m + 1) m - 1 >= M."""
    cz, cw, m = term.subst
    s = _POST[term.post](_series(term.series, M // m))
    if (cz, cw, m) != (0, 0, 1):
        s = s.substitute(z=(1, 0, cz), w=(0, 1, cw), qpow=m)
    return s


def residual(spec: EquationSpec, N: int):
    """The spec's residual through order N, left side minus right, as one
    signed sum: each term's sign times its prefactor's shifted copies of
    its series, which a prefactor exponent f < 0 needs through N - f.
    Returns (residual, verdict): None for a zero residual, else the
    mismatch at its lexicographically least (dz, dw, dq)."""
    parts, lhs_parts = [], []
    floor = 0
    for t in spec.terms:
        low = min((p[3] for p in t.pref), default=0)
        s = _eval_term(t, N - min(low, 0))
        if s.q_order is not None and s.q_order + low < N:
            raise ValueError("insufficient truncation for compare(%d): "
                             "order %d" % (N, s.q_order + low))
        floor = min(floor, s.q_floor + low)
        for c, dz, dw, dq in t.pref:
            c *= t.side
            part = ((dz, dw, dq), s if c == 1 else s.scale(c))
            parts.append(part)
            if t.side > 0:
                lhs_parts.append(part)
    res = QSeries.collect(parts, N, floor)
    if not res.terms:
        return res, None
    k = min(res.terms)
    lhs = sum(s.coeff(k[0] - a, k[1] - b, k[2] - c)
              for (a, b, c), s in lhs_parts)
    return res, Mismatch(*k, lhs, lhs - res.terms[k])


# -- weight helpers -----------------------------------------------------------


def as_tuple(value) -> tuple:
    """The value of a tuple argument; a single int is its 1-tuple."""
    return (value,) if isinstance(value, int) else tuple(value)


def _unit(n: int, a: int) -> tuple[int, ...]:
    if not 0 <= a <= n:
        raise ParamError("weight index a=%d outside 0..%d" % (a, n))
    return tuple(1 if i == a else 0 for i in range(n + 1))


def _wsum(n: int, *pairs: tuple[int, int]) -> tuple[int, ...]:
    """Weight vector from (index, coefficient) pairs; coinciding indices
    accumulate (the n = 1 merging of the middle vertices)."""
    w = [0] * (n + 1)
    for idx, c in pairs:
        if not 0 <= idx <= n:
            raise ParamError("index %d outside 0..%d" % (idx, n))
        w[idx] += c
    if any(v < 0 for v in w):
        raise ParamError("negative weight entry in %r" % (w,))
    return tuple(w)


def _mono(c: int, dz: int = 0, dw: int = 0, dq: int = 0):
    return (c, dz, dw, dq)


def _mprod(*polys):
    """Product of prefactor polynomials given as monomial tuples."""
    out = QSeries.one()
    for poly in polys:
        out = out * QSeries({(z, w, d): c for c, z, w, d in poly})
    return tuple((c, z, w, d) for (z, w, d), c in sorted(out.terms.items()))


# -- check registry -----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    check_id: str
    param_names: tuple[str, ...]
    build: Callable[..., tuple[list[Term], str]]
    doc: str
    defaults: dict = field(default_factory=dict)


CHECKS: dict[str, Check] = {}


def _register(check_id: str, doc: str):
    """Register the decorated builder as a check.  Its signature declares
    the check's parameters: the positional ones are the check's names, the
    keyword-only ones its bracketed extras, each with its default; it
    returns the check's (terms, status)."""
    def wrap(fn):
        sig = inspect.signature(fn).parameters.values()
        names = tuple(p.name for p in sig
                      if p.kind is p.POSITIONAL_OR_KEYWORD)
        defaults = {p.name: p.default for p in sig
                    if p.default is not p.empty}
        CHECKS[check_id] = Check(check_id, names, fn, doc, defaults)
        return fn
    return wrap


def catalog(check_id: str, params: dict) -> EquationSpec:
    """Build the fully-bound EquationSpec for a catalog entry.  The params
    bind to its builder's arguments as in a call: a missing or undeclared
    name is a TypeError, a value out of range a ParamError."""
    if check_id not in CHECKS:
        raise KeyError("unknown check %r (see list-checks)" % (check_id,))
    chk = CHECKS[check_id]
    missing = [name for name in chk.param_names
               if name not in params and name not in chk.defaults]
    if missing:
        raise TypeError("missing params %s for %s" % (missing, check_id))
    unknown = sorted(set(params) - set(chk.param_names) - set(chk.defaults))
    if unknown:
        raise TypeError("unknown params %s for %s" % (unknown, check_id))
    terms, status = chk.build(**params)
    return EquationSpec(tuple(terms), status)


def list_checks() -> list[Check]:
    return [CHECKS[k] for k in sorted(CHECKS)]


# -- rank-one and rank-n functional equations (all proved) -------------------


@_register("rogers-selberg",
           "A^(1) system: A_{(k-a)L0+aL1}(z) - A_{(k-a+1)L0+(a-1)L1}(z) "
           "= (zq)^a A_{aL0+(k-a)L1}(zq)")
def _rs(k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("gen", "A", 1, (k - a, a)))]
    if a >= 1:
        terms.append(Term(-1, ("gen", "A", 1, (k - a + 1, a - 1))))
    terms.append(Term(-1, ("gen", "A", 1, (a, k - a)),
                      pref=(_mono(1, dz=a, dq=a),), subst=(1, 0, 1)))
    return terms, "proved"


@_register("mr-system",
           "level-one system equivalent to the rank-2 cylindric recurrences")
def _mr(n, a, branch=1):
    if branch == 1:
        if n < 1 or not 0 <= a <= n // 2:
            raise ParamError("branch 1 needs n >= 1, 0 <= a <= floor(n/2)")
        terms = [Term(1, ("gen", "A", n, _unit(n, a))),
                 Term(-1, ("gen", "A", n, _unit(n, n - a)), subst=(1, 0, 1))]
        for i in range(1, a + 1):
            terms.append(Term(-1, ("gen", "A", n, _unit(n, a - i + 1)),
                              pref=(_mono(1, dz=1, dq=2 * i - 1),),
                              subst=(2 * i, 0, 1)))
            terms.append(Term(-1, ("gen", "A", n, _unit(n, n - a + i)),
                              pref=(_mono(1, dz=1, dq=2 * i),),
                              subst=(2 * i + 1, 0, 1)))
    elif branch == 2:
        if not 0 <= a <= (n - 1) // 2:
            raise ParamError("branch 2 needs 0 <= a <= floor((n-1)/2)")
        terms = [Term(1, ("gen", "A", n, _unit(n, n - a))),
                 Term(-1, ("gen", "A", n, _unit(n, a + 1)), subst=(1, 0, 1))]
        for i in range(1, a + 2):
            terms.append(Term(-1, ("gen", "A", n, _unit(n, n - a + i - 1)),
                              pref=(_mono(1, dz=1, dq=2 * i - 1),),
                              subst=(2 * i, 0, 1)))
        for i in range(1, a + 1):
            terms.append(Term(-1, ("gen", "A", n, _unit(n, a - i + 1)),
                              pref=(_mono(1, dz=1, dq=2 * i),),
                              subst=(2 * i + 1, 0, 1)))
    else:
        raise ParamError("branch in {1, 2}")
    return terms, "proved"


@_register("a-fun",
           "A_{(k-a)L0+aLn}(z) = sum_i (zq)^i A_{iL0+(a-i)L1+(k-a)Ln}(zq)")
def _afun(n, k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    if n < 1:
        raise ParamError("n >= 1")
    terms = [Term(1, ("gen", "A", n, _wsum(n, (0, k - a), (n, a))))]
    for i in range(a + 1):
        w = _wsum(n, (0, i), (1, a - i), (n, k - a))
        terms.append(Term(-1, ("gen", "A", n, w),
                          pref=(_mono(1, dz=i, dq=i),), subst=(1, 0, 1)))
    return terms, "proved"


@_register("a-fun2",
           "A_{(k-1)L0+L1}(z) = A_{L(n-1)+(k-1)Ln}(zq) + (zq^2)^k "
           "A_{kL0}(zq^2) + zq sum_i (zq^2)^i A_{iL0+(k-i)L1}(zq^2)")
def _afun2(n, k):
    if n < 1 or k < 1:
        raise ParamError("n, k >= 1")
    terms = [Term(1, ("gen", "A", n, _wsum(n, (0, k - 1), (1, 1)))),
             Term(-1, ("gen", "A", n, _wsum(n, (n - 1, 1), (n, k - 1))),
                  subst=(1, 0, 1)),
             Term(-1, ("gen", "A", n, _wsum(n, (0, k))),
                  pref=(_mono(1, dz=k, dq=2 * k),), subst=(2, 0, 1))]
    for i in range(k):
        terms.append(Term(-1, ("gen", "A", n, _wsum(n, (0, i), (1, k - i))),
                          pref=(_mono(1, dz=i + 1, dq=2 * i + 1),),
                          subst=(2, 0, 1)))
    return terms, "proved"


@_register("a-fun2-simplified",
           "A_{(k-1)L0+L1}(z) = A_{L(n-1)+(k-1)Ln}(zq) + (1-zq)(zq^2)^k "
           "A_{kL0}(zq^2) + zq A_{kLn}(zq)")
def _afun2s(n, k):
    if n < 1 or k < 1:
        raise ParamError("n, k >= 1")
    pref = _mprod((_mono(1), _mono(-1, dz=1, dq=1)),
                  (_mono(1, dz=k, dq=2 * k),))
    terms = [Term(1, ("gen", "A", n, _wsum(n, (0, k - 1), (1, 1)))),
             Term(-1, ("gen", "A", n, _wsum(n, (n - 1, 1), (n, k - 1))),
                  subst=(1, 0, 1)),
             Term(-1, ("gen", "A", n, _wsum(n, (0, k))), pref=pref,
                  subst=(2, 0, 1)),
             Term(-1, ("gen", "A", n, _wsum(n, (n, k))),
                  pref=(_mono(1, dz=1, dq=1),), subst=(1, 0, 1))]
    return terms, "proved"


@_register("cd-fun1",
           "C_{aL0+(k-a)Ln}(z) = sum_{i,j} (zq)^{i+j} "
           "D^{(n+1)}_{iL0+(a-i)L1+(k-a-j)Ln+jL(n+1)}(zq)")
def _cdfun1(n, k, a):
    if n < 1:
        raise ParamError("n >= 1")
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("gen", "C", n, _wsum(n, (0, a), (n, k - a))))]
    for i in range(a + 1):
        for j in range(k - a + 1):
            w = _wsum(n + 1, (0, i), (1, a - i), (n, k - a - j), (n + 1, j))
            terms.append(Term(-1, ("gen", "D", n + 1, w),
                              pref=(_mono(1, dz=i + j, dq=i + j),),
                              subst=(1, 0, 1)))
    return terms, "proved"


@_register("cd-fun2",
           "D^{(n+1)}_{aL0+(k-a)L(n+1)}(z) = C^{(n)}_{aL0+(k-a)Ln}(zq)")
def _cdfun2(n, k, a):
    if n < 0:
        raise ParamError("n >= 0")
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("gen", "D", n + 1, _wsum(n + 1, (0, a), (n + 1, k - a)))),
             Term(-1, ("gen", "C", n, _wsum(n, (0, a), (n, k - a))),
                  subst=(1, 0, 1))]
    return terms, "proved"


@_register("cdn2",
           "D^{(2)}_{aL0+(k-a)L2}(z) = C^{(1)}_{aL0+(k-a)L1}(zq) "
           "(the z/q form cleared by shifting the C side)")
def _cdn2(k, a):
    return _cdfun2(1, k, a)


@_register("d2-nis2",
           "the rank-2 difference equation with (zq)^{k+i-a+min(0,j-b)}")
def _d2nis2(k, a, b):
    if a < 0 or b < 0 or a + b > k - 1:
        raise ParamError("a, b >= 0 with a + b <= k - 1")
    c = k - a - b
    terms = [Term(1, ("gen", "D", 2, (a, c, b))),
             Term(-1, ("gen", "D", 2, (a + 1, c - 1, b)))]
    for i in range(a + 1):
        for j in range(k - a + 1):
            e = k + i - a + min(0, j - b)
            terms.append(Term(-1, ("gen", "D", 2, (i, k - i - j, j)),
                              pref=(_mono(1, dz=e, dq=e + i + j),),
                              subst=(2, 0, 1)))
    return terms, "proved"


@_register("d2-fun",
           "D^{(2)}_{aL0+(k-a)L2}(z) = sum_{i,j} (zq^2)^{i+j} "
           "D^{(2)}_{iL0+(k-i-j)L1+jL2}(zq^2)")
def _d2fun(k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("gen", "D", 2, _wsum(2, (0, a), (2, k - a))))]
    for i in range(a + 1):
        for j in range(k - a + 1):
            terms.append(Term(-1, ("gen", "D", 2, (i, k - i - j, j)),
                              pref=(_mono(1, dz=i + j, dq=2 * (i + j)),),
                              subst=(2, 0, 1)))
    return terms, "proved"


@_register("d2-nis2-diff",
           "the a<->b symmetric combination of two difference equations")
def _d2nis2diff(k, a, b):
    if a < 0 or b < 0 or a + b > k - 2:
        raise ParamError("a, b >= 0 with a + b <= k - 2")
    terms = []
    for i in (0, 1):
        for j in (0, 1):
            sgn = 1 if (i + j) % 2 == 0 else -1
            side = 1 if sgn > 0 else -1
            terms.append(Term(side,
                              ("gen", "D", 2,
                               (i + a, k - i - j - a - b, j + b))))
    c = k - a - b
    for i in range(a + 1):
        for j in range(b + 1):
            pref = _mprod(
                (_mono(-1),),
                (_mono(1), _mono(-1, dz=1, dq=1)),
                (_mono(1, dz=c - 1, dq=c - 1),),
                (_mono(1, dz=i + j, dq=2 * (i + j)),))
            terms.append(Term(-1, ("gen", "D", 2, (i, k - i - j, j)),
                              pref=pref, subst=(2, 0, 1)))
    return terms, "proved"


@_register("d2-combo",
           "D^{(2)}_{aL0+L1+(k-a-1)L2}(z) expanded at argument zq^2")
def _d2combo(k, a):
    if not 0 <= a <= k - 1:
        raise ParamError("0 <= a <= k - 1")
    terms = [Term(1, ("gen", "D", 2, (a, 1, k - a - 1)))]
    for i in range(a + 1):
        for j in range(k - a):
            pref = _mprod((_mono(1), _mono(1, dz=1, dq=1)),
                          (_mono(1, dz=i + j, dq=2 * (i + j)),))
            terms.append(Term(-1, ("gen", "D", 2, (i, k - i - j, j)),
                              pref=pref, subst=(2, 0, 1)))
    for i in range(a + 1):
        e = k + i - a
        terms.append(Term(-1, ("gen", "D", 2, (i, a - i, k - a)),
                          pref=(_mono(1, dz=e, dq=2 * e),), subst=(2, 0, 1)))
    for i in range(k - a):
        e = i + a + 1
        terms.append(Term(-1, ("gen", "D", 2, (a + 1, k - a - i - 1, i)),
                          pref=(_mono(1, dz=e, dq=2 * e),), subst=(2, 0, 1)))
    return terms, "proved"


@_register("automorphism", "weight-reversal symmetry of the C and D families")
def _auto(family, n, *, weights=None):
    if family not in ("C", "D"):
        raise ParamError("family C or D")
    w = _weights_param(weights, n, 0 if family == "C" else 1)
    terms = [Term(1, ("gen", family, n, w)),
             Term(-1, ("gen", family, n, tuple(reversed(w))))]
    return terms, "proved"


@_register("b-b",
           "two-variable identity of the rank-1 family with the bounded-"
           "frequency partitions f_i + f_{i+1} <= k0+k1, f_1 <= k1")
def _bb(k0, k1):
    if k0 < 0 or k1 < 0:
        raise ParamError("k0, k1 >= 0")
    terms = [Term(1, ("gen", "A", 1, (k0, k1))),
             Term(-1, ("gordon_b", k0 + k1, k1))]
    return terms, "proved"


# -- level-one product theorems ----------------------------------------------


@_register("gordon",
           "Gordon: gen_fun(A,1,(k-a,a)) at z=1 equals the modulus-(2k+3) "
           "triple-product quotient")
def _gordon(k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("gen1", "A", 1, (k - a, a))),
             Term(-1, ("prodspec", products.gordon_product(k, a)))]
    return terms, "proved"


@_register("andrews-gordon",
           "the Andrews-Gordon multisum at z=1 equals the Gordon product")
def _ag2(k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("ag", k, a), post="z1"),
             Term(-1, ("prodspec", products.gordon_product(k, a)))]
    return terms, "proved"


@_register("ag-two-var",
           "the two-variable Andrews-Gordon multisum equals the bounded-"
           "frequency generating function")
def _agtv(k, a):
    if not 0 <= a <= k:
        raise ParamError("0 <= a <= k")
    terms = [Term(1, ("ag", k, a)), Term(-1, ("gordon_b", k, a))]
    return terms, "proved"


@_register("gordon-fsum",
           "gen_fun(A,1,(k-a,a)) at z=1 equals the F-multisum at z=1")
def _gfsum(k, a):
    if k < 1 or not 0 <= a <= k:
        raise ParamError("k >= 1, 0 <= a <= k")
    terms = [Term(1, ("gen1", "A", 1, (k - a, a))),
             Term(-1, ("fsum", k, a, 1), post="z1")]
    return terms, "proved"


def _level_one(check_id, family, mod, product, n_min=1):
    """Register the level-one check of a family: its counts at L_a, z=1,
    equal the modulus-(2n+mod) product."""
    @_register(check_id, "level-one %s-family counts equal the "
               "modulus-(2n+%d) product" % (family, mod))
    def build(n, a):
        if n < n_min:
            raise ParamError("n >= %d" % n_min)
        terms = [Term(1, ("gen1", family, n, _unit(n, a))),
                 Term(-1, ("prodspec", getattr(products, product)(n, a)))]
        return terms, "proved"


_level_one("jms", "A", 3, "jms_product")
_level_one("dk1", "D", 2, "d_level1_product")
_level_one("c-level1", "C", 4, "c_level1_product", n_min=0)


@_register("a-f",
           "two-variable bridge to F^{(n)}_{2a,1} / F^{(n)}_{2n-2a+1,1}")
def _af(n, a):
    if n < 1:
        raise ParamError("n >= 1")
    aa = 2 * a if a <= n // 2 else 2 * n - 2 * a + 1
    terms = [Term(1, ("gen", "A", n, _unit(n, a))),
             Term(-1, ("fsum", n, aa, 1))]
    return terms, "proved"


@_register("c-f",
           "two-variable bridge to F^{(n+1)}_{2a+1,0} / F^{(n+1)}_{2n-2a+1,0}")
def _cf(n, a):
    aa = 2 * a + 1 if a <= n // 2 else 2 * n - 2 * a + 1
    terms = [Term(1, ("gen", "C", n, _unit(n, a))),
             Term(-1, ("fsum", n + 1, aa, 0))]
    return terms, "proved"


@_register("d-f", "two-variable bridge to F^{(n)}_{2a,0} / F^{(n)}_{2n-2a,0}")
def _df(n, a):
    if n < 1:
        raise ParamError("n >= 1")
    aa = 2 * a if a <= n // 2 else 2 * n - 2 * a
    terms = [Term(1, ("gen", "D", n, _unit(n, a))),
             Term(-1, ("fsum", n, aa, 0))]
    return terms, "proved"


@_register("c-n0-closed",
           "one-row odd-part family equals its bounded-multiplicity "
           "two-variable product")
def _cn0(k):
    if k < 0:
        raise ParamError("k >= 0")
    terms = [Term(1, ("gen", "C", 0, (k,))), Term(-1, ("c_n0_2var", k))]
    return terms, "proved"


# -- level-rank duality (products) --------------------------------------------


@_register("level-rank-n1",
           "rank-1 level-k products match rank-k level-1 products")
def _lr1(k, i):
    if not (k >= 1 and 0 <= i <= k):
        raise ParamError("k >= 1, 0 <= i <= k")
    pos = i // 2 if i % 2 == 0 else k - (i - 1) // 2
    terms = [Term(1, ("charprod", "A", "nonstandard", 1, (k - i, i))),
             Term(-1, ("charprod", "A", "nonstandard", k, _unit(k, pos)))]
    return terms, "proved"


@_register("level-rank-n2",
           "rank-2 level-k products match rank-k level-2 products")
def _lr2(k, i, j):
    if not (k >= 1 and 0 <= i <= j <= k):
        raise ParamError("k >= 1, 0 <= i <= j <= k")
    if (i + j) % 2 == 0:
        w = _wsum(k, ((j - i) // 2, 1), ((i + j) // 2, 1))
    else:
        w = _wsum(k, (k - (i + j - 1) // 2, 1), (k - (j - i - 1) // 2, 1))
    terms = [Term(1, ("charprod", "A", "nonstandard", 2, (k - j, j - i, i))),
             Term(-1, ("charprod", "A", "nonstandard", k, w))]
    return terms, "proved"


def _level_rank(check_id, doc, pattern, least):
    """Register a level-rank duality: the rank-n product at the weight
    (k - l)L0 + pattern matches the rank-k one at (n - l)L0 + pattern, l
    the pattern's level, for k, n >= least.  At m = l - 1, the least m a
    pattern allows, -L0 + 2L1 is read as L1."""
    level = sum(c for _, c in pattern)

    def weight(r, m):
        return _wsum(r, (0, m - level) if m >= level else (1, -1), *pattern)

    @_register(check_id, doc)
    def build(k, n):
        if k < least or n < least:
            raise ParamError("k, n >= %d" % least)
        terms = [Term(1, ("charprod", "A", "nonstandard", n, weight(n, k))),
                 Term(-1, ("charprod", "A", "nonstandard", k, weight(k, n)))]
        return terms, "proved"


_level_rank("level-rank-gen1", "phi_n of the level-2k vacuum weight matches "
            "phi_k of the level-2n vacuum weight", (), 1)
_level_rank("level-rank-gen2", "the (k-2)L0+2L1 duality pattern",
            ((1, 2),), 1)
_level_rank("level-rank-gen3", "the (k-3)L0+2L1+L2 duality pattern",
            ((1, 2), (2, 1)), 2)


# -- the three coloured-partition conjectures ---------------------------------


def _weights_param(w, n, n_min=1):
    if w is None:
        raise ParamError("weights required")
    w = as_tuple(w)
    if len(w) != n + 1 or any(v < 0 for v in w):
        raise ParamError("weights must be n+1 non-negative entries")
    if n < n_min:
        raise ParamError("n >= %d" % n_min)
    return w


@_register("a-product-positivity",
           "the A-family character products should have non-negative "
           "coefficients (they count coloured partitions); a negative "
           "coefficient is a finding")
def _apos(n, *, weights=None):
    w = _weights_param(weights, n)
    return [Term(1, ("charprod", "A", "nonstandard", n, w), post="neg")], \
        "conjectural"


def _con_nonstandard(check_id, family):
    """Register the conjecture that a family's counts at z=1 equal its
    non-standard character product, proved for n = 1 or level <= 1."""
    @_register(check_id, "counts of the %s-family equal the non-standard "
               "character product" % family)
    def build(n, *, weights=None):
        w = _weights_param(weights, n)
        status = "proved" if (n == 1 or sum(w) <= 1) else "conjectural"
        terms = [Term(1, ("gen1", family, n, w)),
                 Term(-1, ("charprod", family, "nonstandard", n, w))]
        return terms, status


_con_nonstandard("con-a2n2", "A")
_con_nonstandard("con-dn2", "D")


@_register("con-cn1",
           "counts of the C-family equal the principally "
           "specialised character product")
def _conc(n, *, weights=None):
    w = _weights_param(weights, n, 0)
    k = sum(w)
    vac = w[0] == k or w[-1] == k
    status = "proved" if (n <= 1 or k <= 1 or vac) else "conjectural"
    if n == 0:
        terms = [Term(1, ("gen1", "C", 0, w)),
                 Term(-1, ("prodspec", products.c_n0_product(k)))]
    else:
        terms = [Term(1, ("gen1", "C", n, w)),
                 Term(-1, ("charprod", "C", "nonstandard", n, w))]
    return terms, status


# -- Hall-Littlewood bridges ---------------------------------------------------


@_register("con-a2n2-qseries",
           "two-variable A-family extremal weights as chain multisums; "
           "which=0 is the kLn weight (argument z), which=1 the kL0 "
           "weight (argument zq)")
def _conaq(n, k, which):
    if n < 1 or k < 0 or which not in (0, 1):
        raise ParamError("n >= 1, k >= 0, which in {0,1}")
    status = "proved" if (k <= 1 or n == 1) else "conjectural"
    if which == 0:
        terms = [Term(1, ("gen", "A", n, _wsum(n, (n, k)))),
                 Term(-1, ("hlchain", k, 2 * n - 1))]
    else:
        terms = [Term(1, ("gen", "A", n, _wsum(n, (0, k)))),
                 Term(-1, ("hlchain", k, 2 * n - 1), subst=(1, 0, 1))]
    return terms, status


def _con_qseries(check_id, doc, family, shift):
    """Register the bridge of a family's kL0 series to HL_{k,2n-2shift} at
    z q^shift, for n >= 1 + shift; proved for k <= 1."""
    @_register(check_id, doc)
    def build(n, k):
        if n < 1 + shift or k < 0:
            raise ParamError("n >= %d, k >= 0" % (1 + shift))
        status = "proved" if k <= 1 else "conjectural"
        terms = [Term(1, ("gen", family, n, _wsum(n, (0, k)))),
                 Term(-1, ("hlchain", k, 2 * (n - shift)),
                      subst=(shift, 0, 1))]
        return terms, status


_con_qseries("con-c-qseries", "C_{kL0}(z,q) = HL_{k,2n}(z,q)", "C", 0)
_con_qseries("con-d-qseries", "D_{kL0}(z,q) = HL_{k,2n-2}(zq,q), n >= 2",
             "D", 1)


@_register("con-shun",
           "the double multisum equals sum (zq)^{|lam|} P_{2 lam}(...;q^2)")
def _conshun(k):
    if k < 0:
        raise ParamError("k >= 0")
    status = "proved" if k <= 1 else "conjectural"
    terms = [Term(1, ("shun", k)), Term(-1, ("hlsum", k, 2))]
    return terms, status


def _shun2(k, variant) -> tuple:
    """The ref of a rank-2 double multisum, after checking its variant."""
    if variant not in ("kL0", "kL1", "omega"):
        raise ParamError("variant in {kL0, kL1, omega}")
    if variant == "omega" and k < 1:
        raise ParamError("omega needs k >= 1")
    if k < 0:
        raise ParamError("k >= 0")
    return ("shun2", k, variant)


@_register("con-shun2",
           "the three rank-2 double multisums against enumeration; "
           "variant in {kL0, kL1, omega}")
def _conshun2(k, variant="kL0"):
    lhs = _shun2(k, variant)
    w = {"kL0": (k, 0, 0), "kL1": (0, k, 0),
         "omega": (1, k - 1, 0)}[variant]
    status = "proved" if k <= 2 else "conjectural"
    return [Term(1, lhs), Term(-1, ("gen", "D", 2, w))], status


@_register("ag-type-product",
           "the four conjectural Andrews-Gordon-type product identities; "
           "which in {c-kL0, d-kL0, d-kL1, d-omega}")
def _agtype(k, which="c-kL0"):
    if which not in ("c-kL0", "d-kL0", "d-kL1", "d-omega"):
        raise ParamError("which in {c-kL0, d-kL0, d-kL1, d-omega}")
    if which == "c-kL0" and k < 0:
        raise ParamError("k >= 0")
    lhs = ("shun", k) if which == "c-kL0" else _shun2(k, which[2:])
    status = "proved" if k <= 1 else "conjectural"
    terms = [Term(1, lhs, post="z1"),
             Term(-1, ("prodspec", products.ag_type_product(which, k)))]
    return terms, status


# -- Theorem 4.8 machinery -----------------------------------------------------


_WZ_WEIGHT = {"A": (2, 0, 0), "B": (0, 2, 0), "C": (1, 1, 0), "D": (1, 0, 1)}


@_register("thm48",
           "the four deformed double sums at w=z equal the rank-2 "
           "enumerations at level 2")
def _thm48(which="A"):
    if which not in _WZ_WEIGHT:
        raise ParamError("which in {A,B,C,D}")
    terms = [Term(1, ("wz", which), post="w_to_z"),
             Term(-1, ("gen", "D", 2, _WZ_WEIGHT[which]))]
    return terms, "proved"


@_register("thm48-alt",
           "the two single-Omega rewritings of the mixed level-2 series")
def _thm48alt(which="C"):
    if which == "C":
        terms = [Term(1, ("shun2", 2, "omega")),
                 Term(-1, ("wz", "C"), post="w_to_z")]
    elif which == "D":
        terms = [Term(1, ("shun2", 2, "omega_r1")),
                 Term(-1, ("wz", "D"), post="w_to_z")]
    else:
        raise ParamError("which in {C, D}")
    return terms, "proved"


@_register("wz-funceq",
           "the four deformed functional equations (idx 3 cleared by z)")
def _wzf(idx=1):
    sub = (2, 2, 1)
    if idx == 1:
        terms = [Term(1, ("wz", "A")),
                 Term(-1, ("wz", "B"), subst=sub),
                 Term(-1, ("wz", "C"), pref=(_mono(1, dz=1, dq=2),),
                      subst=sub),
                 Term(-1, ("wz", "A"), pref=(_mono(1, dz=2, dq=4),),
                      subst=sub)]
    elif idx == 2:
        terms = [Term(1, ("wz", "D")), Term(-1, ("wz", "A")),
                 Term(-1, ("wz", "C"), pref=(_mono(1, dw=1, dq=2),),
                      subst=sub),
                 Term(-1, ("wz", "D"), pref=(_mono(1, dz=2, dq=4),),
                      subst=sub),
                 Term(1, ("wz", "A"), pref=(_mono(1, dz=2, dq=4),),
                      subst=sub)]
    elif idx == 3:
        terms = [Term(1, ("wz", "B"), pref=(_mono(1, dz=1),)),
                 Term(-1, ("wz", "C"), pref=(_mono(1, dz=1), _mono(1, dw=1))),
                 Term(1, ("wz", "D"), pref=(_mono(1, dw=1),)),
                 Term(1, ("wz", "B"),
                      pref=(_mono(1, dz=1, dw=1, dq=1),
                            _mono(-1, dz=3, dq=2)), subst=sub)]
    elif idx == 4:
        terms = [Term(1, ("wz", "C")), Term(-1, ("wz", "D")),
                 Term(-1, ("wz", "B"), pref=(_mono(1, dz=1, dq=1),),
                      subst=sub),
                 Term(-1, ("wz", "C"), pref=(_mono(1, dz=2, dq=3),),
                      subst=sub),
                 Term(-1, ("wz", "A"), pref=(_mono(1, dz=1, dw=1, dq=4),),
                      subst=sub)]
    else:
        raise ParamError("idx in 1..4")
    return terms, "proved"


def _edge(edge, lhs, rhs, subst=(0, 0, 1)) -> list[Term]:
    """The series lhs, under subst, at w=0 (edge w0) against the rank-1
    series rhs in (z,q), or at z=0 (edge z0) against rhs in (w,q^2)."""
    if edge == "w0":
        return [Term(1, lhs, subst=subst, post="w0"), Term(-1, rhs)]
    if edge == "z0":
        return [Term(1, lhs, subst=subst, post="z0"),
                Term(-1, rhs, post="z_to_w", subst=(0, 0, 2))]
    raise ParamError("edge in {w0, z0}")


@_register("wz-edge",
           "boundary reductions of the deformed series: w=0 gives the "
           "rank-1 series in (z,q), z=0 the same in (w,q^2)")
def _wzedge(which="B", edge="w0"):
    targets = {"A": (2, 0), "B": (0, 2), "C": (1, 1),
               "D": (2, 0) if edge == "w0" else (1, 1)}
    if which not in targets:
        raise ParamError("which in {A,B,C,D}")
    terms = _edge(edge, ("wz", which), ("gen", "A", 1, targets[which]))
    return terms, "proved"


def _s_relation(which: str, params: tuple[int, ...]) -> list[Term]:
    """multisums.atomic_relation as a left side against zero."""
    return [Term(1, ("sser",) + sp, pref=pref)
            for pref, sp in multisums.atomic_relation(which, params)]


@_register("atomic", "the four atomic shift relations of the S-series")
def _atomic(i, k1, k2, l1, l2):
    if i not in (1, 2, 3, 4):
        raise ParamError("i in 1..4")
    return _s_relation("R%d" % i, (k1, k2, l1, l2)), "proved"


@_register("toshow",
           "the four S-series combinations appearing in the level-2 proof")
def _toshow(i):
    if i not in (1, 2, 3, 4):
        raise ParamError("i in 1..4")
    return _s_relation("toshow%d" % i, (0, 0, 0, 0)), "proved"


@_register("s-shift",
           "S(z q^m, w q^{2n}) = S_{k1+m, k2+2m, l1+n, l2+2n}(z, w)")
def _sshift(k1, k2, l1, l2, m=1, n=1):
    if m < 0 or n < 0:
        raise ParamError("m, n >= 0 (raising shifts only)")
    terms = [Term(1, ("sser", k1, k2, l1, l2), subst=(m, 2 * n, 1)),
             Term(-1, ("sser", k1 + m, k2 + 2 * m, l1 + n, l2 + 2 * n))]
    return terms, "proved"


@_register("guess-reduction",
           "w=0 / z=0 reductions of the conjectured k-fold interwoven sums")
def _guessred(k, which="B", edge="w0"):
    if k < 1:
        raise ParamError("k >= 1")
    # which -> (guess, a, subst); the kL0 guess is the kL1 one at (zq, wq^2)
    guesses = {"B": ("guess_B", k, (0, 0, 1)),
               "kL0": ("guess_B", 0, (1, 2, 1)),
               "omega": ("guess_omega", k - 1, (0, 0, 1))}
    if which not in guesses:
        raise ParamError("which in {B, kL0, omega}")
    guess, a, subst = guesses[which]
    return _edge(edge, ("wz", guess, k), ("ag", k, a), subst), "proved"


# -- section-5 weighted variants ----------------------------------------------


@_register("hl-variant1",
           "the first weighted chain sum against the level-one series")
def _hlv1(n):
    if n < 1:
        raise ParamError("n >= 1")
    status = "proved" if n <= 2 else "conjectural"
    if n % 2 == 1:
        rhs = Term(-1, ("gen", "A", (n + 1) // 2, _unit((n + 1) // 2, 1)))
    else:
        rhs = Term(-1, ("gen", "D", n // 2 + 1, _unit(n // 2 + 1, 1)))
    terms = [Term(1, ("hlweighted", "v1", n)), rhs]
    return terms, status


@_register("hl-variant2",
           "the second weighted chain sum against D^{(2)}_{(k-1)L0+L1}")
def _hlv2(k):
    if k < 1:
        raise ParamError("k >= 1")
    status = "proved" if k == 1 else "conjectural"
    terms = [Term(1, ("hlweighted", "v2", k)),
             Term(-1, ("gen", "D", 2, (k - 1, 1, 0)))]
    return terms, status


@_register("hl-chain-def",
           "the chain multisum equals the bounded Hall-Littlewood sum")
def _hlcd(k, n):
    if n < 1 or k < 0:
        raise ParamError("k >= 0, n >= 1")
    terms = [Term(1, ("hlchain", k, n)), Term(-1, ("hlsum", k, n))]
    return terms, "proved"


@_register("hl-chain-ag",
           "HL_{k,1}(z,q) is the Andrews-Gordon multisum at a=k")
def _hlca(k):
    if k < 0:
        raise ParamError("k >= 0")
    terms = [Term(1, ("hlchain", k, 1)), Term(-1, ("ag", k, k))]
    return terms, "proved"


@_register("gow",
           "the multisum for P_{(2^r)}(1,q,...;q^{2n+delta}) equals the "
           "branching evaluation")
def _gow(r, n, delta):
    if delta not in (0, 1) or 2 * n + delta < 1:
        raise ParamError("delta in {0, 1}, 2n + delta >= 1")
    if r < 0:
        raise ParamError("r >= 0")
    terms = [Term(1, ("gow", r, n, delta)),
             Term(-1, ("hlinf", tuple([2] * r), 2 * n + delta))]
    return terms, "proved"


@_register("hl-triangle",
           "pairwise equality of the three finite-variable routes on "
           "shapes (2^r,1^s); route 0: symmetrization vs single sum, "
           "route 1: closed form vs symmetrization at the principal point")
def _hltri(r, s, L, m, route=0):
    if min(r, s) < 0 or not r + s <= L <= 9 or m < 1:
        raise ParamError("r, s >= 0, r + s <= L <= 9, m >= 1")
    shape = tuple([2] * r + [1] * s)
    if route == 0:
        terms = [Term(1, ("hlsym", shape, L, m, 1)),
                 Term(-1, ("hlls", r, s, L, m))]
    elif route == 1:
        terms = [Term(1, ("hlpf", shape, L, m)),
                 Term(-1, ("hlsym", shape, L, m, m))]
    else:
        raise ParamError("route in {0, 1}")
    return terms, "proved"


@_register("bailey",
           "the alpha-to-beta Bailey transform against the Hall-Littlewood "
           "beta, r tagged by the z-exponent")
def _bailey(s, m, r_max=4):
    if s < 0 or m < 1 or not 0 <= r_max <= 6:
        raise ParamError("s >= 0, m >= 1, 0 <= r_max <= 6")
    terms = [Term(1, ("baileyl", s, m, r_max)),
             Term(-1, ("baileyr", s, m, r_max))]
    return terms, "proved"


@_register("jtp",
           "Jacobi triple product: theta(q^a;q^m)(q^m;q^m)_inf equals the "
           "bilateral alternating sum")
def _jtp(a, m):
    if m < 1:
        raise ParamError("m >= 1")
    if not isinstance(a, int):
        raise ParamError("a must be an int")
    prod = products.ProductSpec((products.ThetaFactor(a, m),),
                                (products.PochFactor(m, m, 1),))
    terms = [Term(1, ("prodspec", prod)), Term(-1, ("jtp_sum", m, a))]
    return terms, "proved"


# -- appendix checks -----------------------------------------------------------


def _mac_exps(kind, base, sigma, tau, *es) -> tuple[int, ...]:
    """The exponents e1..e4 of a Macdonald check that are given, after
    checking the data its lattice sum and product need.  They must be a
    prefix: e1..ek with no gap."""
    exps = tuple(e for e in es if e is not None)
    if None in es[:len(exps)]:
        raise ParamError("e%d is missing: the exponents are e1..ek, with "
                         "no gap" % (es.index(None) + 1))
    try:
        macdonald.check_macdonald_data(kind, exps, base, sigma, tau)
    except ValueError as exc:
        raise ParamError(str(exc)) from None
    if not all(isinstance(e, int) for e in exps):
        raise ParamError("the exponents e1..ek must be ints")
    return exps


def _macdonald(kind, base, sigma, tau, *es):
    """The terms of macdonald-b / -d: the determinant sum against 2 Pi_B
    or 4 Pi_D."""
    data = (kind, _mac_exps(kind, base, sigma, tau, *es), base, sigma, tau)
    factor = _mono(2 if kind == "B" else 4)
    return [Term(1, ("macsum",) + data),
            Term(-1, ("pi",) + data, pref=(factor,))], "proved"


@_register("macdonald-b", "the type-B determinant sum equals 2 Pi_{B;sigma}")
def _macb(base, sigma=1, *, e1=None, e2=None, e3=None, e4=None):
    return _macdonald("B", base, sigma, 1, e1, e2, e3, e4)


@_register("macdonald-d",
           "the type-D determinant sum equals 4 Pi_{D;sigma,tau}")
def _macd(base, sigma=1, tau=1, *, e1=None, e2=None, e3=None, e4=None):
    return _macdonald("D", base, sigma, tau, e1, e2, e3, e4)


@_register("mac-quasiperiod",
           "shifting e1 by the base changes both sides by the same signed "
           "monomial")
def _macqp(kind, base, sigma=1, tau=1, *, e1=None, e2=None, e3=None,
           e4=None):
    """The sum at e1 + base against (-1)^c q^{-c e1} times the sum at e.
    Pi has c theta factors theta(q^a; q^base) that contain +e1: a = e1
    (type B only) and a = e1 - e_j, e1 + e_j for j >= 2, so their a sum
    to c e1.  Shifting e1 by the base multiplies each by -q^{-a}, as
    theta(q^{a + base}; q^base) = -q^{-a} theta(q^a; q^base)."""
    exps = _mac_exps(kind, base, sigma, tau, e1, e2, e3, e4)
    c = 2 * len(exps) - (1 if kind == "B" else 2)
    shifted = (exps[0] + base,) + exps[1:]
    terms = [Term(1, ("macsum", kind, shifted, base, sigma, tau)),
             Term(-1, ("macsum", kind, exps, base, sigma, tau),
                  pref=(_mono((-1) ** c, dq=-c * exps[0]),))]
    return terms, "proved"


@_register("spec-char",
           "the specialised character determinant sum equals the product "
           "(integral data) or vanishes (half-integral data)")
def _specchar(family, n, two_k, *, two_lambda=()):
    tl = as_tuple(two_lambda)
    try:
        hw = macdonald.HalfWeight(two_k, tl)
        macdonald.check_character_data(family, n, hw)
    except ValueError as exc:
        raise ParamError(str(exc)) from None
    terms = [Term(1, ("speccharsum", family, n, hw))]
    if hw.k_integral and hw.lambda_integral:
        w = hw.weight()
        terms.append(Term(-1, ("charprod", family, "nonstandard", n, w)))
    return terms, "proved"


@_register("d2-unique",
           "the rank-2 functional system plus D(0)=1 determines all "
           "level-k generating functions (fixed point vs enumeration)")
def _d2u(k):
    if k < 1:
        raise ParamError("k >= 1")
    return [Term(1, ("d2solved", k))] + [
        Term(-1, ("gen", "D", 2, w), pref=(_mono(1, dw=idx),))
        for idx, w in _d2_tags(k)], "proved"
