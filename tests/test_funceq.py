import random
from itertools import product

import pytest

from cmpplab.cmpp import gen_fun, gen_fun_z1
from cmpplab.d2solver import solve_d2_system
from cmpplab import funceq, macdonald, multisums, products
from cmpplab.funceq import ParamError, catalog, list_checks, residual
from cmpplab.series import QSeries


def check(cid, N=12, **params):
    spec = catalog(cid, params)
    _, mm = residual(spec, N)
    assert mm is None, (cid, params, mm)
    return spec


def test_unknown_check():
    with pytest.raises(KeyError):
        catalog("no-such-check", {})


def test_param_validation():
    with pytest.raises(ParamError):
        catalog("rogers-selberg", {"k": 1, "a": 2})
    with pytest.raises(ParamError):
        catalog("d2-nis2", {"k": 1, "a": 1, "b": 1})
    with pytest.raises(ParamError):
        catalog("mr-system", {"n": 2, "a": 2, "branch": 1})
    with pytest.raises(TypeError, match=r"missing params \['a'\] for gordon"):
        catalog("gordon", {"k": 1})
    with pytest.raises(TypeError,
                       match=r"unknown params \['kk'\] for gordon"):
        catalog("gordon", {"k": 1, "a": 0, "kk": 3})
    for cid, params in [
            ("spec-char", {"family": "A", "n": 0, "two_k": 2}),
            ("spec-char", {"family": "D", "n": 1, "two_k": 2,
                           "two_lambda": (2,)}),
            ("spec-char", {"family": "A", "n": 1, "two_k": 2,
                           "two_lambda": (4,)}),
            ("hl-triangle", {"r": 1, "s": 1, "L": 10, "m": 1}),
            ("bailey", {"s": -1, "m": 1, "r_max": 1}),
            ("bailey", {"s": 0, "m": 1, "r_max": 7}),
            ("bailey", {"s": 0, "m": 1, "r_max": -1})]:
        with pytest.raises(ParamError):
            catalog(cid, params)


def _assert_valid_point_passes(check_id, params, rejected=ParamError):
    # a point is rejected with one of `rejected`, or it builds at order 3
    # and, if proved, passes there; a builder error or a failed proved
    # check is a gap in the validator
    try:
        spec = catalog(check_id, params)
    except rejected:
        return False
    _, mm = residual(spec, 3)
    assert spec.status != "proved" or mm is None, (check_id, params, mm)
    return True


def test_points_the_validators_pass_build():
    # every point over {-1, 0, 1, 2}, once with every parameter set and
    # once with the defaulted ones left at their defaults.  The Macdonald
    # checks need e1, and a kind, to get past their first tests, and the
    # weight and character checks their weights and a family; a weight
    # is also given as a single int, which reads as its 1-tuple.  At the
    # first valid point of each check, each parameter in turn is also
    # given a str and a tuple, which may also be rejected as the CLI
    # rejects any bad input.  An int point must be a ParamError or build,
    # since a sweep skips only ParamError points.
    from cmpplab.cli import _BAD_PARAMS
    for chk in list_checks():
        extras = [{}]
        if "weights" in chk.defaults:
            extras = [{"weights": w} for w in ((), (1,), (1, 1), (1, 1, 1),
                                               1)]
        if "two_lambda" in chk.defaults:
            extras = [{"two_lambda": tl} for v in (1, 2)
                      for tl in ((), (v,), (v, v), v)]
        if "e1" in chk.defaults:
            extras += [{"e1": 1}, {"e1": 2, "e2": -1}]
        for name, letters in (("kind", "BD"), ("family", "ACD")):
            if name in chk.param_names:
                extras = [dict(e, **{name: x}) for e in extras
                          for x in letters]
        required = tuple(n for n in chk.param_names if n not in chk.defaults)
        valid = []
        for names in dict.fromkeys((chk.param_names, required)):
            for extra, values in product(
                    extras, product((-1, 0, 1, 2), repeat=len(names))):
                params = dict(zip(names, values), **extra)
                if _assert_valid_point_passes(chk.check_id, params):
                    valid.append(params)
        assert valid, chk.check_id
        for name in valid[0]:
            for value in ("x", (0, 1)):
                _assert_valid_point_passes(
                    chk.check_id, dict(valid[0], **{name: value}),
                    _BAD_PARAMS)


def test_rogers_selberg_small():
    for k in (1, 2, 3):
        for a in range(k + 1):
            check("rogers-selberg", k=k, a=a)


def test_mr_system_small():
    for n in (1, 2, 3):
        for a in range(n // 2 + 1):
            check("mr-system", n=n, a=a, branch=1)
        for a in range((n - 1) // 2 + 1):
            check("mr-system", n=n, a=a, branch=2)


def test_rank_n_equations_small():
    for n in (1, 2):
        for k in (1, 2):
            for a in range(k + 1):
                check("a-fun", n=n, k=k, a=a)
            check("a-fun2", n=n, k=k)
            check("a-fun2-simplified", n=n, k=k)


def test_cd_equations_small():
    for k in (1, 2):
        for a in range(k + 1):
            check("cd-fun1", n=1, k=k, a=a)
            check("cd-fun2", n=0, k=k, a=a)
            check("cd-fun2", n=1, k=k, a=a)
            check("cdn2", k=k, a=a)
            check("d2-fun", k=k, a=a)
    check("cd-fun1", n=2, k=1, a=1)
    for (k, a, b) in [(1, 0, 0), (2, 0, 0), (2, 1, 0), (2, 0, 1), (3, 1, 1)]:
        check("d2-nis2", k=k, a=a, b=b)
    for (k, a, b) in [(2, 0, 0), (3, 0, 1), (3, 1, 0)]:
        check("d2-nis2-diff", k=k, a=a, b=b)
    for (k, a) in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        check("d2-combo", k=k, a=a)


def test_status_tags():
    assert catalog("con-a2n2", {"n": 2, "weights": (1, 0, 1)}).status == \
        "conjectural"
    assert catalog("con-a2n2", {"n": 1, "weights": (2, 1)}).status == \
        "proved"
    assert catalog("con-a2n2", {"n": 3, "weights": (0, 0, 1, 0)}).status == \
        "proved"
    assert catalog("con-cn1", {"n": 2, "weights": (2, 0, 0)}).status == \
        "proved"
    assert catalog("con-shun2", {"k": 3, "variant": "kL1"}).status == \
        "conjectural"
    assert catalog("gordon", {"k": 2, "a": 1}).status == "proved"


def test_bridges_small():
    check("jms", n=2, a=1)
    check("dk1", n=2, a=2)
    check("c-level1", n=1, a=0)
    check("a-f", n=2, a=1)
    check("c-f", n=2, a=2)
    check("d-f", n=2, a=0)
    check("con-a2n2", n=2, weights=(0, 1, 1))
    check("con-cn1", n=1, weights=(1, 1))
    check("con-cn1", n=0, weights=(3,))
    check("con-dn2", n=2, weights=(2, 0, 0))
    check("con-a2n2-qseries", n=2, k=1, which=0)
    check("con-a2n2-qseries", n=2, k=1, which=1)
    check("con-c-qseries", n=1, k=2)
    check("con-d-qseries", n=2, k=2)
    check("con-shun", k=2)
    check("con-shun2", k=2, variant="omega")
    check("ag-type-product", N=16, k=2, which="d-kL1")
    check("b-b", k0=1, k1=2)
    check("ag-two-var", k=2, a=1)
    check("gordon-fsum", k=2, a=0)
    check("c-n0-closed", k=2)


def test_level_rank_small():
    for k in (1, 2, 3):
        for i in range(k + 1):
            check("level-rank-n1", N=20, k=k, i=i)
    for k in (1, 2):
        for i in range(k + 1):
            for j in range(i, k + 1):
                check("level-rank-n2", N=20, k=k, i=i, j=j)


def test_level_rank_general_patterns():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            check("level-rank-gen1", N=20, k=k, n=n)
            check("level-rank-gen2", N=20, k=k, n=n)
            if k >= 2 and n >= 2:
                check("level-rank-gen3", N=20, k=k, n=n)


def test_thm48_and_wz():
    for which in "ABCD":
        check("thm48", which=which)
    check("thm48-alt", which="C")
    check("thm48-alt", which="D")
    for idx in (1, 2, 3, 4):
        check("wz-funceq", idx=idx)
    for which in "ABCD":
        check("wz-edge", which=which, edge="w0")
        check("wz-edge", which=which, edge="z0")


def test_atomic_and_sshift():
    check("atomic", i=1, k1=0, k2=0, l1=0, l2=0)
    check("atomic", i=3, k1=2, k2=3, l1=0, l2=1)
    check("atomic", i=2, k1=-2, k2=-1, l1=4, l2=0)
    # every parameter negative: each S-series index has a least part < 0
    check("atomic", N=6, i=1, k1=-4, k2=-5, l1=-5, l2=-5)
    for i in (1, 2, 3, 4):
        check("toshow", i=i)
    check("s-shift", k1=0, k2=1, l1=1, l2=0, m=2, n=1)


def test_guess_reductions_catalog():
    for k in (1, 2, 3):
        for which in ("B", "kL0", "omega"):
            for edge in ("w0", "z0"):
                check("guess-reduction", k=k, which=which, edge=edge)


def test_hl_checks():
    check("hl-variant1", n=2)
    check("hl-variant2", k=2)
    check("hl-chain-def", k=2, n=2)
    check("hl-chain-ag", k=2)
    check("gow", r=2, n=1, delta=0)
    check("hl-triangle", r=1, s=1, L=3, m=2, route=0)
    check("hl-triangle", r=1, s=1, L=3, m=2, route=1)
    check("bailey", N=16, s=0, m=2, r_max=3)
    check("jtp", N=40, a=3, m=8)


def test_appendix_checks():
    check("macdonald-b", N=25, base=7, sigma=1, e1=3, e2=1)
    check("macdonald-b", N=25, base=7, sigma=-1, e1=3, e2=1)
    check("macdonald-d", N=25, base=8, sigma=1, tau=1, e1=4, e2=1)
    check("macdonald-d", N=25, base=8, sigma=1, tau=-1, e1=4, e2=1)
    check("mac-quasiperiod", N=20, kind="B", base=7, sigma=1, e1=3, e2=1)
    check("spec-char", N=16, family="A", n=1, two_k=2, two_lambda=(2,))
    check("spec-char", N=16, family="D", n=2, two_k=3, two_lambda=(2, 0))


def test_d2_uniqueness():
    for k in (1, 2, 3):
        fam = solve_d2_system(k, 12)
        for w, series in fam.items():
            g = gen_fun("D", 2, w, 12)
            assert series.compare(g, 12) is None, (k, w)
        check("d2-unique", N=10, k=k)


def test_automorphism_entry():
    check("automorphism", family="D", n=2, weights=(1, 0, 1))
    check("automorphism", family="C", n=3, weights=(2, 0, 1, 0))
    with pytest.raises(ParamError):
        catalog("automorphism", {"family": "A", "n": 1, "weights": (1, 0)})


def test_list_checks_complete():
    ids = {c.check_id for c in list_checks()}
    for required in ("rogers-selberg", "mr-system", "a-fun", "a-fun2",
                     "cd-fun1", "cd-fun2", "cdn2", "d2-nis2", "d2-fun",
                     "automorphism", "b-b", "gordon", "andrews-gordon",
                     "jms", "a-f", "c-f", "d-f", "dk1", "c-level1",
                     "level-rank-n1", "level-rank-n2", "con-a2n2",
                     "con-cn1", "con-dn2", "con-a2n2-qseries", "con-shun",
                     "con-shun2", "thm48", "wz-funceq", "atomic", "toshow",
                     "hl-variant1", "hl-variant2", "gow", "hl-triangle",
                     "bailey", "jtp", "macdonald-b", "macdonald-d",
                     "spec-char", "d2-unique", "ag-type-product"):
        assert required in ids, required


# Catalog points (from the tests above and acceptance criterion 3) that
# between them reference every series kind.
RESOLVER_POINTS = [
    ("jtp", {"a": 3, "m": 8}),
    ("level-rank-n1", {"k": 1, "i": 1}),
    ("con-cn1", {"n": 0, "weights": (3,)}),
    ("hl-triangle", {"r": 1, "s": 1, "L": 3, "m": 2, "route": 0}),
    ("hl-triangle", {"r": 1, "s": 1, "L": 3, "m": 2, "route": 1}),
    ("guess-reduction", {"k": 1, "which": "kL0", "edge": "w0"}),
    ("guess-reduction", {"k": 1, "which": "kL0", "edge": "z0"}),
    ("gow", {"r": 2, "n": 1, "delta": 0}),
    ("toshow", {"i": 4}),
    ("ag-two-var", {"k": 2, "a": 1}),
    ("c-n0-closed", {"k": 2}),
    ("gordon-fsum", {"k": 2, "a": 0}),
    ("macdonald-b", {"base": 7, "sigma": -1, "e1": 3, "e2": 1}),
    ("mac-quasiperiod",
     {"kind": "B", "base": 7, "sigma": 1, "e1": 3, "e2": 1}),
    ("wz-edge", {"which": "A", "edge": "z0"}),
    ("s-shift", {"k1": 0, "k2": 1, "l1": 1, "l2": 0, "m": 2, "n": 1}),
    ("spec-char", {"family": "A", "n": 1, "two_k": 2, "two_lambda": (2,)}),
    ("ag-type-product", {"k": 2, "which": "d-kL1"}),
    ("con-shun", {"k": 2}),
    ("d2-unique", {"k": 1}),
    ("bailey", {"s": 0, "m": 2, "r_max": 3}),
    ("con-a2n2-qseries", {"n": 2, "k": 1, "which": 0}),
    ("hl-variant1", {"n": 2}),
    ("a-product-positivity", {"n": 1, "weights": (1, 1)}),
    ("wz-funceq", {"idx": 4}),
]


def _resolver_refs() -> list[tuple]:
    refs = set()
    for cid, params in RESOLVER_POINTS:
        refs.update(t.series for t in catalog(cid, params).terms)
    return sorted(refs, key=repr)


def _counting_memo(monkeypatch):
    """A fresh series memo in place of funceq._series, and the list of
    the (ref, N) it builds."""
    built = []

    def build(ref, N):
        built.append((ref, N))
        return funceq._build(ref, N)
    memo = funceq._OrderMemo(build, funceq._SERIES_MEMO_SIZE)
    monkeypatch.setattr(funceq, "_series", memo)
    return memo, built


def test_series_memo_cuts_the_deepest_build(monkeypatch):
    memo, built = _counting_memo(monkeypatch)
    ref = ("hlchain", 2, 2)
    full = funceq._series(ref, 10)
    assert full.q_order == 10
    small = funceq._series(ref, 8)
    assert built == [(ref, 10)]
    assert memo.cache_info()[:2] == (1, 1)
    assert small == funceq._build(ref, 8)  # terms, q_order and q_floor


def test_series_memo_keeps_the_deeper_of_two_builds(monkeypatch):
    memo, built = _counting_memo(monkeypatch)
    ref = ("gen", "A", 1, (0, 1))
    funceq._series(ref, 8)
    funceq._series(ref, 10)
    assert funceq._series(ref, 9) == funceq._build(ref, 9)
    assert funceq._series(ref, 8) == funceq._build(ref, 8)
    assert built == [(ref, 8), (ref, 10)]
    assert memo.kept[ref][0] == 10


def test_series_memo_serves_an_exact_build_unchanged(monkeypatch):
    memo, built = _counting_memo(monkeypatch)
    ref = ("pi", "B", (3, 1), 7, -1, 1)  # a vanishing product
    exact = funceq._series(ref, 10)
    assert exact.is_exact_zero()
    assert exact.q_order is None
    assert funceq._series(ref, 3) is exact
    assert built == [(ref, 10)]
    assert memo.cache_info()[:2] == (1, 1)


def test_series_memo_builds_past_a_short_window():
    # a kept build exact only below the requested order cannot serve it;
    # the fresh build is returned and the deeper build kept
    built = []

    def build(ref, N):
        built.append(N)
        return QSeries.one(N - 3)
    memo = funceq._OrderMemo(build, 4)
    memo(("r",), 10)
    assert memo(("r",), 8).q_order == 5
    assert memo(("r",), 7) == QSeries.one(7).truncate(7)
    assert built == [10, 8]
    assert memo.kept[("r",)][1].q_order == 7


def test_series_memo_evicts_the_least_recently_used_ref():
    memo = funceq._OrderMemo(lambda ref, N: QSeries.one(N), 2)
    memo(("a",), 5)
    memo(("b",), 5)
    memo(("a",), 4)         # a hit: "b" is now the least recently used
    memo(("c",), 5)
    assert list(memo.kept) == [("a",), ("c",)]
    memo(("b",), 5)
    assert list(memo.kept) == [("c",), ("b",)]
    assert memo.cache_info() == (1, 4, 2, 2)
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, 2, 0)


def test_mac_quasiperiod_builds_two_sums_and_no_product(monkeypatch):
    # the check is the sum at e1 + base against a monomial times the sum
    # at e: two macdonald_sum builds, and the product side is never built
    from cmpplab import cli
    _counting_memo(monkeypatch)
    calls = {"macdonald_sum": [], "pi_product": []}
    for name, seen in calls.items():
        fn = getattr(macdonald, name)
        monkeypatch.setattr(macdonald, name,
                            lambda *a, fn=fn, seen=seen: seen.append(a)
                            or fn(*a))
    rep = cli.run_check("mac-quasiperiod",
                        {"kind": "B", "base": 7, "e1": 3, "e2": 1}, 12,
                        timings=False)
    assert sorted(a[1] for a in calls["macdonald_sum"]) == [(3, 1), (10, 1)]
    assert calls["pi_product"] == []
    assert rep.to_json() == (
        '{"check": "mac-quasiperiod", "conjecture_status": "proved", '
        '"elapsed_ms": 0, "first_mismatch": null, "order": 12, "params": '
        '{"base": 7, "e1": 3, "e2": 1, "kind": "B"}, "status": "pass"}')


def test_mac_quasiperiod_holds_where_the_sums_are_not_zero():
    # Sigma(e1 + base) = (-1)^c q^{-c e1} Sigma(e), c = 2n - 1 (B) or 2n - 2
    # (D).  A wrong sign or exponent shows only where the sums are not
    # zero, so the grid keeps the points whose product Pi does not vanish
    # (the twisted sums all vanish); e1 in -1..3 puts the prefactor's
    # exponent -c e1 on both sides of 0
    points = []
    for kind, n in (("B", 1), ("B", 2), ("B", 3), ("D", 2), ("D", 3)):
        for exps in product(range(-1, 4), repeat=n):
            for base in range(1, 9):
                if not macdonald.pi_product(kind, exps, base, 1, 1,
                                            8).is_exact_zero():
                    points.append((kind, exps, base))
    assert len(points) == 382
    for kind, exps, base in points:
        check("mac-quasiperiod", N=8, kind=kind, base=base,
              **{"e%d" % (i + 1): e for i, e in enumerate(exps)})


def test_builders_are_looked_up_at_call_time(monkeypatch):
    # a builder named "module.function" is found on the module at each
    # build, so a rebound module attribute changes what the catalog builds
    for kind, build in funceq._BUILDERS.items():
        if isinstance(build, str):
            module, name = build.split(".")
            assert callable(getattr(getattr(funceq, module), name)), kind
    ref = ("gen", "A", 1, (0, 1))
    marker = QSeries({(0, 0, 0): 7})
    monkeypatch.setattr(funceq.cmpp, "gen_fun", lambda *args: marker)
    assert funceq._build(ref, 5) is marker


def test_resolver_table_is_exactly_the_referenced_kinds():
    kinds = {ref[0] for ref in _resolver_refs()}
    assert kinds == set(funceq._BUILDERS)


def test_no_builder_asks_the_memo(monkeypatch):
    # every catalog term is one series from its own builder: a build of
    # any kind never fetches another series through funceq._series
    def fetch(ref, N):
        raise AssertionError("a builder fetched %r" % (ref,))
    monkeypatch.setattr(funceq, "_series", fetch)
    first = {}
    for ref in _resolver_refs():
        first.setdefault(ref[0], ref)
    for ref in first.values():
        assert isinstance(funceq._build(ref, 6), QSeries), ref


@pytest.mark.parametrize("N, M", [(10, 6), (9, 4), (12, 7), (6, 0), (5, 1),
                                  (4, 2)])
def test_resolver_truncation_soundness(N, M):
    # a build at order N, cut to M, is the build at order M; no build
    # stores a zero coefficient.  Both are fresh builds: through the memo
    # the order-M one would be the cut of the order-N one.
    for ref in _resolver_refs():
        full, small = funceq._build(ref, N), funceq._build(ref, M)
        assert 0 not in full.terms.values(), (ref, N)
        assert 0 not in small.terms.values(), (ref, M)
        _assert_cut_is_build(full, small, M, (ref, N, M))


def _assert_cut_is_build(full, small, M, ctx):
    # what the series memo serves at order M from the build at N >= M (an
    # exact build as it is, any other cut to M) is the build at M; == also
    # compares q_order and q_floor
    served = full if full.q_order is None else full.truncate(M)
    assert served == small, ctx


def _assert_window_honest(small, deeper, ctx):
    # small claims exact coefficients through its q_order (every order
    # when None); a build at a higher order must agree there
    o = small.q_order
    if o is None:
        o = deeper.q_order
    else:
        assert deeper.q_order is None or deeper.q_order >= o, ctx

    def upto(s):
        return {k: c for k, c in s.terms.items() if o is None or k[2] <= o}
    assert upto(small) == upto(deeper), ctx


def _random_lattice_and_product_refs(rng) -> list[tuple]:
    """Small random refs of the kinds built from Macdonald lattice sums
    and theta products, with negative exponents and vanishing cases."""
    refs = []
    pm = (1, -1)
    for _ in range(30):
        kind = rng.choice("BD")
        n = rng.randint(1 if kind == "B" else 2, 3)
        exps = tuple(rng.randint(-3, 5) for _ in range(n))
        args = (kind, exps, rng.randint(1, 9), rng.choice(pm), rng.choice(pm))
        refs += [("macsum",) + args, ("pi",) + args]
    while sum(ref[0] == "speccharsum" for ref in refs) < 30:
        fam = rng.choice("AD")
        n, two_k = rng.randint(1, 3), rng.randint(0, 5)
        tl = tuple(sorted((rng.randint(0, two_k) for _ in range(n)),
                          reverse=True))
        try:
            hw = macdonald.HalfWeight(two_k, tl)
            macdonald.check_character_data(fam, n, hw)
        except ValueError:
            continue
        refs.append(("speccharsum", fam, n, hw))
    for _ in range(30):
        thetas = []
        for _ in range(rng.randint(0, 3)):
            a, m, power = rng.randint(-6, 10), rng.randint(1, 7), \
                rng.randint(-1, 2)
            if power >= 0 or a % m:
                thetas.append(products.ThetaFactor(a, m, power))
        pochs = tuple(products.PochFactor(rng.randint(1, 5), rng.randint(1, 4),
                                          rng.randint(-2, 2))
                      for _ in range(rng.randint(0, 3)))
        refs.append(("prodspec", products.ProductSpec(tuple(thetas), pochs)))
    for _ in range(30):
        a, m = rng.randint(-6, 10), rng.randint(1, 8)
        refs.append(("jtp_sum", m, a))
    for _ in range(30):
        n = rng.randint(1, 3)
        w = tuple(rng.randint(0, 3 - n // 2) for _ in range(n + 1))
        refs.append(("charprod", rng.choice("ACD"),
                     rng.choice(("nonstandard", "principal")), n, w))
    return refs


def _assert_random_windows(rng, refs, top):
    # for each ref, at a random order N <= top and M <= N: the cut of
    # build(N) to M is build(M), and build(N) is honest against build(N+3);
    # returns (ref, build) for the three builds of each ref
    built = []
    for ref in refs:
        N = rng.randint(2, top)
        M = rng.randint(0, N)
        full, small, deeper = (funceq._build(ref, order)
                               for order in (N, M, N + 3))
        _assert_cut_is_build(full, small, M, (ref, N, M))
        _assert_window_honest(full, deeper, (ref, N))
        built += [(ref, full), (ref, small), (ref, deeper)]
    return built


def test_random_lattice_and_product_windows():
    rng = random.Random(20261018)
    _assert_random_windows(rng, _random_lattice_and_product_refs(rng), 9)


def _random_multisum_refs(rng) -> list[tuple]:
    """Random refs of the multisum kinds, drawn from the ranges their
    builders accept."""
    refs = []
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(0, 3)
        refs.append(("fsum", n, rng.randint(0, n), rng.randint(0, 1)))
        refs.append(("ag", k, rng.randint(0, k)))
        refs.append(("shun", rng.randint(0, 3)))
        variant = rng.choice(("kL0", "kL1", "omega", "omega_r1"))
        refs.append(("shun2", rng.randint(variant.startswith("omega"), 3),
                     variant))
        refs.append(("wz", rng.choice("ABCD")))
        refs.append(("wz", rng.choice(("guess_B", "guess_omega")),
                     rng.randint(0, 3)))
        refs.append(("sser",) + tuple(rng.randint(-2, 4) for _ in range(4)))
    return refs


def test_random_multisum_windows():
    rng = random.Random(20261022)
    _assert_random_windows(rng, _random_multisum_refs(rng), 18)


def _random_enumeration_refs(rng) -> list[tuple]:
    """``gen`` and ``gen1`` refs of every shape the tests cover: the empty
    boundary, a full one (every label positive) where its level is <= 3,
    and random boundaries of level 0..3."""
    refs = []
    for fam, n in (("A", 1), ("A", 2), ("A", 3), ("C", 0), ("C", 1),
                   ("C", 2), ("C", 3), ("D", 1), ("D", 2), ("D", 3),
                   ("D", 4)):
        ws = {(0,) * (n + 1)}
        if n < 3:
            ws.add((1,) * (n + 1))
        for _ in range(3):
            w = [0] * (n + 1)
            for _ in range(rng.randint(0, 3)):
                w[rng.randrange(n + 1)] += 1
            ws.add(tuple(w))
        for w in sorted(ws):
            refs += [("gen", fam, n, w), ("gen1", fam, n, w)]
    return refs


def test_random_enumeration_windows():
    rng = random.Random(20261019)
    _assert_random_windows(rng, _random_enumeration_refs(rng), 14)


def _in_w_q2(build, args: tuple, N: int) -> QSeries:
    """build(*args, order) with (z, q) -> (w, q^2), to order N, from a
    build one order deeper than needed: the oracle of the z = 0 edge
    terms."""
    inner = build(*args, (N + 2) // 2)
    return inner.substitute(z=(0, 1, 0), qpow=2).truncate(N)


def _one_term(term) -> funceq.EquationSpec:
    return funceq.EquationSpec((term,), "proved")


def test_z_to_w_terms_match_the_substituted_build(monkeypatch):
    # a (z -> w, q -> q^2) term fetches its series at N // 2, and the
    # residual of the term alone equals the substituted build, terms,
    # q_order and q_floor
    rng = random.Random(20261023)
    memo, built = _counting_memo(monkeypatch)
    refs = _random_enumeration_refs(rng) + [
        ("ag", k, a) for k in range(4) for a in range(k + 1)]
    for ref in refs:
        N = rng.randint(0, 14)
        memo.cache_clear()
        built.clear()
        got, _ = residual(_one_term(
            funceq.Term(1, ref, post="z_to_w", subst=(0, 0, 2))), N)
        assert built == [(ref, N // 2)]
        build = {"gen": gen_fun, "gen1": gen_fun_z1,
                 "ag": multisums.ag_sum}[ref[0]]
        assert got == _in_w_q2(build, ref[1:], N), (ref, N)


def test_unit_term_cuts_only_what_needs_cutting(monkeypatch):
    # the residual of a unit term alone is its series cut at N: a series
    # cut at or above N, one with a term above its cut, or an exact one;
    # a series cut below N is too short for a verdict at N
    cut = QSeries({(0, 0, 1): 2, (1, 0, 3): -1}, 3)
    stray = QSeries({(0, 0, 1): 2, (0, 0, 5): 1}, 3)
    exact = QSeries({(0, 0, 1): 2, (0, 0, 9): 1})
    for s, N in ((cut, 3), (cut, 2), (stray, 3), (stray, 2), (exact, 6),
                 (cut, 6), (stray, 6)):
        monkeypatch.setattr(funceq, "_series", lambda ref, M: s)
        spec = _one_term(funceq.Term(1, ("x",)))
        if s.q_order is not None and s.q_order < N:
            with pytest.raises(ValueError, match="insufficient truncation"):
                residual(spec, N)
            continue
        got, _ = residual(spec, N)
        assert got == s.truncate(N), (s, N)


def test_random_atomic_points_match_atomic_residual():
    # k, l in -2..4 give prefactors with negative q-exponents; the catalog
    # terms and atomic_residual evaluate the same relation data
    rng = random.Random(20261024)
    points = [("R%d" % rng.randint(1, 4),
               tuple(rng.randint(-2, 4) for _ in range(4)))
              for _ in range(24)]
    points += [("toshow%d" % i, (0, 0, 0, 0)) for i in (1, 2, 3, 4)]
    for which, params in points:
        N = rng.randint(0, 12)
        if which[0] == "R":
            spec = catalog("atomic", dict(zip(("k1", "k2", "l1", "l2"),
                                              params), i=int(which[1])))
        else:
            spec = catalog("toshow", {"i": int(which[-1])})
        res, mm = residual(spec, N)
        assert mm is None, (which, params, N)
        assert res == multisums.atomic_residual(which, params, N), \
            (which, params, N)


def _random_hall_littlewood_refs(rng) -> list[tuple]:
    """Random refs of the Hall-Littlewood kinds, drawn from the ranges
    their checks' validators accept (L <= 5 keeps hlsym's L! cosets
    small)."""
    refs = []
    for _ in range(12):
        k, n = rng.randint(0, 3), rng.randint(1, 4)
        refs.append(("hlchain", k, n))
        refs.append(("hlsum", k, n))
        refs.append(("hlweighted", "v1", n))
        refs.append(("hlweighted", "v2", rng.randint(1, 3)))
        delta = rng.randint(0, 1)
        gn = rng.randint(1 - delta, 2)
        refs.append(("gow", rng.randint(0, 4), gn, delta))
        refs.append(("hlinf", tuple(sorted(
            (rng.randint(1, 3) for _ in range(rng.randint(0, 3))),
            reverse=True)), rng.randint(1, 4)))
        L = rng.randint(1, 5)
        r = rng.randint(0, L)
        s = rng.randint(0, L - r)
        m = rng.randint(1, 3)
        shape = (2,) * r + (1,) * s
        refs.append(("hlsym", shape, L, m, rng.choice((1, m))))
        refs.append(("hlls", r, s, L, m))
        refs.append(("hlpf", shape, L, m))
    return refs


def test_random_hall_littlewood_windows():
    rng = random.Random(20261020)
    built = _assert_random_windows(rng, _random_hall_littlewood_refs(rng), 12)
    for ref, s in built:
        assert not s.terms or s.q_floor <= s.min_q_degree(), ref
