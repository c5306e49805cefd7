"""Acceptance suite: every criterion at its stated truncation order, exact
coefficient equality (tolerance zero).  One pass/fail line is printed per
criterion."""

import json
import random
import time

from cmpplab import cli
from cmpplab.cmpp import gen_fun
from cmpplab.funceq import catalog, residual
from cmpplab.series import QSeries


def _run(cid, N, **params):
    spec = catalog(cid, params)
    _, mm = residual(spec, N)
    assert mm is None, "%s %r at N=%d: %s" % (cid, params, N, mm)
    return spec.status


def _report(num, label, t0):
    print("[acceptance] criterion %d: PASS (%.1fs) %s"
          % (num, time.monotonic() - t0, label))


def _weights(n, k):
    if n == 0:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in _weights(n - 1, k - first):
            out.append((first,) + rest)
    return out


def test_criterion_01_gordon_andrews_gordon():
    t0 = time.monotonic()
    for k in range(1, 4):
        for a in range(k + 1):
            case = time.monotonic()
            _run("gordon", 40, k=k, a=a)
            _run("gordon-fsum", 40, k=k, a=a)
            _run("andrews-gordon", 40, k=k, a=a)
            assert time.monotonic() - case < 10.0, (k, a)
    _report(1, "Gordon/Andrews-Gordon, k <= 3, N=40, < 10 s per case", t0)


def test_criterion_02_level_one_theorems():
    t0 = time.monotonic()
    for n in range(1, 5):
        for a in range(n + 1):
            case = time.monotonic()
            _run("jms", 30, n=n, a=a)
            _run("dk1", 30, n=n, a=a)
            _run("c-level1", 30, n=n, a=a)
            _run("a-f", 25, n=n, a=a)
            _run("c-f", 25, n=n, a=a)
            _run("d-f", 25, n=n, a=a)
            assert time.monotonic() - case < 60.0, (n, a)
    _report(2, "level-one products and F-bridges, n <= 4", t0)


def test_criterion_03_conjecture_product_sweep():
    t0 = time.monotonic()
    count = 0
    for n in range(1, 4):
        for k in range(3):
            for w in _weights(n, k):
                assert _run("con-a2n2", 20, n=n, weights=w)
                assert _run("con-dn2", 20, n=n, weights=w)
                count += 2
    for n in range(0, 4):
        for k in range(3):
            for w in _weights(n, k):
                assert _run("con-cn1", 20, n=n, weights=w)
                count += 1
    for n in range(1, 4):
        for k in range(3):
            for w in _weights(n, k):
                _run("a-product-positivity", 25, n=n, weights=w)
    assert time.monotonic() - t0 < 1800
    _report(3, "A/C/D product conjectures, %d weights, N=20" % count, t0)


def _conjecture_grid_passes(N):
    # the 96 points of the criterion-3 conjecture grid: every report at
    # order N is a pass
    t0 = time.monotonic()
    points = [(cid, n, w) for n in range(1, 4) for k in range(3)
              for w in _weights(n, k) for cid in ("con-a2n2", "con-dn2")]
    points += [("con-cn1", n, w) for n in range(0, 4) for k in range(3)
               for w in _weights(n, k)]
    assert len(points) == 96
    for cid, n, w in points:
        rep = cli.run_check(cid, {"n": n, "weights": w}, N, timings=False)
        assert rep.status == "pass", (cid, n, w, rep.first_mismatch)
    print("[acceptance] conjecture products at N=%d: PASS (%.1fs) 96 checks"
          % (N, time.monotonic() - t0))


def test_conjecture_products_at_order_40():
    _conjecture_grid_passes(40)


def test_conjecture_products_at_order_120():
    # a pass through q^120 checks every coefficient an N = 80 pass does
    _conjecture_grid_passes(120)


def test_criterion_04_hall_littlewood_bridges():
    t0 = time.monotonic()
    for n in range(1, 4):
        for k in range(4):
            _run("con-a2n2-qseries", 18, n=n, k=k, which=0)
            _run("con-a2n2-qseries", 18, n=n, k=k, which=1)
            _run("con-c-qseries", 18, n=n, k=k)
            if n >= 2:
                _run("con-d-qseries", 18, n=n, k=k)
    _report(4, "extremal-weight chain-multisum bridges, n<=3 k<=3 N=18", t0)


def test_hall_littlewood_bridges_at_order_30():
    # the criterion-4 grid at order 30: every report is a pass
    t0 = time.monotonic()
    points = [(cid, n, k, extra) for n in range(1, 4) for k in range(4)
              for cid, extra in (("con-a2n2-qseries", {"which": 0}),
                                 ("con-a2n2-qseries", {"which": 1}),
                                 ("con-c-qseries", {}),
                                 ("con-d-qseries", {}))
              if cid != "con-d-qseries" or n >= 2]
    assert len(points) == 44
    for cid, n, k, extra in points:
        rep = cli.run_check(cid, {"n": n, "k": k, **extra}, 30,
                            timings=False)
        assert rep.status == "pass", (cid, n, k, extra, rep.first_mismatch)
    print("[acceptance] Hall-Littlewood bridges at N=30: PASS (%.1fs) "
          "44 checks" % (time.monotonic() - t0))


def test_criterion_05_gow_multisum():
    t0 = time.monotonic()
    for r in range(7):
        for n in range(4):
            for delta in (0, 1):
                if 2 * n + delta < 1:
                    continue
                _run("gow", 40, r=r, n=n, delta=delta)
    _report(5, "P_{(2^r)} multisum vs branching, r<=6 n<=3 N=40", t0)


def test_criterion_06_hl_oracle_triangle_and_bailey():
    t0 = time.monotonic()
    for L in range(2, 7):
        for r in range(5):
            for s in range(5 - r):
                if r + s > L or r + s == 0:
                    continue
                for m in range(1, 5):
                    _run("hl-triangle", 25, r=r, s=s, L=L, m=m, route=0)
                    _run("hl-triangle", 25, r=r, s=s, L=L, m=m, route=1)
    for s in (0, 1):
        for m in (1, 2, 3):
            _run("bailey", 30, s=s, m=m, r_max=4)
    _report(6, "HL oracle triangle (L<=6, r+s<=4, m<=4, N=25) + Bailey", t0)


def test_criterion_07_shun_conjecture():
    t0 = time.monotonic()
    for k in range(4):
        status = _run("con-shun", 18, k=k)
        if k <= 1:
            assert status == "proved"
    _report(7, "double multisum vs P_{2 lam}(...;q^2) sum, k<=3 N=18", t0)


def test_criterion_08_functional_equation_regressions():
    t0 = time.monotonic()
    N = 25
    for k in range(5):
        for a in range(k + 1):
            _run("rogers-selberg", N, k=k, a=a)
    for n in range(1, 5):
        for a in range(n // 2 + 1):
            _run("mr-system", N, n=n, a=a, branch=1)
        for a in range((n - 1) // 2 + 1):
            _run("mr-system", N, n=n, a=a, branch=2)
    for n in range(1, 4):
        for k in range(1, 4):
            for a in range(k + 1):
                _run("a-fun", N, n=n, k=k, a=a)
                _run("cd-fun1", N, n=n, k=k, a=a)
                _run("cd-fun2", N, n=n, k=k, a=a)
            _run("a-fun2", N, n=n, k=k)
            _run("a-fun2-simplified", N, n=n, k=k)
    for k in range(1, 5):
        for a in range(k + 1):
            _run("cdn2", N, k=k, a=a)
            _run("d2-fun", N, k=k, a=a)
            for b in range(k - a):
                _run("d2-nis2", N, k=k, a=a, b=b)
            if a <= k - 1:
                _run("d2-combo", N, k=k, a=a)
            for b in range(k - a - 1):
                _run("d2-nis2-diff", N, k=k, a=a, b=b)
    for fam in ("C", "D"):
        for w in ((1, 0, 2), (2, 1, 0), (1, 2, 1)):
            _run("automorphism", N, family=fam, n=2, weights=w)
    for k0 in range(4):
        for k1 in range(4 - k0):
            _run("b-b", N, k0=k0, k1=k1)
    _report(8, "proved functional-equation regressions at N=25", t0)


def test_criterion_09_thm48_machinery():
    t0 = time.monotonic()
    for which in "ABCD":
        _run("wz-funceq", 18, idx="ABCD".index(which) + 1)
        _run("thm48", 18, which=which)
        _run("wz-edge", 18, which=which, edge="w0")
        _run("wz-edge", 18, which=which, edge="z0")
    _run("thm48-alt", 18, which="C")
    _run("thm48-alt", 18, which="D")
    rng = random.Random(48)
    tuples = set()
    while len(tuples) < 50:
        tuples.add(tuple(rng.randint(-2, 4) for _ in range(4)))
    for tup in sorted(tuples):
        for i in (1, 2, 3, 4):
            _run("atomic", 18, i=i, k1=tup[0], k2=tup[1], l1=tup[2],
                 l2=tup[3])
    for i in (1, 2, 3, 4):
        _run("toshow", 15, i=i)
    # the single-weight rewritings and the k-fold guess reductions
    _run("thm48-alt", 20, which="C")
    _run("thm48-alt", 20, which="D")
    for k in (1, 2, 3):
        for which in ("B", "kL0", "omega"):
            for edge in ("w0", "z0"):
                _run("guess-reduction", 20, k=k, which=which, edge=edge)
    _report(9, "deformed system, w=z reductions, %d atomic tuples"
            % len(tuples), t0)


def test_criterion_10_shun2_and_ag_type_products():
    t0 = time.monotonic()
    for k in range(1, 4):
        for variant in ("kL0", "kL1", "omega"):
            _run("con-shun2", 20, k=k, variant=variant)
    for k in range(1, 4):
        for which in ("c-kL0", "d-kL0", "d-kL1", "d-omega"):
            _run("ag-type-product", 20, k=k, which=which)
    _report(10, "double multisums vs enumeration and products, k<=3 N=20",
            t0)


def test_criterion_11_level_rank():
    t0 = time.monotonic()
    N = 30
    for k in range(1, 5):
        for i in range(k + 1):
            _run("level-rank-n1", N, k=k, i=i)
    for k in range(1, 4):
        for i in range(k + 1):
            for j in range(i, k + 1):
                _run("level-rank-n2", N, k=k, i=i, j=j)
    for k in range(1, 5):
        for n in range(1, 5):
            _run("level-rank-gen1", N, k=k, n=n)
            _run("level-rank-gen2", N, k=k, n=n)
            if min(k, n) >= 2:
                _run("level-rank-gen3", N, k=k, n=n)
    _report(11, "level-rank product equalities at N=30", t0)


def test_criterion_12_weighted_variants():
    t0 = time.monotonic()
    for n in range(1, 5):
        status = _run("hl-variant1", 18, n=n)
        if n <= 2:
            assert status == "proved"
    for k in range(1, 4):
        status = _run("hl-variant2", 18, k=k)
        if k == 1:
            assert status == "proved"
    _report(12, "weighted chain variants, v1 n<=4 / v2 k<=3, N=18", t0)


def test_criterion_13_macdonald_appendix():
    t0 = time.monotonic()
    vectors = {1: [(1,), (2,), (3,), (4,), (6,)],
               2: [(3, 1), (4, 1), (5, 2), (4, 3), (7, 2)],
               3: [(5, 3, 1), (6, 4, 2), (5, 4, 1), (7, 3, 2), (6, 3, 1)]}
    for n in (1, 2, 3):
        for exps in vectors[n]:
            kw = {"e%d" % (i + 1): e for i, e in enumerate(exps)}
            _run("macdonald-b", 50, base=2 * len(exps) + 5, sigma=1, **kw)
            _run("macdonald-b", 50, base=2 * len(exps) + 5, sigma=-1, **kw)
            if n >= 2:
                _run("macdonald-d", 50, base=2 * len(exps) + 4, sigma=1,
                     tau=1, **kw)
                _run("macdonald-d", 50, base=2 * len(exps) + 4, sigma=-1,
                     tau=1, **kw)
                _run("macdonald-d", 50, base=2 * len(exps) + 4, sigma=1,
                     tau=-1, **kw)
    # specialised character sums: integral weights and vanishing cases
    for n in (1, 2):
        for k in (0, 1, 2):
            for lam1 in range(k + 1):
                lams = [(lam1,)] if n == 1 else \
                    [(lam1, l2) for l2 in range(lam1 + 1)]
                for lam in lams:
                    _run("spec-char", 30, family="A", n=n, two_k=2 * k,
                         two_lambda=tuple(2 * v for v in lam))
    for n in (2, 3):
        for k in (1, 2):
            lam = (k,) + (0,) * (n - 1)
            _run("spec-char", 30, family="D", n=n, two_k=2 * k,
                 two_lambda=tuple(2 * v for v in lam))
    _run("spec-char", 30, family="A", n=1, two_k=3, two_lambda=(2,))
    _run("spec-char", 30, family="A", n=2, two_k=1, two_lambda=(0, 0))
    _run("spec-char", 30, family="D", n=2, two_k=3, two_lambda=(2, 0))
    _run("spec-char", 30, family="D", n=2, two_k=4, two_lambda=(3, 1))
    _run("spec-char", 30, family="D", n=3, two_k=2, two_lambda=(1, 1, 1))
    _report(13, "Macdonald identities at N=50 and character sums at N=30",
            t0)


def test_criterion_14_performance_floor():
    t0 = time.monotonic()
    a = QSeries({(0, 0, d): d + 1 for d in range(201)}, 200, 0)
    b = QSeries({(0, 0, d): 3 * d - 7 for d in range(201)}, 200, 0)
    t_mul = time.monotonic()
    _ = a * b
    assert time.monotonic() - t_mul < 1.0
    for w in _weights(2, 2):
        t_case = time.monotonic()
        gen_fun("A", 2, w, 20)
        assert time.monotonic() - t_case < 120.0, w
    _report(14, "dense mul at N=200 < 1 s; rank-2 level-2 counts < 120 s",
            t0)


def test_criterion_15_determinism(capsys):
    t0 = time.monotonic()
    argv = ["sweep", "--check", "d2-fun", "--grid", "k=1:3,a=0:k",
            "--order", "12"]
    outs = []
    for jobs in ("1", "2", "1"):
        code = cli.main(argv + ["--jobs", jobs])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    reports = [json.loads(ln) for ln in outs[0].strip().splitlines()]
    assert all(r["status"] == "pass" for r in reports)
    for r in reports:
        assert json.dumps(json.loads(json.dumps(r, sort_keys=True)),
                          sort_keys=True) == json.dumps(r, sort_keys=True)
    with capsys.disabled():
        _report(15, "sweep reports byte-identical across re-runs and jobs",
                t0)
