"""The benchmark's workloads: fixed item pools and the seeded item order.

An item is one CLI-equivalent call:

* ``("verify", check_id, params, order)`` is ``cmpplab verify``: it calls
  ``cli.run_check(check_id, params, order, timings=False)`` and then
  ``VerificationReport.to_json()``;
* ``("expand", series_text, order)`` is ``cmpplab expand --format tsv``: it
  calls ``cli.parse_series(series_text, order)`` and then
  ``QSeries.dump_tsv()``.

Every workload runs its whole pool on every pass, so every seed does the
same work.  The seed draws the order in which the items arrive; every
pass of a run uses that one order, and items that share a cached build
keep their pool order among themselves (see :func:`order`).
"""

from __future__ import annotations

import json
import random

# Orders.  enum is sized so that one pass takes about 3 s on one core, so
# that a run makes a dozen passes;
# catalog replays every acceptance point at two small order caps.
ENUM_ORDER = 18
ENUM_EXPAND_ORDER = 12
CATALOG_CAPS = (10, 8)


def _weights(n: int, k: int) -> list[tuple[int, ...]]:
    """All weight vectors (k_0, ..., k_n) of level k."""
    if n == 0:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in _weights(n - 1, k - first):
            out.append((first,) + rest)
    return out


def acceptance_points() -> list[tuple[str, dict, int]]:
    """Every catalog point the acceptance criteria run, at its stated order.

    Mirrors the loops of the acceptance suite (criteria 1-13, plus the
    grid of the criterion-15 sweep), as (check_id, params, order).
    """
    pts: list[tuple[str, dict, int]] = []

    def add(cid, N, **params):
        pts.append((cid, params, N))

    for k in range(1, 4):                                      # criterion 1
        for a in range(k + 1):
            for cid in ("gordon", "gordon-fsum", "andrews-gordon"):
                add(cid, 40, k=k, a=a)
    for n in range(1, 5):                                      # criterion 2
        for a in range(n + 1):
            for cid in ("jms", "dk1", "c-level1"):
                add(cid, 30, n=n, a=a)
            for cid in ("a-f", "c-f", "d-f"):
                add(cid, 25, n=n, a=a)
    for n in range(1, 4):                                      # criterion 3
        for k in range(3):
            for w in _weights(n, k):
                add("con-a2n2", 20, n=n, weights=w)
                add("con-dn2", 20, n=n, weights=w)
    for n in range(0, 4):
        for k in range(3):
            for w in _weights(n, k):
                add("con-cn1", 20, n=n, weights=w)
    for n in range(1, 4):
        for k in range(3):
            for w in _weights(n, k):
                add("a-product-positivity", 25, n=n, weights=w)
    for n in range(1, 4):                                      # criterion 4
        for k in range(4):
            add("con-a2n2-qseries", 18, n=n, k=k, which=0)
            add("con-a2n2-qseries", 18, n=n, k=k, which=1)
            add("con-c-qseries", 18, n=n, k=k)
            if n >= 2:
                add("con-d-qseries", 18, n=n, k=k)
    for r in range(7):                                         # criterion 5
        for n in range(4):
            for delta in (0, 1):
                if 2 * n + delta >= 1:
                    add("gow", 40, r=r, n=n, delta=delta)
    for L in range(2, 7):                                      # criterion 6
        for r in range(5):
            for s in range(5 - r):
                if r + s > L or r + s == 0:
                    continue
                for m in range(1, 5):
                    add("hl-triangle", 25, r=r, s=s, L=L, m=m, route=0)
                    add("hl-triangle", 25, r=r, s=s, L=L, m=m, route=1)
    for s in (0, 1):
        for m in (1, 2, 3):
            add("bailey", 30, s=s, m=m, r_max=4)
    for k in range(4):                                         # criterion 7
        add("con-shun", 18, k=k)
    N = 25                                                     # criterion 8
    for k in range(5):
        for a in range(k + 1):
            add("rogers-selberg", N, k=k, a=a)
    for n in range(1, 5):
        for a in range(n // 2 + 1):
            add("mr-system", N, n=n, a=a, branch=1)
        for a in range((n - 1) // 2 + 1):
            add("mr-system", N, n=n, a=a, branch=2)
    for n in range(1, 4):
        for k in range(1, 4):
            for a in range(k + 1):
                add("a-fun", N, n=n, k=k, a=a)
                add("cd-fun1", N, n=n, k=k, a=a)
                add("cd-fun2", N, n=n, k=k, a=a)
            add("a-fun2", N, n=n, k=k)
            add("a-fun2-simplified", N, n=n, k=k)
    for k in range(1, 5):
        for a in range(k + 1):
            add("cdn2", N, k=k, a=a)
            add("d2-fun", N, k=k, a=a)
            for b in range(k - a):
                add("d2-nis2", N, k=k, a=a, b=b)
            if a <= k - 1:
                add("d2-combo", N, k=k, a=a)
            for b in range(k - a - 1):
                add("d2-nis2-diff", N, k=k, a=a, b=b)
    for fam in ("C", "D"):
        for w in ((1, 0, 2), (2, 1, 0), (1, 2, 1)):
            add("automorphism", N, family=fam, n=2, weights=w)
    for k0 in range(4):
        for k1 in range(4 - k0):
            add("b-b", N, k0=k0, k1=k1)
    for which in "ABCD":                                       # criterion 9
        add("wz-funceq", 18, idx="ABCD".index(which) + 1)
        add("thm48", 18, which=which)
        add("wz-edge", 18, which=which, edge="w0")
        add("wz-edge", 18, which=which, edge="z0")
    add("thm48-alt", 18, which="C")
    add("thm48-alt", 18, which="D")
    rng = random.Random(48)
    tuples = set()
    while len(tuples) < 50:
        tuples.add(tuple(rng.randint(-2, 4) for _ in range(4)))
    for tup in sorted(tuples):
        for i in (1, 2, 3, 4):
            add("atomic", 18, i=i, k1=tup[0], k2=tup[1], l1=tup[2],
                l2=tup[3])
    for i in (1, 2, 3, 4):
        add("toshow", 15, i=i)
    add("thm48-alt", 20, which="C")
    add("thm48-alt", 20, which="D")
    for k in (1, 2, 3):
        for which in ("B", "kL0", "omega"):
            for edge in ("w0", "z0"):
                add("guess-reduction", 20, k=k, which=which, edge=edge)
    for k in range(1, 4):                                      # criterion 10
        for variant in ("kL0", "kL1", "omega"):
            add("con-shun2", 20, k=k, variant=variant)
    for k in range(1, 4):
        for which in ("c-kL0", "d-kL0", "d-kL1", "d-omega"):
            add("ag-type-product", 20, k=k, which=which)
    N = 30                                                     # criterion 11
    for k in range(1, 5):
        for i in range(k + 1):
            add("level-rank-n1", N, k=k, i=i)
    for k in range(1, 4):
        for i in range(k + 1):
            for j in range(i, k + 1):
                add("level-rank-n2", N, k=k, i=i, j=j)
    for k in range(1, 5):
        for n in range(1, 5):
            add("level-rank-gen1", N, k=k, n=n)
            add("level-rank-gen2", N, k=k, n=n)
            if min(k, n) >= 2:
                add("level-rank-gen3", N, k=k, n=n)
    for n in range(1, 5):                                      # criterion 12
        add("hl-variant1", 18, n=n)
    for k in range(1, 4):
        add("hl-variant2", 18, k=k)
    vectors = {1: [(1,), (2,), (3,), (4,), (6,)],              # criterion 13
               2: [(3, 1), (4, 1), (5, 2), (4, 3), (7, 2)],
               3: [(5, 3, 1), (6, 4, 2), (5, 4, 1), (7, 3, 2), (6, 3, 1)]}
    for n in (1, 2, 3):
        for exps in vectors[n]:
            kw = {"e%d" % (i + 1): e for i, e in enumerate(exps)}
            add("macdonald-b", 50, base=2 * len(exps) + 5, sigma=1, **kw)
            add("macdonald-b", 50, base=2 * len(exps) + 5, sigma=-1, **kw)
            if n >= 2:
                base = 2 * len(exps) + 4
                add("macdonald-d", 50, base=base, sigma=1, tau=1, **kw)
                add("macdonald-d", 50, base=base, sigma=-1, tau=1, **kw)
                add("macdonald-d", 50, base=base, sigma=1, tau=-1, **kw)
    for n in (1, 2):
        for k in (0, 1, 2):
            for lam1 in range(k + 1):
                lams = [(lam1,)] if n == 1 else \
                    [(lam1, l2) for l2 in range(lam1 + 1)]
                for lam in lams:
                    add("spec-char", 30, family="A", n=n, two_k=2 * k,
                        two_lambda=tuple(2 * v for v in lam))
    for n in (2, 3):
        for k in (1, 2):
            lam = (k,) + (0,) * (n - 1)
            add("spec-char", 30, family="D", n=n, two_k=2 * k,
                two_lambda=tuple(2 * v for v in lam))
    add("spec-char", 30, family="A", n=1, two_k=3, two_lambda=(2,))
    add("spec-char", 30, family="A", n=2, two_k=1, two_lambda=(0, 0))
    add("spec-char", 30, family="D", n=2, two_k=3, two_lambda=(2, 0))
    add("spec-char", 30, family="D", n=2, two_k=4, two_lambda=(3, 1))
    add("spec-char", 30, family="D", n=3, two_k=2, two_lambda=(1, 1, 1))
    for k in range(1, 4):                                      # criterion 15
        for a in range(k + 1):
            add("d2-fun", 12, k=k, a=a)
    return pts


def _enum_pool() -> list[tuple]:
    # criterion 3 products, and criterion 8 (not the criterion-15 grid)
    pool: list[tuple] = [
        ("verify", cid, params, ENUM_ORDER)
        for cid, params, order in acceptance_points()
        if cid in ("con-a2n2", "con-dn2") or order == 25 and cid in (
            "rogers-selberg", "cdn2", "d2-fun", "automorphism")]
    for k in (1, 2):  # both sides of the C-family chain bridge at n = 1
        pool.append(("expand", "gen_fun(C,1,boundary=%d:0)" % k,
                     ENUM_EXPAND_ORDER))
        pool.append(("expand", "hl_chain(%d,2)" % k, ENUM_EXPAND_ORDER))
    return pool


def _catalog_pool() -> list[tuple]:
    pool: list[tuple] = []
    for cap in CATALOG_CAPS:
        for cid, params, order in acceptance_points():
            pool.append(("verify", cid, params, min(order, cap)))
        # the README's expand examples
        pool.append(("expand", "gen_fun(A,1,boundary=0:1)", min(6, cap)))
        pool.append(("expand", "theta(1,5)", min(12, cap)))
    return pool


POOLS = {"enum": _enum_pool, "catalog": _catalog_pool}


def item_key(item: tuple) -> str:
    """Stable text key of an item (the reference is keyed by it)."""
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def pool(workload: str) -> list[tuple]:
    """The workload's fixed pool, JSON-normalised (tuples become lists)."""
    return json.loads(json.dumps(POOLS[workload]()))


def _linear_extension(indices: list[int], chains: list[list[int]],
                      rng: random.Random) -> list[int]:
    """A random order of ``indices`` in which the members of each chain
    keep their relative order."""
    members = set(indices)
    succ: dict[int, list[int]] = {i: [] for i in indices}
    indeg = dict.fromkeys(indices, 0)
    for chain in chains:
        kept = [i for i in chain if i in members]
        for a, b in zip(kept, kept[1:]):
            succ[a].append(b)
            indeg[b] += 1
    ready = [i for i in indices if not indeg[i]]
    out = []
    while ready:
        j = rng.randrange(len(ready))
        ready[j], ready[-1] = ready[-1], ready[j]
        i = ready.pop()
        out.append(i)
        for b in succ[i]:
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    return out


def order(workload: str, seed: int, chains: list[list[int]]) -> list[int]:
    """The order of the workload's pool for a seed, as pool indices.

    ``chains`` (from the reference) lists, for every cached build that
    several items ask for, those items' pool indices.  Each chain keeps
    its pool order, so the same item pays for each shared build whatever
    the seed, and per-item times do not depend on the seed.  The catalog
    workload runs its cap rounds one after the other.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    rounds = len(CATALOG_CAPS) if workload == "catalog" else 1
    size = len(pool(workload)) // rounds
    out: list[int] = []
    for r in range(rounds):
        out += _linear_extension(list(range(r * size, (r + 1) * size)),
                                 chains, rng)
    return out
