"""The output digest: how many output lines the library gives over a fixed
grid, and their sha256.  Two trees with the same digest give the same
reports, error texts and expand outputs there.

Run from the checkout root (about 8 s on a shared 2-core x86-64 host):

    PYTHONPATH=src python tests/output_digest.py

It prints ``<lines> <sha256>``.  The lines are, in order:

* ``cli.run_check(check, params, N, timings=False).to_json()`` for every
  catalog check, every point of ``check_points`` and N = 6, then 13;
* the output text of every item of the benchmark's ``enum`` and then its
  ``catalog`` pool, in pool order, as ``perfbench/child.py``'s
  ``run_item`` gives it (a report JSON, or an expand TSV);
* the ``dump_tsv()`` of builds that no catalog check reaches at those
  orders (``builder_lines``): ``gen_fun`` and ``gen_fun_z1`` over every
  boundary of A with n 1..3, C with n 0..4 and D with n 1..4, entries in
  0..2 and level <= 3, at N = 0, 1, 5, 13, then at the levels of 255 and
  300 and at C n = 20; ``gordon_series`` over k 0..4, a -1..k+1 and N =
  -1, 0, 6, 20; ``qbin`` over n -1..14, k -1..n+1 and m 0..3.  Each
  build is one line of the digest, its TSV's newlines included.

A call that raises gives the line ``<exception name>: <message>``.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORDERS = (6, 13)


def _values(name: str, default) -> tuple:
    """The grid of one positional parameter."""
    if name == "family":
        return ("A", "C", "D")
    if name == "kind":
        return ("B", "D")
    if name == "base":
        return tuple(range(-1, 10))
    if isinstance(default, str):
        return (default,)
    return tuple(range(-1, 4))


def _extras(defaults: dict) -> list[dict]:
    """The grid of the keyword-only parameters: weights absent or of 1-4
    entries, ``two_lambda`` of 0-3 entries, each entry in 0..2; no e, e1
    alone, or e1 and e2, each in -1..3."""
    def tuples(lengths):
        return [w for k in lengths for w in product(range(3), repeat=k)]

    if "weights" in defaults:
        return [{}] + [{"weights": w} for w in tuples(range(1, 5))]
    if "two_lambda" in defaults:
        return [{"two_lambda": t} for t in tuples(range(4))]
    if "e1" in defaults:
        es = range(-1, 4)
        return [{}] + [{"e1": a} for a in es] + [
            {"e1": a, "e2": b} for a in es for b in es]
    return [{}]


def check_points(check) -> list[dict]:
    """Every parameter point of one catalog check that the digest runs."""
    axes = [_values(name, check.defaults.get(name))
            for name in check.param_names]
    return [{**dict(zip(check.param_names, values)), **extra}
            for values in product(*axes) for extra in _extras(check.defaults)]


def _line(call) -> str:
    try:
        return call()
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def grid_lines(checks, orders=ORDERS):
    """The report JSON (or error text) of every check, point and order."""
    from cmpplab import cli

    for check in checks:
        for params in check_points(check):
            for N in orders:
                yield _line(lambda: cli.run_check(
                    check.check_id, params, N, timings=False).to_json())


def pool_lines():
    """The output of every item of both benchmark pools, in pool order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import child
    import workloads

    from cmpplab import cli

    for workload in ("enum", "catalog"):
        for item in workloads.pool(workload):
            yield _line(lambda: child.run_item(cli, item)[0])


def builder_lines():
    """The TSV (or error text) of each build of the builder grid."""
    from cmpplab.cmpp import gen_fun, gen_fun_z1, gordon_series
    from cmpplab.series import qbin

    scans = [(fam, n, w, N)
             for fam, ns in (("A", range(1, 4)), ("C", range(5)),
                             ("D", range(1, 5)))
             for n in ns for w in product(range(3), repeat=n + 1)
             if sum(w) <= 3 for N in (0, 1, 5, 13)]
    scans += [("A", 1, (300, 2), 8), ("C", 1, (255, 0), 6),
              ("A", 2, (0, 300, 1), 5), ("C", 20, (1,) + (0,) * 20, 5)]
    calls = [(build, ref) for ref in scans for build in (gen_fun, gen_fun_z1)]
    calls += [(gordon_series, (k, a, N)) for k in range(5)
              for a in range(-1, k + 2) for N in (-1, 0, 6, 20)]
    calls += [(qbin, (n, k, m)) for n in range(-1, 15)
              for k in range(-1, n + 2) for m in range(4)]
    for build, args in calls:
        yield _line(lambda: build(*args).dump_tsv())


def digest(lines) -> tuple[int, str]:
    """(number of lines, sha256 of the lines, each ended by a newline)."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


def main() -> int:
    from cmpplab import funceq

    def lines():
        yield from grid_lines(funceq.list_checks())
        yield from pool_lines()
        yield from builder_lines()

    print(*digest(lines()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
