"""One benchmark pass in a fresh interpreter.

Reads a job (JSON) on stdin, imports cmpplab from ``<root>/src``, runs the
job's items one after another as the CLI would (a closed loop with one
caller), and prints one JSON result line on stdout.

Job keys:

* ``root``: the checkout root;
* ``items``: the items, in the order to run them (see ``workloads.py``);
* ``trace``: wrap the layers with a :class:`tracer.Tracer`;
* ``spans_path``: where a traced pass writes its spans (optional);
* ``setup_only``: only import cmpplab and report the set-up time;
* ``record_sharing``: report ``chains``, for every cache key that more than
  one item asks for, the (0-based) indices of those items;
* ``corrupt``: ``["module.function", how]``, a patch that shows a check
  of the benchmark at work: ``"bump"`` changes one coefficient of every
  result of the builder (the exact-output gate must catch it), ``"raise"``
  makes the builder raise ``TypeError`` (the item must count as failed),
  ``"shared_build"`` makes its first call in the process sleep
  ``SHARED_BUILD_S``, as a new cache shared by several items would (the
  item that pays must pay in every pass).

Result keys: ``setup_s``, ``wall_s``, ``peak_rss_mb``, ``items`` (per item
``[ms, output record, error or null, proved_fail]``, see
:func:`output_record`) and, when traced, ``layers``, ``funceq_series``
(lru_cache hits and misses), ``spans`` and ``digests`` (a sha256 prefix of
every distinct builder call's result).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter, sleep


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _params(obj: dict) -> dict:
    """JSON lists back to the tuples the CLI's parameter parser makes."""
    return {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}


SHARED_BUILD_S = 0.2


def _corrupt(target: str, how: str) -> None:
    """Rebind a builder as the ``corrupt`` job key says."""
    from cmpplab.series import QSeries
    from tracer import rebind

    def bump(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            terms = dict(out.terms)
            key = min(terms) if terms else (0, 0, 0)
            terms[key] = terms.get(key, 0) + 1
            return QSeries(terms, out.q_order, out.q_floor)
        return wrapper

    def raising(fn):
        def wrapper(*args, **kwargs):
            raise TypeError("corrupted builder")
        return wrapper

    def shared_build(fn):
        built = []

        def wrapper(*args, **kwargs):
            if not built:
                sleep(SHARED_BUILD_S)
                built.append(True)
            return fn(*args, **kwargs)
        return wrapper

    wraps = {"bump": bump, "raise": raising, "shared_build": shared_build}
    rebind(*target.split(".", 1), wraps[how])


# Caches that are not lru_cache functions, by the function that fills them.
DICT_CACHES = (("cmpp", "gen_fun"), ("hall_littlewood", "_h_step"),
               ("series", "_qbin_poly"))


def _record_uses(current: list) -> dict:
    """Rebind every cached function of cmpplab so that each call notes
    which item (``current[0]``) asked for which key; returns key -> item
    indices."""
    from tracer import rebind

    uses: dict = {}

    def recorder(label):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                key = "%s%r" % (label, args + tuple(sorted(kwargs.items())))
                uses.setdefault(key, set()).add(current[0])
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    targets = set(DICT_CACHES)
    for mname, mod in list(sys.modules.items()):
        if mname.startswith("cmpplab."):
            targets |= {(mname[len("cmpplab."):], name)
                        for name, val in vars(mod).items()
                        if hasattr(val, "cache_info")}
    for modname, attr in sorted(targets):
        rebind(modname, attr, recorder("%s.%s" % (modname, attr)))
    return uses


def run_item(cli, item) -> tuple[str, bool]:
    """Run one item as the CLI does; returns (output text, proved fail)."""
    if item[0] == "verify":
        _, check_id, params, order = item
        rep = cli.run_check(check_id, _params(params), order, timings=False)
        return (rep.to_json(),
                rep.status == "fail" and rep.conjecture_status == "proved")
    _, text, order = item
    return cli.parse_series(text, order).dump_tsv(), False


def output_record(item, text: str | None) -> str | None:
    """What the gate compares: a verify item's report JSON itself, or the
    sha256 of an expand item's TSV."""
    if text is None or item[0] == "verify":
        return text
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, os.path.join(job["root"], "src"))
    t0 = perf_counter()
    import cmpplab  # noqa: F401  (registers the catalog)
    from cmpplab import cli, funceq
    setup_s = perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0
    if job.get("corrupt"):
        _corrupt(*job["corrupt"])
    series_cache = funceq._series
    tracer = None
    if job.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    current = [0]
    uses = _record_uses(current) if job.get("record_sharing") else None

    rows = []
    outputs = []
    start = perf_counter()
    for current[0], item in enumerate(job["items"]):
        t = perf_counter()
        try:
            text, proved_fail = run_item(cli, item)
            err = None
        # an item that raises is a failed item; the CLI's parse_series
        # turns a builder's TypeError or IndexError into SystemExit
        except (Exception, SystemExit):
            text, proved_fail = None, False
            err = traceback.format_exc(limit=3)
        rows.append([(perf_counter() - t) * 1000.0, err, proved_fail])
        outputs.append(text)
    result["wall_s"] = perf_counter() - start
    result["peak_rss_mb"] = _peak_rss_mb()
    result["items"] = [[ms, output_record(item, text), err, proved_fail]
                       for item, (ms, err, proved_fail), text
                       in zip(job["items"], rows, outputs)]
    if uses is not None:
        result["chains"] = sorted({tuple(sorted(idx))
                                   for idx in uses.values() if len(idx) > 1})
    if tracer is not None:
        info = series_cache.cache_info()
        result["funceq_series"] = {"hits": info.hits, "misses": info.misses}
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.span_count()
        result["digests"] = tracer.output_digests()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main())
