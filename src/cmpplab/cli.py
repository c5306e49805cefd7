"""Batch verification front-end.

Subcommands:

* expand      expand a named series to a given order (TSV or JSON)
* verify      run one catalog check, print a JSON report
* sweep       run a check over a parameter grid, optionally in parallel
* list-checks list catalog ids with parameter names

Exit codes: 0 all pass, 2 any failed proved check, 3 any conjectural
finding (fail wins over finding), 1 usage error.

Sweep reports are deterministic: they are sorted by parameter values and
carry elapsed_ms = 0 unless --timings is given, so re-runs (any job
count) are byte-identical.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import cmpp, funceq, hall_littlewood, multisums, products
from .funceq import ParamError, as_tuple
from .series import QSeries, poch, qbin


@dataclass
class VerificationReport:
    check_id: str
    params: dict
    order: int
    status: str  # pass | fail | finding
    first_mismatch: Optional[dict]
    elapsed_ms: int
    conjecture_status: str

    def to_json(self) -> str:
        obj = {
            "check": self.check_id,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in sorted(self.params.items())},
            "order": self.order,
            "status": self.status,
            "first_mismatch": self.first_mismatch,
            "elapsed_ms": self.elapsed_ms,
            "conjecture_status": self.conjecture_status,
        }
        return json.dumps(obj, sort_keys=True)


def run_check(check_id: str, params: dict, order: int,
              timings: bool = True) -> VerificationReport:
    t0 = time.monotonic()
    spec = funceq.catalog(check_id, params)
    _, mm = funceq.residual(spec, order)
    elapsed = int((time.monotonic() - t0) * 1000) if timings else 0
    if mm is None:
        status = "pass"
        cert = None
    else:
        status = "fail" if spec.status == "proved" else "finding"
        cert = {"dz": mm.dz, "dw": mm.dw, "dq": mm.dq,
                "lhs": str(mm.lhs), "rhs": str(mm.rhs)}
    return VerificationReport(check_id, params, order, status, cert,
                              elapsed, spec.status)


# -- parameter and series parsing ---------------------------------------------


def _parse_value(text: str):
    text = text.strip()
    if ":" in text:
        try:
            return tuple(int(v) for v in text.split(":"))
        except ValueError:
            raise SystemExit("malformed value %r (expected ints joined by "
                             "':')" % text) from None
    try:
        return int(text)
    except ValueError:
        return text


def _items(text: str, what: str, positional: bool = False):
    """(name, value) for each comma-separated item of text.  A name given
    twice is a usage error, and so is an item without '=' unless
    positional, where its name is None."""
    seen = set()
    for item in text.split(","):
        if "=" not in item:
            if not positional:
                raise SystemExit("malformed %s %r (expected name=value)"
                                 % (what, item))
            yield None, item
            continue
        name, val = item.split("=", 1)
        name = name.strip()
        if name in seen:
            raise SystemExit("%s %r given twice" % (what, name))
        seen.add(name)
        yield name, val


def parse_params(text: str) -> dict:
    """k=1,a=2,weights=0:0:1,family=C -> dict."""
    return {name: _parse_value(val)
            for name, val in (_items(text, "param") if text else ())}


# Each builder declares the arguments of its series as its parameters,
# after the order N; the text binds to them as in a call.
SERIES_BUILDERS = {
    "gen_fun": lambda N, family, n, boundary=(): cmpp.gen_fun(
        str(family), int(n), as_tuple(boundary), N),
    "char_product": lambda N, family, kind, n, weight=():
        products.char_product(str(family), str(kind), int(n), as_tuple(weight),
                              N),
    "theta": lambda N, a, m: products.theta_q(int(a), int(m), N),
    "poch": lambda N, c, m: poch(int(c), int(m), None, N),
    "qbin": lambda N, n, k, m=1: qbin(int(n), int(k), int(m)).truncate(N),
    "f_sum": lambda N, n, a, delta: multisums.f_sum(int(n), int(a),
                                                    int(delta), N),
    "ag_sum": lambda N, k, a: multisums.ag_sum(int(k), int(a), N),
    "shun": lambda N, k: multisums.shun_sum(int(k), N),
    "shun2": lambda N, k, variant: multisums.shun2_sum(int(k), str(variant),
                                                       N),
    "wz": lambda N, variant, k=2: multisums.wz_sum(str(variant), N,
                                                   k=int(k)),
    "s_series": lambda N, k1, k2, l1, l2: multisums.s_series(
        int(k1), int(k2), int(l1), int(l2), N),
    "hl_chain": lambda N, k, n: hall_littlewood.hl_chain_sum(int(k), int(n),
                                                             N),
    "hl_inf": lambda N, shape, m: hall_littlewood.hl_inf_spec(
        as_tuple(shape), int(m), N),
    "gow": lambda N, r, n, delta: hall_littlewood.prop_gow_sum(
        int(r), int(n), int(delta), N),
    "gordon_product": lambda N, k, a: products.expand(
        products.gordon_product(int(k), int(a)), N),
}


def parse_series(text: str, order: int) -> QSeries:
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise SystemExit("malformed series %r (expected name(args))" % text)
    name, argstr = text.split("(", 1)
    name = name.strip()
    argstr = argstr[:-1]
    if name not in SERIES_BUILDERS:
        raise SystemExit("unknown series %r; known: %s"
                         % (name, ", ".join(sorted(SERIES_BUILDERS))))
    args: list = []
    kwargs: dict = {}
    if argstr.strip():
        for key, val in _items(argstr, "argument", positional=True):
            if key is not None:
                kwargs[key] = _parse_value(val)
            elif kwargs:
                raise SystemExit("bad arguments for %s: positional argument "
                                 "follows keyword argument" % name)
            else:
                args.append(_parse_value(val))
    builder = SERIES_BUILDERS[name]
    try:
        # a stray, repeated or missing argument is a TypeError, as in a call
        bound = inspect.signature(builder).bind(order, *args, **kwargs)
        return builder(*bound.args, **bound.kwargs)
    except (TypeError, IndexError, ValueError) as exc:
        raise SystemExit("bad arguments for %s: %s" % (name, exc))


def _series_json(s: QSeries) -> str:
    rows = [{"dz": k[0], "dw": k[1], "dq": k[2], "coeff": str(s.terms[k])}
            for k in sorted(s.terms)]
    order = s.q_order
    if order is None:
        order = max((k[2] for k in s.terms), default=0)
    return json.dumps({"order": order, "floor": s.q_floor, "terms": rows},
                      sort_keys=True)


# -- sweep grids ---------------------------------------------------------------


def parse_grid(text: str) -> list[dict]:
    """k=0:3,a=0:k,family=C,weights=0:0:1 -> list of param dicts.  A value
    with one ':' is an inclusive range, whose bounds may name an earlier
    int parameter; a value with more is a fixed tuple, as in --params.  A
    grid without a point is an error."""
    axes: list[tuple[str, object]] = []
    for name, val in _items(text, "grid entry"):
        val = val.strip()
        if val.count(":") == 1:
            lo, hi = val.split(":")
            axes.append((name, slice(lo.strip(), hi.strip())))
        else:
            axes.append((name, _parse_value(val)))
    def bound(text: str, point: dict) -> int:
        if text.lstrip("-").isdigit():
            return int(text)
        if not isinstance(point.get(text), int):
            raise SystemExit("grid bound %r is neither an int nor an "
                             "earlier int parameter" % text)
        return point[text]

    # the axes left to right, each over the partial points of the ones
    # before it, a range resolving its bounds against each point
    points: list[dict] = [{}]
    for name, val in axes:
        if isinstance(val, slice):
            points = [{**point, name: v} for point in points
                      for v in range(bound(val.start, point),
                                     bound(val.stop, point) + 1)]
        else:
            points = [{**point, name: val} for point in points]
    if not points:
        raise SystemExit("grid %r has no point" % text)
    return points


def _sweep_worker(job):
    return run_check(*job)


def run_sweep(check_id: str, grid: list[dict], order: int,
              jobs: int = 1, timings: bool = False
              ) -> list[VerificationReport]:
    tasks = [(check_id, p, order, timings) for p in grid]
    # a pool starts all its workers at once: no more than there are points
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            reports = pool.map(_sweep_worker, tasks)
    else:
        reports = [_sweep_worker(t) for t in tasks]
    reports.sort(key=lambda r: sorted(r.params.items()))
    return reports


# -- entry point ---------------------------------------------------------------


def _exit_code(reports) -> int:
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return 2
    if "finding" in statuses:
        return 3
    return 0


def _usage_error(msg) -> int:
    if isinstance(msg, KeyError) and msg.args:
        msg = msg.args[0]  # str() of a KeyError quotes its message
    print("error: %s" % msg, file=sys.stderr)
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="cmpplab",
        description="exact series verification for coloured-partition "
                    "identities")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_exp = sub.add_parser("expand", help="expand a named series")
    p_exp.add_argument("--series", required=True)
    p_exp.add_argument("--order", type=int, required=True)
    p_exp.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_ver = sub.add_parser("verify", help="run one catalog check")
    p_ver.add_argument("--check", required=True)
    p_ver.add_argument("--params", default="")
    p_ver.add_argument("--order", type=int, required=True)

    p_sw = sub.add_parser("sweep", help="run a check over a grid")
    p_sw.add_argument("--check", required=True)
    p_sw.add_argument("--grid", required=True)
    p_sw.add_argument("--order", type=int, required=True)
    p_sw.add_argument("--jobs", type=int,
                      help="worker processes (default: $CMPPLAB_JOBS or 1)")
    p_sw.add_argument("--timings", action="store_true",
                      help="include wall-clock times (breaks byte-for-byte "
                           "reproducibility)")

    sub.add_parser("list-checks", help="list catalog entries")

    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if getattr(args, "order", 0) < 0:
        return _usage_error("--order must be >= 0")
    try:
        return _run(args)
    except SystemExit as exc:
        # the parse helpers reject malformed input with a message
        if isinstance(exc.code, str):
            return _usage_error(exc.code)
        raise


# what catalog raises for an unknown check or a malformed point: KeyError,
# TypeError for a missing or undeclared name or a value of the wrong type,
# ValueError (ParamError) out of range; errors while evaluating a valid
# spec are not usage errors
_BAD_PARAMS = (KeyError, TypeError, ValueError)


def _run(args) -> int:
    if args.cmd == "expand":
        s = parse_series(args.series, args.order)
        if args.format == "tsv":
            sys.stdout.write(s.dump_tsv())
        else:
            print(_series_json(s))
        return 0

    if args.cmd == "verify":
        params = parse_params(args.params)
        try:
            funceq.catalog(args.check, params)
        except _BAD_PARAMS as exc:
            return _usage_error(exc)
        rep = run_check(args.check, params, args.order)
        print(rep.to_json())
        return _exit_code([rep])

    if args.cmd == "sweep":
        jobs = args.jobs
        if jobs is None:
            try:
                jobs = int(os.environ.get("CMPPLAB_JOBS", "1"))
            except ValueError:
                return _usage_error("CMPPLAB_JOBS must be an integer")
        points, rejected = [], []
        for params in parse_grid(args.grid):
            try:
                funceq.catalog(args.check, params)
                points.append(params)
            except ParamError as exc:
                rejected.append(exc)  # out of the check's range: skipped
            except _BAD_PARAMS as exc:
                return _usage_error(exc)
        if not points:  # a sweep that would check nothing
            return _usage_error("no grid point is in range for %s: %s"
                                % (args.check, rejected[0]))
        reports = run_sweep(args.check, points, args.order, jobs=max(jobs, 1),
                            timings=args.timings)
        for rep in reports:
            print(rep.to_json())
        return _exit_code(reports)

    if args.cmd == "list-checks":
        for chk in funceq.list_checks():
            extra = sorted(set(chk.defaults) - set(chk.param_names))
            names = ", ".join(chk.param_names +
                              tuple("[%s]" % e for e in extra))
            print("%-22s (%s)  %s" % (chk.check_id, names, chk.doc))
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
