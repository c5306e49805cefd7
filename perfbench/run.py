"""cmpplab benchmark: cold-process verify/expand workloads with an exact-output
gate.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each pass starts a fresh interpreter
(``child.py``) that imports cmpplab from ``src/`` and runs the workload's
items one after another, as a single CLI caller would.  Passes repeat until
``--seconds`` have gone by (at least ``MIN_PASSES``), every pass in the one
order ``workloads.order(..., seed, ...)``, so every pass does the same work
item by item.  An item's time is the fastest of its passes: a shared 2-core
host showed bursts of up to 1.7x slowdown lasting seconds, and the fastest
of several identical cold runs is the reading those bursts disturb least.
setup_s is the median of many fresh interpreters, spread between the
passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``tracer.py``).  Every item's output is compared with the reference
recorded from the seed commit (``reference/<workload>.json.gz``); in a
traced run so is every distinct series a layer builder returns.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full record, with its stamp, goes to
``.perfbench_out/``.  The exit code is 1 when any output is wrong and 2
when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 4          # untraced passes per --trace 0 run
SETUP_PER_PASS = 2      # extra fresh interpreters timed before each pass
TAIL_BEYOND = 10        # samples beyond the tail percentile
DEADLINE_S = 170.0      # a run must end well inside 180 s


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no reference, a pass
    that died or ran out of time)."""


def _deadline_left(t_start: float) -> float:
    return DEADLINE_S - (time.monotonic() - t_start)


def run_child(job: dict, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    if timeout <= 1:
        raise BenchError("out of time before a pass could start")
    # fixed string hashing; bytecode cached as for an installed package
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout, env=env, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass ran past the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise BenchError("a pass failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_point(n: int) -> tuple[int, float]:
    """(0-based sorted index, percentile) of the highest point with at
    least TAIL_BEYOND samples beyond it."""
    idx = max(n - 1 - TAIL_BEYOND, 0)
    return idx, 100.0 * (idx + 1) / n


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for the mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at %s" % ROOT)
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def reference_path(workload: str) -> Path:
    return HERE / "reference" / ("%s.json.gz" % workload)


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    if not path.is_file():
        raise BenchError("no reference for workload %r at %s"
                         % (workload, path))
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def check_items(items: list, rows: list, reference: dict) -> list[str]:
    """Failures of one pass: an output that differs from the reference, an
    item that raised, or a proved check that reports fail."""
    bad = []
    ref = reference["items"]
    for item, (_, output, err, proved_fail) in zip(items, rows):
        key = workloads.item_key(item)
        if err is not None:
            bad.append("%s raised: %s" % (key, err.strip().splitlines()[-1]))
        elif proved_fail:
            bad.append("%s: proved check reports fail: %s" % (key, output))
        elif ref.get(key) != output:
            bad.append("%s: output %s differs from the reference %s"
                       % (key, output, ref.get(key)))
    return bad


def check_digests(digests: dict, reference: dict) -> tuple[int, list[str]]:
    """(checked, failures) for the builder outputs of a traced pass.  Calls
    the reference does not know (a builder called with new arguments) are
    not checked."""
    ref = reference["digests"]
    checked = [k for k in digests if k in ref]
    bad = ["%s: series differs from the reference" % k
           for k in checked if digests[k] != ref[k]]
    return len(checked), bad


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics from untraced passes that ran the same items in
    the same order.  Each item's time is the fastest of its passes;
    wall_s sums them.  item_ms_mid is the mean of the items between the
    40th and 60th percentiles, item_ms_tail the mean of the items from the
    tail point up: a single order statistic jumped by a third between runs
    where the item times have a gap around it."""
    ms = sorted(min(times) for times in
                zip(*([row[0] for row in r["items"]] for r in passes)))
    n = len(ms)
    return {
        "wall_s": sum(ms) / 1000.0,
        "item_ms_mid": statistics.fmean(ms[int(0.4 * n):int(0.6 * n) + 1]),
        "item_ms_tail": statistics.fmean(ms[tail_point(n)[0]:]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "pass_wall_s_min": min(r["wall_s"] for r in passes),
    }


def measure(items: list, seconds: float, t_start: float, trace: bool = False,
            spans_path: Path | None = None, extra: dict | None = None
            ) -> tuple[list[dict], list[dict], list[float]]:
    """Run passes of ``items``, each in a fresh interpreter and all in the
    given order, until ``seconds`` have gone by.  Returns the untraced
    results, the traced results and the set-up times.  ``extra`` is added
    to every job (a ``corrupt`` patch, in the tests)."""
    job = dict(extra or {}, root=str(ROOT), items=items)
    traced_job = dict(job, trace=True)
    if spans_path is not None:
        traced_job["spans_path"] = str(spans_path)
    # the first interpreter also writes the bytecode cache: not a sample
    setup_job = {"root": str(ROOT), "setup_only": True}
    run_child(setup_job, _deadline_left(t_start))

    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    t_measure = time.monotonic()
    if trace:
        # alternate, so that the overhead compares passes of the same spell
        while not traced or time.monotonic() - t_measure < seconds:
            untraced.append(run_child(job, _deadline_left(t_start)))
            traced.append(run_child(traced_job, _deadline_left(t_start)))
    else:
        # set-up samples are spread between the passes
        while len(untraced) < MIN_PASSES or \
                time.monotonic() - t_measure < seconds:
            for _ in range(SETUP_PER_PASS):
                setups.append(run_child(setup_job, _deadline_left(t_start))
                              ["setup_s"])
            untraced.append(run_child(job, _deadline_left(t_start)))
    setups += [r["setup_s"] for r in untraced]
    return untraced, traced, setups


def layers(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: times are medians over traced passes, counts
    come from the first traced pass (they repeat exactly)."""
    first = traced[0]
    out = {}
    for key, value in first["layers"].items():
        if key.endswith(".s") or key.endswith(".self_s"):
            out[key] = statistics.median(t["layers"][key] for t in traced)
        else:
            out[key] = value
    hits = first["funceq_series"]["hits"]
    misses = first["funceq_series"]["misses"]
    out["funceq.series.hits"] = hits
    out["funceq.series.misses"] = misses
    out["funceq.series.hit_ratio"] = hits / max(hits + misses, 1)
    out["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        u["wall_s"] for u in untraced)
    out["trace.spans"] = first["spans"]
    return out


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.monotonic()
    if not (ROOT / "src" / "cmpplab" / "__init__.py").is_file():
        raise BenchError("cmpplab sources not found under %s"
                         % (ROOT / "src"))
    units = metric_units(trace)
    reference = load_reference(workload)
    pool = workloads.pool(workload)
    OUT_DIR.mkdir(exist_ok=True)
    items = [pool[i] for i in
             workloads.order(workload, seed, reference["chains"])]
    untraced, traced, setups = measure(
        items, seconds, t_start, trace,
        spans_path=OUT_DIR / ("%s.spans" % workload))

    failures: list[str] = []
    attempted = 0
    for result in untraced + traced:
        attempted += len(items)
        failures += check_items(items, result["items"], reference)
    for result in traced:
        checked, bad = check_digests(result["digests"], reference)
        attempted += checked
        failures += bad

    if trace:
        values = layers(traced, untraced)
    else:
        values = end_to_end(untraced, setups)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    n = len(pool)
    stamp = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "items": n, "passes": len(untraced) + len(traced),
        "traced_passes": len(traced),
        "tail_percentile": round(tail_point(n)[1], 2),
        "tail_samples_beyond": n - 1 - tail_point(n)[0],
        "setup_samples": len(setups),
    }
    return {"stamp": stamp, "correct": not failures,
            "attempted": attempted, "failed": len(failures),
            "failed_share": len(failures) / attempted,
            "failures": failures[:50], "metrics": metrics,
            "all_values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    path = OUT_DIR / ("%s-seed%d-trace%d.json"
                      % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in record["failures"]:
        print("FAIL %s" % line, file=sys.stderr)
    print("# stamp %s" % json.dumps(record["stamp"], sort_keys=True))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
