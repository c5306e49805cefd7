"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They start real passes (fresh interpreters), so they take a minute.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("series.mul.calls", "series.mul.coeff_products",
                "cmpp.gen_fun.partitions", "funceq.series.hits",
                "funceq.series.misses")


def _small_items() -> list:
    """A few cheap enum items: rogers-selberg checks (gen_fun on both
    sides) and a gen_fun expand."""
    pool = workloads.pool("enum")
    checks = [it for it in pool if it[1] == "rogers-selberg"][:4]
    expands = [it for it in pool if it[0] == "expand"][:1]
    return checks + expands


def test_exact_counts_repeat_across_traced_runs():
    first = run.run("catalog", 11, 1, trace=True)
    second = run.run("catalog", 11, 1, trace=True)
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a == b and a > 0, (name, a, b)


def test_gate_catches_one_changed_coefficient():
    items = _small_items()
    reference = run.load_reference("enum")
    job = {"root": str(run.ROOT), "items": items}

    clean = run.run_child(dict(job, trace=True), 120)
    assert run.check_items(items, clean["items"], reference) == []
    checked, bad = run.check_digests(clean["digests"], reference)
    assert checked > 0 and bad == []

    corrupt = ["cmpp.gen_fun", "bump"]
    plain = run.run_child(dict(job, corrupt=corrupt), 120)
    assert run.check_items(items, plain["items"], reference)
    traced = run.run_child(dict(job, corrupt=corrupt, trace=True), 120)
    _, bad = run.check_digests(traced["digests"], reference)
    assert any(b.startswith("cmpp.gen_fun(") for b in bad)


def test_item_whose_builder_raises_counts_as_failed():
    # parse_series turns the builder's TypeError into SystemExit
    items = _small_items()
    reference = run.load_reference("enum")
    result = run.run_child({"root": str(run.ROOT), "items": items,
                            "corrupt": ["cmpp.gen_fun", "raise"]}, 120)
    bad = run.check_items(items, result["items"], reference)
    assert len(bad) == len(items)
    expand = [b for it, b in zip(items, bad) if it[0] == "expand"]
    assert expand and "SystemExit" in expand[0]


def test_new_shared_build_is_paid_in_wall_s():
    # a cache shared by several items that the seed commit's chains do not
    # know: the item that pays for it must pay in every pass
    items = _small_items()
    untraced, _, setups = run.measure(
        items, 0, time.monotonic(),
        extra={"corrupt": ["cmpp.gen_fun", "shared_build"]})
    assert len(untraced) == run.MIN_PASSES
    values = run.end_to_end(untraced, setups)
    assert values["wall_s"] >= child.SHARED_BUILD_S
    assert values["wall_s"] <= values["pass_wall_s_min"]


def test_spans_file_gives_the_reported_self_times(tmp_path):
    spans_path = tmp_path / "pass.spans"
    result = run.run_child({"root": str(run.ROOT), "items": _small_items(),
                            "trace": True, "spans_path": str(spans_path)},
                           120)
    names, spans = tracer.read_spans(spans_path)
    assert len(spans) == result["spans"] > 0
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
            covered[parent] += end - start
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    for (name, start, end, _), cov in zip(spans, covered):
        self_s[name] += end - start - cov
        calls[name] += 1
    for name in names:
        assert calls[name] == result["layers"][name + ".calls"]
        assert abs(self_s[name] - result["layers"][name + ".self_s"]) < 1e-6


def test_tail_point_leaves_ten_samples_beyond():
    for n in (57, 115, 2882):
        idx, pct = run.tail_point(n)
        assert n - 1 - idx == run.TAIL_BEYOND
        assert 0 < pct < 100


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), "--workload",
         "enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_orders_depend_only_on_seed_and_keep_chains():
    for name in workloads.POOLS:
        chains = run.load_reference(name)["chains"]
        a = workloads.order(name, 5, chains)
        assert a == workloads.order(name, 5, chains)
        assert a != workloads.order(name, 6, chains)
        assert sorted(a) == list(range(len(workloads.pool(name))))
        # the first item asking for a shared build is always the same one
        pos = {i: p for p, i in enumerate(a)}
        for chain in chains:
            assert [pos[i] for i in chain] == sorted(pos[i] for i in chain)
