"""Record the exact-output reference of each workload.

    python3 perfbench/record_reference.py [workload ...]

Run from the root of a checkout of the commit whose outputs are the
reference.  Each workload's whole pool runs in pool order once untraced
and once traced.  The untraced pass gives every item's report JSON (or the
sha256 of its TSV) and the sharing chains: for every cache key several
items ask for, those items' pool indices.  The traced pass gives a sha256
prefix of every distinct series a layer builder returns.  The result goes
to ``perfbench/reference/<workload>.json.gz``, gzip-compressed JSON.
"""

from __future__ import annotations

import gzip
import json
import sys

import run
import workloads


def record(workload: str) -> dict:
    items = workloads.pool(workload)
    job = {"root": str(run.ROOT), "items": items}
    plain = run.run_child(dict(job, record_sharing=True), 600)
    traced = run.run_child(dict(job, trace=True), 600)
    ref_items = {}
    for item, (_, digest, err, proved_fail), (_, digest2, _, _) in zip(
            items, plain["items"], traced["items"]):
        key = workloads.item_key(item)
        if err is not None or proved_fail or digest != digest2:
            raise SystemExit("cannot record %s: %s" % (
                key, err or "proved check fails or output unstable"))
        ref_items[key] = digest
    return {"items": ref_items, "chains": plain["chains"],
            "digests": dict(sorted(traced["digests"].items()))}


def main(argv: list[str]) -> int:
    for workload in argv or sorted(workloads.POOLS):
        ref = record(workload)
        path = run.reference_path(workload)
        path.parent.mkdir(exist_ok=True)
        text = json.dumps(ref, indent=0, sort_keys=True) + "\n"
        path.write_bytes(gzip.compress(text.encode(), mtime=0))
        print("%s: %d items, %d builder outputs -> %s"
              % (workload, len(ref["items"]), len(ref["digests"]), path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
