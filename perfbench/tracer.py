"""Outside span tracing of cmpplab's layers.

The tracer wraps the public functions of each layer from outside the
package: it rebinds every module-level name (and class attribute) in
``cmpplab.*`` that refers to a wrapped function, so calls made through
``from .x import f`` bindings are caught as well.  Nothing under ``src/``
is edited.

Each call becomes a span ``(name, start, end, parent)``.  Spans are kept
in memory in flat arrays and written out by :meth:`Tracer.write` when the
pass ends.  A span's self time is its duration minus the time its child
spans cover; a layer's inclusive time ``s`` counts only its outermost
calls, so a recursive layer is not counted twice.

Besides spans the tracer keeps the counts the layers do work by:

* ``series.mul.coeff_products``: the sum of |a|*|b| (term counts) over
  the operands of every multiplication;
* ``cmpp.gen_fun.partitions``: the sum of the coefficients of every
  series ``gen_fun`` builds afresh, i.e. the admissible partitions it
  counted;
* ``cmpp.gen_fun.cache_hits``: calls that return an object already
  returned earlier.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, attribute, span name, is_builder).  An attribute "Cls.meth"
# names a method.  Builders return series whose bytes the exact-output
# gate records per distinct call.
LAYERS: tuple[tuple[str, str, str, bool], ...] = (
    ("series", "QSeries.__mul__", "series.mul", False),
    ("series", "QSeries.__add__", "series.add", False),
    ("series", "QSeries.invert", "series.invert", False),
    ("series", "QSeries.substitute", "series.substitute", False),
    ("series", "QSeries.truncate", "series.truncate", False),
    ("series", "QSeries.compare", "series.compare", False),
    ("series", "QSeries.dump_tsv", "series.dump_tsv", False),
    ("series", "poch", "series.poch", False),
    ("cmpp", "gen_fun", "cmpp.gen_fun", True),
    ("cmpp", "gordon_series", "cmpp.gordon_series", True),
    ("products", "theta_q", "products.theta_q", True),
    ("products", "expand", "products.expand", True),
    ("products", "char_product", "products.char_product", True),
    ("products", "c_n0_two_variable", "products.c_n0_two_variable", True),
    ("hall_littlewood", "hl_chain_sum", "hall_littlewood.hl_chain_sum",
     True),
    ("hall_littlewood", "hl_weighted_chain",
     "hall_littlewood.hl_weighted_chain", True),
    ("hall_littlewood", "hl_inf_spec", "hall_littlewood.hl_inf_spec", True),
    ("hall_littlewood", "prop_gow_sum", "hall_littlewood.prop_gow_sum",
     True),
    ("hall_littlewood", "hl_sum_over_bounded",
     "hall_littlewood.hl_sum_over_bounded", True),
    ("hall_littlewood", "hl_symmetrization",
     "hall_littlewood.hl_symmetrization", True),
    ("hall_littlewood", "hl_ls_2r1s", "hall_littlewood.hl_ls_2r1s", True),
    ("hall_littlewood", "hl_principal_finite",
     "hall_littlewood.hl_principal_finite", True),
    ("multisums", "f_sum", "multisums.f_sum", True),
    ("multisums", "ag_sum", "multisums.ag_sum", True),
    ("multisums", "shun_sum", "multisums.shun_sum", True),
    ("multisums", "shun2_sum", "multisums.shun2_sum", True),
    ("multisums", "wz_sum", "multisums.wz_sum", True),
    ("multisums", "s_series", "multisums.s_series", True),
    ("multisums", "atomic_residual", "multisums.atomic_residual", True),
    ("macdonald", "pi_product", "macdonald.pi_product", True),
    ("macdonald", "macdonald_sum", "macdonald.macdonald_sum", True),
    ("macdonald", "specialized_character_sum",
     "macdonald.specialized_character_sum", True),
    ("funceq", "_series", "funceq.series", True),
    ("funceq", "catalog", "funceq.catalog", False),
    ("funceq", "residual", "funceq.residual", False),
    ("cli", "run_check", "cli.run_check", False),
    ("cli", "parse_series", "cli.parse_series", False),
    ("cli", "VerificationReport.to_json", "cli.to_json", False),
)


# Hex digits kept of a builder output's sha256: plenty to notice a change,
# and it keeps the reference of thousands of builder calls small.
DIGEST_HEX = 16


def rebind(modname: str, attr: str, wrap) -> None:
    """Replace ``cmpplab.<modname>.<attr>`` (``attr`` may be ``Cls.meth``)
    by ``wrap(original)`` everywhere cmpplab refers to it: the class
    attribute of a method, or every module-level name in ``cmpplab.*``
    bound to the function."""
    owner = importlib.import_module("cmpplab." + modname)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    replacement = wrap(original)
    if isinstance(owner, type):
        setattr(owner, name, replacement)
        return
    for mname, mod in list(sys.modules.items()):
        if mname == "cmpplab" or mname.startswith("cmpplab."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


def tsv_digest(value, dump) -> str:
    """sha256 of a builder's output as TSV bytes."""
    return hashlib.sha256(dump(value).encode()).hexdigest()


class Tracer:
    """Span recorder for one pass; create it after importing cmpplab."""

    def __init__(self):
        self.names: list[str] = [name for _, _, name, _ in LAYERS]
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.stack: list[int] = [-1]
        self.inclusive = [0.0] * len(self.names)
        self.counts = {"series.mul.coeff_products": 0,
                       "cmpp.gen_fun.cache_hits": 0}
        self.calls: list[tuple[int, tuple, dict, object]] = []  # builders
        self._returned: dict[int, object] = {}  # id -> gen_fun result
        self._dump_tsv = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from cmpplab.series import QSeries
        self._dump_tsv = QSeries.dump_tsv
        for idx, (mod, attr, name, builder) in enumerate(LAYERS):
            rebind(mod, attr, lambda fn, i=idx, n=name, b=builder:
                   self._wrap(i, n, fn, b))

    def _wrap(self, idx: int, name: str, fn, builder: bool):
        """The span-recording replacement of layer ``idx``."""
        starts, ends, name_ids, parents = (self.starts, self.ends,
                                           self.name_ids, self.parents)
        stack, inclusive, counts = self.stack, self.inclusive, self.counts
        calls, returned = self.calls, self._returned
        depth = [0]

        def span(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1])
            name_ids.append(idx)
            ends.append(0.0)
            stack.append(sid)
            depth[0] += 1
            t0 = perf_counter()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[sid] = t1
                stack.pop()
                depth[0] -= 1
                if not depth[0]:
                    inclusive[idx] += t1 - t0

        if name == "series.mul":
            def wrapper(a, b):
                if hasattr(b, "terms"):
                    counts["series.mul.coeff_products"] += \
                        len(a.terms) * len(b.terms)
                return span(a, b)
        elif name == "cmpp.gen_fun":
            def wrapper(*args, **kwargs):
                out = span(*args, **kwargs)
                if id(out) in returned:
                    counts["cmpp.gen_fun.cache_hits"] += 1
                else:
                    returned[id(out)] = out
                calls.append((idx, args, kwargs, out))
                return out
        elif builder:
            def wrapper(*args, **kwargs):
                out = span(*args, **kwargs)
                calls.append((idx, args, kwargs, out))
                return out
        else:
            wrapper = span
        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.starts)

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``<name>.s`` and ``<name>.self_s`` per layer,
        plus the work counts."""
        n = len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = calls[nid]
            out[name + ".s"] = self.inclusive[nid]
            out[name + ".self_s"] = self_s[nid]
        out.update(self.counts)
        out["cmpp.gen_fun.partitions"] = sum(
            sum(s.terms.values()) for s in self._returned.values())
        return out

    def output_digests(self) -> dict[str, str]:
        """sha256 prefix of every distinct builder call's result."""
        first: dict[str, object] = {}
        for idx, args, kwargs, out in self.calls:
            key = "%s%r" % (self.names[idx],
                            args + tuple(sorted(kwargs.items())))
            first.setdefault(key, out)
        return {key: tsv_digest(val, self._dump_tsv)[:DIGEST_HEX]
                for key, val in first.items()}

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then the raw arrays
        (starts, ends as float64; name ids, parents as int32)."""
        header = {"names": self.names, "count": len(self.starts),
                  "arrays": ["starts:d", "ends:d", "name_ids:i",
                             "parents:i"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.starts, self.ends, self.name_ids,
                        self.parents):
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], list[tuple[str, float, float, int]]]:
    """Read a file written by :meth:`Tracer.write` back as
    ``(names, [(name, start, end, parent), ...])``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = header["names"]
    starts, ends, name_ids, parents = arrays
    return names, [(names[name_ids[i]], starts[i], ends[i], parents[i])
                   for i in range(n)]
