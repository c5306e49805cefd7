"""The names the benchmark in perfbench/ binds in cmpplab still exist.

perfbench/tracer.py wraps the functions listed in LAYERS, perfbench/child.py
the caches listed in DICT_CACHES, and it reads funceq._series.cache_info().
The lists are read from the source text, so nothing there is imported or
run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name
                   for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError("%s not found in perfbench/%s" % (name, filename))


def _resolve(modname: str, attr: str):
    obj = importlib.import_module("cmpplab." + modname)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("filename, name", [("tracer.py", "LAYERS"),
                                            ("child.py", "DICT_CACHES")])
def test_bound_names_resolve(filename, name):
    entries = _literal(filename, name)
    assert entries
    for modname, attr, *_ in entries:
        assert callable(_resolve(modname, attr)), (modname, attr)


def test_series_resolver_reports_cache_info():
    assert hasattr(_resolve("funceq", "_series"), "cache_info")
