"""The names the benchmark in perfbench/ binds in cmpplab still exist, and
every top-level name in src/cmpplab is reached from the CLI, the catalog or
one of those names.

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
SRC = Path(__file__).resolve().parents[1] / "src" / "cmpplab"


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


def _is_registered(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_register"
               for d in node.decorator_list)


def test_every_top_level_name_is_reachable():
    # defs: (module, name) -> the statement defining it; alias: module ->
    # local name -> (module, name), name None for a module
    defs, alias, roots = {}, {}, [("cli", "main"), ("funceq", "_BUILDERS")]
    for path in SRC.glob("*.py"):
        mod = path.stem
        alias[mod] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    alias[mod][a.asname or a.name] = (
                        (a.name, None) if node.module is None
                        else (node.module, a.name))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                if _is_registered(node):
                    roots.append((mod, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for t in (node.targets if isinstance(node, ast.Assign)
                          else [node.target]):
                    defs[mod, t.id] = node
            elif (isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Call)):
                defs[mod, "<call %d>" % node.lineno] = node
                roots.append((mod, "<call %d>" % node.lineno))
    for filename, name in (("tracer.py", "LAYERS"),
                           ("child.py", "DICT_CACHES")):
        roots += [(modname, attr.split(".")[0])
                  for modname, attr, *_ in _literal(filename, name)]

    def refs(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield alias[mod].get(sub.id, (mod, sub.id))
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and alias[mod].get(sub.value.id, (0, 0))[1] is None):
                yield alias[mod][sub.value.id][0], sub.attr
            elif isinstance(sub, ast.ImportFrom) and sub.module:
                yield from ((sub.module, a.name) for a in sub.names)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                              str):
                # a builder named by "module.name", or a name that the
                # code looks up with getattr
                if sub.value.count(".") == 1:
                    yield tuple(sub.value.split("."))
                yield from ((m, n) for m, n in defs if n == sub.value)

    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            todo += refs(key[0], defs[key])
    unreached = sorted("%s.%s" % key for key in set(defs) - seen
                       if key[0] != "__init__")
    assert not unreached, unreached
