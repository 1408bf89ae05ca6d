"""The benchmark tracer's bindings still name code that exists.

``perfbench/layertrace.py`` wraps frobcalc functions and methods by name.
A module function that no longer resolves is silently skipped, so
deleting or renaming one would zero its per-layer metrics without any
failure.  A method is read as ``vars(cls)[meth]`` in ``Tracer._patch``,
so moving a traced method (``Field.mul`` to a subclass, say) raises
KeyError and crashes every traced run.
The tables are read from the file's source, which is neither imported
nor changed.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
TABLES = ("SPANS", "COUNTERS", "COUNTERS_INSIDE")
# deleted from linalg; the tracer's rewrite drops these spans
GONE = {("linalg", "rref"), ("linalg", "column_space_basis")}


def _tables():
    tree = ast.parse(LAYERTRACE.read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in TABLES}


def _resolves(mod, attr):
    # as the tracer looks them up: a method in its class's own namespace,
    # a function as a module attribute
    module = importlib.import_module(f"frobcalc.{mod}")
    if "." in attr:
        cls, meth = attr.split(".")
        return meth in vars(getattr(module, cls, object))
    return getattr(module, attr, None) is not None


def test_every_traced_name_resolves():
    tables = _tables()
    assert set(tables) == set(TABLES)
    bindings = [entry[:2] for name in TABLES for entry in tables[name]]
    assert len(bindings) > 40
    missing = {b for b in bindings if not _resolves(*b)}
    assert missing <= GONE, sorted(missing - GONE)
