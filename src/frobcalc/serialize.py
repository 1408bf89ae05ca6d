"""JSON descriptions of algebras, maps, groups, and crossed products.

All input documents are versioned with a mandatory ``"schema": 1`` field.
Scalars travel as strings: ``"-3/7"`` over the rationals, a residue like
``"4"`` over a prime field (reduced on parse), and comma-separated residue
coefficients like ``"1,0,2"`` over an extension field.

Indices and sizes are JSON integers; ``true`` and ``false`` are not,
although Python reads them as ints.  Schema errors carry a
JSON-pointer-style path to the offending node.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import Algebra, LinearMap
from .errors import MalformedInput, RoleViolation
from .fields import Field
from .groups import GroupData
from .linalg import Matrix

SCHEMA_VERSION = 1
# the largest input file read, in bytes: 2**20 structure constants, the
# default budget, take about 24 MiB written as [i, j, k, "c"]
MAX_INPUT_BYTES = 2**25


def _fail(path, message):
    raise MalformedInput(f"{path}: {message}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _expect(doc, key, path, kind=None):
    if key not in doc:
        _fail(f"{path}/{key}", "missing required field")
    val = doc[key]
    if kind is not None and not (_is_int(val) if kind is int else isinstance(val, kind)):
        _fail(f"{path}/{key}", f"expected {kind.__name__}")
    return val


def _check_schema(doc, path=""):
    if not isinstance(doc, dict):
        _fail(path or "/", "expected a JSON object")
    if not _is_int(doc.get("schema")) or doc["schema"] != SCHEMA_VERSION:
        _fail(f"{path}/schema", f"must be {SCHEMA_VERSION}")


def field_from_doc(doc, path="/field"):
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    kind = _expect(doc, "kind", path, str)
    try:
        if kind == "Rationals":
            return Field.rationals()
        if kind == "PrimeField":
            return Field.prime(_expect(doc, "p", path, int))
        if kind == "ExtensionField":
            return Field.extension(_expect(doc, "p", path, int),
                                   _expect(doc, "min_poly", path, list))
    except MalformedInput as exc:
        _fail(path, str(exc))
    _fail(f"{path}/kind", f"unknown kind {kind!r}")


def algebra_from_doc(doc, path=""):
    """Parse and constructor-validate an algebra document.

    Returns ``(algebra, gram_or_None)``.
    """
    _check_schema(doc, path)
    field = field_from_doc(_expect(doc, "field", path, dict), f"{path}/field")
    dim = _expect(doc, "dim", path, int)
    names = _expect(doc, "basis_names", path, list)
    unit_doc = _expect(doc, "unit", path, list)
    structure_doc = _expect(doc, "structure", path, list)
    if len(names) != dim:
        _fail(f"{path}/basis_names", f"expected {dim} names")
    if len(unit_doc) != dim:
        _fail(f"{path}/unit", f"expected {dim} coefficients")
    unit = [_scalar(field, v, f"{path}/unit/{i}") for i, v in enumerate(unit_doc)]
    triples = []
    for idx, item in enumerate(structure_doc):
        here = f"{path}/structure/{idx}"
        if not isinstance(item, list) or len(item) != 4:
            _fail(here, "expected [i, j, k, scalar]")
        i, j, k, c = item
        for nm, v in (("i", i), ("j", j), ("k", k)):
            if not _is_int(v) or not (0 <= v < dim):
                _fail(f"{here}/{nm}", "index out of range")
        triples.append((i, j, k, _scalar(field, c, f"{here}/3")))
    try:
        algebra = Algebra(field, dim, names, triples, unit)
    except MalformedInput as exc:
        _fail(path or "/", str(exc))
    gram = None
    if "gram" in doc:
        gram = matrix_from_doc(field, doc["gram"], dim, dim, f"{path}/gram")
    return algebra, gram


def _scalar(field, v, path):
    try:
        return field.parse(v)
    except MalformedInput as exc:
        _fail(path, str(exc))


def matrix_from_doc(field, doc, rows, cols, path):
    if not isinstance(doc, list) or len(doc) != rows:
        _fail(path, f"expected {rows} rows")
    data = []
    for i, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"{path}/{i}", f"expected {cols} entries")
        data.append([_scalar(field, v, f"{path}/{i}/{j}")
                     for j, v in enumerate(row)])
    return Matrix(field, data, _raw=True)


def group_from_doc(doc, path=""):
    if not isinstance(doc, dict):
        _fail(path or "/", "expected an object")
    table = _expect(doc, "table", path, list)
    for g, row in enumerate(table):
        if not isinstance(row, list):
            _fail(f"{path}/table/{g}", "expected a list of element indices")
        for h, v in enumerate(row):
            if not _is_int(v):
                _fail(f"{path}/table/{g}/{h}", "expected an element index")
    try:
        return GroupData(table)
    except MalformedInput as exc:
        _fail(f"{path}/table", str(exc))


def crossed_from_doc(doc, path=""):
    """Parse a crossed-product document: algebra+gram, group, action, alpha."""
    from .crossed import GroupAction, TwoCocycle
    from .frobenius import make_frobenius
    _check_schema(doc, path)
    algebra, gram = algebra_from_doc(_expect(doc, "algebra", path, dict),
                                     f"{path}/algebra")
    if gram is None:
        _fail(f"{path}/algebra/gram", "crossed products need the base form")
    group = group_from_doc(_expect(doc, "group", path, dict), f"{path}/group")
    action_doc = _expect(doc, "action", path, list)
    if len(action_doc) != group.order:
        _fail(f"{path}/action", "need one matrix per group element")
    maps = []
    for g, mdoc in enumerate(action_doc):
        mat = matrix_from_doc(algebra.field, mdoc, algebra.dim, algebra.dim,
                              f"{path}/action/{g}")
        try:
            maps.append(LinearMap(algebra, mat, "endomorphism"))
        except RoleViolation as exc:
            _fail(f"{path}/action/{g}", str(exc))
    table = matrix_from_doc(algebra.field, _expect(doc, "alpha", path, list),
                            group.order, group.order, f"{path}/alpha").data
    action = GroupAction(group, algebra, maps)
    alpha = TwoCocycle(group, algebra.field, table)
    F = make_frobenius(algebra, gram)
    return F, group, action, alpha


def read_json(path):
    """The JSON document in the file at ``path``.  A file that cannot be
    read, is longer than MAX_INPUT_BYTES, is not UTF-8 or not JSON, nests
    too deep for the decoder or holds an integer too long to convert
    raises MalformedInput."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_INPUT_BYTES + 1)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    if len(data) > MAX_INPUT_BYTES:
        raise MalformedInput(f"{path} is longer than {MAX_INPUT_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is one
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


# --- writing ---------------------------------------------------------------

def matrix_to_doc(m: Matrix):
    return [[m.field.format(v) for v in row] for row in m.data]


def algebra_to_doc(algebra: Algebra, gram: Matrix | None = None):
    f = algebra.field
    doc = {
        "schema": SCHEMA_VERSION,
        "field": f.describe(),
        "dim": algebra.dim,
        "basis_names": list(algebra.basis_names),
        "unit": [f.format(c) for c in algebra.unit],
        "structure": sorted(
            [i, j, k, f.format(c)]
            for (i, j), terms in algebra.structure.items()
            for (k, c) in terms),
    }
    if gram is not None:
        doc["gram"] = matrix_to_doc(gram)
    return doc


def canonical_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(docs):
    """Stable hex digest of one or more JSON documents."""
    h = hashlib.sha256()
    for doc in docs:
        h.update(canonical_dumps(doc).encode())
        h.update(b"\x00")
    return h.hexdigest()
