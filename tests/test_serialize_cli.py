"""JSON schemas, round-trips, and the command-line surface."""

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from frobcalc import serialize
from frobcalc.algebra import ROLE_ENDOMORPHISM, LinearMap, inner_automorphism
from frobcalc.cli import parse_field_flag, run
from frobcalc.errors import MalformedInput
from frobcalc.fields import Field
from frobcalc.gallery import (dual_numbers, exterior, matrix_algebra, qci,
                              s3_group_algebra, trivial_extension)
from frobcalc.groups import cyclic_group

Q = Field.rationals()


def qci_doc():
    g = qci(2)
    return serialize.algebra_to_doc(g.algebra, g.gram)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, json.loads(buf.getvalue())


def test_algebra_roundtrip():
    g = qci(2)
    doc = serialize.algebra_to_doc(g.algebra, g.gram)
    algebra, gram = serialize.algebra_from_doc(doc)
    assert algebra == g.algebra
    assert gram == g.gram
    assert serialize.algebra_to_doc(algebra, gram) == doc


def test_schema_violations_carry_paths():
    doc = qci_doc()
    doc.pop("schema")
    with pytest.raises(MalformedInput) as err:
        serialize.algebra_from_doc(doc)
    assert "/schema" in str(err.value)
    doc = qci_doc()
    doc["structure"][0] = [0, 0, 9, "1"]
    with pytest.raises(MalformedInput) as err:
        serialize.algebra_from_doc(doc)
    assert "/structure/0" in str(err.value)
    doc = qci_doc()
    doc["unit"][0] = "x"
    with pytest.raises(MalformedInput) as err:
        serialize.algebra_from_doc(doc)
    assert "/unit/0" in str(err.value)


def test_inconsistent_table_rejected_with_witness():
    doc = {
        "schema": 1,
        "field": {"kind": "Rationals"},
        "dim": 2,
        "basis_names": ["1", "t"],
        "unit": ["1", "0"],
        # e0 declared unit but e0·e1 = 0: the unit law fails
        "structure": [[0, 0, 0, "1"], [1, 0, 1, "1"]],
    }
    with pytest.raises(MalformedInput) as err:
        serialize.algebra_from_doc(doc)
    assert "unit law" in str(err.value)


def test_finite_field_residues_normalize():
    doc = {
        "schema": 1,
        "field": {"kind": "PrimeField", "p": 3},
        "dim": 2,
        "basis_names": ["1", "x"],
        "unit": ["1", "0"],
        "structure": [[0, 0, 0, "1"], [0, 1, 1, "4"], [1, 0, 1, "1"]],
    }
    algebra, _ = serialize.algebra_from_doc(doc)
    # the residue "4" reduces to 1 mod 3
    assert algebra.structure[(0, 1)] == ((1, 1),)


def test_field_flag_parsing():
    assert parse_field_flag("Q").kind == "Rationals"
    assert parse_field_flag("F7").p == 7
    ext = parse_field_flag("F2[a]/1,1,1")
    assert ext.kind == "ExtensionField" and ext.degree == 2
    for bad in ("R", "F", "Fx", "F3[a]/x", "F3[a]/"):
        with pytest.raises(MalformedInput):
            parse_field_flag(bad)


def test_cli_nakayama_symmetric(tmp_path):
    # a symmetric form: sigma must come back as the identity matrix
    from frobcalc.gallery import matrix_algebra
    m2 = matrix_algebra(2)
    path = write(tmp_path, "m2.json",
                 serialize.algebra_to_doc(m2.algebra, m2.gram))
    code, rep = run_json(["nakayama", "--file", path])
    assert code == 0
    n = m2.algebra.dim
    ident = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    assert rep["data"]["sigma"] == ident
    assert rep["data"]["symmetric"] == "yes"


def test_cli_jacobian_and_role_failure(tmp_path):
    g = qci(2)
    apath = write(tmp_path, "a.json", qci_doc())
    u = g.alpha(2, 3, 0, 0)
    upath = write(tmp_path, "u.json", serialize.map_to_doc(u))
    code, rep = run_json(["jacobian", "--file", apath, "--map", upath])
    assert code == 0
    assert rep["data"]["jacobian_coeffs"] == ["6", "0", "0", "0"]
    # a non-endomorphism is rejected with a failing pair and exit 1
    bad = serialize.map_to_doc(u)
    bad["matrix"][1][1] = "7"
    bpath = write(tmp_path, "bad.json", bad)
    code, rep = run_json(["jacobian", "--file", apath, "--map", bpath])
    assert code == 1
    fails = [c for c in rep["checks"] if c["status"] == "fail"]
    assert fails and "failing_pair" in fails[0]["witness"]


def test_cli_divergence(tmp_path):
    g = qci(2)
    apath = write(tmp_path, "a.json", qci_doc())
    dpath = write(tmp_path, "d.json", serialize.map_to_doc(g.delta(1, 2, 0, 4)))
    code, rep = run_json(["divergence", "--file", apath, "--map", dpath])
    assert code == 0
    assert rep["data"]["divergence_coeffs"] == ["3", "2", "0", "0"]


def test_cli_gallery_report_deterministic():
    out1, out2 = io.StringIO(), io.StringIO()
    run(["gallery", "qci", "--q", "2", "--seed", "11"], out1)
    run(["gallery", "qci", "--q", "2", "--seed", "11"], out2)
    r1, r2 = json.loads(out1.getvalue()), json.loads(out2.getvalue())
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert r1 == r2
    out3 = io.StringIO()
    run(["gallery", "qci", "--q", "2", "--seed", "12"], out3)
    assert json.loads(out3.getvalue())["seed"] == 12


def test_cli_exit_codes(tmp_path):
    assert run(["unknown-subcommand"], io.StringIO()) == 3
    assert run(["gallery"], io.StringIO()) == 3
    for argv in (["exterior", "--n", "0"], ["matrix", "--m", "0"],
                 ["cyclic", "--p", "1"], ["exterior", "--n", "-2"]):
        assert run(["gallery"] + argv, io.StringIO()) == 3
    for command in ("hochschild", "homology", "verify-main-theorem"):
        argv = [command, "--file", "unused.json", "--max-degree", "-1"]
        assert run(argv, io.StringIO()) == 3
    missing = str(tmp_path / "missing.json")
    code, rep = run_json(["check-algebra", "--file", missing])
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = run_json(["check-algebra", "--file", str(bad)])
    assert code == 1
    apath = write(tmp_path, "a.json", qci_doc())
    for budget in ("0", "-5"):
        argv = ["hochschild", "--file", apath, "--budget", budget]
        assert run(argv, io.StringIO()) == 3
    # a report cut short by the budget still digests the input it read
    code, full = run_json(["hochschild", "--file", apath])
    assert code == 0 and full["input_digest"]
    code, rep = run_json(["hochschild", "--file", apath, "--budget", "16"])
    assert code == 2 and rep["checks"][-1]["id"] == "budget"
    assert rep["input_digest"] == full["input_digest"]
    # running out of budget at p=3 keeps the checks for p=1 and p=2
    argv = ["verify-main-theorem", "--file", apath, "--max-degree", "3",
            "--budget", "256"]
    code, rep = run_json(argv)
    assert code == 2
    assert [(c["id"], c["lemma"], c["status"]) for c in rep["checks"]] == [
        ("main-theorem/p=1", "main", "pass"), ("main-theorem/p=2", "hh2", "pass"),
        ("budget", "plumbing", "inconclusive")]
    assert "budget 256" in rep["checks"][-1]["witness"]["error"]
    assert run(argv + ["--allow-inconclusive"], io.StringIO()) == 0


def test_input_files_are_read_up_to_a_limit(tmp_path, monkeypatch):
    # a file one byte past the limit is refused unparsed, and an endless
    # one is read no further than the limit
    text = json.dumps(qci_doc()).encode()
    path = tmp_path / "a.json"
    path.write_bytes(text)
    monkeypatch.setattr(serialize, "MAX_INPUT_BYTES", len(text))
    assert serialize.read_json(str(path)) == qci_doc()
    monkeypatch.setattr(serialize, "MAX_INPUT_BYTES", len(text) - 1)
    for name in (str(path), "/dev/zero"):
        with pytest.raises(MalformedInput, match="longer than"):
            serialize.read_json(name)
        code, rep = run_json(["check-algebra", "--file", name])
        assert code == 1 and [c["id"] for c in rep["checks"]] == ["input/schema"]


def test_cli_crossed_product(tmp_path):
    from frobcalc.linalg import Matrix
    doc = crossed_doc()
    path = write(tmp_path, "cp.json", doc)
    code, rep = run_json(["crossed-product", "--file", path])
    assert code == 0
    assert rep["data"]["dim"] == 4
    ids = {c["id"]: c["status"] for c in rep["checks"]}
    assert ids["crossed/nakayama-formula"] == "pass"
    # an action matrix that is not an endomorphism is bad input
    doc["action"][1] = serialize.matrix_to_doc(Matrix.identity(Q, 2).scale(2))
    code, rep = run_json(["crossed-product", "--file",
                          write(tmp_path, "bad.json", doc)])
    assert code == 1
    [check] = rep["checks"]
    assert check["id"] == "input/schema"
    assert check["witness"]["error"].startswith("/action/1: ")


def test_cli_verify_main_theorem(tmp_path):
    apath = write(tmp_path, "a.json", qci_doc())
    code, rep = run_json(["verify-main-theorem", "--file", apath,
                          "--max-degree", "2"])
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_cli_liouville(tmp_path):
    g = qci(2)
    apath = write(tmp_path, "a.json", qci_doc())
    dpath = write(tmp_path, "d.json", serialize.map_to_doc(g.delta(0, 0, 1, 0)))
    code, rep = run_json(["liouville", "--file", apath, "--map", dpath])
    assert code == 0
    assert rep["data"]["polynomial"] == ["1", "y"]


def test_report_lemma_tags_are_registered():
    from frobcalc.verify import LEMMAS
    code, rep = run_json(["gallery", "exterior", "--n", "2", "--verify-all"])
    assert code == 0
    for c in rep["checks"]:
        assert c["lemma"] in LEMMAS


def test_extension_field_roundtrip():
    from frobcalc.algebra import Algebra
    F4 = Field.extension(2, [1, 1, 1])
    w = F4.coerce([0, 1])
    A = Algebra(F4, 2, ["1", "x"],
                [(0, 0, 0, (1, 0)), (0, 1, 1, (1, 0)), (1, 0, 1, (1, 0)),
                 (1, 1, 1, w)], [(1, 0), (0, 0)])
    doc = serialize.algebra_to_doc(A)
    back, _ = serialize.algebra_from_doc(doc)
    assert back == A
    assert doc["structure"][-1][-1] == "0,1"


def test_cli_field_flag():
    code, rep = run_json(["gallery", "cyclic", "--p", "3", "--field", "F3"])
    assert code == 0
    assert rep["data"]["dim"] == 3
    code, rep = run_json(["gallery", "exterior", "--n", "2", "--field", "F5"])
    assert code == 0
    # a malformed field is one input/schema check in a JSON report, exit 1
    code, rep = run_json(["gallery", "exterior", "--field", "F3[a]/x"])
    assert code == 1
    assert rep["checks"] == [{"id": "input/schema", "lemma": "plumbing",
                              "status": "fail",
                              "witness": {"error": "cannot parse field 'F3[a]/x'"}}]


def test_cli_qci_closed_forms_skip_vanishing_ab():
    # alpha(2,3,1,5) needs a·b = 6 nonzero, which fails in characteristic 3
    for argv in (["--field", "F3"], ["--q", "0,1", "--field", "F3[a]/1,0,1"]):
        code, rep = run_json(["gallery", "qci"] + argv)
        assert code == 0
        records = rep["data"]["expectations"]
        assert [r["constructor"] for r in records] == [
            "alpha(1,1,1,0)", "delta(1,1,1,0)", "alpha(1,2,0,1)", "delta(1,2,0,1)"]
        assert all(r["matches"] for r in records)
    code, rep = run_json(["gallery", "qci", "--field", "F5"])
    assert code == 0 and len(rep["data"]["expectations"]) == 6


def test_cli_cyclic_takes_its_four_generators_lazily():
    # (p−1)·p^(p−2) = 10·11^9 radical generators at p = 11: only four are built
    code, rep = run_json(["gallery", "cyclic", "--p", "11"])
    assert code == 0
    records = rep["data"]["expectations"]
    assert len(records) == 4 and all(r["matches"] for r in records)


def test_booleans_are_not_scalars_in_input_files(tmp_path):
    doc = {"schema": 1, "field": {"kind": "Rationals"}, "dim": 2,
           "basis_names": ["1", "t"], "unit": [True, "0"],
           "structure": [[0, 0, 0, True], [0, 1, 1, "1"], [1, 0, 1, "1"]]}
    code, rep = run_json(["check-algebra", "--file", write(tmp_path, "b.json", doc)])
    assert code == 1
    [check] = rep["checks"]
    assert check["id"] == "input/schema"
    assert check["witness"]["error"].startswith("/unit/0: ")
    # nor indices or sizes: a true dim, a schema version, structure indices
    # and group table entries
    k1 = {"schema": 1, "field": {"kind": "Rationals"}, "dim": 1,
          "basis_names": ["1"], "unit": ["1"], "structure": [[0, 0, 0, "1"]]}
    dual = {"schema": 1, "field": {"kind": "Rationals"}, "dim": 2,
            "basis_names": ["1", "t"], "unit": ["1", "0"],
            "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}
    bad_triple = [[0, 0, 0, "1"], [False, True, True, "1"], [1, 0, 1, "1"]]
    for base, key, value, path in ((k1, "dim", True, "/dim"),
                                   (k1, "schema", True, "/schema"),
                                   (dual, "structure", bad_triple, "/structure/1/i")):
        code, rep = run_json(["check-algebra", "--file",
                              write(tmp_path, "i.json", {**base, key: value})])
        assert code == 1
        [check] = rep["checks"]
        assert check["id"] == "input/schema"
        assert check["witness"]["error"].startswith(f"{path}: ")
    with pytest.raises(MalformedInput, match="^/table/0/0: "):
        serialize.group_from_doc({"table": [[False, True], [True, False]]})
    # nor are they min_poly coefficients: [true, 0, true] is not a^2 + 1
    with pytest.raises(MalformedInput):
        serialize.field_from_doc({"kind": "ExtensionField", "p": 3,
                                  "min_poly": [True, 0, True]})


def _crossed_with(key, value):
    """``crossed_doc`` with its alpha or its group table replaced."""
    doc = crossed_doc()
    if key == "alpha":
        doc["alpha"] = value
    else:
        doc["group"] = {"table": value}
    return doc


# crossed-product documents with a row that is not a list or an entry that
# is not an index, and the input/schema path each is refused at
BAD_CROSSED_ROWS = {
    "alpha-int-rows": (("alpha", [5, 5]), "/alpha/0"),
    "alpha-string-rows": (("alpha", ["11", "11"]), "/alpha/0"),
    "table-int-rows": (("table", [0, 1]), "/group/table/0"),
    "table-string-entries": (("table", [["0", "1"], ["1", "0"]]), "/group/table/0/0"),
}


def test_crossed_product_rows_are_validated(tmp_path):
    for name, ((key, value), path) in BAD_CROSSED_ROWS.items():
        code, rep = run_json(["crossed-product", "--file",
                              write(tmp_path, f"{name}.json", _crossed_with(key, value))])
        assert code == 1, name
        [check] = rep["checks"]
        assert check["id"] == "input/schema"
        assert check["witness"]["error"].startswith(f"{path}: "), name


def _report(argv):
    """Exit code and report of one request, without ``timing_ms``."""
    buf = io.StringIO()
    code = run(argv, buf)
    text = buf.getvalue()
    report = json.loads(text) if text else None
    if report is not None:
        report.pop("timing_ms")
    return code, report


def test_cli_parser_reuse_leaks_no_state(tmp_path):
    # one parser serves every request of a process; each request in a run of
    # mixed ones must report exactly what it reports made alone (on a parser
    # built afresh), flags and defaults included
    from frobcalc import cli
    apath = write(tmp_path, "a.json", qci_doc())
    requests = [
        ["gallery", "exterior", "--n", "3", "--budget", "10", "--allow-inconclusive"],
        ["nakayama", "--file", apath, "--seed", "7"],
        ["gallery", "exterior", "--n", "0"],
        ["gallery", "exterior", "--n", "3"],
        ["gallery", "exterior", "--n", "3", "--budget", "10"],
        ["hochschild", "--file", apath, "--budget", "16", "--seed", "3"],
        ["nakayama", "--file", apath],
        ["no-such-command", "--seed", "5"],
        ["check-algebra", "--file", apath],
        ["gallery", "qci", "--verify-all", "--seed", "9"],
        ["gallery", "qci"],
    ]
    cli._build_parser.cache_clear()
    in_sequence = [_report(argv) for argv in requests]
    assert cli._build_parser.cache_info().misses == 1
    alone = []
    for argv in requests:
        cli._build_parser.cache_clear()
        alone.append(_report(argv))
    assert in_sequence == alone
    assert [code for code, _ in in_sequence] == [0, 0, 3, 0, 2, 2, 0, 3, 0, 0, 0]
    assert [rep["seed"] for _, rep in in_sequence if rep] == [
        42, 7, 42, 42, 3, 42, 42, 9, 42]


@pytest.mark.parametrize("argv", [["exterior", "--n", "14"], ["matrix", "--m", "40"],
                                  ["cyclic", "--p", "1009"], ["cyclic", "--p", "211"],
                                  ["exterior", "--n", "1000000"]])
def test_cli_gallery_over_budget_is_inconclusive(argv):
    # charged before anything is built: these sizes never finished before
    code, rep = run_json(["gallery"] + argv)
    assert code == 2
    assert rep["counts"] == {"pass": 0, "fail": 0, "inconclusive": 1}
    [check] = rep["checks"]
    assert (check["id"], check["status"]) == ("budget", "inconclusive")
    assert "budget 1048576" in check["witness"]["error"]


def _square_zero_doc(dim):
    """k ⊕ V over Q with V² = 0 and dim V = dim − 1: dim Der = (dim − 1)²,
    so the derivations report lists (dim − 1)²·dim² entries."""
    structure = [[0, j, j, "1"] for j in range(dim)] + [[j, 0, j, "1"]
                                                       for j in range(1, dim)]
    return {"schema": 1, "field": Q.describe(), "dim": dim,
            "basis_names": [f"e{j}" for j in range(dim)],
            "unit": ["1"] + ["0"] * (dim - 1), "structure": structure}


def test_derivations_report_is_charged_before_it_is_built(tmp_path):
    # 31²·32² = 984 064 entries fit the default budget, 32²·33² do not: the
    # request ends on the budget check before any matrix is built
    path = write(tmp_path, "a.json", _square_zero_doc(32))
    code, rep = run_json(["derivations", "--file", path])
    assert code == 0 and rep["data"]["derivation_space_dim"] == 31 ** 2
    assert len(rep["data"]["derivations"]) == 31 ** 2
    path = write(tmp_path, "b.json", _square_zero_doc(33))
    code, rep = run_json(["derivations", "--file", path])
    assert code == 2
    assert [(c["id"], c["status"]) for c in rep["checks"]] == [
        ("budget", "inconclusive")]
    assert rep["checks"][0]["witness"]["error"] == (
        "1115136 derivation entries, budget 1048576")
    assert rep["data"] == {"derivation_space_dim": 32 ** 2}


def test_gallery_charge_is_the_built_size():
    # the charge is structure constants + dim², counted before building;
    # cyclic(p) charges its constants p times, for its associativity check
    from frobcalc.errors import BudgetExceeded
    from frobcalc.gallery import cyclic, matrix_algebra
    for build, size, reads in ((exterior, 3, 1), (exterior, 4, 1),
                               (matrix_algebra, 3, 1), (cyclic, 3, 3), (cyclic, 5, 5)):
        A = build(size).algebra
        need = reads * sum(len(terms) for terms in A.structure.values()) + A.dim ** 2
        assert build(size, budget=need).algebra == A
        with pytest.raises(BudgetExceeded):
            build(size, budget=need - 1)
    code, rep = run_json(["gallery", "exterior", "--n", "3", "--budget", str(27 + 64)])
    assert code == 0


def test_cli_inconclusive_exit_code(tmp_path):
    # the symmetry question on the 16-dimensional exterior algebra has a
    # solution space too large for the exact grid, so sampling falls back
    # to the reserved inconclusive verdict (exit 2; 0 with the flag)
    from frobcalc.gallery import exterior
    e4 = exterior(4)
    path = write(tmp_path, "e4.json",
                 serialize.algebra_to_doc(e4.algebra, e4.gram))
    code, rep = run_json(["nakayama", "--file", path])
    assert code == 2
    assert rep["data"]["symmetric"] == "inconclusive"
    assert run(["nakayama", "--file", path, "--allow-inconclusive"],
               io.StringIO()) == 0


def test_constructor_fuzz_no_crashes():
    # random small structure tables either validate or raise MalformedInput;
    # nothing else may escape
    from frobcalc.algebra import Algebra
    from frobcalc.rng import SplitMix64
    rng = SplitMix64(99)
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(300):
        dim = rng.randint(1, 3)
        names = [f"b{i}" for i in range(dim)]
        triples = []
        for _ in range(rng.randint(0, 6)):
            triples.append((rng.randrange(dim), rng.randrange(dim),
                            rng.randrange(dim), rng.small_int(2)))
        unit = [rng.small_int(1) for _ in range(dim)]
        try:
            Algebra(Q, dim, names, triples, unit)
            outcomes["ok"] += 1
        except MalformedInput:
            outcomes["rejected"] += 1
    assert outcomes["ok"] + outcomes["rejected"] == 300
    assert outcomes["rejected"] > 0


def test_serializer_fuzz_no_crashes():
    # mutated documents either parse (e.g. the optional gram was dropped)
    # or raise MalformedInput; no other exception may escape
    import copy
    from frobcalc.rng import SplitMix64
    rng = SplitMix64(123)
    base = qci_doc()
    rejected = 0
    for _ in range(100):
        doc = copy.deepcopy(base)
        victim = rng.choice(["schema", "field", "dim", "basis_names", "unit",
                             "structure", "gram"])
        pick = rng.randrange(3)
        if pick == 0:
            doc.pop(victim, None)
        elif pick == 1:
            doc[victim] = rng.randrange(7)
        else:
            doc[victim] = ["?"]
        try:
            serialize.algebra_from_doc(doc)
        except MalformedInput:
            rejected += 1
    assert rejected > 50


def algebra_doc(item, form=True):
    return serialize.algebra_to_doc(item.algebra, item.gram if form else None)


def _qci_over(p, min_poly):
    """qci(a) over F_p[a]/(m), a the residue of the variable."""
    F = Field.extension(p, min_poly)
    return algebra_doc(qci(F.parse("0,1"), F))


def broken_map_doc(m):
    """The map document of ``m`` with one entry changed, so it keeps
    neither the product nor the Leibniz rule of qci(2)."""
    doc = serialize.map_to_doc(m)
    doc["matrix"][1][1] = "7"
    return doc


def crossed_doc():
    """exterior(1) ⋊ C2, the generator acting by x ↦ -x."""
    from frobcalc.linalg import Matrix
    e1 = exterior(1)
    G = cyclic_group(2)
    return {
        "schema": 1,
        "algebra": algebra_doc(e1),
        "group": {"table": [list(r) for r in G.table]},
        "action": [serialize.matrix_to_doc(Matrix.identity(Q, 2)),
                   serialize.matrix_to_doc(e1.phi(Matrix(Q, [[-1]])).matrix)],
        "alpha": [["1", "1"], ["1", "1"]],
    }


def qci_crossed_doc():
    """qci(2) ⋊ C2, the generator acting by the involution x ↦ −x + xy,
    y ↦ −y + 2xy, which is not monomial, with a sampled coboundary α."""
    from frobcalc.crossed import TwoCocycle
    from frobcalc.rng import SplitMix64
    item = qci(2)
    G = cyclic_group(2)
    rng = SplitMix64(15)
    alpha = TwoCocycle.from_coboundary(
        G, Q, [rng.small_int(nonzero=True) for _ in range(G.order)])
    return {
        "schema": 1,
        "algebra": algebra_doc(item),
        "group": {"table": [list(r) for r in G.table]},
        "action": [serialize.matrix_to_doc(m.matrix) for m in
                   (LinearMap.identity(item.algebra), item.alpha(-1, -1, 1, 2))],
        "alpha": [[Q.format(v) for v in row] for row in alpha.table],
    }


def twisted_trivial_doc():
    """The trivial extension of M₂ twisted by ι_{1+E₁₂}: σ is not monomial."""
    B = matrix_algebra(2).algebra
    tau = inner_automorphism(B.unit_element() + B.basis_element(1))
    return algebra_doc(trivial_extension(B, tau))


def augmentation_map():
    """diag(1, 0, 0, 0) on qci(2): the singular endomorphism a ↦ ε(a)·1."""
    from frobcalc.linalg import Matrix
    A = qci(2).algebra
    diag = [[1 if i == j == 0 else 0 for j in range(4)] for i in range(4)]
    return LinearMap(A, Matrix(Q, diag), ROLE_ENDOMORPHISM)


# sha256 of the report with ``timing_ms`` removed, as ``_emit`` writes it
# (sorted keys, indent 1).  A case is (files, argv, exit code, digest):
# ``files`` maps --file / --map to a builder of the document written there.
# The first five were recorded with the per-scalar elimination loops, the
# next twenty before the CLI's handlers shared one loader and one failure
# branch, the next two while crossed products and twisted boundaries still
# formed dense multiplication matrices, the next three while each caller
# of an inverse ran its own elimination, the next two while twisted
# homology still eliminated b_{p+1} for its boundaries, the next two
# while the bar differentials were built column by column from product
# lookups and the duality check transposed the streamed b_{p+1}, the next
# two while the echelon scaled every pivot to lead 1 and Q reduced on
# Fractions, the next one once ``gallery trivial`` built over --field, the
# next one once a --verify-all report over a field other than Q said that
# its suites ran over Q, the next five, on qci(a) over F_p[a]/(m), while
# every extension-field product was polynomial arithmetic mod m, and the last
# one, the first passing frobenius report, while the relating unit of two
# forms and Der(B, DB) were solved from their own linear systems.
_QCI = {"--file": lambda: algebra_doc(qci(2))}
_QCI_MAP = {
    "alpha": lambda: serialize.map_to_doc(qci(2).alpha(2, 3, 0, 0)),
    "delta": lambda: serialize.map_to_doc(qci(2).delta(1, 2, 0, 4)),
    "nilpotent": lambda: serialize.map_to_doc(qci(2).delta(0, 0, 1, 0)),
    "non-monomial alpha": lambda: serialize.map_to_doc(qci(2).alpha(2, 1, 1, 2)),
    "augmentation": lambda: serialize.map_to_doc(augmentation_map()),
    "bad alpha": lambda: broken_map_doc(qci(2).alpha(2, 3, 0, 0)),
    "bad delta": lambda: broken_map_doc(qci(2).delta(1, 2, 0, 4)),
}
GOLDEN = {
    "homology exterior(3)/Q p<=2": (
        {"--file": lambda: algebra_doc(exterior(3))},
        ["homology", "--max-degree", "2"], 0,
        "6745698a7379c01ba4b35d1a58bce07951e91f2d79e9b29479c66c0478dbc210"),
    "hochschild exterior(3)/Q p<=2": (
        {"--file": lambda: algebra_doc(exterior(3))},
        ["hochschild", "--max-degree", "2"], 0,
        "b7d0d3252f4b498e0febaafbe2e525be41910b4aea6a68fcc9435f94f22cade7"),
    "homology qci(2)/Q p<=1": (
        _QCI, ["homology", "--max-degree", "1"], 0,
        "02a9383e9fb7d7b6f46040eb8ff72dd34ba33c6c7f55f8d71ee89da722059047"),
    "verify-main-theorem qci(2)/Q p<=3": (
        _QCI, ["verify-main-theorem", "--max-degree", "3"], 0,
        "4ec337bb2e505317727a97e90b6fbf04585103be58d3b66fd8779f757eefc6cb"),
    # σ is diagonal and not the identity: the certificates act through it
    "verify-main-theorem exterior(4)/F5 p<=2": (
        {"--file": lambda: algebra_doc(exterior(4, Field.prime(5)))},
        ["verify-main-theorem", "--max-degree", "2"], 0,
        "f6e1505e46429f8222a4217649050c05cd6cd4141d6b797f5ed822b8fc97f52f"),
    "check-algebra qci(2)/Q with form": (
        _QCI, ["check-algebra"], 0,
        "f17154c9c1212af2bbd71e2d8d7547d815823acc3bea088ba168038a5da0e629"),
    "check-algebra exterior(3)/Q without form": (
        {"--file": lambda: algebra_doc(exterior(3), form=False)},
        ["check-algebra"], 0,
        "63b1aedf61f26be9780d5e220015feddfb500fc28ceae7b16e6a7b5014113c89"),
    "frobenius qci(2)/Q without form": (
        {"--file": lambda: algebra_doc(qci(2), form=False)},
        ["frobenius"], 1,
        "0c45e5015be2a8063372334764f232d74330fec8f2b2b2a37f4c4eabeb02e471"),
    "nakayama qci(2)/Q": (
        _QCI, ["nakayama"], 0,
        "e125b7088afd47c8a03d385568a8fdf3beab1ddf807c03288cc6fe2ab984dd5b"),
    "jacobian qci(2)/Q alpha(2,3,0,0)": (
        {**_QCI, "--map": _QCI_MAP["alpha"]}, ["jacobian"], 0,
        "98671490ce55a032e9be750bebd492b28e9606cf44b527df16ff0f70534e852a"),
    "jacobian qci(2)/Q not an endomorphism": (
        {**_QCI, "--map": _QCI_MAP["bad alpha"]}, ["jacobian"], 1,
        "4027573ea5a34ad4cae77bd9797c7c029a5e207dda3cff447ff69733df2cd7c0"),
    "divergence qci(2)/Q delta(1,2,0,4)": (
        {**_QCI, "--map": _QCI_MAP["delta"]}, ["divergence"], 0,
        "0bba0496d693a450b90cb9ae45f988d8eed9e2b7c32045ef321908ae2415b459"),
    "divergence qci(2)/Q not a derivation": (
        {**_QCI, "--map": _QCI_MAP["bad delta"]}, ["divergence"], 1,
        "6c90d8abfe4902d4d7788c9802628fa236fdfb3dde9af839e785bc993fc81abd"),
    "derivations qci(2)/Q": (
        _QCI, ["derivations"], 0,
        "5c4a4edd8ddb0dc95bb7e114de2710b0a5ea7a9e5cee68055a79ccb76059c301"),
    "crossed-product exterior(1)/Q x C2": (
        {"--file": crossed_doc}, ["crossed-product"], 0,
        "c3020dc69360eb0448797ef6da1d70cf8d205ceeadfa69e638525a91992cd1ba"),
    "liouville qci(2)/Q delta(0,0,1,0)": (
        {**_QCI, "--map": _QCI_MAP["nilpotent"]}, ["liouville"], 0,
        "45ab82016a20624a271ddce20bbfb88d2e4cf9cc5ac747e2410f4e996d4e8423"),
    "hochschild qci(2)/Q out of budget": (
        _QCI, ["hochschild", "--budget", "16"], 2,
        "6afaaa2dbca331cca2a049d84824ec8673be4b063a1bf2ccf6130a824eb9760c"),
    "gallery exterior --verify-all": (
        {}, ["gallery", "exterior", "--verify-all"], 0,
        "788ebca449ee77376d5fa03607de9c98090a5bce03881d08d7d599a547fde808"),
    "gallery qci --verify-all": (
        {}, ["gallery", "qci", "--verify-all"], 0,
        "37781341d9ce766d3278a2878778571087dd248f4257f0e9ce98965a559fc526"),
    "gallery cyclic --verify-all": (
        {}, ["gallery", "cyclic", "--verify-all"], 0,
        "87c6009e32f3048237b0e186373b82fe6250667e0dc89998f998aa90b1c61564"),
    "gallery matrix --verify-all": (
        {}, ["gallery", "matrix", "--verify-all"], 0,
        "85f7356c1eb85cecce7c4b908f55c1f8b7eb0a05b4ab7b070ec27dfc71faa441"),
    "gallery group-s3 --verify-all": (
        {}, ["gallery", "group-s3", "--verify-all"], 0,
        "e3940ee8153441cc7474409552151f9ec258799ca0e9a05dd98f0967ab191aad"),
    "gallery trivial --verify-all": (
        {}, ["gallery", "trivial", "--verify-all"], 0,
        "22e59d8a51f919523a8e65edfe8cc8a87d91ee3a4e3c92557d977e137ac00510"),
    "gallery trivial unknown base": (
        {}, ["gallery", "trivial", "--base", "nope"], 1,
        "10719e9917ae1596b6a84d763b8cb32ebe8b0569233fe8304e9ac064801d1f0b"),
    "gallery exterior(14) out of budget": (
        {}, ["gallery", "exterior", "--n", "14"], 2,
        "61e9806da712a3264f2f3c232116dcdff35b815d9588e9542f458be050f35922"),
    "crossed-product qci(2)/Q x C2, non-monomial action": (
        {"--file": qci_crossed_doc}, ["crossed-product"], 0,
        "fe86c18ae11e58d5c6309f2174752aee636c5c12f0f10caf3c23be89d00ba006"),
    "homology twisted trivial extension of M2 p<=2": (
        {"--file": twisted_trivial_doc}, ["homology", "--max-degree", "2"], 0,
        "25c1729d1a8d75f57825c70b707b8128caf9832d6d6cd9ba36375df3f7803d72"),
    # the orbit readings read u⁻¹ and σ⁻¹ of a non-monomial map
    "jacobian qci(2)/Q alpha(2,1,1,2)": (
        {**_QCI, "--map": _QCI_MAP["non-monomial alpha"]}, ["jacobian"], 0,
        "9440e281a599890478746217e850d9a09ceeb52d454b7386ca8bb7c63893680b"),
    "jacobian qci(2)/Q singular augmentation": (
        {**_QCI, "--map": _QCI_MAP["augmentation"]}, ["jacobian"], 0,
        "08c108d1b446673afdede6a944d753bda2be8684234e34513cc15fb320668652"),
    # the certificates act through a non-monomial σ⁻¹
    "verify-main-theorem twisted trivial extension of M2 p<=2": (
        {"--file": twisted_trivial_doc}, ["verify-main-theorem", "--max-degree", "2"],
        0, "dcc5e1280149206bb08db5c1f1717b9dcd39983f9d8ff848ca651027ff1328ec"),
    # σ ≠ id on both: twisted homology reads its boundaries off the cocycles
    "homology qci(2)/Q p<=2": (
        _QCI, ["homology", "--max-degree", "2"], 0,
        "dd19e72032b48d44cae16c405c73750d7e9fdf6008361a4e7d81e2f0562dc705"),
    "homology exterior(2)/Q p<=2": (
        {"--file": lambda: algebra_doc(exterior(2))},
        ["homology", "--max-degree", "2"], 0,
        "3eccaa2e7707c26b5cb536d8472db4effd95455fedaff787a65a62c543d05750"),
    # the largest differentials a report reads: b₃ of exterior(4) by rows in
    # the duality check, and d³ of exterior(3)
    "homology exterior(4)/Q p<=2": (
        {"--file": lambda: algebra_doc(exterior(4))},
        ["homology", "--max-degree", "2"], 0,
        "836f913de1e366b133cafc15008be2537928f338a5bca38183c4fe8e268c9294"),
    "hochschild exterior(3)/Q p<=3": (
        {"--file": lambda: algebra_doc(exterior(3))},
        ["hochschild", "--max-degree", "3"], 0,
        "f6572e0b24c221904682caa7179662614126dabe4ddc24ba0fc95e2616fad351"),
    # d³ of S₃ reduces through leads other than ±1; qci(1/2) has fractional
    # structure constants, so its cochains enter the echelons fractional
    "hochschild S3/Q p<=3": (
        {"--file": lambda: algebra_doc(s3_group_algebra())},
        ["hochschild", "--max-degree", "3"], 0,
        "e3ebfc16d2490d47211322607c48f0eb98e56ef4d059420365926b897f8511d4"),
    "verify-main-theorem qci(1/2)/Q p<=3": (
        {"--file": lambda: algebra_doc(qci(Fraction(1, 2)))},
        ["verify-main-theorem", "--max-degree", "3"], 0,
        "feba748ad8fe4bc1f346553474198fb6117188d6d1f17df6eac66f53d4390ca1"),
    "gallery trivial --field F5": (
        {}, ["gallery", "trivial", "--field", "F5"], 0,
        "e4f01049375157c3a2bbf861f33493b109e886314000ce0778fce49e2a0af12d"),
    "gallery qci --field F3 --verify-all": (
        {}, ["gallery", "qci", "--field", "F3", "--verify-all"], 0,
        "6835529a596cfeba662aad1c3fe0b60b048b0e02516a3b4216e51dc964483cf1"),
    # q = a, the residue of a, over F9 = F3[a]/(a²+1), F4 = F2[a]/(a²+a+1),
    # where −1 = 1, and F27 = F3[a]/(a³+2a+1)
    "verify-main-theorem qci(a)/F9 p<=3": (
        {"--file": lambda: _qci_over(3, [1, 0, 1])},
        ["verify-main-theorem", "--max-degree", "3"], 0,
        "984e9f91afe0511372683376c305df4c71fb2b21e85df5c5d1575a23cbab0b8e"),
    "homology qci(a)/F9 p<=2": (
        {"--file": lambda: _qci_over(3, [1, 0, 1])},
        ["homology", "--max-degree", "2"], 0,
        "bb7340daf1a07652acc2e4b81987c966bceca5415eb87f72e8e7b81d076b80d3"),
    "hochschild qci(a)/F9 p<=3": (
        {"--file": lambda: _qci_over(3, [1, 0, 1])},
        ["hochschild", "--max-degree", "3"], 0,
        "d0b836ea5a388f564da72defe4cfec40124fe4fc9df7de15d62f1db04226f18c"),
    "verify-main-theorem qci(a)/F4 p<=3": (
        {"--file": lambda: _qci_over(2, [1, 1, 1])},
        ["verify-main-theorem", "--max-degree", "3"], 0,
        "bd9fa3bcdb28e6f7c73f48966dbec470f180d934024366b29a78531ad0d19840"),
    "verify-main-theorem qci(a)/F27 p<=3": (
        {"--file": lambda: _qci_over(3, [1, 2, 0, 1])},
        ["verify-main-theorem", "--max-degree", "3"], 0,
        "2c154e0e928620486c0b38817a30be01ee6fefb1ef766805002af1b0a5dad0e7"),
    "frobenius qci(2)/Q": (
        _QCI, ["frobenius"], 0,
        "5057c7000ca1f9405aca432ec5299cc596ac4e12ef29d63a2f3a6f50086bee23"),
}


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_report_digests(tmp_path, case):
    files, (command, *flags), code, digest = GOLDEN[case]
    argv = [command]
    for flag, build in files.items():
        argv += [flag, write(tmp_path, f"{flag[2:]}.json", build())]
    got, rep = run_json(argv + flags)
    assert got == code
    rep.pop("timing_ms")
    text = json.dumps(rep, sort_keys=True, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gallery_trivial_builds_over_the_field_flag():
    code, rep = run_json(["gallery", "trivial", "--field", "F5"])
    assert code == 0 and rep["counts"]["fail"] == 0
    item = trivial_extension(dual_numbers(Field.prime(5)))
    doc = serialize.algebra_to_doc(item.algebra, item.gram)
    assert doc["field"] == {"kind": "PrimeField", "p": 5}
    assert rep["input_digest"] == serialize.digest(
        [doc, {"schema": 1, "gallery": "trivial"}])


def test_gallery_verify_all_names_the_field_of_its_suites():
    # the suites run on the fixed Q carriers whatever --field builds
    code, rep = run_json(["gallery", "qci", "--field", "F3", "--verify-all"])
    assert code == 0 and rep["data"]["verify_all_field"] == "Q"
    for argv in (["gallery", "qci", "--field", "Q", "--verify-all"],
                 ["gallery", "trivial", "--field", "F5"]):
        code, rep = run_json(argv)
        assert code == 0 and "verify_all_field" not in rep["data"]


def _square(value):
    return {"schema": 1, "matrix": [[value if i == j else "0" for j in range(4)]
                                    for i in range(4)]}


# the documents a request may name, all of dimension 4 where they parse;
# bytes are written as they are
CLI_INPUTS = {
    "qci2": lambda: algebra_doc(qci(2)),
    "exterior2-no-form": lambda: algebra_doc(exterior(2), form=False),
    "crossed": crossed_doc,
    "identity": lambda: _square("1"),
    "zero": lambda: _square("0"),
    "alpha": _QCI_MAP["alpha"],
    "delta": _QCI_MAP["delta"],
    "not-json": lambda: b"{not json",
    "not-utf8": lambda: b"\xff\xfe{",
    "too-deep": lambda: b"[" * 100000 + b"]" * 100000,
    "huge-int": lambda: b'{"schema": 1, "dim": ' + b"9" * 5000 + b"}",
    "list": lambda: [1],
    "empty": lambda: {},
    "wrong-shape": lambda: {"schema": 1, "matrix": [["1"]]},
    **{name: lambda args=args: _crossed_with(*args)
       for name, (args, _) in BAD_CROSSED_ROWS.items()},
}
_FILES = st.sampled_from(sorted(CLI_INPUTS) + ["missing"])
_SMALL = {"--max-degree": st.integers(-1, 3).map(str),
          "--budget": st.sampled_from(["0", "16", "256", "4096"])}
# flags each subcommand draws; a strategy of None means the flag is optional
CLI_FLAGS = {
    "check-algebra": {"--file": _FILES},
    "frobenius": {"--file": _FILES},
    "nakayama": {"--file": _FILES},
    "jacobian": {"--file": _FILES, "--map": _FILES},
    "divergence": {"--file": _FILES, "--map": _FILES},
    "derivations": {"--file": _FILES},
    "hochschild": {"--file": _FILES, **_SMALL},
    "verify-main-theorem": {"--file": _FILES, **_SMALL},
    "homology": {"--file": _FILES, **_SMALL},
    "crossed-product": {"--file": _FILES},
    "liouville": {"--file": _FILES, "--map": _FILES},
    "gallery": {
        "": st.sampled_from(["qci", "exterior", "cyclic", "trivial", "matrix",
                             "group-s3", "nope"]),
        "--n": st.integers(0, 3).map(str) | st.none(),
        "--p": st.sampled_from(["1", "2", "3", "5"]) | st.none(),
        "--m": st.integers(0, 2).map(str) | st.none(),
        "--q": st.sampled_from(["2", "0", "1,1", "zz"]) | st.none(),
        "--base": st.sampled_from(["rationals", "dual-numbers", "matrix2",
                                   "nope"]) | st.none(),
        "--field": st.sampled_from(["Q", "F3", "F5", "F4", "F2[a]/1,1,1",
                                    "Fx"]) | st.none(),
        "--budget": _SMALL["--budget"] | st.none()},
    "verify-all": {},
}


@st.composite
def cli_requests(draw):
    """argv of one request, input files named by their CLI_INPUTS key.
    verify-all reads no input and runs for seconds: it is drawn only as an
    explicit example."""
    command = draw(st.sampled_from(sorted(set(CLI_FLAGS) - {"verify-all"})))
    argv = [command]
    for flag, values in CLI_FLAGS[command].items():
        value = draw(values)
        if value is not None:
            argv += [flag, value] if flag else [value]
    return argv + ["--seed", str(draw(st.integers(0, 3)))]


def test_cli_every_request_ends_in_one_report(tmp_path):
    # exit 0–3 and no exception, one JSON report on exits 0–2, and a file
    # request's digest is that of the documents it read, in order (the
    # empty string when its input was refused)
    from frobcalc import cli
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(CLI_FLAGS)
    docs = {}
    for name, build in CLI_INPUTS.items():
        doc = build()
        if isinstance(doc, bytes):
            (tmp_path / name).write_bytes(doc)
        else:
            write(tmp_path, name, doc)
            docs[name] = doc

    @settings(max_examples=120, deadline=None)
    @given(cli_requests())
    @example(["verify-all", "--seed", "42"])
    @example(["hochschild", "--file", "qci2", "--budget", "16"])
    @example(["jacobian", "--file", "qci2", "--map", "zero"])
    def props(argv):
        named = [argv[i + 1] for i in range(len(argv) - 1)
                 if argv[i] in ("--file", "--map")]
        paths = [str(tmp_path / a) if a in named else a for a in argv]
        buf = io.StringIO()
        code = run(paths, buf)
        assert code in (0, 1, 2, 3)
        if code == 3:
            assert buf.getvalue() == ""
            return
        rep = json.loads(buf.getvalue())
        counts = rep["counts"]
        assert code == (1 if counts["fail"] else 2 if counts["inconclusive"] else 0)
        if "--file" not in argv:
            return
        refused = [c["id"] for c in rep["checks"]] in (["input/schema"],
                                                       ["internal"])
        assert rep["input_digest"] == (
            "" if refused else serialize.digest([docs[n] for n in named]))

    for name in BAD_CROSSED_ROWS:
        props = example(["crossed-product", "--file", name, "--seed", "0"])(props)
    props()
