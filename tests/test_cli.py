import ast
import hashlib
import json
import os
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tpa.algebra import pair_from_json
from tpa.cli import main
from tpa.scalars import QQ_T, T


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if code != 2:
        assert captured.err == ""
    return code, json.loads(captured.out) if captured.out.strip() else None


def test_check_t05(capsys):
    code, doc = run(capsys, "check", "--id", "T05")
    assert code == 0
    assert doc["transposed_poisson"] is True
    assert doc["poisson"] is False


def test_check_t07_pretty(capsys):
    code, doc = run(capsys, "--pretty", "check", "--id", "T07", "--beta", "2")
    assert code == 0
    assert doc["identities"]["leibniz"] is False


def test_t07_beta_binds_beta(capsys):
    # --beta is T07's own parameter, so binding options by name keeps it
    from fractions import Fraction as F

    from tpa.algebra import matrix_to_json
    from tpa.catalog import instantiate
    from tpa.derivations import delta_derivations
    from tpa.scalars import QQ

    assert main(["check", "--id", "T07", "--beta", "2"]) == 0
    assert capsys.readouterr().out == (
        '{"id": "T07", "identities": {"commutative": true, "associative": true, '
        '"anticommutative": true, "jacobi": true, "transposed_leibniz": true, '
        '"leibniz": false}, "transposed_poisson": true, "poisson": false}\n')
    code, doc = run(capsys, "der", "--id", "T07", "--beta", "2")
    assert code == 0
    space = delta_derivations(instantiate("T07", (2,)).bracket, F(1, 2))
    assert doc["basis"] == [matrix_to_json(b, QQ) for b in space.basis]


def test_der_g2_half(capsys):
    code, doc = run(capsys, "der", "--lie", "g2", "--alpha", "1/2", "--delta", "1/2")
    assert code == 0
    assert doc["dim"] == 4
    assert len(doc["basis"]) == 4


def test_der_defaults_to_half(capsys):
    code, doc = run(capsys, "der", "--lie", "sl2")
    assert code == 0
    assert doc["dim"] == 1 and doc["delta"] == "1/2"


def test_biderive(capsys):
    code, doc = run(capsys, "biderive", "--lie", "g2", "--alpha", "2")
    assert code == 0
    assert doc["dim"] == 5


def test_enumerate(capsys):
    code, doc = run(capsys, "enumerate", "--lie", "g1")
    assert code == 0
    assert doc["family_dim"] == 3
    assert all(pt["residual_zero"] for pt in doc["residual_grid"])


def test_fingerprint(capsys):
    code, doc = run(capsys, "fingerprint", "--id", "T20")
    assert code == 0
    assert doc == {
        "fingerprint": [3, 0, 3, 3, 0, 3, 0, 9, 0, 9, 1],
        "fields": ["dim_sq", "dim_br", "dim_span", "dim_cube", "dim_ann", "dim_center",
                   "dim_der_mul", "dim_der_br", "dim_der_pair", "dim_halfder_br",
                   "has_unit"],
    }


#: sha256 of the whole ``degenerate --all`` stdout
DEGENERATE_ALL_SHA256 = "b1b878e86c5446bbcc8f2f2341b40eb0eeee0df1c0c60a712d589c8e1661fb59"


def test_degenerate_all(capsys):
    code = main(["degenerate", "--all"])
    raw = capsys.readouterr().out.encode()
    assert hashlib.sha256(raw).hexdigest() == DEGENERATE_ALL_SHA256
    doc = json.loads(raw)
    assert code == 0
    assert doc["all_verified"] is True
    assert len(doc["rows"]) == 30
    assert doc["witness_errata"] == []


def test_degenerate_single_row(capsys):
    code, doc = run(capsys, "degenerate", "--row", "1")
    assert code == 0
    assert doc["rows"][0]["matched"] == "exact"


def test_dspecial_comm(capsys):
    code, doc = run(capsys, "dspecial", "--comm", "A04", "--all-derivations")
    assert code == 0
    assert doc["derivations"]["dim"] == 2
    assert len(doc["derived_brackets"]) == 2


def test_dspecial_comm_family_parameters(capsys):
    # --comm takes the family parameters like --id does
    from fractions import Fraction as F

    from tpa.algebra import matrix_to_json
    from tpa.catalog import instantiate
    from tpa.dspecial import derivation_matching_bracket
    from tpa.scalars import QQ

    code, doc = run(capsys, "dspecial", "--comm", "DA02", "--alpha", "1", "--beta", "2",
                    "--feasible")
    assert code == 0
    assert doc["derivations"]["dim"] == 2
    pair = instantiate("DA02", (F(1), F(2)))
    d = derivation_matching_bracket(pair.mul, pair.bracket)
    assert doc["strong_d_special"] is True
    assert doc["derivation"] == matrix_to_json(d, QQ)


def test_der_four_parameter_family(capsys):
    # --delta is the delta, so --epsilon is the fourth parameter slot of der
    from fractions import Fraction as F

    from tpa.algebra import matrix_to_json
    from tpa.catalog import instantiate
    from tpa.derivations import delta_derivations
    from tpa.scalars import QQ

    code, doc = run(capsys, "der", "--lie", "DA03", "--alpha", "1", "--beta", "1",
                    "--gamma", "1", "--epsilon", "1")
    assert code == 0
    space = delta_derivations(instantiate("DA03", (1, 1, 1, 1)).bracket, F(1, 2))
    assert doc["dim"] == space.dim
    assert doc["basis"] == [matrix_to_json(b, QQ) for b in space.basis]
    code, doc = run(capsys, "der", "--id", "D08", "--epsilon", "1")
    assert code == 0
    assert doc["dim"] == delta_derivations(instantiate("D08", (1,)).bracket, F(1, 2)).dim


@pytest.mark.parametrize("command, rename", [
    ("check", {}), ("der", {"delta": "epsilon"}),
], ids=["check", "der"])
def test_every_catalog_parameter_is_an_option(command, rename):
    # each parameter of each entry binds to its option, renamed where der
    # uses the name itself, and gives the entry at that sample
    from tpa.algebra import pairs_equal
    from tpa.catalog import CATALOG, instantiate
    from tpa.cli import _instantiate, build_parser

    for cid, e in CATALOG.items():
        params = e.samples[0]
        argv = [command, "--id", cid]
        for name, value in zip(e.param_names, params):
            argv += [f"--{rename.get(name, name)}", str(value)]
        args = build_parser().parse_args(argv)
        assert pairs_equal(_instantiate(args, cid), instantiate(cid, params)), cid


def test_dspecial_feasible(capsys):
    code, doc = run(capsys, "dspecial", "--id", "T02", "--feasible")
    assert code == 0
    assert doc["strong_d_special"] is False
    code, doc = run(capsys, "dspecial", "--id", "T05", "--feasible")
    assert doc["strong_d_special"] is True and "derivation" in doc


def test_iso_roundtrip(tmp_path, capsys):
    from fractions import Fraction as F

    from tpa.algebra import pair_to_json
    from tpa.catalog import instantiate

    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    wit = tmp_path / "w.json"
    lhs.write_text(json.dumps(pair_to_json(instantiate("T09", [F(1, 2), F(1, 2)]))))
    rhs.write_text(json.dumps(pair_to_json(instantiate("T09", [F(2), F(1)]))))
    wit.write_text(json.dumps([["1", "1", "0"], ["0", "2", "0"], ["0", "0", "2"]]))
    code, doc = run(capsys, "iso", "--lhs", str(lhs), "--rhs", str(rhs),
                    "--witness", str(wit))
    assert code == 0 and doc["isomorphic_via_witness"] is True

    wit.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, doc = run(capsys, "iso", "--lhs", str(lhs), "--rhs", str(rhs),
                    "--witness", str(wit))
    assert code == 1 and doc["isomorphic_via_witness"] is False


def test_iso_witness_columns_are_the_new_basis(tmp_path, capsys):
    # a 2 x 2 witness on dim-2 pairs, read as ``--help`` says: its columns
    # E1 = e1 + e2 and E2 = e2 rewrite e1.e1 = e1 as E1.E1 = E1 - E2, and
    # its transpose is no witness
    lhs, rhs, wit = (tmp_path / name for name in ("lhs.json", "rhs.json", "w.json"))
    lhs.write_text(json.dumps({"dim": 2, "mul": [[1, 1, 1, "1"]]}))
    rhs.write_text(json.dumps({"dim": 2, "mul": [[1, 1, 1, "1"], [1, 1, 2, "-1"]]}))
    for rows, expected in (([["1", "0"], ["1", "1"]], 0), ([["1", "1"], ["0", "1"]], 1)):
        wit.write_text(json.dumps(rows))
        code, doc = run(capsys, "iso", "--lhs", str(lhs), "--rhs", str(rhs),
                        "--witness", str(wit))
        assert code == expected and doc["isomorphic_via_witness"] is (expected == 0)
    with pytest.raises(SystemExit):
        main(["iso", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "n x n rational matrix as a list of rows" in usage
    assert "columns are the new basis vectors in the lhs coordinates" in usage
    assert "3x3" not in usage


#: sha256 of the whole ``catalog dump`` stdout
CATALOG_DUMP_SHA256 = "d5f924f533b7768a8bb3f7319082c441927d5c3af5d0d45d11efe21debe45ee8"


def test_catalog_dump(capsys):
    code = main(["catalog", "dump"])
    raw = capsys.readouterr().out.encode()
    assert hashlib.sha256(raw).hexdigest() == CATALOG_DUMP_SHA256
    doc = json.loads(raw)
    assert code == 0
    ids = {e["meta"]["id"] for e in doc["entries"]}
    assert {"T01", "T30", "A04", "g2", "NP02", "D06b"} <= ids
    t05 = next(e for e in doc["entries"] if e["meta"]["id"] == "T05")
    assert [1, 1, 3, "1"] in t05["mul"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    code = main(["check", "--id", "T99"])
    assert code == 2
    code = main(["check"])
    assert code == 2
    code = main(["der", "--lie", "g2", "--alpha", "1/2", "--delta", "nope"])
    assert code == 2
    # --row and --all are exclusive, and so are the algebra sources: argparse's
    # usage line, not a silent choice of one
    for argv in (["degenerate", "--row", "1", "--all"],
                 ["check", "--id", "T05", "--lie", "sl2"],
                 ["check", "--input", "f.json", "--id", "T05"],
                 ["dspecial", "--comm", "A04", "--id", "T02", "--feasible"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "not allowed with argument" in err, argv


def test_inadmissible_parameter_exit_2(capsys):
    assert main(["check", "--id", "T19", "--gamma", "0"]) == 2


def test_iso_missing_file_exit_2(capsys):
    assert main(["iso", "--lhs", "/nonexistent.json", "--rhs", "/nonexistent.json",
                 "--witness", "/nonexistent.json"]) == 2


#: a JSON nesting depth past the recursion limit of every supported Python
DEEP = 100_000

#: a bracket that is not anticommutative
NOT_LIE = '{"dim": 2, "bracket": [[1, 1, 1, "1"]]}'


@pytest.mark.parametrize("command, files", [
    (["check"], {"input": '{"dim": 3, "mul": [[1, 1, 1, "1/0"]]}'}),
    (["check"], {"input": "[1, 2]"}),
    (["check"], {"input": '{"dim": 3, "mul": [[1, 1, 1]]}'}),
    (["check"], {"input": '{"dim": 3, "mul": "x"}'}),
    (["check"], {"input": '{"dim": -2}'}),
    (["iso"], {"lhs": '{"dim": 3, "mul": [[1, 1, 1, "1"]]}',
               "rhs": '{"dim": 3, "mul": [[1, 1, 1, "1"]]}',
               "witness": '[["1", "0"], ["0", "1"]]'}),
    (["check"], {"input": '{"dim": 3, "mul": [[1, 1, 1, "t^999999999"]]}'}),
    (["degenerate", "--row", "42"], {}),
    (["biderive"], {"input": NOT_LIE}),
    (["enumerate"], {"input": NOT_LIE}),
    (["der", "--lie", "g2", "--alpha", "1", "--delta", "1e2000000"], {}),
    (["check", "--id", "g2", "--alpha", "1e400"], {}),
    (["dspecial", "--comm", "A04", "--alpha", "7"], {}),
    (["check", "--id", "T07", "--gamma", "2"], {}),
    (["check", "--id", "D08", "--alpha", "1"], {}),
    (["check", "--id", "T09", "--alpha", "2"], {}),
    (["check", "--alpha", "1"], {"input": '{"dim": 1}'}),
    (["check"], {"input": json.dumps({"dim": "x" * 5000})}),
    (["check"], {"input": json.dumps({"dim": 3, "mul": [[1, 1, 9, "1" * 5000]]})}),
    (["check", "--id", "x" * 5000], {}),
    (["check"], {"input": '{"dim": ' + "1" * 5000 + "}"}),
    (["check"], {"input": '{"dim": 3, "mul": [[1, 1, ' + "1" * 5000 + ', "1"]]}'}),
    (["check"], {"input": '{"dim": 3, "mul": [[1, 1, 1, ' + "1" * 5000 + "]]}"}),
    (["check"], {"input": "[" * 990 + "]" * 990}),
    (["check"], {"input": "[" * DEEP + "]" * DEEP}),
    (["iso"], {"lhs": '{"dim": 2}', "rhs": '{"dim": 2}', "witness": "[" * DEEP + "]" * DEEP}),
], ids=["zero-denominator", "top-level-list", "three-field-entry", "mul-not-a-list",
        "negative-dim", "witness-shape", "t-exponent-too-large", "unknown-row",
        "biderive-not-lie", "enumerate-not-lie", "delta-exponent", "alpha-exponent",
        "comm-extra-parameter", "t07-gamma-not-a-parameter", "d08-alpha-not-a-parameter",
        "missing-parameter", "input-with-parameter", "long-dim", "long-entry-out-of-range",
        "long-unknown-id", "digit-limit-dim", "digit-limit-index", "digit-limit-value",
        "nested-990", "nested-deep", "witness-nested-deep"])
def test_malformed_input_exit_2(tmp_path, capsys, command, files):
    argv = list(command)
    for flag, text in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(text)
        argv += [f"--{flag}", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert len(captured.err.encode()) < 200  # the offending value is quoted by an excerpt
    assert "Traceback" not in captured.err


#: every command that reads one algebra file through --input
INPUT_COMMANDS = (["check"], ["der"], ["der", "--mul"], ["biderive"], ["biderive", "--full"],
                  ["enumerate"], ["fingerprint"], ["dspecial", "--feasible", "--all-derivations"])

#: iso's files where the drawn document is not
ISO_FILES = {"lhs": '{"dim": 2, "mul": [[1, 1, 1, "1"]]}',
             "rhs": '{"dim": 2, "mul": [[1, 1, 1, "1"]]}',
             "witness": '[["1", "0"], ["0", "1"]]'}

#: small JSON scalars of every type, and scalar strings that parse, that
#: exceed the exponent bound of t (64), that divide by zero or that are no
#: scalar
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.floats(),
    st.sampled_from(["1", "-2", "1/2", "0", "t", "-t", "t^-1", "2*t^3", "1 - 2*t",
                     "(1 + t)/(3*t)", "t^65", "1/0", "(1+t)/(t-t)", "x", "", "1.5"]))
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["dim", "mul", "bracket", "x"]), inner, max_size=3),
    max_leaves=10)
_indices = st.one_of(st.integers(1, 3), st.integers(-1, 5), st.booleans(), st.floats(), st.none())
_entries = st.one_of(st.tuples(_indices, _indices, _indices, _scalars).map(list), _values)
_tensors = st.one_of(st.lists(_entries, max_size=4), _values)

#: a scalar string and its negative, for anticommutative brackets
_signed = st.sampled_from([("1", "-1"), ("1/2", "-1/2"), ("t", "-t"), ("t^-1", "-t^-1"),
                           ("2*t^3", "-2*t^3"), ("t^65", "-t^65"), ("1/0", "-1/0")])


@st.composite
def _algebras(draw):
    """A document in range: dim 1..3, a product and an anticommutative
    bracket on in-range indices (a Lie bracket whenever dim < 3)."""
    dim = draw(st.integers(1, 3))
    index = st.integers(1, dim)
    mul = draw(st.lists(st.tuples(index, index, index, _signed.map(lambda s: s[0])).map(list),
                        max_size=4))
    bracket = []
    for i, j, k, (v, minus_v) in draw(st.lists(st.tuples(index, index, index, _signed),
                                               max_size=3)):
        if i != j:
            bracket += [[i, j, k, v], [j, i, k, minus_v]]
    return {"dim": dim, "mul": mul, "bracket": bracket}


_documents = st.one_of(
    _algebras(),
    _values,
    st.fixed_dictionaries({"dim": st.one_of(st.integers(1, 3), st.integers(-1, 5), _values)},
                          optional={"mul": _tensors, "bracket": _tensors}),
    st.lists(st.lists(_scalars, min_size=2, max_size=2), min_size=2, max_size=2),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents)
def test_exit_code_contract_on_generated_input(tmp_path, capsys, doc):
    # 0 ok, 1 verification failed, 2 usage or parse error with one short
    # stderr line; an algebra file pair_from_json rejects always exits 2,
    # and the single-algebra commands verify nothing, so never exit 1
    text = json.dumps(doc)
    try:
        pair_from_json(json.loads(text))
        rejected = False
    except ValueError:
        rejected = True
    path = tmp_path / "doc.json"
    path.write_text(text)
    runs = [([*command, "--input", str(path)], True) for command in INPUT_COMMANDS]
    for slot in ISO_FILES:
        argv = ["iso"]
        for flag, content in {**ISO_FILES, slot: text}.items():
            (tmp_path / f"{slot}-{flag}.json").write_text(content)
            argv += [f"--{flag}", str(tmp_path / f"{slot}-{flag}.json")]
        runs.append((argv, slot != "witness"))
    for argv, as_algebra in runs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 2:
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1, (argv, captured.err)
            assert len(captured.err.encode()) < 200, (argv, captured.err)
        else:
            json.loads(captured.out)
            assert captured.err == "", argv
            assert argv[0] == "iso" or code == 0, argv
        if rejected and as_algebra:
            assert code == 2, argv


LONG_MALFORMED = "x" * 5000


@pytest.mark.parametrize("argv, files", [
    (["check", "--id", "T03", "--beta", LONG_MALFORMED], {}),
    (["der", "--lie", "g2", "--alpha", "1", "--delta", LONG_MALFORMED], {}),
    (["check", "--input", "a.json"],
     {"a.json": json.dumps({"dim": 3, "mul": [[1, 1, 1, LONG_MALFORMED]]})}),
    (["check", "--input", "a.json"],
     {"a.json": json.dumps({"dim": 3, "mul": [[1, 1, 1, "t" + LONG_MALFORMED]]})}),
], ids=["option", "delta-option", "file-entry", "file-entry-over-q-t"])
def test_long_malformed_scalar_is_echoed_bounded(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 200
    assert "(5000 characters)" in captured.err or "(5001 characters)" in captured.err
    assert "Traceback" not in captured.err


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _digit_limit(), reason="no integer digit limit")
@pytest.mark.parametrize("argv, flag", [
    (["check", "--id", "T03", "--beta"], "beta"),
    (["check", "--id", "g2", "--alpha"], "alpha"),
    (["der", "--lie", "g2", "--alpha", "1", "--delta"], "delta"),
], ids=["beta", "alpha", "delta"])
def test_parameter_beyond_digit_limit_exit_2(capsys, argv, flag):
    # Fraction's ValueError past the digit limit is a parse error, not a
    # failed verification
    assert main(argv + ["1" * (_digit_limit() + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"bad rational for --{flag}" in captured.err
    assert "Traceback" not in captured.err


def test_biderive_full_flag(capsys):
    code, doc = run(capsys, "biderive", "--lie", "g2", "--alpha", "2", "--full")
    assert code == 0
    assert doc["dim"] == 6


#: Q(t) pairs (a "t" in any entry selects Q(t)); the second has a
#: t-dependent derivation and half-biderivation basis
QT_PAIRS = {
    "bracket-over-t": {"dim": 2, "mul": [[1, 1, 1, "t"]],
                       "bracket": [[1, 2, 2, "1/t"], [2, 1, 2, "-1/t"]]},
    "t-dependent-basis": {"dim": 2, "mul": [[1, 1, 1, "t"]],
                          "bracket": [[1, 2, 1, "t"], [2, 1, 1, "-t"],
                                      [1, 2, 2, "1"], [2, 1, 2, "-1"]]},
}


def _strings(doc):
    if isinstance(doc, str):
        return [doc]
    return [s for part in doc for s in _strings(part)]


@pytest.mark.parametrize("command, basis_of", [
    (["der"], lambda doc: doc["basis"]),
    (["biderive"], lambda doc: doc["basis"]),
    (["dspecial", "--all-derivations"], lambda doc: doc["derivations"]["basis"]),
    (["enumerate"], lambda doc: doc["basis"]),
], ids=["der", "biderive", "dspecial-all-derivations", "enumerate"])
def test_qt_input_solution_spaces(tmp_path, capsys, command, basis_of):
    # the solvers work over the input's field, and so must the output
    entries = []
    for name, pair in QT_PAIRS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(pair))
        code, doc = run(capsys, *command, "--input", str(path))
        assert code == 0
        basis = basis_of(doc)
        assert basis
        entries += [QQ_T.parse(s) for s in _strings(basis)]
    if command != ["dspecial", "--all-derivations"]:  # derivations of t*e1.e1 are constant
        assert any(not e.is_constant() for e in entries)


def test_qt_input_feasible_derivation(tmp_path, capsys):
    # T03 at beta = t: D = diag(1/(2t), -1/(2t), 0) reproduces the bracket
    path = tmp_path / "t03.json"
    path.write_text(json.dumps({"dim": 3, "mul": [[1, 2, 3, "t"], [2, 1, 3, "t"]],
                                "bracket": [[1, 2, 3, "1"], [2, 1, 3, "-1"]]}))
    code, doc = run(capsys, "dspecial", "--feasible", "--input", str(path))
    assert code == 0 and doc["strong_d_special"] is True
    d = [[QQ_T.parse(s) for s in row] for row in doc["derivation"]]
    half_over_t = QQ_T.one / (2 * T)
    assert d == [[half_over_t, 0, 0], [0, -half_over_t, 0], [0, 0, 0]]


def test_qt_input_every_single_algebra_command(tmp_path, capsys):
    # a Q(t) pair with non-integral rational constants next to t
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "dim": 2, "mul": [[1, 1, 1, "t"], [1, 2, 2, "1/2"], [2, 1, 2, "1/2"]],
        "bracket": [[1, 2, 1, "2*t"], [2, 1, 1, "-2*t"], [1, 2, 2, "1/3"], [2, 1, 2, "-1/3"]]}))
    for command in (["check"], ["der"], ["biderive"], ["enumerate"], ["fingerprint"],
                    ["dspecial", "--feasible"]):
        assert main([*command, "--input", str(path)]) == 0, command
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert "Traceback" not in captured.err


def test_iso_qt_pair_with_rational_witness(tmp_path, capsys):
    # inverting the witness over Q(t) divides two plain rationals
    files = {"lhs": {"dim": 2, "mul": [[1, 1, 1, "t"]]},
             "rhs": {"dim": 2, "mul": [[1, 1, 1, "2*t"]]},
             "witness": [["2", "0"], ["0", "1"]]}
    argv = ["iso"]
    for flag, doc in files.items():
        path = tmp_path / f"{flag}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{flag}", str(path)]
    code, doc = run(capsys, *argv)
    assert code == 0 and doc["isomorphic_via_witness"] is True


def test_deterministic_output(capsys):
    code1 = main(["catalog", "dump"])
    out1 = capsys.readouterr().out
    code2 = main(["catalog", "dump"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


#: sha256 of the whole ``verify-paper`` stdout
VERIFY_PAPER_SHA256 = "e38ad5a504b22d3680f48232e28b2463781bb4acf3e601c3a9887df9fe6bc890"


def test_verify_paper_reports_and_exit_code(capsys):
    # exit code 0 iff every criterion passes; the run carries one known
    # red criterion (the printed strong-D-special negative list), so the
    # equivalence pins exit code 1 here.  The raw stdout is pinned byte for
    # byte, so a refactor cannot change the report unnoticed.
    code = main(["verify-paper"])
    raw = capsys.readouterr().out.encode()
    assert len(raw) == 5801
    assert hashlib.sha256(raw).hexdigest() == VERIFY_PAPER_SHA256
    doc = json.loads(raw)
    assert code == (0 if doc["pass"] else 1)
    assert code == 1
    by_id = {c["criterion"]: c["pass"] for c in doc["criteria"]}
    assert by_id == {
        "1-axioms": True, "2-halfder-table": True, "3-enumeration": True,
        "4-witnesses": True, "5-strong-d-special": False, "6-novikov": True,
        "7-degenerations": True, "8-properties": True,
    }
    assert doc["errata"]


def test_verify_paper_inline_without_fork(capsys, monkeypatch):
    # where os.fork is missing, criterion 8 runs inline with the same stdout
    monkeypatch.delattr(os, "fork", raising=False)
    code = main(["verify-paper"])
    raw = capsys.readouterr().out.encode()
    assert hashlib.sha256(raw).hexdigest() == VERIFY_PAPER_SHA256
    assert code == 1


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_randomized_claims_hold_on_other_seeds(monkeypatch, seed):
    from tpa import verify

    monkeypatch.setattr(verify, "SEED", seed)
    assert verify.claim_enumeration()["pass"]
    assert verify.claim_properties()["pass"]


def _nodes_by_function(tree):
    """(name of the innermost enclosing function or None, node) for every
    node of a module."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            yield from walk(child, child.name if isinstance(child, ast.FunctionDef) else owner)
    return walk(tree, None)


def test_process_boundary_is_cli_main():
    # the package meets the process only in cli.main: no module reads the
    # environment, and only main prints
    import tpa

    printers = set()
    for path in sorted(pathlib.Path(tpa.__file__).parent.glob("*.py")):
        for owner, node in _nodes_by_function(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("environ", "getenv"), (path.name, node.attr)
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                assert not {a.name for a in node.names} & {"environ", "getenv"}, path.name
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                printers.add((path.name, owner))
    assert printers == {("cli.py", "main")}
