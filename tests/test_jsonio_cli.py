import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauertilt import cli
from brauertilt.algebra import star_algebra
from brauertilt.jsonio import (
    SchemaError,
    covering_from_json,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from brauertilt.endo import summand_complexes
from brauertilt.modules import UniserialSpec, is_isomorphic, simple_rep, uniserial_rep
from brauertilt.trees import BrauerTree

from reference import cokernel_rep, complex_from_json, covering_to_json, module_from_json


def test_tree_json_roundtrip():
    t = BrauerTree.star(3, 2)
    doc = tree_to_json(t)
    back = tree_from_json(doc)
    assert back.is_isomorphic_to(t)
    assert tree_from_json({"star": {"n": 3, "k": 2}}).is_isomorphic_to(t)


def test_tree_json_errors():
    with pytest.raises(SchemaError):
        tree_from_json({"star": {"n": 0, "k": 1}})
    with pytest.raises(SchemaError):
        tree_from_json({"vertices": [0, 1]})
    with pytest.raises(SchemaError):
        tree_from_json(
            {
                "vertices": [0, 1],
                "edges": [{"id": 0, "ends": [0, 1]}],
                "cyclic_order": {"0": [0], "1": []},
                "exceptional": 0,
                "multiplicity": 1,
            }
        )


def test_covering_json_roundtrip():
    doc = {
        "outer": [{"start": 1, "size": 4}],
        "inner": {"0": [{"start": 2, "size": 3}, {"start": 2, "size": 2}]},
        "mode": "deg0",
    }
    cov = covering_from_json(doc)
    assert covering_to_json(cov)["mode"] == "deg0"
    assert covering_from_json(covering_to_json(cov)).sort_key() == cov.sort_key()


README_COVERING = {
    "outer": [{"start": 1, "size": 4}],
    "inner": {"0": [{"start": 2, "size": 3}, {"start": 2, "size": 2}]},
    "mode": "deg0",
}
VALID_TREE = {"vertices": [0, 1, 2], "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 2]}],
              "cyclic_order": {"0": [0], "1": [0, 1], "2": [1]}, "exceptional": 0, "multiplicity": 1}
DELETE = object()
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
    st.just(DELETE),
)


def _fields(doc, path=()):
    """The path of every field below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_documents_are_read_or_refused_with_value_error(data):
    """A valid tree document and the README covering document with one to
    three fields replaced by null, a bool, a float, a string, a list or an
    object, or deleted: the readers return a value or raise ValueError
    (SchemaError is one), never another exception."""
    for reader, doc in ((tree_from_json, VALID_TREE), (covering_from_json, README_COVERING)):
        for _ in range(data.draw(st.integers(1, 3))):
            fields = list(_fields(doc))
            if not fields:
                break
            doc = _replaced(doc, data.draw(st.sampled_from(fields)), data.draw(JUNK))
        try:
            reader(doc)
        except ValueError:
            pass


def test_module_and_complex_literals():
    A = star_algebra(3, 1)
    M = module_from_json(A, {"uniserial": {"top": 1, "len": 2}})
    assert is_isomorphic(M, uniserial_rep(A, UniserialSpec(1, 2)))
    S = module_from_json(A, {"string": {"walk": [], "edge": 2}})
    assert S.dims[A.eidx[2]] == 1 and S.total_dim == 1
    T = complex_from_json(
        A,
        {
            "summands": [
                {"pres": {"uniserial": {"top": 1, "len": 2}}},
                {"stalk": {"edge": 3, "degree": 0}},
            ]
        },
    )
    assert len(T.labels) == 2


@pytest.mark.parametrize("degree", [1.5, "x", True])
def test_stalk_degree_must_be_an_integer(degree):
    """A stalk degree that is no JSON integer is refused with the path of
    the field, and nothing is memoized for it."""
    A = star_algebra(3, 1)
    doc = {"summands": [{"pres": {"uniserial": {"top": 1, "len": 2}}},
                        {"stalk": {"edge": 1, "degree": degree}}]}
    with pytest.raises(SchemaError, match=r"\$\.summands\[1\]\.stalk\.degree: expected an integer") as err:
        complex_from_json(A, doc)
    assert err.value.path == "$.summands[1].stalk.degree"
    assert not any(key[0] == "stalk" for key in A.summand_cache)


def test_presentations_of_different_strings_stay_apart():
    A = star_algebra(3, 1)
    first = complex_from_json(A, {"summands": [{"pres": {"string": {"edge": 1}}}]})
    second = complex_from_json(A, {"summands": [{"pres": {"string": {"edge": 2}}}]})
    assert is_isomorphic(cokernel_rep(first), simple_rep(A, 1))
    assert is_isomorphic(cokernel_rep(second), simple_rep(A, 2))
    assert summand_complexes(second) == list(second.parts)
    assert is_isomorphic(cokernel_rep(summand_complexes(second)[0]), simple_rep(A, 2))


def test_dot_export_marks_exceptional():
    t = BrauerTree.star(2, 2)
    dot = tree_to_dot(t, {1: "P_1", 2: "P_2"})
    assert "doublecircle" in dot
    assert dot.count("--") == 2
    assert 'label="P_1"' in dot


def run_cli(capsys, args):
    rc = cli.main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_algebra(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"star": {"n": 2, "k": 1}}))
    rc, out, _ = run_cli(capsys, ["--json", "algebra", str(path)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["cartan"] == [[2, 1], [1, 2]]
    assert doc["dim"] == 6


def test_cli_algebra_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"vertices\": [0, 1]}")
    rc, _, err = run_cli(capsys, ["algebra", str(path)])
    assert rc == 2
    assert "missing field" in err


MALFORMED = [
    ("endo", {"outer": 5, "mode": "deg0"}, "$.outer"),
    ("endo", {"outer": [{"start": 1, "size": 4}], "inner": [[{"start": 2, "size": 3}]],
              "mode": "deg0"}, "$.inner"),
    ("endo", {"outer": [{"start": "1", "size": 4}], "mode": "deg0"}, "$.outer[0].start"),
    ("algebra", {"vertices": [0, 1], "edges": [{"id": 1, "ends": [0, 1]}],
                 "cyclic_order": [[1], [1]], "exceptional": 0, "multiplicity": 1},
     "$.cyclic_order"),
    ("algebra", None, "cannot read"),
    ("algebra", {"star": {"n": True, "k": 1}}, "$.star"),
    ("algebra", {"vertices": [0, 1], "edges": [{"id": [1], "ends": [0, 1]}],
                 "cyclic_order": {"0": [1], "1": [1]}, "exceptional": 0, "multiplicity": 1},
     "$.edges[0].id"),
    ("algebra", {"vertices": [0, 1], "edges": [{"id": 1, "ends": [[0], 1]}],
                 "cyclic_order": {"0": [1], "1": [1]}, "exceptional": 0, "multiplicity": 1},
     "$.edges[0].ends[0]"),
    ("algebra", {"vertices": [0, [1]], "edges": [{"id": 1, "ends": [0, 1]}],
                 "cyclic_order": {"0": [1], "1": [1]}, "exceptional": 0, "multiplicity": 1},
     "$.vertices[1]"),
]

# the valid 2-edge path, changed in one place each
PATH_DOC = {"vertices": [0, 1, 2], "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 2]}],
            "cyclic_order": {"0": [0], "1": [0, 1], "2": [1]}, "exceptional": 0, "multiplicity": 1}
MALFORMED_PATHS = [
    ({**PATH_DOC, "cyclic_order": {**PATH_DOC["cyclic_order"], "1": [[0], 1]}},
     "$.cyclic_order[1][0]"),
    ({**PATH_DOC, "edges": [{"id": 0, "ends": [0, 1]}, {"id": "x", "ends": [1, 2]}],
      "cyclic_order": {"0": [0], "1": [0, "x"], "2": ["x"]}},
     "edge ids cannot be ordered"),
    ({**PATH_DOC, "cyclic_order": {**PATH_DOC["cyclic_order"], "9": [0, 1]}},
     "cyclic order at unknown vertex 9"),
    ({**PATH_DOC, "cyclic_order": {**PATH_DOC["cyclic_order"], "01": [1, 0]}},
     "$.cyclic_order[01]"),
]
MALFORMED += [(command, doc, where) for command in ("algebra", "realize")
              for doc, where in MALFORMED_PATHS]


@pytest.mark.parametrize(
    "command, doc, where", MALFORMED,
    ids=["outer-int", "inner-list", "start-string", "cyclic-order-list", "directory",
         "star-bool", "edge-id-list", "end-list", "vertex-list",
         *(f"{command}-{case}" for command in ("algebra", "realize")
           for case in ("order-entry-list", "edge-id-string", "order-at-unknown-vertex",
                        "order-key-repeated"))],
)
def test_cli_malformed_input_is_an_input_error(tmp_path, capsys, command, doc, where):
    """Malformed input exits 2, naming where it is wrong, with no traceback
    and not as a verification failure (exit 1); a directory is no file."""
    path = tmp_path
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
    extra = ["-n", "4", "-k", "1"] if command == "endo" else []
    rc, _, err = run_cli(capsys, [command, str(path), *extra])
    assert rc == 2
    assert err.startswith("input error:") and where in err


def test_covering_of_no_vertices_is_refused():
    """With no n given, n is the sum of the outer sizes; no outer
    intervals would make a covering of a 0-gon."""
    with pytest.raises(SchemaError, match="n >= 1"):
        covering_from_json({"outer": [], "mode": "deg0"})


def test_cli_enumerate_both(capsys):
    rc, out, _ = run_cli(capsys, ["--json", "enumerate-tilting", "2", "1", "--mode", "both"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["brute_total"] == 6
    assert doc["match"] is True


def test_cli_enumerate_budget(capsys):
    rc, _, err = run_cli(capsys, ["enumerate-tilting", "6", "1", "--mode", "brute"])
    assert rc == 2
    assert "n <= 5 and k <= 2" in err


def worked_covering_file(tmp_path):
    cov = tmp_path / "cov.json"
    cov.write_text(
        json.dumps(
            {
                "outer": [{"start": 1, "size": 4}],
                "inner": {"0": [{"start": 2, "size": 3}, {"start": 2, "size": 2}]},
                "mode": "deg0",
            }
        )
    )
    return cov


def test_cli_endo_dot(tmp_path, capsys):
    cov = worked_covering_file(tmp_path)
    rc, out, _ = run_cli(capsys, ["--dot", "endo", str(cov), "-n", "4", "-k", "1"])
    assert rc == 0
    assert "doublecircle" in out
    assert "P_4->P_1" in out
    rc, out, _ = run_cli(capsys, ["endo", str(cov), "-n", "4", "-k", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["a_cycles"]) >= 1
    assert doc["multiplicity"] == 1


def test_cli_endo_decodes_once(tmp_path, capsys, monkeypatch):
    """The A-cycles the witness log prints are the ones the tree is built
    from: one generic decode per command."""
    from brauertilt import endo

    calls = []
    original = endo.a_cycle_generic

    def counting(E):
        calls.append(E)
        return original(E)

    monkeypatch.setattr(endo, "a_cycle_generic", counting)
    cov = worked_covering_file(tmp_path)
    rc, _, _ = run_cli(capsys, ["endo", str(cov), "-n", "4", "-k", "1"])
    assert rc == 0
    assert len(calls) == 1


def test_cli_realize_roundtrip(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(
        json.dumps(
            {
                "vertices": [0, 1, 2],
                "edges": [{"id": 0, "ends": [0, 1]}, {"id": 1, "ends": [1, 2]}],
                "cyclic_order": {"0": [0], "1": [0, 1], "2": [1]},
                "exceptional": 0,
                "multiplicity": 2,
            }
        )
    )
    rc, out, _ = run_cli(capsys, ["realize", str(tree)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["roundtrip_verified"] is True


def test_cli_verify_suite(capsys):
    rc, out, _ = run_cli(capsys, ["verify", "line-example"])
    assert rc == 0
    assert out.startswith("PASS")
    rc, _, err = run_cli(capsys, ["verify", "no-such-suite"])
    assert rc == 2


def test_cli_rejects_composite_field_prime(capsys):
    rc, out, err = run_cli(capsys, ["--field-prime", "4", "verify", "length-bound"])
    assert rc == 2
    assert "PASS" not in out
    assert "prime" in err


def test_cli_leaves_module_state_alone(capsys):
    from brauertilt import modules

    before = dict(vars(modules))
    rc, _, _ = run_cli(capsys, ["verify", "socle-quotient"])
    assert rc == 0
    after = vars(modules)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    # the flags that used to set a module global or a process pool are refused
    for flag in (["--seed", "5"], ["--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*flag, "verify", "line-example"])
        assert exc.value.code == 2
