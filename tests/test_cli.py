"""End-to-end runs of the command-line driver."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hdts
from corpus import ALPHA, random_failing_hdts
from hdts import cube, iso_check
from hdts.ccs import MAX_REGION_CELLS
from hdts.cli import main
from hdts.fixtures import build_fixture
from hdts.serialize import alphabet_to_json, dumps, hdts_from_json, hdts_to_json


@pytest.fixture
def fixture_file(tmp_path):
    def write(name):
        from hdts.serialize import precube_to_json

        kind, obj = build_fixture(name)
        doc = hdts_to_json(obj) if kind == "hdts" else precube_to_json(obj)
        path = tmp_path / f"{name}.json"
        path.write_text(dumps(doc), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def alphabet_file(tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(dumps(alphabet_to_json(ALPHA)), encoding="utf-8")
    return str(path)


def test_check_passing_cube(fixture_file, capsys):
    code = main(["check", fixture_file("cube_ab")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["uisa"] and report["csa1"] and report["coherence_closed"]


def test_check_parallel_arrows_fails_csa1(fixture_file, capsys):
    code = main(["check", fixture_file("Da")])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["csa1"] is False
    assert report["uisa"] is True
    assert report["witnesses"]["csa1"]["first"] == [0, [1], 1]


def test_check_not_strong_complex(fixture_file, capsys):
    code = main(["check", fixture_file("notstrong")])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["hda"] is True
    assert report["strong"] is False and report["uisa"] is False
    assert report["csa1"] is True


def test_check_rejects_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"states": [0], "transitions": [{"src": 0, "acts": [], "tgt": 0}]}')
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "acts" in err


def test_check_rejects_non_object_decoration(tmp_path, capsys):
    path = tmp_path / "deco.json"
    path.write_text('{"dims": {"0": [{"id": 0}]}, "decoration": [1]}')
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: decoration: must be an object\n"


SQUARE_ROWS = (
    '"0": [{"id": 0}], "1": [{"id": 0, "d10": 0, "d11": 0, "label": ["a"]}], '
    '"2": [{"id": 0, "faces": {%s}, "syms": {%s}, "label": ["a", "a"]}]'
)
SQUARE_FACES = '"1,0": 0, "1,1": 0, "2,0": 0, "2,1": 0'


@pytest.mark.parametrize(
    "doc,path",
    [
        ('{"states": [0], "actions": 5}', "actions"),
        ('{"states": [0], "actions": [], "transitions": 5}', "transitions"),
        ('{"dims": {"\u00b2": []}}', "dims.\u00b2"),
        ('{"dims": {%s}}' % (SQUARE_ROWS % ('"\u00b2,0": 0', '"1": 0')),
         "dims.2[0].faces.\u00b2,0"),
        ('{"dims": {%s}}' % (SQUARE_ROWS % (SQUARE_FACES, '"\u00b2": 0')), "dims.2[0].syms.\u00b2"),
        ('{"dims": {"0": [{"id": 0}]}, "decoration": {"\u00b2": "x"}}', "decoration.\u00b2"),
        ('{"dims": {"0": [{"id": 0}]}, "decoration": {"--1": "x"}}', "decoration.--1"),
    ],
)
def test_check_malformed_input_is_an_input_error(tmp_path, capsys, doc, path):
    file = tmp_path / "bad.json"
    file.write_text(doc, encoding="utf-8")
    code = main(["check", str(file)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc,path",
    [
        ('{"dims": {"0": [{"id": 0}], "00": [{"id": 5}, {"id": 6}]}, '
         '"decoration": {"5": "x", "05": "y"}}', "dims.00"),
        ('{"dims": {"0": [{"id": 5}]}, "decoration": {"5": "x", "05": "y"}}', "decoration.05"),
        ('{"dims": {%s}}' % (SQUARE_ROWS % ('"1,0": 0, "01,0": 0, "1,1": 0, "2,0": 0, "2,1": 0',
                                           '"1": 0')), "dims.2[0].faces.01,0"),
        ('{"dims": {%s}}' % (SQUARE_ROWS % (SQUARE_FACES, '"1": 0, "01": 0')), "dims.2[0].syms.01"),
    ],
    ids=["dimension", "decoration", "face", "swap"],
)
@pytest.mark.parametrize("command", [["check"], ["export", "--format", "json"]])
def test_integer_keys_with_leading_zeros_are_input_errors(tmp_path, capsys, doc, path, command):
    # "05" and "5" read as one integer: the later key would silently win
    file = tmp_path / "bad.json"
    file.write_text(doc, encoding="utf-8")
    code = main([command[0], str(file)] + command[1:])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


OUT_OF_RANGE = [
    (SQUARE_FACES + ', "3,0": 0', '"1": 0', "dims.2[0].faces.3,0: face index must be in 1..2"),
    (SQUARE_FACES + ', "0,1": 0', '"1": 0', "dims.2[0].faces.0,1: face index must be in 1..2"),
    (SQUARE_FACES, '"1": 0, "2": 0', "dims.2[0].syms.2: swap index must be in 1..1"),
    (SQUARE_FACES, '"0": 0, "1": 0', "dims.2[0].syms.0: swap index must be in 1..1"),
]


@pytest.mark.parametrize(
    "faces,syms,error", OUT_OF_RANGE, ids=["face-3,0", "face-0,1", "swap-2", "swap-0"]
)
def test_out_of_range_face_and_swap_indices_are_input_errors(tmp_path, capsys, faces, syms, error):
    # a 2-cell has faces (1..2, 0..1) and swap 1; export used to drop any other key
    valid = tmp_path / "square.json"
    valid.write_text('{"dims": {%s}}' % (SQUARE_ROWS % (SQUARE_FACES, '"1": 0')))
    assert main(["check", str(valid)]) == 0
    file = tmp_path / "bad.json"
    file.write_text('{"dims": {%s}}' % (SQUARE_ROWS % (faces, syms)))
    capsys.readouterr()
    for command in (["check"], ["export", "--format", "json"]):
        code = main([command[0], str(file)] + command[1:])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {error}\n"


EDGE_SYSTEM = (
    '{"states": [0, %s], "actions": [{"id": %s, "label": "a"}], '
    '"transitions": [{"src": %s, "acts": [%s], "tgt": %s}]}'
)
EDGE_PRECUBE = (
    '{"dims": {"0": [{"id": 0}, {"id": %s}], '
    '"1": [{"id": 0, "d10": 0, "d11": %s, "label": ["a"]}]}, "initial": %s}'
)


BOOLEAN_IDS = [
    (EDGE_SYSTEM % ("true", 1, 0, 1, 1), "states"),
    (EDGE_SYSTEM % (1, "true", 0, 1, 1), "actions[0].id"),
    (EDGE_SYSTEM % (1, 1, 0, "true", 1), "transitions[0].acts"),
    (EDGE_SYSTEM % (1, 1, "false", 1, 1), "transitions[0].src"),
    (EDGE_SYSTEM % (1, 1, 0, 1, "true"), "transitions[0].tgt"),
    (EDGE_PRECUBE % ("true", 1, 0), "dims.0[1].id"),
    (EDGE_PRECUBE % (1, "true", 0), "dims.1[0].d11"),
    (EDGE_PRECUBE % (1, 1, "false"), "initial"),
    ('{"dims": {%s}}' % (SQUARE_ROWS % ('"1,0": true, "1,1": 0, "2,0": 0, "2,1": 0', '"1": 0')),
     "dims.2[0].faces.1,0"),
    ('{"dims": {%s}}' % (SQUARE_ROWS % (SQUARE_FACES, '"1": true')), "dims.2[0].syms.1"),
]


@pytest.mark.parametrize("doc,path", BOOLEAN_IDS, ids=[path for _, path in BOOLEAN_IDS])
def test_json_booleans_are_not_ids(tmp_path, capsys, doc, path):
    file = tmp_path / "bool.json"
    file.write_text(doc, encoding="utf-8")
    for command in (["check"], ["export", "--format", "json"]):
        code = main([command[0], str(file)] + command[1:])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and captured.err.count("\n") == 1


SQUARE = '{"dims": {%s}}' % (SQUARE_ROWS % (SQUARE_FACES, '"1": 0'))
EDGE, SYSTEM = EDGE_PRECUBE % (1, 1, 0), EDGE_SYSTEM % (1, 1, 0, 1, 1)
UNEXPECTED_KEYS = [
    (EDGE, (), "bar", "bar"),
    (EDGE, ("dims", "0", 0), "label", "dims.0[0].label"),
    (EDGE, ("dims", "0", 0), "d10", "dims.0[0].d10"),
    (EDGE, ("dims", "0", 1), "faces", "dims.0[1].faces"),
    (EDGE, ("dims", "1", 0), "faces", "dims.1[0].faces"),
    (EDGE, ("dims", "1", 0), "syms", "dims.1[0].syms"),
    (EDGE, ("dims", "1", 0), "foo", "dims.1[0].foo"),
    (SQUARE, ("dims", "2", 0), "d10", "dims.2[0].d10"),
    (SQUARE, ("dims", "2", 0), "foo", "dims.2[0].foo"),
    (SYSTEM, (), "bar", "bar"),
    (SYSTEM, ("actions", 0), "extra", "actions[0].extra"),
    (SYSTEM, ("transitions", 0), "label", "transitions[0].label"),
]


@pytest.mark.parametrize(
    "doc,where,key,path", UNEXPECTED_KEYS, ids=[path for *_, path in UNEXPECTED_KEYS]
)
def test_keys_the_schema_does_not_use_are_input_errors(tmp_path, capsys, doc, where, key, path):
    # the reader used to accept them and export to drop them
    valid = tmp_path / "valid.json"
    valid.write_text(doc)
    assert main(["check", str(valid)]) == 0
    data = json.loads(doc)
    target = data
    for step in where:
        target = target[step]
    target[key] = 2
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    capsys.readouterr()
    for command in (["check"], ["export", "--format", "json"]):
        code = main([command[0], str(file)] + command[1:])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}: unexpected key\n"


@pytest.mark.parametrize(
    "labels,path",
    [([["x"], "tau"], "labels[0]"), ([1, "tau"], "labels[0]"), (["x", {"y": 1}], "labels[1]")],
)
def test_alphabet_labels_must_be_strings(tmp_path, capsys, labels, path):
    alphabet = tmp_path / "alphabet.json"
    alphabet.write_text(json.dumps({"labels": labels, "tau": "tau"}), encoding="utf-8")
    system = tmp_path / "system.json"
    system.write_text('{"states": [0], "actions": []}', encoding="utf-8")
    for argv in (["check", str(system)], ["ccs", "compile", "x.nil"]):
        code = main(argv + ["--alphabet", str(alphabet)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {path}: must be a string\n"


def test_alphabet_keys_the_schema_does_not_use_are_input_errors(tmp_path, capsys):
    # a misspelt "involution" used to load as an alphabet with no pairs
    alphabet = tmp_path / "alphabet.json"
    doc = {"labels": ["a", "b", "tau"], "tau": "tau", "involutions": [["a", "b"]]}
    alphabet.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["ccs", "compile", "a.nil || b.nil", "--alphabet", str(alphabet)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: involutions: unexpected key\n"


def test_check_rejects_wrong_kind(fixture_file, capsys):
    code = main(["check", fixture_file("cube_ab"), "--kind", "precube"])
    assert code == 2


def test_check_unknown_label_against_alphabet(tmp_path, capsys):
    doc = {"states": [0, 1], "actions": [{"id": 1, "label": "zz"}],
           "transitions": [{"src": 0, "acts": [1], "tgt": 1}]}
    path = tmp_path / "sys.json"
    path.write_text(dumps(doc))
    alpha = tmp_path / "alpha.json"
    alpha.write_text(dumps(alphabet_to_json(ALPHA)))
    code = main(["check", str(path), "--alphabet", str(alpha)])
    assert code == 2
    assert "zz" in capsys.readouterr().err


def test_realize_double_square_gives_the_cube(fixture_file, capsys):
    code = main(["realize", fixture_file("doublesquare")])
    out = capsys.readouterr().out
    assert code == 0
    system = hdts_from_json(json.loads(out))
    assert iso_check(system, cube(("a", "b"))) is not None


def test_realize_not_strong_fails_uisa_downstream(fixture_file, capsys):
    assert main(["realize", fixture_file("notstrong")]) == 0
    system = hdts_from_json(json.loads(capsys.readouterr().out))
    from hdts import validate

    assert not validate(system).uisa


def test_cubify_cube_attests_state_bijection(fixture_file, tmp_path, capsys):
    code = main(["cubify", fixture_file("cube_ab"), "--out-prefix", str(tmp_path / "out")])
    attestation = json.loads(capsys.readouterr().out)
    assert code == 0
    assert attestation["state_bijection"] is True
    assert (tmp_path / "out.complex.json").exists()
    assert (tmp_path / "out.system.json").exists()


def test_cubify_glued_span(fixture_file, capsys):
    code = main(["cubify", fixture_file("span_glued")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    system = hdts_from_json(doc["system"])
    assert len(system.states) == 4 and len(system.actions) == 2


def test_cubify_lonely_action_is_empty(fixture_file, capsys):
    code = main(["cubify", fixture_file("lonely_action")])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["system"]["states"] == []


def test_writers_never_build_the_dict_forms(fixture_file, tmp_path, capsys, monkeypatch):
    # every command writes systems and sets from their fields
    paths = {name: fixture_file(name) for name in hdts.fixtures.fixture_names()}

    def refuse(*args, **kwargs):
        raise AssertionError("a dict form was built")

    for module_name, module in list(sys.modules.items()):
        for name in ("hdts_to_json", "precube_to_json"):
            if module_name.split(".")[0] == "hdts" and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="was built"):
        hdts.serialize.hdts_to_json(cube("a"))  # the patch is seen by callers
    for name, path in paths.items():
        kind = build_fixture(name)[0]
        runs = [["export", path, "--format", "json"], ["fixtures", "emit", name]]
        if kind == "hdts":
            runs += [["cubify", path], ["cubify", path, "--out-prefix", str(tmp_path / name)]]
        else:
            runs.append(["realize", path])
        for argv in runs:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
    capsys.readouterr()


def test_cubify_not_coherence_closed_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "unclosed.json"
    path.write_text(dumps(hdts_to_json(random_failing_hdts(345))), encoding="utf-8")
    assert main(["cubify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "not coherence-closed" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_export_dot_cube(fixture_file, capsys):
    code = main(["export", fixture_file("cube_ab")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("shape=circle") == 4
    assert out.count("->") == 4


def test_export_empty(fixture_file, capsys):
    code = main(["export", fixture_file("empty")])
    assert code == 0
    assert capsys.readouterr().out == "digraph hdts {\n}\n"


def test_export_json_is_canonical(fixture_file, capsys):
    path = fixture_file("cube_ab")
    assert main(["export", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["export", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_ccs_compile_json(alphabet_file, capsys):
    code = main(["ccs", "compile", "a.nil || abar.nil", "--alphabet", alphabet_file])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["dims"]["0"]) == 4
    assert len(doc["dims"]["1"]) == 5
    assert len(doc["dims"]["2"]) == 2


def test_ccs_compile_dot_has_one_dashed_edge(alphabet_file, capsys):
    code = main(
        ["ccs", "compile", "a.nil || abar.nil", "--alphabet", alphabet_file, "--out", "dot"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("style=dashed") == 1


def test_ccs_compile_syntax_error(alphabet_file, capsys):
    code = main(["ccs", "compile", "rec(x) x", "--alphabet", alphabet_file])
    assert code == 2
    assert "guarded" in capsys.readouterr().err


def test_ccs_compile_too_large_a_product_is_an_input_error(alphabet_file, capsys):
    # "+" binds tighter than "||": 21 components, whose product would
    # outgrow memory; the product bound stops it before it is built
    term = " + ".join(["a.b.nil || c.nil"] * 20)
    code = main(["ccs", "compile", term, "--alphabet", alphabet_file])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: parallel product too large: ") and err.count("\n") == 1


def test_check_too_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code = main(["check", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path} nests too deeply to read\n"


WRITERS = {
    "check": lambda files, out: ["check", files["cube"], "--out", out],
    "realize": lambda files, out: ["realize", files["square"], "--out", out],
    "export": lambda files, out: ["export", files["cube"], "--out", out],
    "ccs-compile": lambda files, out: ["ccs", "compile", "a.nil", "--alphabet",
                                       files["alphabet"], "--output", out],
    "fixtures-emit": lambda files, out: ["fixtures", "emit", "Da", "--out", out],
    "cubify": lambda files, out: ["cubify", files["cube"], "--out-prefix", out],
}


@pytest.mark.parametrize("command", list(WRITERS))
def test_an_output_that_cannot_be_written_is_an_input_error(
    fixture_file, alphabet_file, tmp_path, capsys, command
):
    files = {"cube": fixture_file("cube_ab"), "square": fixture_file("doublesquare"),
             "alphabet": alphabet_file}
    # cubify makes missing directories, so its prefix runs through a file
    (tmp_path / "file").write_text("", encoding="utf-8")
    parent = tmp_path / ("file" if command == "cubify" else "missing")
    code = main(WRITERS[command](files, str(parent / "dir" / "x.json")))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {parent}") and err.count("\n") == 1


def test_an_output_naming_a_directory_is_an_input_error(fixture_file, tmp_path, capsys):
    code = main(["check", fixture_file("cube_ab"), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


def test_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"states": ["\xff"]}')
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ") and err.count("\n") == 1


def test_an_alphabet_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "alphabet.json"
    path.write_bytes(b'{"labels": ["\xff"]}')
    code = main(["ccs", "compile", "nil", "--alphabet", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path} is not UTF-8 text: ") and err.count("\n") == 1


def test_an_internal_error_exits_3_with_one_line(fixture_file, monkeypatch, capsys):
    import hdts.cli

    def crash(system):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(hdts.cli, "validate", crash)
    code = main(["check", fixture_file("cube_ab")])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError('boom\\nsecond line')\n"


def test_ccs_compile_dead_recursion_variable_does_not_warn(alphabet_file, capsys):
    # a body without its variable is its own fixpoint after one unfolding
    outs = {}
    for unfold in ("1", "8"):
        argv = ["ccs", "compile", "rec(x) a.nil", "--alphabet", alphabet_file, "--unfold", unfold]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs[unfold] = captured.out
    assert outs["1"] == outs["8"]
    argv = ["ccs", "compile", "rec(x) a.nil", "--alphabet", alphabet_file, "--unfold", "0"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: recursion truncated at the unfold bound\n"
    assert json.loads(captured.out)["dims"] == {"0": [{"id": 0}]}


def test_ccs_compile_truncation_warns(alphabet_file, capsys):
    code = main(
        ["ccs", "compile", "rec(x) a.x", "--alphabet", alphabet_file, "--unfold", "3"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "truncated" in captured.err


@pytest.mark.parametrize("depth", ["-1", "two"])
def test_ccs_compile_rejects_bad_unfold_depth(alphabet_file, capsys, depth):
    with pytest.raises(SystemExit) as exc:
        main(["ccs", "compile", "a.nil", "--alphabet", alphabet_file, "--unfold", depth])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[-1].endswith(
        f"error: argument --unfold: must be a non-negative integer, not {depth!r}"
    )
    assert "Traceback" not in err


def test_fixtures_list_and_emit(capsys, tmp_path):
    assert main(["fixtures", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "cube_ab" in names and "notstrong" in names
    out = tmp_path / "da.json"
    assert main(["fixtures", "emit", "Da", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["transitions"] == [
        {"src": 0, "acts": [1], "tgt": 1},
        {"src": 0, "acts": [2], "tgt": 1},
    ]
    assert main(["fixtures", "emit", "nope"]) == 2


def test_fixtures_emit_unknown_name_is_an_input_error(capsys):
    assert main(["fixtures", "emit", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown fixture 'nosuch'; known: ")
    assert len(err.splitlines()) == 1


def _compile_in_fresh_process(term, alphabet, *extra):
    """Exit code, stdout and stderr of ``hdts ccs compile`` in its own
    interpreter, so that the recursion depth left to the command is the
    one a user gets, not what the test runner's stack leaves over."""
    src = str(Path(hdts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "hdts.cli", "ccs", "compile", term, "--alphabet", alphabet]
    done = subprocess.run(argv + list(extra), env=env, capture_output=True, text=True,
                          timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_ccs_compile_long_unfolding_stays_within_the_stack(alphabet_file):
    code, out, err = _compile_in_fresh_process("rec(x) a.x", alphabet_file, "--unfold", "600")
    assert code == 0
    assert err == "warning: recursion truncated at the unfold bound\n"
    assert len(json.loads(out)["dims"]["0"]) == 601


def test_ccs_compile_unfolds_1500_stages(alphabet_file):
    # each stage's decoration is built from the previous stage's text, so
    # stages do not nest on the stack
    code, out, err = _compile_in_fresh_process("rec(x) a.x", alphabet_file, "--unfold", "1500")
    assert code == 0
    assert err == "warning: recursion truncated at the unfold bound\n"
    assert len(json.loads(out)["dims"]["0"]) == 1501


def test_ccs_compile_long_prefix_chain(alphabet_file):
    code, out, err = _compile_in_fresh_process(".".join(["a"] * 900) + ".nil", alphabet_file)
    assert code == 0 and err == ""
    assert len(json.loads(out)["dims"]["1"]) == 900


def test_ccs_compile_long_closed_recursion_body(alphabet_file):
    # a body without its variable is compiled once, as its own fixpoint
    term = "rec(x) " + ".".join(["a"] * 600) + ".nil"
    code, out, err = _compile_in_fresh_process(term, alphabet_file, "--unfold", "2")
    assert code == 0 and err == ""
    assert len(json.loads(out)["dims"]["1"]) == 600


@pytest.mark.parametrize(
    "term,extra",
    [
        (".".join(["a"] * 3000) + ".nil", ()),
        ("(" * 250 + "a.nil" + ")" * 250, ()),
    ],
    ids=["3000-prefixes", "250-parentheses"],
)
def test_ccs_compile_too_deep_is_an_input_error(alphabet_file, term, extra):
    code, out, err = _compile_in_fresh_process(term, alphabet_file, *extra)
    assert code == 2
    assert out == ""
    assert err == "error: the term nests too deeply to compile\n"


def _run_bounded(*args, megabytes=512, seconds=10):
    """Exit code, stdout and stderr of this interpreter run on ``args`` in
    its own process, within ``megabytes`` of address space and ``seconds``
    of CPU time."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
        resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))

    src = str(Path(hdts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          preexec_fn=limit, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_check_one_16_ary_transition_within_bounds(tmp_path):
    # two states and one transition on 16 distinct actions: no split has an
    # intermediate state, so no check reads the splits of any part
    acts = list(range(1, 17))
    doc = {"states": [0, 1], "actions": [{"id": a, "label": f"a{a}"} for a in acts],
           "transitions": [{"src": 0, "acts": acts, "tgt": 1}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_bounded("-m", "hdts.cli", "check", str(path))
    assert code == 1, err
    witnesses = json.loads(out)["witnesses"]
    assert {name: w["split"] for name, w in witnesses.items()} == {
        "csa2": [1], "uisa": [1], "intermediate": [1]
    }
    closure = ("from hdts import coherence_closure, transition; "
               "T = frozenset({transition(0, range(1, 17), 1)}); print(coherence_closure(T) == T)")
    assert _run_bounded("-c", closure) == (0, "True\n", "")


@pytest.mark.parametrize(
    "term,digest",
    [
        ("rec(x) a.(x || nil)", "a2bada5dee555c1d8a08efcf8934985e8a733d3e6dbe919a127c3e9cb1c68aae"),
        ("rec(x) (a.x || nil)", "840e50e7f47601ef3dd5d6e616b1a12623fb42cb16c4394f2b5a485c46d1e5a3"),
    ],
    ids=["prefix-over-product", "product-over-prefix"],
)
def test_ccs_compile_recursion_through_a_product_within_bounds(alphabet_file, term, digest):
    # every stage is an operand of a product, so each stage's set is built;
    # a set is kept only while the current stage can still reach it, and
    # neither memory nor the stack grows with the unfolding beyond the output
    argv = ("-m", "hdts.cli", "ccs", "compile", term, "--alphabet", alphabet_file, "--unfold", "500")
    code, out, err = _run_bounded(*argv, megabytes=256, seconds=20)
    assert (code, err) == (0, "warning: recursion truncated at the unfold bound\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ccs_compile_region_over_the_cell_budget_is_an_input_error(alphabet_file):
    # the unfolding asks for about 2^41 cells; the walk stops at the budget,
    # within a second of CPU time (waiting for a busy machine not counted)
    argv = ("-m", "hdts.cli", "ccs", "compile", "rec(x) (a.x + b.x)", "--alphabet", alphabet_file,
            "--unfold", "40")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, err = _run_bounded(*argv, megabytes=512, seconds=10)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1
    assert (code, out) == (2, "")
    assert err == f"error: region too large: over {MAX_REGION_CELLS} cells\n"


@pytest.mark.parametrize("term", ["rec(x) a.x", "rec(x) (a.x || nil)"])
def test_ccs_compile_unfolding_over_the_cell_budget_is_an_input_error(alphabet_file, term):
    # every stage has more vertices than the one before, so a million stages
    # are refused before the second substitution, within a second of CPU time
    argv = ("-m", "hdts.cli", "ccs", "compile", term, "--alphabet", alphabet_file,
            "--unfold", "1000000")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, out, err = _run_bounded(*argv, megabytes=512, seconds=10)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1
    assert (code, out) == (2, "")
    assert err == f"error: unfolding too deep: 1000000 stages, over {MAX_REGION_CELLS} cells\n"


def test_outputs_are_deterministic(fixture_file, capsys):
    path = fixture_file("notstrong")
    assert main(["check", path]) in (0, 1)
    first = capsys.readouterr().out
    assert main(["check", path]) in (0, 1)
    assert capsys.readouterr().out == first
