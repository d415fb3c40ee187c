"""JSON schemas, strict readers, DOT export, and the precube writer."""

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    ALPHA,
    CCS_CORPUS,
    RANDOM_SYNC_TERMS,
    keyed_tables,
    pattern_words,
    random_rec_term,
)
from hdts import compile_text, cube, cubify, parallel_edges, realize, standard_cube, truncate
from hdts.cli import main
from hdts.core import Action, WeakHDTS, transition
from hdts.fixtures import build_fixture, fixture_names, not_strong_complex
from hdts.precube import (
    EMPTY_PRECUBE,
    PrecubeError,
    PrecubicalSet,
    check_relations,
    glue,
    make_precube,
)
from hdts.serialize import (
    SchemaError,
    alphabet_from_json,
    alphabet_to_json,
    detect_kind,
    dumps,
    hdts_from_json,
    hdts_to_dot,
    hdts_to_json,
    precube_from_json,
    precube_to_dot,
    precube_to_json,
)


def test_hdts_round_trip():
    X = cube(("a", "b"))
    assert hdts_from_json(hdts_to_json(X)) == X


def test_precube_round_trip():
    for K in [standard_cube(("a", "b", "c")), not_strong_complex()]:
        assert precube_from_json(precube_to_json(K)) == K


def test_alphabet_round_trip():
    assert alphabet_from_json(alphabet_to_json(ALPHA)) == ALPHA


def test_fixtures_round_trip_bit_exactly():
    for name in fixture_names():
        kind, obj = build_fixture(name)
        if kind == "hdts":
            doc = hdts_to_json(obj)
            text = dumps(doc)
            again = dumps(hdts_to_json(hdts_from_json(json.loads(text))))
        else:
            doc = precube_to_json(obj)
            text = dumps(doc)
            again = dumps(precube_to_json(precube_from_json(json.loads(text))))
        assert text == again


def test_reader_rejects_unsorted_action_multiset():
    doc = hdts_to_json(cube(("a", "b")))
    doc["transitions"][-1]["acts"] = [2, 1]
    with pytest.raises(SchemaError, match=r"transitions\[\d+\].acts"):
        hdts_from_json(doc)


def test_reader_rejects_dangling_state():
    doc = hdts_to_json(cube(("a",)))
    doc["transitions"][0]["tgt"] = 99
    with pytest.raises(SchemaError, match="tgt"):
        hdts_from_json(doc)


def test_reader_rejects_duplicate_action_ids():
    doc = {"states": [0], "actions": [{"id": 1, "label": "a"}, {"id": 1, "label": "b"}],
           "transitions": []}
    with pytest.raises(SchemaError, match="actions"):
        hdts_from_json(doc)


def test_precube_reader_rejects_bad_word_length():
    doc = precube_to_json(standard_cube(("a",)))
    doc["dims"]["1"][0]["label"] = ["a", "b"]
    with pytest.raises(SchemaError, match="label"):
        precube_from_json(doc)


def test_precube_reader_rejects_broken_relations():
    doc = precube_to_json(standard_cube(("a", "b")))
    doc["dims"]["2"][0]["faces"]["1,0"] = 0
    doc["dims"]["2"][0]["faces"]["1,1"] = 0
    with pytest.raises(SchemaError):
        precube_from_json(doc)


def test_precube_reader_rejects_non_object_decoration():
    doc = precube_to_json(standard_cube(("a",)))
    doc["decoration"] = [1]
    with pytest.raises(SchemaError, match="decoration"):
        precube_from_json(doc)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("initial", 7, "initial: must be a vertex id"),
        ("decoration", {"7": "x"}, "decoration.7: keys must be vertex ids"),
    ],
    ids=["initial", "decoration"],
)
def test_precube_reader_names_the_key_of_a_missing_vertex(key, value, message):
    doc = precube_to_json(standard_cube(("a",)))
    doc[key] = value
    with pytest.raises(SchemaError) as exc:
        precube_from_json(doc)
    assert str(exc.value) == message


def _add_dimension_key(doc):
    doc["dims"]["00"] = [{"id": 7}]


def _add_face_key(doc):
    doc["dims"]["2"][0]["faces"]["01,0"] = 1


def _add_swap_key(doc):
    doc["dims"]["2"][0]["syms"]["01"] = 0


def _add_decoration_key(key):
    def mutate(doc):
        doc["decoration"] = {"0": "x", key: "y"}

    return mutate


@pytest.mark.parametrize(
    "mutate,path",
    [
        (_add_dimension_key, "dims.00"),
        (_add_face_key, "dims.2[0].faces.01,0"),
        (_add_swap_key, "dims.2[0].syms.01"),
        (_add_decoration_key("00"), "decoration.00"),
        (_add_decoration_key("-0"), "decoration.-0"),
        (_add_decoration_key("-05"), "decoration.-05"),
    ],
    ids=["dimension", "face", "swap", "decoration", "decoration-minus-0", "decoration-minus-05"],
)
def test_precube_reader_rejects_integer_keys_with_leading_zeros(mutate, path):
    # "00" and "0" would read as one integer, and the later key would win
    doc = precube_to_json(standard_cube(("a", "b")))
    mutate(doc)
    with pytest.raises(SchemaError) as exc:
        precube_from_json(doc)
    assert str(exc.value).startswith(f"{path}: ")


def test_precube_reader_keeps_negative_decoration_keys():
    doc = {"dims": {"0": [{"id": -5}, {"id": 10}]}, "decoration": {"-5": "x", "10": "y"}}
    assert precube_from_json(doc).decoration == {-5: "x", 10: "y"}


def test_detect_kind():
    assert detect_kind(hdts_to_json(cube(()))) == "hdts"
    assert detect_kind(precube_to_json(standard_cube(()))) == "precube"
    with pytest.raises(SchemaError):
        detect_kind({"foo": 1})


def test_dot_square_counts():
    text = hdts_to_dot(cube(("a", "b")))
    assert text.count("shape=circle") == 4
    assert text.count("->") == 4  # only one-step transitions are drawn


def test_dot_dashes_silent_edges():
    from hdts import compile_text

    K = compile_text("a.nil || abar.nil", ALPHA)
    text = precube_to_dot(K, ALPHA.tau)
    assert text.count("style=dashed") == 1
    assert text.count("->") == 5


def test_dot_escapes_backslashes_and_quotes():
    # a bare backslash before the closing quote would escape it
    X = WeakHDTS(frozenset({0, 1}), (Action(1, "a\\"), Action(2, 'b"')),
                 frozenset({transition(0, (1,), 1), transition(0, (2,), 1)}))
    assert hdts_to_dot(X).splitlines()[3:5] == [
        r'  s0 -> s1 [label="a\\"];',
        r'  s0 -> s1 [label="b\""];',
    ]
    K = make_precube({0: (0, 1), 1: (0,)}, {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1}, {},
                     {(1, 0): ("a\\",)}, {0: 'x\\"'}, 0)
    assert precube_to_dot(K).splitlines()[1:4] == [
        r'  v0 [shape=doublecircle, label="x\\\""];',
        '  v1 [shape=circle, label="1"];',
        r'  v0 -> v1 [label="a\\"];',
    ]


def test_dot_empty_graph():
    from hdts import WeakHDTS

    text = hdts_to_dot(WeakHDTS(frozenset(), (), frozenset()))
    assert text == "digraph hdts {\n}\n"


def test_dumps_is_deterministic():
    X = parallel_edges("a")
    assert dumps(hdts_to_json(X)) == dumps(hdts_to_json(parallel_edges("a")))


# ---------------------------------------------------------------------------
# the precube writer against json.dumps of the schema's dict form


def assert_written_from_tables(K):
    # dumps of a dict is json.dumps(..., sort_keys=True, indent=2) + "\n"
    assert dumps(K) == dumps(precube_to_json(K))


@pytest.mark.parametrize(
    "terms",
    [CCS_CORPUS, RANDOM_SYNC_TERMS, [random_rec_term(seed) for seed in range(200)]],
    ids=["corpus", "random-sync", "random-rec"],
)
def test_compiled_precubes_are_written_as_json_dumps_writes_them(terms):
    for text in terms:
        assert_written_from_tables(compile_text(text, ALPHA, 4))


def test_standard_cubes_are_written_as_json_dumps_writes_them():
    """One word per pattern of repeated letters up to 5 letters, and one
    6-letter word."""
    for word in [w for n in range(6) for w in pattern_words(n)] + [("a", "b", "tau") * 2]:
        assert_written_from_tables(standard_cube(word))


def test_empty_and_undecorated_precubes_are_written_as_json_dumps_writes_them():
    assert dumps(EMPTY_PRECUBE) == '{\n  "dims": {}\n}\n'
    assert_written_from_tables(EMPTY_PRECUBE)
    K = compile_text("a.nil + b.nil", ALPHA)
    assert_written_from_tables(replace(K, initial=None))
    assert_written_from_tables(replace(K, decoration={}))
    assert_written_from_tables(not_strong_complex())


#: strings json must escape: quotes, backslashes, control characters,
#: non-ASCII text and a lone surrogate
ODD_TEXT = st.lists(
    st.sampled_from(["a", "tau", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u20ac",
                     "\U0001f600", "\ud800", "%s"]),
    max_size=3,
).map("".join)
CELL_IDS = st.integers(-3, 12)


@st.composite
def raw_precubes(draw):
    """A ``PrecubicalSet`` of up to three dimensions in 0..11 with rows
    drawn at random: the writer reads them without checking relations."""
    cells = {
        n: draw(st.lists(CELL_IDS, min_size=1, max_size=2, unique=True))
        for n in draw(st.lists(st.integers(0, 11), max_size=3, unique=True))
    }
    faces, syms, labels = {}, {}, {}
    for n, ids in cells.items():
        faces[n], syms[n], labels[n] = {}, {}, {}
        for c in ids:
            faces[n][c] = sum((draw(st.tuples(CELL_IDS, CELL_IDS)) for _ in range(n)), ())
            syms[n][c] = tuple(draw(CELL_IDS) for _ in range(1, n))
            labels[n][c] = tuple(draw(st.lists(ODD_TEXT, min_size=n, max_size=n))) if n else ()
    decoration = draw(st.dictionaries(st.integers(-12, 12), ODD_TEXT, max_size=4))
    return PrecubicalSet(cells, faces, syms, labels, decoration, draw(st.none() | CELL_IDS))


@st.composite
def renumbered_cubes(draw):
    """A truncated standard cube of up to three letters with its cells
    renumbered at random in each dimension, decorated vertices and maybe
    an initial vertex, built by ``glue``: a set the relations hold on."""
    word = draw(st.lists(st.sampled_from(["a", "b", "tau", '"']), max_size=3))
    K = truncate(standard_cube(word), draw(st.integers(0, len(word))))
    ids = {}
    for n in K.dims():
        new = draw(st.lists(CELL_IDS, min_size=len(K.ncells(n)), max_size=len(K.ncells(n)),
                            unique=True))
        ids.update(zip([(n, c) for c in K.ncells(n)], new))
    vertices = [ids[(0, v)] for v in K.vertices]
    decoration = draw(st.dictionaries(st.sampled_from(vertices), ODD_TEXT, max_size=3))
    out = glue([(K, ids)], draw(st.none() | st.sampled_from(vertices)))
    return replace(out, decoration=decoration)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(K=raw_precubes())
def test_generated_precubes_are_written_as_json_dumps_writes_them(K):
    assert_written_from_tables(K)


def assert_make_precube_rebuilds(K):
    """``make_precube`` of ``K``'s keyed tables is ``K``, written to the
    same bytes, or fails as ``check_relations(K)`` fails."""
    keyed = (K.cells, *keyed_tables(K), K.decoration, K.initial, K.truncated)
    try:
        check_relations(K)
    except PrecubeError as exc:
        with pytest.raises(PrecubeError) as again:
            make_precube(*keyed)
        assert str(again.value) == str(exc)
        return
    rebuilt = make_precube(*keyed)
    assert rebuilt == K and dumps(rebuilt) == dumps(K)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(K=raw_precubes())
def test_make_precube_rebuilds_generated_sets_or_fails_as_the_check_fails(K):
    assert_make_precube_rebuilds(K)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(K=renumbered_cubes())
def test_make_precube_rebuilds_renumbered_cubes(K):
    check_relations(K)
    assert_make_precube_rebuilds(K)


# ---------------------------------------------------------------------------
# the system writer and the cubify document against json.dumps of dicts


def old_dumps(doc) -> str:
    """What ``dumps`` wrote for every document before systems were
    written from their fields: ``json.dumps`` of the dict forms."""
    def plain(value):
        if isinstance(value, WeakHDTS):
            return hdts_to_json(value)
        if isinstance(value, PrecubicalSet):
            return precube_to_json(value)
        return value

    if isinstance(doc, dict):
        doc = {key: plain(value) for key, value in doc.items()}
    return json.dumps(plain(doc), sort_keys=True, indent=2) + "\n"


#: small ids, both signs, and ids past 64 bits
SYSTEM_IDS = st.integers(-3, 6) | st.sampled_from([-(2**63), 2**64, 10**30])


@st.composite
def raw_systems(draw):
    """A ``WeakHDTS`` with up to five states and actions, odd labels and
    up to six transitions of arity 1..3; lists may be empty."""
    states = draw(st.lists(SYSTEM_IDS, max_size=5, unique=True))
    ids = draw(st.lists(SYSTEM_IDS, max_size=5, unique=True))
    actions = tuple(Action(a, draw(ODD_TEXT)) for a in ids)
    transitions = []
    if states and ids:
        ends, acts = st.sampled_from(states), st.lists(st.sampled_from(ids), min_size=1, max_size=3)
        transitions = draw(st.lists(st.builds(transition, ends, acts, ends), max_size=6))
    return WeakHDTS(frozenset(states), actions, frozenset(transitions))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(X=raw_systems())
def test_generated_systems_are_written_as_json_dumps_writes_them(X):
    assert dumps(X) == json.dumps(hdts_to_json(X), sort_keys=True, indent=2) + "\n"


def test_empty_systems_are_written_as_json_dumps_writes_them():
    empty = WeakHDTS(frozenset(), (), frozenset())
    assert dumps(empty) == '{\n  "actions": [],\n  "states": [],\n  "transitions": []\n}\n'
    for X in [empty, WeakHDTS(frozenset({0}), (), frozenset()), cube(("a", "b", "a"))]:
        assert dumps(X) == old_dumps(X)


def cubify_document(K, X, states: int = 0) -> dict:
    attestation = {"state_bijection": True, "states": states, "actions_in": 0,
                   "actions_out": len(X.actions)}
    return {"complex": K, "system": X, "attestation": attestation}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(K=raw_precubes(), X=raw_systems())
def test_generated_cubify_documents_are_written_as_json_dumps_writes_them(K, X):
    assert dumps(cubify_document(K, X)) == old_dumps(cubify_document(K, X))


def test_cubify_documents_of_empty_and_one_state_complexes():
    point = make_precube({0: (0,)}, {}, {}, {})
    for K in [EMPTY_PRECUBE, point, standard_cube(("a", "a"))]:
        doc = cubify_document(K, realize(K).system, len(K.vertices))
        assert dumps(doc) == old_dumps(doc)
    for word in ["", "ab", "aab", "abcd"]:
        got = cubify(cube(tuple(word)))
        doc = cubify_document(got.complex, got.system, 2 ** len(word))
        assert dumps(doc) == old_dumps(doc)


@pytest.mark.parametrize("name", fixture_names())
def test_cli_writes_every_fixture_as_the_dict_path_wrote_it(name, tmp_path, capsys):
    kind, obj = build_fixture(name)
    path = str(tmp_path / f"{name}.json")
    Path(path).write_text(old_dumps(obj), encoding="utf-8")
    expected = {("export", path, "--format", "json"): old_dumps(obj),
                ("fixtures", "emit", name): old_dumps(obj)}
    if kind == "precube":
        expected[("realize", path)] = old_dumps(realize(obj).system)
    else:
        got = cubify(obj)
        attestation = {"state_bijection": True, "states": len(obj.states),
                       "actions_in": len(obj.actions), "actions_out": len(got.system.actions)}
        expected[("cubify", path)] = old_dumps(
            {"complex": got.complex, "system": got.system, "attestation": attestation}
        )
        prefix = tmp_path / "out" / name
        expected[("cubify", path, "--out-prefix", str(prefix))] = old_dumps(attestation)
    for argv, text in expected.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == text, argv
    if kind == "hdts":
        assert Path(f"{prefix}.complex.json").read_text(encoding="utf-8") == old_dumps(got.complex)
        assert Path(f"{prefix}.system.json").read_text(encoding="utf-8") == old_dumps(got.system)
