"""JSON schemas, strict readers, DOT export."""

import json

import pytest

from corpus import ALPHA
from hdts import cube, parallel_edges, standard_cube
from hdts.fixtures import build_fixture, fixture_names, not_strong_complex
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


def test_dot_empty_graph():
    from hdts import WeakHDTS

    text = hdts_to_dot(WeakHDTS(frozenset(), (), frozenset()))
    assert text == "digraph hdts {\n}\n"


def test_dumps_is_deterministic():
    X = parallel_edges("a")
    assert dumps(hdts_to_json(X)) == dumps(hdts_to_json(parallel_edges("a")))
