"""Cube-category encodings: vertex actions, composition, recognition."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import distance, encode_poset_map, map_compose, map_vertex_ids
from hdts.encoding import (
    NEG,
    POS,
    CubeEncoding,
    NotCubeMapError,
    all_encodings,
    compose,
    cube_state_id,
    cube_vertices,
    edge_ids,
    face_encoding,
    face_rows,
    identity_encoding,
    swap_rows,
    sym_encoding,
    vertex_ids,
    word_along,
)


def vertex_table(enc):
    return {eps: enc.apply(eps) for eps in cube_vertices(enc.m)}


def test_face_inserts_constant():
    f = face_encoding(1, 0, 2)
    assert f.fhat == (NEG, 1)
    assert f.apply((0,)) == (0, 0)
    assert f.apply((1,)) == (0, 1)


def test_sym_swaps_coordinates():
    s = sym_encoding(1, 3)
    assert s.apply((1, 0, 1)) == (0, 1, 1)


def test_encode_identity():
    enc = encode_poset_map(2, 2, {eps: eps for eps in cube_vertices(2)})
    assert enc == identity_encoding(2)


def test_encode_face():
    table = {eps: (0,) + eps for eps in cube_vertices(1)}
    enc = encode_poset_map(1, 2, table)
    assert enc == face_encoding(1, 0, 2)
    assert enc.fhat == (NEG, 1)


def test_encode_rejects_max_min():
    table = {
        eps: (max(eps), min(eps)) for eps in cube_vertices(2)
    }
    with pytest.raises(NotCubeMapError, match="coordinate 1"):
        encode_poset_map(2, 2, table)


def test_encode_rejects_unused_coordinate():
    table = {eps: (eps[0], eps[0]) for eps in cube_vertices(2)}
    with pytest.raises(NotCubeMapError):
        encode_poset_map(2, 2, table)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_encode_round_trip(data):
    m = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(m, 4))
    encs = all_encodings(m, n)
    enc = data.draw(st.sampled_from(list(encs)))
    assert encode_poset_map(m, n, vertex_table(enc)) == enc


def test_vertex_ids_number_the_image_of_each_vertex():
    for n in range(5):
        for m in range(n + 1):
            for enc in all_encodings(m, n):
                ids = vertex_ids(enc)
                assert len(ids) == 2**m
                for k, eps in enumerate(cube_vertices(m)):
                    assert ids[k] == cube_state_id(enc.apply(eps))


def test_compose_with_identity():
    for enc in all_encodings(1, 3):
        assert compose(enc, identity_encoding(3)) == enc
        assert compose(identity_encoding(1), enc) == enc


def test_compose_faces_matches_vertex_composition():
    f = face_encoding(1, 0, 2)   # [1] -> [2]
    g = face_encoding(3, 1, 3)   # [2] -> [3]
    comp = compose(f, g)
    for eps in cube_vertices(1):
        assert comp.apply(eps) == g.apply(f.apply(eps))
    assert comp.fhat == (NEG, 1, POS)


def test_swap_is_involutive():
    s = sym_encoding(1, 2)
    assert compose(s, s) == identity_encoding(2)


def test_compose_is_associative_and_unital_on_samples():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(0, 3)
        n = rng.randint(m, 4)
        p = rng.randint(n, 4)
        q = rng.randint(p, 4)
        f = rng.choice(all_encodings(m, n))
        g = rng.choice(all_encodings(n, p))
        h = rng.choice(all_encodings(p, q))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, identity_encoding(n)) == f


def test_distance():
    assert distance((0, 0), (1, 1)) == 2
    assert distance((0, 1, 0), (0, 1, 1)) == 1
    assert distance((1, 0), (1, 0)) == 0
    with pytest.raises(ValueError):
        distance((0,), (0, 1))


@pytest.mark.parametrize(
    "m,n",
    [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)],
)
def test_encoding_counts_match_formula(m, n):
    expected = math.comb(n, m) * math.factorial(m) * 2 ** (n - m)
    assert len(all_encodings(m, n)) == expected


def test_encodings_are_injective_maps():
    for enc in all_encodings(2, 3):
        images = [enc.apply(eps) for eps in cube_vertices(2)]
        assert len(set(images)) == len(images)
        for u, v in itertools.combinations(cube_vertices(2), 2):
            if distance(u, v) == 1:
                assert distance(enc.apply(u), enc.apply(v)) == 1


@pytest.mark.parametrize(
    "args",
    [
        (1, 1, (1.0,)),
        (1, 1, (True,)),
        (1, 1, ("1",)),
        (1, 2, (1, 0)),
        (1, 2, (1, None)),
        (-1, 0, ()),
        (0, -1, ()),
        (True, 1, (1,)),
        (1.0, 1, (1,)),
    ],
)
def test_constructor_rejects_what_is_not_a_cube_map(args):
    with pytest.raises(NotCubeMapError):
        CubeEncoding(*args)


@pytest.mark.parametrize(
    "make,args",
    [
        (face_encoding, (1, 7, 1)),
        (face_encoding, (1, -1, 2)),
        (face_encoding, (1, True, 1)),
        (face_encoding, (1, 1.0, 1)),
        (face_encoding, (1.0, 0, 1)),
        (face_encoding, (0, 0, 1)),
        (sym_encoding, (1.0, 2)),
        (sym_encoding, (True, 2)),
        (sym_encoding, (2, 2)),
    ],
)
def test_faces_and_swaps_reject_bad_arguments(make, args):
    face_encoding(1, 1, 1), sym_encoding(1, 2)  # cached values must not answer for these
    with pytest.raises(NotCubeMapError):
        make(*args)


def test_compose_matches_the_map_by_map_oracle_and_returns_rows():
    for p in range(5):
        for n in range(p + 1):
            for m in range(n + 1):
                rows = {id(enc) for enc in all_encodings(m, p)}
                for f in all_encodings(m, n):
                    for g in all_encodings(n, p):
                        got = compose(f, g)
                        assert got == map_compose(f, g)
                        assert id(got) in rows


def test_tables_match_the_map_by_map_oracle():
    for n in range(5):
        letters = tuple(f"x{j}" for j in range(1, n + 1))
        assert identity_encoding(n) is all_encodings(n, n)[0]
        for m in range(n + 1):
            for k, enc in enumerate(all_encodings(m, n)):
                if m:
                    faces = [all_encodings(m - 1, n)[r] for r in face_rows(m, n)[k]]
                    assert faces == [
                        map_compose(face_encoding(i, alpha, m), enc)
                        for i in range(1, m + 1)
                        for alpha in (0, 1)
                    ]
                swaps = [all_encodings(m, n)[r] for r in swap_rows(m, n)[k]]
                assert swaps == [map_compose(sym_encoding(i, m), enc) for i in range(1, m)]
                assert vertex_ids(enc) == map_vertex_ids(enc)
                edges = [all_encodings(1, n)[r] for r in edge_ids(enc)]
                assert edges == [map_compose(g, enc) for g in all_encodings(1, m)]
                assert word_along(letters, enc) == tuple(
                    letters[enc.fbar_inv(i) - 1] for i in range(1, m + 1)
                )


def test_faces_and_swaps_are_rows():
    for n in range(1, 5):
        rows = {id(enc) for enc in all_encodings(n - 1, n) + all_encodings(n, n)}
        for i in range(1, n + 1):
            assert id(face_encoding(i, 0, n)) in rows and id(face_encoding(i, 1, n)) in rows
            if i < n:
                assert id(sym_encoding(i, n)) in rows


def test_cached_hash_and_identity_match_their_definitions():
    """A row computes its hash and ``is_identity`` once; both must be
    the dataclass's definitions, on every row up to dimension 4 and on
    encodings the constructor builds, as ``unrealize_cube_map`` does."""
    from hdts.realize import realize_cube_map, unrealize_cube_map

    def check(enc):
        assert hash(enc) == hash((enc.m, enc.n, enc.fhat))
        assert enc.is_identity == (enc.m == enc.n and enc.fhat == tuple(range(1, enc.n + 1)))

    for n in range(5):
        for m in range(n + 1):
            for enc in all_encodings(m, n):
                check(enc)
                fresh = CubeEncoding(m, n, list(enc.fhat))
                check(fresh)
                assert fresh == enc and hash(fresh) == hash(enc)
    word = ("a", "b", "a")
    for m in range(4):
        for enc in all_encodings(m, 3):
            got = unrealize_cube_map(realize_cube_map(enc, word_along(word, enc), word))
            check(got)
            assert got == enc and got is not enc
