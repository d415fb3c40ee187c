"""Realization, cube morphism dictionary, cubification."""

import itertools

import pytest

from corpus import (
    ALPHA,
    CCS_CORPUS,
    RANDOM_SYNC_TERMS,
    morphism_cube_maps_into,
    morphism_cubify,
    morphism_is_iso,
    pattern_words,
    random_cube_gluing,
    random_failing_hdts,
    random_mixed_corpus,
    random_precube_wedge,
    random_weak_hdts,
    used_actions,
    walk_realize,
)
from hdts import (
    HdtsMorphism,
    PrecubeMap,
    StructureError,
    boundary,
    colimit,
    colimit_presheaf,
    compile_text,
    cube,
    cube_maps_into,
    cubify,
    disjoint_union,
    edge_action_classes,
    hda_check,
    hom_enumerate,
    hom_enumerate_precube,
    in_hda_hdts,
    is_strong,
    iso_check,
    lone_action,
    parallel_edges,
    realize,
    realize_cube_map,
    realize_map,
    sh_reflect,
    standard_cube,
    unrealize_cube_map,
    validate,
)
from hdts.core import Action, WeakHDTS, check_morphism, transition
from hdts.encoding import face_encoding, sym_encoding
from hdts.fixtures import build_fixture, double_square, fixture_names, glued_span, not_strong_complex
from hdts.precube import PrecubicalSet, make_precube
from hdts.serialize import dumps, hdts_to_json, precube_to_json


def one_dim(edges, n_vertices):
    faces, labels = {}, {}
    for e, (lab, lo, hi) in enumerate(edges):
        faces[(1, e, 1, 0)] = lo
        faces[(1, e, 1, 1)] = hi
        labels[(1, e)] = (lab,)
    return make_precube(
        {0: tuple(range(n_vertices)), 1: tuple(range(len(edges)))}, faces, {}, labels
    )


# ---------------------------------------------------------------------------
# action classes


def test_square_merges_opposite_edges():
    assert len(edge_action_classes(standard_cube(("a", "b"))).classes) == 2


def test_one_dimensional_sets_keep_edges_apart():
    K = one_dim([("a", 0, 1), ("a", 0, 1), ("b", 1, 2)], 3)
    part = edge_action_classes(K)
    assert len(part.classes) == 3


def test_double_square_still_two_classes():
    assert len(edge_action_classes(double_square()).classes) == 2


# ---------------------------------------------------------------------------
# realization


@pytest.mark.parametrize(
    "word",
    [("a",), ("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "b", "a")],
)
def test_realize_standard_cubes_are_cube_systems(word):
    r = realize(standard_cube(word))
    assert iso_check(r.system, cube(word)) is not None
    assert r.closure_added == 0


def test_realize_double_square_collapses_invisibly():
    r = realize(double_square())
    assert iso_check(r.system, cube(("a", "b"))) is not None


def test_realize_not_strong_complex():
    r = realize(not_strong_complex())
    report = validate(r.system)
    assert report.csa1 and not report.uisa
    w = report.witnesses["uisa"]
    labels = r.system.label_map()
    src, acts, tgt = w["transition"]
    assert {labels[a] for a in acts} == {"u", "v"}
    assert w["intermediates"] == [2, 3]


def _oracle_precubes():
    yield from (standard_cube(w) for n in range(5) for w in pattern_words(n))
    yield from (standard_cube(w) for w in ("abcde", "abcdef"))
    yield from (compile_text(t, ALPHA, 4) for t in CCS_CORPUS + RANDOM_SYNC_TERMS)
    yield from (random_precube_wedge(seed) for seed in range(50))
    yield from (cubify(random_cube_gluing(seed)).complex for seed in range(50))
    yield from (K for kind, K in map(build_fixture, fixture_names()) if kind == "precube")


def test_realize_matches_the_walking_oracle():
    count = 0
    for K in _oracle_precubes():
        assert realize(K) == walk_realize(K)
        count += 1
    assert count == 25 + len(CCS_CORPUS) + len(RANDOM_SYNC_TERMS) + 50 + 50 + 3


def test_realize_never_calls_face(monkeypatch):
    # corners and directions come from the face rows, one dimension at a time
    inputs = [standard_cube("abcd"), compile_text("a.nil || b.nil || c.nil", ALPHA), double_square()]
    want = [walk_realize(K) for K in inputs]

    def refuse(*args, **kwargs):
        raise AssertionError("PrecubicalSet.face was called")

    monkeypatch.setattr(PrecubicalSet, "face", refuse)
    with pytest.raises(AssertionError, match="was called"):
        walk_realize(inputs[0])  # the patch is seen by the walk
    assert [realize(K) for K in inputs] == want


def test_realize_empty_and_vertex_only_complexes():
    from hdts.precube import EMPTY_PRECUBE

    r = realize(EMPTY_PRECUBE)
    assert not r.system.states and not r.system.actions and not r.system.transitions
    dots = make_precube({0: (0, 1)}, {}, {}, {})
    r = realize(dots)
    assert r.system.states == {0, 1} and not r.system.transitions


def test_hdts_pushout_of_boundary_inclusions_collapses():
    # gluing two cube systems along the image of the boundary complex
    frame = realize(boundary(("a", "b")))
    full = realize(standard_cube(("a", "b")))
    incl_map = PrecubeMap(
        boundary(("a", "b")),
        standard_cube(("a", "b")),
        {(n, c): c for n in boundary(("a", "b")).dims() for c in boundary(("a", "b")).ncells(n)},
    )
    f = realize_map(incl_map, frame, full)
    out = colimit([full.system, full.system, frame.system], [(2, 0, f), (2, 1, f)])
    assert iso_check(out.system, cube(("a", "b"))) is not None


def test_realize_respects_pushouts():
    # glue two squares along an edge, realize both ways
    frame = standard_cube(("a",))
    sq1 = standard_cube(("a", "b"))
    sq2 = standard_cube(("a", "c"))
    f1 = hom_enumerate_precube(frame, sq1)[0]
    f2 = hom_enumerate_precube(frame, sq2)[0]
    glued, cocones = colimit_presheaf([sq1, sq2, frame], [(2, 0, f1), (2, 1, f2)])
    left = realize(glued).system

    r1, r2, rf = realize(sq1), realize(sq2), realize(frame)
    g1 = realize_map(f1, rf, r1)
    g2 = realize_map(f2, rf, r2)
    right = colimit([r1.system, r2.system, rf.system], [(2, 0, g1), (2, 1, g2)]).system
    assert iso_check(left, right) is not None


def test_realize_preserves_sampled_wedge_colimits():
    import random

    for seed in range(6):
        rng = random.Random(seed)
        words = [
            tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 2)))
            for _ in range(2)
        ]
        cubes = [standard_cube(w) for w in words]
        point = make_precube({0: (0,)}, {}, {}, {})
        arrows = [
            (2, i, PrecubeMap(point, K, {(0, 0): rng.choice(K.vertices)}))
            for i, K in enumerate(cubes)
        ]
        glued, _ = colimit_presheaf(cubes + [point], arrows)
        left = realize(glued).system

        realized = [realize(K) for K in cubes] + [realize(point)]
        harrows = [
            (2, i, realize_map(f, realized[2], realized[i])) for (_, i, f) in arrows
        ]
        right = colimit([r.system for r in realized], harrows).system
        assert iso_check(left, right) is not None


def test_realize_map_faithful_on_sampled_wedges():
    from corpus import random_precube_wedge

    L = standard_cube(("a", "b"))
    rl = realize(L)
    for seed in range(4):
        K = random_precube_wedge(seed)
        rk = realize(K)
        maps = hom_enumerate_precube(K, L)
        images = [realize_map(f, rk, rl).key() for f in maps]
        assert len(set(images)) == len(maps)


def test_realize_commutes_with_filler_merging():
    for K in [double_square(), not_strong_complex(), standard_cube(("a", "b"))]:
        S, _ = sh_reflect(K)
        assert iso_check(realize(K).system, realize(S).system) is not None


def test_realizations_have_intermediate_states():
    for K in [
        standard_cube(("a", "b", "c")),
        double_square(),
        not_strong_complex(),
    ]:
        assert validate(realize(K).system).intermediate


def test_realize_map_faithful_into_unique_filler_targets():
    K = double_square()
    L = standard_cube(("a", "b"))
    maps = hom_enumerate_precube(K, L)
    rk, rl = realize(K), realize(L)
    images = [realize_map(f, rk, rl).key() for f in maps]
    assert len(set(images)) == len(maps)


def test_hom_bijection_for_strong_unique_filler_targets():
    pairs = [
        (standard_cube(("a",)), standard_cube(("a", "b"))),
        (standard_cube(("a", "b")), standard_cube(("a", "b"))),
        (boundary(("a", "b")), standard_cube(("a", "b"))),
        (double_square(), standard_cube(("a", "b"))),
    ]
    for K, L in pairs:
        assert is_strong(L) and not hda_check(L)
        n_pre = len(hom_enumerate_precube(K, L))
        n_sys = len(hom_enumerate(realize(K).system, realize(L).system))
        assert n_pre == n_sys


def test_hom_counts_differ_for_non_strong_target():
    N = not_strong_complex()
    K = standard_cube(("u", "v"))
    n_pre = len(hom_enumerate_precube(K, N))
    n_sys = len(hom_enumerate(realize(K).system, realize(N).system))
    assert n_pre == 1 and n_sys == 2


# ---------------------------------------------------------------------------
# cube morphism dictionary


def test_realize_cube_map_identity():
    from hdts.encoding import identity_encoding

    f = realize_cube_map(identity_encoding(2), ("a", "b"), ("a", "b"))
    assert f == HdtsMorphism(cube(("a", "b")), cube(("a", "b")), {s: s for s in range(4)}, {1: 1, 2: 2})


def test_realize_cube_map_bottom_edge():
    f = realize_cube_map(face_encoding(2, 0, 2), ("a",), ("a", "b"))
    assert f.state_map == {0: 0, 1: 2}
    assert f.action_map == {1: 1}


def test_realize_cube_map_swap():
    f = realize_cube_map(sym_encoding(1, 2), ("a", "b"), ("b", "a"))
    assert f.action_map == {1: 2, 2: 1}
    assert f.state_map == {0: 0, 1: 2, 2: 1, 3: 3}
    assert morphism_is_iso(f)


def test_realize_cube_map_rejects_label_mismatch():
    with pytest.raises(StructureError):
        realize_cube_map(face_encoding(2, 0, 2), ("b",), ("a", "b"))


def test_unrealize_identity():
    from hdts.encoding import identity_encoding

    g = realize_cube_map(identity_encoding(2), ("a", "b"), ("a", "b"))
    assert unrealize_cube_map(g) == identity_encoding(2)


def test_unrealize_round_trip_over_full_hom_sets():
    for g in hom_enumerate(cube(("a", "b")), cube(("a", "b", "c"))):
        enc = unrealize_cube_map(g)
        assert realize_cube_map(enc, ("a", "b"), ("a", "b", "c")) == g


def test_unrealize_swap():
    f = realize_cube_map(sym_encoding(1, 2), ("a", "b"), ("b", "a"))
    assert unrealize_cube_map(f) == sym_encoding(1, 2)


def test_unrealize_rejects_non_cube_inputs():
    D = parallel_edges("a")
    g = HdtsMorphism(D, D, {0: 0, 1: 1}, {1: 1, 2: 2})
    with pytest.raises(StructureError):
        unrealize_cube_map(g)


# ---------------------------------------------------------------------------
# strongness


def test_strongness_examples():
    assert is_strong(standard_cube(("a", "b")))
    assert not is_strong(not_strong_complex())
    assert is_strong(one_dim([("a", 0, 1), ("a", 0, 1)], 2))


def test_in_hda_hdts_examples():
    assert in_hda_hdts(standard_cube(("a", "b", "c")))
    assert not in_hda_hdts(not_strong_complex())
    # two parallel same-labelled edges realize like the two-arrow system
    assert not in_hda_hdts(one_dim([("a", 0, 1), ("a", 0, 1)], 2))
    assert not in_hda_hdts(double_square())  # duplicated filler


def test_used_actions():
    assert used_actions(cube(("a", "b"))) == {1, 2}
    assert used_actions(lone_action("x")) == frozenset()
    assert used_actions(parallel_edges("a")) == {1, 2}


# ---------------------------------------------------------------------------
# cube maps into a system


def test_cube_maps_into_edges_of_square():
    maps = cube_maps_into(1, cube(("a", "b")))
    assert len(maps) == 4


def test_cube_maps_into_square_itself():
    maps = cube_maps_into(2, cube(("a", "b")))
    assert len(maps) == 2
    assert sorted(w for w, _, _ in maps) == [("a", "b"), ("b", "a")]


def test_cube_maps_into_parallel_arrows():
    assert cube_maps_into(2, parallel_edges("a")) == []


def test_cube_maps_into_repeated_letter_cube():
    maps = cube_maps_into(2, cube(("a", "a")))
    assert len(maps) == 2  # the two orderings of the two distinct actions
    assert {w for w, _, _ in maps} == {("a", "a")}


ORACLE_CUBE_WORDS = ["", "a", "ab", "aa", "abc", "aba", "abcd", "abcde", "aabb", "abab"]


def _cube_map_pairs():
    """(system, n) for the small cubes and gluings, n up to the top arity."""
    systems = [cube(w) for w in ORACLE_CUBE_WORDS if len(w) <= 3]
    systems += [random_cube_gluing(seed) for seed in range(10)]
    for X in systems:
        top = max((t.arity for t in X.transitions), default=0)
        for n in range(min(top, 3) + 1):
            yield X, n


def test_cube_maps_into_tables_are_exactly_the_hom_sets():
    pairs = list(_cube_map_pairs())
    assert len(pairs) == 41
    for X, n in pairs:
        tables = cube_maps_into(n, X)
        assert tables == sorted(set(tables))
        got = []
        for w, states, acts in tables:
            g = HdtsMorphism(cube(w), X, dict(enumerate(states)), dict(enumerate(acts, 1)))
            check_morphism(g)
            got.append((w, g.key()))
        letters = sorted({a.label for a in X.actions})
        expected = [
            (w, h.key())
            for w in itertools.product(letters, repeat=n)
            for h in hom_enumerate(cube(w), X)
        ]
        assert sorted(got) == sorted(expected)


def oracle_tables(n, X):
    """``morphism_cube_maps_into`` as sorted tables (word, states by
    vertex id, action per direction)."""
    return sorted(
        (w, tuple(map(g.state_map.get, range(2**n))), tuple(map(g.action_map.get, range(1, n + 1))))
        for w, g in morphism_cube_maps_into(n, X)
    )


def test_cube_maps_into_a_repeated_action_id():
    # (0, (1, 1), 3) splits through 1 and through 2; its multiset has one ordering
    steps = [(0, 1), (1, 3), (0, 2), (2, 3)]
    X = WeakHDTS(frozenset(range(4)), (Action(1, "a"),),
                 frozenset([transition(s, (1,), t) for s, t in steps] + [transition(0, (1, 1), 3)]))
    maps = cube_maps_into(2, X)
    assert maps == oracle_tables(2, X)
    assert [states for _, states, _ in maps] == [
        (0, 1, 1, 3), (0, 1, 2, 3), (0, 2, 1, 3), (0, 2, 2, 3)
    ]
    assert {acts for _, _, acts in maps} == {(1, 1)}


def test_cube_maps_into_matches_the_oracle_off_closed_systems():
    systems = [random_failing_hdts(seed) for seed in range(200)]
    assert sum(not validate(X).coherence_closed for X in systems) == 52
    systems += [random_weak_hdts(seed) for seed in range(20)]
    for X in systems:
        for n in range(max((t.arity for t in X.transitions), default=0) + 1):
            assert cube_maps_into(n, X) == oracle_tables(n, X)


# ---------------------------------------------------------------------------
# cubification


def test_cubify_realization_images_is_iso():
    for K in [
        standard_cube(("a", "b")),
        standard_cube(("a", "b", "c")),
        sh_reflect(double_square())[0],
    ]:
        X = realize(K).system
        got = cubify(X)
        assert morphism_is_iso(got.comparison)


def test_cubify_glued_span_splits_the_shared_action():
    X = glued_span()
    got = cubify(X)
    expected = disjoint_union(cube(("x",)), cube(("x",)))
    assert iso_check(got.system, expected) is not None
    # the comparison collapses the two actions back onto the shared one
    assert len(set(got.comparison.action_map.values())) == 1


def test_cubify_lone_action_is_empty():
    got = cubify(lone_action("x"))
    assert not got.system.states and not got.system.actions


def test_cubify_drops_unused_actions():
    X = disjoint_union(cube(("a",)), lone_action("x"))
    assert len(X.actions) == 2
    got = cubify(X)
    assert iso_check(got.system, cube(("a",))) is not None
    assert len(got.system.actions) == 1


def test_cubify_idempotent_on_random_gluings():
    for seed in range(10):
        X = random_cube_gluing(seed)
        assert validate(X).is_hdts
        once = cubify(X)
        twice = cubify(once.system)
        assert iso_check(twice.system, once.system) is not None


def test_cubify_state_bijection():
    for seed in range(5):
        X = random_cube_gluing(seed + 50)
        got = cubify(X)
        assert len(set(got.comparison.state_map.values())) == len(X.states)


def _cubification_bytes(got):
    comparison = got.comparison
    return (
        dumps(precube_to_json(got.complex)),
        dumps(hdts_to_json(got.system)),
        sorted(comparison.state_map.items()),
        sorted(comparison.action_map.items()),
    )


@pytest.mark.parametrize(
    "X",
    [cube(w) for w in ORACLE_CUBE_WORDS]
    + [random_cube_gluing(seed) for seed in range(60)]
    + random_mixed_corpus(50),
)
def test_cubify_matches_morphism_oracle(X):
    assert _cubification_bytes(cubify(X)) == _cubification_bytes(morphism_cubify(X))


def test_cubify_raises_where_the_morphism_oracle_fails():
    raised = 0
    for seed in range(200):
        X = random_failing_hdts(seed)
        try:
            expected = _cubification_bytes(morphism_cubify(X))
        except (KeyError, StructureError):
            raised += 1
            with pytest.raises(StructureError):
                cubify(X)
            continue
        assert _cubification_bytes(cubify(X)) == expected
    assert raised == 26


def test_cubify_missing_face_is_a_structure_error():
    X = random_failing_hdts(345)
    assert (len(X.states), len(X.transitions)) == (2, 12)
    with pytest.raises(StructureError, match="not coherence-closed") as err:
        cubify(X)
    # the table of the cube map and the key of its missing face
    assert str(err.value).endswith(
        ": (('a', 'a', 'b'), (0, 1, 0, 1, 0, 1, 1, 1), (1, 2, 3))"
        " has no face (('a', 'b'), (0, 1, 1, 1), (1, 3))"
    )
