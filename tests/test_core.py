"""Systems, axiom checkers, cubes, closure, colimits, hom search."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    brute_closure,
    brute_hom_keys,
    morphism_is_iso,
    pattern_words,
    random_failing_hdts,
    random_mixed_corpus,
    random_weak_hdts,
    scan_validate,
    word_cube,
)
from hdts import (
    Action,
    HdtsMorphism,
    StructureError,
    Transition,
    WeakHDTS,
    coherence_closure,
    colimit,
    cube,
    cube_ext,
    cube_inclusion,
    cube_state_id,
    disjoint_union,
    hom_enumerate,
    identity_morphism,
    is_orthogonal,
    iso_check,
    lone_action,
    parallel_edges,
    transition,
    validate,
)
from hdts.core import uisa_holds


# ---------------------------------------------------------------------------
# structure


def test_transition_rejects_unsorted_multiset():
    with pytest.raises(StructureError):
        Transition(0, (2, 1), 1)
    with pytest.raises(StructureError):
        Transition(0, (), 1)


def test_system_rejects_dangling_references():
    with pytest.raises(StructureError):
        WeakHDTS(frozenset({0}), (Action(1, "a"),), frozenset({Transition(0, (1,), 5)}))
    with pytest.raises(StructureError):
        WeakHDTS(frozenset({0, 1}), (), frozenset({Transition(0, (1,), 1)}))


# ---------------------------------------------------------------------------
# cubes


def test_cube_square_counts():
    X = cube(("a", "b"))
    assert len(X.states) == 4
    assert len(X.actions) == 2
    assert len(X.transitions) == 5


def test_cube_square_exact_transition_set():
    X = cube(("a", "b"))
    v = cube_state_id
    expected = {
        transition(v((0, 0)), [1], v((1, 0))),
        transition(v((0, 1)), [1], v((1, 1))),
        transition(v((0, 0)), [2], v((0, 1))),
        transition(v((1, 0)), [2], v((1, 1))),
        transition(v((0, 0)), [1, 2], v((1, 1))),
    }
    assert set(X.transitions) == expected


def test_cube_empty_word():
    X = cube(())
    assert len(X.states) == 1
    assert not X.actions
    assert not X.transitions


def test_cube_matches_the_per_word_oracle():
    """Every word up to 5 letters over a, b, tau, and one 6-letter word per
    pattern of repeated letters."""
    words = [w for n in range(6) for w in itertools.product(("a", "b", "tau"), repeat=n)]
    for word in words + pattern_words(6):
        assert cube(word) == word_cube(word)


def test_cube_three_letters_counts_by_pair_enumeration():
    # oracle: count comparable distinct vertex pairs of the 3-cube
    verts = list(itertools.product((0, 1), repeat=3))
    pairs = sum(
        1
        for lo in verts
        for hi in verts
        if lo != hi and all(a <= b for a, b in zip(lo, hi))
    )
    assert pairs == 19
    assert len(cube(("a", "b", "c")).transitions) == 19


def test_cube_ext_counts_and_low_dimension_equalities():
    X = cube_ext(("a", "b"))
    assert len(X.states) == 2
    assert len(X.actions) == 2
    assert len(X.transitions) == 1
    assert cube_ext(("a",)) == cube(("a",))
    assert cube_ext(()) == cube(())


@pytest.mark.parametrize("word", [w for n in range(5) for w in itertools.product("ab", repeat=n)])
def test_cubes_are_honest_systems(word):
    report = validate(cube(word))
    assert report.is_hdts and report.all_ok


# ---------------------------------------------------------------------------
# coherence closure


def test_closure_of_cube_is_identity():
    trans = cube(("a", "b")).transitions
    assert coherence_closure(trans) == trans


def test_closure_of_empty_set():
    assert coherence_closure(frozenset()) == frozenset()


def _five_premises():
    # one big three-step transition plus the four side premises of the rule
    return {
        transition(0, [1, 2, 3], 9),
        transition(0, [1], 4),      # first part, to nu1
        transition(4, [2, 3], 9),   # remainder from nu1
        transition(0, [1, 2], 5),   # first two parts, to nu2
        transition(5, [3], 9),      # last part from nu2
    }


def test_closure_adds_exactly_the_interior_step():
    before = _five_premises()
    closed = coherence_closure(before)
    assert closed - frozenset(before) == {transition(4, [2], 5)}
    assert closed == brute_closure(before)
    # a second pass finds nothing new
    assert coherence_closure(closed) == closed


@st.composite
def small_transition_sets(draw):
    n_states = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    k = draw(st.integers(0, 7))
    trans = set()
    for _ in range(k):
        arity = draw(st.integers(1, 3))
        acts = [draw(st.integers(1, n_actions)) for _ in range(arity)]
        trans.add(transition(draw(st.integers(0, n_states - 1)), acts,
                             draw(st.integers(0, n_states - 1))))
    return frozenset(trans)


@settings(max_examples=60, deadline=None)
@given(small_transition_sets())
def test_closure_is_extensive_idempotent_and_matches_oracle(trans):
    closed = coherence_closure(trans)
    assert trans <= closed
    assert coherence_closure(closed) == closed
    assert closed == brute_closure(trans)


def test_closure_matches_oracle_on_failing_systems():
    # conclusions here create new intermediate states for other bigs,
    # which a stale intermediates cache would miss
    for seed in range(300):
        trans = random_failing_hdts(seed).transitions
        assert coherence_closure(trans) == brute_closure(trans)


@settings(max_examples=30, deadline=None)
@given(small_transition_sets(), small_transition_sets())
def test_closure_is_monotone(a, b):
    assert coherence_closure(a) <= coherence_closure(a | b)


# ---------------------------------------------------------------------------
# validate


def test_validate_square_passes_everything():
    assert validate(cube(("a", "b"))).all_ok


def test_validate_parallel_edges_fails_csa1_only():
    report = validate(parallel_edges("a"))
    assert not report.csa1
    assert report.witnesses["csa1"] == {"first": (0, [1], 1), "second": (0, [2], 1)}
    assert report.coherence_closed and report.csa2 and report.csa3
    assert report.uisa and report.intermediate


def test_validate_two_intermediates_fails_uisa():
    trans = {
        transition(0, [1, 2], 3),
        transition(0, [1], 1),
        transition(1, [2], 3),
        transition(0, [1], 2),
        transition(2, [2], 3),
        transition(0, [2], 4),
        transition(4, [1], 3),
    }
    X = WeakHDTS(
        frozenset(range(5)),
        (Action(1, "a"), Action(2, "b")),
        coherence_closure(trans),
    )
    report = validate(X)
    assert not report.uisa
    assert report.witnesses["uisa"]["intermediates"] == [1, 2]
    assert report.intermediate


def test_validate_missing_intermediate():
    X = WeakHDTS(
        frozenset({0, 1}),
        (Action(1, "a"), Action(2, "b")),
        frozenset({transition(0, [1, 2], 1)}),
    )
    report = validate(X)
    assert not report.intermediate and not report.uisa
    assert report.csa3  # no nine-tuple instance exists


def test_validate_matches_one_scan_per_axiom():
    systems = [random_failing_hdts(seed) for seed in range(500)] + random_mixed_corpus(50)
    witnessed = Counter()
    for X in systems:
        report = validate(X).as_dict()
        assert report == scan_validate(X)
        assert uisa_holds(X.transitions) == report["uisa"]
        witnessed.update(report["witnesses"].keys())
    # every witness kind, and a uisa failure that still has intermediates
    assert min(witnessed[k] for k in ("coherence", "csa1", "csa2", "csa3")) >= 50
    assert witnessed["uisa"] - witnessed["intermediate"] >= 10


def test_csa_equivalence_on_corpus():
    for X in random_mixed_corpus(50):
        report = validate(X)
        assert (report.csa2 and report.csa3) == report.uisa


def test_hdts_implies_coherence_closed_on_corpus():
    for X in random_mixed_corpus(50):
        report = validate(X)
        if report.csa1 and report.uisa:
            assert report.coherence_closed


# ---------------------------------------------------------------------------
# colimits


def test_colimit_of_single_object_is_isomorphic_copy():
    X = cube(("a", "b"))
    out = colimit([X])
    assert iso_check(out.system, X) is not None
    assert out.closure_added == 0


def test_colimit_glued_span_shares_one_action():
    edge = cube(("x",))
    shared = lone_action("x")
    attach = HdtsMorphism(shared, edge, {}, {1: 1})
    out = colimit([edge, shared, edge], [(1, 0, attach), (1, 2, attach)])
    assert len(out.system.states) == 4
    assert len(out.system.actions) == 1
    assert len(out.system.transitions) == 2
    assert out.union_uisa and out.closure_added == 0


def test_colimit_uisa_shortcut():
    # when the pre-closure union has unique intermediates, nothing is added
    for X in random_mixed_corpus(30):
        out = colimit([X])
        if out.union_uisa:
            assert out.closure_added == 0


def test_colimit_final_structure_equivalence_for_cube_components():
    # for diagrams whose components all have unique intermediate states,
    # the union having them is the same as the colimit having them
    import random

    for seed in range(20):
        rng = random.Random(seed)
        cubes = [cube(tuple(rng.choice("ab") for _ in range(rng.randint(1, 2))))
                 for _ in range(rng.randint(1, 3))]
        point = cube(())
        arrows = []
        for i, ob in enumerate(cubes):
            anchor = rng.choice(sorted(ob.states))
            arrows.append((len(cubes), i, HdtsMorphism(point, ob, {0: anchor}, {})))
        out = colimit(cubes + [point], arrows)
        assert out.union_uisa == validate(out.system).uisa
        if out.union_uisa:
            assert out.closure_added == 0


def test_disjoint_union_counts():
    X = disjoint_union(cube(("a",)), cube(("b",)))
    assert len(X.states) == 4 and len(X.actions) == 2 and len(X.transitions) == 2


def test_colimit_cocones_are_morphisms():
    from hdts.core import check_morphism

    edge = cube(("x",))
    shared = lone_action("x")
    attach = HdtsMorphism(shared, edge, {}, {1: 1})
    out = colimit([edge, shared, edge], [(1, 0, attach), (1, 2, attach)])
    for cocone in out.cocones:
        check_morphism(cocone)


# ---------------------------------------------------------------------------
# hom enumeration and orthogonality


def test_hom_from_point_picks_each_state():
    Y = cube(("a", "b"))
    homs = hom_enumerate(cube(()), Y)
    assert sorted(h.state_map[0] for h in homs) == sorted(Y.states)


def test_hom_edge_into_square():
    homs = hom_enumerate(cube(("a",)), cube(("a", "b")))
    assert len(homs) == 2
    assert sorted(h.key() for h in homs) == brute_hom_keys(cube(("a",)), cube(("a", "b")))
    # and small sources into every system of the corpus
    sources = [cube(w) for w in ((), ("a",), ("b",), ("a", "b"), ("a", "a"))]
    for Y in random_mixed_corpus(50):
        for X in sources + [parallel_edges("a")]:
            assert sorted(h.key() for h in hom_enumerate(X, Y)) == brute_hom_keys(X, Y)


def test_hom_square_endomorphisms_match_label_compatible_cube_maps():
    # with two distinct letters only the identity preserves labels;
    # with a repeated letter the swap joins in
    assert len(hom_enumerate(cube(("a", "b")), cube(("a", "b")))) == 1
    assert len(hom_enumerate(cube(("a", "a")), cube(("a", "a")))) == 2
    assert len(brute_hom_keys(cube(("a", "a")), cube(("a", "a")))) == 2


def test_hom_enumeration_is_deterministic():
    first = [h.key() for h in hom_enumerate(cube(("a",)), cube(("a", "b")))]
    second = [h.key() for h in hom_enumerate(cube(("a",)), cube(("a", "b")))]
    assert first == second == sorted(first)


def test_orthogonality_examples():
    assert is_orthogonal(cube(("a", "b", "c")), cube_inclusion(("a", "b")))
    D = parallel_edges("a")
    to_edge = HdtsMorphism(D, cube(("a",)), {0: 0, 1: 1}, {1: 1, 2: 1})
    assert not is_orthogonal(D, to_edge)


def test_orthogonality_empty_source():
    empty = WeakHDTS(frozenset(), (), frozenset())
    f = HdtsMorphism(empty, cube(()), {}, {})
    assert is_orthogonal(cube(()), f)
    # a target with an action admits no map to the point system
    g = HdtsMorphism(empty, cube(("a",)), {}, {})
    assert not is_orthogonal(cube(()), g)


def test_orthogonality_matches_unique_intermediates_on_corpus():
    for X in random_mixed_corpus(24):
        labels = sorted({a.label for a in X.actions}) or ["a"]
        ortho = all(
            is_orthogonal(X, cube_inclusion(word))
            for n in range(1, 4)
            for word in itertools.product(labels, repeat=n)
        )
        assert ortho == validate(X).uisa


# ---------------------------------------------------------------------------
# isomorphism search


def test_iso_check_identity():
    X = cube(("a", "b"))
    f = iso_check(X, X)
    assert f == identity_morphism(X)


def test_iso_check_swapped_word():
    f = iso_check(cube(("a", "b")), cube(("b", "a")))
    assert f is not None and morphism_is_iso(f)


def test_iso_check_label_mismatch():
    assert iso_check(cube(("a",)), cube(("b",))) is None


def test_iso_check_against_random_relabellings():
    for seed in range(8):
        X = random_weak_hdts(seed)
        renamed = {s: i for i, s in enumerate(sorted(X.states, reverse=True))}
        Y = WeakHDTS(
            frozenset(renamed.values()),
            X.actions,
            frozenset(
                transition(renamed[t.src], t.acts, renamed[t.tgt]) for t in X.transitions
            ),
        )
        assert iso_check(X, Y) is not None
