"""Systems, axiom checkers, cubes, closure, colimits, hom search."""

import itertools
import random
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
    sparse_top_hdts,
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
    cube_state_bits,
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
from hdts import core
from hdts.core import uisa_holds
from hdts.realize import _mask_parts, cube_maps_into


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


@settings(max_examples=60, deadline=None, derandomize=True)
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


@settings(max_examples=30, deadline=None, derandomize=True)
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


def _mutated_cube(seed):
    # a cube of dimension 4 or 5 with states merged, transitions dropped,
    # a few added, and one action id mapped onto another, so that
    # multisets such as (1, 1, 2, 3) occur
    rng = random.Random(seed)
    n = 4 + seed % 2
    base = cube(tuple(rng.choice(("a", "b")) for _ in range(n)))
    k = rng.randint(2**n - 6, 2**n)
    merge = {s: s if s < k else rng.randrange(k) for s in base.states}
    gone, kept = rng.sample(base.action_ids, 2)
    ids = {a: kept if a == gone else a for a in base.action_ids}
    drop = rng.choice((0.0, 0.1, 0.1))
    trans = {
        transition(merge[t.src], map(ids.get, t.acts), merge[t.tgt])
        for t in base.transitions
        if rng.random() >= drop
    }
    for _ in range(rng.randint(0, 4)):
        acts = [rng.choice(sorted(set(ids.values()))) for _ in range(rng.randint(1, 3))]
        trans.add(transition(rng.randrange(k), acts, rng.randrange(k)))
    actions = tuple(a for a in base.actions if a.id != gone)
    return WeakHDTS(frozenset(range(k)), actions, frozenset(trans))


def _failing_at_the_top(seed):
    # a cube of dimension 4 or 5 folded along two directions, which then
    # share one action id; it is honest, and fails only at its top
    # transition once glued to a copy of itself at its bottom and top
    # corners, or once it loses transitions of arity n - 1 out of its bottom
    rng = random.Random(seed)
    n = 4 + seed % 2
    i, j = sorted(rng.sample(range(n), 2))
    word = [rng.choice("ab") for _ in range(n)]
    word[j] = word[i]
    base, top = cube(word), (1 << n) - 1

    def fold(s):
        bits = list(cube_state_bits(n, s))
        bits[i], bits[j] = sorted((bits[i], bits[j]))
        return cube_state_id(bits)

    ids = {a: i + 1 if a == j + 1 else a for a in base.action_ids}
    trans = {transition(fold(t.src), map(ids.get, t.acts), fold(t.tgt)) for t in base.transitions}
    if seed % 4 < 2:
        copy = {s: s if s in (0, top) else s + top + 1 for s in range(top + 1)}
        trans |= {transition(copy[t.src], t.acts, copy[t.tgt]) for t in trans}
    else:
        trans = {t for t in trans if t.src or t.arity != n - 1 or rng.random() < 0.5}
    states = {s for t in trans for s in (t.src, t.tgt)}
    return WeakHDTS(states, tuple(a for a in base.actions if a.id != j + 1), trans)


def test_validate_matches_one_scan_per_axiom_at_higher_arity():
    mutated = [_mutated_cube(seed) for seed in range(40)]
    at_top = [_failing_at_the_top(seed) for seed in range(16)]
    six = cube("abcdef")
    into_top = min(t for t in six.transitions if t.tgt == max(six.states) and t.arity == 1)
    cut = WeakHDTS(six.states, six.actions, six.transitions - {into_top})
    systems = mutated + at_top + [six, cut]
    assert any(len(set(t.acts)) < t.arity == 4 for X in at_top for t in X.transitions)
    witnessed, high = Counter(), Counter()
    for X in systems:
        report = validate(X).as_dict()
        assert report == scan_validate(X)
        witnessed.update(report["witnesses"].keys())
        high.update(
            k for k, w in report["witnesses"].items() if len(w.get("transition", (0, ()))[1]) >= 4
        )
    assert set(witnessed) == {"coherence", "csa1", "csa2", "csa3", "uisa", "intermediate"}
    assert witnessed["uisa"] > witnessed["intermediate"]
    assert set(high) == set(witnessed) - {"csa1"}  # the least witness at arity 4 or 5
    for X in mutated[::2] + at_top[::2]:  # the cubes of dimension 4
        assert coherence_closure(X.transitions) == brute_closure(X.transitions)


def test_axiom_checks_never_call_multiset_diff(monkeypatch):
    # a multiset's decomposition table is built on first use, and a part's
    # own table only where a scan finds intermediate states at that part;
    # once built, the scans read them and never take a multiset difference
    X = cube("abcde")
    want = validate(X), cube_maps_into(5, X)

    def refuse(*args, **kwargs):
        raise AssertionError("multiset_diff was called")

    monkeypatch.setattr(core, "multiset_diff", refuse)
    with pytest.raises(AssertionError, match="was called"):
        core._decompositions.__wrapped__((1, 2))  # the patch is seen by the table builder
    assert validate(X) == want[0]
    assert coherence_closure(X.transitions) == X.transitions
    assert cube_maps_into(5, X) == want[1]


def test_validate_matches_one_scan_per_axiom_on_sparse_tops():
    # one transition of arity 7 or 8 with only a few populated splits: the
    # scans read a part's own splits only where it has intermediate states
    high = Counter()
    for seed in range(40):
        X = sparse_top_hdts(seed)
        report = validate(X).as_dict()
        assert report == scan_validate(X)
        assert coherence_closure(X.transitions) == brute_closure(X.transitions)
        high.update(
            k for k, w in report["witnesses"].items() if len(w.get("transition", (0, ()))[1]) >= 7
        )
    assert high["coherence"] >= 1 and high["csa3"] >= 1


def test_axiom_checks_build_one_table_without_intermediate_states():
    # no split of the 8-ary transition has an intermediate state, so the
    # checks and the closure read its own table and build no other
    X = WeakHDTS(
        frozenset({0, 1}),
        tuple(Action(i, "a") for i in range(1, 9)),
        frozenset({transition(0, range(1, 9), 1)}),
    )
    core._decompositions.cache_clear()
    validate(X)
    assert core._decompositions.cache_info().currsize == 1
    core._decompositions.cache_clear()
    assert coherence_closure(X.transitions) == X.transitions
    assert core._decompositions.cache_info().currsize == 1


def test_axiom_checks_build_no_mask_parts():
    # the part at each position mask is read by the cube maps alone
    X = WeakHDTS(
        frozenset({0, 1}),
        tuple(Action(i, "a") for i in range(1, 9)),
        frozenset({transition(0, range(1, 9), 1)}),
    )
    _mask_parts.cache_clear()
    validate(X)
    assert coherence_closure(X.transitions) == X.transitions
    assert _mask_parts.cache_info().currsize == 0
    assert len(cube_maps_into(2, cube("ab"))) == 2
    assert _mask_parts.cache_info().currsize == 1


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
