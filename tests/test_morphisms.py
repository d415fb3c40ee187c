"""The morphism searches against the sort-ordered oracles, the inputs on
which those oracles stall, and the freeness of the labelled cube."""

import itertools
import signal
from collections import Counter
from contextlib import contextmanager
from math import factorial, prod

import pytest

from corpus import (
    ALPHA,
    RANDOM_SYNC_TERMS,
    morphism_is_iso,
    random_cube_gluing,
    random_failing_hdts,
    random_precube_wedge,
    random_weak_hdts,
    sorted_order_hom_enumerate,
    sorted_order_hom_enumerate_precube,
    sorted_order_iso_check,
)
from hdts import (
    Action,
    WeakHDTS,
    cube,
    cube_state_id,
    hom_enumerate,
    hom_enumerate_precube,
    iso_check,
    realize,
    standard_cube,
    transition,
    validate,
)
from hdts.ccs import compile_text
from hdts.encoding import cube_vertices
from hdts.precube import check_precube_map, make_precube
from hdts.realize import cube_maps_into


@contextmanager
def time_limit(seconds):
    """Fail the block with ``TimeoutError`` once it has run ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reversed_ids(X: WeakHDTS) -> WeakHDTS:
    """``X`` with its action ids in reverse order."""
    top = max(X.action_ids, default=0)
    return WeakHDTS(
        X.states,
        tuple(Action(top - a.id, a.label) for a in X.actions),
        frozenset(transition(t.src, (top - a for a in t.acts), t.tgt) for t in X.transitions),
    )


def renumbered(X: WeakHDTS) -> WeakHDTS:
    """``X`` with its state ids and its action ids both in reverse order."""
    Y = reversed_ids(X)
    top = max(X.states, default=0)
    return WeakHDTS(
        frozenset(top - s for s in Y.states),
        Y.actions,
        frozenset(transition(top - t.src, t.acts, top - t.tgt) for t in Y.transitions),
    )


SEEDS = range(14)
SYSTEMS = (
    [random_weak_hdts(seed) for seed in SEEDS]
    + [random_cube_gluing(seed) for seed in SEEDS]
    + [random_failing_hdts(seed) for seed in SEEDS]
    + [cube(w) for n in range(3) for w in itertools.product("ab", repeat=n)]
)


# ---------------------------------------------------------------------------
# the structure-following searches agree with the sort-ordered ones


def test_hom_enumerate_matches_the_sort_ordered_search():
    maps = 0
    for X in SYSTEMS:
        for Y in SYSTEMS:
            got = [h.key() for h in hom_enumerate(X, Y)]
            assert got == sorted(h.key() for h in sorted_order_hom_enumerate(X, Y))
            maps += len(got)
    assert maps > 2000


def test_iso_check_matches_the_sort_ordered_search():
    pool = SYSTEMS + [renumbered(X) for X in SYSTEMS]
    isos = 0
    for X in pool:
        for Y in pool:
            f = iso_check(X, Y)
            assert (f is None) == (sorted_order_iso_check(X, Y) is None)
            if f is not None:
                assert morphism_is_iso(f) and f.src == X and f.dst == Y
                isos += 1
    assert isos >= 2 * len(pool)


def test_hom_enumerate_precube_matches_the_sort_ordered_search():
    # wedge sources stay at 5 vertices: with a square and 6-8 vertices the
    # sort-ordered oracle needs seconds per pair
    cubes = [standard_cube(w) for n in range(3) for w in itertools.product("ab", repeat=n)]
    wedges = [random_precube_wedge(seed) for seed in range(12)]
    sources = cubes + [K for K in wedges if len(K.vertices) <= 5]
    maps = 0
    for K in sources:
        for L in cubes + wedges:
            got = [f.key() for f in hom_enumerate_precube(K, L)]
            assert got == [f.key() for f in sorted_order_hom_enumerate_precube(K, L)]
            maps += len(got)
    assert len(sources) > len(cubes) and maps > 300


def _squares_on_a_path(swaps):
    """Squares on the path of two ``a`` edges 0 -> 1 -> 2: every face
    d_i^alpha of each square is edge alpha, and ``swaps`` maps each
    square to its swap."""
    faces = {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1, (1, 1, 1, 0): 1, (1, 1, 1, 1): 2}
    faces.update({(2, c, i, alpha): alpha for c in swaps for i in (1, 2) for alpha in (0, 1)})
    labels = {(1, 0): ("a",), (1, 1): ("a",)} | {(2, c): ("a", "a") for c in swaps}
    cells = {0: (0, 1, 2), 1: (0, 1), 2: tuple(swaps)}
    return make_precube(cells, faces, {(2, c, 1): s for c, s in swaps.items()}, labels)


def test_a_self_swapped_cell_maps_only_to_a_self_swapped_cell():
    # the sort-ordered search never compares a cell with itself as its own
    # swap partner, so it sends the square swapped to itself onto either
    # of two squares swapped to each other: two maps that break swap 1
    fixed, pair = _squares_on_a_path({0: 0}), _squares_on_a_path({0: 1, 1: 0})
    assert len(sorted_order_hom_enumerate_precube(fixed, pair)) == 2
    assert hom_enumerate_precube(fixed, pair) == []
    assert [f.cell_map[2, 0] for f in hom_enumerate_precube(pair, fixed)] == [0]
    assert len(hom_enumerate_precube(pair, pair)) == 2
    for K, L in itertools.product((fixed, pair), repeat=2):
        for f in hom_enumerate_precube(K, L):
            check_precube_map(f)


# ---------------------------------------------------------------------------
# the inputs on which the sort-ordered searches stall


def test_iso_check_finds_the_reversed_ids_copy_of_every_sync_realization():
    # (nu b)(b.nil || (tau.nil + tau.bbar.nil) || (b.nil + b.tau.nil)) has
    # 32 states and 22 tau actions; the sort-ordered search does not
    # return on it within 20 s
    assert "(nu b)(b.nil || (tau.nil + tau.bbar.nil) || (b.nil + b.tau.nil))" in RANDOM_SYNC_TERMS
    for term in RANDOM_SYNC_TERMS:
        X = realize(compile_text(term, ALPHA)).system
        Y = reversed_ids(X)
        with time_limit(5):
            f = iso_check(X, Y)
        assert f is not None and morphism_is_iso(f), term


@pytest.mark.parametrize("word,count", [("abc", 1), ("abcd", 1), ("aaa", 6), ("aaaa", 24)])
def test_cube_endomorphisms(word, count):
    K = standard_cube(word)
    with time_limit(5):
        maps = hom_enumerate_precube(K, K)
    assert len(maps) == count
    assert maps[0].is_identity
    assert len({f.key() for f in maps}) == count


# ---------------------------------------------------------------------------
# the labelled n-cube is the free HDTS on one n-transition


def _tables(n: int, X: WeakHDTS) -> list[tuple]:
    """``cube_maps_into``'s tables, read off every morphism cube(w) -> X."""
    labels = sorted({a.label for a in X.actions})
    out = []
    for word in itertools.product(labels, repeat=n):
        for h in hom_enumerate(cube(word), X):
            states = tuple(h.state_map[cube_state_id(eps)] for eps in cube_vertices(n))
            out.append((word, states, tuple(h.action_map[i] for i in range(1, n + 1))))
    return sorted(out)


def _orderings(acts) -> int:
    """The number of distinct orderings of the multiset ``acts``."""
    return factorial(len(acts)) // prod(factorial(k) for k in Counter(acts).values())


def test_cube_maps_into_are_the_morphisms_out_of_cubes():
    systems = [random_weak_hdts(seed) for seed in range(100)]
    systems += [random_cube_gluing(seed) for seed in range(100)]
    honest = 0
    for X in systems:
        is_hdts = validate(X).is_hdts
        honest += is_hdts
        for n in range(4):
            tables = cube_maps_into(n, X)
            assert tables == _tables(n, X)
            if is_hdts:
                pairs = sum(_orderings(t.acts) for t in X.transitions if t.arity == n)
                assert len(tables) == (pairs if n else len(X.states))
    assert honest == 118
