"""The generic backtracking search behind every morphism search."""

import itertools

from hdts.search import backtrack


def _always(var, value, assign):
    return True


def test_empty_order_yields_one_empty_assignment():
    assert list(backtrack([], lambda var, assign: (), _always)) == [{}]


def test_assignments_come_out_in_lexicographic_order():
    order = [("x", 1), ("x", 2), ("x", 3)]
    got = list(backtrack(order, lambda var, assign: (2, 0, 1), _always))
    assert [tuple(a[var] for var in order) for a in got] == list(
        itertools.product((2, 0, 1), repeat=3)
    )
    assert all(list(a) == order for a in got)


def test_consistent_sees_the_earlier_variables_only():
    order = [("x", k) for k in range(4)]

    def increasing(var, value, assign):
        assert var not in assign and len(assign) == var[1]
        return all(value > v for v in assign.values())

    got = list(backtrack(order, lambda var, assign: range(6), increasing))
    assert [tuple(a.values()) for a in got] == list(itertools.combinations(range(6), 4))


def test_injectivity_holds_per_sort():
    order = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
    got = list(backtrack(order, lambda var, assign: range(3), _always, injective=True))
    assert len(got) == 6 * 6
    for a in got:
        assert a["a", 1] != a["a", 2] and a["b", 1] != a["b", 2]
    assert any(a["a", 1] == a["b", 1] for a in got)
    loose = list(backtrack(order, lambda var, assign: range(3), _always))
    assert len(loose) == 3**4


def test_a_long_chain_needs_no_recursion():
    # every value must repeat its predecessor's and the last one must be
    # 1, so the search runs 5,000 deep on zeros, backs out to the first
    # variable and runs down again on ones
    n = 5000
    order = [("x", k) for k in range(n)]

    def chained(var, value, assign):
        k = var[1]
        if k and value != assign["x", k - 1]:
            return False
        return k < n - 1 or value == 1

    got = list(backtrack(order, lambda var, assign: (0, 1), chained))
    assert len(got) == 1 and set(got[0].values()) == {1} and len(got[0]) == n


def test_candidates_see_the_earlier_variables():
    # the first variable ranges over 0..2 and every later one may only
    # take its predecessor's value plus one
    order = [("x", k) for k in range(4)]

    def successor(var, assign):
        assert var not in assign and len(assign) == var[1]
        return range(3) if var[1] == 0 else (assign["x", var[1] - 1] + 1,)

    got = list(backtrack(order, successor, _always))
    assert [tuple(a.values()) for a in got] == [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
