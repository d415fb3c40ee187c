"""The depth-first search behind every morphism and isomorphism search.

It keeps a stack of candidate iterators instead of recursing, so the
number of variables is not bounded by the interpreter's stack.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Iterator, Sequence


def backtrack(
    order: Sequence[tuple],
    candidates: Callable[[tuple, dict], Iterable[Hashable]],
    consistent: Callable[[tuple, Hashable, dict], bool],
    injective: bool = False,
) -> Iterator[dict]:
    """Yield every complete assignment of the variables in ``order``.

    ``candidates(var, assign)`` lists the values to try for ``var``, in
    order, and may draw them from the values of earlier variables;
    ``consistent(var, value, assign)`` accepts or rejects one of them.
    Both see the partial assignment, which does not hold ``var`` yet.
    Variables are tuples whose first item names their sort; with
    ``injective``, two variables of one sort never take the same value.
    Assignments come out in lexicographic order of the candidate lists,
    each as a fresh dict in the order of ``order``.
    """
    if not order:
        yield {}
        return
    last = len(order) - 1
    assign: dict = {}
    used: dict = defaultdict(set)
    stack = [iter(candidates(order[0], assign))]
    while stack:
        var = order[len(stack) - 1]
        if var in assign:  # back at this level: undo its previous value
            taken = assign.pop(var)
            if injective:
                used[var[0]].discard(taken)
        for value in stack[-1]:
            if injective and value in used[var[0]]:
                continue
            if consistent(var, value, assign):
                break
        else:
            stack.pop()
            continue
        assign[var] = value
        if injective:
            used[var[0]].add(value)
        if len(stack) > last:
            yield dict(assign)
        else:
            stack.append(iter(candidates(order[len(stack)], assign)))
