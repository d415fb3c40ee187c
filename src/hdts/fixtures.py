"""Built-in example payloads used by the CLI and the test-suite.

Each fixture is a small, hand-checked object: the labelled square and
its cube system, the two-parallel-arrows system that breaks the
determinism axiom, the double square whose two fillers share one
boundary, the five-state complex whose realization has two intermediate
states for one split, and the span whose gluing shares a single action
between two disjoint edges.
"""

from __future__ import annotations

from .core import HdtsMorphism, WeakHDTS, colimit, cube, lone_action, parallel_edges
from .precube import (
    PrecubeMap,
    PrecubicalSet,
    boundary,
    colimit_presheaf,
    make_precube,
    standard_cube,
)


def double_square(word=("a", "b")) -> PrecubicalSet:
    """Two copies of the labelled square glued along their boundary."""
    frame = boundary(word)
    full = standard_cube(word)
    incl = PrecubeMap(
        frame, full, {(n, c): c for n in frame.dims() for c in frame.ncells(n)}
    )
    out, _ = colimit_presheaf([frame, full, full], [(0, 1, incl), (0, 2, incl)])
    return out


def not_strong_complex() -> PrecubicalSet:
    """Five states, three labelled squares, no duplicated boundaries.

    Vertices: 0 start, 4 end, 1-3 intermediate.  The (u,v) square runs
    through vertex 2 while the edges through vertex 3 provide a second
    intermediate state for the same split of the top transition.
    """
    edges = {
        0: ("u", 0, 2),
        1: ("u", 0, 3),
        2: ("u", 1, 4),
        3: ("v", 0, 1),
        4: ("v", 2, 4),
        5: ("v", 3, 4),
        6: ("w", 0, 0),
        7: ("w", 2, 3),
        8: ("w", 4, 4),
    }
    # squares as (word, d10, d11, d20, d21), then their swapped copies
    squares = [
        (("u", "w"), 6, 7, 0, 1),
        (("v", "w"), 7, 8, 4, 5),
        (("u", "v"), 3, 4, 0, 2),
    ]
    cells = {0: tuple(range(5)), 1: tuple(range(9)), 2: tuple(range(6))}
    faces, syms, labels = {}, {}, {}
    for e, (lab, lo, hi) in edges.items():
        faces[(1, e, 1, 0)] = lo
        faces[(1, e, 1, 1)] = hi
        labels[(1, e)] = (lab,)
    for k, (word, d10, d11, d20, d21) in enumerate(squares):
        swapped = k + 3
        labels[(2, k)] = word
        labels[(2, swapped)] = (word[1], word[0])
        for cell, (a10, a11, a20, a21) in (
            (k, (d10, d11, d20, d21)),
            (swapped, (d20, d21, d10, d11)),
        ):
            faces[(2, cell, 1, 0)] = a10
            faces[(2, cell, 1, 1)] = a11
            faces[(2, cell, 2, 0)] = a20
            faces[(2, cell, 2, 1)] = a21
        syms[(2, k, 1)] = swapped
        syms[(2, swapped, 1)] = k
    return make_precube(cells, faces, syms, labels)


def glued_span() -> WeakHDTS:
    """Two edges forced to share one action: glue them along a bare action."""
    edge = cube(("x",))
    shared = lone_action("x")
    attach = HdtsMorphism(shared, edge, {}, {1: 1})
    return colimit([edge, shared, edge], [(1, 0, attach), (1, 2, attach)]).system


class FixtureError(ValueError):
    """No bundled fixture has the requested name."""


def _builders():
    return {
        "cube_ab": ("hdts", lambda: cube(("a", "b"))),
        "cube_ab_pre": ("precube", lambda: standard_cube(("a", "b"))),
        "Da": ("hdts", lambda: parallel_edges("a")),
        "doublesquare": ("precube", double_square),
        "notstrong": ("precube", not_strong_complex),
        "span_glued": ("hdts", glued_span),
        "lonely_action": ("hdts", lambda: lone_action("x")),
        "empty": ("hdts", lambda: WeakHDTS(frozenset(), (), frozenset())),
    }


def fixture_names() -> list[str]:
    return sorted(_builders())


def build_fixture(name: str):
    """Return (kind, object) for a named fixture."""
    try:
        kind, builder = _builders()[name]
    except KeyError:
        raise FixtureError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return kind, builder()
