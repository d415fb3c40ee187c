"""Labelled symmetric precubical sets: shapes, gluings, unique fillers."""

import itertools
import json
from dataclasses import replace

import pytest

from hdts import (
    PrecubeError,
    PrecubeMap,
    boundary,
    check_relations,
    colimit_presheaf,
    hda_check,
    hom_enumerate_precube,
    iso_check_precube,
    make_precube,
    sh_reflect,
    standard_cube,
    truncate,
)
from corpus import (
    Shell,
    check_shell,
    keyed_tables,
    map_standard_cube,
    merging_colimit_presheaf,
    _merging_quotient,
    pattern_words,
    random_wedge_diagram,
    shell_of,
    shell_word,
)
from hdts import precube
from hdts.fixtures import double_square, not_strong_complex
from hdts.precube import glue, identity_precube_map
from hdts.serialize import precube_to_json


def cell_counts(K):
    return [len(K.ncells(n)) for n in K.dims()]


def edge_precube(label="a"):
    return make_precube(
        {0: (0, 1), 1: (0,)},
        {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1},
        {},
        {(1, 0): (label,)},
    )


# ---------------------------------------------------------------------------
# standard cubes


@pytest.mark.parametrize(
    "word,counts",
    [((), [1]), (("a",), [2, 1]), (("a", "b"), [4, 4, 2]), (("a", "b", "c"), [8, 12, 12, 6])],
)
def test_standard_cube_counts(word, counts):
    K = standard_cube(word)
    check_relations(K)
    assert cell_counts(K) == counts


def test_standard_cube_matches_the_map_by_map_oracle():
    """Every word up to 4 letters over a, b, tau, and one 5-letter word per
    pattern of repeated letters."""
    words = [w for n in range(5) for w in itertools.product(("a", "b", "tau"), repeat=n)]
    for word in words + pattern_words(5):
        got = json.dumps(precube_to_json(standard_cube(word)), sort_keys=True)
        assert got == json.dumps(precube_to_json(map_standard_cube(word)), sort_keys=True)


def test_standard_cube_square_labels():
    K = standard_cube(("a", "b"))
    words = sorted(K.label(2, c) for c in K.ncells(2))
    assert words == [("a", "b"), ("b", "a")]
    edge_labels = sorted(K.label(1, e) for e in K.ncells(1))
    assert edge_labels == [("a",), ("a",), ("b",), ("b",)]


def test_boundary_examples():
    assert cell_counts(boundary(("a",))) == [2]
    assert boundary(()).size == 0
    frame = boundary(("a", "b"))
    check_relations(frame)
    assert cell_counts(frame) == [4, 4]


def test_truncate():
    K = standard_cube(("a", "b"))
    assert cell_counts(truncate(K, 1)) == [4, 4]
    assert cell_counts(truncate(K, 0)) == [4]
    assert truncate(K, K.dim) == K


def test_every_construction_satisfies_the_relations():
    from corpus import ALPHA, random_precube_wedge
    from hdts import compile_text, cosk_directed, fibered_product, tensor_sync
    from hdts.encoding import all_encodings

    catalog = [
        standard_cube(("a", "b", "c")),
        boundary(("a", "b", "c")),
        truncate(standard_cube(("a", "b")), 1),
        double_square(),
        sh_reflect(double_square())[0],
        not_strong_complex(),
        fibered_product(
            truncate(standard_cube(("a", "b")), 1),
            truncate(standard_cube(("abar",)), 1),
            ALPHA,
        ),
        cosk_directed(
            truncate(standard_cube(("a", "b")), 1),
            {k: enc.apply(()) for k, enc in enumerate(all_encodings(0, 2))},
        ),
        tensor_sync(standard_cube(("a",)), standard_cube(("abar",)), ALPHA),
        compile_text("(a.nil + b.nil) || abar.nil", ALPHA),
    ]
    catalog.extend(random_precube_wedge(seed) for seed in range(6))
    for K in catalog:
        check_relations(K)


def test_random_wedges_realize_honestly():
    from corpus import random_precube_wedge
    from hdts import in_hda_hdts, realize, validate

    for seed in range(10):
        K = random_precube_wedge(seed)
        assert in_hda_hdts(K)
        assert validate(realize(K).system).intermediate


def test_relations_catch_broken_labels():
    K = edge_precube()
    with pytest.raises(PrecubeError, match=r"cell \(1,0\) has no well-formed label word"):
        check_relations(replace(K, labels={**K.labels, 1: {0: ("a", "b")}}))
    faces, syms, _ = keyed_tables(K)
    with pytest.raises(PrecubeError, match=r"cell \(1,0\) has no well-formed label word"):
        make_precube(K.cells, faces, syms, {(1, 0): ("a", "b")})


@pytest.mark.parametrize(
    "table,key,message",
    [
        ("faces", (2, 0, 2, 1), "cell (2,0) misses face (2,1)"),
        ("syms", (2, 0, 1), "cell (2,0) misses swap 1"),
        ("labels", (2, 0), "cell (2,0) has no well-formed label word"),
    ],
)
def test_make_precube_names_the_missing_entry(table, key, message):
    sq = standard_cube(("a", "b"))
    tables = dict(zip(("faces", "syms", "labels"), keyed_tables(sq)))
    assert make_precube(sq.cells, *tables.values()) == sq
    del tables[table][key]
    with pytest.raises(PrecubeError) as exc:
        make_precube(sq.cells, *tables.values())
    assert str(exc.value) == message


def test_check_relations_rejects_rows_of_the_wrong_length():
    sq = standard_cube(("a", "b"))
    for table in ("faces", "syms"):
        rows = getattr(sq, table)
        short = {**rows, 2: {**rows[2], 0: rows[2][0][:-1]}}
        with pytest.raises(PrecubeError, match=r"cell \(2,0\) has a face or swap row"):
            check_relations(replace(sq, **{table: short}))


# ---------------------------------------------------------------------------
# colimits


def test_coproduct_of_two_edges():
    out, cocones = colimit_presheaf([edge_precube("a"), edge_precube("b")])
    check_relations(out)
    assert cell_counts(out) == [4, 2]
    assert len(cocones) == 2


def test_wedge_of_two_edges():
    point = make_precube({0: (0,)}, {}, {}, {})
    left, right = edge_precube("a"), edge_precube("b")
    arrows = [
        (2, 0, PrecubeMap(point, left, {(0, 0): 0})),
        (2, 1, PrecubeMap(point, right, {(0, 0): 0})),
    ]
    out, _ = colimit_presheaf([left, right, point], arrows)
    check_relations(out)
    assert cell_counts(out) == [3, 2]


def test_double_square_pushout_counts():
    D = double_square()
    check_relations(D)
    assert cell_counts(D) == [4, 4, 4]


def test_colimit_rejects_label_breaking_arrow():
    left, right = edge_precube("a"), edge_precube("b")
    bad = PrecubeMap(left, right, {(0, 0): 0, (0, 1): 1, (1, 0): 0})
    with pytest.raises(PrecubeError):
        colimit_presheaf([left, right], [(0, 1, bad)])


# ---------------------------------------------------------------------------
# unique fillers


@pytest.mark.parametrize("word", [w for n in range(4) for w in itertools.product("ab", repeat=n)])
def test_standard_cubes_have_unique_fillers(word):
    assert hda_check(standard_cube(word)) == []


def test_double_square_has_one_violation_per_swap_orbit():
    assert hda_check(double_square()) == [(2, 0, 2), (2, 1, 3)]


def test_one_dimensional_sets_trivially_pass():
    assert hda_check(edge_precube()) == []


def test_shell_word_is_induced_by_faces():
    K = standard_cube(("a", "b"))
    for c in K.ncells(2):
        assert shell_word(shell_of(K, 2, c), K) == K.label(2, c)


def test_shells_of_cells_are_compatible():
    K = standard_cube(("a", "b", "c"))
    for n in (2, 3):
        for c in K.ncells(n):
            check_shell(K, shell_of(K, n, c))
    # mismatched corners are rejected
    sq = standard_cube(("a", "b"))
    bad = Shell(2, {(1, 0): 0, (1, 1): 0, (2, 0): 1, (2, 1): 2})
    with pytest.raises(PrecubeError):
        check_shell(sq, bad)


def test_sh_reflect_identity_on_cubes():
    K = standard_cube(("a", "b"))
    out, q = sh_reflect(K)
    assert out == K and q.is_identity


def test_sh_reflect_collapses_double_square():
    out, q = sh_reflect(double_square())
    check_relations(out)
    assert iso_check_precube(out, standard_cube(("a", "b"))) is not None
    # the quotient map hits every cell
    assert set(q.cell_map) == {(n, c) for n in double_square().dims() for c in double_square().ncells(n)}


def test_sh_reflect_identity_on_not_strong_complex():
    K = not_strong_complex()
    out, q = sh_reflect(K)
    assert out == K and q.is_identity


def test_sh_reflect_collapses_double_three_cube():
    frame = boundary(("a", "b", "c"))
    full = standard_cube(("a", "b", "c"))
    incl = PrecubeMap(
        frame, full, {(n, c): c for n in frame.dims() for c in frame.ncells(n)}
    )
    out, _ = colimit_presheaf([frame, full, full], [(0, 1, incl), (0, 2, incl)])
    assert cell_counts(out) == [8, 12, 12, 12]
    reflected, _ = sh_reflect(out)
    assert hda_check(reflected) == []
    assert iso_check_precube(reflected, full) is not None


def test_sh_reflect_output_always_has_unique_fillers():
    corpus = [
        standard_cube(("a", "b")),
        double_square(),
        not_strong_complex(),
        boundary(("a", "b", "c")),
    ]
    for K in corpus:
        out, q = sh_reflect(K)
        check_relations(out)
        assert hda_check(out) == []
        from hdts.precube import check_precube_map

        check_precube_map(q)


def test_sh_reflect_handles_triple_square():
    frame = boundary(("a", "b"))
    full = standard_cube(("a", "b"))
    incl = identity_precube_map(frame)
    incl = PrecubeMap(frame, full, {k: v for k, v in incl.cell_map.items()})
    out, _ = colimit_presheaf(
        [frame, full, full, full], [(0, 1, incl), (0, 2, incl), (0, 3, incl)]
    )
    assert cell_counts(out) == [4, 4, 6]
    reflected, _ = sh_reflect(out)
    assert iso_check_precube(reflected, full) is not None
    assert hda_check(reflected) == []


# ---------------------------------------------------------------------------
# gluing


def frame_gluing(word, copies):
    """``copies`` cubes on ``word`` glued along their common boundary."""
    frame, full = boundary(word), standard_cube(word)
    incl = PrecubeMap(frame, full, {(n, c): c for n in frame.dims() for c in frame.ncells(n)})
    return [frame] + [full] * copies, [(0, i, incl) for i in range(1, copies + 1)]


def decorated_gluing():
    """A truncated edge whose ends are glued to two decorated points."""
    edge = edge_precube("a")
    edge = replace(edge, decoration={0: "q", 1: "s"}, initial=0, truncated=True)
    points = [make_precube({0: (0,)}, {}, {}, {}, {0: name}) for name in ("r", "p")]
    arrows = [(1, 0, PrecubeMap(points[0], edge, {(0, 0): 1})),
              (2, 0, PrecubeMap(points[1], edge, {(0, 0): 0}))]
    return [edge] + points, arrows


GLUINGS = [random_wedge_diagram(seed) for seed in range(8)] + [
    frame_gluing(("a", "b"), 2),
    frame_gluing(("a", "b"), 3),
    frame_gluing(("a", "b", "c"), 2),
    decorated_gluing(),
]


@pytest.mark.parametrize("objects,arrows", GLUINGS)
def test_colimit_and_sh_reflect_match_the_merging_oracle(objects, arrows, monkeypatch):
    out, cocones = colimit_presheaf(objects, arrows)
    want, want_cocones = merging_colimit_presheaf(objects, arrows)
    assert out == want
    assert [f.cell_map for f in cocones] == [f.cell_map for f in want_cocones]
    got, q = sh_reflect(out)
    monkeypatch.setattr(precube, "_quotient", _merging_quotient)
    want, want_q = sh_reflect(want)
    assert got == want and q.cell_map == want_q.cell_map


def test_colimit_keeps_the_least_decoration_and_the_truncated_flag():
    out, _ = colimit_presheaf(*decorated_gluing())
    assert out.decoration == {0: "p", 1: "r"} and out.truncated


def _ids(K, dims=None):
    return {(n, c): c for n in K.dims() for c in K.ncells(n) if dims is None or n in dims}


def test_glue_rejects_merges_that_disagree():
    a = standard_cube(("a",))
    with pytest.raises(PrecubeError, match="labels"):
        glue([(a, _ids(a)), (standard_cube(("b",)), _ids(a))])
    with pytest.raises(PrecubeError, match="faces"):
        glue([(a, _ids(a)), (a, {(0, 0): 1, (0, 1): 0, (1, 0): 0})])
    # two fillers of one shell agree on labels and faces, not on their swaps
    D = double_square()
    _, x, y = hda_check(D)[0]
    tops = {(2, x): 0, (2, y): 0}
    tops.update(((2, c), k) for k, c in enumerate(sorted(set(D.ncells(2)) - {x, y}), 1))
    with pytest.raises(PrecubeError, match="swaps"):
        glue([(D, {**_ids(D, (0, 1)), **tops})])


def test_glue_renumbers_drops_and_merges():
    sq = standard_cube(("a", "b"))
    edges = _ids(sq, (0, 1))
    out = glue([(sq, edges), (sq, edges)], initial=0)
    faces, _, labels = keyed_tables(sq)
    assert out == make_precube(
        {0: sq.vertices, 1: sq.ncells(1)}, {k: v for k, v in faces.items() if k[0] == 1}, {},
        {k: v for k, v in labels.items() if k[0] == 1}, {}, 0,
    )
    check_relations(out)


# ---------------------------------------------------------------------------
# morphism enumeration


def test_hom_counts_into_square():
    sq = standard_cube(("a", "b"))
    assert len(hom_enumerate_precube(standard_cube(("a",)), sq)) == 2
    assert len(hom_enumerate_precube(sq, sq)) == 1
    assert len(hom_enumerate_precube(standard_cube(("a", "a")), standard_cube(("a", "a")))) == 2


def test_hom_preserves_structure():
    for f in hom_enumerate_precube(standard_cube(("a",)), standard_cube(("a", "b"))):
        from hdts.precube import check_precube_map

        check_precube_map(f)


def test_iso_check_flags():
    K = edge_precube("a")
    with_init = replace(K, initial=0)
    other_init = replace(K, initial=1)
    assert iso_check_precube(with_init, other_init) is not None
    assert iso_check_precube(with_init, other_init, match_initial=True) is None
    decorated = replace(K, decoration={0: "p"}, initial=0)
    plain = replace(K, initial=0)
    assert iso_check_precube(decorated, plain, match_decoration=True) is None
    assert iso_check_precube(decorated, decorated, match_decoration=True) is not None
