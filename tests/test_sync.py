"""Fibered products, directed coskeleta, synchronized tensor products."""

import functools
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from corpus import (
    ALPHA,
    CCS_CORPUS,
    RANDOM_SYNC_TERMS,
    _word_pair_entry,
    _word_pair_map,
    non_twisted,
    random_precube_wedge,
    keyed_tables,
    sync_edges,
    word_keyed_tensor_sync,
)
from hdts import (
    CubeEncoding,
    PrecubeError,
    check_relations,
    compile_text,
    cosk_directed,
    cube,
    fibered_product,
    iso_check,
    iso_check_precube,
    make_precube,
    realize,
    standard_cube,
    tensor_sync,
    truncate,
    validate,
)
from hdts import ccs, sync
from hdts.alphabet import ConfigError, make_alphabet
from hdts.encoding import (
    NEG,
    POS,
    all_encodings,
    cube_vertices,
    face_encoding,
    identity_encoding,
)
from hdts.serialize import dumps, precube_to_json
from hdts.sync import _fibered


def cell_counts(K):
    return [len(K.ncells(n)) for n in K.dims()]


def skeleton(word):
    return truncate(standard_cube(word), 1)


def skeleton_vertex_iso(word):
    return {k: enc.apply(()) for k, enc in enumerate(all_encodings(0, len(word)))}


def point():
    return make_precube({0: (0,)}, {}, {}, {})


# ---------------------------------------------------------------------------
# fibered products


def test_fibered_square_frame_with_cobar_edge():
    F = fibered_product(skeleton(("a", "b")), skeleton(("abar",)), ALPHA)
    check_relations(F)
    assert len(F.vertices) == 8
    assert len(F.ncells(1)) == 14
    assert len(sync_edges(F, ALPHA)) == 2
    # oracle: count the three kinds of edges directly
    k_edges, l_edges = 4, 1
    k_verts, l_verts = 4, 2
    syncs = sum(
        1
        for lk in ("a", "a", "b", "b")
        if ALPHA.bar(lk) == "abar"
    )
    assert k_edges * l_verts + k_verts * l_edges + syncs == 14


def test_fibered_edge_with_point():
    F = fibered_product(skeleton(("a",)), point(), ALPHA)
    assert cell_counts(F) == [2, 1]


def test_fibered_no_synchronization():
    F = fibered_product(skeleton(("a",)), skeleton(("b",)), ALPHA)
    assert cell_counts(F) == [4, 4]
    assert sync_edges(F, ALPHA) == []


def test_fibered_rejects_higher_dimensional_input():
    with pytest.raises(PrecubeError):
        fibered_product(standard_cube(("a", "b")), point(), ALPHA)


# ---------------------------------------------------------------------------
# non-twisted tables


def test_non_twisted_identity_and_swap():
    table_id = {eps: eps for eps in cube_vertices(2)}
    assert non_twisted(2, 2, table_id)
    table_swap = {eps: (eps[1], eps[0]) for eps in cube_vertices(2)}
    assert non_twisted(2, 2, table_swap)


def test_non_twisted_requires_coverage():
    table = {eps: (eps[0], eps[0]) for eps in cube_vertices(2)}
    assert not non_twisted(2, 2, table)


def test_non_twisted_allows_repeated_projection_with_coverage():
    table = {eps: (eps[0], eps[1], eps[0]) for eps in cube_vertices(2)}
    assert non_twisted(2, 3, table)


def test_non_twisted_rejects_max_min():
    table = {eps: (max(eps), min(eps)) for eps in cube_vertices(2)}
    assert not non_twisted(2, 2, table)


# ---------------------------------------------------------------------------
# directed coskeleton


def test_cosk_recovers_the_square():
    out = cosk_directed(skeleton(("a", "b")), skeleton_vertex_iso(("a", "b")))
    check_relations(out)
    assert iso_check_precube(out, standard_cube(("a", "b"))) is not None


def test_cosk_recovers_the_three_cube():
    out = cosk_directed(skeleton(("a", "b", "c")), skeleton_vertex_iso(("a", "b", "c")))
    check_relations(out)
    assert iso_check_precube(out, standard_cube(("a", "b", "c"))) is not None


def test_cosk_of_synchronized_pair():
    fib = _fibered(skeleton(("a",)), skeleton(("abar",)), ALPHA)
    kbits = skeleton_vertex_iso(("a",))
    iso = {
        vid: kbits[kv] + kbits[lv] for (kv, lv), vid in fib.vertex_id.items()
    }
    out = cosk_directed(fib.precube, iso)
    check_relations(out)
    assert cell_counts(out) == [4, 5, 2]
    assert len(sync_edges(out, ALPHA)) == 1
    words = sorted(out.label(2, c) for c in out.ncells(2))
    assert words == [("a", "abar"), ("abar", "a")]


def test_cosk_single_vertex():
    out = cosk_directed(point(), {0: ()})
    assert cell_counts(out) == [1]


def test_cosk_dimension_bound():
    # output dimension never exceeds the corner cube's dimension
    for word in [("a",), ("a", "b")]:
        out = cosk_directed(skeleton(word), skeleton_vertex_iso(word))
        assert out.dim <= len(word)


def test_cosk_fillers_have_non_twisted_vertex_tables():
    from hdts.encoding import cube_vertices
    from hdts.sync import _cosk, _fibered

    fib = _fibered(skeleton(("a",)), skeleton(("abar",)), ALPHA)
    kbits = skeleton_vertex_iso(("a",))
    iso = {vid: kbits[kv] + kbits[lv] for (kv, lv), vid in fib.vertex_id.items()}
    result = _cosk(fib.precube, iso)
    for (n, _), (vkey, _) in result.contents.items():
        table = dict(zip(cube_vertices(n), vkey))
        assert non_twisted(n, 2, table)


def test_cosk_requires_bijective_vertex_table():
    with pytest.raises(PrecubeError):
        cosk_directed(skeleton(("a",)), {0: (0,), 1: (0,)})


# ---------------------------------------------------------------------------
# synchronized tensor product


def test_tensor_unit_on_points():
    for L in [standard_cube(("a",)), standard_cube(("a", "b")), skeleton(("a", "b"))]:
        out = tensor_sync(point(), L, ALPHA)
        check_relations(out)
        assert iso_check_precube(out, L) is not None
        out = tensor_sync(L, point(), ALPHA)
        assert iso_check_precube(out, L) is not None


def test_tensor_synchronizing_edges():
    out = tensor_sync(standard_cube(("a",)), standard_cube(("abar",)), ALPHA)
    check_relations(out)
    assert cell_counts(out) == [4, 5, 2]
    assert len(sync_edges(out, ALPHA)) == 1


def test_tensor_independent_edges_realizes_as_square():
    out = tensor_sync(standard_cube(("a",)), standard_cube(("b",)), ALPHA)
    check_relations(out)
    assert iso_check(realize(out).system, cube(("a", "b"))) is not None


@pytest.mark.parametrize(
    "wl,wr",
    [(("a",), ("b",)), (("a",), ("abar",)), (("a", "b"), ("abar",))],
)
def test_tensor_symmetric_up_to_realization_iso(wl, wr):
    left = tensor_sync(standard_cube(wl), standard_cube(wr), ALPHA)
    right = tensor_sync(standard_cube(wr), standard_cube(wl), ALPHA)
    assert iso_check(realize(left).system, realize(right).system) is not None


def test_tensor_factors_realize_honestly():
    # realization of the coskeleton of a fibered product of cube
    # skeletons is an honest transition system, for small dimensions
    for wm in [("a",), ("a", "b")]:
        for wn in [("abar",), ("b", "abar")]:
            fib = _fibered(skeleton(wm), skeleton(wn), ALPHA)
            kbits = skeleton_vertex_iso(wm)
            lbits = skeleton_vertex_iso(wn)
            iso = {
                vid: kbits[kv] + lbits[lv]
                for (kv, lv), vid in fib.vertex_id.items()
            }
            out = cosk_directed(fib.precube, iso)
            report = validate(realize(out).system)
            assert report.csa1 and report.uisa


# ---------------------------------------------------------------------------
# shape-keyed pair entries and pair maps against the word-keyed oracle


def compile_json(term, cfg=ALPHA):
    return dumps(precube_to_json(ccs.semantics(ccs.parse(term, cfg), cfg)))


SYNC_TERMS = [t for t in CCS_CORPUS if "||" in t] + [
    "a.a.nil || a.nil",
    "tau.a.nil || abar.nil",
    "a.abar.nil || a.nil",
    "(nu a)(a.abar.nil || abar.a.nil)",
    "(nu b)(b.bbar.nil || (nu a)(a.nil || bbar.nil))",
]


@pytest.mark.parametrize("term", SYNC_TERMS + RANDOM_SYNC_TERMS)
def test_tensor_matches_word_keyed_oracle(term, monkeypatch):
    got = compile_json(term)
    monkeypatch.setattr(ccs, "tensor_sync", word_keyed_tensor_sync)
    assert got == compile_json(term)


@pytest.mark.parametrize(
    "wk,wl",
    [
        (("a", "a"), ("abar",)),
        (("a", "abar"), ("a",)),
        (("tau", "a"), ("abar",)),
        (("b",), ("abar", "bbar")),
    ],
)
def test_tensor_of_cubes_matches_word_keyed_oracle(wk, wl):
    K, L = standard_cube(wk), standard_cube(wl)
    want = precube_to_json(word_keyed_tensor_sync(K, L, ALPHA))
    assert precube_to_json(tensor_sync(K, L, ALPHA)) == want


def test_cached_shape_carries_no_labels():
    cfg = make_alphabet(["a", "abar", "c", "u", "ubar", "w"], pairs=[("a", "abar"), ("u", "ubar")])
    first, second = "a.c.nil || abar.nil", "u.w.nil || ubar.nil"
    sync._shape_entry.cache_clear()
    sync._pair_map.cache_clear()
    fresh = compile_json(second, cfg)
    sync._shape_entry.cache_clear()
    sync._pair_map.cache_clear()
    compile_json(first, cfg)
    built = sync._shape_entry.cache_info().misses
    assert compile_json(second, cfg) == fresh
    # the second term reused every shape the first one built
    assert sync._shape_entry.cache_info().misses == built


def test_tensor_checks_labels_of_a_cached_shape():
    tensor_sync(standard_cube(("a",)), standard_cube(("b",)), ALPHA)
    with pytest.raises(ConfigError, match="zz"):
        tensor_sync(standard_cube(("zz",)), standard_cube(("b",)), ALPHA)


# ---------------------------------------------------------------------------
# the tensor product built from interiors, against the colimit oracle

P_ALPHA = make_alphabet([f"p{k}" for k in range(6)])


def p_term(k):
    return " || ".join(f"p{i}.nil" for i in range(k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_parallel_edges_match_word_keyed_oracle(k, monkeypatch):
    got = compile_json(p_term(k), P_ALPHA)
    monkeypatch.setattr(ccs, "tensor_sync", word_keyed_tensor_sync)
    assert got == compile_json(p_term(k), P_ALPHA)


def test_five_parallel_edges_give_the_five_cube():
    out = ccs.semantics(ccs.parse(p_term(5), P_ALPHA), P_ALPHA)
    check_relations(out)
    # the symmetric 5-cube: C(5, j) * 2^(5-j) * j! cells in dimension j
    assert {n: len(out.ncells(n)) for n in out.dims()} == {
        0: 32, 1: 80, 2: 160, 3: 240, 4: 240, 5: 120
    }


@pytest.mark.parametrize(
    "k,digest",
    [
        (5, "c87792bc7fc2d81ad16998d1e0aba1ab3e8c4b14f41eb6b29b7f2d3d6ddbb5a0"),
        (6, "935c980987f1e8d3b9dd44368dc9395aaefebefccdae20f999ed34811668d5cf"),
    ],
    ids=["k5", "k6"],
)
def test_parallel_edges_keep_their_bytes(k, digest):
    """The compiled bytes of the 5- and 6-fold products, as the
    coskeleton search first produced them."""
    assert hashlib.sha256(compile_json(p_term(k), P_ALPHA).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "k,digest",
    [
        (5, "c87792bc7fc2d81ad16998d1e0aba1ab3e8c4b14f41eb6b29b7f2d3d6ddbb5a0"),
        (6, "935c980987f1e8d3b9dd44368dc9395aaefebefccdae20f999ed34811668d5cf"),
    ],
    ids=["k5", "k6"],
)
def test_parallel_edges_keep_their_bytes_written_from_tables(k, digest):
    """The digests above, with the set written by ``dumps(K)``."""
    K = ccs.semantics(ccs.parse(p_term(k), P_ALPHA), P_ALPHA)
    assert hashlib.sha256(dumps(K).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(8))
def test_tensor_of_wedges_matches_word_keyed_oracle(seed):
    W = random_precube_wedge(seed)
    for C in (standard_cube(("abar",)), standard_cube(("b", "abar"))):
        for K, L in ((W, C), (C, W)):
            want = precube_to_json(word_keyed_tensor_sync(K, L, ALPHA))
            assert precube_to_json(tensor_sync(K, L, ALPHA)) == want


def self_swapped_square():
    """A square whose swap is itself: both faces agree in each direction,
    so its boundary is a path of two ``a`` edges."""
    faces = {(1, 0, 1, 0): 0, (1, 0, 1, 1): 1, (1, 1, 1, 0): 1, (1, 1, 1, 1): 2}
    faces.update({(2, 0, i, alpha): alpha for i in (1, 2) for alpha in (0, 1)})
    labels = {(1, 0): ("a",), (1, 1): ("a",), (2, 0): ("a", "a")}
    return make_precube({0: (0, 1, 2), 1: (0, 1), 2: (0,)}, faces, {(2, 0, 1): 0}, labels)


def test_tensor_identifies_interiors_under_the_stabilizer():
    S, B = self_swapped_square(), standard_cube(("b",))
    check_relations(S)
    for K, L in ((S, B), (B, S)):
        out = tensor_sync(K, L, ALPHA)
        check_relations(out)
        assert {n: len(out.ncells(n)) for n in out.dims()} == {0: 6, 1: 7, 2: 6, 3: 3}
        assert precube_to_json(out) == precube_to_json(word_keyed_tensor_sync(K, L, ALPHA))


def renumbered(K, perm):
    """``K`` with each n-cell c renamed ``perm[n][c]``."""

    def f(d, c):
        return perm[d][c]

    faces, syms, labels = keyed_tables(K)
    faces = {(d, f(d, c), i, a): f(d - 1, v) for (d, c, i, a), v in faces.items()}
    syms = {(d, f(d, c), i): f(d, v) for (d, c, i), v in syms.items()}
    labels = {(d, f(d, c)): w for (d, c), w in labels.items()}
    decoration = {f(0, v): text for v, text in K.decoration.items()}
    initial = None if K.initial is None else f(0, K.initial)
    return make_precube(K.cells, faces, syms, labels, decoration, initial)


def reversed_ids(K, n):
    """``K`` with its n-cells numbered backwards."""
    top = len(K.ncells(n)) - 1
    return renumbered(K, {d: {c: top - c if d == n else c for c in K.ncells(d)} for d in K.dims()})


@pytest.mark.parametrize("word,other", [(("a", "b", "abar"), ("abar",)), (("a", "a", "b"), ("b",))])
def test_tensor_carries_faces_to_their_orbit_representatives(word, other):
    """With the squares of a 3-cube numbered backwards, the faces of the
    least 3-cell are not the least squares of their swap orbits."""
    K, C = reversed_ids(standard_cube(word), 2), standard_cube(other)
    check_relations(K)
    for X, Y in ((K, C), (C, K)):
        want = precube_to_json(word_keyed_tensor_sync(X, Y, ALPHA))
        assert precube_to_json(tensor_sync(X, Y, ALPHA)) == want


def order_preserving_faces(m):
    """Every order-preserving map [k] -> [m]: a face of [m] or the identity."""
    for fhat in itertools.product(("var", NEG, POS), repeat=m):
        k = itertools.count(1)
        yield CubeEncoding(fhat.count("var"), m, tuple(next(k) if v == "var" else v for v in fhat))


def interior_tables(entry, m, n):
    """The cells of a word-keyed pair entry of cubes [m] and [n] whose
    vertices vary in all m + n coordinates, by dimension and in
    ascending id, each with its direction table: the direction of
    ``[d]`` that moves each coordinate."""
    fib, cosk = entry
    pc = cosk.precube

    def bits(v):
        kv, lv = fib.vertex_pair[v]
        return all_encodings(0, m)[kv].apply(()) + all_encodings(0, n)[lv].apply(())

    out = {}
    for d in pc.dims():
        for c in pc.ncells(d):
            if d == 0:
                corners = [bits(c)]
            elif d == 1:
                corners = [bits(pc.face(1, c, 1, a)) for a in (0, 1)]
            else:
                corners = cosk.contents[(d, c)][0]
            if all(len({b[j] for b in corners}) == 2 for j in range(m + n)):
                # vertex 1 << (d - e) is the unit vector of direction e
                table = tuple(
                    next(e for e in range(1, d + 1) if corners[1 << (d - e)][j])
                    for j in range(m + n)
                )
                out.setdefault(d, []).append((c, table))
    return out


@functools.lru_cache(maxsize=None)
def coskeleton_entry(word_k, word_l, cfg):
    """The word-keyed pair entry of two words and its interior tables."""
    entry = _word_pair_entry(word_k, word_l, cfg)
    return entry + (interior_tables(entry, len(word_k), len(word_l)),)


def slot_maps(slot, m, n):
    """The face maps of [m] and [n] that a slot (coordinate of the first
    cube or None, coordinate of the second or None, alpha) fixes."""
    jk, jl, alpha = slot
    return tuple(
        identity_encoding(size) if j is None else face_encoding(j + 1, alpha, size)
        for j, size in ((jk, m), (jl, n))
    )


def check_entry_against_the_coskeleton(word_k, word_l, cfg, got, letters):
    """``got`` (a closed-form entry over the renamed letters ``letters``
    maps back from) is the interior of ``cosk_directed`` of
    ``fibered_product`` of the two cube skeletons: the same tables in
    the same order, the same labels and swaps, and each face is the one
    interior cell of one face pair's entry that the face inclusion
    carries onto it.  Every boundary cell is such a face image exactly
    once, and no interior cell is one."""
    fib, cosk, inner = coskeleton_entry(word_k, word_l, cfg)
    pc = cosk.precube
    m, n = len(word_k), len(word_l)
    assert {d: tuple(t for _, t in cells) for d, cells in inner.items()} == dict(got.tables)
    hits = {}
    for gk in order_preserving_faces(m):
        for gl in order_preserving_faces(n):
            if gk.is_identity and gl.is_identity:
                continue
            sub_k = tuple(x for x, v in zip(word_k, gk.fhat) if v not in (NEG, POS))
            sub_l = tuple(x for x, v in zip(word_l, gl.fhat) if v not in (NEG, POS))
            face = coskeleton_entry(sub_k, sub_l, cfg)
            cell_map = _word_pair_map(face[:2], (fib, cosk), gk, gl)
            for d, cells in face[2].items():
                for z, (c, _) in enumerate(cells):
                    hits.setdefault((d, cell_map[(d, c)]), []).append((gk, gl, z))
    rank = {(d, c): x for d, cells in inner.items() for x, (c, _) in enumerate(cells)}
    for d, cells in inner.items():
        for x, (c, _) in enumerate(cells):
            assert (d, c) not in hits
            if d:
                assert tuple(letters[a] for a in got.labels[d][x]) == pc.label(d, c)
            assert got.swaps[d][x] == tuple(rank[(d, pc.sym(d, c, i))] for i in range(1, d))
            want = []
            for i in range(1, d + 1):
                for alpha in (0, 1):
                    [hit] = hits[(d - 1, pc.face(d, c, i, alpha))]
                    want.append(hit)
            slots = got.slots[d]
            got_faces = tuple(slot_maps(slots[s], m, n) + (z,) for s, z in got.faces[d][x])
            assert got_faces == tuple(want)
    for d in pc.dims():
        for c in pc.ncells(d):
            if (d, c) not in rank:
                assert len(hits[(d, c)]) == 1


def test_closed_form_entries_are_the_interior_of_the_coskeleton(monkeypatch):
    """The pair entries built by products of the corpus, checked against
    the paper's construction, which the word-keyed oracle builds."""
    shapes = set()
    shape = sync._shape

    def recording_shape(*args):
        key, letters = shape(*args)
        shapes.add(key)
        return key, letters

    sync._shape_entry.cache_clear()
    monkeypatch.setattr(sync, "_shape", recording_shape)
    for term in SYNC_TERMS + RANDOM_SYNC_TERMS[:50]:
        compile_json(term)
    compile_json(p_term(4), P_ALPHA)
    tensor_sync(self_swapped_square(), standard_cube(("b",)), ALPHA)
    assert len(shapes) >= 30

    for word_k, word_l, pairs in sorted(shapes):
        cfg = make_alphabet(word_k + word_l, tau=sync._TAU, pairs=pairs)
        got = sync._shape_entry((word_k, word_l, pairs))
        check_entry_against_the_coskeleton(word_k, word_l, cfg, got, {x: x for x in cfg.labels})


LETTERS = st.sampled_from(["a", "abar", "b", "tau"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    word_k=st.lists(LETTERS, max_size=3).map(tuple),
    word_l=st.lists(LETTERS, max_size=2).map(tuple),
)
def test_closed_form_entries_match_the_coskeleton_on_generated_words(word_k, word_l):
    shape, letters = sync._shape(word_k, word_l, ALPHA)
    check_entry_against_the_coskeleton(word_k, word_l, ALPHA, sync._shape_entry(shape), letters)


@st.composite
def shuffled(draw, K):
    """``K`` with the cells of each dimension renumbered by a drawn permutation."""
    rng = draw(st.randoms(use_true_random=False))
    perm = {d: dict(zip(K.ncells(d), rng.sample(K.ncells(d), len(K.ncells(d))))) for d in K.dims()}
    return renumbered(K, perm)


def cubes(max_len, min_len=0):
    words = st.lists(LETTERS, min_size=min_len, max_size=max_len)
    return words.map(lambda w: standard_cube(tuple(w)))


WEDGES = st.integers(0, 40).map(random_precube_wedge)
SQUARE = st.just(self_swapped_square())

#: factor pairs by pattern, each factor renumbered; the oracle glues every
#: entry, so products stay small
FACTOR_PAIRS = {
    "wedge-edge": st.tuples(WEDGES.flatmap(shuffled), cubes(1).flatmap(shuffled)),
    # a 3-cube's squares come in swap orbits of two, so some faces of its
    # least 3-cell are not least in their orbits: they go through _pair_map
    "three-cube": st.tuples(cubes(3, 3).flatmap(shuffled), cubes(0)),
    # the square that is its own swap has a stabilizer
    "self-swapped": st.tuples(SQUARE.flatmap(shuffled), (cubes(1) | SQUARE).flatmap(shuffled)),
    "same-set": (WEDGES.filter(lambda W: W.dim <= 1) | cubes(1) | SQUARE)
    .flatmap(shuffled)
    .map(lambda K: (K, K)),
}


@pytest.mark.parametrize("pattern", FACTOR_PAIRS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_tensor_of_renumbered_factors_matches_word_keyed_oracle(pattern, data):
    pair = data.draw(FACTOR_PAIRS[pattern])
    K, L = data.draw(st.sampled_from([pair, pair[::-1]]))
    want = precube_to_json(word_keyed_tensor_sync(K, L, ALPHA))
    assert precube_to_json(tensor_sync(K, L, ALPHA)) == want


# ---------------------------------------------------------------------------
# the two kinds of blocks: slices of the factors, and pairs without a vertex

#: one term per class of the compile-par benchmark's decks: two and three
#: paths, four edges, a free and a restricted synchronizing pair beside a
#: path, two pairs, and a restriction over a whole product
PAR_ALPHA = make_alphabet(sorted(ALPHA.labels | set("defgh")), pairs=ALPHA.pairs)
PAR_DECK_TERMS = [
    "d.e.nil || f.g.h.nil",
    "a.b.c.nil || d.e.f.nil || g.nil",
    "d.nil || e.nil || f.nil || g.nil",
    "(a.nil || abar.nil) || d.e.nil",
    "(nu a)(a.nil || abar.nil) || d.e.nil",
    "(a.nil || abar.nil) || (b.nil || bbar.nil)",
    "(nu e)(d.e.nil || f.g.nil)",
    "(nu d)((a.nil || abar.nil) || d.nil)",
]

#: sha256 over the compiled JSON of ``RANDOM_SYNC_TERMS`` (over ``ALPHA``),
#: then ``PAR_DECK_TERMS`` (over ``PAR_ALPHA``), at unfold depth 4
GOLDEN_PAR_DIGEST = "a6828494b35b8bfe06fc331f621e2982cd7f2e83479f481790b7e2dcab05b063"


def test_parallel_compile_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    for text in RANDOM_SYNC_TERMS:
        digest.update(dumps(compile_text(text, ALPHA, 4)).encode())
    for text in PAR_DECK_TERMS:
        digest.update(dumps(compile_text(text, PAR_ALPHA, 4)).encode())
    assert digest.hexdigest() == GOLDEN_PAR_DIGEST


def test_no_pair_with_a_vertex_builds_a_shape(monkeypatch):
    shape = sync._shape

    def refuse_a_vertex(word_k, word_l, cfg):
        if not (word_k and word_l):
            raise AssertionError(f"a shape was built for {word_k} and {word_l}")
        return shape(word_k, word_l, cfg)

    sync._shape_entry.cache_clear()
    monkeypatch.setattr(sync, "_shape", refuse_a_vertex)
    for text in CCS_CORPUS + RANDOM_SYNC_TERMS:
        compile_text(text, ALPHA, 4)


@pytest.mark.parametrize("term,size", [("a.b.nil", 38), ("a.nil || abar.nil", 122)])
def test_slices_under_a_stabilizer_match_word_keyed_oracle(term, size):
    """Each vertex of the other factor makes one slice of the square
    that is its own swap, and its cells pair with the square too."""
    S, T = self_swapped_square(), compile_text(term, ALPHA)
    for K, L in ((S, T), (T, S)):
        out = tensor_sync(K, L, ALPHA)
        check_relations(out)
        assert out.size == size
        assert precube_to_json(out) == precube_to_json(word_keyed_tensor_sync(K, L, ALPHA))


def test_equal_words_share_one_tuple_in_a_product():
    K = compile_text(p_term(7), make_alphabet([f"p{k}" for k in range(7)]))
    words = [w for rows in K.labels.values() for w in rows.values()]
    assert len(words) == 37_200
    assert len({id(w) for w in words}) == len(set(words)) == 13_700


def test_too_large_a_product_raises_before_any_pair_entry(monkeypatch):
    entry = sync._shape_entry

    def refuse_a_pair(shape):  # entries with an empty side are permutation tables
        if shape[0] and shape[1]:
            raise AssertionError(f"the entry of {shape} was built")
        return entry(shape)

    K = compile_text(p_term(5), P_ALPHA)
    monkeypatch.setattr(sync, "_shape_entry", refuse_a_pair)
    too_large = r"^parallel product too large: 26813184 cells, over 50000$"
    with pytest.raises(PrecubeError, match=too_large):
        tensor_sync(K, K, P_ALPHA)
