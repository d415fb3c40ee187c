"""Realization of labelled symmetric precubical sets as transition systems.

The realization keeps the vertices as states, merges edges into actions
along squares (opposite edges of a square perform the same action),
emits one top transition per cell, and closes under the coherence rule.
It is a colimit construction: gluing cubes first and realizing after
gives the same system as realizing cubes first and gluing after.

Cube-shaped systems and cube-shaped precubical sets carry exactly the
same maps; ``realize_cube_map`` and ``unrealize_cube_map`` translate
back and forth.  ``cubify`` rebuilds a system out of every cube that
maps into it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .core import (
    Action,
    HdtsMorphism,
    StructureError,
    Transition,
    WeakHDTS,
    _Index,
    check_morphism,
    coherence_closure,
    cube,
    transition,
    validate,
)
from .encoding import (
    NEG,
    POS,
    CubeEncoding,
    cube_state_bits,
    cube_vertices,
    face_encoding,
    sym_encoding,
    vertex_ids,
    word_along,
)
from .precube import PrecubeMap, PrecubicalSet, hda_check
from .unionfind import UnionFind


@dataclass(frozen=True)
class ActionClassPartition:
    classes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def class_of(self) -> dict[int, int]:
        return {e: k for k, members in enumerate(self.classes) for e in members}


def edge_action_classes(K: PrecubicalSet) -> ActionClassPartition:
    """Partition the edges by the relation "opposite sides of a square"."""
    uf = UnionFind(K.ncells(1))
    squares = K.faces.get(2, {})
    for z in K.ncells(2):
        d10, d11, d20, d21 = squares[z]
        uf.union(d10, d11)
        uf.union(d20, d21)
    classes = tuple(tuple(g) for g in uf.groups())
    labels = []
    for members in classes:
        words = {K.label(1, e) for e in members}
        if len(words) != 1:
            raise StructureError("edges of one action class carry different labels")
        labels.append(words.pop()[0])
    return ActionClassPartition(classes, tuple(labels))


@dataclass(frozen=True)
class Realization:
    system: WeakHDTS
    state_map: Mapping[int, int]  # vertex cell -> state (identity on ids)
    edge_class: Mapping[int, int]  # edge cell -> action id
    partition: ActionClassPartition
    generators: frozenset[Transition]

    @property
    def closure_added(self) -> int:
        return len(self.system.transitions) - len(self.generators)


def realize(K: PrecubicalSet) -> Realization:
    """The transition system of a labelled symmetric precubical set.

    States are the vertices and actions the edge classes.  Each cell of
    dimension n >= 1 generates one n-transition from its bottom corner
    to its top corner along its direction classes, read off its face row
    one dimension at a time: an edge runs from d_1^0 to d_1^1 along its
    class, and an n-cell from its d_1^0 face's bottom to its d_1^1
    face's top along its d_n^0 face's directions and the last of its
    d_{n-1}^0 face's.  The transitions are the coherence closure of the
    generators; lower transitions of each cube come from its faces.
    """
    partition = edge_action_classes(K)
    edge_class = partition.class_of()
    actions = tuple(Action(k, lab) for k, lab in enumerate(partition.labels))
    generators = set()
    below = {v: (v, (), v) for v in K.vertices}  # cell -> (bottom, directions, top)
    for n in K.dims()[1:]:
        rows, here = K.faces[n], {}
        for c in K.ncells(n):
            row = rows[c]
            acts = below[row[-2]][1] + below[row[-4]][1][-1:] if n > 1 else (edge_class[c],)
            here[c] = (below[row[0]][0], acts, below[row[1]][2])
        generators.update(transition(*corners) for corners in here.values())
        below = here
    closed = coherence_closure(generators)
    system = WeakHDTS(frozenset(K.vertices), actions, closed)
    return Realization(
        system, {v: v for v in K.vertices}, edge_class, partition, frozenset(generators)
    )


def realize_map(f: PrecubeMap, rsrc: Realization | None = None, rdst: Realization | None = None) -> HdtsMorphism:
    """The system morphism induced by a map of precubical sets."""
    rsrc = rsrc or realize(f.src)
    rdst = rdst or realize(f.dst)
    smap = {v: f.cell_map[(0, v)] for v in f.src.vertices}
    amap: dict[int, int] = {}
    for e in f.src.ncells(1):
        k = rsrc.edge_class[e]
        k2 = rdst.edge_class[f.cell_map[(1, e)]]
        if amap.setdefault(k, k2) != k2:
            raise StructureError("edge classes are not respected by the map")
    out = HdtsMorphism(rsrc.system, rdst.system, smap, amap)
    check_morphism(out)
    return out


# ---------------------------------------------------------------------------
# cube-level dictionary


def realize_cube_map(
    enc: CubeEncoding, src_word: Sequence[str], dst_word: Sequence[str]
) -> HdtsMorphism:
    """The system morphism between cubes induced by a cube-category map."""
    src_word, dst_word = tuple(src_word), tuple(dst_word)
    if enc.m != len(src_word) or enc.n != len(dst_word):
        raise StructureError("encoding dimensions do not match the words")
    for i, (x, y) in enumerate(zip(src_word, word_along(dst_word, enc)), 1):
        if x != y:
            raise StructureError(f"label mismatch: source letter {i} is {x!r}, target reads {y!r}")
    smap = dict(enumerate(vertex_ids(enc)))
    amap = {i: enc.fbar_inv(i) for i in range(1, enc.m + 1)}
    return HdtsMorphism(cube(src_word), cube(dst_word), smap, amap)


def unrealize_cube_map(g: HdtsMorphism) -> CubeEncoding:
    """Recover the unique cube-category map inducing ``g``.

    ``g`` must be a morphism between cube systems; the projection part
    is read off the action map, the constant part off the image of the
    bottom corner."""
    src_word = tuple(a.label for a in g.src.actions)
    dst_word = tuple(a.label for a in g.dst.actions)
    m, n = len(src_word), len(dst_word)
    if g.src != cube(src_word) or g.dst != cube(dst_word):
        raise StructureError("not a morphism between cube systems")
    under = {i: g.action_map[i] for i in range(1, m + 1)}
    if len(set(under.values())) != m:
        raise StructureError("action map of a cube morphism must be one-to-one")
    bottom_bits = cube_state_bits(n, g.state_map[0])
    image = {v: k for k, v in under.items()}
    fhat = []
    for j in range(1, n + 1):
        if j in image:
            fhat.append(image[j])
        else:
            fhat.append(NEG if bottom_bits[j - 1] == 0 else POS)
    enc = CubeEncoding(m, n, tuple(fhat))
    if realize_cube_map(enc, src_word, dst_word) != g:
        raise StructureError("morphism is not induced by any cube-category map")
    return enc


# ---------------------------------------------------------------------------
# properties


def is_strong(K: PrecubicalSet) -> bool:
    """Does the realization have unique intermediate states?"""
    return validate(realize(K).system).uisa


def in_hda_hdts(K: PrecubicalSet) -> bool:
    """Unique fillers, and the realization is an honest transition system."""
    if hda_check(K):
        return False
    report = validate(realize(K).system)
    return report.csa1 and report.uisa


# ---------------------------------------------------------------------------
# cubification


@lru_cache(maxsize=None)
def _inner_masks(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per ordering ``perm`` of positions 0..n-1, the mask of each inner
    vertex ``eps`` of ``cube_vertices(n)``: bits ``perm[j]`` with ``eps_j = 1``."""
    inner = cube_vertices(n)[1:-1]
    return tuple((perm, tuple(sum(1 << p for p, bit in zip(perm, eps) if bit) for eps in inner))
                 for perm in itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def _mask_parts(acts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The part of ``acts`` at each position mask 1 .. 2**n - 2."""
    masks = range(1, (1 << len(acts)) - 1)
    return tuple(tuple(x for p, x in enumerate(acts) if m >> p & 1) for m in masks)


def cube_maps_into(n: int, X: WeakHDTS) -> list[tuple]:
    """All morphisms from n-cubes into ``X`` as sorted tables (label word,
    state of each vertex in ``cube_vertices(n)`` order, action of each direction).

    A map is pinned by an n-transition of ``X`` (the image of the top
    transition), an ordering of its multiset, and one intermediate state
    per inner vertex; only transitions leaving the bottom corner or
    entering the top corner constrain the choice, which suffices for
    coherence-closed systems.  Intermediates are read off the split table
    per position mask of the multiset (``_mask_parts``); an ordering reads
    them by ``_inner_masks``."""
    if n == 0:
        return [((), (s,), ()) for s in sorted(X.states)]
    idx = _Index(X.transitions)
    labels = X.label_map()
    out = []
    for t in X.transitions:
        if t.arity != n:
            continue
        between = [None, *map(idx.splits(t.src, t.acts, t.tgt).__getitem__, _mask_parts(t.acts))]
        orderings = {tuple(map(t.acts.__getitem__, perm)): masks for perm, masks in _inner_masks(n)}
        for ordering, masks in orderings.items():
            word = tuple(map(labels.__getitem__, ordering))
            options = map(between.__getitem__, masks)
            for states in itertools.product([t.src], *options, [t.tgt]):
                out.append((word, states, ordering))
    return sorted(out)


@lru_cache(maxsize=None)
def _entry_readers(n: int) -> tuple[tuple[Callable, ...], tuple[Callable, ...]]:
    """Per face map [n-1] -> [n] (in face row order) and per swap map of
    [n], the reader of its precomposite's ``states + acts`` off an
    n-table's ``states + acts``: precomposition is reindexing."""
    def reader(enc: CubeEncoding) -> Callable:
        pos = vertex_ids(enc) + tuple((1 << n) + p for p in word_along(range(n), enc))
        return itemgetter(*pos) if len(pos) > 1 else lambda seq: (seq[pos[0]],)

    faces = [face_encoding(i, alpha, n) for i in range(1, n + 1) for alpha in (0, 1)]
    return tuple(map(reader, faces)), tuple(reader(sym_encoding(i, n)) for i in range(1, n))


@dataclass(frozen=True)
class Cubification:
    complex: PrecubicalSet
    system: WeakHDTS
    comparison: HdtsMorphism
    realization: Realization


def cubify(X: WeakHDTS) -> Cubification:
    """Rebuild ``X`` from every cube mapping into it.

    The complex has one n-cell per cube morphism into ``X``; faces and
    swaps act by precomposition, so its rows satisfy the relations by
    construction and are not rechecked.  The comparison morphism back
    to ``X`` is bijective on states; it can collapse actions that only
    ever occur in shared one-step transitions.  A system that is not
    coherence-closed may have a cube whose face is missing, which
    raises ``StructureError``."""
    max_arity = max((t.arity for t in X.transitions), default=0)
    per_dim = [cube_maps_into(n, X) for n in range(max_arity + 1)]
    faces, syms, labels = {}, {}, {}
    lower: dict[tuple, int] = {}  # the (n-1)-tables by states + acts
    for n, maps in enumerate(per_dim):
        index = {states + acts: k for k, (_, states, acts) in enumerate(maps)}
        if maps:
            face_readers, swap_readers = _entry_readers(n)
            labels[n] = {k: table[0] for k, table in enumerate(maps)}
            faces[n], syms[n] = {}, {}
        for k, seq in enumerate(index):
            try:
                faces[n][k] = tuple(map(lower.__getitem__, [read(seq) for read in face_readers]))
            except KeyError as exc:
                states, acts = exc.args[0][: 1 << n >> 1], exc.args[0][1 << n >> 1:]
                face = (tuple(map(X.label, acts)), states, acts)
                raise StructureError(
                    f"the input is not coherence-closed: {maps[k]} has no face {face}"
                ) from None
            # a swap of a cube map is a cube map of another ordering: always found
            syms[n][k] = tuple(map(index.__getitem__, [read(seq) for read in swap_readers]))
        lower = index
    complex_ = PrecubicalSet({n: rows.keys() for n, rows in faces.items()}, faces, syms, labels)
    r = realize(complex_)
    smap = {k: states[0] for k, (_, states, _) in enumerate(per_dim[0])}
    amap = {}
    for cls_id, members in enumerate(r.partition.classes):
        images = {per_dim[1][e][2][0] for e in members}
        if len(images) != 1:
            raise StructureError("edge class maps to several actions")
        amap[cls_id] = images.pop()
    p = HdtsMorphism(r.system, X, smap, amap)
    try:
        check_morphism(p)
    except StructureError as exc:
        raise StructureError(
            "comparison morphism is invalid; the input is probably not "
            "coherence-closed"
        ) from exc
    if len(set(smap.values())) != len(X.states):
        raise StructureError("comparison morphism is not bijective on states")
    return Cubification(complex_, r.system, p, r)
