"""Synchronized products of labelled symmetric precubical sets.

Three constructions stack up here.  The fibered product of two
1-dimensional sets runs both components side by side and adds one
silent edge for every pair of edges with complementary labels.  The
directed coskeleton fills a 1-dimensional set whose vertex set is a
cube of corners with every higher cube whose vertex map is non-twisted
and whose edges can be chosen consistently.  The synchronized tensor
product interprets parallel composition.  It is the colimit, over all
pairs (c, d) of a cell of each factor, of the pair entries E(c, d) (the
directed coskeleton of the fibered product of the skeletons of the
cubes [dim c] and [dim d]), glued along face inclusions and swap
isomorphisms.

That colimit is built without gluing.  A cell of E(c, d) is *interior*
when its vertices vary in every coordinate of both cubes.  A face
inclusion lands only in the boundary of its target, and each boundary
cell is the image of exactly one interior cell of the entry of the face
pair its support names.  A swap isomorphism maps interior onto
interior.  So every cell of the colimit comes from an interior cell of
a pair (c, d) with c least in its swap orbit and d least in its swap
orbit, and two such cells meet exactly when an element of the
stabilizer of (c, d) maps one to the other.  The output has one cell
per such class, numbered per dimension by (c, d) and then by the
class's least entry cell: this is the class's least (pair, entry cell)
tag, the numbering the colimit gives.

A pair entry (the coskeleton of the fibered product of two cube
skeletons) depends on its two label words only through their shape:
the word lengths, which letters are equal, which are silent and which
are partners under the involution.  Pair entries are therefore built
once per shape, over words renamed in order of first occurrence, and
cached for the life of the process, together with their interiors and
boundary preimages; each product relabels its cells back to its own
words.  The cell maps between pair entries read no labels, are checked
once with ``check_precube_map`` when built, and the permutations that
carry faces to orbit representatives are cached by the two shapes and
the two cube maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

from .alphabet import Alphabet
from .encoding import (
    NEG,
    POS,
    CubeEncoding,
    all_encodings,
    compose,
    cube_vertices,
    edge_ids,
    face_encoding,
    identity_encoding,
    sym_encoding,
    vertex_ids,
    word_along,
)
from .precube import (
    EMPTY_PRECUBE,
    PrecubeError,
    PrecubeMap,
    PrecubicalSet,
    check_precube_map,
    standard_cube,
    truncate,
)

# ---------------------------------------------------------------------------
# fibered product


@dataclass(frozen=True)
class _Fibered:
    precube: PrecubicalSet
    vertex_id: Mapping[tuple[int, int], int]
    vertex_pair: tuple[tuple[int, int], ...]
    edge_id: Mapping[tuple, int]
    edge_tag: tuple[tuple, ...]


def _fibered(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> _Fibered:
    for Z, name in ((K, "left"), (L, "right")):
        if Z.dim > 1:
            raise PrecubeError(f"{name} factor of a fibered product must be 1-dimensional")
        for e in Z.ncells(1):
            cfg.check_label(Z.label(1, e)[0])

    pairs = sorted(itertools.product(K.vertices, L.vertices))
    vertex_id = {p: i for i, p in enumerate(pairs)}

    tags: list[tuple] = []
    for e in K.ncells(1):
        for lv in L.vertices:
            tags.append(("k", e, lv))
    for kv in K.vertices:
        for e in L.ncells(1):
            tags.append(("l", kv, e))
    for e1 in K.ncells(1):
        for e2 in L.ncells(1):
            if cfg.bar(K.label(1, e1)[0]) == L.label(1, e2)[0]:
                tags.append(("s", e1, e2))
    edge_id = {t: i for i, t in enumerate(tags)}

    cells = {0: tuple(range(len(pairs)))}
    faces, labels = {}, {}
    if tags:
        cells[1] = tuple(range(len(tags)))
    for i, tag in enumerate(tags):
        kind = tag[0]
        if kind == "k":
            _, e, lv = tag
            lo = (K.face(1, e, 1, 0), lv)
            hi = (K.face(1, e, 1, 1), lv)
            labels[(1, i)] = K.label(1, e)
        elif kind == "l":
            _, kv, e = tag
            lo = (kv, L.face(1, e, 1, 0))
            hi = (kv, L.face(1, e, 1, 1))
            labels[(1, i)] = L.label(1, e)
        else:
            _, e1, e2 = tag
            lo = (K.face(1, e1, 1, 0), L.face(1, e2, 1, 0))
            hi = (K.face(1, e1, 1, 1), L.face(1, e2, 1, 1))
            labels[(1, i)] = (cfg.tau,)
        faces[(1, i, 1, 0)] = vertex_id[lo]
        faces[(1, i, 1, 1)] = vertex_id[hi]
    out = PrecubicalSet(cells, faces, {}, labels)
    return _Fibered(out, vertex_id, tuple(pairs), edge_id, tuple(tags))


def fibered_product(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> PrecubicalSet:
    """Parallel run of two 1-dimensional sets with silent synchronizations."""
    return _fibered(K, L, cfg).precube


# ---------------------------------------------------------------------------
# directed coskeleton


@dataclass(frozen=True)
class _Cosk:
    precube: PrecubicalSet
    index: Mapping[tuple, int]  # (n, content) -> cell id, n >= 2
    # (n, id) -> content: the corner bits of each vertex of [n], and the
    # edge of K at each row of all_encodings(1, n)
    contents: Mapping[tuple[int, int], tuple]


def _cosk(K: PrecubicalSet, vertex_iso: Mapping[int, tuple]) -> _Cosk:
    if K.dim > 1:
        raise PrecubeError("directed coskeleton expects a 1-dimensional input")
    if set(vertex_iso) != set(K.vertices):
        raise PrecubeError("vertex table does not cover the vertices")
    sizes = {len(bits) for bits in vertex_iso.values()}
    if len(sizes) > 1:
        raise PrecubeError("vertex table mixes cube dimensions")
    p = sizes.pop() if sizes else 0
    if sorted(vertex_iso.values()) != sorted(cube_vertices(p)):
        raise PrecubeError("vertex table is not a bijection onto the cube corners")
    bits_to_vertex = {bits: v for v, bits in vertex_iso.items()}

    by_endpoints: dict[tuple[int, int], list[int]] = {}
    for e in K.ncells(1):
        key = (K.face(1, e, 1, 0), K.face(1, e, 1, 1))
        by_endpoints.setdefault(key, []).append(e)

    cells = {n: tuple(K.ncells(n)) for n in K.dims()}
    faces = {k: v for k, v in K.faces.items()}
    labels = {k: v for k, v in K.labels.items()}
    syms: dict[tuple[int, int, int], int] = {}
    index: dict[tuple, int] = {}
    contents: dict[tuple[int, int], tuple] = {}

    for n in range(2, p + 1):
        verts = cube_vertices(n)
        grid = all_encodings(1, n)
        ends = [vertex_ids(g) for g in grid]
        # edge rows by direction; the first of each leaves the bottom vertex
        by_dir = [[r for r, g in enumerate(grid) if g.fbar_inv(1) == d] for d in range(1, n + 1)]
        options = [NEG, POS] + list(range(1, n + 1))
        found = []
        for table in itertools.product(options, repeat=p):
            used = {v for v in table if v not in (NEG, POS)}
            if used != set(range(1, n + 1)):
                continue

            def image(eps):
                return tuple(
                    0 if v == NEG else 1 if v == POS else eps[v - 1] for v in table
                )

            vkey = tuple(image(eps) for eps in verts)
            per_direction = []
            for rows in by_dir:
                cand = []
                for r in rows:
                    lo, hi = ends[r]
                    ends_at = (bits_to_vertex.get(vkey[lo]), bits_to_vertex.get(vkey[hi]))
                    cand.append(by_endpoints.get(ends_at, []))
                    if not cand[-1]:
                        break
                shared = set.intersection(*({K.label(1, e)[0] for e in es} for es in cand))
                choices = []
                for lab in sorted(shared):
                    pools = [[e for e in es if K.label(1, e)[0] == lab] for es in cand]
                    choices.extend(itertools.product(*pools))
                if not choices:
                    break
                per_direction.append(choices)
            if len(per_direction) < n:
                continue
            for combo in itertools.product(*per_direction):
                edges = [0] * len(grid)
                for rows, pick in zip(by_dir, combo):
                    for r, e in zip(rows, pick):
                        edges[r] = e
                found.append((vkey, tuple(edges)))
        found.sort()
        if not found:
            break
        cells[n] = tuple(range(len(found)))
        for cid, content in enumerate(found):
            contents[(n, cid)] = content
            index[(n, content)] = cid
            labels[(n, cid)] = tuple(K.label(1, content[1][rows[0]])[0] for rows in by_dir)
        for cid, content in enumerate(found):
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    sub = _transport(content, face_encoding(i, alpha, n))
                    faces[(n, cid, i, alpha)] = sub[1][0] if n == 2 else index[(n - 1, sub)]
            for i in range(1, n):
                syms[(n, cid, i)] = index[(n, _transport(content, sym_encoding(i, n)))]

    out = PrecubicalSet(cells, faces, syms, labels, K.decoration, K.initial, K.truncated)
    return _Cosk(out, index, contents)


def _transport(content: tuple, h: CubeEncoding) -> tuple:
    """Restrict an n-cell content along ``h``: [q] -> [n]."""
    vkey, edges = content
    return tuple(vkey[v] for v in vertex_ids(h)), tuple(edges[e] for e in edge_ids(h))


def cosk_directed(K: PrecubicalSet, vertex_iso: Mapping[int, tuple]) -> PrecubicalSet:
    """Fill a 1-dimensional set over a cube of corners with all consistent,
    non-twisted higher cubes.  Output dimension never exceeds the corner
    cube's dimension."""
    return _cosk(K, vertex_iso).precube


# ---------------------------------------------------------------------------
# synchronized tensor product


@dataclass(frozen=True)
class _PairEntry:
    """The pair entry of a shape, split into interior and boundary.

    A cell is interior when its vertices vary in every coordinate of
    both cubes.  The coordinates a boundary cell's vertices vary in (its
    support) name an order-preserving face of each cube; ``preimage``
    sends the cell to these two face maps and to the one interior cell
    of their entry that the face inclusion carries onto it.
    """

    words: tuple[tuple, tuple]
    fib: _Fibered
    cosk: _Cosk
    interior: Mapping[int, tuple[int, ...]]  # dim -> interior cells, ascending
    preimage: Mapping[int, tuple]  # dim -> per cell: None or (face map, face map, cell)


#: The silent letter of a renamed word pair; other letters become "0", "1", ...
_TAU = "tau"


def _shape(word_k: tuple, word_l: tuple, cfg: Alphabet) -> tuple[tuple, dict[str, str]]:
    """The shape key of a word pair, and the letter map back from it.

    Every letter is checked against ``cfg``, then renamed in order of
    first occurrence in ``word_k + word_l``, the silent label to
    ``_TAU``.  The key is the two renamed words and the involution
    restricted to the letters present: all that the fibered product
    and the directed coskeleton read of the labels.  Renaming is
    canonical, so renamed subwords key the same shape as the subwords.
    """
    rename = {cfg.tau: _TAU}
    for x in word_k + word_l:
        if cfg.check_label(x) not in rename:
            rename[x] = str(len(rename) - 1)
    pairs = {
        tuple(sorted((c, rename[cfg.bar(x)]))) for x, c in rename.items() if cfg.bar(x) in rename
    }
    key = (
        tuple(rename[x] for x in word_k),
        tuple(rename[x] for x in word_l),
        tuple(sorted(pairs)),
    )
    return key, {c: x for x, c in rename.items()}


def _support_face(lo: tuple, hi: tuple) -> CubeEncoding:
    """The order-preserving face onto the coordinates where ``lo`` and
    ``hi`` differ, reading the others as constants."""
    enc = identity_encoding(len(lo))
    for j in range(len(lo), 0, -1):
        if lo[j - 1] == hi[j - 1]:
            enc = compose(face_encoding(j, lo[j - 1], enc.m), enc)
    return enc


def _restrict_cell(Z: PrecubicalSet, cell: tuple[int, int], face: CubeEncoding) -> tuple[int, int]:
    """A cell of ``Z`` restricted along an order-preserving face map."""
    n, c = cell
    for j in range(face.n, 0, -1):
        if face.fhat[j - 1] in (NEG, POS):
            c = Z.face(n, c, j, int(face.fhat[j - 1] == POS))
            n -= 1
    return n, c


@lru_cache(maxsize=1024)
def _shape_entry(shape: tuple) -> _PairEntry:
    """Coskeleton of the fibered product of two cube skeletons, over the
    renamed words of ``shape``, with its interior and boundary preimages.

    Raises ``PrecubeError`` unless the face inclusions carry the
    interior cells of the face pairs' entries one to one onto the
    boundary, which is what lets ``tensor_sync`` emit interiors only.
    """
    word_k, word_l, pairs = shape
    cfg = Alphabet(frozenset(word_k + word_l + (_TAU,)), _TAU, pairs)
    fib = _fibered(truncate(standard_cube(word_k), 1), truncate(standard_cube(word_l), 1), cfg)
    m = len(word_k)
    kbits, lbits = cube_vertices(m), cube_vertices(len(word_l))
    iso = {vid: kbits[kv] + lbits[lv] for (kv, lv), vid in fib.vertex_id.items()}
    cosk = _cosk(fib.precube, iso)
    pc = cosk.precube

    def corners(n, c):
        """The first and the last vertex of cell (n, c), as bits."""
        if n == 0:
            return iso[c], iso[c]
        if n == 1:
            return iso[pc.face(1, c, 1, 0)], iso[pc.face(1, c, 1, 1)]
        vkey = cosk.contents[(n, c)][0]
        return vkey[0], vkey[-1]

    interior: dict[int, tuple[int, ...]] = {}
    by_support: dict[tuple, list[tuple[int, int]]] = {}
    for n in pc.dims():
        inner = []
        for c in pc.ncells(n):
            lo, hi = corners(n, c)
            faces = _support_face(lo[:m], hi[:m]), _support_face(lo[m:], hi[m:])
            if faces[0].is_identity and faces[1].is_identity:
                inner.append(c)
            else:
                by_support.setdefault(faces, []).append((n, c))
        interior[n] = tuple(inner)
    preimage: dict[int, list] = {n: [None] * len(pc.ncells(n)) for n in pc.dims()}
    entry = _PairEntry((word_k, word_l), fib, cosk, interior, preimage)
    for (enc_k, enc_l), cells in by_support.items():
        face_words = word_along(word_k, enc_k), word_along(word_l, enc_l)
        face = _shape_entry(_shape(*face_words, cfg)[0])
        cell_map = _entry_map(face, entry, enc_k, enc_l)
        images = []
        for n, zs in face.interior.items():
            for z in zs:
                y = cell_map[(n, z)]
                images.append((n, y))
                preimage[n][y] = (enc_k, enc_l, z)
        if sorted(images) != cells:
            raise PrecubeError(
                f"the boundary of pair entry {shape} along {enc_k.fhat}, {enc_l.fhat} "
                "is not the one image of its face's interior"
            )
    for n, row in preimage.items():
        preimage[n] = tuple(row)
    return entry


def _entry_map(src: _PairEntry, dst: _PairEntry, enc_k: CubeEncoding, enc_l: CubeEncoding) -> dict:
    """Cell map between pair entries induced by maps of the two cubes,
    checked with ``check_precube_map``.

    The map reads encodings, fibered tags and coskeleton contents; the
    label words enter only the check, through the letters ``enc_k`` and
    ``enc_l`` match up.
    """
    mk = enc_k.m
    kvert, lvert = vertex_ids(enc_k), vertex_ids(enc_l)
    kedge, ledge = edge_ids(enc_k), edge_ids(enc_l)

    def edge(tag):
        kind, x, y = tag
        if kind == "k":
            return dst.fib.edge_id[("k", kedge[x], lvert[y])]
        if kind == "l":
            return dst.fib.edge_id[("l", kvert[x], ledge[y])]
        return dst.fib.edge_id[("s", kedge[x], ledge[y])]

    def vertex_bits(bits):
        return enc_k.apply(bits[:mk]) + enc_l.apply(bits[mk:])

    cell_map: dict[tuple[int, int], int] = {}
    src_pc = src.cosk.precube
    for v in src_pc.vertices:
        kv, lv = src.fib.vertex_pair[v]
        cell_map[(0, v)] = dst.fib.vertex_id[(kvert[kv], lvert[lv])]
    for e in src_pc.ncells(1):
        cell_map[(1, e)] = edge(src.fib.edge_tag[e])
    for n in src_pc.dims():
        if n < 2:
            continue
        for c in src_pc.ncells(n):
            vkey, edges = src.cosk.contents[(n, c)]
            vkey2 = tuple(vertex_bits(b) for b in vkey)
            edges2 = tuple(edge(src.fib.edge_tag[e]) for e in edges)
            cell_map[(n, c)] = dst.cosk.index[(n, (vkey2, edges2))]

    letters = {_TAU: _TAU}
    for word, enc, image in zip(src.words, (enc_k, enc_l), dst.words):
        letters.update(zip(word, word_along(image, enc)))
    labels = {cell: tuple(letters[x] for x in word) for cell, word in src_pc.labels.items()}
    check_precube_map(PrecubeMap(replace(src_pc, labels=labels), dst.cosk.precube, cell_map))
    return cell_map


@lru_cache(maxsize=8192)
def _pair_map(src_shape: tuple, dst_shape: tuple, enc_k: CubeEncoding, enc_l: CubeEncoding) -> dict:
    """``_entry_map`` between the entries of two shapes, built and checked
    once; it serves every word pair of the two shapes.  Callers share
    the returned dict and must not change it."""
    return _entry_map(_shape_entry(src_shape), _shape_entry(dst_shape), enc_k, enc_l)


def _orbits(Z: PrecubicalSet):
    """The swap orbits of the cells of ``Z``.

    Returns ``rep``, sending each cell (n, c) to (r, pi): r is the least
    cell of its orbit and pi a permutation of [n] with c = r restricted
    along pi; and ``stab``, sending each such (n, r) to permutations
    that generate its stabilizer (Schreier generators, none when it is
    trivial).
    """
    rep: dict[tuple[int, int], tuple[int, CubeEncoding]] = {}
    stab: dict[tuple[int, int], list[CubeEncoding]] = {}
    for n in Z.dims():
        ident = identity_encoding(n)
        for r in Z.ncells(n):
            if (n, r) in rep:
                continue
            rep[(n, r)] = (r, ident)
            inverse = {r: ident}
            gens = set()
            queue = [r]
            for c in queue:
                pi = rep[(n, c)][1]
                for i in range(1, n):
                    s, swap = Z.sym(n, c, i), sym_encoding(i, n)
                    via = compose(swap, pi)
                    if (n, s) not in rep:
                        rep[(n, s)] = (r, via)
                        inverse[s] = compose(inverse[c], swap)
                        queue.append(s)
                    elif via != rep[(n, s)][1]:
                        gens.add(compose(inverse[s], via))
            stab[(n, r)] = sorted(gens)
    return rep, stab


def tensor_sync(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> PrecubicalSet:
    """Synchronized tensor product of two labelled symmetric precubical sets.

    Its n-cells are the interior n-cells of the pair entries E(c, d),
    for c least in its swap orbit in ``K`` and d least in its swap orbit
    in ``L``, taken up to the stabilizer of (c, d).  They are numbered
    per dimension by (dim c, c, dim d, d), then by the least entry cell
    of the class, which is the numbering of the colimit of all entries
    (see the module docstring).  A cell's swaps are its swaps in the
    entry.  A face in the entry's boundary is carried to its preimage,
    then through ``_pair_map`` along the permutations from that face
    pair to the least pair of its orbits.  When both factors carry an
    initial vertex or decorations, the result is decorated pairwise.
    """
    if not K.vertices or not L.vertices:
        return EMPTY_PRECUBE
    krep, kstab = _orbits(K)
    lrep, lstab = _orbits(L)
    shapes: dict[tuple, tuple[tuple, dict[str, str]]] = {}

    def shape_of(ko, lo):
        words = (K.label(*ko), L.label(*lo))
        if words not in shapes:
            shapes[words] = _shape(*words, cfg)
        return shapes[words]

    # number the stabilizer classes of interior cells, least pair first
    ids: dict[tuple, dict[tuple[int, int], int]] = {}
    classes: dict[int, list[tuple]] = {}
    for ko in sorted(kstab):
        for lo in sorted(lstab):
            shape, letters = shape_of(ko, lo)
            entry = _shape_entry(shape)
            gens = [_pair_map(shape, shape, s, identity_encoding(lo[0])) for s in kstab[ko]]
            gens += [_pair_map(shape, shape, identity_encoding(ko[0]), t) for t in lstab[lo]]
            here = ids[(ko, lo)] = {}
            for p, xs in entry.interior.items():
                out = classes.setdefault(p, [])
                for x in xs:
                    if (p, x) in here:
                        continue
                    here[(p, x)] = len(out)
                    orbit = [x]
                    for y in orbit:
                        for g in gens:
                            if (p, g[(p, y)]) not in here:
                                here[(p, g[(p, y)])] = len(out)
                                orbit.append(g[(p, y)])
                    out.append((ko, lo, entry, letters, x))

    def cell_id(ko, lo, entry, n, y):
        """The output cell of cell (n, y) of the entry of (ko, lo)."""
        if (n, y) in ids[(ko, lo)]:
            return ids[(ko, lo)][(n, y)]
        enc_k, enc_l, z = entry.preimage[n][y]
        kc, lc = _restrict_cell(K, ko, enc_k), _restrict_cell(L, lo, enc_l)
        (kr, kpi), (lr, lpi) = krep[kc], lrep[lc]
        kr, lr = (kc[0], kr), (lc[0], lr)
        if not (kpi.is_identity and lpi.is_identity):
            z = _pair_map(shape_of(kc, lc)[0], shape_of(kr, lr)[0], kpi, lpi)[(n, z)]
        return ids[(kr, lr)][(n, z)]

    faces, syms, labels = {}, {}, {}
    for p, out in classes.items():
        for k, (ko, lo, entry, letters, x) in enumerate(out):
            pc = entry.cosk.precube
            if p:
                labels[(p, k)] = tuple(letters[a] for a in pc.label(p, x))
            for i in range(1, p + 1):
                for alpha in (0, 1):
                    faces[(p, k, i, alpha)] = cell_id(ko, lo, entry, p - 1, pc.face(p, x, i, alpha))
            for i in range(1, p):
                syms[(p, k, i)] = ids[(ko, lo)][(p, pc.sym(p, x, i))]
    cells = {p: tuple(range(len(out))) for p, out in classes.items()}

    def pair_vertex(u, v) -> int:
        return ids[((0, u), (0, v))][(0, 0)]

    decoration = {}
    for u in K.vertices:
        du = K.decoration.get(u)
        if du is None:
            continue
        for v in L.vertices:
            dv = L.decoration.get(v)
            if dv is not None:
                decoration[pair_vertex(u, v)] = f"{du} || {dv}"
    initial = None
    if K.initial is not None and L.initial is not None:
        initial = pair_vertex(K.initial, L.initial)
    return PrecubicalSet(
        cells, faces, syms, labels, decoration, initial, K.truncated or L.truncated
    )
