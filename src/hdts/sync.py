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

That colimit is built without gluing, and its pair entries without a
search.  A cell of E(c, d) is *interior* when its vertices vary in
every coordinate of both cubes.  An interior n-cell is a direction
table: it moves each coordinate of the two cubes along one of its n
directions, and each direction moves one coordinate of one cube, or one
coordinate of each cube whose labels are partners (a silent step).  Its
face (i, alpha) fixes the coordinates of direction i at alpha: that is
an interior cell of the entry of a face pair, carried in by the face
inclusion, and every boundary cell of E(c, d) arises so exactly once.
A swap exchanges two directions, interior onto interior.  So every cell
of the colimit comes from an interior cell of a pair (c, d) with c
least in its swap orbit and d least in its swap orbit, and two such
cells meet exactly when an element of the stabilizer of (c, d) maps one
to the other.  The output has one cell per such class, numbered per
dimension by (c, d) and then by the class's least entry cell: this is
the class's least (pair, entry cell) tag, the numbering the colimit
gives.

A pair entry depends on its two label words only through their shape:
the word lengths, which letters are equal, which are silent and which
are partners under the involution.  Pair entries are therefore built
once per shape, over words renamed in order of first occurrence, and
cached for the life of the process; each product relabels its cells
back to its own words.  The cell maps between pair entries along
permutations of the two cubes reindex direction tables, read no labels,
and are cached by the two shapes and the two permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
from .precube import EMPTY_PRECUBE, PrecubeError, PrecubicalSet

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
    """The interior cells of a shape's pair entry, as direction tables.

    An interior n-cell of the entry of words u and v, of lengths k and
    l, is a table that gives each of the k + l coordinates (those of u,
    then those of v) a direction in 1..n.  The fiber of each direction
    is one coordinate of u, one coordinate of v, or a partner pair: a
    coordinate i of u and a coordinate j of v with bar(u_i) = v_j,
    labelled silent.  Per dimension, a cell is its index in ``tables``,
    which lists the tables in the order of the coskeleton's cell ids.
    Per cell, ``labels`` has a letter per direction, ``swaps`` has the
    cell with directions i and i + 1 exchanged (i = 1..n-1), and
    ``faces`` has, for i = 1..n and alpha = 0, 1, the order-preserving
    faces of [k] and [l] that fix the fiber of direction i at alpha,
    and the cell with direction i dropped in the entry of the face
    shape.
    """

    tables: Mapping[int, tuple[tuple[int, ...], ...]]  # dim -> tables, in cell order
    index: Mapping[int, Mapping[tuple[int, ...], int]]  # dim -> table -> cell
    labels: Mapping[int, tuple[tuple[str, ...], ...]]
    swaps: Mapping[int, tuple[tuple[int, ...], ...]]
    faces: Mapping[int, tuple[tuple[tuple[CubeEncoding, CubeEncoding, int], ...], ...]]


#: The silent letter of a renamed word pair; other letters become "0", "1", ...
_TAU = "tau"


def _shape(word_k: tuple, word_l: tuple, cfg: Alphabet) -> tuple[tuple, dict[str, str]]:
    """The shape key of a word pair, and the letter map back from it.

    Every letter is checked against ``cfg``, then renamed in order of
    first occurrence in ``word_k + word_l``, the silent label to
    ``_TAU``.  The key is the two renamed words and the involution
    restricted to the letters present: all that a pair entry reads of
    the labels.  Renaming is canonical, so renamed subwords key the
    same shape as the subwords.
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


@lru_cache(maxsize=None)
def _fixing(n: int, coords: tuple[int, ...], alpha: int) -> CubeEncoding:
    """The order-preserving face of [n] that fixes ``coords`` (ascending,
    from 0) at ``alpha``."""
    enc = identity_encoding(n)
    for c in reversed(coords):
        enc = compose(face_encoding(c + 1, alpha, enc.m), enc)
    return enc


def _restrict_cell(Z: PrecubicalSet, cell: tuple[int, int], face: CubeEncoding) -> tuple[int, int]:
    """A cell of ``Z`` restricted along an order-preserving face map."""
    n, c = cell
    for j in range(face.n, 0, -1):
        if face.fhat[j - 1] in (NEG, POS):
            c = Z.face(n, c, j, int(face.fhat[j - 1] == POS))
            n -= 1
    return n, c


def _moves(word_k: tuple, word_l: tuple, cfg: Alphabet) -> list[tuple[tuple[int, ...], ...]]:
    """Every split of the coordinates of ``word_k + word_l`` into moves,
    the fibers of the directions of a cell: single coordinates, and
    partner pairs (i, k + j) with k = len(word_k)."""
    k, out = len(word_k), []

    def grow(i, free, moves):
        if i == k:
            out.append(moves + tuple((k + j,) for j in free))
            return
        grow(i + 1, free, moves + ((i,),))
        for j in free:
            if cfg.bar(word_k[i]) == word_l[j]:
                grow(i + 1, tuple(x for x in free if x != j), moves + ((i, k + j),))

    grow(0, tuple(range(len(word_l))), ())
    return out


def _swap(t: tuple[int, ...], i: int) -> tuple[int, ...]:
    """A direction table with directions i and i + 1 exchanged."""
    return tuple(i + 1 if d == i else i if d == i + 1 else d for d in t)


@lru_cache(maxsize=1024)
def _shape_entry(shape: tuple) -> _PairEntry:
    """The interior cells of the pair entry of ``shape`` (see ``_PairEntry``).

    They are the interior cells of the directed coskeleton of the
    fibered product of the skeletons of the two cubes.  The coskeleton
    numbers its n-cells by the corner bits of their vertices; for a
    table these are the indicators of directions n, n - 1, ..., 1 in
    turn, which is the sort key here.
    """
    word_k, word_l, pairs = shape
    cfg = Alphabet(frozenset(word_k + word_l + (_TAU,)), _TAU, pairs)
    k, letters = len(word_k), word_k + word_l
    found: dict[int, list] = {}
    for moves in _moves(word_k, word_l, cfg):
        n = len(moves)
        word = [_TAU if len(move) == 2 else letters[move[0]] for move in moves]
        for order in itertools.permutations(range(1, n + 1)):
            table = [0] * len(letters)
            for move, d in zip(moves, order):
                for c in move:
                    table[c] = d
            label = tuple(w for _, w in sorted(zip(order, word)))
            found.setdefault(n, []).append((tuple(table), label))

    tables, index, labels, swaps, faces = {}, {}, {}, {}, {}
    face_entries: dict[tuple, _PairEntry] = {}
    for n in sorted(found):
        cells = sorted(
            found[n], key=lambda cell: [[d == e for d in cell[0]] for e in range(n, 0, -1)]
        )
        tables[n] = tuple(t for t, _ in cells)
        labels[n] = tuple(w for _, w in cells)
        index[n] = {t: x for x, t in enumerate(tables[n])}
        swaps[n] = tuple(tuple(index[n][_swap(t, i)] for i in range(1, n)) for t in tables[n])
        rows = []
        for t in tables[n]:
            row = []
            for i in range(1, n + 1):
                fixed = tuple(c for c, d in enumerate(t) if d == i)
                fk = tuple(c for c in fixed if c < k)
                fl = tuple(c - k for c in fixed if c >= k)
                if fixed not in face_entries:
                    sub_k = word_along(word_k, _fixing(k, fk, 0))
                    sub_l = word_along(word_l, _fixing(len(word_l), fl, 0))
                    face_entries[fixed] = _shape_entry(_shape(sub_k, sub_l, cfg)[0])
                z = face_entries[fixed].index[n - 1][tuple(d - (d > i) for d in t if d != i)]
                for alpha in (0, 1):
                    row.append((_fixing(k, fk, alpha), _fixing(len(word_l), fl, alpha), z))
            rows.append(tuple(row))
        faces[n] = tuple(rows)
    return _PairEntry(tables, index, labels, swaps, faces)


@lru_cache(maxsize=8192)
def _pair_map(src_shape: tuple, dst_shape: tuple, enc_k: CubeEncoding, enc_l: CubeEncoding) -> dict:
    """The cell map between the entries of two shapes along permutations
    ``enc_k`` and ``enc_l`` of the two cubes, as a reindexing of tables:
    coordinate r of the image reads the direction of source coordinate
    ``fhat[r]``, for ``fhat`` the two coordinate tables side by side.
    It serves every word pair of the two shapes.  Callers share the
    returned dict and must not change it."""
    dst = _shape_entry(dst_shape)
    fhat = enc_k.fhat + tuple(enc_k.m + c for c in enc_l.fhat)
    return {
        (n, x): dst.index[n][tuple(t[c - 1] for c in fhat)]
        for n, ts in _shape_entry(src_shape).tables.items()
        for x, t in enumerate(ts)
    }


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

    Its n-cells are the interior n-cells (direction tables) of the pair
    entries E(c, d), for c least in its swap orbit in ``K`` and d least
    in its swap orbit in ``L``, taken up to the stabilizer of (c, d).
    They are numbered per dimension by (dim c, c, dim d, d), then by the
    least table of the class, which is the numbering of the colimit of
    all entries (see the module docstring).  A cell's swaps are its
    swaps in the entry.  Face (i, alpha) is a table of the entry of the
    face pair that fixes the fiber of direction i at alpha; it is
    carried through ``_pair_map`` along the permutations from that pair
    to the least pair of its orbits.  When both factors carry an
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
            for p, xs in entry.tables.items():
                out = classes.setdefault(p, [])
                for x in range(len(xs)):
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

    def cell_id(ko, lo, n, face):
        """The output cell of a face (face map, face map, cell) of an
        interior cell of the entry of (ko, lo)."""
        enc_k, enc_l, z = face
        kc, lc = _restrict_cell(K, ko, enc_k), _restrict_cell(L, lo, enc_l)
        (kr, kpi), (lr, lpi) = krep[kc], lrep[lc]
        kr, lr = (kc[0], kr), (lc[0], lr)
        if not (kpi.is_identity and lpi.is_identity):
            z = _pair_map(shape_of(kc, lc)[0], shape_of(kr, lr)[0], kpi, lpi)[(n, z)]
        return ids[(kr, lr)][(n, z)]

    faces, syms, labels = {}, {}, {}
    for p, out in classes.items():
        for k, (ko, lo, entry, letters, x) in enumerate(out):
            if p:
                labels[(p, k)] = tuple(letters[a] for a in entry.labels[p][x])
            for j, face in enumerate(entry.faces[p][x]):
                faces[(p, k, j // 2 + 1, j % 2)] = cell_id(ko, lo, p - 1, face)
            for i, s in enumerate(entry.swaps[p][x], 1):
                syms[(p, k, i)] = ids[(ko, lo)][(p, s)]
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
