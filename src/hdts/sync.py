"""Synchronized products of labelled symmetric precubical sets.

The fibered product of two 1-dimensional sets runs both components
side by side and adds one silent edge for every pair of edges with
complementary labels.  The directed coskeleton fills a 1-dimensional
set whose vertex set is a cube of corners with every higher cube whose
vertex map is non-twisted and whose edges can be chosen consistently.
The synchronized tensor product interprets parallel composition: the
colimit, over all pairs (c, d) of a cell of each factor, of the pair
entries E(c, d) (the directed coskeleton of the fibered product of the
skeletons of the cubes [dim c] and [dim d]), glued along face
inclusions and swap isomorphisms.

That colimit is built without gluing or search.  A cell of E(c, d) is
*interior* when its vertices vary in every coordinate of both cubes: a
direction table, which moves each coordinate along one of its n
directions, each direction moving one coordinate of one cube or a
partner pair (a silent step).  Its face (i, alpha) fixes direction i
at alpha, an interior cell of the entry of a face pair, and every
boundary cell arises so exactly once; a swap exchanges two directions.
So the colimit has one cell per interior cell of a pair of least cells
of swap orbits, up to the pair's stabilizer, numbered per dimension by
the pair and then by the class's least entry cell.

An entry depends on its label words only through their shape (lengths,
equal, silent and partner letters), so entries are built once per shape
over renamed words and cached for the process, as are the cell maps
between entries along permutations of the cubes, which reindex tables.
All else lives for one product: each face of an output cell is a
lookup in a table of output ids built once per pair and dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

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

    cells = {0: range(len(pairs)), 1: range(len(tags))}
    faces = {n: dict.fromkeys(ids, ()) for n, ids in cells.items() if ids}
    syms = {n: dict(rows) for n, rows in faces.items()}
    labels = {n: dict(rows) for n, rows in faces.items()}
    for i, tag in enumerate(tags):
        kind = tag[0]
        if kind == "k":
            _, e, lv = tag
            lo = (K.face(1, e, 1, 0), lv)
            hi = (K.face(1, e, 1, 1), lv)
            labels[1][i] = K.label(1, e)
        elif kind == "l":
            _, kv, e = tag
            lo = (kv, L.face(1, e, 1, 0))
            hi = (kv, L.face(1, e, 1, 1))
            labels[1][i] = L.label(1, e)
        else:
            _, e1, e2 = tag
            lo = (K.face(1, e1, 1, 0), L.face(1, e2, 1, 0))
            hi = (K.face(1, e1, 1, 1), L.face(1, e2, 1, 1))
            labels[1][i] = (cfg.tau,)
        faces[1][i] = (vertex_id[lo], vertex_id[hi])
    out = PrecubicalSet(cells, faces, syms, labels)
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

    cells = dict(K.cells)
    faces, syms, labels = dict(K.faces), dict(K.syms), dict(K.labels)
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
        cells[n] = range(len(found))
        faces[n], syms[n], labels[n] = {}, {}, {}
        for cid, content in enumerate(found):
            contents[(n, cid)] = content
            index[(n, content)] = cid
            labels[n][cid] = tuple(K.label(1, content[1][rows[0]])[0] for rows in by_dir)
        for cid, content in enumerate(found):
            subs = [
                _transport(content, face_encoding(i, alpha, n))
                for i in range(1, n + 1)
                for alpha in (0, 1)
            ]
            faces[n][cid] = tuple(sub[1][0] if n == 2 else index[(n - 1, sub)] for sub in subs)
            syms[n][cid] = tuple(
                index[(n, _transport(content, sym_encoding(i, n)))] for i in range(1, n)
            )

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
    l, gives each of the k + l coordinates (those of u, then those of v)
    a direction in 1..n, whose fiber is one coordinate of u, one of v,
    or a partner pair (i, j) with bar(u_i) = v_j, labelled silent.  Per
    dimension, a cell is its index in ``tables``, in the coskeleton's
    order.  Per cell, ``labels`` has a letter per direction, ``swaps``
    the cell with directions i and i + 1 exchanged, and ``faces``, for
    i = 1..n and alpha = 0, 1, a pair (slot, z): ``pairs[n][slot]`` are
    the order-preserving faces of [k] and [l] that fix the fiber of
    direction i at alpha, and z is the cell with direction i dropped in
    the entry of the face shape.
    """

    tables: Mapping[int, tuple[tuple[int, ...], ...]]  # dim -> tables, in cell order
    index: Mapping[int, Mapping[tuple[int, ...], int]]  # dim -> table -> cell
    labels: Mapping[int, tuple[tuple[str, ...], ...]]
    swaps: Mapping[int, tuple[tuple[int, ...], ...]]
    pairs: Mapping[int, tuple[tuple[CubeEncoding, CubeEncoding], ...]]  # dim -> face-map pairs
    faces: Mapping[int, tuple[tuple[tuple[int, int], ...], ...]]  # dim -> per cell (slot, z)


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


def _moves(shape: tuple) -> list[tuple[tuple[int, ...], ...]]:
    """Every split of the coordinates of the two words of ``shape`` into
    moves, the fibers of the directions of a cell: single coordinates,
    and partner pairs (i, k + j) with k the length of the first word."""
    word_k, word_l, pairs = shape
    partners = {*pairs, *((b, a) for a, b in pairs)}
    k, out = len(word_k), []

    def grow(i, free, moves):
        if i == k:
            out.append(moves + tuple((k + j,) for j in free))
            return
        grow(i + 1, free, moves + ((i,),))
        for j in free:
            if (word_k[i], word_l[j]) in partners:
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
    for moves in _moves(shape):
        n = len(moves)
        word = [_TAU if len(move) == 2 else letters[move[0]] for move in moves]
        for order in itertools.permutations(range(1, n + 1)):
            table = [0] * len(letters)
            for move, d in zip(moves, order):
                for c in move:
                    table[c] = d
            label = tuple(w for _, w in sorted(zip(order, word)))
            found.setdefault(n, []).append((tuple(table), label))

    tables, index, labels, swaps, pairs, faces = {}, {}, {}, {}, {}, {}
    face_entries: dict[tuple, _PairEntry] = {}
    for n in sorted(found):
        cells = sorted(
            found[n], key=lambda cell: [[d == e for d in cell[0]] for e in range(n, 0, -1)]
        )
        tables[n] = tuple(t for t, _ in cells)
        labels[n] = tuple(w for _, w in cells)
        index[n] = {t: x for x, t in enumerate(tables[n])}
        swaps[n] = tuple(tuple(index[n][_swap(t, i)] for i in range(1, n)) for t in tables[n])
        rows, slots = [], {}
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
                    pair = (_fixing(k, fk, alpha), _fixing(len(word_l), fl, alpha))
                    row.append((slots.setdefault(pair, len(slots)), z))
            rows.append(tuple(row))
        pairs[n], faces[n] = tuple(slots), tuple(rows)
    return _PairEntry(tables, index, labels, swaps, pairs, faces)


@lru_cache(maxsize=1024)
def _entry_size(shape: tuple) -> int:
    """The number of interior cells of the entry of ``shape``, without
    building them: n! orderings of each split into n moves."""
    return sum(math.factorial(len(moves)) for moves in _moves(shape))


@lru_cache(maxsize=8192)
def _pair_map(src_shape, dst_shape, enc_k: CubeEncoding, enc_l: CubeEncoding, n: int) -> tuple:
    """The cell map between the n-cells of the entries of two shapes
    along permutations ``enc_k`` and ``enc_l`` of the two cubes: the
    image of each source cell, by position.  It reindexes tables:
    coordinate r of the image reads the direction of source coordinate
    ``fhat[r]``, for ``fhat`` the two coordinate tables side by side,
    so it reads no labels and serves every word pair of the two shapes."""
    index = _shape_entry(dst_shape).index[n]
    fhat = enc_k.fhat + tuple(enc_k.m + c for c in enc_l.fhat)
    return tuple(index[tuple(t[c - 1] for c in fhat)] for t in _shape_entry(src_shape).tables[n])


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


#: The most cells a product may have before stabilizers are divided out
#: (its entry sizes, summed); the 7-fold product of edges has 37,200.
MAX_PRODUCT_CELLS = 50_000


def tensor_sync(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> PrecubicalSet:
    """Synchronized tensor product of two labelled symmetric precubical sets.

    Its n-cells are the interior n-cells of the entries E(c, d), for c
    and d least in their swap orbits, up to the stabilizer of (c, d),
    numbered per dimension by (dim c, c, dim d, d), then by the class's
    least table (the colimit's numbering, see the module docstring).
    Swaps are the entry's.  Face (i, alpha) is a slot, naming face maps
    of c and d, and a cell of the face pair's entry; per pair and
    dimension each slot is resolved once to the output id of every such
    cell, by restricting c and d, moving to the least pair of their
    orbits and reindexing by ``_pair_map``.  More than
    ``MAX_PRODUCT_CELLS`` cells raise ``PrecubeError`` before any is
    built.  Decorations and initial vertices pair up.
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

    reps = [(ko, lo, *shape_of(ko, lo)) for ko in sorted(kstab) for lo in sorted(lstab)]
    size = sum(_entry_size(shape) for _, _, shape, _ in reps)
    if size > MAX_PRODUCT_CELLS:
        raise PrecubeError(f"parallel product too large: {size} cells, over {MAX_PRODUCT_CELLS}")
    reps = [(ko, lo, shape, letters, _shape_entry(shape)) for ko, lo, shape, letters in reps]

    # number the stabilizer classes, least pair first: ids[(c, d)][p][x] is the output
    # cell of p-cell x of the entry, least[(c, d)][p] the least cell of each class;
    # ids holds lists, not ranges, so that the faces naming a cell share its int
    ids: dict[tuple, dict[int, Sequence[int]]] = {}
    least: dict[tuple, dict[int, Sequence[int]]] = {}
    counts: dict[int, int] = {}
    for ko, lo, shape, _, entry in reps:
        here, firsts = ids[(ko, lo)], least[(ko, lo)] = {}, {}
        for p, xs in entry.tables.items():
            start = counts[p] = counts.get(p, 0)
            if not (kstab[ko] or lstab[lo]):  # a trivial stabilizer: one class per cell
                here[p], firsts[p] = list(range(start, start + len(xs))), range(len(xs))
                counts[p] += len(xs)
                continue
            gens = [_pair_map(shape, shape, s, identity_encoding(lo[0]), p) for s in kstab[ko]]
            gens += [_pair_map(shape, shape, identity_encoding(ko[0]), t, p) for t in lstab[lo]]
            out, firsts[p] = [None] * len(xs), []
            for x in range(len(xs)):
                if out[x] is None:
                    firsts[p].append(x)
                    out[x], orbit = counts[p], [x]
                    for y in orbit:
                        for g in gens:
                            if out[g[y]] is None:
                                out[g[y]] = counts[p]
                                orbit.append(g[y])
                    counts[p] += 1
            here[p] = out

    # (cell, face map) -> (restriction, least cell of its orbit, permutation),
    # one memo per factor since K is L happens
    memo_k, memo_l = {}, {}

    def restrict(Z, rep, memo, cell, face):
        c = _restrict_cell(Z, cell, face)
        return memo.setdefault((cell, face), (c, (c[0], rep[c][0]), rep[c][1]))

    def resolve(ko, lo, n, enc_k, enc_l) -> Sequence[int]:
        """The output ids of the n-cells of the face pair's entry along the two maps."""
        kc, kr, kpi = memo_k.get((ko, enc_k)) or restrict(K, krep, memo_k, ko, enc_k)
        lc, lr, lpi = memo_l.get((lo, enc_l)) or restrict(L, lrep, memo_l, lo, enc_l)
        out = ids[(kr, lr)][n]
        if kpi.is_identity and lpi.is_identity:
            return out
        return [out[y] for y in _pair_map(shape_of(kc, lc)[0], shape_of(kr, lr)[0], kpi, lpi, n)]

    faces, syms, labels = {}, {}, {}
    for p in sorted(counts):
        frows, srows, words_p = faces[p], syms[p], labels[p] = {}, {}, {}
        for ko, lo, _, letters, entry in (r for r in reps if p in r[4].tables):
            here, words, swaps = ids[(ko, lo)][p], entry.labels[p], entry.swaps[p]
            resolved = [resolve(ko, lo, p - 1, *pair) for pair in entry.pairs[p]]
            for x in least[(ko, lo)][p]:
                k = here[x]
                words_p[k] = tuple(map(letters.__getitem__, words[x]))
                frows[k] = tuple([resolved[slot][z] for slot, z in entry.faces[p][x]])
                srows[k] = tuple(map(here.__getitem__, swaps[x]))
    cells = {p: range(count) for p, count in sorted(counts.items())}

    def pair_vertex(u, v) -> int:
        return ids[((0, u), (0, v))][0][0]

    decoration = {
        pair_vertex(u, v): f"{K.decoration[u]} || {L.decoration[v]}"
        for u in K.vertices if u in K.decoration for v in L.vertices if v in L.decoration
    }
    initial = None if K.initial is None or L.initial is None else pair_vertex(K.initial, L.initial)
    truncated = K.truncated or L.truncated
    return PrecubicalSet(cells, faces, syms, labels, decoration, initial, truncated)
