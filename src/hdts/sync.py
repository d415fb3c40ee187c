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
directions, each direction moving a coordinate of one cube or a partner
pair (a silent step).  Its face (i, alpha) fixes direction i at alpha:
a slot (coordinate of c or none, coordinate of d or none, alpha), whose
face pair is one face-row read on each side, and an interior cell of
that pair's entry; every boundary cell arises so exactly once, and a
swap exchanges two directions.  So the colimit has one cell per
interior cell of a pair of least cells of swap orbits, up to the pair's
stabilizer, numbered per dimension by the pair and then by the class's
least entry cell.  A pair with a vertex v needs no entry: the point is
the product's unit, so the slice K x {v} is K renumbered, rows and all.

An entry depends on its label words only through their shape (lengths,
equal, silent and partner letters), so entries are built once per shape
over renamed words and cached for the process, as are the cell maps
between entries along permutations of the cubes, which reindex tables.
All else lives for one product: each face slot is resolved once per
pair and dimension to the output ids of its entry's cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .alphabet import Alphabet
from .encoding import (
    NEG,
    POS,
    CubeEncoding,
    all_encodings,
    compose,  # not called here; benchmarks/test_bench.py reads it back after tracing
    cube_vertices,
    edge_ids,
    face_encoding,
    sym_encoding,
    vertex_ids,
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
    i = 1..n and alpha = 0, 1, a pair (slot, z): ``slots[n][slot]`` is
    the triple (coordinate of u or None, coordinate of v or None,
    alpha) that the fiber of direction i fixes at alpha, and z is the
    cell with direction i dropped in the entry of the face shape.
    """

    tables: Mapping[int, tuple[tuple[int, ...], ...]]  # dim -> tables, in cell order
    index: Mapping[int, Mapping[tuple[int, ...], int]]  # dim -> table -> cell
    labels: Mapping[int, tuple[tuple[str, ...], ...]]
    swaps: Mapping[int, tuple[tuple[int, ...], ...]]
    slots: Mapping[int, tuple[tuple[int | None, int | None, int], ...]]  # dim -> face slots
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
    bar = cfg.bar
    pairs = {tuple(sorted((c, rename[bar(x)]))) for x, c in rename.items() if bar(x) in rename}
    key = (tuple(map(rename.get, word_k)), tuple(map(rename.get, word_l)), tuple(sorted(pairs)))
    return key, {c: x for x, c in rename.items()}


@lru_cache(maxsize=None)
def _canon(n: int) -> tuple:
    """The shape of n distinct letters and the empty word.  Its n-cells
    are the permutations of [n], in the order of every entry with an
    empty side: the cells of a cell paired with a vertex."""
    return tuple(map(str, range(n))), (), ()


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
    turn, which is the sort key here.  A face shape with an empty side
    is ``_canon``: such an entry's tables do not depend on its letters.
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

    tables, index, labels, swaps, slots, faces = {}, {}, {}, {}, {}, {}
    face_entries: dict[tuple, _PairEntry] = {}
    for n in sorted(found):
        cells = sorted(
            found[n], key=lambda cell: [[d == e for d in cell[0]] for e in range(n, 0, -1)]
        )
        tables[n] = tuple(t for t, _ in cells)
        labels[n] = tuple(w for _, w in cells)
        index[n] = {t: x for x, t in enumerate(tables[n])}
        swaps[n] = tuple(tuple(index[n][_swap(t, i)] for i in range(1, n)) for t in tables[n])
        rows, here = [], {}
        for t in tables[n]:
            row = []
            for i in range(1, n + 1):
                fixed = tuple(c for c, d in enumerate(t) if d == i)
                jk = next((c for c in fixed if c < k), None)
                jl = next((c - k for c in fixed if c >= k), None)
                if fixed not in face_entries:
                    sub_k = tuple(x for c, x in enumerate(word_k) if c != jk)
                    sub_l = tuple(x for c, x in enumerate(word_l) if c != jl)
                    face = _shape(sub_k, sub_l, cfg)[0] if sub_k and sub_l else _canon(n - 1)
                    face_entries[fixed] = _shape_entry(face)
                z = face_entries[fixed].index[n - 1][tuple(d - (d > i) for d in t if d != i)]
                for alpha in (0, 1):
                    row.append((here.setdefault((jk, jl, alpha), len(here)), z))
            rows.append(tuple(row))
        slots[n], faces[n] = tuple(here), tuple(rows)
    return _PairEntry(tables, index, labels, swaps, slots, faces)


@lru_cache(maxsize=1024)
def _entry_size(shape: tuple) -> int:
    """The number of interior cells of the entry of ``shape``, without
    building them: n! orderings of each split into n moves."""
    return sum(math.factorial(len(moves)) for moves in _moves(shape))


@lru_cache(maxsize=8192)
def _pair_map(src_shape, dst_shape, perm_k: tuple, perm_l: tuple, n: int) -> tuple:
    """The cell map between the n-cells of the entries of two shapes
    along permutations of the two cubes, given by their tables: the
    image of each source cell, by position.  It reindexes tables:
    coordinate r of the image reads the direction of source coordinate
    ``fhat[r]``, for ``fhat`` the two permutation tables side by side,
    so it reads no labels and serves every word pair of the two shapes."""
    index = _shape_entry(dst_shape).index[n]
    fhat = perm_k + tuple(len(perm_k) + c for c in perm_l)
    return tuple(index[tuple(t[c - 1] for c in fhat)] for t in _shape_entry(src_shape).tables[n])


def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    """The permutation tables of [n], by position: identity first."""
    return _shape_entry(_canon(n)).tables[n]


def _orbits(Z: PrecubicalSet):
    """The swap orbits of the cells of ``Z``, as ints: ``rep[n][c] =
    (r, x)`` for each n-cell c, with r the least cell of c's orbit and c
    r restricted along the permutation ``_perms(n)[x]``, x least (0 for
    r); and per orbit (n, r), ``cells``, the cell at each position, and
    ``stab``, the permutations other than the identity that fix r."""
    rep, cells, stab = {}, {}, {}
    for n in Z.dims():
        here, perms, syms = rep.setdefault(n, {}), _perms(n), Z.syms[n]
        position = _shape_entry(_canon(n)).index[n]
        swaps = [_swap(perms[0], i) for i in range(1, n)]
        for r in Z.ncells(n):
            if r in here:
                continue
            at, queue = [r] + [None] * (len(perms) - 1), [0]
            for x in queue:  # the swap s_i of the cell along pi lies along compose(swap_i, pi)
                for swap, s in zip(swaps, syms[at[x]]):
                    y = position[tuple([swap[j - 1] for j in perms[x]])]
                    if at[y] is None:
                        at[y] = s
                        queue.append(y)
            for x, c in enumerate(at):
                here.setdefault(c, (r, x))
            cells[(n, r)] = at
            stab[(n, r)] = [perms[x] for x, c in enumerate(at) if c == r and x]
    return rep, cells, stab


#: The most cells a product may have before stabilizers are divided out
#: (its entry sizes, summed); the 7-fold product of edges has 37,200.
MAX_PRODUCT_CELLS = 50_000


def tensor_sync(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> PrecubicalSet:
    """Synchronized tensor product of two labelled symmetric precubical sets.

    Its n-cells are the interior n-cells of the entries E(c, d), for c
    and d least in their swap orbits, up to the stabilizer of (c, d),
    numbered per dimension by (dim c, c, dim d, d), then by the class's
    least table (see the module docstring).  More than
    ``MAX_PRODUCT_CELLS`` cells raise ``PrecubeError`` before any entry
    is built.  One pass in that order numbers two kinds of blocks and
    writes their rows (a face pair comes before its pair):

    - a cell paired with a vertex v: the classes of the block of (c, v)
      are the cells of c's orbit, by least position (``_orbits``), so
      the slice K x {v} is K's rows and words through their ids, and
      likewise {u} x L;
    - any other pair: the entry's classes and swaps, each face slot
      resolved once to the ids of the face pair's entry (the least pair
      of the two orbits, through ``_pair_map`` off the identity), and
      words that share one tuple when equal.

    Decorations and initial vertices pair up.
    """
    if not K.vertices or not L.vertices:
        return EMPTY_PRECUBE
    krep, kcells, kstab = _orbits(K)
    lrep, lcells, lstab = _orbits(L)
    shapes: dict[tuple, tuple[tuple, dict[str, str], dict]] = {}

    def shape_of(kn, kc, ln, lc):
        words = (K.labels[kn][kc], L.labels[ln][lc])
        if words not in shapes:
            shapes[words] = (*_shape(*words, cfg), {})  # shape, letters, words by dim
        return shapes[words]

    kv, lv, kreps, lreps = K.vertices, L.vertices, sorted(kcells), sorted(lcells)
    general = [shape_of(*ko, *lo) for ko in kreps[len(kv):] for lo in lreps[len(lv):]]
    size = sum(_entry_size(shape) for shape, _, _ in general)
    size += len(lv) * sum(math.factorial(n) for n, _ in kreps[len(kv):])
    size += len(kv) * sum(math.factorial(n) for n, _ in lreps)
    if size > MAX_PRODUCT_CELLS:
        raise PrecubeError(f"parallel product too large: {size} cells, over {MAX_PRODUCT_CELLS}")

    # ids are made once, in lists, so that every row naming a cell shares its int
    counts: dict[int, int] = {}

    def number(p, count, gens):
        """Per cell of an entry, the id of its class under ``gens``; the least cells."""
        start = counts.get(p, 0)
        out, least = [None] * count, []
        for x in range(count):
            if out[x] is None:
                least.append(x)
                out[x], orbit = start, [x]
                for y in orbit:
                    for g in gens:
                        if out[g[y]] is None:
                            out[g[y]] = start
                            orbit.append(g[y])
                start += 1
        counts[p] = start
        return out, least

    # kslice[v][n][c] is the id of (c, v), lslice[u][n][d] that of (u, d), and
    # ids[(kn, kc, ln, lc)][p][x] that of p-cell x of the entry of a pair without a vertex
    kslice = {v: {n: {} for n in K.dims()} for v in lv}
    lslice = {u: {n: {} for n in L.dims()} for u in kv}
    ids: dict[tuple, dict[int, list[int]]] = {}

    def block(mk, fk, ml, fl, p):
        """The ids of the p-cells of the entry of (fk, fl), by position."""
        (kr, kx), (lr, lx) = krep[mk][fk], lrep[ml][fl]
        if mk and ml:
            out = ids[(mk, kr, ml, lr)][p]
            if kx or lx:
                src, dst = shape_of(mk, fk, ml, fl)[0], shape_of(mk, kr, ml, lr)[0]
                out = [out[y] for y in _pair_map(src, dst, _perms(mk)[kx], _perms(ml)[lx], p)]
            return out
        if ml:
            cell_ids, at, x = lslice[fk][ml], lcells[(ml, lr)], lx
        else:
            cell_ids, at, x = kslice[fl][mk], kcells[(mk, kr)], kx
        if x:
            at = [at[y] for y in _pair_map(_canon(p), _canon(p), _perms(p)[x], (), p)]
        return list(map(cell_ids.__getitem__, at))

    faces, syms, labels = ({p: {} for p in range(K.dim + L.dim + 1)} for _ in range(3))
    interned: dict[tuple, tuple] = {}
    pending = iter(general)
    for ko in kreps:
        kn, kc = ko
        if not kn:  # the blocks of {u} x L
            for m, d in lreps:
                order = list(dict.fromkeys(lcells[(m, d)]))
                lslice[kc][m].update(zip(order, number(m, len(order), ())[0]))
                if not m:
                    kslice[d][0][kc] = lslice[kc][0][d]
            continue
        order = list(dict.fromkeys(kcells[ko]))
        for v in lv:  # the block of (ko, v) in K x {v}
            kslice[v][kn].update(zip(order, number(kn, len(order), ())[0]))
        for lo in lreps[len(lv):]:
            (ln, lc), (shape, letters, words) = lo, next(pending)
            entry, here = _shape_entry(shape), ids.setdefault((kn, kc, ln, lc), {})
            kfaces, lfaces = K.faces[kn][kc], L.faces[ln][lc]
            for p, tables in entry.tables.items():
                gens = [_pair_map(shape, shape, s, _perms(ln)[0], p) for s in kstab[ko]]
                gens += [_pair_map(shape, shape, _perms(kn)[0], t, p) for t in lstab[lo]]
                out, least = number(p, len(tables), gens)
                here[p] = out
                if p not in words:
                    translated = (tuple(map(letters.__getitem__, u)) for u in entry.labels[p])
                    words[p] = [interned.setdefault(w, w) for w in translated]
                resolved = [
                    block(*((kn, kc) if jk is None else (kn - 1, kfaces[2 * jk + alpha])),
                          *((ln, lc) if jl is None else (ln - 1, lfaces[2 * jl + alpha])), p - 1)
                    for jk, jl, alpha in entry.slots[p]
                ]
                frows, srows, wrows = faces[p], syms[p], labels[p]
                wp, swaps, rows = words[p], entry.swaps[p], entry.faces[p]
                for x in least:
                    k = out[x]
                    wrows[k] = wp[x]
                    frows[k] = tuple([resolved[slot][z] for slot, z in rows[x]])
                    srows[k] = tuple(map(out.__getitem__, swaps[x]))

    for Z, slices, first in ((L, lslice, 0), (K, kslice, 1)):  # vertices once
        for cell_ids in slices.values():
            for n in Z.dims()[first:]:
                here, below = cell_ids[n], cell_ids.get(n - 1, {})
                zfaces, zsyms, zwords = Z.faces[n], Z.syms[n], Z.labels[n]
                for c, k in here.items():
                    faces[n][k] = tuple(map(below.__getitem__, zfaces[c]))
                    syms[n][k] = tuple(map(here.__getitem__, zsyms[c]))
                    labels[n][k] = zwords[c]
    cells = {p: range(counts[p]) for p in faces}

    def pair_vertex(u, v) -> int:
        return lslice[u][0][v]

    decoration = {
        pair_vertex(u, v): f"{K.decoration[u]} || {L.decoration[v]}"
        for u in K.vertices if u in K.decoration for v in L.vertices if v in L.decoration
    }
    initial = None if K.initial is None or L.initial is None else pair_vertex(K.initial, L.initial)
    truncated = K.truncated or L.truncated
    return PrecubicalSet(cells, faces, syms, labels, decoration, initial, truncated)
