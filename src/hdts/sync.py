"""Synchronized products of labelled symmetric precubical sets.

Three constructions stack up here.  The fibered product of two
1-dimensional sets runs both components side by side and adds one
silent edge for every pair of edges with complementary labels.  The
directed coskeleton fills a 1-dimensional set whose vertex set is a
cube of corners with every higher cube whose vertex map is non-twisted
and whose edges can be chosen consistently.  The synchronized tensor
product glues directed coskeletons of fibered products of cube
skeletons over all pairs of cubes of the two factors; it interprets
parallel composition.

A pair entry (the coskeleton of the fibered product of two cube
skeletons) depends on its two label words only through their shape:
the word lengths, which letters are equal, which are silent and which
are partners under the involution.  Pair entries are therefore built
once per shape, over words renamed in order of first occurrence, and
cached for the life of the process; each product relabels them back
to its own words.  The cell maps between pair entries read no labels
at all and are cached by the two shapes and the two cube maps.
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
    face_encoding,
    identity_encoding,
    sym_encoding,
)
from .precube import (
    EMPTY_PRECUBE,
    PrecubeError,
    PrecubeMap,
    PrecubicalSet,
    colimit_presheaf,
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


def sync_edges(K: PrecubicalSet, cfg: Alphabet) -> list[int]:
    """Edges of ``K`` labelled with the silent label."""
    return [e for e in K.ncells(1) if K.label(1, e) == (cfg.tau,)]


# ---------------------------------------------------------------------------
# directed coskeleton


def non_twisted(n: int, p: int, vertex_map: Mapping[tuple, tuple]) -> bool:
    """Is the vertex table [n] -> [p] built from projections and constants,
    with every source coordinate projected at least once?

    Unlike a cube-category map, a source coordinate may be projected
    several times; the corners of a synchronization square move two
    coordinates at once, which is exactly what this admits.
    """
    verts = cube_vertices(n)
    used = set()
    for j in range(1, p + 1):
        column = [vertex_map[eps][j - 1] for eps in verts]
        if all(v == 0 for v in column) or all(v == 1 for v in column):
            continue
        hits = [
            k
            for k in range(1, n + 1)
            if all(vertex_map[eps][j - 1] == eps[k - 1] for eps in verts)
        ]
        if not hits:
            return False
        used.add(hits[0])
    return used >= set(range(1, n + 1))


@dataclass(frozen=True)
class _Cosk:
    precube: PrecubicalSet
    index: Mapping[tuple, int]  # (n, content key) -> cell id, n >= 2
    contents: Mapping[tuple[int, int], tuple]  # (n, id) -> (vkey, edict)


def _grid_direction(enc: CubeEncoding) -> int:
    for j, v in enumerate(enc.fhat, 1):
        if v not in (NEG, POS):
            return j
    raise ValueError("not a grid edge")


def _content_key(vkey, edict):
    return (vkey, tuple(sorted((enc.fhat, e) for enc, e in edict.items())))


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
        by_dir: dict[int, list[CubeEncoding]] = {}
        for g in grid:
            by_dir.setdefault(_grid_direction(g), []).append(g)
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
            vmap = dict(zip(verts, vkey))
            per_direction = []
            feasible = True
            for d in range(1, n + 1):
                cand: dict[CubeEncoding, list[int]] = {}
                for g in by_dir[d]:
                    lo = bits_to_vertex.get(vmap[g.apply((0,))])
                    hi = bits_to_vertex.get(vmap[g.apply((1,))])
                    cand[g] = by_endpoints.get((lo, hi), [])
                    if not cand[g]:
                        feasible = False
                        break
                if not feasible:
                    break
                shared = set.intersection(
                    *({K.label(1, e)[0] for e in es} for es in cand.values())
                )
                choices = []
                for lab in sorted(shared):
                    pools = [
                        [e for e in cand[g] if K.label(1, e)[0] == lab] for g in by_dir[d]
                    ]
                    for pick in itertools.product(*pools):
                        choices.append(dict(zip(by_dir[d], pick)))
                if not choices:
                    feasible = False
                    break
                per_direction.append(choices)
            if not feasible:
                continue
            for combo in itertools.product(*per_direction):
                edict = {}
                for part in combo:
                    edict.update(part)
                found.append((vkey, edict))
        found.sort(key=lambda c: _content_key(*c))
        if not found:
            break
        cells[n] = tuple(range(len(found)))
        for cid, (vkey, edict) in enumerate(found):
            contents[(n, cid)] = (vkey, edict)
            index[(n, _content_key(vkey, edict))] = cid
            word = []
            for d in range(1, n + 1):
                fhat = [NEG] * n
                fhat[d - 1] = 1
                word.append(K.label(1, edict[CubeEncoding(1, n, tuple(fhat))])[0])
            labels[(n, cid)] = tuple(word)
        for cid, (vkey, edict) in enumerate(found):
            vmap = dict(zip(verts, vkey))
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    h = face_encoding(i, alpha, n)
                    if n - 1 == 1:
                        faces[(n, cid, i, alpha)] = edict[h]
                    else:
                        sub = _transport(vmap, edict, h)
                        faces[(n, cid, i, alpha)] = index[(n - 1, _content_key(*sub))]
            for i in range(1, n):
                sub = _transport(vmap, edict, sym_encoding(i, n))
                syms[(n, cid, i)] = index[(n, _content_key(*sub))]

    out = PrecubicalSet(cells, faces, syms, labels, K.decoration, K.initial, K.truncated)
    return _Cosk(out, index, contents)


def _transport(vmap, edict, h: CubeEncoding):
    """Restrict an (n-cell) content along ``h``: [q] -> [n]."""
    q = h.m
    vkey = tuple(vmap[h.apply(eps)] for eps in cube_vertices(q))
    e2 = {g: edict[compose(g, h)] for g in all_encodings(1, q)}
    return (vkey, e2)


def cosk_directed(K: PrecubicalSet, vertex_iso: Mapping[int, tuple]) -> PrecubicalSet:
    """Fill a 1-dimensional set over a cube of corners with all consistent,
    non-twisted higher cubes.  Output dimension never exceeds the corner
    cube's dimension."""
    return _cosk(K, vertex_iso).precube


# ---------------------------------------------------------------------------
# synchronized tensor product


@lru_cache(maxsize=None)
def _skeleton_tables(m: int):
    vbits = tuple(enc.apply(()) for enc in all_encodings(0, m))
    vid = {bits: k for k, bits in enumerate(vbits)}
    eenc = all_encodings(1, m)
    eid = {enc: k for k, enc in enumerate(eenc)}
    return vbits, vid, eenc, eid


@dataclass(frozen=True)
class _PairEntry:
    fib: _Fibered
    cosk: _Cosk


#: The silent letter of a renamed word pair; other letters become "0", "1", ...
_TAU = "tau"


def _shape(word_k: tuple, word_l: tuple, cfg: Alphabet) -> tuple[tuple, dict[str, str]]:
    """The shape key of a word pair, and the letter map back from it.

    Every letter is checked against ``cfg``, then renamed in order of
    first occurrence in ``word_k + word_l``, the silent label to
    ``_TAU``.  The key is the two renamed words and the involution
    restricted to the letters present: all that the fibered product
    and the directed coskeleton read of the labels.
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


@lru_cache(maxsize=1024)
def _shape_entry(shape: tuple) -> _PairEntry:
    """Coskeleton of the fibered product of two cube skeletons, over the
    renamed words of ``shape``."""
    word_k, word_l, pairs = shape
    cfg = Alphabet(frozenset(word_k + word_l + (_TAU,)), _TAU, pairs)
    fib = _fibered(truncate(standard_cube(word_k), 1), truncate(standard_cube(word_l), 1), cfg)
    kbits = _skeleton_tables(len(word_k))[0]
    lbits = _skeleton_tables(len(word_l))[0]
    iso = {
        vid: kbits[kv] + lbits[lv] for (kv, lv), vid in fib.vertex_id.items()
    }
    return _PairEntry(fib, _cosk(fib.precube, iso))


@lru_cache(maxsize=8192)
def _pair_map(src_shape: tuple, dst_shape: tuple, enc_k: CubeEncoding, enc_l: CubeEncoding) -> dict:
    """Cell map between pair entries induced by maps of the two cubes.

    It reads encodings, fibered tags and coskeleton contents, never
    labels, so it serves every word pair of the two shapes.  Callers
    share the returned dict and must not change it.
    """
    src, dst = _shape_entry(src_shape), _shape_entry(dst_shape)
    mk = enc_k.m
    kv_bits, _, k_eenc, _ = _skeleton_tables(mk)
    lv_bits, _, l_eenc, _ = _skeleton_tables(enc_l.m)
    _, kv_id2, _, ke_id2 = _skeleton_tables(enc_k.n)
    _, lv_id2, _, le_id2 = _skeleton_tables(enc_l.n)

    def kvert(v):
        return kv_id2[enc_k.apply(kv_bits[v])]

    def lvert(v):
        return lv_id2[enc_l.apply(lv_bits[v])]

    def kedge(e):
        return ke_id2[compose(k_eenc[e], enc_k)]

    def ledge(e):
        return le_id2[compose(l_eenc[e], enc_l)]

    def edge(tag):
        kind = tag[0]
        if kind == "k":
            return dst.fib.edge_id[("k", kedge(tag[1]), lvert(tag[2]))]
        if kind == "l":
            return dst.fib.edge_id[("l", kvert(tag[1]), ledge(tag[2]))]
        return dst.fib.edge_id[("s", kedge(tag[1]), ledge(tag[2]))]

    def vertex_bits(bits):
        return enc_k.apply(bits[:mk]) + enc_l.apply(bits[mk:])

    cell_map: dict[tuple[int, int], int] = {}
    src_pc = src.cosk.precube
    for v in src_pc.vertices:
        kv, lv = src.fib.vertex_pair[v]
        cell_map[(0, v)] = dst.fib.vertex_id[(kvert(kv), lvert(lv))]
    for e in src_pc.ncells(1):
        cell_map[(1, e)] = edge(src.fib.edge_tag[e])
    for n in src_pc.dims():
        if n < 2:
            continue
        for c in src_pc.ncells(n):
            vkey, edict = src.cosk.contents[(n, c)]
            vkey2 = tuple(vertex_bits(b) for b in vkey)
            edict2 = {g: edge(src.fib.edge_tag[e]) for g, e in edict.items()}
            cell_map[(n, c)] = dst.cosk.index[(n, _content_key(vkey2, edict2))]
    return cell_map


def _generators(Z: PrecubicalSet, n: int, c: int):
    """The faces and swaps of cell ``(n, c)``: (cell, cube map into [n]) pairs."""
    for i in range(1, n + 1):
        for alpha in (0, 1):
            yield (n - 1, Z.face(n, c, i, alpha)), face_encoding(i, alpha, n)
    for i in range(1, n):
        yield (n, Z.sym(n, c, i)), sym_encoding(i, n)


def tensor_sync(K: PrecubicalSet, L: PrecubicalSet, cfg: Alphabet) -> PrecubicalSet:
    """Synchronized tensor product of two labelled symmetric precubical sets.

    Glues, over every pair of cubes (one from each factor), the directed
    coskeleton of the fibered product of their skeletons.  When both
    factors carry an initial vertex or decorations, the result is
    decorated pairwise.
    """
    if not K.vertices or not L.vertices:
        return EMPTY_PRECUBE
    kobjs = [(n, c) for n in K.dims() for c in K.ncells(n)]
    lobjs = [(n, c) for n in L.dims() for c in L.ncells(n)]
    pairs = [(ko, lo) for ko in kobjs for lo in lobjs]
    pair_index = {pair: i for i, pair in enumerate(pairs)}

    # per pair of cubes: its shape key and its pair entry relabelled to its words
    by_words: dict[tuple, tuple[tuple, PrecubicalSet]] = {}
    entries = []
    for ko, lo in pairs:
        words = (K.label(*ko), L.label(*lo))
        if words not in by_words:
            shape, letters = _shape(*words, cfg)
            cosk = _shape_entry(shape).cosk.precube
            labels = {cell: tuple(letters[x] for x in word) for cell, word in cosk.labels.items()}
            by_words[words] = (shape, replace(cosk, labels=labels))
        entries.append(by_words[words])
    objects = [obj for _, obj in entries]
    arrows = []
    for pi, (ko, lo) in enumerate(pairs):
        dst_shape, dst = entries[pi]
        id_k, id_l = identity_encoding(ko[0]), identity_encoding(lo[0])
        sides = [((c, lo), enc, id_l) for c, enc in _generators(K, *ko)]
        sides += [((ko, c), id_k, enc) for c, enc in _generators(L, *lo)]
        for src_pair, enc_k, enc_l in sides:
            si = pair_index[src_pair]
            src_shape, src = entries[si]
            cmap = _pair_map(src_shape, dst_shape, enc_k, enc_l)
            arrows.append((si, pi, PrecubeMap(src, dst, cmap)))

    out, cocones = colimit_presheaf(objects, arrows)

    def pair_vertex(u, v) -> int:
        pi = pair_index[((0, u), (0, v))]
        return cocones[pi].cell_map[(0, 0)]

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
    return replace(
        out,
        decoration=decoration,
        initial=initial,
        truncated=K.truncated or L.truncated or out.truncated,
    )
