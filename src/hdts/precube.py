"""Finite labelled symmetric precubical sets.

Cells are integers, one id space per dimension.  A set stores each
n-cell as one row in each of three tables: its 2n boundary cells, its
n-1 coordinate swaps (total for n >= 2) and its word of n labels.  The
face/swap tables must satisfy the boundary, swap and mixed exchange
relations of the symmetric cube shapes, and the label word must track
them: dropping a face removes the corresponding letter, swapping
coordinates swaps adjacent letters.  ``check_relations`` verifies all
of this cellwise.

Input that arrives keyed, one entry per face and per swap, enters
through ``make_precube``, which builds the rows and checks them.  Every
construction writes rows directly and does not recheck: cubes are
tables of the cube category, and every construction that copies cells
from other sets goes through ``write_rows``, which writes rows under
explicit id maps and checks each merge: ``glue`` (colimits and
quotients number the classes of a union-find), the slices of the
tensor product, and the sets placed in a region the process-term
compiler walks.  Renaming preserves the relations.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .encoding import all_encodings, face_rows, swap_rows, word_along
from .search import backtrack
from .unionfind import UnionFind


class PrecubeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# data model

Rows = Mapping[int, Mapping[int, tuple]]  # dim -> cell -> row


@dataclass(frozen=True)
class PrecubicalSet:
    """Cells per dimension, and one row per cell in each of three tables.

    For every n-cell c, vertices included, ``faces[n][c]`` is
    ``(d_1^0 c, d_1^1 c, ..., d_n^0 c, d_n^1 c)``, ``syms[n][c]`` is
    ``(s_1 c, ..., s_{n-1} c)`` and ``labels[n][c]`` is c's word, so
    ``len(faces[n][c]) == 2n``, ``len(syms[n][c]) == n - 1`` (0 for a
    vertex) and ``len(labels[n][c]) == n``.  Each table has a key for
    every populated dimension and no other.  Rows are tuples and are
    never mutated, so sets share them: ``__post_init__`` sorts the cell
    ids and copies nothing else.
    """

    cells: Mapping[int, tuple[int, ...]]
    faces: Rows
    syms: Rows
    labels: Rows
    decoration: Mapping[int, str] = field(default_factory=dict)
    initial: int | None = None
    truncated: bool = False

    def __post_init__(self):
        cells = {n: tuple(sorted(ids)) for n, ids in self.cells.items() if ids}
        object.__setattr__(self, "cells", cells)

    def dims(self) -> list[int]:
        return sorted(self.cells)

    @property
    def dim(self) -> int:
        return max(self.cells, default=-1)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.cells.get(0, ())

    def ncells(self, n: int) -> tuple[int, ...]:
        return self.cells.get(n, ())

    @property
    def size(self) -> int:
        return sum(len(ids) for ids in self.cells.values())

    def face(self, n: int, cell: int, i: int, alpha: int) -> int:
        return self.faces[n][cell][2 * i + alpha - 2]

    def sym(self, n: int, cell: int, i: int) -> int:
        return self.syms[n][cell][i - 1]

    def label(self, n: int, cell: int) -> tuple[str, ...]:
        return self.labels[n][cell]


EMPTY_PRECUBE = PrecubicalSet({}, {}, {}, {})


def make_precube(cells, faces, syms, labels, decoration=None, initial=None,
                 truncated=False) -> PrecubicalSet:
    """The set with keyed tables, checked by ``check_relations``.

    ``faces[(n, c, i, alpha)]``, ``syms[(n, c, i)]`` and ``labels[(n, c)]``
    (n >= 1) become rows; a missing entry becomes ``None`` in its row, so
    the check names it, and an entry for no cell or slot is ignored.
    """
    cells = {n: tuple(ids) for n, ids in cells.items() if ids}
    frows, srows, words = {}, {}, {}
    for n, ids in cells.items():
        keys = [(i, a) for i in range(1, n + 1) for a in (0, 1)]
        frows[n] = {c: tuple(faces.get((n, c, i, a)) for i, a in keys) for c in ids}
        srows[n] = {c: tuple(syms.get((n, c, i)) for i in range(1, n)) for c in ids}
        words[n] = {c: labels.get((n, c)) if n else () for c in ids}
    out = PrecubicalSet(cells, frows, srows, words, dict(decoration or {}), initial, truncated)
    check_relations(out)
    return out


def check_relations(K: PrecubicalSet) -> None:
    """Verify the tables' keys, then the rows, the shape relations and label
    compatibility, cellwise."""
    dims = K.dims()
    for n in dims:
        if n > 0 and (n - 1) not in K.cells:
            raise PrecubeError(f"dimension {n} is populated but {n - 1} is empty")
    for name, table in (("face", K.faces), ("swap", K.syms), ("label", K.labels)):
        if sorted(table) != dims:
            raise PrecubeError(f"the {name} table has dimensions {sorted(table)}, not {dims}")
    if K.initial is not None and K.initial not in K.vertices:
        raise PrecubeError("initial vertex does not exist")
    for v in K.decoration:
        if v not in K.vertices:
            raise PrecubeError(f"decorated vertex {v} does not exist")
    for n in dims:
        lower = set(K.ncells(n - 1))
        here = set(K.ncells(n))
        words, frows, srows = K.labels[n], K.faces[n], K.syms[n]
        for c in K.ncells(n):
            word, row, srow = words.get(c), frows.get(c), srows.get(c)
            if word is None or len(word) != n:
                raise PrecubeError(f"cell ({n},{c}) has no well-formed label word")
            if row is None or len(row) != 2 * n or srow is None or len(srow) != max(n - 1, 0):
                raise PrecubeError(f"cell ({n},{c}) has a face or swap row of the wrong length")
            for j, f in enumerate(row):
                i, alpha = j // 2 + 1, j % 2
                if f is None or f not in lower:
                    raise PrecubeError(f"cell ({n},{c}) misses face ({i},{alpha})")
                if K.label(n - 1, f) != word[: i - 1] + word[i:]:
                    raise PrecubeError(
                        f"face ({i},{alpha}) of cell ({n},{c}) breaks the label rule"
                    )
            for i, s in enumerate(srow, 1):
                if s is None or s not in here:
                    raise PrecubeError(f"cell ({n},{c}) misses swap {i}")
                expect = list(word)
                expect[i - 1], expect[i] = expect[i], expect[i - 1]
                if K.label(n, s) != tuple(expect):
                    raise PrecubeError(f"swap {i} of cell ({n},{c}) breaks the label rule")
    for n in dims:
        if n < 2:
            continue
        face, sym = K.face, K.sym
        for c in K.ncells(n):
            # boundary exchange
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for alpha in (0, 1):
                        for beta in (0, 1):
                            left = face(n - 1, face(n, c, j, beta), i, alpha)
                            right = face(n - 1, face(n, c, i, alpha), j - 1, beta)
                            if left != right:
                                raise PrecubeError(
                                    f"boundary relation fails at cell ({n},{c}), "
                                    f"i={i}, j={j}"
                                )
            # swap relations
            for i in range(1, n):
                if sym(n, sym(n, c, i), i) != c:
                    raise PrecubeError(f"swap {i} is not involutive at cell ({n},{c})")
                for j in range(1, n):
                    if i == j - 1:
                        lhs = sym(n, sym(n, sym(n, c, i), j), i)
                        rhs = sym(n, sym(n, sym(n, c, j), i), j)
                        if lhs != rhs:
                            raise PrecubeError(f"braid relation fails at cell ({n},{c})")
                    if j > i + 1:
                        if sym(n, sym(n, c, j), i) != sym(n, sym(n, c, i), j):
                            raise PrecubeError(
                                f"distant swaps do not commute at cell ({n},{c})"
                            )
            # mixed exchange
            for i in range(1, n):
                s = sym(n, c, i)
                for j in range(1, n + 1):
                    for alpha in (0, 1):
                        got = face(n, s, j, alpha)
                        if j < i:
                            want = sym(n - 1, face(n, c, j, alpha), i - 1)
                        elif j == i:
                            want = face(n, c, i + 1, alpha)
                        elif j == i + 1:
                            want = face(n, c, i, alpha)
                        else:
                            want = sym(n - 1, face(n, c, j, alpha), i)
                        if got != want:
                            raise PrecubeError(
                                f"mixed exchange fails at cell ({n},{c}), "
                                f"swap {i}, face ({j},{alpha})"
                            )


# ---------------------------------------------------------------------------
# standard cubes


@lru_cache(maxsize=None)
def _cube_shape(n: int) -> tuple[dict, dict, dict]:
    """Cells, face rows and swap rows of every cube on n letters: its
    m-cells are the rows of ``all_encodings(m, n)``, faces and swaps
    precomposition."""
    cells, faces, syms = {}, {}, {}
    for m in range(n + 1):
        cells[m] = tuple(range(len(all_encodings(m, n))))
        faces[m] = dict(enumerate(face_rows(m, n))) if m else dict.fromkeys(cells[m], ())
        syms[m] = dict(enumerate(swap_rows(m, n)))
    return cells, faces, syms


def standard_cube(word: Sequence[str]) -> PrecubicalSet:
    """The labelled cube on ``word``: m-cells are the maps [m] -> [n]."""
    word = tuple(word)
    n = len(word)
    labels = {
        m: {k: word_along(word, enc) for k, enc in enumerate(all_encodings(m, n))}
        for m in range(n + 1)
    }
    return PrecubicalSet(*_cube_shape(n), labels)


def truncate(K: PrecubicalSet, n: int) -> PrecubicalSet:
    """Drop every cell above dimension ``n``; ids are preserved, and the
    initial vertex is kept if it survives."""
    ids = {(d, c): c for d in K.dims() if d <= n for c in K.ncells(d)}
    return glue([(K, ids)], K.initial if (0, K.initial) in ids else None)


def boundary(word: Sequence[str]) -> PrecubicalSet:
    """The cube on ``word`` with its top cells removed."""
    word = tuple(word)
    if not word:
        return EMPTY_PRECUBE
    return truncate(standard_cube(word), len(word) - 1)


# ---------------------------------------------------------------------------
# maps of precubical sets


@dataclass(frozen=True)
class PrecubeMap:
    src: PrecubicalSet
    dst: PrecubicalSet
    cell_map: Mapping[tuple[int, int], int]  # (dim, src cell) -> dst cell

    def __post_init__(self):
        object.__setattr__(self, "cell_map", dict(self.cell_map))

    def __call__(self, n: int, cell: int) -> int:
        return self.cell_map[(n, cell)]

    def key(self):
        return tuple(sorted(self.cell_map.items()))

    @property
    def is_identity(self) -> bool:
        return self.src == self.dst and all(c == d for (_, c), d in self.cell_map.items())


def check_precube_map(f: PrecubeMap) -> None:
    K, L = f.src, f.dst
    for n in K.dims():
        for c in K.ncells(n):
            if (n, c) not in f.cell_map:
                raise PrecubeError(f"map misses cell ({n},{c})")
            d = f.cell_map[(n, c)]
            if d not in L.ncells(n):
                raise PrecubeError(f"cell ({n},{c}) maps outside the target")
            if K.label(n, c) != L.label(n, d):
                raise PrecubeError(f"cell ({n},{c}) changes label")
            if n >= 1:
                for i in range(1, n + 1):
                    for alpha in (0, 1):
                        if f.cell_map[(n - 1, K.face(n, c, i, alpha))] != L.face(n, d, i, alpha):
                            raise PrecubeError(f"map breaks face ({i},{alpha}) at ({n},{c})")
            for i in range(1, n):
                if f.cell_map[(n, K.sym(n, c, i))] != L.sym(n, d, i):
                    raise PrecubeError(f"map breaks swap {i} at ({n},{c})")


def identity_precube_map(K: PrecubicalSet) -> PrecubeMap:
    return PrecubeMap(K, K, {(n, c): c for n in K.dims() for c in K.ncells(n)})


def compose_precube_maps(f: PrecubeMap, g: PrecubeMap) -> PrecubeMap:
    return PrecubeMap(f.src, g.dst, {k: g.cell_map[(k[0], v)] for k, v in f.cell_map.items()})


# ---------------------------------------------------------------------------
# gluing, colimits and quotients


def write_rows(K: PrecubicalSet, ids, faces, syms, labels) -> None:
    """Write K's rows into the tables ``faces``, ``syms`` and ``labels``
    (dim -> id -> row) under new ids: ``ids[n]`` maps K's n-cells to their
    ids, and a cell without one is dropped (the faces and swaps of a kept
    cell must keep theirs).  A cell sent to an id that has rows already is
    merged and must agree on labels, faces and swaps."""
    for n, here in ids.items():
        lower, same = ids.get(n - 1, {}).__getitem__, here.__getitem__
        frows, srows, words = K.faces[n], K.syms[n], K.labels[n]
        out_f, out_s, out_w = (table.setdefault(n, {}) for table in (faces, syms, labels))
        for c, k in here.items():
            word, frow, srow = words[c], frows[c], srows[c]
            if frow:
                frow = tuple(map(lower, frow))
            if srow:
                srow = tuple(map(same, srow))
            if k not in out_w:
                out_w[k], out_f[k], out_s[k] = word, frow, srow
            elif out_w[k] != word:
                raise PrecubeError("merged cells disagree on labels")
            elif out_f[k] != frow:
                raise PrecubeError("merged cells disagree on faces")
            elif out_s[k] != srow:
                raise PrecubeError("merged cells disagree on swaps")


def glue(parts, initial=None) -> PrecubicalSet:
    """One set made of the cells of ``parts``, under new ids.

    Each part is a pair ``(K, ids)``: ``ids`` maps ``(n, c)`` to the id of
    K's n-cell c in dimension n of the result, and ``write_rows`` writes
    the kept cells.  A merged vertex keeps the least decoration sent to
    it.  The result is truncated if any part is.
    """
    faces, syms, labels, decoration, truncated = {}, {}, {}, {}, False
    for K, ids in parts:
        truncated = truncated or K.truncated
        by_dim: dict[int, dict[int, int]] = defaultdict(dict)
        for (n, c), k in ids.items():
            by_dim[n][c] = k
        write_rows(K, by_dim, faces, syms, labels)
        for v, name in K.decoration.items():
            k = ids.get((0, v))
            if k is not None and (k not in decoration or name < decoration[k]):
                decoration[k] = name
    return PrecubicalSet(faces, faces, syms, labels, decoration, initial, truncated)


def _class_ids(uf: UnionFind) -> dict:
    """Each ``(n, tag)`` key of ``uf`` to the id of its class: the classes
    of n-cells are numbered in the order of their least members."""
    ids, count = {}, Counter()
    for members in uf.groups():
        n = members[0][0]
        for key in members:
            ids[key] = count[n]
        count[n] += 1
    return ids


def colimit_presheaf(
    objects: Sequence[PrecubicalSet], arrows: Sequence[tuple] = ()
) -> tuple[PrecubicalSet, list[PrecubeMap]]:
    """Dimensionwise colimit of a finite diagram.

    ``arrows`` are (src_index, dst_index, PrecubeMap) triples.  Cells are
    glued by the equivalence the arrows generate; faces, swaps, labels
    and decorations are induced (merged decorations keep the least name).
    """
    objects = list(objects)
    for si, ti, f in arrows:
        if f.src is not objects[si] and f.src != objects[si]:
            raise PrecubeError("arrow source does not match the diagram")
        if f.dst is not objects[ti] and f.dst != objects[ti]:
            raise PrecubeError("arrow target does not match the diagram")
        check_precube_map(f)

    uf = UnionFind(
        (n, (oi, c)) for oi, K in enumerate(objects) for n in K.dims() for c in K.ncells(n)
    )
    for si, ti, f in arrows:
        for n in f.src.dims():
            for c in f.src.ncells(n):
                uf.union((n, (si, c)), (n, (ti, f.cell_map[(n, c)])))
    class_id = _class_ids(uf)
    maps = [
        {(n, c): class_id[(n, (oi, c))] for n in K.dims() for c in K.ncells(n)}
        for oi, K in enumerate(objects)
    ]
    out = glue(zip(objects, maps))
    return out, [PrecubeMap(K, out, ids) for K, ids in zip(objects, maps)]


def _quotient(K: PrecubicalSet, uf: UnionFind) -> tuple[PrecubicalSet, PrecubeMap]:
    ids = _class_ids(uf)
    out = glue([(K, ids)], None if K.initial is None else ids[(0, K.initial)])
    return out, PrecubeMap(K, out, ids)


# ---------------------------------------------------------------------------
# unique fillers


def hda_check(K: PrecubicalSet) -> list[tuple[int, int, int]]:
    """All pairs of distinct cells (dim >= 2) with identical boundaries.

    An empty result means every shell has at most one filler.  Cells are
    grouped by their face row: for p >= 2 the 2p boundary cells determine
    the label word, so no separate label comparison is needed.
    """
    out = []
    for n in K.dims():
        if n < 2:
            continue
        groups: dict[tuple, list[int]] = {}
        for c, row in K.faces[n].items():
            groups.setdefault(row, []).append(c)
        for dup in groups.values():
            out.extend((n, x, y) for x, y in combinations(sorted(dup), 2))
    return sorted(out)


def sh_reflect(K: PrecubicalSet) -> tuple[PrecubicalSet, PrecubeMap]:
    """Merge duplicate fillers until every shell has at most one.

    Merging respects the swap action (swapping both members of a merged
    pair yields another pair with equal boundaries), so the quotient is
    again a symmetric precubical set.  Terminates because each round
    strictly decreases the number of cells.
    """
    current = K
    total = identity_precube_map(K)
    while True:
        dups = hda_check(current)
        if not dups:
            return current, total
        uf = UnionFind((n, c) for n in current.dims() for c in current.ncells(n))
        queue = list(dups)
        while queue:
            n, x, y = queue.pop()
            if uf.same((n, x), (n, y)):
                continue
            uf.union((n, x), (n, y))
            for i in range(1, n):
                queue.append((n, current.sym(n, x, i), current.sym(n, y, i)))
        current, qmap = _quotient(current, uf)
        total = compose_precube_maps(total, qmap)


# ---------------------------------------------------------------------------
# morphism enumeration and isomorphism search


def _maps(K: PrecubicalSet, L: PrecubicalSet, vertex_ok=None):
    """Label-preserving maps K -> L, cells assigned from the top dimension down.

    A cell with an assigned coface, or else an assigned swap partner,
    takes the matching face or swap of that cell's image, so by Yoneda
    only the cells that are no face of another cell are searched.  With
    ``vertex_ok``, maps are injective in each dimension and send a
    vertex c only to a vertex d with ``vertex_ok(c, d)``.
    """
    order = [(n, c) for n in reversed(K.dims()) for c in K.ncells(n)]
    cofaces = defaultdict(list)  # (n, c) -> (e, j) with c at place j of e's face row
    for n in K.dims():
        for e, row in K.faces[n].items():
            for j, c in enumerate(row):
                cofaces[n - 1, c].append((e, j))
    by_dim_label: dict[tuple[int, tuple], list[int]] = {}
    for n in L.dims():
        for d in L.ncells(n):
            by_dim_label.setdefault((n, L.label(n, d)), []).append(d)

    def candidates(var, assign):
        n, c = var
        if cofaces[var]:
            e, j = cofaces[var][0]
            return (L.faces[n + 1][assign[n + 1, e]][j],)
        for i, p in enumerate(K.syms[n][c]):
            if (n, p) in assign:
                return (L.syms[n][assign[n, p]][i],)
        return by_dim_label.get((n, K.label(n, c)), ())

    def consistent(var, d, assign) -> bool:
        n, c = var
        if n == 0 and vertex_ok is not None and not vertex_ok(c, d):
            return False
        if any(L.faces[n + 1][assign[n + 1, e]][j] != d for e, j in cofaces[var]):
            return False
        partners = zip(K.syms[n][c], L.syms[n][d])
        return all((d if p == c else assign.get((n, p), s)) == s for p, s in partners)

    for assign in backtrack(order, candidates, consistent, injective=vertex_ok is not None):
        yield PrecubeMap(K, L, assign)


def hom_enumerate_precube(K: PrecubicalSet, L: PrecubicalSet) -> list[PrecubeMap]:
    """All label-preserving maps K -> L, sorted by ``key()``."""
    return sorted(_maps(K, L), key=PrecubeMap.key)


def iso_check_precube(
    K: PrecubicalSet,
    L: PrecubicalSet,
    match_initial: bool = False,
    match_decoration: bool = False,
) -> PrecubeMap | None:
    """A dimensionwise bijective map K -> L commuting with everything."""
    if {n: len(K.ncells(n)) for n in K.dims()} != {n: len(L.ncells(n)) for n in L.dims()}:
        return None

    def vertex_ok(c, d) -> bool:
        return not (match_initial and (c == K.initial) != (d == L.initial)) and not (
            match_decoration and K.decoration.get(c) != L.decoration.get(d)
        )

    return next(_maps(K, L, vertex_ok), None)
