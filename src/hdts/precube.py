"""Finite labelled symmetric precubical sets.

Cells are integers, one id space per dimension.  A set stores, per
n-cell, the 2n boundary cells, the n-1 coordinate swaps (total for
n >= 2), and a word of n labels.  The face/swap tables must satisfy the
boundary, swap and mixed exchange relations of the symmetric cube
shapes, and the label word must track them: dropping a face removes the
corresponding letter, swapping coordinates swaps adjacent letters.
``check_relations`` verifies all of this cellwise.

Every construction that copies cells from other sets goes through
``glue``, which renumbers cells by explicit id maps and checks each
merge: colimits and quotients number the classes of a union-find, and
the process-term compiler renumbers directly.  Renaming preserves the
relations, so ``glue`` does not recheck the whole set.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, product
from typing import Mapping, Sequence

from .encoding import all_encodings, face_rows, swap_rows, word_along
from .search import backtrack
from .unionfind import UnionFind


class PrecubeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class PrecubicalSet:
    cells: Mapping[int, tuple[int, ...]]
    faces: Mapping[tuple[int, int, int, int], int]  # (n, cell, i, alpha) -> (n-1)-cell
    syms: Mapping[tuple[int, int, int], int]  # (n, cell, i) -> n-cell
    labels: Mapping[tuple[int, int], tuple[str, ...]]  # (n, cell) -> word, n >= 1
    decoration: Mapping[int, str] = field(default_factory=dict)
    initial: int | None = None
    truncated: bool = False

    def __post_init__(self):
        cells = {n: tuple(sorted(ids)) for n, ids in self.cells.items() if ids}
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "faces", dict(self.faces))
        object.__setattr__(self, "syms", dict(self.syms))
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "decoration", dict(self.decoration))

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
        return self.faces[(n, cell, i, alpha)]

    def sym(self, n: int, cell: int, i: int) -> int:
        return self.syms[(n, cell, i)]

    def label(self, n: int, cell: int) -> tuple[str, ...]:
        if n == 0:
            return ()
        return self.labels[(n, cell)]


EMPTY_PRECUBE = PrecubicalSet({}, {}, {}, {})


def make_precube(
    cells,
    faces,
    syms,
    labels,
    decoration=None,
    initial=None,
    truncated=False,
) -> PrecubicalSet:
    out = PrecubicalSet(
        {n: tuple(ids) for n, ids in cells.items()},
        dict(faces),
        dict(syms),
        dict(labels),
        dict(decoration or {}),
        initial,
        truncated,
    )
    check_relations(out)
    return out


def check_relations(K: PrecubicalSet) -> None:
    """Verify the shape relations and label compatibility, cellwise."""
    dims = K.dims()
    for n in dims:
        if n > 0 and (n - 1) not in K.cells:
            raise PrecubeError(f"dimension {n} is populated but {n - 1} is empty")
    if K.initial is not None and K.initial not in K.vertices:
        raise PrecubeError("initial vertex does not exist")
    for v in K.decoration:
        if v not in K.vertices:
            raise PrecubeError(f"decorated vertex {v} does not exist")
    for n in dims:
        if n == 0:
            continue
        lower = set(K.ncells(n - 1))
        here = set(K.ncells(n))
        for c in K.ncells(n):
            word = K.labels.get((n, c))
            if word is None or len(word) != n:
                raise PrecubeError(f"cell ({n},{c}) has no well-formed label word")
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    f = K.faces.get((n, c, i, alpha))
                    if f is None or f not in lower:
                        raise PrecubeError(f"cell ({n},{c}) misses face ({i},{alpha})")
                    expect = word[: i - 1] + word[i:]
                    if K.label(n - 1, f) != expect:
                        raise PrecubeError(
                            f"face ({i},{alpha}) of cell ({n},{c}) breaks the label rule"
                        )
            for i in range(1, n):
                s = K.syms.get((n, c, i))
                if s is None or s not in here:
                    raise PrecubeError(f"cell ({n},{c}) misses swap {i}")
                expect = list(word)
                expect[i - 1], expect[i] = expect[i], expect[i - 1]
                if K.label(n, s) != tuple(expect):
                    raise PrecubeError(f"swap {i} of cell ({n},{c}) breaks the label rule")
    # boundary exchange
    for n in dims:
        if n < 2:
            continue
        for c in K.ncells(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    for alpha in (0, 1):
                        for beta in (0, 1):
                            left = K.face(n - 1, K.face(n, c, j, beta), i, alpha)
                            right = K.face(n - 1, K.face(n, c, i, alpha), j - 1, beta)
                            if left != right:
                                raise PrecubeError(
                                    f"boundary relation fails at cell ({n},{c}), "
                                    f"i={i}, j={j}"
                                )
            # swap relations
            for i in range(1, n):
                if K.sym(n, K.sym(n, c, i), i) != c:
                    raise PrecubeError(f"swap {i} is not involutive at cell ({n},{c})")
                for j in range(1, n):
                    if i == j - 1:
                        lhs = K.sym(n, K.sym(n, K.sym(n, c, i), j), i)
                        rhs = K.sym(n, K.sym(n, K.sym(n, c, j), i), j)
                        if lhs != rhs:
                            raise PrecubeError(f"braid relation fails at cell ({n},{c})")
                    if j > i + 1:
                        if K.sym(n, K.sym(n, c, j), i) != K.sym(n, K.sym(n, c, i), j):
                            raise PrecubeError(
                                f"distant swaps do not commute at cell ({n},{c})"
                            )
            # mixed exchange
            for i in range(1, n):
                s = K.sym(n, c, i)
                for j in range(1, n + 1):
                    for alpha in (0, 1):
                        got = K.face(n, s, j, alpha)
                        if j < i:
                            want = K.sym(n - 1, K.face(n, c, j, alpha), i - 1)
                        elif j == i:
                            want = K.face(n, c, i + 1, alpha)
                        elif j == i + 1:
                            want = K.face(n, c, i, alpha)
                        else:
                            want = K.sym(n - 1, K.face(n, c, j, alpha), i)
                        if got != want:
                            raise PrecubeError(
                                f"mixed exchange fails at cell ({n},{c}), "
                                f"swap {i}, face ({j},{alpha})"
                            )


@dataclass(frozen=True)
class Shell:
    """A compatible boundary assignment for a would-be cube of dimension p."""

    p: int
    faces: Mapping[tuple[int, int], int]

    def key(self):
        return tuple(sorted(self.faces.items()))


def shell_of(K: PrecubicalSet, n: int, cell: int) -> Shell:
    return Shell(n, {(i, a): K.face(n, cell, i, a) for i in range(1, n + 1) for a in (0, 1)})


# ---------------------------------------------------------------------------
# standard cubes


@lru_cache(maxsize=None)
def _cube_shape(n: int) -> tuple[dict, dict, dict]:
    """Cells, faces and swaps of every cube on n letters: its m-cells are
    the rows of ``all_encodings(m, n)``, faces and swaps precomposition."""
    cells, faces, syms = {}, {}, {}
    for m in range(n + 1):
        cells[m] = tuple(range(len(all_encodings(m, n))))
        keys = product((m,), cells[m], range(1, m + 1), (0, 1))
        faces.update(zip(keys, chain.from_iterable(face_rows(m, n)) if m else ()))
        keys = product((m,), cells[m], range(1, m))
        syms.update(zip(keys, chain.from_iterable(swap_rows(m, n))))
    return cells, faces, syms


def standard_cube(word: Sequence[str]) -> PrecubicalSet:
    """The labelled cube on ``word``: m-cells are the maps [m] -> [n]."""
    word = tuple(word)
    n = len(word)
    labels = {
        (m, k): word_along(word, enc)
        for m in range(1, n + 1)
        for k, enc in enumerate(all_encodings(m, n))
    }
    return PrecubicalSet(*_cube_shape(n), labels)


def truncate(K: PrecubicalSet, n: int) -> PrecubicalSet:
    """Drop every cell above dimension ``n``; ids are preserved."""
    ids = {(d, c): c for d in K.dims() if d <= n for c in K.ncells(d)}
    return glue([(K, ids)], K.initial)


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


def glue(parts, initial=None) -> PrecubicalSet:
    """One set made of the cells of ``parts``, under new ids.

    Each part is a pair ``(K, ids)``: ``ids`` maps ``(n, c)`` to the id of
    K's n-cell c in dimension n of the result, and a cell without an id
    is dropped (the faces and swaps of a kept cell must keep theirs).
    Faces, swaps, labels and decorations are written under the new ids.
    Cells sent to one id are merged and must agree on faces, swaps and
    labels; a merged vertex keeps the least decoration sent to it.  The
    result is truncated if any part is.
    """
    cells: dict[int, set[int]] = defaultdict(set)
    faces, syms, labels, decoration = {}, {}, {}, {}
    truncated = False
    for K, ids in parts:
        truncated = truncated or K.truncated
        for (n, _), k in ids.items():
            cells[n].add(k)
        for (n, c), word in K.labels.items():
            k = ids.get((n, c))
            if k is not None and labels.setdefault((n, k), word) != word:
                raise PrecubeError("merged cells disagree on labels")
        for (n, c, i, alpha), f in K.faces.items():
            k = ids.get((n, c))
            if k is not None:
                f = ids[(n - 1, f)]
                if faces.setdefault((n, k, i, alpha), f) != f:
                    raise PrecubeError("merged cells disagree on faces")
        for (n, c, i), s in K.syms.items():
            k = ids.get((n, c))
            if k is not None:
                s = ids[(n, s)]
                if syms.setdefault((n, k, i), s) != s:
                    raise PrecubeError("merged cells disagree on swaps")
        for v, name in K.decoration.items():
            k = ids.get((0, v))
            if k is not None and (k not in decoration or name < decoration[k]):
                decoration[k] = name
    return PrecubicalSet(cells, faces, syms, labels, decoration, initial, truncated)


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

    An empty result means every shell has at most one filler.  Only the
    2p boundary cells are compared: for p >= 2 they determine the label
    word, so no separate label comparison is needed.
    """
    out = []
    for n in K.dims():
        if n < 2:
            continue
        groups: dict[tuple, list[int]] = {}
        for c in K.ncells(n):
            groups.setdefault(shell_of(K, n, c).key(), []).append(c)
        for key in sorted(groups):
            dup = groups[key]
            for x, y in combinations(sorted(dup), 2):
                out.append((n, x, y))
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
    """Label-preserving maps K -> L, cells assigned in dimension order.

    With ``vertex_ok``, maps are injective in each dimension and send a
    vertex c only to a vertex d with ``vertex_ok(c, d)``.
    """
    order = [(n, c) for n in K.dims() for c in K.ncells(n)]
    by_dim_label: dict[tuple[int, tuple], list[int]] = {}
    for n in L.dims():
        for d in L.ncells(n):
            by_dim_label.setdefault((n, L.label(n, d)), []).append(d)

    def candidates(var):
        n, c = var
        return by_dim_label.get((n, K.label(n, c)), ())

    def consistent(var, d, assign) -> bool:
        n, c = var
        if n == 0:
            return vertex_ok is None or vertex_ok(c, d)
        for i in range(1, n + 1):
            for alpha in (0, 1):
                if assign[(n - 1, K.face(n, c, i, alpha))] != L.face(n, d, i, alpha):
                    return False
        for i in range(1, n):
            partner = (n, K.sym(n, c, i))
            if partner in assign and assign[partner] != L.sym(n, d, i):
                return False
        return True

    for assign in backtrack(order, candidates, consistent, injective=vertex_ok is not None):
        yield PrecubeMap(K, L, assign)


def hom_enumerate_precube(K: PrecubicalSet, L: PrecubicalSet) -> list[PrecubeMap]:
    """All label-preserving maps K -> L, in a deterministic order."""
    return list(_maps(K, L))


def iso_check_precube(
    K: PrecubicalSet,
    L: PrecubicalSet,
    match_initial: bool = False,
    match_decoration: bool = False,
) -> PrecubeMap | None:
    """A dimensionwise bijective map K -> L commuting with everything."""
    if {n: len(K.ncells(n)) for n in K.dims()} != {n: len(L.ncells(n)) for n in L.dims()}:
        return None
    for n in K.dims():
        if sorted(K.label(n, c) for c in K.ncells(n)) != sorted(L.label(n, d) for d in L.ncells(n)):
            return None

    def vertex_sig(Z: PrecubicalSet):
        sig = {v: [] for v in Z.vertices}
        for e in Z.ncells(1):
            sig[Z.face(1, e, 1, 0)].append(("out", Z.label(1, e)))
            sig[Z.face(1, e, 1, 1)].append(("in", Z.label(1, e)))
        return {v: tuple(sorted(s)) for v, s in sig.items()}

    sig_k, sig_l = vertex_sig(K), vertex_sig(L)
    if sorted(sig_k.values()) != sorted(sig_l.values()):
        return None

    def vertex_ok(c, d) -> bool:
        return (
            sig_k[c] == sig_l[d]
            and not (match_initial and (c == K.initial) != (d == L.initial))
            and not (match_decoration and K.decoration.get(c) != L.decoration.get(d))
        )

    return next(_maps(K, L, vertex_ok), None)
