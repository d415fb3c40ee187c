"""The symmetric cube category, as tables per dimension.

A map [m] -> [n] of the symmetric cube category (generated by face
insertions and coordinate swaps) is determined by a single table: for
every target coordinate, either a constant 0, a constant 1, or a source
coordinate read off by projection, with each source coordinate used
exactly once.  Constants are stored as -inf / +inf so the convention
"coordinate -inf is 0, coordinate +inf is 1" reads off directly.

Every map is a *row* of ``all_encodings(m, n)``, built once and sorted
by table.  ``compose``, faces, swaps and identities return rows by
lookup.  What a row says about the cube is computed once: per pair of
dimensions, the source-to-target coordinates (read by ``word_along``)
and the rows of face and swap precomposites (``face_rows``,
``swap_rows``); per row, the images of vertices and edges
(``vertex_ids``, ``edge_ids``).  The constructor ``CubeEncoding(m, n,
fhat)`` validates its table: rows are built with it, and it is the one
check for encodings built outside the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

NEG = float("-inf")
POS = float("inf")


class NotCubeMapError(ValueError):
    """The vertex table is not a map of the symmetric cube category."""


@dataclass(frozen=True, order=True)
class CubeEncoding:
    """A map [m] -> [n]; ``fhat[j-1]`` tells what target coordinate j reads."""

    m: int
    n: int
    fhat: tuple

    def __post_init__(self):
        fhat = tuple(self.fhat)
        object.__setattr__(self, "fhat", fhat)
        if type(self.m) is not int or type(self.n) is not int or min(self.m, self.n) < 0:
            raise NotCubeMapError("dimensions must be non-negative integers")
        if len(fhat) != self.n:
            raise NotCubeMapError("coordinate table has the wrong length")
        reads = sorted(v for v in fhat if type(v) is int)
        others = self.n - len(reads) - fhat.count(NEG) - fhat.count(POS)
        if others or reads != list(range(1, self.m + 1)):
            raise NotCubeMapError(
                "entries must be constants or source coordinates, each source coordinate read once"
            )
        # computed once: rows are hashed and asked for identity in inner loops
        object.__setattr__(self, "_hash", hash((self.m, self.n, fhat)))
        object.__setattr__(
            self, "is_identity", self.m == self.n and fhat == tuple(range(1, self.n + 1))
        )

    def __hash__(self) -> int:
        return self._hash

    def apply(self, eps: Sequence[int]) -> tuple[int, ...]:
        out = []
        for v in self.fhat:
            if v == NEG:
                out.append(0)
            elif v == POS:
                out.append(1)
            else:
                out.append(eps[v - 1])
        return tuple(out)

    def fbar_inv(self, i: int) -> int:
        """The target coordinate that reads source coordinate ``i``."""
        for j, v in enumerate(self.fhat, 1):
            if v == i:
                return j
        raise KeyError(i)


@lru_cache(maxsize=None)
def all_encodings(m: int, n: int) -> tuple[CubeEncoding, ...]:
    """Every map [m] -> [n], sorted by coordinate table: the rows."""
    if m > n:
        return ()
    tables = []
    for positions in itertools.combinations(range(n), m):
        for perm in itertools.permutations(range(1, m + 1)):
            for signs in itertools.product((NEG, POS), repeat=n - m):
                fhat = list(signs)
                for pos, source in zip(positions, perm):
                    fhat.insert(pos, source)
                tables.append(tuple(fhat))
    return tuple(CubeEncoding(m, n, fhat) for fhat in sorted(tables))


@lru_cache(maxsize=None)
def _table(m: int, n: int) -> tuple:
    """The rows [m] -> [n], the row number of each coordinate table, and
    per row the target index (from 0) that reads each source coordinate."""
    rows = all_encodings(m, n)
    number = {enc.fhat: k for k, enc in enumerate(rows)}
    return rows, number, [[enc.fhat.index(i) for i in range(1, m + 1)] for enc in rows]


def _row(m: int, n: int, fhat: tuple) -> CubeEncoding:
    rows, number, _ = _table(m, n)
    return rows[number[fhat]]


def _reader(first: CubeEncoding):
    """Reads an entry of a table applied after ``first`` as an entry of the composite."""
    return {NEG: NEG, POS: POS, **dict(enumerate(first.fhat, 1))}.__getitem__


def _precomposites(firsts: list, k: int, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per row ``enc`` of [m] -> [n], the row number of ``compose(f, enc)``
    for each f in ``firsts``, all maps [k] -> [m]."""
    number, readers = _table(k, n)[1], [_reader(f) for f in firsts]
    return tuple(
        tuple([number[tuple(map(r, enc.fhat))] for r in readers]) for enc in all_encodings(m, n)
    )


def identity_encoding(n: int) -> CubeEncoding:
    return all_encodings(n, n)[0]  # (1, ..., n) is the least table of a permutation


@lru_cache(maxsize=None, typed=True)
def face_encoding(i: int, alpha: int, n: int) -> CubeEncoding:
    """The face [n-1] -> [n] inserting the constant ``alpha`` at slot ``i``."""
    if type(i) is not int or not 1 <= i <= n:
        raise NotCubeMapError(f"face index {i} out of range for dimension {n}")
    if type(alpha) is not int or alpha not in (0, 1):
        raise NotCubeMapError(f"face constant {alpha!r} is neither 0 nor 1")
    fhat = tuple(range(1, i)) + ((POS if alpha else NEG),) + tuple(range(i, n))
    return _row(n - 1, n, fhat)


@lru_cache(maxsize=None, typed=True)
def sym_encoding(i: int, n: int) -> CubeEncoding:
    """The swap [n] -> [n] of coordinates ``i`` and ``i+1``."""
    if type(i) is not int or not 1 <= i <= n - 1:
        raise NotCubeMapError(f"swap index {i} out of range for dimension {n}")
    return _row(n, n, tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1)))


def compose(first: CubeEncoding, then: CubeEncoding) -> CubeEncoding:
    """Apply ``first`` [m]->[n], then ``then`` [n]->[p]."""
    if first.n != then.m:
        raise NotCubeMapError("dimensions do not chain")
    return _row(first.m, then.n, tuple(map(_reader(first), then.fhat)))


def cube_vertices(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def cube_state_id(eps: Sequence[int]) -> int:
    """Vertex tuple -> state id (first coordinate most significant)."""
    out = 0
    for bit in eps:
        out = (out << 1) | bit
    return out


def cube_state_bits(n: int, state_id: int) -> tuple[int, ...]:
    return tuple((state_id >> (n - 1 - k)) & 1 for k in range(n))


@lru_cache(maxsize=None)
def _images(enc: CubeEncoding, k: int) -> tuple[int, ...]:
    """The row number of ``compose(c, enc)`` for each row c of ``all_encodings(k, m)``."""
    number = _table(k, enc.n)[1]
    return tuple(number[tuple(map(_reader(c), enc.fhat))] for c in all_encodings(k, enc.m))


def vertex_ids(enc: CubeEncoding) -> tuple[int, ...]:
    """The state id in [n] of the image of each vertex of [m], by vertex id."""
    return _images(enc, 0)


def edge_ids(enc: CubeEncoding) -> tuple[int, ...]:
    """The row in ``all_encodings(1, n)`` of the image of each edge of [m],
    by its row in ``all_encodings(1, m)``."""
    return _images(enc, 1)


def word_along(word: Sequence, enc: CubeEncoding) -> tuple:
    """The letters of a word on [n] along ``enc``: letter i is the letter of
    the target coordinate that reads source coordinate i."""
    _, number, directions = _table(enc.m, enc.n)
    return tuple(map(word.__getitem__, directions[number[enc.fhat]]))


@lru_cache(maxsize=None)
def face_rows(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per row ``enc`` of [m] -> [n], the row numbers of the faces
    ``compose(face_encoding(i, alpha, m), enc)``, i = 1..m, alpha = 0, 1."""
    faces = [face_encoding(i, alpha, m) for i in range(1, m + 1) for alpha in (0, 1)]
    return _precomposites(faces, m - 1, m, n)


@lru_cache(maxsize=None)
def swap_rows(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per row ``enc`` of [m] -> [n], the row numbers of the swaps
    ``compose(sym_encoding(i, m), enc)``, i = 1..m-1."""
    return _precomposites([sym_encoding(i, m) for i in range(1, m)], m, m, n)
