"""Canonical encodings of maps between cubes.

A map [m] -> [n] of the symmetric cube category (generated by face
insertions and coordinate swaps) is determined by a single table: for
every target coordinate, either a constant 0, a constant 1, or a source
coordinate read off by projection, with each source coordinate used
exactly once.  Constants are stored as -inf / +inf so the convention
"coordinate -inf is 0, coordinate +inf is 1" reads off directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

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
        object.__setattr__(self, "fhat", tuple(self.fhat))
        if len(self.fhat) != self.n:
            raise NotCubeMapError("coordinate table has the wrong length")
        finite = sorted(v for v in self.fhat if v not in (NEG, POS))
        if finite != list(range(1, self.m + 1)):
            raise NotCubeMapError(
                "projection coordinates must hit each source coordinate exactly once"
            )

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

    @property
    def is_identity(self) -> bool:
        return self.m == self.n and self.fhat == tuple(range(1, self.n + 1))


def identity_encoding(n: int) -> CubeEncoding:
    return CubeEncoding(n, n, tuple(range(1, n + 1)))


@lru_cache(maxsize=None)
def face_encoding(i: int, alpha: int, n: int) -> CubeEncoding:
    """The face [n-1] -> [n] inserting the constant ``alpha`` at slot ``i``."""
    if not 1 <= i <= n:
        raise NotCubeMapError(f"face index {i} out of range for dimension {n}")
    fhat = []
    for j in range(1, n + 1):
        if j < i:
            fhat.append(j)
        elif j == i:
            fhat.append(NEG if alpha == 0 else POS)
        else:
            fhat.append(j - 1)
    return CubeEncoding(n - 1, n, tuple(fhat))


@lru_cache(maxsize=None)
def sym_encoding(i: int, n: int) -> CubeEncoding:
    """The swap [n] -> [n] of coordinates ``i`` and ``i+1``."""
    if not 1 <= i <= n - 1:
        raise NotCubeMapError(f"swap index {i} out of range for dimension {n}")
    fhat = list(range(1, n + 1))
    fhat[i - 1], fhat[i] = fhat[i], fhat[i - 1]
    return CubeEncoding(n, n, tuple(fhat))


def compose(first: CubeEncoding, then: CubeEncoding) -> CubeEncoding:
    """Apply ``first`` [m]->[n], then ``then`` [n]->[p]."""
    if first.n != then.m:
        raise NotCubeMapError("dimensions do not chain")
    fhat = []
    for v in then.fhat:
        if v in (NEG, POS):
            fhat.append(v)
        else:
            fhat.append(first.fhat[v - 1])
    return CubeEncoding(first.m, then.n, tuple(fhat))


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
def vertex_ids(enc: CubeEncoding) -> tuple[int, ...]:
    """The state id in [n] of the image of each vertex of [m], by vertex id."""
    return tuple(cube_state_id(enc.apply(eps)) for eps in cube_vertices(enc.m))


def distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Hamming distance between two vertices of the same cube."""
    if len(u) != len(v):
        raise ValueError("vertices of different cubes")
    return sum(abs(a - b) for a, b in zip(u, v))


def encode_poset_map(m: int, n: int, vertex_map: Mapping[tuple, tuple]) -> CubeEncoding:
    """Recover the unique encoding from an explicit vertex table.

    Each target coordinate must be constant 0, constant 1, or the
    projection onto one source coordinate, with every source coordinate
    projected exactly once; anything else is rejected with the first
    offending coordinate named.
    """
    verts = cube_vertices(m)
    for eps in verts:
        if eps not in vertex_map:
            raise NotCubeMapError(f"vertex table misses {eps}")
        if len(vertex_map[eps]) != n:
            raise NotCubeMapError(f"image of {eps} has the wrong dimension")
    fhat = []
    used = []
    for j in range(1, n + 1):
        column = [vertex_map[eps][j - 1] for eps in verts]
        if all(v == 0 for v in column):
            fhat.append(NEG)
            continue
        if all(v == 1 for v in column):
            fhat.append(POS)
            continue
        hit = [
            k
            for k in range(1, m + 1)
            if all(vertex_map[eps][j - 1] == eps[k - 1] for eps in verts)
        ]
        if not hit:
            raise NotCubeMapError(
                f"target coordinate {j} is neither constant nor a projection"
            )
        fhat.append(hit[0])
        used.append(hit[0])
    if sorted(used) != list(range(1, m + 1)):
        raise NotCubeMapError(
            "projections do not use each source coordinate exactly once"
        )
    return CubeEncoding(m, n, tuple(fhat))


@lru_cache(maxsize=None)
def all_encodings(m: int, n: int) -> tuple[CubeEncoding, ...]:
    """Every map [m] -> [n], sorted by coordinate table."""
    if m > n:
        return ()
    out = []
    for positions in itertools.combinations(range(1, n + 1), m):
        for perm in itertools.permutations(range(1, m + 1)):
            for signs in itertools.product((NEG, POS), repeat=n - m):
                fhat = [None] * n
                for pos, source in zip(positions, perm):
                    fhat[pos - 1] = source
                it = iter(signs)
                for j in range(n):
                    if fhat[j] is None:
                        fhat[j] = next(it)
                out.append(CubeEncoding(m, n, tuple(fhat)))
    return tuple(sorted(out))
