"""Shared generators and independent oracles for the test-suite.

The oracles here recompute expected values by brute force, separately
from the library's algorithms: the closure oracle rescans every rule
instance naively, the hom-key oracle enumerates every raw assignment,
the axiom oracle scans once per axiom, the cubification oracle
composes a morphism between cube systems for every face and swap, the
cube oracles build and validate one encoding per composite, the gluing
oracles merge union-find classes cell by cell and rebuild and recheck
each compiled set whole, the scope oracle parses a term by the grammar
alone and then walks it for free and unguarded variables, the
sort-ordered morphism searches assign every variable of one sort before
the next and prune only by what is assigned, the realization oracle
walks every cell down to its corners and direction edges face by face,
and the random closed systems are closed by the library only as a final step
(they are not valid inputs otherwise).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Mapping

from hdts import (
    Action,
    HdtsMorphism,
    Transition,
    WeakHDTS,
    coherence_closure,
    colimit,
    cube,
    transition,
)
from hdts.alphabet import DEFAULT_ALPHABET
from hdts.ccs import _KEYWORDS, Nil, Par, Prefix, Rec, Restrict, Sum, Var, _Parser
from hdts.core import (
    StructureError,
    check_morphism,
    compose_morphisms,
    cube_state_id,
    multiset_diff,
    proper_submultisets,
)
from hdts.encoding import (
    NEG,
    POS,
    CubeEncoding,
    NotCubeMapError,
    all_encodings,
    cube_vertices,
    face_encoding,
    sym_encoding,
)
from hdts.precube import (
    PrecubeError,
    PrecubeMap,
    PrecubicalSet,
    check_precube_map,
    make_precube,
)
from hdts.realize import Cubification, Realization, edge_action_classes, realize, realize_cube_map
from hdts.search import backtrack
from hdts.unionfind import UnionFind

ALPHA = DEFAULT_ALPHABET


def _is_submultiset(part, whole):
    cp, cw = Counter(part), Counter(whole)
    return all(cw[k] >= v for k, v in cp.items())


def _mdiff(whole, part):
    c = Counter(whole)
    c.subtract(Counter(part))
    return tuple(sorted(c.elements()))


def brute_closure(transitions):
    """Naive fixpoint: rescan every decomposition of every transition."""
    trans = set(transitions)
    changed = True
    while changed:
        changed = False
        for t in list(trans):
            if t.arity < 3:
                continue
            for t1 in [x for x in trans if x.src == t.src]:
                if not _is_submultiset(t1.acts, t.acts) or t1.arity >= t.arity:
                    continue
                if Transition(t1.tgt, _mdiff(t.acts, t1.acts), t.tgt) not in trans:
                    continue
                for t3 in [x for x in trans if x.src == t.src]:
                    if t3.arity <= t1.arity or t3.arity >= t.arity:
                        continue
                    if not _is_submultiset(t1.acts, t3.acts):
                        continue
                    if not _is_submultiset(t3.acts, t.acts):
                        continue
                    if Transition(t3.tgt, _mdiff(t.acts, t3.acts), t.tgt) not in trans:
                        continue
                    mid = Transition(t1.tgt, _mdiff(t3.acts, t1.acts), t3.tgt)
                    if mid not in trans:
                        trans.add(mid)
                        changed = True
    return frozenset(trans)


def brute_hom_keys(src: WeakHDTS, dst: WeakHDTS) -> list:
    """Sorted keys of every morphism, found by trying each raw
    label-preserving assignment of actions and each raw assignment of
    states."""
    src_states = sorted(src.states)
    src_actions = sorted(src.action_ids)
    dst_lab = dst.label_map()
    action_choices = [
        [b for b in sorted(dst_lab) if dst_lab[b] == src.label(a)] for a in src_actions
    ]
    keys = []
    for avals in itertools.product(*action_choices):
        amap = dict(zip(src_actions, avals))
        for svals in itertools.product(sorted(dst.states), repeat=len(src_states)):
            smap = dict(zip(src_states, svals))
            if all(
                transition(smap[t.src], (amap[a] for a in t.acts), smap[t.tgt])
                in dst.transitions
                for t in src.transitions
            ):
                keys.append(HdtsMorphism(src, dst, smap, amap).key())
    return sorted(keys)


def random_weak_hdts(seed: int, max_states: int = 6, max_arity: int = 3) -> WeakHDTS:
    """A random coherence-closed system over the labels a, b."""
    rng = random.Random(seed)
    n_states = rng.randint(1, max_states)
    states = frozenset(range(n_states))
    n_actions = rng.randint(1, 4)
    actions = tuple(Action(i, rng.choice(("a", "b"))) for i in range(n_actions))
    ids = [a.id for a in actions]
    trans = set()
    for _ in range(rng.randint(0, 8)):
        trans.add(
            transition(rng.randrange(n_states), [rng.choice(ids)], rng.randrange(n_states))
        )
    for _ in range(rng.randint(0, 4)):
        arity = rng.randint(2, max_arity)
        trans.add(
            transition(
                rng.randrange(n_states),
                [rng.choice(ids) for _ in range(arity)],
                rng.randrange(n_states),
            )
        )
    return WeakHDTS(states, actions, coherence_closure(trans))


def random_cube_gluing(seed: int) -> WeakHDTS:
    """A wedge of small cubes: always an honest system with <= 6 states.

    One cube of dimension <= 2 plus up to two extra edges, all glued at
    one shared vertex: at most 4 + 2 + 2 - 2 = 6 states.
    """
    rng = random.Random(seed)
    words = [tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 2)))]
    for _ in range(rng.randint(0, 2)):
        words.append((rng.choice(("a", "b")),))
    objects = [cube(w) for w in words]
    point = cube(())
    arrows = []
    for i, ob in enumerate(objects):
        anchor = rng.choice(sorted(ob.states))
        arrows.append((len(objects), i, HdtsMorphism(point, ob, {0: anchor}, {})))
    system = colimit(objects + [point], arrows).system
    assert len(system.states) <= 6
    return system


def random_mixed_corpus(count: int = 50):
    """Half random closed systems, half cube gluings (which satisfy UISA)."""
    out = []
    for seed in range(count):
        if seed % 2 == 0:
            out.append(random_weak_hdts(seed))
        else:
            out.append(random_cube_gluing(seed))
    return out


def random_failing_hdts(seed: int) -> WeakHDTS:
    """An unclosed system that usually fails some axiom.

    The transitions of a cube of dimension 2 or 3 with some states
    merged, some transitions dropped and a few random ones added, so
    that every axiom has near misses to report.
    """
    rng = random.Random(seed)
    n = rng.choice((2, 3, 3))
    base = cube(tuple(rng.choice(("a", "b")) for _ in range(n)))
    k = rng.randint(max(2, 2**n - 6), 2**n)
    merge = {s: s if s < k else rng.randrange(k) for s in base.states}
    trans = {
        transition(merge[t.src], t.acts, merge[t.tgt])
        for t in base.transitions
        if rng.random() > 0.1
    }
    ids = list(base.action_ids)
    for _ in range(rng.randint(0, 4)):
        acts = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        trans.add(transition(rng.randrange(k), acts, rng.randrange(k)))
    return WeakHDTS(frozenset(range(k)), base.actions, frozenset(trans))


def sparse_top_hdts(seed: int) -> WeakHDTS:
    """One transition of arity 7 or 8 from state 0 to state 1, over a
    multiset with repeated ids, and a few partial chains through it.

    Each chain cuts a shuffled copy of the multiset into parts A, B, C
    and adds some of (0, A, n1), (n1, B, n2), (n2, C, 1), (0, A+B, n2)
    and (n1, B+C, 1), so that most splits of the top transition have no
    intermediate state while some A and some A+B have one or more.  A
    chain may keep the cut of the chain before it, or its order cut
    elsewhere so that the parts of the two nest, and may run through the
    states of an earlier chain; a few random transitions over
    sub-multisets are added on top.
    """
    rng = random.Random(seed)
    n = rng.choice((7, 8))
    acts = sorted(rng.randint(1, n - 2) for _ in range(n))
    trans = {transition(0, acts, 1)}
    states = [0, 1]
    word, cut = rng.sample(acts, n), sorted(rng.sample(range(1, n), 2))
    for _ in range(rng.randint(3, 5)):
        draw = rng.random()  # keep the cut before, or its order cut elsewhere, or neither
        if draw >= 0.4:
            cut = sorted(rng.sample(range(1, n), 2))
        if draw >= 0.7:
            word = rng.sample(acts, n)
        a_part, b_part, c_part = word[:cut[0]], word[cut[0]:cut[1]], word[cut[1]:]
        n1, n2 = len(states), len(states) + 1
        if len(states) > 2:  # either may be a state of an earlier chain
            n1, n2 = (rng.choice(states[2:]) if rng.random() < 0.3 else nu for nu in (n1, n2))
        states += sorted({n1, n2} - set(states))
        for src, part, tgt in [(0, a_part, n1), (n1, b_part, n2), (n2, c_part, 1),
                               (0, a_part + b_part, n2), (n1, b_part + c_part, 1)]:
            if src != tgt and rng.random() < 0.8:
                trans.add(transition(src, part, tgt))
    for _ in range(rng.randint(1, 3)):
        part = rng.sample(acts, rng.randint(1, n - 1))
        trans.add(transition(rng.choice(states), part, rng.choice(states)))
    actions = tuple(Action(i, rng.choice("ab")) for i in range(1, n - 1))
    return WeakHDTS(frozenset(states), actions, frozenset(trans))


def random_wedge_diagram(seed: int):
    """Standard cubes and a point, with an arrow from the point to one
    vertex of each cube: (objects, arrows) for ``colimit_presheaf``."""
    from hdts import standard_cube

    rng = random.Random(seed)
    words = [
        tuple(rng.choice(("a", "b")) for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 3))
    ]
    cubes = [standard_cube(w) for w in words]
    point = make_precube({0: (0,)}, {}, {}, {})
    arrows = []
    for i, K in enumerate(cubes):
        anchor = rng.choice(K.vertices)
        arrows.append((len(cubes), i, PrecubeMap(point, K, {(0, 0): anchor})))
    return cubes + [point], arrows


def random_precube_wedge(seed: int):
    """A wedge of standard cubes glued at one shared vertex."""
    from hdts import colimit_presheaf

    return colimit_presheaf(*random_wedge_diagram(seed))[0]


# ---------------------------------------------------------------------------
# one scan per axiom (oracle for the shared split scan of hdts.core.validate)


class _ScanIndex:
    def __init__(self, transitions):
        self.targets = defaultdict(set)
        for t in transitions:
            self.targets[(t.src, t.acts)].add(t.tgt)

    def has(self, src, acts, tgt):
        return tgt in self.targets.get((src, acts), ())

    def intermediates(self, src, first, second, tgt):
        return sorted(
            nu
            for nu in self.targets.get((src, first), ())
            if tgt in self.targets.get((nu, second), ())
        )


def _scan_coherence(order, idx):
    for t in order:
        if t.arity < 3:
            continue
        for e_part in proper_submultisets(t.acts):
            n2s = idx.intermediates(t.src, e_part, multiset_diff(t.acts, e_part), t.tgt)
            if not n2s:
                continue
            for a_part in proper_submultisets(e_part):
                n1s = idx.intermediates(t.src, a_part, multiset_diff(t.acts, a_part), t.tgt)
                b_part = multiset_diff(e_part, a_part)
                for n1 in n1s:
                    for n2 in n2s:
                        if not idx.has(n1, b_part, n2):
                            return {
                                "transition": t.as_tuple(),
                                "missing": Transition(n1, b_part, n2).as_tuple(),
                                "left": list(a_part),
                                "mid": list(b_part),
                                "right": list(multiset_diff(t.acts, e_part)),
                            }
    return None


def _scan_csa1(order, labels):
    seen = {}
    for t in order:
        if t.arity != 1:
            continue
        key = (t.src, t.tgt, labels[t.acts[0]])
        prev = seen.get(key)
        if prev is not None and prev.acts != t.acts:
            return {"first": prev.as_tuple(), "second": t.as_tuple()}
        seen.setdefault(key, t)
    return None


def _scan_splits(order, idx, need_unique):
    for t in order:
        if t.arity < 2:
            continue
        for part in proper_submultisets(t.acts):
            rest = multiset_diff(t.acts, part)
            mids = idx.intermediates(t.src, part, rest, t.tgt)
            bad = (len(mids) != 1) if need_unique else (len(mids) == 0)
            if bad:
                return {"transition": t.as_tuple(), "split": list(part), "intermediates": mids}
    return None


def _scan_csa2(order, idx):
    for t in order:
        if t.arity < 2:
            continue
        for part in proper_submultisets(t.acts):
            rest = multiset_diff(t.acts, part)
            forward = idx.intermediates(t.src, part, rest, t.tgt)
            reverse = idx.intermediates(t.src, rest, part, t.tgt)
            if len(forward) != 1 or len(reverse) != 1:
                return {
                    "transition": t.as_tuple(),
                    "split": list(part),
                    "forward_intermediates": forward,
                    "reverse_intermediates": reverse,
                }
    return None


def _scan_csa3(order, idx):
    for t in order:
        if t.arity < 3:
            continue
        for a_part in proper_submultisets(t.acts):
            rest = multiset_diff(t.acts, a_part)
            n1s = idx.intermediates(t.src, a_part, rest, t.tgt)
            if not n1s:
                continue
            for b_part in proper_submultisets(rest):
                c_part = multiset_diff(rest, b_part)
                ab_part = tuple(sorted(a_part + b_part))
                n2ps = idx.intermediates(t.src, ab_part, c_part, t.tgt)
                if not n2ps:
                    continue
                for n1 in n1s:
                    n2s = [
                        n2
                        for n2 in sorted(idx.targets.get((n1, b_part), ()))
                        if idx.has(n2, c_part, t.tgt)
                    ]
                    for n2 in n2s:
                        for n2p in n2ps:
                            n1ps = [
                                nu
                                for nu in sorted(idx.targets.get((t.src, a_part), ()))
                                if idx.has(nu, b_part, n2p)
                            ]
                            for n1p in n1ps:
                                if n1 != n1p or n2 != n2p:
                                    return {
                                        "transition": t.as_tuple(),
                                        "parts": [list(a_part), list(b_part), list(c_part)],
                                        "nu1": n1,
                                        "nu1_prime": n1p,
                                        "nu2": n2,
                                        "nu2_prime": n2p,
                                    }
    return None


def scan_validate(X: WeakHDTS) -> dict:
    """``validate(X).as_dict()`` from one separate scan per axiom, each
    stopping at its least witness in (arity, src, acts, tgt) order."""
    order = sorted(X.transitions, key=lambda t: (t.arity, t.src, t.acts, t.tgt))
    idx = _ScanIndex(order)
    found = {
        "coherence": _scan_coherence(order, idx),
        "csa1": _scan_csa1(order, X.label_map()),
        "uisa": _scan_splits(order, idx, need_unique=True),
        "csa2": _scan_csa2(order, idx),
        "intermediate": _scan_splits(order, idx, need_unique=False),
        "csa3": _scan_csa3(order, idx),
    }
    report = {
        "coherence_closed" if name == "coherence" else name: w is None
        for name, w in found.items()
    }
    report["witnesses"] = {name: w for name, w in found.items() if w is not None}
    return report


#: Process terms exercising sums, nested parallels, restriction and
#: bounded recursion; all are expected to realize to honest systems.
CCS_CORPUS = [
    "a.nil",
    "a.b.nil",
    "tau.a.nil",
    "a.nil + b.nil",
    "a.(b.nil + c.nil)",
    "a.nil || b.nil",
    "a.nil || abar.nil",
    "(nu a)(a.nil || abar.nil)",
    "a.b.nil || abar.nil",
    "(a.nil + b.nil) || abar.nil",
    "a.nil || (b.nil || bbar.nil)",
    "(a.nil || abar.nil) || b.nil",
    "(a.nil || abar.nil) || (b.nil || bbar.nil)",
    "(nu b)(a.b.nil || bbar.c.nil)",
    "rec(x) a.x",
    "rec(x) a.nil + b.nil",
]


# ---------------------------------------------------------------------------
# cube vertices (no caller in hdts)


def distance(u, v) -> int:
    """Hamming distance between two vertices of the same cube."""
    if len(u) != len(v):
        raise ValueError("vertices of different cubes")
    return sum(abs(a - b) for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# helpers on cube maps, shells, systems and morphisms (no caller in hdts)


def encode_poset_map(m: int, n: int, vertex_map) -> CubeEncoding:
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


@dataclass(frozen=True)
class Shell:
    """A compatible boundary assignment for a would-be cube of dimension p."""

    p: int
    faces: Mapping[tuple[int, int], int]

    def key(self):
        return tuple(sorted(self.faces.items()))


def shell_of(K: PrecubicalSet, n: int, cell: int) -> Shell:
    return Shell(n, {(i, a): K.face(n, cell, i, a) for i in range(1, n + 1) for a in (0, 1)})


def keyed_tables(K: PrecubicalSet) -> tuple[dict, dict, dict]:
    """``K``'s rows as the keyed tables ``make_precube`` reads: faces by
    ``(n, c, i, alpha)``, swaps by ``(n, c, i)``, words by ``(n, c)``."""
    faces = {
        (n, c, j // 2 + 1, j % 2): f
        for n, rows in K.faces.items() for c, row in rows.items() for j, f in enumerate(row)
    }
    syms = {
        (n, c, i): s
        for n, rows in K.syms.items() for c, row in rows.items() for i, s in enumerate(row, 1)
    }
    labels = {(n, c): w for n, rows in K.labels.items() if n for c, w in rows.items()}
    return faces, syms, labels


def shell_word(shell: Shell, K) -> tuple[str, ...]:
    """The label word a shell induces (determined by faces for p >= 2)."""
    if shell.p < 2:
        raise PrecubeError("shells of dimension < 2 do not determine a word")
    rest = K.label(shell.p - 1, shell.faces[(1, 0)])
    first = K.label(shell.p - 1, shell.faces[(2, 0)])[0]
    return (first,) + rest


def check_shell(K, shell: Shell) -> None:
    """Raise unless the assigned faces glue like the boundary of a cube."""
    p = shell.p
    for i in range(1, p + 1):
        for alpha in (0, 1):
            if shell.faces.get((i, alpha)) not in K.ncells(p - 1):
                raise PrecubeError(f"shell misses face ({i},{alpha})")
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            for alpha in (0, 1):
                for beta in (0, 1):
                    left = K.face(p - 1, shell.faces[(j, beta)], i, alpha)
                    right = K.face(p - 1, shell.faces[(i, alpha)], j - 1, beta)
                    if left != right:
                        raise PrecubeError(
                            f"shell faces ({i},{alpha}) and ({j},{beta}) do not glue"
                        )


def used_actions(X: WeakHDTS) -> frozenset[int]:
    """Actions appearing in some one-step transition."""
    return frozenset(t.acts[0] for t in X.transitions if t.arity == 1)


def morphism_is_iso(f: HdtsMorphism) -> bool:
    if len(set(f.state_map.values())) != len(f.dst.states):
        return False
    if len(set(f.action_map.values())) != len(f.dst.actions):
        return False
    image = {f.map_transition(t) for t in f.src.transitions}
    return image == set(f.dst.transitions)


# ---------------------------------------------------------------------------
# helpers on synchronized products (no caller in hdts)


def sync_edges(K, cfg) -> list[int]:
    """Edges of ``K`` labelled with the silent label."""
    return [e for e in K.ncells(1) if K.label(1, e) == (cfg.tau,)]


def non_twisted(n: int, p: int, vertex_map) -> bool:
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


# ---------------------------------------------------------------------------
# word-keyed tensor product (oracle for the shape-keyed caches of hdts.sync)


def _word_pair_entry(word_k, word_l, cfg):
    """Fibered product and coskeleton of two cube skeletons, built over
    the label words themselves."""
    from hdts import standard_cube, truncate
    from hdts.sync import _cosk, _fibered

    fib = _fibered(truncate(standard_cube(word_k), 1), truncate(standard_cube(word_l), 1), cfg)
    kbits = [enc.apply(()) for enc in all_encodings(0, len(word_k))]
    lbits = [enc.apply(()) for enc in all_encodings(0, len(word_l))]
    iso = {vid: kbits[kv] + lbits[lv] for (kv, lv), vid in fib.vertex_id.items()}
    return fib, _cosk(fib.precube, iso)


def _word_pair_map(src, dst, enc_k, enc_l):
    """Cell map between word-keyed entries, recomputed on every call."""
    from hdts.encoding import compose

    (src_fib, src_cosk), (dst_fib, dst_cosk) = src, dst
    mk = enc_k.m
    kv_bits = [enc.apply(()) for enc in all_encodings(0, mk)]
    lv_bits = [enc.apply(()) for enc in all_encodings(0, enc_l.m)]
    k_eenc, l_eenc = all_encodings(1, mk), all_encodings(1, enc_l.m)
    kv_id2 = {enc.apply(()): k for k, enc in enumerate(all_encodings(0, enc_k.n))}
    lv_id2 = {enc.apply(()): k for k, enc in enumerate(all_encodings(0, enc_l.n))}
    ke_id2 = {enc: k for k, enc in enumerate(all_encodings(1, enc_k.n))}
    le_id2 = {enc: k for k, enc in enumerate(all_encodings(1, enc_l.n))}

    def kvert(v):
        return kv_id2[enc_k.apply(kv_bits[v])]

    def lvert(v):
        return lv_id2[enc_l.apply(lv_bits[v])]

    def edge(tag):
        kind, x, y = tag
        if kind == "k":
            return dst_fib.edge_id[("k", ke_id2[compose(k_eenc[x], enc_k)], lvert(y))]
        if kind == "l":
            return dst_fib.edge_id[("l", kvert(x), le_id2[compose(l_eenc[y], enc_l)])]
        return dst_fib.edge_id[
            ("s", ke_id2[compose(k_eenc[x], enc_k)], le_id2[compose(l_eenc[y], enc_l)])
        ]

    cell_map = {}
    pc = src_cosk.precube
    for v in pc.vertices:
        kv, lv = src_fib.vertex_pair[v]
        cell_map[(0, v)] = dst_fib.vertex_id[(kvert(kv), lvert(lv))]
    for e in pc.ncells(1):
        cell_map[(1, e)] = edge(src_fib.edge_tag[e])
    for n in pc.dims():
        for c in pc.ncells(n) if n >= 2 else ():
            vkey, edges = src_cosk.contents[(n, c)]
            vkey2 = tuple(enc_k.apply(b[:mk]) + enc_l.apply(b[mk:]) for b in vkey)
            edges2 = tuple(edge(src_fib.edge_tag[e]) for e in edges)
            cell_map[(n, c)] = dst_cosk.index[(n, (vkey2, edges2))]
    return cell_map


def word_keyed_tensor_sync(K, L, cfg):
    """``tensor_sync`` with one pair entry per label-word pair and one
    pair map computed per arrow, as the shape-keyed version must match."""
    from hdts.precube import EMPTY_PRECUBE
    from hdts.encoding import face_encoding, identity_encoding, sym_encoding

    if not K.vertices or not L.vertices:
        return EMPTY_PRECUBE
    pairs = [
        ((m, c), (n, d))
        for m in K.dims() for c in K.ncells(m)
        for n in L.dims() for d in L.ncells(n)
    ]
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    entries = {}
    for ko, lo in pairs:
        words = (K.label(*ko), L.label(*lo))
        if words not in entries:
            entries[words] = _word_pair_entry(*words, cfg)

    def entry(pair):
        ko, lo = pair
        return entries[(K.label(*ko), L.label(*lo))]

    arrows = []
    for pi, ((mk, ck), (ml, cl)) in enumerate(pairs):
        dst = entry(pairs[pi])
        ko, lo = pairs[pi]
        sources = []
        for i in range(1, mk + 1):
            for alpha in (0, 1):
                sources.append((((mk - 1, K.face(mk, ck, i, alpha)), lo),
                                face_encoding(i, alpha, mk), identity_encoding(ml)))
        for i in range(1, mk):
            sources.append((((mk, K.sym(mk, ck, i)), lo),
                            sym_encoding(i, mk), identity_encoding(ml)))
        for i in range(1, ml + 1):
            for alpha in (0, 1):
                sources.append(((ko, (ml - 1, L.face(ml, cl, i, alpha))),
                                identity_encoding(mk), face_encoding(i, alpha, ml)))
        for i in range(1, ml):
            sources.append(((ko, (ml, L.sym(ml, cl, i))),
                            identity_encoding(mk), sym_encoding(i, ml)))
        for src_pair, enc_k, enc_l in sources:
            src = entry(src_pair)
            cmap = _word_pair_map(src, dst, enc_k, enc_l)
            arrows.append((pair_index[src_pair], pi,
                           PrecubeMap(src[1].precube, dst[1].precube, cmap)))
    objects = [entry(pair)[1].precube for pair in pairs]
    out, cocones = merging_colimit_presheaf(objects, arrows)

    def pair_vertex(u, v):
        return cocones[pair_index[((0, u), (0, v))]].cell_map[(0, 0)]

    decoration = {
        pair_vertex(u, v): f"{K.decoration[u]} || {L.decoration[v]}"
        for u in K.vertices if u in K.decoration
        for v in L.vertices if v in L.decoration
    }
    initial = None
    if K.initial is not None and L.initial is not None:
        initial = pair_vertex(K.initial, L.initial)
    return replace(out, decoration=decoration, initial=initial,
                   truncated=K.truncated or L.truncated or out.truncated)


def random_sync_term(seed: int) -> str:
    """A small closed term with 2 or 3 parallel components over a, b,
    their partners and tau: repeated letters, silent prefixes, both
    partners in one component, sums and restrictions all occur."""
    rng = random.Random(seed)
    letters = ("a", "abar", "b", "bbar", "tau")

    def chain():
        return ".".join(rng.choice(letters) for _ in range(rng.randint(1, 2))) + ".nil"

    def component():
        body = chain() if rng.random() < 0.8 else f"({chain()} + {chain()})"
        return f"(nu {rng.choice('ab')})({body})" if rng.random() < 0.2 else body

    term = " || ".join(component() for _ in range(rng.choice((2, 2, 3))))
    return f"(nu {rng.choice('ab')})({term})" if rng.random() < 0.3 else term


#: 200 seeds give 196 distinct terms; repeats are dropped so that test ids stay unique
RANDOM_SYNC_TERMS = list(dict.fromkeys(random_sync_term(s) for s in range(200)))


# ---------------------------------------------------------------------------
# gluing through union-find classes, and compile steps that rebuild and
# recheck the whole set (oracles for hdts.precube.glue, for the colimit and
# quotient built on it, and for the prefix, sum and restriction of hdts.ccs)


def _merge_classes(tagged_cells, face_of, sym_of, label_of, decoration_of, uf):
    """Shared quotient construction over tagged cells.

    ``tagged_cells``: dict dim -> sorted list of tags.  The accessors
    take a tag and either return a tag (faces/syms), a word, or a
    decoration (None allowed).  Returns (PrecubicalSet, tag -> new id).
    """
    new_id: dict = {}
    cells = {}
    for n in sorted(tagged_cells):
        groups = {}
        for tag in tagged_cells[n]:
            root = uf.find((n, tag))
            groups.setdefault(root, []).append(tag)
        ordered = sorted(groups.values(), key=lambda g: g[0])
        cells[n] = tuple(range(len(ordered)))
        for k, members in enumerate(ordered):
            for tag in members:
                new_id[(n, tag)] = k
        tagged_cells[n] = ordered  # keep member lists for the second pass
    faces, syms, labels, decoration = {}, {}, {}, {}
    for n in sorted(tagged_cells):
        for k, members in enumerate(tagged_cells[n]):
            words = {label_of(n, tag) for tag in members}
            if len(words) != 1:
                raise PrecubeError("merged cells disagree on labels")
            if n >= 1:
                labels[(n, k)] = words.pop()
            if n == 0:
                names = sorted(
                    d for d in (decoration_of(tag) for tag in members) if d is not None
                )
                if names:
                    decoration[k] = names[0]
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    vals = {new_id[(n - 1, face_of(n, tag, i, alpha))] for tag in members}
                    if len(vals) != 1:
                        raise PrecubeError("merged cells disagree on faces")
                    faces[(n, k, i, alpha)] = vals.pop()
            for i in range(1, n):
                vals = {new_id[(n, sym_of(n, tag, i))] for tag in members}
                if len(vals) != 1:
                    raise PrecubeError("merged cells disagree on swaps")
                syms[(n, k, i)] = vals.pop()
    out = make_precube(cells, faces, syms, labels, decoration)
    return out, new_id


def merging_colimit_presheaf(objects, arrows=()):
    """``colimit_presheaf`` through ``_merge_classes``."""
    objects = list(objects)
    for si, ti, f in arrows:
        if f.src is not objects[si] and f.src != objects[si]:
            raise PrecubeError("arrow source does not match the diagram")
        if f.dst is not objects[ti] and f.dst != objects[ti]:
            raise PrecubeError("arrow target does not match the diagram")
        check_precube_map(f)

    tagged = {}
    uf = UnionFind()
    for oi, K in enumerate(objects):
        for n in K.dims():
            tagged.setdefault(n, [])
            for c in K.ncells(n):
                tagged[n].append((oi, c))
                uf.add((n, (oi, c)))
    for n in tagged:
        tagged[n].sort()
    for si, ti, f in arrows:
        for (n, c), d in f.cell_map.items():
            uf.union((n, (si, c)), (n, (ti, d)))

    def face_of(n, tag, i, alpha):
        oi, c = tag
        return (oi, objects[oi].face(n, c, i, alpha))

    def sym_of(n, tag, i):
        oi, c = tag
        return (oi, objects[oi].sym(n, c, i))

    def label_of(n, tag):
        oi, c = tag
        return objects[oi].label(n, c)

    def decoration_of(tag):
        oi, c = tag
        return objects[oi].decoration.get(c)

    out, new_id = _merge_classes(tagged, face_of, sym_of, label_of, decoration_of, uf)
    if any(K.truncated for K in objects):
        out = replace(out, truncated=True)
    cocones = [
        PrecubeMap(
            K, out, {(n, c): new_id[(n, (oi, c))] for n in K.dims() for c in K.ncells(n)}
        )
        for oi, K in enumerate(objects)
    ]
    return out, cocones


def _merging_quotient(K, uf):
    tagged = {n: list(K.ncells(n)) for n in K.dims()}
    out, new_id = _merge_classes(
        tagged,
        lambda n, c, i, a: K.face(n, c, i, a),
        lambda n, c, i: K.sym(n, c, i),
        lambda n, c: K.label(n, c),
        lambda c: K.decoration.get(c),
        uf,
    )
    initial = None if K.initial is None else new_id[(0, K.initial)]
    out = replace(out, initial=initial, truncated=K.truncated)
    qmap = PrecubeMap(K, out, {(n, c): new_id[(n, c)] for n in K.dims() for c in K.ncells(n)})
    return out, qmap


def _point(decoration):
    return make_precube({0: (0,)}, {}, {}, {}, {0: decoration}, initial=0)


def checked_graft_prefix(label, sub, decoration):
    """One fresh edge in front of ``sub``'s initial vertex, the whole set
    rebuilt and checked by ``make_precube``."""
    cells = {
        0: (0,) + tuple(v + 1 for v in sub.vertices),
        1: (0,) + tuple(e + 1 for e in sub.ncells(1)),
    }
    for n in sub.dims():
        if n >= 2:
            cells[n] = sub.ncells(n)
    faces = {(1, 0, 1, 0): 0, (1, 0, 1, 1): sub.initial + 1}
    labels = {(1, 0): (label,)}
    sub_faces, syms, sub_labels = keyed_tables(sub)
    for (n, c, i, alpha), v in sub_faces.items():
        faces[(n, c + 1 if n == 1 else c, i, alpha)] = v + 1 if n <= 2 else v
    for (n, c), w in sub_labels.items():
        labels[(n, c + 1 if n == 1 else c)] = w
    decorations = {0: decoration}
    for v, d in sub.decoration.items():
        decorations[v + 1] = d
    return make_precube(
        cells, faces, syms, labels, decorations, initial=0, truncated=sub.truncated
    )


def colimit_wedge(left, right, decoration):
    """The sum of two sets as the colimit of ``left <- point -> right``."""
    point = _point(decoration)
    arrows = [
        (2, 0, PrecubeMap(point, left, {(0, 0): left.initial})),
        (2, 1, PrecubeMap(point, right, {(0, 0): right.initial})),
    ]
    out, cocones = merging_colimit_presheaf([left, right, point], arrows)
    initial = cocones[2].cell_map[(0, 0)]
    decorations = dict(out.decoration)
    decorations[initial] = decoration
    return replace(out, decoration=decorations, initial=initial)


def checked_filter_labels(sub, banned):
    """The restriction of ``sub``, rebuilt and checked by ``make_precube``."""
    keep: dict[int, list[int]] = {}
    for n in sub.dims():
        keep[n] = [c for c in sub.ncells(n) if not (set(sub.label(n, c)) & banned)]
    renum = {
        (n, c): k for n in keep for k, c in enumerate(keep[n])
    }
    cells = {n: tuple(range(len(keep[n]))) for n in keep}
    sub_faces, sub_syms, sub_labels = keyed_tables(sub)
    faces = {
        (n, renum[(n, c)], i, a): renum[(n - 1, v)]
        for (n, c, i, a), v in sub_faces.items()
        if (n, c) in renum
    }
    syms = {
        (n, renum[(n, c)], i): renum[(n, v)]
        for (n, c, i), v in sub_syms.items()
        if (n, c) in renum
    }
    labels = {
        (n, renum[(n, c)]): w for (n, c), w in sub_labels.items() if (n, c) in renum
    }
    decoration = {renum[(0, v)]: d for v, d in sub.decoration.items()}
    initial = None if sub.initial is None else renum[(0, sub.initial)]
    return make_precube(
        cells, faces, syms, labels, decoration, initial=initial, truncated=sub.truncated
    )


# ---------------------------------------------------------------------------
# from-scratch recursion (oracle for the stage reuse of hdts.ccs.semantics)


def scratch_semantics(term, cfg, unfold_depth=8):
    """``semantics`` with every recursion stage compiled from scratch:
    each copy of the previous stage inside ``subst(body, x, stage)`` is
    compiled again down to ``nil``, as the stage-reusing version must
    match.  Prefix, sum and restriction go through the gluing oracles
    above rather than ``hdts.precube.glue``."""
    from hdts import PrecubeError, iso_check_precube, tensor_sync
    from hdts.ccs import Nil, Par, Prefix, Rec, Restrict, Sum, subst, term_str

    def decorate_initial(out):
        return replace(out, decoration={**out.decoration, out.initial: term_str(term)})

    def sub(t):
        return scratch_semantics(t, cfg, unfold_depth)

    if isinstance(term, Nil):
        return _point("nil")
    if isinstance(term, Prefix):
        cfg.check_label(term.label)
        return checked_graft_prefix(term.label, sub(term.body), term_str(term))
    if isinstance(term, Sum):
        return colimit_wedge(sub(term.left), sub(term.right), term_str(term))
    if isinstance(term, Restrict):
        cfg.check_label(term.label)
        banned = {term.label, cfg.bar(term.label)} - {None}
        return decorate_initial(checked_filter_labels(sub(term.body), banned))
    if isinstance(term, Par):
        return tensor_sync(sub(term.left), sub(term.right), cfg)
    if isinstance(term, Rec):
        stage_term = Nil()
        stage = sub(stage_term)
        for _ in range(unfold_depth):
            next_term = subst(term.body, term.var, stage_term)
            nxt = sub(next_term)
            if iso_check_precube(stage, nxt, match_initial=True, match_decoration=True):
                return decorate_initial(nxt)
            stage_term, stage = next_term, nxt
        return decorate_initial(replace(stage, truncated=True))
    raise PrecubeError("cannot interpret an open term")


def random_rec_term(seed: int) -> str:
    """A small closed term with recursion: prefixes over a, abar, b, c
    and tau, sums, restrictions, the odd parallel composition of closed
    terms, nested and shadowing ``rec(x)``/``rec(y)``; a variable occurs
    only under a prefix inside its own binder."""
    rng = random.Random(seed)
    letters = ("a", "abar", "b", "c", "tau")

    def term(size, bound, guarded):
        kinds = ["var"] * (2 * bool(guarded))
        if size > 0:
            kinds += ["prefix"] * 4 + ["sum", "sum", "rec", "nu"] + ["par"] * (size <= 4)
        else:
            kinds.append("nil")
        kind = rng.choice(kinds)
        if kind == "nil":
            return "nil"
        if kind == "var":
            return rng.choice(sorted(guarded))
        if kind == "prefix":
            return f"{rng.choice(letters)}.{term(size - 1, bound, bound)}"
        if kind == "rec":
            var = rng.choice("xy")
            return f"rec({var}) {term(size - 1, bound | {var}, guarded - {var})}"
        if kind == "nu":
            return f"(nu {rng.choice('ab')}) {term(size - 1, bound, guarded)}"
        half = (size - 1) // 2
        if kind == "par":  # closed components keep the unfolded products small
            return f"({term(half, frozenset(), frozenset())} || {term(half, frozenset(), frozenset())})"
        return f"({term(half, bound, guarded)} + {term(size - 1 - half, bound, guarded)})"

    return f"rec(x) {term(rng.randint(3, 6), frozenset('x'), frozenset())}"


def random_open_par_rec_term(seed: int) -> str:
    """``rec(x)`` over a sum whose arms put x under a parallel composition,
    under a nested recursion (whose own variable is used on some seeds)
    and, on some seeds, straight under a prefix, beside a closed product;
    the arms come in random order, each maybe under a restriction.  Each
    stage holds at most a few copies of the one before, so that three
    unfoldings stay small."""
    rng = random.Random(seed)
    letters = ("a", "abar", "b", "c", "tau")

    def pre(body):
        return f"{rng.choice(letters)}.{body}"

    uses_y = rng.random() < 0.1  # three copies of x in the nested recursion
    with_edge = not uses_y and rng.random() < 0.3  # x beside an edge, else beside nil
    beside = pre("nil") if with_edge else "nil"
    under_par = rng.choice([f"{pre('')}(x || {beside})", f"({pre('x')} || {beside})",
                            f"({beside} || {pre(pre('x'))})"])
    if uses_y:
        nested = f"rec(y) ({pre('y')} + {pre('x')})"
    else:
        inner = pre("x") if rng.random() < 0.5 else f"({pre('x')} || nil)"
        nested = f"rec(y) {pre(inner)}"
    arms = [under_par, pre(nested), f"({pre('nil')} || {pre('nil')})"]
    if not (with_edge or uses_y) and rng.random() < 0.5:
        arms.append(pre(pre("x")))
    rng.shuffle(arms)
    arms = [f"(nu {rng.choice('ab')}) {arm}" if rng.random() < 0.3 else arm for arm in arms]
    return "rec(x) (" + " + ".join(arms) + ")"


class _GrammarParser(_Parser):
    """The process-term grammar alone: a variable parses whether it is
    bound and guarded or not."""

    def parse_atom(self):
        kind, val, _ = self.peek()
        if kind == "ident" and val not in _KEYWORDS:
            self.next()
            return Var(val)
        return super().parse_atom()


def grammar_parse(text, cfg):
    return _GrammarParser(text, cfg).parse()


def _free_vars(t, bound=frozenset()):
    if isinstance(t, Var):
        return set() if t.name in bound else {t.name}
    if isinstance(t, Nil):
        return set()
    if isinstance(t, (Prefix, Restrict)):
        return _free_vars(t.body, bound)
    if isinstance(t, (Sum, Par)):
        return _free_vars(t.left, bound) | _free_vars(t.right, bound)
    return _free_vars(t.body, bound | {t.var})


def _unguarded(t, var, guarded=False):
    """Does ``var`` occur free in ``t`` outside every prefix?"""
    if isinstance(t, Var):
        return t.name == var and not guarded
    if isinstance(t, Prefix):
        return _unguarded(t.body, var, True)
    if isinstance(t, Restrict):
        return _unguarded(t.body, var, guarded)
    if isinstance(t, (Sum, Par)):
        return _unguarded(t.left, var, guarded) or _unguarded(t.right, var, guarded)
    if isinstance(t, Rec):
        return t.var != var and _unguarded(t.body, var, guarded)
    return False


def _recs(t):
    if isinstance(t, Rec):
        yield t
    if isinstance(t, (Prefix, Restrict, Rec)):
        yield from _recs(t.body)
    elif isinstance(t, (Sum, Par)):
        yield from _recs(t.left)
        yield from _recs(t.right)


def scope_defects(term):
    """The defects the parser used to find in a grammatical term after
    parsing it, with one walk for its free variables and one per
    ``rec`` for its unguarded variable: a set of ``("unbound", name)``
    and ``("unguarded", name)`` pairs, empty for a term it accepted."""
    unguarded = {("unguarded", r.var) for r in _recs(term) if _unguarded(r.body, r.var)}
    return {("unbound", name) for name in _free_vars(term)} | unguarded


# ---------------------------------------------------------------------------
# realization by walking every cell down its faces (oracle for the
# per-dimension pass of hdts.realize.realize)


def _corner(K: PrecubicalSet, n: int, c: int, alpha: int) -> int:
    for d in range(n, 0, -1):
        c = K.face(d, c, 1, alpha)
    return c


def _direction_edge(K: PrecubicalSet, n: int, c: int, i: int) -> int:
    """The base edge of ``c`` along direction ``i`` (faces taken at 0)."""
    d = n
    for j in range(n, 0, -1):
        if j == i:
            continue
        c = K.face(d, c, j, 0)
        d -= 1
    return c


def walk_realize(K: PrecubicalSet) -> Realization:
    """The realization of ``K``, each cell's bottom and top corner and
    direction edges found by walking it down to its vertices and edges."""
    partition = edge_action_classes(K)
    edge_class = partition.class_of()
    actions = tuple(Action(k, lab) for k, lab in enumerate(partition.labels))
    generators = set()
    for n in K.dims():
        if n == 0:
            continue
        for c in K.ncells(n):
            acts = (edge_class[_direction_edge(K, n, c, i)] for i in range(1, n + 1))
            generators.add(
                transition(_corner(K, n, c, 0), acts, _corner(K, n, c, 1))
            )
    closed = coherence_closure(generators)
    system = WeakHDTS(frozenset(K.vertices), actions, closed)
    return Realization(
        system, {v: v for v in K.vertices}, edge_class, partition, frozenset(generators)
    )


# ---------------------------------------------------------------------------
# cubification through cube systems and composed morphisms (oracle for the
# table-based hdts.realize.cube_maps_into and cubify)


def morphism_cube_maps_into(n: int, X: WeakHDTS) -> list[tuple[tuple[str, ...], HdtsMorphism]]:
    """All morphisms from n-cubes into ``X``, with their label words.

    A map is pinned by an n-transition of ``X`` (the image of the top
    transition), an ordering of its multiset, and one intermediate state
    per inner vertex; only transitions leaving the bottom corner or
    entering the top corner constrain the choice, which suffices for
    coherence-closed systems."""
    if n == 0:
        point = cube(())
        return [((), HdtsMorphism(point, X, {0: s}, {})) for s in sorted(X.states)]
    idx = _ScanIndex(X.transitions)
    labels = X.label_map()
    verts = cube_vertices(n)
    bottom, top = verts[0], verts[-1]
    out = []
    for t in X.sorted_transitions():
        if t.arity != n:
            continue
        for ordering in sorted(set(itertools.permutations(t.acts))):
            word = tuple(labels[u] for u in ordering)
            amap = {i + 1: ordering[i] for i in range(n)}
            cand = {}
            feasible = True
            for eps in verts:
                if eps == bottom:
                    cand[eps] = [t.src]
                    continue
                if eps == top:
                    cand[eps] = [t.tgt]
                    continue
                first = tuple(sorted(ordering[k] for k in range(n) if eps[k] == 1))
                cand[eps] = idx.intermediates(t.src, first, multiset_diff(t.acts, first), t.tgt)
                if not cand[eps]:
                    feasible = False
                    break
            if not feasible:
                continue
            for combo in itertools.product(*(cand[eps] for eps in verts)):
                smap = {cube_state_id(eps): s for eps, s in zip(verts, combo)}
                out.append((word, HdtsMorphism(cube(word), X, smap, amap)))
    return out


def morphism_cubify(X: WeakHDTS) -> Cubification:
    """Rebuild ``X`` from every cube mapping into it.

    The complex has one n-cell per cube morphism into ``X``; faces and
    swaps act by precomposition.  The comparison morphism back to ``X``
    is bijective on states; it can collapse actions that only ever occur
    in shared one-step transitions."""
    max_arity = max((t.arity for t in X.transitions), default=0)
    cells, faces, syms, labels = {}, {}, {}, {}
    index: dict[int, dict] = {}
    per_dim: dict[int, list] = {}
    for n in range(max_arity + 1):
        maps = sorted(morphism_cube_maps_into(n, X), key=lambda wm: (wm[0], wm[1].key()))
        per_dim[n] = maps
        index[n] = {(w, g.key()): k for k, (w, g) in enumerate(maps)}
        cells[n] = tuple(range(len(maps)))
        for k, (w, g) in enumerate(maps):
            if n >= 1:
                labels[(n, k)] = w
    for n in range(1, max_arity + 1):
        for k, (w, g) in enumerate(per_dim[n]):
            for i in range(1, n + 1):
                for alpha in (0, 1):
                    wf = w[: i - 1] + w[i:]
                    inc = realize_cube_map(face_encoding(i, alpha, n), wf, w)
                    h = compose_morphisms(inc, g)
                    faces[(n, k, i, alpha)] = index[n - 1][(wf, h.key())]
            for i in range(1, n):
                ws = list(w)
                ws[i - 1], ws[i] = ws[i], ws[i - 1]
                ws = tuple(ws)
                inc = realize_cube_map(sym_encoding(i, n), ws, w)
                h = compose_morphisms(inc, g)
                syms[(n, k, i)] = index[n][(ws, h.key())]
    complex_ = make_precube(cells, faces, syms, labels)
    r = realize(complex_)
    smap = {k: g.state_map[0] for k, (_, g) in enumerate(per_dim.get(0, []))}
    amap = {}
    for cls_id, members in enumerate(r.partition.classes):
        images = {per_dim[1][e][1].action_map[1] for e in members}
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


# ---------------------------------------------------------------------------
# the cube category built map by map (oracle for the per-dimension tables of
# hdts.encoding, for hdts.precube.standard_cube and for hdts.core.cube)


def pattern_words(n: int, letters=("a", "b", "tau")) -> list[tuple[str, ...]]:
    """The words of length n over ``letters`` whose letters first occur in
    the order of ``letters``: one word per pattern of equal positions."""
    out = []
    for word in itertools.product(letters, repeat=n):
        seen = list(dict.fromkeys(word))
        if seen == list(letters[: len(seen)]):
            out.append(word)
    return out


def map_compose(first: CubeEncoding, then: CubeEncoding) -> CubeEncoding:
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


def map_vertex_ids(enc: CubeEncoding) -> tuple[int, ...]:
    """The state id in [n] of the image of each vertex of [m], by vertex id."""
    return tuple(cube_state_id(enc.apply(eps)) for eps in cube_vertices(enc.m))


def map_standard_cube(word):
    """The labelled cube on ``word``: m-cells are the maps [m] -> [n]."""
    word = tuple(word)
    n = len(word)
    cells = {}
    faces = {}
    syms = {}
    labels = {}
    index: dict[int, dict[CubeEncoding, int]] = {}
    for m in range(n + 1):
        encs = all_encodings(m, n)
        cells[m] = tuple(range(len(encs)))
        index[m] = {enc: k for k, enc in enumerate(encs)}
        for k, enc in enumerate(encs):
            if m >= 1:
                labels[(m, k)] = tuple(word[enc.fbar_inv(i) - 1] for i in range(1, m + 1))
                for i in range(1, m + 1):
                    for alpha in (0, 1):
                        sub = map_compose(face_encoding(i, alpha, m), enc)
                        faces[(m, k, i, alpha)] = index[m - 1][sub]
            for i in range(1, m):
                swapped = map_compose(sym_encoding(i, m), enc)
                syms[(m, k, i)] = index[m][swapped]
    return make_precube(cells, faces, syms, labels)


def word_cube(word: tuple[str, ...]) -> WeakHDTS:
    """The transition system of the labelled cube on ``word``, built per word."""
    n = len(word)
    states = frozenset(cube_state_id(eps) for eps in cube_vertices(n))
    actions = tuple(Action(i + 1, word[i]) for i in range(n))
    trans = set()
    for lo in cube_vertices(n):
        for hi in cube_vertices(n):
            if lo == hi or any(a > b for a, b in zip(lo, hi)):
                continue
            dirs = tuple(i + 1 for i in range(n) if lo[i] != hi[i])
            trans.add(Transition(cube_state_id(lo), dirs, cube_state_id(hi)))
    return WeakHDTS(states, actions, frozenset(trans))


# ---------------------------------------------------------------------------
# the sort-ordered morphism searches (oracles for hdts.core._homs and
# hdts.precube._maps, which follow the structure instead): every action
# before any state, and every vertex before any edge, each pruned only by
# what the assigned variables already decide.  The precube search never
# compares a cell that is its own swap partner with its image's swap, so
# it accepts maps that break such a swap.


def sorted_order_signatures(z: WeakHDTS) -> dict[int, tuple]:
    """Per state, the sorted label words of its outgoing and incoming transitions."""
    lab = z.label_map()
    sig: dict[int, list] = {s: [] for s in z.states}
    for t in z.transitions:
        w = tuple(sorted(lab[a] for a in t.acts))
        sig[t.src].append(("out", w))
        sig[t.tgt].append(("in", w))
    return {s: tuple(sorted(v)) for s, v in sig.items()}


def sorted_order_homs(src: WeakHDTS, dst: WeakHDTS, signatures=None):
    """Morphisms src -> dst, in the order of ``sorted_order_hom_enumerate``.

    A partial assignment is pruned as soon as some transition's image
    cannot exist in ``dst``.  With ``signatures`` (a pair of
    ``sorted_order_signatures``), maps are injective and keep each state's
    signature; between systems of equal sizes they are isomorphisms.
    """
    src_label = src.label_map()
    by_label: dict[str, list[int]] = defaultdict(list)
    for a in dst.actions:  # sorted by id
        by_label[a.label].append(a.id)
    fwd, bwd = defaultdict(set), defaultdict(set)  # (state, acts) -> targets, sources
    for t in dst.transitions:
        fwd[(t.src, t.acts)].add(t.tgt)
        bwd[(t.tgt, t.acts)].add(t.src)
    dst_msets = {t.acts for t in dst.transitions}

    completed_by: dict[int, list[Transition]] = defaultdict(list)  # by largest action
    touching: dict[int, list[Transition]] = defaultdict(list)
    for t in sorted(src.transitions):
        completed_by[t.acts[-1]].append(t)
        touching[t.src].append(t)
        if t.tgt != t.src:
            touching[t.tgt].append(t)
    incident = sorted(touching)
    order = [("a", a) for a in src.action_ids]
    order += [("s", s) for s in incident + sorted(src.states - set(incident))]

    dst_states = sorted(dst.states)

    def candidates(var, assign):
        sort, x = var
        return by_label.get(src_label[x], ()) if sort == "a" else dst_states

    # each transition's image multiset, stored when its largest action is
    # assigned; actions precede states in ``order``, so states see it current
    image: dict[Transition, tuple[int, ...]] = {}

    def consistent(var, value, assign):
        sort, x = var
        if sort == "a":
            for t in completed_by[x]:
                acts = tuple(sorted(value if a == x else assign[("a", a)] for a in t.acts))
                if acts not in dst_msets:
                    return False
                image[t] = acts
            return True
        if signatures is not None and signatures[0][x] != signatures[1][value]:
            return False
        for t in touching[x]:
            s = value if t.src == x else assign.get(("s", t.src))
            g = value if t.tgt == x else assign.get(("s", t.tgt))
            if s is not None and g is not None:
                ok = g in fwd.get((s, image[t]), ())
            elif s is not None:
                ok = (s, image[t]) in fwd
            else:
                ok = (g, image[t]) in bwd
            if not ok:
                return False
        return True

    for assign in backtrack(order, candidates, consistent, injective=signatures is not None):
        yield HdtsMorphism(
            src,
            dst,
            {x: v for (sort, x), v in assign.items() if sort == "s"},
            {x: v for (sort, x), v in assign.items() if sort == "a"},
        )


def sorted_order_hom_enumerate(src: WeakHDTS, dst: WeakHDTS) -> list[HdtsMorphism]:
    """All morphisms src -> dst, exhaustively, in a deterministic order.

    Actions are assigned first (labels prune the hardest), then states
    in order of transition incidence; partial assignments are pruned
    against the target's transition indexes.  Worst case exponential.
    """
    return list(sorted_order_homs(src, dst))


def sorted_order_iso_check(left: WeakHDTS, right: WeakHDTS) -> HdtsMorphism | None:
    """An isomorphism left -> right if one exists, found deterministically."""
    sig_l, sig_r = sorted_order_signatures(left), sorted_order_signatures(right)

    def invariants(z: WeakHDTS, sig: dict[int, tuple]):
        return len(z.transitions), sorted(a.label for a in z.actions), sorted(sig.values())

    if invariants(left, sig_l) != invariants(right, sig_r):
        return None
    return next(sorted_order_homs(left, right, (sig_l, sig_r)), None)


def sorted_order_maps(K: PrecubicalSet, L: PrecubicalSet, vertex_ok=None):
    """Label-preserving maps K -> L, cells assigned in dimension order.

    With ``vertex_ok``, maps are injective in each dimension and send a
    vertex c only to a vertex d with ``vertex_ok(c, d)``.
    """
    order = [(n, c) for n in K.dims() for c in K.ncells(n)]
    by_dim_label: dict[tuple[int, tuple], list[int]] = {}
    for n in L.dims():
        for d in L.ncells(n):
            by_dim_label.setdefault((n, L.label(n, d)), []).append(d)

    def candidates(var, assign):
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


def sorted_order_hom_enumerate_precube(K: PrecubicalSet, L: PrecubicalSet) -> list[PrecubeMap]:
    """All label-preserving maps K -> L, in a deterministic order."""
    return list(sorted_order_maps(K, L))


def sorted_order_iso_check_precube(
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

    return next(sorted_order_maps(K, L, vertex_ok), None)
