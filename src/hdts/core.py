"""Finite weak higher dimensional transition systems.

A transition executes a multiset of actions between two states.  We
store one canonical representative per transition: the tuple of action
ids sorted ascending.  The permutation orbit required by the multiset
axiom is implied by that representation, and every axiom below is
phrased on sub-multiset decompositions of the canonical tuple, which is
equivalent to the tuple-based formulations once the orbit is implied.

States and action ids are plain integers; everything iterates in sorted
order so results are reproducible run to run.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .encoding import cube_vertices
from .unionfind import UnionFind


class StructureError(ValueError):
    """A system or morphism refers to states or actions it does not own."""


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True, order=True)
class Action:
    id: int
    label: str


@dataclass(frozen=True, order=True)
class Transition:
    """Canonical transition: ``acts`` is the sorted multiset of action ids."""

    src: int
    acts: tuple[int, ...]
    tgt: int

    def __post_init__(self):
        object.__setattr__(self, "acts", tuple(self.acts))
        if not self.acts:
            raise StructureError(f"empty action multiset in transition {self}")
        if list(self.acts) != sorted(self.acts):
            raise StructureError(f"action multiset not sorted in transition {self}")

    @property
    def arity(self) -> int:
        return len(self.acts)

    def as_tuple(self):
        return (self.src, list(self.acts), self.tgt)


def transition(src: int, acts: Iterable[int], tgt: int) -> Transition:
    """Build a canonical transition, sorting the action multiset."""
    return Transition(src, tuple(sorted(acts)), tgt)


@dataclass(frozen=True)
class WeakHDTS:
    states: frozenset[int]
    actions: tuple[Action, ...]
    transitions: frozenset[Transition]

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        acts = tuple(sorted(self.actions))
        object.__setattr__(self, "actions", acts)
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        ids = [a.id for a in acts]
        if len(set(ids)) != len(ids):
            raise StructureError("duplicate action ids")
        known = set(ids)
        for t in self.transitions:
            if t.src not in self.states or t.tgt not in self.states:
                raise StructureError(f"transition {t} references an unknown state")
            for a in t.acts:
                if a not in known:
                    raise StructureError(f"transition {t} references an unknown action")

    @property
    def action_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.actions)

    def label(self, action_id: int) -> str:
        for a in self.actions:
            if a.id == action_id:
                return a.label
        raise StructureError(f"unknown action id {action_id}")

    def label_map(self) -> dict[int, str]:
        return {a.id: a.label for a in self.actions}

    def sorted_transitions(self) -> list[Transition]:
        return sorted(self.transitions, key=lambda t: (t.arity, t.src, t.acts, t.tgt))


EMPTY = WeakHDTS(frozenset(), (), frozenset())


# ---------------------------------------------------------------------------
# multiset helpers


def multiset_diff(whole: Sequence[int], part: Sequence[int]) -> tuple[int, ...]:
    counts = Counter(whole)
    counts.subtract(Counter(part))
    if any(c < 0 for c in counts.values()):
        raise ValueError(f"{part} is not a sub-multiset of {whole}")
    return tuple(sorted(counts.elements()))


def multiset_union(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(tuple(a) + tuple(b)))


@lru_cache(maxsize=None)
def proper_submultisets(acts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Distinct non-empty proper sub-multisets, smallest first."""
    items = sorted(Counter(acts).items())
    out = []

    def rec(k, chosen):
        if k == len(items):
            if chosen and len(chosen) < len(acts):
                out.append(tuple(chosen))
            return
        val, cnt = items[k]
        for take in range(cnt + 1):
            rec(k + 1, chosen + [val] * take)

    rec(0, [])
    return tuple(sorted(out, key=lambda t: (len(t), t)))


class _Index:
    """Lookup tables over a transition set."""

    def __init__(self, transitions: Iterable[Transition]):
        self.trans = set(transitions)
        self.targets: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
        for t in self.trans:
            self.targets[(t.src, t.acts)].add(t.tgt)

    def has(self, src, acts, tgt) -> bool:
        return tgt in self.targets.get((src, acts), ())

    def intermediates(self, src, first, second, tgt) -> list[int]:
        """States nu with (src, first, nu) and (nu, second, tgt) present."""
        return sorted(
            nu
            for nu in self.targets.get((src, first), ())
            if tgt in self.targets.get((nu, second), ())
        )


# ---------------------------------------------------------------------------
# coherence closure


def coherence_closure(transitions: Iterable[Transition]) -> frozenset[Transition]:
    """Smallest superset of ``transitions`` closed under the coherence rule.

    The rule, on canonical representatives: whenever a transition
    (a, A+B+C, b) decomposes with non-empty parts A, B, C such that
    (a, A, n1), (n1, B+C, b), (a, A+B, n2) and (n2, C, b) are all
    present, the interior step (n1, B, n2) must be present too.

    Saturation runs a worklist of "big" (arity >= 3) transitions,
    re-scheduling a big transition whenever a new transition appears at
    its source or target, so rule instances are never enumerated against
    unrelated parts of the system.
    """
    trans: set[Transition] = set(transitions)
    targets: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
    bigs_by_src: dict[int, set[Transition]] = defaultdict(set)
    bigs_by_tgt: dict[int, set[Transition]] = defaultdict(set)

    def index(t: Transition):
        targets[(t.src, t.acts)].add(t.tgt)
        if t.arity >= 3:
            bigs_by_src[t.src].add(t)
            bigs_by_tgt[t.tgt].add(t)

    for t in trans:
        index(t)

    pending = deque(sorted(t for t in trans if t.arity >= 3))
    queued = set(pending)

    def schedule(t: Transition):
        if t not in queued:
            pending.append(t)
            queued.add(t)

    while pending:
        big = pending.popleft()
        queued.discard(big)
        u = big.acts
        inter_cache: dict[tuple[int, ...], list[int]] = {}

        def inter(part):
            got = inter_cache.get(part)
            if got is None:
                rest = multiset_diff(u, part)
                got = sorted(
                    nu
                    for nu in targets.get((big.src, part), ())
                    if big.tgt in targets.get((nu, rest), ())
                )
                inter_cache[part] = got
            return got

        for e_part in proper_submultisets(u):
            n2s = inter(e_part)
            if not n2s:
                continue
            for a_part in proper_submultisets(e_part):
                n1s = inter(a_part)
                if not n1s:
                    continue
                b_part = multiset_diff(e_part, a_part)
                for n1 in n1s:
                    for n2 in n2s:
                        concl = Transition(n1, b_part, n2)
                        if concl in trans:
                            continue
                        trans.add(concl)
                        index(concl)
                        inter_cache.clear()
                        # every side premise of a rule instance is anchored at
                        # the big transition's source or target, so this
                        # reschedule (which covers ``big`` itself) is complete
                        for affected in bigs_by_src[concl.src] | bigs_by_tgt[concl.tgt]:
                            schedule(affected)
                        if concl.arity >= 3:
                            schedule(concl)
    return frozenset(trans)


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomReport:
    coherence_closed: bool
    csa1: bool
    csa2: bool
    csa3: bool
    uisa: bool
    intermediate: bool
    witnesses: Mapping[str, dict]

    @property
    def all_ok(self) -> bool:
        return (
            self.coherence_closed
            and self.csa1
            and self.csa2
            and self.csa3
            and self.uisa
            and self.intermediate
        )

    @property
    def is_hdts(self) -> bool:
        """Coherence-closed plus CSA1 plus unique intermediate states."""
        return self.coherence_closed and self.csa1 and self.uisa

    def as_dict(self) -> dict:
        return {
            "coherence_closed": self.coherence_closed,
            "csa1": self.csa1,
            "csa2": self.csa2,
            "csa3": self.csa3,
            "uisa": self.uisa,
            "intermediate": self.intermediate,
            "witnesses": dict(self.witnesses),
        }


def _ordered(transitions) -> list[Transition]:
    return sorted(transitions, key=lambda t: (t.arity, t.src, t.acts, t.tgt))


def _check_coherence(order, idx):
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


def _check_csa1(order, labels):
    seen: dict[tuple[int, int, str], Transition] = {}
    for t in order:
        if t.arity != 1:
            continue
        key = (t.src, t.tgt, labels[t.acts[0]])
        prev = seen.get(key)
        if prev is not None and prev.acts != t.acts:
            return {"first": prev.as_tuple(), "second": t.as_tuple()}
        seen.setdefault(key, t)
    return None


def _split_scan(order, idx, need_unique):
    """First split violating existence (and uniqueness, if asked)."""
    for t in order:
        if t.arity < 2:
            continue
        for part in proper_submultisets(t.acts):
            rest = multiset_diff(t.acts, part)
            mids = idx.intermediates(t.src, part, rest, t.tgt)
            bad = (len(mids) != 1) if need_unique else (len(mids) == 0)
            if bad:
                return {
                    "transition": t.as_tuple(),
                    "split": list(part),
                    "intermediates": mids,
                }
    return None


def _check_csa2(order, idx):
    """Per split, a unique state must interleave it in both orders."""
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


def _check_csa3(order, idx):
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
                ab_part = multiset_union(a_part, b_part)
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


def validate(system: WeakHDTS) -> AxiomReport:
    """Check every axiom, returning pass/fail plus minimal witnesses.

    Scanning happens on canonical representatives in (arity, src, acts,
    tgt) order, so the reported witness for a failed axiom is the least
    offending instance in that order.
    """
    order = _ordered(system.transitions)
    idx = _Index(system.transitions)
    labels = system.label_map()
    witnesses = {}

    w = _check_coherence(order, idx)
    coherence_closed = w is None
    if w:
        witnesses["coherence"] = w

    w = _check_csa1(order, labels)
    csa1 = w is None
    if w:
        witnesses["csa1"] = w

    w = _split_scan(order, idx, need_unique=True)
    uisa = w is None
    if w:
        witnesses["uisa"] = w

    w = _check_csa2(order, idx)
    csa2 = w is None
    if w:
        witnesses["csa2"] = w

    w = _split_scan(order, idx, need_unique=False)
    intermediate = w is None
    if w:
        witnesses["intermediate"] = w

    w = _check_csa3(order, idx)
    csa3 = w is None
    if w:
        witnesses["csa3"] = w

    return AxiomReport(coherence_closed, csa1, csa2, csa3, uisa, intermediate, witnesses)


def uisa_holds(transitions: Iterable[Transition]) -> bool:
    """Unique-intermediate check on a bare transition set."""
    order = _ordered(transitions)
    idx = _Index(order)
    return _split_scan(order, idx, need_unique=True) is None


# ---------------------------------------------------------------------------
# cube systems


def cube_state_id(eps: Sequence[int]) -> int:
    """Vertex tuple -> state id (first coordinate most significant)."""
    out = 0
    for bit in eps:
        out = (out << 1) | bit
    return out


def cube_state_bits(n: int, state_id: int) -> tuple[int, ...]:
    return tuple((state_id >> (n - 1 - k)) & 1 for k in range(n))


def cube(word: Sequence[str]) -> WeakHDTS:
    """The transition system of the labelled cube on ``word``.

    States are the bit vectors of length n, actions are (letter, i) for
    each direction i, and there is one canonical transition for every
    pair of distinct comparable vertices, carrying the directions where
    they differ.
    """
    return _cube_cached(tuple(word))


@lru_cache(maxsize=None)
def _cube_cached(word: tuple[str, ...]) -> WeakHDTS:
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


def cube_ext(word: Sequence[str]) -> WeakHDTS:
    """Two-corner restriction of ``cube(word)``: only the top transition."""
    word = tuple(word)
    n = len(word)
    if n == 0:
        return cube(word)
    bottom, top = 0, (1 << n) - 1
    actions = tuple(Action(i + 1, word[i]) for i in range(n))
    trans = frozenset({Transition(bottom, tuple(range(1, n + 1)), top)})
    return WeakHDTS(frozenset({bottom, top}), actions, trans)


def cube_inclusion(word: Sequence[str]) -> "HdtsMorphism":
    """The inclusion of the two-corner cube into the full cube."""
    n = len(tuple(word))
    small, big = cube_ext(word), cube(word)
    smap = {s: s for s in small.states}
    amap = {i: i for i in range(1, n + 1)}
    return HdtsMorphism(small, big, smap, amap)


def parallel_edges(label: str) -> WeakHDTS:
    """Two distinct actions with one label between the same two states."""
    actions = (Action(1, label), Action(2, label))
    trans = frozenset({Transition(0, (1,), 1), Transition(0, (2,), 1)})
    return WeakHDTS(frozenset({0, 1}), actions, trans)


def lone_action(label: str) -> WeakHDTS:
    """No states, no transitions, one action."""
    return WeakHDTS(frozenset(), (Action(1, label),), frozenset())


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class HdtsMorphism:
    src: WeakHDTS
    dst: WeakHDTS
    state_map: Mapping[int, int]
    action_map: Mapping[int, int]

    def map_transition(self, t: Transition) -> Transition:
        return transition(
            self.state_map[t.src], (self.action_map[a] for a in t.acts), self.state_map[t.tgt]
        )

    def key(self):
        return (
            tuple(sorted(self.state_map.items())),
            tuple(sorted(self.action_map.items())),
        )


def check_morphism(f: HdtsMorphism) -> None:
    """Raise unless ``f`` preserves labels and transitions."""
    src_labels = f.src.label_map()
    dst_labels = f.dst.label_map()
    if set(f.state_map) != set(f.src.states):
        raise StructureError("state map does not cover the source states")
    if set(f.action_map) != set(f.src.action_ids):
        raise StructureError("action map does not cover the source actions")
    for s, s2 in f.state_map.items():
        if s2 not in f.dst.states:
            raise StructureError(f"state {s} maps outside the target system")
    for a, a2 in f.action_map.items():
        if a2 not in dst_labels:
            raise StructureError(f"action {a} maps outside the target system")
        if src_labels[a] != dst_labels[a2]:
            raise StructureError(f"action {a} changes label under the morphism")
    for t in f.src.transitions:
        if f.map_transition(t) not in f.dst.transitions:
            raise StructureError(f"transition {t} is not preserved")


def identity_morphism(system: WeakHDTS) -> HdtsMorphism:
    return HdtsMorphism(
        system, system, {s: s for s in system.states}, {a: a for a in system.action_ids}
    )


def compose_morphisms(f: HdtsMorphism, g: HdtsMorphism) -> HdtsMorphism:
    """First ``f``, then ``g``."""
    if f.dst != g.src:
        raise StructureError("morphisms do not compose")
    return HdtsMorphism(
        f.src,
        g.dst,
        {s: g.state_map[v] for s, v in f.state_map.items()},
        {a: g.action_map[v] for a, v in f.action_map.items()},
    )


def morphism_is_iso(f: HdtsMorphism) -> bool:
    if len(set(f.state_map.values())) != len(f.dst.states):
        return False
    if len(set(f.action_map.values())) != len(f.dst.actions):
        return False
    image = {f.map_transition(t) for t in f.src.transitions}
    return image == set(f.dst.transitions)


# ---------------------------------------------------------------------------
# colimits


@dataclass(frozen=True)
class HdtsColimit:
    system: WeakHDTS
    cocones: tuple[HdtsMorphism, ...]
    union_uisa: bool
    closure_added: int


def colimit(objects: Sequence[WeakHDTS], arrows: Sequence[tuple] = ()) -> HdtsColimit:
    """Colimit of a finite diagram of systems.

    States and actions are glued by union-find along the diagram's
    morphisms; the transition set is the coherence closure of the union
    of the transition images.  ``union_uisa`` records whether the
    pre-closure union already had unique intermediate states, in which
    case the closure is guaranteed to add nothing.
    """
    objects = list(objects)
    for si, ti, f in arrows:
        if f.src != objects[si] or f.dst != objects[ti]:
            raise StructureError("arrow endpoints do not match the diagram objects")
        check_morphism(f)

    uf_states, uf_actions = UnionFind(), UnionFind()
    for i, ob in enumerate(objects):
        for s in ob.states:
            uf_states.add((i, s))
        for a in ob.actions:
            uf_actions.add((i, a.id))
    for si, ti, f in arrows:
        for s, s2 in f.state_map.items():
            uf_states.union((si, s), (ti, s2))
        for a, a2 in f.action_map.items():
            uf_actions.union((si, a), (ti, a2))

    state_id: dict[tuple[int, int], int] = {}
    for new, members in enumerate(uf_states.groups()):
        for m in members:
            state_id[m] = new

    action_id: dict[tuple[int, int], int] = {}
    actions = []
    label_of = {i: ob.label_map() for i, ob in enumerate(objects)}
    for new, members in enumerate(uf_actions.groups()):
        labels = {label_of[i][a] for i, a in members}
        if len(labels) != 1:
            raise StructureError("merged actions disagree on labels")
        for m in members:
            action_id[m] = new
        actions.append(Action(new, labels.pop()))

    union_trans = set()
    for i, ob in enumerate(objects):
        for t in ob.transitions:
            union_trans.add(
                transition(
                    state_id[(i, t.src)],
                    (action_id[(i, a)] for a in t.acts),
                    state_id[(i, t.tgt)],
                )
            )
    union_uisa = uisa_holds(union_trans)
    closed = coherence_closure(union_trans)
    system = WeakHDTS(frozenset(state_id.values()), tuple(actions), closed)
    cocones = tuple(
        HdtsMorphism(
            ob,
            system,
            {s: state_id[(i, s)] for s in ob.states},
            {a: action_id[(i, a)] for a in ob.action_ids},
        )
        for i, ob in enumerate(objects)
    )
    return HdtsColimit(system, cocones, union_uisa, len(closed) - len(union_trans))


def disjoint_union(*objects: WeakHDTS) -> WeakHDTS:
    return colimit(list(objects)).system


# ---------------------------------------------------------------------------
# morphism enumeration and isomorphism search


def hom_enumerate(src: WeakHDTS, dst: WeakHDTS) -> list[HdtsMorphism]:
    """All morphisms src -> dst, exhaustively, in a deterministic order.

    Actions are assigned first (labels prune the hardest), then states
    in order of transition incidence; partial assignments are pruned
    against the target's transition indexes.  Worst case exponential.
    """
    dst_states = sorted(dst.states)
    src_actions = sorted(src.action_ids)
    src_label = src.label_map()
    by_label: dict[str, list[int]] = defaultdict(list)
    for a in dst.actions:
        by_label[a.label].append(a.id)
    for ids in by_label.values():
        ids.sort()

    fwd: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
    bwd: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
    dst_msets = set()
    for t in dst.transitions:
        fwd[(t.src, t.acts)].add(t.tgt)
        bwd[(t.tgt, t.acts)].add(t.src)
        dst_msets.add(t.acts)

    src_trans = sorted(src.transitions)
    incident = sorted({s for t in src_trans for s in (t.src, t.tgt)})
    state_order = incident + sorted(src.states - set(incident))
    touching: dict[int, list[Transition]] = defaultdict(list)
    for t in src_trans:
        touching[t.src].append(t)
        if t.tgt != t.src:
            touching[t.tgt].append(t)

    out: list[HdtsMorphism] = []

    def states_pass(amap: dict[int, int]):
        mapped = {t: tuple(sorted(amap[a] for a in t.acts)) for t in src_trans}
        if any(m not in dst_msets for m in mapped.values()):
            return
        smap: dict[int, int] = {}

        def feasible(t: Transition) -> bool:
            ms = mapped[t]
            have_src, have_tgt = t.src in smap, t.tgt in smap
            if have_src and have_tgt:
                return smap[t.tgt] in fwd.get((smap[t.src], ms), ())
            if have_src:
                return bool(fwd.get((smap[t.src], ms)))
            if have_tgt:
                return bool(bwd.get((smap[t.tgt], ms)))
            return True

        def rec(k: int):
            if k == len(state_order):
                out.append(HdtsMorphism(src, dst, dict(smap), dict(amap)))
                return
            s = state_order[k]
            for cand in dst_states:
                smap[s] = cand
                if all(feasible(t) for t in touching[s]):
                    rec(k + 1)
                del smap[s]

        rec(0)

    def actions_pass(k: int, amap: dict[int, int]):
        if k == len(src_actions):
            states_pass(dict(amap))
            return
        a = src_actions[k]
        for cand in by_label.get(src_label[a], ()):
            amap[a] = cand
            actions_pass(k + 1, amap)
            del amap[a]

    actions_pass(0, {})
    return out


def is_orthogonal(system: WeakHDTS, f: HdtsMorphism) -> bool:
    """True iff every morphism f.src -> system factors uniquely through f."""
    via = [compose_morphisms(f, h).key() for h in hom_enumerate(f.dst, system)]
    direct = sorted(h.key() for h in hom_enumerate(f.src, system))
    return sorted(via) == direct


def iso_check(left: WeakHDTS, right: WeakHDTS) -> HdtsMorphism | None:
    """An isomorphism left -> right if one exists, found deterministically."""
    if len(left.states) != len(right.states):
        return None
    if len(left.actions) != len(right.actions):
        return None
    if len(left.transitions) != len(right.transitions):
        return None
    if sorted(a.label for a in left.actions) != sorted(a.label for a in right.actions):
        return None

    def signatures(z: WeakHDTS) -> dict[int, tuple]:
        lab = z.label_map()
        sig: dict[int, list] = {s: [] for s in z.states}
        for t in z.transitions:
            w = tuple(sorted(lab[a] for a in t.acts))
            sig[t.src].append(("out", w))
            sig[t.tgt].append(("in", w))
        return {s: tuple(sorted(v)) for s, v in sig.items()}

    sig_l, sig_r = signatures(left), signatures(right)
    if sorted(sig_l.values()) != sorted(sig_r.values()):
        return None

    lab_l, lab_r = left.label_map(), right.label_map()
    actions_l = sorted(left.action_ids)
    by_label: dict[str, list[int]] = defaultdict(list)
    for a in right.actions:
        by_label[a.label].append(a.id)
    for ids in by_label.values():
        ids.sort()

    fwd: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
    for t in right.transitions:
        fwd[(t.src, t.acts)].add(t.tgt)

    states_l = sorted(left.states)
    trans_l = sorted(left.transitions)
    touching: dict[int, list[Transition]] = defaultdict(list)
    for t in trans_l:
        touching[t.src].append(t)
        if t.tgt != t.src:
            touching[t.tgt].append(t)

    def search_states(amap: dict[int, int]) -> HdtsMorphism | None:
        mapped = {t: tuple(sorted(amap[a] for a in t.acts)) for t in trans_l}
        smap: dict[int, int] = {}
        used: set[int] = set()

        def feasible(t: Transition) -> bool:
            if t.src in smap and t.tgt in smap:
                return smap[t.tgt] in fwd.get((smap[t.src], mapped[t]), ())
            return True

        def rec(k: int) -> bool:
            if k == len(states_l):
                return True
            s = states_l[k]
            for cand in sorted(right.states):
                if cand in used or sig_r[cand] != sig_l[s]:
                    continue
                smap[s] = cand
                used.add(cand)
                if all(feasible(t) for t in touching[s]) and rec(k + 1):
                    return True
                del smap[s]
                used.discard(cand)
            return False

        if rec(0):
            return HdtsMorphism(left, right, dict(smap), dict(amap))
        return None

    def search_actions(k: int, amap: dict[int, int], used: set[int]) -> HdtsMorphism | None:
        if k == len(actions_l):
            return search_states(dict(amap))
        a = actions_l[k]
        for cand in by_label.get(lab_l[a], ()):
            if cand in used:
                continue
            amap[a] = cand
            used.add(cand)
            found = search_actions(k + 1, amap, used)
            if found is not None:
                return found
            del amap[a]
            used.discard(cand)
        return None

    found = search_actions(0, {}, set())
    if found is not None and morphism_is_iso(found):
        return found
    return None
