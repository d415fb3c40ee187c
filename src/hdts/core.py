"""Finite weak higher dimensional transition systems.

A transition executes a multiset of actions between two states.  We
store one canonical representative per transition: the tuple of action
ids sorted ascending.  The permutation orbit required by the multiset
axiom is implied by that representation, and every axiom below is
phrased on sub-multiset decompositions of the canonical tuple, which is
equivalent to the tuple-based formulations once the orbit is implied.
The axiom checks and the coherence closure read one split table per
transition, built from the cached decomposition table of its multiset.

States and action ids are plain integers; everything iterates in sorted
order so results are reproducible run to run.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict, deque, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Sequence

from .encoding import cube_state_bits, cube_state_id, cube_vertices  # noqa: F401
from .search import backtrack
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


def _ordered(transitions: Iterable[Transition]) -> list[Transition]:
    """Transitions in (arity, src, acts, tgt) order, the order of every scan."""
    return sorted(transitions, key=lambda t: (t.arity, t.src, t.acts, t.tgt))


def _from_arity(order: list[Transition], least: int) -> list[Transition]:
    """The transitions of ``order``, sorted by arity, from arity ``least`` on."""
    return order[bisect_left(order, least, key=Transition.arity.fget):]


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
        return _ordered(self.transitions)


# ---------------------------------------------------------------------------
# multiset helpers


def multiset_diff(whole: Sequence[int], part: Sequence[int]) -> tuple[int, ...]:
    rest = sorted(whole)
    try:
        for x in part:
            rest.remove(x)
    except ValueError:
        raise ValueError(f"{part} is not a sub-multiset of {whole}") from None
    return tuple(rest)


@lru_cache(maxsize=None)
def proper_submultisets(acts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Distinct non-empty proper sub-multisets, smallest first."""
    items = sorted(Counter(acts).items())
    subs = (
        tuple(val for (val, _), take in zip(items, takes) for _ in range(take))
        for takes in product(*(range(cnt + 1) for _, cnt in items))
    )
    return tuple(sorted((s for s in subs if 0 < len(s) < len(acts)), key=lambda t: (len(t), t)))


_Decompositions = namedtuple("_Decompositions", "splits rest")


@lru_cache(maxsize=None)
def _decompositions(acts: tuple[int, ...]) -> _Decompositions:
    """The decomposition table of the multiset ``acts``, built on first
    use: its splits (part, rest) with parts smallest first, and the same as
    a dict.  The scans read a part's own table only where it has intermediate states."""
    splits = tuple((part, multiset_diff(acts, part)) for part in proper_submultisets(acts))
    return _Decompositions(splits, dict(splits))


class _Index:
    """The targets of each (state, multiset) pair, and the split table of
    each transition that the axiom checks, the closure and the cube maps
    read: per part of its multiset, the sorted states nu with (src, part,
    nu) and (nu, rest, tgt) present, built from the multiset's decomposition
    table on first use and kept for as long as the set does not change."""

    def __init__(self, transitions: Iterable[Transition]):
        self.targets: dict[tuple[int, tuple[int, ...]], set[int]] = defaultdict(set)
        for t in transitions:
            self.targets[t.src, t.acts].add(t.tgt)
        self._tables: dict[tuple, dict[tuple[int, ...], list[int]]] = {}

    def add(self, t: Transition) -> None:
        self.targets[t.src, t.acts].add(t.tgt)
        self._tables.clear()

    def splits(self, src: int, acts: tuple[int, ...], tgt: int) -> dict[tuple[int, ...], list[int]]:
        """The split table of (src, acts, tgt), shared with later calls:
        callers must not change it."""
        got = self._tables.get((src, acts, tgt))
        if got is None:
            get = self.targets.get
            got = self._tables[src, acts, tgt] = {
                part: sorted(nu for nu in get((src, part), ()) if tgt in get((nu, rest), ()))
                for part, rest in _decompositions(acts).splits
            }
        return got


def _rule_instances(idx: _Index, t: Transition):
    """Instances of the coherence rule on ``t`` as (A, B, C, n1, n2).

    n1 splits ``t`` after A and n2 after A+B, so the rule asks for the
    transition (n1, B, n2).  A+B comes smallest first, then A, read off the
    decomposition table of A+B only where some n2 splits ``t`` after A+B.
    """
    inter = idx.splits(t.src, t.acts, t.tgt)
    for e_part, c_part in _decompositions(t.acts).splits:
        n2s = inter[e_part]
        for a_part, b_part in _decompositions(e_part).splits if n2s and len(e_part) > 1 else ():
            for n1 in inter[a_part]:
                for n2 in n2s:
                    yield a_part, b_part, c_part, n1, n2


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
    trans = set(transitions)
    idx = _Index(trans)
    bigs_by_src: dict[int, set[Transition]] = defaultdict(set)
    bigs_by_tgt: dict[int, set[Transition]] = defaultdict(set)

    def index_big(t: Transition):
        bigs_by_src[t.src].add(t)
        bigs_by_tgt[t.tgt].add(t)

    pending = deque(sorted(t for t in trans if t.arity >= 3))
    for t in pending:
        index_big(t)
    queued = set(pending)

    def schedule(t: Transition):
        if t not in queued:
            pending.append(t)
            queued.add(t)

    while pending:
        big = pending.popleft()
        queued.discard(big)
        for _, b_part, _, n1, n2 in _rule_instances(idx, big):
            if n2 in idx.targets.get((n1, b_part), ()):
                continue
            concl = Transition(n1, b_part, n2)
            trans.add(concl)
            idx.add(concl)
            if concl.arity >= 3:
                index_big(concl)
            # every side premise of a rule instance is anchored at the big
            # transition's source or target, so this reschedule (which
            # covers ``big`` itself, and ``concl`` if it is big) is complete,
            # though the rest of this pass reads ``big``'s old split table
            for affected in bigs_by_src[concl.src] | bigs_by_tgt[concl.tgt]:
                schedule(affected)
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


def _check_coherence(order, idx):
    get = idx.targets.get
    for t in _from_arity(order, 3):
        for a_part, b_part, c_part, n1, n2 in _rule_instances(idx, t):
            if n2 not in get((n1, b_part), ()):
                return {
                    "transition": t.as_tuple(),
                    "missing": Transition(n1, b_part, n2).as_tuple(),
                    "left": list(a_part),
                    "mid": list(b_part),
                    "right": list(c_part),
                }
    return None


def _check_csa1(order, labels):
    seen: dict[tuple[int, int, str], Transition] = {}
    for t in order:
        if t.arity > 1:  # ``order`` is sorted by arity
            break
        key = (t.src, t.tgt, labels[t.acts[0]])
        prev = seen.get(key)
        if prev is not None and prev.acts != t.acts:
            return {"first": prev.as_tuple(), "second": t.as_tuple()}
        seen.setdefault(key, t)
    return None


def _splits(order, idx):
    """Each split of each transition of arity >= 2, in scan order.

    Yields (t, part, forward, reverse): the states that interleave
    ``part`` before the rest of ``t``, and those that interleave it
    after.  The reverse interleaving of a split is the forward one of
    its complement, so both are read off one split table.
    """
    for t in _from_arity(order, 2):
        inter = idx.splits(t.src, t.acts, t.tgt)
        for part, rest in _decompositions(t.acts).splits:
            yield t, part, inter[part], inter[rest]


def _check_splits(order, idx) -> dict:
    """First failing split for uisa, csa2 and intermediate, in one scan.

    uisa wants one state per split, csa2 one in each order, and
    intermediate at least one.
    """
    found = {"uisa": None, "csa2": None, "intermediate": None}
    for t, part, forward, reverse in _splits(order, idx):
        if len(forward) == 1 and len(reverse) == 1:
            continue
        where = {"transition": t.as_tuple(), "split": list(part)}
        if found["csa2"] is None:
            found["csa2"] = dict(where, forward_intermediates=forward, reverse_intermediates=reverse)
        if len(forward) != 1 and found["uisa"] is None:
            found["uisa"] = dict(where, intermediates=forward)
        if not forward:  # uisa and csa2 have failed by now too
            found["intermediate"] = dict(where, intermediates=forward)
            break
    return found


def _check_csa3(order, idx):
    for t in _from_arity(order, 3):
        inter, table = idx.splits(t.src, t.acts, t.tgt), _decompositions(t.acts)
        for a_part, bc_part in table.splits:
            if len(bc_part) < 2:  # parts come smallest first: no later rest splits either
                break
            # per n1 splitting t after A, the split table of (n1, B+C, t.tgt)
            belows = [(n1, idx.splits(n1, bc_part, t.tgt)) for n1 in inter[a_part]]
            for b_part, c_part in _decompositions(bc_part).splits if belows else ():
                ab_part = table.rest[c_part]
                # pairs (n1', n2'): n2' splits t after A+B, n1' splits (t.src, A+B, n2') after A
                primes = [
                    (n1p, n2p)
                    for n2p in inter[ab_part]
                    for n1p in idx.splits(t.src, ab_part, n2p)[a_part]
                ]
                for n1, below in belows if primes else ():
                    for n2 in below[b_part]:  # n2 splits (n1, B+C, t.tgt) after B
                        for n1p, n2p in primes:
                            if (n1, n2) != (n1p, n2p):
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
    order = system.sorted_transitions()
    idx = _Index(order)
    found = {
        "coherence": _check_coherence(order, idx),
        "csa1": _check_csa1(order, system.label_map()),
        **_check_splits(order, idx),
        "csa3": _check_csa3(order, idx),
    }
    witnesses = {name: w for name, w in found.items() if w is not None}
    ok = {name: w is None for name, w in found.items()}
    return AxiomReport(coherence_closed=ok.pop("coherence"), **ok, witnesses=witnesses)


def uisa_holds(transitions: Iterable[Transition]) -> bool:
    """Unique-intermediate check on a bare transition set."""
    order = _ordered(transitions)
    return all(len(forward) == 1 for _, _, forward, _ in _splits(order, _Index(order)))


# ---------------------------------------------------------------------------
# cube systems


def cube(word: Sequence[str]) -> WeakHDTS:
    """The transition system of the labelled cube on ``word``.

    States are the bit vectors of length n, actions are (letter, i) for
    each direction i, and there is one canonical transition for every
    pair of distinct comparable vertices, carrying the directions where
    they differ.
    """
    word = tuple(word)
    states, transitions = _cube_frame(len(word))
    return WeakHDTS(states, tuple(Action(i, x) for i, x in enumerate(word, 1)), transitions)


@lru_cache(maxsize=None)
def _cube_frame(n: int) -> tuple[frozenset[int], frozenset[Transition]]:
    """The states and transitions of every cube on n letters."""
    states = frozenset(cube_state_id(eps) for eps in cube_vertices(n))
    trans = set()
    for lo in cube_vertices(n):
        for hi in cube_vertices(n):
            if lo == hi or any(a > b for a, b in zip(lo, hi)):
                continue
            dirs = tuple(i + 1 for i in range(n) if lo[i] != hi[i])
            trans.add(Transition(cube_state_id(lo), dirs, cube_state_id(hi)))
    return states, frozenset(trans)


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
    """The identity morphism of ``system``."""
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
    """The coproduct of systems: their colimit with no arrows."""
    return colimit(list(objects)).system


# ---------------------------------------------------------------------------
# morphism enumeration and isomorphism search


def _homs(src: WeakHDTS, dst: WeakHDTS, injective: bool):
    """Morphisms src -> dst, injective ones only with ``injective``.

    States are assigned breadth-first along src's transitions: the first
    state of a component takes any state, and every later one a state
    that its assigned neighbour's image reaches by a transition with the
    same label word.  A transition's actions come right after both its
    ends, and each transition is checked when the last of its states
    and actions is assigned.
    """
    src_label, dst_label = src.label_map(), dst.label_map()
    by_label: dict[str, list[int]] = defaultdict(list)
    for a in dst.actions:  # sorted by id
        by_label[a.label].append(a.id)
    reach = defaultdict(set)  # (state, direction, label word) -> neighbours
    for t in dst.transitions:
        word = tuple(sorted(map(dst_label.get, t.acts)))
        reach[(t.src, 1, word)].add(t.tgt)
        reach[(t.tgt, -1, word)].add(t.src)
    reach = {key: sorted(ends) for key, ends in reach.items()}
    dst_trans = {(t.src, t.acts, t.tgt) for t in dst.transitions}

    touching: dict[int, list[Transition]] = defaultdict(list)
    for t in _ordered(src.transitions):
        touching[t.src].append(t)
        if t.tgt != t.src:
            touching[t.tgt].append(t)
    via: dict[tuple, tuple | None] = {}  # the variables in order: state -> (neighbour, dir, word)
    for root in sorted(src.states):
        if ("s", root) in via:
            continue
        via["s", root] = None
        queue = [root]
        for s in queue:  # breadth first: the queue grows while it is read
            for t in touching[s]:
                u, d = (t.tgt, 1) if t.src == s else (t.src, -1)
                if ("s", u) not in via:
                    via["s", u] = (s, d, tuple(sorted(map(src_label.get, t.acts))))
                    queue.append(u)
                for a in t.acts:
                    via.setdefault(("a", a))
    for a in src.action_ids:
        via.setdefault(("a", a))
    order = list(via)
    rank = {var: k for k, var in enumerate(order)}
    checked_at = defaultdict(list)  # the last variable of each transition
    for t in src.transitions:
        ends = [("s", t.src), ("s", t.tgt)] + [("a", a) for a in t.acts]
        checked_at[max(ends, key=rank.__getitem__)].append(t)
    dst_states = sorted(dst.states)

    def candidates(var, assign):
        if var[0] == "a":
            return by_label.get(src_label[var[1]], ())
        if via[var] is None:
            return dst_states
        s, d, word = via[var]
        return reach.get((assign["s", s], d, word), ())

    def consistent(var, value, assign):
        at = {**assign, var: value} if checked_at[var] else assign
        return all(
            (at["s", t.src], tuple(sorted(at["a", a] for a in t.acts)), at["s", t.tgt]) in dst_trans
            for t in checked_at[var]
        )

    for assign in backtrack(order, candidates, consistent, injective):
        smap = {x: v for (sort, x), v in assign.items() if sort == "s"}
        yield HdtsMorphism(src, dst, smap, {x: v for (sort, x), v in assign.items() if sort == "a"})


def hom_enumerate(src: WeakHDTS, dst: WeakHDTS) -> list[HdtsMorphism]:
    """All morphisms src -> dst, sorted by ``key()``; worst case exponential."""
    return sorted(_homs(src, dst, False), key=HdtsMorphism.key)


def is_orthogonal(system: WeakHDTS, f: HdtsMorphism) -> bool:
    """True iff every morphism f.src -> system factors uniquely through f."""
    via = [compose_morphisms(f, h).key() for h in hom_enumerate(f.dst, system)]
    return sorted(via) == [h.key() for h in hom_enumerate(f.src, system)]


def iso_check(left: WeakHDTS, right: WeakHDTS) -> HdtsMorphism | None:
    """An isomorphism left -> right if one exists, found deterministically:
    an injective morphism between systems of equal sizes."""
    sizes = [(len(z.states), len(z.actions), len(z.transitions)) for z in (left, right)]
    return next(_homs(left, right, True), None) if sizes[0] == sizes[1] else None
