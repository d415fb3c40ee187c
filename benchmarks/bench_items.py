"""Seeded items for the three benchmark workloads, with independent references.

Every item is one call a user makes: ``hdts.cli.main(argv)`` on files
written here, or a library ``is_orthogonal`` verdict.  The expected
answers come from closed forms and hand-written verdicts in this file,
never from the package under test, and every input document is built
here from first principles rather than by the package.

A workload is a stream of *decks*.  A deck always holds the same shape
classes in the same proportions; the seed chooses labels, lengths,
component order, restrictions and state numbering inside each class.
This keeps the cost of a deck, and so the medians and percentiles of a
run, steady across seeds, while no two items of a run are equal.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("compile-par", "compile-rec", "check")

TAU = "tau"
# Labels come from a large name space, so that items of one shape stay
# distinct however many decks a run gets through: "p<k>" has no partner,
# "s<k>" is paired with "s<k>bar".
NAMES = 10_000


def plain_labels(rng: random.Random, n: int) -> list[str]:
    return [f"p{k}" for k in rng.sample(range(NAMES), n)]


def sync_labels(rng: random.Random, n: int) -> list[str]:
    return [f"s{k}" for k in rng.sample(range(NAMES), n)]


def bar(label: str) -> str | None:
    if label.endswith("bar"):
        return label[:-3]
    return label + "bar" if label.startswith("s") else None


def alphabet_doc(labels) -> dict:
    """The alphabet of an item: its labels, their partners and tau."""
    pairs = sorted({tuple(sorted((x, bar(x)))) for x in labels if bar(x)})
    names = set(labels) | {x for p in pairs for x in p} | {TAU}
    return {"labels": sorted(names), "tau": TAU, "involution": [list(p) for p in pairs]}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@dataclass
class Item:
    """One timed call.

    ``argv`` names files by their key in ``files``; the runner writes
    those files into its work directory and substitutes their paths.
    A library item has ``argv`` None and ``orthogonal`` set to
    ``(system document, word)``.  ``exit`` is the expected exit code;
    ``check`` gets stdout and stderr and returns a description of the
    mismatch with the reference, or None.
    """

    tag: str
    argv: list[str] | None
    files: dict[str, str]
    exit: int
    check: Callable[[str, str], str | None]
    orthogonal: tuple | None = None
    key: str = field(init=False, default="")

    def __post_init__(self):
        # a digest, so that the keys a run remembers stay small
        text = json.dumps([self.argv, sorted(self.files.items()), self.orthogonal], sort_keys=True)
        self.key = hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# reference checks


def _cell_counts(doc) -> dict[int, int]:
    return {int(n): len(rows) for n, rows in doc["dims"].items() if rows}


def expect_cells(want: dict[int, int], truncated: bool = False):
    """A compile item's output must have ``want[n]`` cells in dimension n."""

    def check(out, err):
        got = _cell_counts(json.loads(out))
        if got != want:
            return f"cells {got}, expected {want}"
        if truncated != ("truncated" in err):
            return f"truncation warning {'missing' if truncated else 'unexpected'}"
        return None

    return check


def expect_report(**axioms):
    """A ``check`` report with the given axiom verdicts."""

    def check(out, err):
        report = json.loads(out)
        wrong = {k: report.get(k) for k, v in axioms.items() if report.get(k) is not v}
        return f"verdicts {wrong}, expected {axioms}" if wrong else None

    return check


def expect_system(states: int, actions: int | None, transitions: int | None):
    """A ``realize`` output with the given numbers of states, actions, transitions."""

    def check(out, err):
        doc = json.loads(out)
        got = (len(doc["states"]), len(doc["actions"]), len(doc["transitions"]))
        want = (states, actions, transitions)
        if any(w is not None and g != w for g, w in zip(got, want)):
            return f"system sizes {got}, expected {want}"
        return None

    return check


def expect_cubified(states: int, transitions: int):
    """``cubify`` must give a state bijection onto ``states`` states."""

    def check(out, err):
        doc = json.loads(out)
        att, system = doc["attestation"], doc["system"]
        got = (att["state_bijection"], att["states"], len(system["states"]),
               len(system["transitions"]))
        want = (True, states, states, transitions)
        return None if got == want else f"cubify {got}, expected {want}"

    return check


def expect_input_error(out, err):
    return None if err.startswith("error:") and not out else "no one-line error"


# ---------------------------------------------------------------------------
# compile-par: parallel terms and the cell counts of their products
#
# A component is a prefix path of l edges (l + 1 vertices), a synchronizing
# pair "x.nil || xbar.nil" (a square, its swap, and one silent diagonal), or
# that pair restricted on x (only the diagonal survives).  Components that
# share no complementary labels multiply freely: with g_p the geometric
# p-cubes of each component, the product has sum over p+q=n of the
# coefficient products, and each geometric n-cube is n! symmetric cells.
# For k one-letter paths this is C(k,n) 2^(k-n) n!: 10, 38, 168, 872 cells
# for k = 2, 3, 4, 5.


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def product_cells(geometric: list[list[int]]) -> dict[int, int]:
    total = [1]
    for g in geometric:
        total = _poly_mul(total, g)
    return {n: c * math.factorial(n) for n, c in enumerate(total) if c}


def interleaving_cells(k: int) -> dict[int, int]:
    return product_cells([[2, 1]] * k)


def _compile_item(tag: str, text: str, labels, unfold: int, check) -> Item:
    argv = ["ccs", "compile", text, "--alphabet", "alphabet.json", "--unfold", str(unfold)]
    return Item(tag, argv, {"alphabet.json": dumps(alphabet_doc(labels))}, 0, check)


def par_item(rng: random.Random, tag: str, parts: list) -> Item:
    """A parallel term over ``parts``: ints are path lengths, "sync" and
    "syncnu" are synchronizing pairs, free or restricted.  A "nu" entry
    restricts one path label over the whole term."""
    plain, sync = plain_labels(rng, 12), sync_labels(rng, 4)
    used = []
    parts = list(parts)
    restrict_outer = "nu" in parts
    if restrict_outer:
        parts.remove("nu")
    rng.shuffle(parts)
    texts, geometric, paths = [], [], []
    for part in parts:
        if part == "sync" or part == "syncnu":
            x = sync.pop()
            used.append(x)
            pair = f"({x}.nil || {bar(x)}.nil)"
            if part == "sync":
                texts.append(pair)
                geometric.append([4, 5, 1])
            else:
                texts.append(f"(nu {x}){pair}")
                geometric.append([4, 1])
        else:
            word = [plain.pop() for _ in range(part)]
            used += word
            texts.append(".".join(word) + ".nil")
            geometric.append([part + 1, part])
            paths.append((len(geometric) - 1, word))
    term = " || ".join(texts)
    if restrict_outer:
        gi, word = rng.choice(paths)
        banned = rng.choice(word)
        geometric[gi] = [len(word) + 1, len(word) - 1]
        term = f"(nu {banned})({term})"
    return _compile_item(tag, term, used, 8, expect_cells(product_cells(geometric)))


# ---------------------------------------------------------------------------
# compile-rec: sequential terms and the sizes of their trees
#
# Without "||" every term compiles to a tree: a prefix adds one vertex and
# one edge, a sum glues two trees at their roots, and a restriction drops
# the edges carrying its label or its partner but keeps every vertex.
# "rec(x) body" with x free in the body never stabilizes, so the result
# is the unfold-th stage, with a truncation warning; with x absent it
# stabilizes on the body itself.


def _tree_size(term, stage=None):
    """(vertices, edge-label counts) of a term tree from _rand_tree."""
    kind = term[0]
    if kind == "nil":
        return 1, Counter()
    if kind == "x":
        return stage
    if kind == "pre":
        v, e = _tree_size(term[2], stage)
        return v + 1, e + Counter([term[1]])
    if kind == "sum":
        lv, le = _tree_size(term[1], stage)
        rv, re_ = _tree_size(term[2], stage)
        return lv + rv - 1, le + re_
    if kind == "nu":
        v, e = _tree_size(term[2], stage)
        return v, Counter({k: c for k, c in e.items() if k not in (term[1], bar(term[1]))})
    raise ValueError(kind)


def _tree_text(term) -> str:
    kind = term[0]
    if kind == "nil":
        return "nil"
    if kind == "x":
        return "x"
    if kind == "pre":
        return f"{term[1]}.{_tree_text(term[2])}"
    if kind == "sum":
        return f"({_tree_text(term[1])} + {_tree_text(term[2])})"
    return f"(nu {term[1]}){_tree_text(term[2])}"


def _rand_tree(rng: random.Random, prefixes: int, leaf, labels: list[str], nu: bool):
    """A random tree term with exactly ``prefixes`` prefixes; leaves are ``leaf``."""
    if prefixes == 0:
        return (leaf,)
    if prefixes >= 2 and rng.random() < 0.4:
        left = rng.randint(1, prefixes - 1)
        return ("sum", _rand_tree(rng, left, leaf, labels, nu),
                _rand_tree(rng, prefixes - left, leaf, labels, nu))
    label = rng.choice(labels)
    body = ("pre", label, _rand_tree(rng, prefixes - 1, leaf, labels, nu))
    if nu and rng.random() < 0.2:
        return ("nu", rng.choice(labels), body)
    return body


def _rec_size(body, unfold: int):
    stage = (1, Counter())
    for _ in range(unfold):
        stage = _tree_size(body, stage)
    return stage


def _tree_cells(size) -> dict[int, int]:
    v, e = size
    edges = sum(e.values())
    return {0: v, 1: edges} if edges else {0: v}


def tree_item(rng: random.Random, tag: str, prefixes: int) -> Item:
    """Nested sums, prefixes and restrictions, with no recursion."""
    labels = plain_labels(rng, 4) + sync_labels(rng, 2)
    term = _rand_tree(rng, prefixes, "nil", labels, nu=True)
    return _compile_item(tag, _tree_text(term), labels, 8,
                         expect_cells(_tree_cells(_tree_size(term))))


def stable_rec_item(rng: random.Random, tag: str, prefixes: int) -> Item:
    """``rec(x) body`` with x absent from the body: stabilizes on the body."""
    labels = plain_labels(rng, 4)
    body = _rand_tree(rng, prefixes, "nil", labels, nu=False)
    return _compile_item(tag, f"rec(x) {_tree_text(body)}", labels, rng.randint(3, 9),
                         expect_cells(_tree_cells(_tree_size(body))))


def growing_rec_item(rng: random.Random, tag: str, chains: tuple, unfold: int) -> Item:
    """``rec(x) body`` whose summands are prefix chains of the given
    lengths ending in x; the stages grow until the unfold bound.
    ``chains=(1, 1)`` is ``rec(x) (a.x + b.x)``, whose stages double."""
    labels = plain_labels(rng, sum(chains))
    used = list(labels)
    arms = []
    for length in chains:
        term = ("x",)
        for _ in range(length):
            term = ("pre", labels.pop(), term)
        arms.append(term)
    body = arms[0]
    for arm in arms[1:]:
        body = ("sum", body, arm)
    return _compile_item(tag, f"rec(x) {_tree_text(body)}", used, unfold,
                         expect_cells(_tree_cells(_rec_size(body, unfold)), truncated=True))


# ---------------------------------------------------------------------------
# check: documents built from first principles
#
# The cube system on an n-letter word has the 2^n bit vectors as states
# and one transition for each pair of distinct comparable vertices, so
# 3^n - 2^n transitions; it passes every axiom.  The standard n-cube as a
# symmetric precubical set has, in dimension m, one cell for each ordered
# choice of m free coordinates and each value of the others.


def cube_system(word, state_base: int = 0, action_base: int = 1) -> dict:
    n = len(word)
    trans = []
    for lo in range(1 << n):
        for hi in range(1 << n):
            if lo != hi and lo & hi == lo:
                acts = [action_base + i for i in range(n) if (hi ^ lo) >> i & 1]
                trans.append({"src": state_base + lo, "acts": acts, "tgt": state_base + hi})
    return {
        "states": [state_base + s for s in range(1 << n)],
        "actions": [{"id": action_base + i, "label": lab} for i, lab in enumerate(word)],
        "transitions": trans,
    }


def wedge_system(w1, w2, rng: random.Random) -> dict:
    """Two cube systems glued at one state of each."""
    left = cube_system(w1)
    right = cube_system(w2, state_base=1 << len(w1), action_base=len(w1) + 1)
    a, b = rng.choice(left["states"]), rng.choice(right["states"])
    glue = lambda s: a if s == b else s  # noqa: E731
    trans = left["transitions"] + [
        {"src": glue(t["src"]), "acts": t["acts"], "tgt": glue(t["tgt"])}
        for t in right["transitions"]
    ]
    states = left["states"] + [s for s in right["states"] if s != b]
    return {"states": states, "actions": left["actions"] + right["actions"], "transitions": trans}


def with_parallel_edge(doc: dict, rng: random.Random) -> dict:
    """Add a second action with the label of an existing edge, between its
    endpoints: the label-determinism axiom (csa1) then fails."""
    edge = rng.choice([t for t in doc["transitions"] if len(t["acts"]) == 1])
    label = next(a["label"] for a in doc["actions"] if a["id"] == edge["acts"][0])
    new_id = max(a["id"] for a in doc["actions"]) + 1
    return {
        "states": doc["states"],
        "actions": doc["actions"] + [{"id": new_id, "label": label}],
        "transitions": doc["transitions"] + [{"src": edge["src"], "acts": [new_id], "tgt": edge["tgt"]}],
    }


def states_rebased(doc: dict, base: int) -> dict:
    """The same system with every state id moved up by ``base``."""
    return {
        "states": [q + base for q in doc["states"]],
        "actions": doc["actions"],
        "transitions": [dict(t, src=t["src"] + base, tgt=t["tgt"] + base)
                        for t in doc["transitions"]],
    }


def two_intermediates(u: str, v: str) -> dict:
    """A square whose u|v split has two intermediate states: UISA fails."""
    return {
        "states": [0, 1, 2, 3, 4],
        "actions": [{"id": 1, "label": u}, {"id": 2, "label": v}],
        "transitions": [
            {"src": 0, "acts": [1], "tgt": 1}, {"src": 1, "acts": [2], "tgt": 3},
            {"src": 0, "acts": [2], "tgt": 2}, {"src": 2, "acts": [1], "tgt": 3},
            {"src": 0, "acts": [1], "tgt": 4}, {"src": 4, "acts": [2], "tgt": 3},
            {"src": 0, "acts": [1, 2], "tgt": 3},
        ],
    }


def _cube_cells(n: int):
    """Cells of the standard n-cube: dim -> list of (free coords, fixed values)."""
    cells = {}
    for m in range(n + 1):
        rows = []
        for free in itertools.permutations(range(n), m):
            rest = [i for i in range(n) if i not in free]
            for vals in itertools.product((0, 1), repeat=len(rest)):
                rows.append((free, tuple(zip(rest, vals))))
        cells[m] = rows
    return cells


def standard_cube_parts(word):
    """(dims rows) of the standard cube on ``word`` with ids 0.. per dimension."""
    n = len(word)
    cells = _cube_cells(n)
    index = {m: {c: k for k, c in enumerate(rows)} for m, rows in cells.items()}

    def face(free, fixed, i, alpha):
        f = free[:i - 1] + free[i:]
        return index[len(f)][(f, tuple(sorted(fixed + ((free[i - 1], alpha),))))]

    dims = {}
    for m, rows in cells.items():
        out = []
        for k, (free, fixed) in enumerate(rows):
            row = {"id": k}
            if m == 1:
                row["d10"], row["d11"] = face(free, fixed, 1, 0), face(free, fixed, 1, 1)
            elif m >= 2:
                row["faces"] = {f"{i},{a}": face(free, fixed, i, a)
                                for i in range(1, m + 1) for a in (0, 1)}
                row["syms"] = {
                    str(i): index[m][(free[:i - 1] + (free[i], free[i - 1]) + free[i + 1:], fixed)]
                    for i in range(1, m)
                }
            if m >= 1:
                row["label"] = [word[c] for c in free]
            out.append(row)
        dims[m] = out
    return dims


def _shift(dims, offsets, vertex_map):
    """Renumber the cells of dimension >= 1 by per-dimension offsets;
    edge endpoints go through ``vertex_map`` after their shift."""
    out = {}
    for m, rows in dims.items():
        if m == 0:
            continue
        new = []
        for row in rows:
            r = dict(row, id=row["id"] + offsets[m])
            if m == 1:
                r["d10"] = vertex_map(row["d10"] + offsets[0])
                r["d11"] = vertex_map(row["d11"] + offsets[0])
            else:
                r["faces"] = {k: v + offsets[m - 1] for k, v in row["faces"].items()}
                r["syms"] = {k: v + offsets[m] for k, v in row["syms"].items()}
            new.append(r)
        out[m] = new
    return out


def _precube_doc(dims) -> dict:
    return {"dims": {str(m): rows for m, rows in sorted(dims.items()) if rows}}


def standard_cube_doc(word) -> dict:
    return _precube_doc(standard_cube_parts(word))


def wedge_precube_doc(w1, w2, rng: random.Random) -> dict:
    """Two standard cubes glued at one vertex of each."""
    left, right = standard_cube_parts(w1), standard_cube_parts(w2)
    offsets = {m: len(left.get(m, ())) for m in range(max(len(w1), len(w2)) + 1)}
    a = rng.randrange(len(left[0]))
    b = rng.randrange(len(right[0])) + offsets[0]
    # the right cube's vertices above b move down one to keep ids contiguous
    vmap = lambda v: a if v == b else (v - 1 if v > b else v)  # noqa: E731
    dims = _shift(right, offsets, vmap)
    dims[0] = [{"id": vmap(r["id"] + offsets[0])} for r in right[0] if r["id"] + offsets[0] != b]
    return _precube_doc({m: left.get(m, []) + dims.get(m, []) for m in offsets})


def double_square_doc(word) -> dict:
    """Two fillers with the same boundary: the 2-cells of a square, twice."""
    dims = standard_cube_parts(word)
    twice = [dict(r, id=r["id"] + 2, syms={"1": r["syms"]["1"] + 2}) for r in dims[2]]
    dims[2] = dims[2] + twice
    return _precube_doc(dims)


def not_strong_doc(u: str, v: str, w: str) -> dict:
    """Five vertices and three labelled squares; the (u, v) square and the
    edges through vertex 3 give one split two intermediate states."""
    edges = [(u, 0, 2), (u, 0, 3), (u, 1, 4), (v, 0, 1), (v, 2, 4), (v, 3, 4),
             (w, 0, 0), (w, 2, 3), (w, 4, 4)]
    squares = [((u, w), 6, 7, 0, 1), ((v, w), 7, 8, 4, 5), ((u, v), 3, 4, 0, 2)]
    rows2 = []
    for k, (word, d10, d11, d20, d21) in enumerate(squares):
        rows2.append({"id": k, "label": list(word), "syms": {"1": k + 3},
                      "faces": {"1,0": d10, "1,1": d11, "2,0": d20, "2,1": d21}})
    for k, (word, d10, d11, d20, d21) in enumerate(squares):
        rows2.append({"id": k + 3, "label": [word[1], word[0]], "syms": {"1": k},
                      "faces": {"1,0": d20, "1,1": d21, "2,0": d10, "2,1": d11}})
    return {"dims": {
        "0": [{"id": i} for i in range(5)],
        "1": [{"id": e, "d10": lo, "d11": hi, "label": [lab]} for e, (lab, lo, hi) in enumerate(edges)],
        "2": rows2,
    }}


# The check workload uses a small alphabet, as a user's files would, and
# action ids from 1.  Words of up to five letters come from "abcde" only,
# so the caches keyed by label words (``_cube_cached``) and by action ids
# (``proper_submultisets``) are full after the warm-up deck, as in a long
# session, and memory does not grow with the number of decks a run gets
# through.  Seeded state ids and label orders keep the items distinct.
CHECK_LABELS = tuple("abcdef")


def _word(rng: random.Random, n: int) -> list[str]:
    return rng.sample(CHECK_LABELS[:max(n, 5)], n)


def rebased(doc: dict, base: int) -> dict:
    """The same precubical set with every cell id moved up by ``base``."""
    dims = {}
    for m, rows in doc["dims"].items():
        new = []
        for row in rows:
            r = dict(row, id=row["id"] + base)
            for end in ("d10", "d11"):
                if end in row:
                    r[end] = row[end] + base
            for part in ("faces", "syms"):
                if part in row:
                    r[part] = {k: v + base for k, v in row[part].items()}
            new.append(r)
        dims[m] = new
    return {"dims": dims}


def check_system_item(rng, tag: str, n: int) -> Item:
    doc = cube_system(_word(rng, n), state_base=rng.randrange(1000))
    return Item(tag, ["check", "doc.json"], {"doc.json": dumps(doc)}, 0,
                expect_report(coherence_closed=True, csa1=True, csa2=True, csa3=True,
                              uisa=True, intermediate=True))


def check_failing_item(rng, tag: str, n: int) -> Item:
    doc = cube_system(_word(rng, n), state_base=rng.randrange(1000))
    doc = with_parallel_edge(doc, rng)
    return Item(tag, ["check", "doc.json"], {"doc.json": dumps(doc)}, 1,
                expect_report(csa1=False, uisa=True, coherence_closed=True))


def check_wedge_item(rng, tag: str, n1: int, n2: int) -> Item:
    doc = states_rebased(wedge_system(_word(rng, n1), _word(rng, n2), rng), rng.randrange(1000))
    return Item(tag, ["check", "doc.json"], {"doc.json": dumps(doc)}, 0,
                expect_report(csa1=True, uisa=True, coherence_closed=True))


def precube_check_item(rng, tag: str, shape: str, n: int = 2) -> Item:
    """``check`` on a precube: standard cubes and wedges pass; a double
    square has two fillers on one boundary; notstrong fails UISA."""
    passing = expect_report(strong=True, hda=True, csa1=True)
    if shape == "cube":
        doc, code, want = standard_cube_doc(_word(rng, n)), 0, passing
    elif shape == "wedge":
        doc, code, want = wedge_precube_doc(_word(rng, n), _word(rng, 2), rng), 0, passing
    elif shape == "double":
        doc, code, want = double_square_doc(_word(rng, 2)), 1, expect_report(hda=False)
    else:
        doc, code = not_strong_doc(*_word(rng, 3)), 1
        want = expect_report(strong=False, uisa=False, hda=True, csa1=True)
    doc = rebased(doc, rng.randrange(1000))
    return Item(tag, ["check", "doc.json"], {"doc.json": dumps(doc)}, code, want)


def realize_item(rng, tag: str, shape: str, n: int = 2) -> Item:
    """``realize``: the standard n-cube gives the cube system (2^n states,
    n actions, 3^n - 2^n transitions); a wedge gives both cubes sharing
    one state; the double square collapses to the square system."""
    if shape == "cube":
        doc, want = standard_cube_doc(_word(rng, n)), expect_system(2 ** n, n, 3 ** n - 2 ** n)
    elif shape == "wedge":
        doc = wedge_precube_doc(_word(rng, n), _word(rng, 2), rng)
        want = expect_system(2 ** n + 3, n + 2, 3 ** n - 2 ** n + 5)
    else:
        doc, want = double_square_doc(_word(rng, 2)), expect_system(4, 2, 5)
    doc = rebased(doc, rng.randrange(1000))
    return Item(tag, ["realize", "doc.json"], {"doc.json": dumps(doc)}, 0, want)


def cubify_item(rng, tag: str, n: int) -> Item:
    doc = cube_system(_word(rng, n), state_base=rng.randrange(1000))
    return Item(tag, ["cubify", "doc.json"], {"doc.json": dumps(doc)}, 0,
                expect_cubified(2 ** n, 3 ** n - 2 ** n))


def orthogonal_item(rng, tag: str, shape: str) -> Item:
    """``is_orthogonal(X, cube_inclusion(w))``: true on cubes and wedges,
    false on a square with two intermediate states; the runner also
    checks that it agrees with ``validate(X).uisa``."""
    if shape == "cube":
        word = _word(rng, 3)
        doc, w, want = cube_system(word), tuple(rng.sample(word, 2)), True
    elif shape == "wedge":
        w1, w2 = _word(rng, 2), _word(rng, 2)
        doc, w, want = wedge_system(w1, w2, rng), tuple(w1), True
    else:
        u, v = _word(rng, 2)
        doc, w, want = two_intermediates(u, v), (u, v), False

    def check(out, err):
        return None if out == json.dumps(want) else f"verdict {out}, expected {want}"

    return Item(tag, None, {}, 0, check, orthogonal=(states_rebased(doc, rng.randrange(1000)), w))


def malformed_item(rng, tag: str, kind: str) -> Item:
    """Input errors: each must exit 2 with a one-line message."""
    doc = cube_system(_word(rng, 2), state_base=rng.randrange(1000))
    files = {}
    argv = ["check", "doc.json"]
    if kind == "unsorted":
        top = next(t for t in doc["transitions"] if len(t["acts"]) == 2)
        top["acts"].reverse()
    elif kind == "dangling":
        rng.choice(doc["transitions"])["tgt"] = 10_000
    else:  # a label outside the alphabet given with --alphabet
        doc["actions"][0]["label"] = "zz" + doc["actions"][0]["label"]
        files["alphabet.json"] = dumps(alphabet_doc(a["label"] for a in doc["actions"][1:]))
        argv += ["--alphabet", "alphabet.json"]
    files["doc.json"] = dumps(doc)
    return Item(tag, argv, files, 2, expect_input_error)


# ---------------------------------------------------------------------------
# decks
#
# A deck is 30 items (45 for check); the lines below run from the cheapest
# class to the dearest.  The median falls on rank 15 (22) of a sorted deck
# and the 90th percentile on rank 27 (40): each sits inside a run of items
# of near-equal cost, never on the edge between two classes, so the
# percentiles do not jump when the seed or the number of decks in a run
# changes.  A slot with several alternatives takes them in turn by deck.

DECKS: dict[str, list[tuple]] = {
    "compile-par": [
        (1, (par_item, "par.k2", [1, 1])),
        (1, (par_item, "par.k2", [2, 3])),
        (1, (par_item, "par.k2", [3, 3])),
        (1, (par_item, "par.k2", [1, 3])),
        (1, (par_item, "par.sync", ["sync"])),
        (1, (par_item, "par.sync", ["syncnu"])),
        (1, (par_item, "par.k2", ["syncnu", 2])),
        (1, (par_item, "par.k2", [2, 2, "nu"])),
        (1, (par_item, "par.k2", [1, 2, "nu"])),
        (2, (par_item, "par.k3", ["syncnu", 1, 1])),
        (2, (par_item, "par.k2", ["sync", "syncnu"])),
        (3, (par_item, "par.k3", [1, 1, 1])),
        (2, (par_item, "par.k2", ["sync", 1])),
        (1, (par_item, "par.k2", ["sync", 1, "nu"])),
        (2, (par_item, "par.k3", [2, 1, 1])),
        (2, (par_item, "par.k2", ["sync", 2])),
        (2, (par_item, "par.k3", [2, 2, 1])),
        (4, (par_item, "par.k3", [3, 3, 1])),
        (1, [(par_item, "par.k4", [1, 1, 1, 1]), (par_item, "par.sync2", ["sync", "sync"])]),
    ],
    "compile-rec": [
        (1, (tree_item, "rec.tree", 4)),
        (1, (tree_item, "rec.tree", 8)),
        (1, (tree_item, "rec.tree", 12)),
        (1, (tree_item, "rec.tree", 16)),
        (1, (stable_rec_item, "rec.stable", 3)),
        (1, (stable_rec_item, "rec.stable", 6)),
        (1, (growing_rec_item, "rec.chain", (1,), 9)),
        (1, (growing_rec_item, "rec.chain", (2,), 6)),
        (1, (growing_rec_item, "rec.chain", (3,), 5)),
        (1, (growing_rec_item, "rec.chain", (1, 2), 3)),
        (2, (growing_rec_item, "rec.branch", (1, 1), 3)),
        (7, (growing_rec_item, "rec.branch", (1, 1), 4)),
        (3, (growing_rec_item, "rec.branch", (1, 1), 5)),
        (3, (growing_rec_item, "rec.branch", (1, 1, 1), 4)),
        (4, (growing_rec_item, "rec.branch", (1, 1), 6)),
        (1, [(growing_rec_item, "rec.branch", (1, 1), 9),
             (growing_rec_item, "rec.branch", (1, 1, 1), 6)]),
    ],
    "check": [
        (1, (orthogonal_item, "orth.cube", "cube")),
        (1, (orthogonal_item, "orth.wedge", "wedge")),
        (1, (orthogonal_item, "orth.fail", "bad")),
        (1, (malformed_item, "bad.unsorted", "unsorted")),
        (1, (malformed_item, "bad.dangling", "dangling")),
        (1, (malformed_item, "bad.label", "label")),
        (2, (check_failing_item, "check.fail", 2)),
        (2, (check_system_item, "check.cube", 2)),
        (2, (realize_item, "realize.double", "double")),
        (2, (check_wedge_item, "check.wedge", 2, 2)),
        (2, (precube_check_item, "check.pcube", "cube", 2)),
        (2, (precube_check_item, "check.pwedge", "wedge", 2)),
        (2, (precube_check_item, "check.double", "double")),
        (2, (precube_check_item, "check.notstrong", "notstrong")),
        (2, (realize_item, "realize.cube", "cube", 2)),
        (2, (realize_item, "realize.wedge", "wedge", 2)),
        (2, (cubify_item, "cubify.cube", 2)),
        (2, (check_system_item, "check.cube", 3)),
        (2, (realize_item, "realize.cube", "cube", 3)),
        (2, (precube_check_item, "check.pcube", "cube", 3)),
        (2, (check_failing_item, "check.fail", 4)),
        (2, (cubify_item, "cubify.cube", 3)),
        (5, (check_system_item, "check.cube", 4)),
        (1, [(check_system_item, "check.cube", 5), (cubify_item, "cubify.cube", 4)]),
        (1, [(cubify_item, "cubify.cube", 5), (check_system_item, "check.cube", 6)]),
    ],
}


def make_deck(workload: str, rng: random.Random, seen: set[str], index: int) -> list[Item]:
    """Deck number ``index`` of a run, shuffled, every item new to ``seen``,
    which holds the keys of all items made so far in the run."""
    items = []
    for count, spec in DECKS[workload]:
        if isinstance(spec, list):
            spec = spec[index % len(spec)]
        maker, *args = spec
        for _ in range(count):
            for _ in range(1000):
                item = maker(rng, *args)
                if item.key not in seen:
                    break
            else:
                raise RuntimeError(f"no fresh {args[0]} item")
            seen.add(item.key)
            items.append(item)
    rng.shuffle(items)
    return items
