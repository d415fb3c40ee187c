"""Process terms and their labelled symmetric precubical set semantics.

Grammar (prefix binds tighter than +, + tighter than ||):

    P ::= nil | a.P | (nu a) P | P + P | P || P | rec(x) P | x

Identifiers are [a-z][a-zA-Z0-9_]*; ``a^-`` names the involution
partner of ``a``.  Recursion variables must be bound and guarded by a
prefix inside their binder; the parser checks both as it reads each
variable.

The semantics builds a decorated precubical set with a distinguished
initial vertex: a prefix puts one edge in front of its body, a sum joins
its summands at their initial vertices, restriction keeps the cells
whose label word avoids the restricted pair, and parallel composition is
the synchronized tensor product.  One iterative walk numbers the cells
of a region of nil, prefix, sum and restriction nodes, writes its vertex
and edge rows itself and copies any other subterm's set in with
``precube.write_rows``; the initial vertex of every result but a
parallel composition is decorated with its term.  ``rec(x) P`` is read
off the term: if ``x`` is not free in ``P`` the body is its own
fixpoint, and otherwise the term is unfolded to a depth bound and the
result flagged truncated (no stage of a guarded unfolding can equal the
one before: each holds the previous one under a prefix, and no operator
loses vertices).  The last stage is one term that shares every earlier
stage (``subst``), and it is compiled as one region, not stage by stage.
"""

from __future__ import annotations

import re
from collections import ChainMap, Counter
from dataclasses import dataclass, replace
from itertools import count

from .alphabet import Alphabet
from .precube import PrecubeError, PrecubicalSet, write_rows
from .sync import tensor_sync


class CcsSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# terms


class ProcessTerm:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(ProcessTerm):
    pass


@dataclass(frozen=True)
class Prefix(ProcessTerm):
    label: str
    body: ProcessTerm


@dataclass(frozen=True)
class Restrict(ProcessTerm):
    label: str
    body: ProcessTerm


@dataclass(frozen=True)
class Sum(ProcessTerm):
    left: ProcessTerm
    right: ProcessTerm


@dataclass(frozen=True)
class Par(ProcessTerm):
    left: ProcessTerm
    right: ProcessTerm


@dataclass(frozen=True)
class Rec(ProcessTerm):
    var: str
    body: ProcessTerm


@dataclass(frozen=True)
class Var(ProcessTerm):
    name: str


_PAR, _SUM, _PREFIX = 0, 1, 2
_WALKED = (Nil, Prefix, Sum, Restrict)  # the nodes of a region, see _Region


def term_str(t: ProcessTerm, level: int = _PAR) -> str:
    return _term_text(t, level, {})


def _term_text(t: ProcessTerm, level: int, texts: dict) -> str:
    """``term_str(t, level)``, with the unbracketed text and level of
    every subterm kept in ``texts`` by ``id``.  Each entry holds its
    term, so no id in ``texts`` can be reused while the dict lives."""
    got = texts.get(id(t))
    if got is None:
        if isinstance(t, Nil):
            out, at = "nil", _PREFIX
        elif isinstance(t, Var):
            out, at = t.name, _PREFIX
        elif isinstance(t, Prefix):
            out, at = f"{t.label}.{_term_text(t.body, _PREFIX, texts)}", _PREFIX
        elif isinstance(t, Restrict):
            out, at = f"(nu {t.label}) {_term_text(t.body, _PREFIX, texts)}", _PREFIX
        elif isinstance(t, Rec):
            out, at = f"rec({t.var}) {_term_text(t.body, _PREFIX, texts)}", _PREFIX
        elif isinstance(t, Sum):
            left = _term_text(t.left, _SUM, texts)
            out, at = f"{left} + {_term_text(t.right, _SUM + 1, texts)}", _SUM
        elif isinstance(t, Par):
            left = _term_text(t.left, _PAR, texts)
            out, at = f"{left} || {_term_text(t.right, _PAR + 1, texts)}", _PAR
        else:
            raise TypeError(f"not a process term: {t!r}")
        got = texts[id(t)] = (t, out, at)
    _, out, at = got
    return f"({out})" if at < level else out


def subst(t: ProcessTerm, var: str, repl: ProcessTerm) -> ProcessTerm:
    """``t`` with ``repl`` for each free ``var``: every copy is ``repl``
    itself and a subterm without a free ``var`` is returned as is, so a
    recursion stage stays recognisable by identity inside the next one."""
    if isinstance(t, Var):
        return repl if t.name == var else t
    if isinstance(t, Nil):
        return t
    if isinstance(t, (Prefix, Restrict)):
        body = subst(t.body, var, repl)
        return t if body is t.body else type(t)(t.label, body)
    if isinstance(t, (Sum, Par)):
        left, right = subst(t.left, var, repl), subst(t.right, var, repl)
        return t if left is t.left and right is t.right else type(t)(left, right)
    if isinstance(t, Rec):
        if t.var == var:
            return t
        body = subst(t.body, var, repl)
        return t if body is t.body else Rec(t.var, body)
    raise TypeError(f"not a process term: {t!r}")


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<ident>[a-z][a-zA-Z0-9_]*)
      | (?P<par>\|\|)
      | (?P<inv>\^-)
      | (?P<punct>[().+])
    )""",
    re.VERBOSE,
)

_KEYWORDS = {"nil", "rec", "nu"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise CcsSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((val if kind == "punct" else kind, val, m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that also checks scope and guardedness as it
    goes: ``binders`` maps each bound variable to the number of prefixes
    open at its innermost ``rec``, and a variable is guarded where more
    prefixes are open than that."""

    def __init__(self, text: str, cfg: Alphabet):
        self.tokens = _tokenize(text)
        self.cfg = cfg
        self.k = 0
        self.binders: dict[str, int | None] = {}
        self.prefixes = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise CcsSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def label(self) -> str:
        tok = self.expect("ident")
        name = tok[1]
        if self.peek()[0] == "inv":
            self.next()
            partner = self.cfg.bar(name) if name in self.cfg.labels else None
            if partner is None:
                raise CcsSyntaxError(f"label {name!r} has no involution partner", tok[2])
            name = partner
        if name not in self.cfg.labels:
            raise CcsSyntaxError(f"unknown label {name!r}", tok[2])
        return name

    def parse(self) -> ProcessTerm:
        t = self.parse_par()
        tok = self.peek()
        if tok[0] != "eof":
            raise CcsSyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return t

    def parse_par(self) -> ProcessTerm:
        t = self.parse_sum()
        while self.peek()[0] == "par":
            self.next()
            t = Par(t, self.parse_sum())
        return t

    def parse_sum(self) -> ProcessTerm:
        t = self.parse_prefix()
        while self.peek()[0] == "+":
            self.next()
            t = Sum(t, self.parse_prefix())
        return t

    def parse_prefix(self) -> ProcessTerm:
        kind, val, pos = self.peek()
        if kind == "ident" and val == "rec":
            self.next()
            self.expect("(")
            var = self.expect("ident")
            if var[1] in _KEYWORDS:
                raise CcsSyntaxError(f"{var[1]!r} cannot name a variable", var[2])
            self.expect(")")
            outer = self.binders.get(var[1])
            self.binders[var[1]] = self.prefixes
            body = self.parse_prefix()
            self.binders[var[1]] = outer  # None: unbound again
            return Rec(var[1], body)
        if kind == "(" and self.tokens[self.k + 1][:2] == ("ident", "nu"):
            self.k += 2
            pos, label = self.peek()[2], self.label()
            if label == self.cfg.tau:
                raise CcsSyntaxError("the silent label cannot be restricted", pos)
            self.expect(")")
            return Restrict(label, self.parse_prefix())
        if kind == "ident" and val not in _KEYWORDS:
            after = self.tokens[self.k + 1][0]
            if after in (".", "inv"):
                label = self.label()
                self.expect(".")
                self.prefixes += 1
                body = self.parse_prefix()
                self.prefixes -= 1
                return Prefix(label, body)
        return self.parse_atom()

    def parse_atom(self) -> ProcessTerm:
        kind, val, pos = self.next()
        if kind == "ident" and val == "nil":
            return Nil()
        if kind == "ident" and val not in _KEYWORDS:
            bound_at = self.binders.get(val)
            if bound_at is None:
                raise CcsSyntaxError(f"unbound variable {val!r}", pos)
            if bound_at == self.prefixes:
                raise CcsSyntaxError(f"recursion variable {val!r} must be guarded", pos)
            return Var(val)
        if kind == "(":
            t = self.parse_par()
            self.expect(")")
            return t
        raise CcsSyntaxError(f"unexpected token {val!r}", pos)


def parse(text: str, cfg: Alphabet) -> ProcessTerm:
    """Parse a closed process term over the configured alphabet, every
    recursion variable guarded by a prefix inside its binder."""
    return _Parser(text, cfg).parse()


# ---------------------------------------------------------------------------
# semantics


#: The most cells of one region, walked and placed; rec(x) (a.x + b.x) at unfold 16 has 262,141.
MAX_REGION_CELLS = 300_000

_VISIT, _PREFIXED, _LEFT_DONE, _DONE = range(4)  # the steps of a region walk


class _Region:
    """Final ids for the cells of a region of nil, prefix, sum and
    restriction nodes, handed out per dimension in the order one walk
    meets them, and the tables of the set they make.  Only a nil and a
    prefix make a vertex, a prefix's vertex and edge before its body's
    cells, and the walk writes their rows.  A sum walks its left summand,
    then its right one from the same initial vertex.  A restriction bans
    its label and that label's partner below it: a cell whose word meets
    the banned set gets no id.  Any other subterm is a whole set (from
    ``sets``, else compiled and kept there), placed at the next ids in its
    own order with its initial vertex where the walk puts it, and
    ``write_rows`` copies its rows.  A walked node's text goes on its
    initial vertex, over inner nodes' and placed sets'.  Past
    ``MAX_REGION_CELLS`` cells, ``PrecubeError``.
    """

    def __init__(self, cfg: Alphabet, unfold_depth: int, sets: ChainMap, texts: dict):
        self.cfg, self.unfold_depth, self.texts = cfg, unfold_depth, texts
        self.sets = sets.new_child()  # with the sets this region compiles
        self.used, self.room = Counter(), MAX_REGION_CELLS  # ids per dimension, cells left
        vs = {}  # a vertex's three rows are (), so its three tables are one dict
        self.faces, self.syms, self.labels = {0: vs, 1: {}}, {0: vs, 1: {}}, {0: vs, 1: {}}
        self.decoration, self.truncated = {}, False

    def build(self, root: ProcessTerm) -> PrecubicalSet:
        initial = self.walk(root)
        faces, syms, labels = ({n: rows for n, rows in table.items() if rows}
                               for table in (self.faces, self.syms, self.labels))
        return PrecubicalSet(faces, faces, syms, labels, self.decoration, initial, self.truncated)

    def take(self, n: int, k: int) -> int:
        first, self.used[n], self.room = self.used[n], self.used[n] + k, self.room - k
        if self.room < 0:
            raise PrecubeError(f"region too large: over {MAX_REGION_CELLS} cells")
        return first

    def walk(self, root: ProcessTerm) -> int:
        """Number the cells of ``root``; return its initial vertex.  A prefix's edge
        waits for its body's initial vertex, and a sum's right summand for its left's."""
        cfg, texts, take, decoration = self.cfg, self.texts, self.take, self.decoration
        vertices, faces, syms, words = self.faces[0], self.faces[1], self.syms[1], self.labels[1]
        todo = [(_VISIT, root, None, frozenset())]  # (step, term, init, banned or edge)
        got = None  # the initial vertex of the subterm walked last
        while todo:
            step, t, init, extra = todo.pop()
            if step == _VISIT:
                kind = type(t)
                if (kind is Prefix or kind is Nil) and init is None:
                    init = take(0, 1)
                    vertices[init] = ()
                if kind is Prefix:
                    cfg.check_label(t.label)
                    edge = None if t.label in extra else take(1, 1)
                    todo += [(_PREFIXED, t, init, edge), (_VISIT, t.body, None, extra)]
                elif kind is Sum:
                    todo += [(_LEFT_DONE, t, None, extra), (_VISIT, t.left, init, extra)]
                elif kind is Nil:
                    got, decoration[init] = init, "nil"
                elif kind is Restrict:
                    cfg.check_label(t.label)
                    pair = {t.label, cfg.bar(t.label)} - {None}
                    todo += [(_DONE, t, None, None), (_VISIT, t.body, init, extra | pair)]
                else:
                    got = self.place(t, init, extra)
            elif step == _LEFT_DONE:
                todo += [(_DONE, t, None, None), (_VISIT, t.right, got, extra)]
            else:
                if step == _PREFIXED:
                    if extra is not None:
                        faces[extra], syms[extra], words[extra] = (init, got), (), (t.label,)
                    got = init
                decoration[got] = _term_text(t, _PAR, texts)
        return got

    def place(self, t: ProcessTerm, init: int | None, banned: frozenset) -> int:
        K = semantics(t, self.cfg, self.unfold_depth, sets=self.sets, texts=self.texts)
        self.sets.setdefault(id(t), (t, K))
        ids = {}
        for n in K.dims():
            cells = K.ncells(n)
            if n and banned:
                cells = [c for c in cells if banned.isdisjoint(K.labels[n][c])]
            elif not n and init is not None:
                ids[0] = {K.initial: init}
                cells = [c for c in cells if c != K.initial]
            ids.setdefault(n, {}).update(zip(cells, count(self.take(n, len(cells)))))
        write_rows(K, ids, self.faces, self.syms, self.labels)
        for v, name in K.decoration.items():
            self.decoration.setdefault(ids[0][v], name)
        self.truncated = self.truncated or K.truncated
        return ids[0][K.initial]


def _open_nodes(body: ProcessTerm, stage: ProcessTerm) -> tuple[list, bool]:
    """The products and recursions of ``stage = subst(body, x, prev)`` with ``prev`` inside
    that walked nodes reach from the root, and whether they reach ``prev``."""
    found, reached, todo = [], False, [(body, stage)]
    while todo:
        b, s = todo.pop()
        if b is s:
            continue
        if isinstance(b, Var):
            reached = True
        elif isinstance(b, Sum):
            todo += [(b.left, s.left), (b.right, s.right)]
        elif isinstance(b, (Prefix, Restrict)):
            todo.append((b.body, s.body))
        else:
            found.append(s)
    return found, reached


def semantics(term: ProcessTerm, cfg: Alphabet, unfold_depth: int = 8, *,
              sets: ChainMap | None = None, texts: dict | None = None) -> PrecubicalSet:
    """The decorated precubical set of a closed process term.

    ``rec(x) P`` is the semantics of ``P`` when ``x`` is not free in
    ``P``; otherwise it is that of its ``unfold_depth``-th stage
    (``nil``, then ``P`` with ``x`` replaced by the previous stage) with
    its ``truncated`` flag set; one region walk numbers that stage, the
    earlier ones included.  That stage has more than ``unfold_depth``
    vertices, so from ``MAX_REGION_CELLS`` stages on, ``PrecubeError`` is
    raised before the second substitution.  A product or recursion that
    holds a stage is compiled at the stage that creates it and kept in
    ``sets`` (by ``id``, with its term) while walked nodes reach it from
    the current stage.
    ``texts`` keeps the ``term_str`` of every subterm of one compile, by
    ``id``; only this module passes ``sets`` and ``texts``.
    """
    if unfold_depth < 0:
        raise ValueError("unfold depth must be non-negative")
    sets, texts = ChainMap() if sets is None else sets, {} if texts is None else texts
    known = sets.get(id(term))
    if known is not None:
        return known[1]
    if isinstance(term, Par):
        left = semantics(term.left, cfg, unfold_depth, sets=sets, texts=texts)
        right = semantics(term.right, cfg, unfold_depth, sets=sets, texts=texts)
        return tensor_sync(left, right, cfg)
    if isinstance(term, _WALKED):
        return _Region(cfg, unfold_depth, sets, texts).build(term)
    if isinstance(term, Var):
        raise PrecubeError("cannot interpret an open term")
    if not isinstance(term, Rec):
        raise TypeError(f"not a process term: {term!r}")
    sets, stage, truncated = sets.new_child(), Nil(), True  # this recursion's own sets
    for _ in range(unfold_depth):
        next_term = subst(term.body, term.var, stage)
        if next_term is term.body:  # no free var: the body is its own fixpoint
            stage, truncated = next_term, False
            break
        if unfold_depth >= MAX_REGION_CELLS:  # each stage has more vertices than the last
            raise PrecubeError(f"unfolding too deep: {unfold_depth} stages, over "
                               f"{MAX_REGION_CELLS} cells")
        found, reached = _open_nodes(term.body, next_term)
        made = {id(t): (t, semantics(t, cfg, unfold_depth, sets=sets, texts=texts)) for t in found}
        sets.maps[0] = {**sets.maps[0], **made} if reached else made
        stage = next_term
    K = semantics(stage, cfg, unfold_depth, sets=sets, texts=texts)
    decoration = {**K.decoration, K.initial: _term_text(term, _PAR, texts)}
    return replace(K, decoration=decoration, truncated=K.truncated or truncated)


def compile_text(text: str, cfg: Alphabet, unfold_depth: int = 8) -> PrecubicalSet:
    return semantics(parse(text, cfg), cfg, unfold_depth)
