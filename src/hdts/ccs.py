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
the synchronized tensor product.  One walk numbers the cells of a region
of nil, prefix, sum and restriction nodes and one ``precube.glue`` call
builds it; the initial vertex of every result but a parallel composition
is decorated with its term.  ``rec(x) P`` is read off the term: if ``x``
is not free in ``P`` the body is its own fixpoint, and otherwise the
term is unfolded to a depth bound and the result flagged truncated.  No
stage of a guarded unfolding can equal the one before, since each holds
the previous stage under a prefix and no operator loses vertices: a
prefix adds one, a sum of l and r has l + r - 1, restriction keeps every
vertex and a product multiplies.  Each stage is built from the previous
one: ``semantics`` reuses the set it holds for a subterm that *is* the
previous stage's term, by identity, not by hashing or equality, which
recurse once per nesting level of a deep stage.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import count, repeat

from .alphabet import Alphabet
from .precube import PrecubeError, PrecubicalSet, glue, standard_cube
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


class _Region:
    """Final ids for the cells of a region of nil, prefix, sum and
    restriction nodes, handed out per dimension in the order one walk
    meets them, and the parts to glue them from.  Only a nil and a prefix
    make a vertex, a prefix's vertex and edge before its body's cells.  A
    sum walks its left summand, then its right one from the same initial
    vertex.  A restriction bans its label and that label's partner below
    it: a cell whose word meets the banned set gets no id, and ``glue``
    drops it.  Any other subterm, or the current stage of an enclosing
    recursion, is a whole set from ``semantics``, placed at the next ids
    in its own order with its initial vertex where the walk puts it.  A
    walked node's text goes on its initial vertex, over inner nodes'.
    """

    def __init__(self, cfg: Alphabet, unfold_depth: int, stages: tuple, texts: dict):
        self.cfg, self.unfold_depth, self.stages, self.texts = cfg, unfold_depth, stages, texts
        self.used, self.parts, self.decoration = Counter(), [], {}  # used: ids per dimension

    def walk(self, t: ProcessTerm, init: int | None, banned: frozenset) -> int:
        """Number the cells of ``t`` and return its initial vertex, ``init`` if given."""
        if not isinstance(t, _WALKED) or any(t is known for known, _ in self.stages):
            K = semantics(t, self.cfg, self.unfold_depth, stages=self.stages, texts=self.texts)
            return self.place(K, init, banned)
        if isinstance(t, (Nil, Prefix)) and init is None:
            init = self.used[0]
            self.used[0] += 1
        if isinstance(t, Nil):
            self.parts.append((standard_cube(()), {(0, 0): init}))
        elif isinstance(t, Prefix):
            self.cfg.check_label(t.label)
            ids = {(0, 0): init}
            if t.label not in banned:
                ids[(1, 0)] = self.used[1]
                self.used[1] += 1
            ids[(0, 1)] = self.walk(t.body, None, banned)
            self.parts.append((standard_cube((t.label,)), ids))
        elif isinstance(t, Sum):
            init = self.walk(t.left, init, banned)
            self.walk(t.right, init, banned)
        else:
            self.cfg.check_label(t.label)
            pair = {t.label, self.cfg.bar(t.label)} - {None}
            init = self.walk(t.body, init, banned | pair)
        self.decoration[init] = _term_text(t, _PAR, self.texts)
        return init

    def place(self, K: PrecubicalSet, init: int | None, banned: frozenset) -> int:
        ids = {}
        for n in K.dims():
            cells = K.ncells(n)
            if n and banned:
                cells = [c for c in cells if banned.isdisjoint(K.labels[n][c])]
            elif not n and init is not None:
                ids[(0, K.initial)] = init
                cells = [c for c in cells if c != K.initial]
            ids.update(zip(zip(repeat(n), cells), count(self.used[n])))
            self.used[n] += len(cells)
        self.parts.append((K, ids))
        return ids[(0, K.initial)]


def semantics(
    term: ProcessTerm,
    cfg: Alphabet,
    unfold_depth: int = 8,
    *,
    stages: tuple = (),
    texts: dict | None = None,
) -> PrecubicalSet:
    """The decorated precubical set of a closed process term.

    ``rec(x) P`` is the semantics of ``P`` when ``x`` is not free in
    ``P``; otherwise it is the ``unfold_depth``-th stage of its unfolding
    (``nil``, then ``P`` with ``x`` replaced by the previous stage) with
    its ``truncated`` flag set.  Each stage is built from the previous
    one: ``stages`` holds the (term, set) pair of the current stage of
    every enclosing recursion, and a subterm that *is* one of those
    terms (identity, not hashing) is not compiled again.  Only this
    module passes ``stages``; the result does not depend on it, since
    the semantics of a closed term is a function of the term.
    ``texts`` keeps the ``term_str`` of every subterm of one compile, by
    identity, so each decoration is built once from its children's.
    """
    if unfold_depth < 0:
        raise ValueError("unfold depth must be non-negative")
    if texts is None:
        texts = {}
    for known, K in stages:
        if term is known:
            return K
    if isinstance(term, Par):
        left = semantics(term.left, cfg, unfold_depth, stages=stages, texts=texts)
        right = semantics(term.right, cfg, unfold_depth, stages=stages, texts=texts)
        return tensor_sync(left, right, cfg)
    if isinstance(term, _WALKED):
        region = _Region(cfg, unfold_depth, stages, texts)
        initial = region.walk(term, None, frozenset())
        out = glue(region.parts, initial)
        out.decoration.update(region.decoration)  # glue made this dict
        return out
    if isinstance(term, Var):
        raise PrecubeError("cannot interpret an open term")
    if not isinstance(term, Rec):
        raise TypeError(f"not a process term: {term!r}")
    stage_term: ProcessTerm = Nil()
    stage = semantics(stage_term, cfg, unfold_depth, stages=stages, texts=texts)
    for _ in range(unfold_depth):
        next_term = subst(term.body, term.var, stage_term)
        known = stages + ((stage_term, stage),)
        stage = semantics(next_term, cfg, unfold_depth, stages=known, texts=texts)
        if next_term is term.body:  # no free var: the body is its own fixpoint
            break
        stage_term = next_term
    else:
        stage = replace(stage, truncated=True)
    decoration = {**stage.decoration, stage.initial: _term_text(term, _PAR, texts)}
    return replace(stage, decoration=decoration)


def compile_text(text: str, cfg: Alphabet, unfold_depth: int = 8) -> PrecubicalSet:
    return semantics(parse(text, cfg), cfg, unfold_depth)
