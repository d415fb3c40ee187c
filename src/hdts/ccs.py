"""Process terms and their labelled symmetric precubical set semantics.

Grammar (prefix binds tighter than +, + tighter than ||):

    P ::= nil | a.P | (nu a) P | P + P | P || P | rec(x) P | x

Identifiers are [a-z][a-zA-Z0-9_]*; ``a^-`` names the involution
partner of ``a``.  Recursion variables must be bound and guarded by a
prefix inside their binder; the parser checks both as it reads each
variable.

The semantics builds, by induction on the term, a decorated precubical
set with a distinguished initial vertex: a prefix grafts one edge in
front, a sum is a wedge at the initial vertices, restriction keeps the
cells whose label word avoids the restricted pair, and parallel
composition is the synchronized tensor product.  ``rec(x) P`` is read
off the term: if ``x`` is not free in ``P`` the body is its own
fixpoint, and otherwise the term is unfolded to a depth bound and the
result flagged truncated.  No stage of a guarded unfolding can equal
the one before, since each holds the previous stage under a prefix and
no operator loses vertices: a prefix adds one, a sum of l and r has
l + r - 1, restriction keeps every vertex and a product multiplies.
Prefix, sum and restriction each renumber cells with one
``precube.glue`` call, and the initial vertex of every result but a
parallel composition is decorated with its term.
Each stage is built from the previous one: ``semantics`` reuses the
set it holds for a subterm that *is* the previous stage's term, by
identity, not by hashing or equality, which recurse once per nesting
level of a deep stage.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import count

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
        for kind in ("ident", "par", "inv", "punct"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind if kind != "punct" else val, val, m.start(kind)))
                break
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
        self.binders: dict[str, int] = {}
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
            if outer is None:
                del self.binders[var[1]]
            else:
                self.binders[var[1]] = outer
            return Rec(var[1], body)
        if kind == "(" and self.tokens[self.k + 1][:2] == ("ident", "nu"):
            self.next()
            self.next()
            label = self.label()
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


_NIL = replace(standard_cube(()), initial=0)


def _graft_prefix(label: str, sub: PrecubicalSet) -> PrecubicalSet:
    """One fresh edge in front of ``sub``'s initial vertex.

    The new vertex and the new edge take id 0 in their dimensions; the
    old vertices and edges shift up by one, higher cells keep their ids.
    """
    edge = {(0, 0): 0, (0, 1): sub.initial + 1, (1, 0): 0}
    ids = {(n, c): c + 1 if n <= 1 else c for n in sub.dims() for c in sub.ncells(n)}
    return glue([(standard_cube((label,)), edge), (sub, ids)], initial=0)


def _wedge(left: PrecubicalSet, right: PrecubicalSet) -> PrecubicalSet:
    """``left`` and ``right`` joined at their initial vertices.

    ``left``'s n-cells take their rank; ``right``'s other n-cells follow
    them, in order.
    """
    ids = {(n, c): k for n in left.dims() for k, c in enumerate(left.ncells(n))}
    joint = ids[(0, left.initial)]
    right_ids = {(0, right.initial): joint}
    for n in right.dims():
        rest = [c for c in right.ncells(n) if n or c != right.initial]
        right_ids.update(zip([(n, c) for c in rest], count(len(left.ncells(n)))))
    return glue([(left, ids), (right, right_ids)], initial=joint)


def _filter_labels(sub: PrecubicalSet, banned: set[str]) -> PrecubicalSet:
    """The cells of ``sub`` whose label word avoids ``banned``, by rank."""
    ids = {}
    for n in sub.dims():
        keep = [c for c in sub.ncells(n) if banned.isdisjoint(sub.label(n, c))]
        ids.update(zip([(n, c) for c in keep], count()))
    return glue([(sub, ids)], initial=ids[(0, sub.initial)])


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
    its ``truncated`` flag set.  Each stage is built from the
    previous one: ``stages`` holds the (term, set) pair of the current
    stage of every enclosing recursion, and a subterm that *is* one of
    those terms (identity, not hashing) is not compiled again.  Only
    this module passes ``stages``; the result does not depend on it,
    since the semantics of a closed term is a function of the term.
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
    if isinstance(term, Nil):
        out = _NIL
    elif isinstance(term, Prefix):
        cfg.check_label(term.label)
        sub = semantics(term.body, cfg, unfold_depth, stages=stages, texts=texts)
        out = _graft_prefix(term.label, sub)
    elif isinstance(term, Sum):
        left = semantics(term.left, cfg, unfold_depth, stages=stages, texts=texts)
        right = semantics(term.right, cfg, unfold_depth, stages=stages, texts=texts)
        out = _wedge(left, right)
    elif isinstance(term, Restrict):
        cfg.check_label(term.label)
        banned = {term.label}
        partner = cfg.bar(term.label)
        if partner is not None:
            banned.add(partner)
        sub = semantics(term.body, cfg, unfold_depth, stages=stages, texts=texts)
        out = _filter_labels(sub, banned)
    elif isinstance(term, Rec):
        stage_term: ProcessTerm = Nil()
        stage = semantics(stage_term, cfg, unfold_depth, stages=stages, texts=texts)
        for _ in range(unfold_depth):
            next_term = subst(term.body, term.var, stage_term)
            stage = semantics(
                next_term,
                cfg,
                unfold_depth,
                stages=stages + ((stage_term, stage),),
                texts=texts,
            )
            if next_term is term.body:  # no free var: the body is its own fixpoint
                out = stage
                break
            stage_term = next_term
        else:
            out = replace(stage, truncated=True)
    elif isinstance(term, Var):
        raise PrecubeError("cannot interpret an open term")
    else:
        raise TypeError(f"not a process term: {term!r}")
    decoration = {**out.decoration, out.initial: _term_text(term, _PAR, texts)}
    return replace(out, decoration=decoration)


def compile_text(text: str, cfg: Alphabet, unfold_depth: int = 8) -> PrecubicalSet:
    return semantics(parse(text, cfg), cfg, unfold_depth)
