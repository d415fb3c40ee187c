"""The command-line driver on generated documents and terms, in process.

Systems are drawn close to their schema, with any field liable to be
replaced by arbitrary JSON.  Other documents start from a valid system,
precubical set or alphabet and have a few nodes replaced, dropped, or
moved to a key that looks like an integer but is not.  Process terms
are guarded terms over a, abar, b and tau, some with a few characters
or tokens dropped or inserted.  Whatever the input, ``check``,
``realize``, ``cubify``, ``export`` and ``ccs compile`` must exit 0, 1
or 2 and raise nothing; ``ccs compile`` writes at most the truncation
warning on success and one ``error:`` line on an input error.  The
same terms, and terms whose variables stand anywhere under or outside
their binders, check that ``parse`` finds the scope errors the old
after-parse walks found.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from corpus import grammar_parse, scope_defects
from hdts import DEFAULT_ALPHABET, cube, make_precube, parse, standard_cube
from hdts.ccs import CcsSyntaxError
from hdts.cli import main
from hdts.serialize import alphabet_to_json, hdts_to_json, precube_to_json

LABELS = ["a", "abar", "b", "tau"]
ODD_KEYS = ["\u00b2", "\u00b2,1", "--1", "1,2", "x"]

scalars = st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(LABELS + ODD_KEYS)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(ODD_KEYS + ["0", "1"]), inner, max_size=3),
    max_leaves=6,
)


def maybe(strategy):
    """``strategy`` seven times in eight, arbitrary JSON otherwise."""
    return st.one_of(*[strategy] * 7, junk)


ids = st.integers(0, 3)

action = maybe(
    st.fixed_dictionaries({"id": maybe(st.integers(1, 3)), "label": maybe(st.sampled_from(LABELS))})
)
transition_ = maybe(
    st.fixed_dictionaries(
        {
            "src": maybe(ids),
            "acts": maybe(st.lists(st.integers(1, 3), min_size=1, max_size=3).map(sorted)),
            "tgt": maybe(ids),
        }
    )
)
systems = st.fixed_dictionaries(
    {"states": maybe(st.lists(ids, max_size=4, unique=True))},
    optional={
        "actions": maybe(st.lists(action, max_size=3)),
        "transitions": maybe(st.lists(transition_, max_size=4)),
    },
)

SEEDS = [
    hdts_to_json(cube(("a", "b"))),
    precube_to_json(standard_cube(("a", "b"))),
    precube_to_json(make_precube({0: (0,)}, {}, {}, {}, {0: "p"}, 0)),
    alphabet_to_json(DEFAULT_ALPHABET),
]


@st.composite
def mutated(draw, seed):
    """``seed`` with up to three nodes replaced by arbitrary JSON or by
    ``true``/``false``, dropped, or (in an object) moved to a key that
    only looks right."""
    doc = copy.deepcopy(seed)
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.integers(0, 3)):
                node = node[key]
                continue
            how = draw(st.sampled_from(["junk", "bool", "drop", "rename"]))
            if how == "junk":
                node[key] = draw(junk)
            elif how == "bool":  # an equal boolean for 0 or 1 keeps the rest valid
                node[key] = bool(node[key]) if node[key] in (0, 1) else draw(st.booleans())
            elif how == "drop" or isinstance(node, list):
                del node[key]
            else:
                node[draw(st.sampled_from(ODD_KEYS))] = node.pop(key)
            break
    return doc


def _scalars(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _scalars(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _scalars(value)
    else:
        yield doc


commands = st.sampled_from(
    [
        ["check"],
        ["check", "--alphabet"],
        ["realize"],
        ["cubify"],
        ["export"],
        ["export", "--format", "json"],
        ["export", "--alphabet"],
    ]
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    doc=st.one_of(systems, *map(mutated, SEEDS[:3]), junk),
    alphabet=mutated(SEEDS[3]),
    command=commands,
)
def test_cli_exits_0_1_or_2_and_raises_nothing(tmp_path, doc, alphabet, command):
    path, alphabet_path = tmp_path / "input.json", tmp_path / "alphabet.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    alphabet_path.write_text(json.dumps(alphabet), encoding="utf-8")
    argv = [command[0], str(path)] + command[1:]
    if argv[-1] == "--alphabet":
        argv.append(str(alphabet_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0 and command[:3] == ["export", "--format", "json"]:
        # an exported system or set holds ids and labels: no booleans
        assert not any(isinstance(x, bool) for x in _scalars(json.loads(out.getvalue())))


@st.composite
def terms(draw, variables=(), depth=3, guarded=False):
    """A term over ``LABELS`` and ``variables``; unless ``guarded``, a
    variable occurs only under a prefix."""
    kinds = ["nil", "prefix"] + (["var", "var"] if guarded and variables else [])
    if depth:
        kinds += ["prefix", "sum", "par", "nu", "rec"]
    kind = draw(st.sampled_from(kinds))
    if kind == "nil":
        return "nil"
    if kind == "var":
        return draw(st.sampled_from(variables))
    if kind == "prefix":
        body = draw(terms(variables, max(depth - 1, 0), True))
        return f"{draw(st.sampled_from(LABELS))}.{body}"
    if kind in ("sum", "par"):
        left = draw(terms(variables, depth - 1, guarded))
        right = draw(terms(variables, depth - 1, guarded))
        return f"({left} {'+' if kind == 'sum' else '||'} {right})"
    if kind == "nu":
        body = draw(terms(variables, depth - 1, guarded))
        return f"(nu {draw(st.sampled_from(['a', 'b']))})({body})"
    var = f"x{len(variables)}"
    body = draw(terms(variables + (var,), depth - 1, draw(st.booleans())))
    if var in body and not body.startswith(tuple(LABELS)):
        body = f"{draw(st.sampled_from(LABELS))}.{body}"
    return f"rec({var}) ({body})"


TOKENS = ["(", ")", ".", "+", "||", "nil", "rec(x0)", "x0", "a", "abar", "tau", "(nu a)", "-", "\u00b2", " "]


@st.composite
def mutated_term(draw):
    """A generated term with up to three slices dropped or tokens inserted."""
    text = draw(terms())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + draw(st.integers(1, 4)):]
        else:
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
    return text


@st.composite
def dropped_prefix_term(draw):
    """A generated term with one prefix dropped, which may leave a
    variable unguarded."""
    text = draw(terms())
    spans = [m.span() for m in re.finditer(r"\b(?:abar|a|b|tau)\.", text)]
    if not spans:
        return text
    start, end = draw(st.sampled_from(spans))
    return text[:start] + text[end:]


def at_most_two_pars(text):
    return text.count("||") <= 2


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(
    term=terms().filter(at_most_two_pars) | mutated_term().filter(at_most_two_pars),
    unfold=st.sampled_from(["0", "1", "2"]),
    out=st.sampled_from(["json", "dot"]),
)
def test_ccs_compile_exits_0_1_or_2_and_raises_nothing(tmp_path, term, unfold, out):
    alphabet_path = tmp_path / "alphabet.json"
    alphabet_path.write_text(json.dumps(alphabet_to_json(DEFAULT_ALPHABET)), encoding="utf-8")
    argv = ["ccs", "compile", term, "--alphabet", str(alphabet_path), "--unfold", unfold, "--out", out]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a term that reads as an option
            assert exc.code == 2 and "Traceback" not in err.getvalue()
            assert ": error: " in err.getvalue().splitlines()[-1]
            return
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() in ("", "warning: recursion truncated at the unfold bound\n")
    elif code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()


SCOPE_ERROR = re.compile(
    r"(?:unbound variable '(\w+)'|recursion variable '(\w+)' must be guarded) \(at position (\d+)\)"
)


@st.composite
def scoped_terms(draw, bound=(), depth=5):
    """A term whose variables stand anywhere under their binders, behind
    a prefix or not, and now and then outside every binder.  Binders
    draw from two names, so an inner ``rec`` often shadows an outer one."""
    kinds = ["nil"] + ["var"] * (3 if bound else 1)
    if depth:
        kinds += ["prefix", "prefix", "sum", "sum", "par", "nu", "rec", "rec"]
    kind = draw(st.sampled_from(kinds))
    if kind == "nil":
        return "nil"
    if kind == "var":
        return draw(st.sampled_from(list(bound) * 4 + ["x", "y"]))
    if kind == "prefix":
        return f"{draw(st.sampled_from(LABELS))}.{draw(scoped_terms(bound, depth - 1))}"
    if kind in ("sum", "par"):
        left, right = draw(scoped_terms(bound, depth - 1)), draw(scoped_terms(bound, depth - 1))
        return f"({left} {'+' if kind == 'sum' else '||'} {right})"
    if kind == "nu":
        return f"(nu {draw(st.sampled_from(['a', 'b']))}) {draw(scoped_terms(bound, depth - 1))}"
    var = draw(st.sampled_from(["x", "y"]))
    return f"rec({var}) {draw(scoped_terms(bound + (var,), depth - 1))}"


def check_scope_errors(term):
    """``parse`` checks scope and guardedness as it reads each variable;
    ``scope_defects`` walks the grammar's tree afterwards, as ``parse``
    once did.  A term is accepted by one iff by the other, and a scope
    error names one of the defects the walkers find, at a token that
    is that variable."""
    try:
        tree = grammar_parse(term, DEFAULT_ALPHABET)
    except CcsSyntaxError as grammar_error:
        # the grammar fails at a later token unless a variable fails first
        with pytest.raises(CcsSyntaxError) as exc:
            parse(term, DEFAULT_ALPHABET)
        if str(exc.value) != str(grammar_error):
            assert SCOPE_ERROR.fullmatch(str(exc.value))
            assert exc.value.position < grammar_error.position
        return
    defects = scope_defects(tree)
    if not defects:
        assert parse(term, DEFAULT_ALPHABET) == tree
        return
    with pytest.raises(CcsSyntaxError) as exc:
        parse(term, DEFAULT_ALPHABET)
    unbound, unguarded, position = SCOPE_ERROR.fullmatch(str(exc.value)).groups()
    name = unbound or unguarded
    assert ("unbound" if unbound else "unguarded", name) in defects
    assert re.match(r"[a-z][a-zA-Z0-9_]*", term[int(position):]).group() == name


@settings(max_examples=200, deadline=None, derandomize=True)
@given(term=terms() | mutated_term() | dropped_prefix_term())
def test_parse_finds_the_scope_errors_the_two_walkers_found(term):
    check_scope_errors(term)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(term=scoped_terms())
def test_parse_finds_the_scope_errors_of_freely_placed_variables(term):
    check_scope_errors(term)
