"""Process term parsing and precubical semantics."""

import hashlib
import sys
from collections import ChainMap, Counter

import pytest

from corpus import (
    ALPHA,
    CCS_CORPUS,
    RANDOM_SYNC_TERMS,
    checked_graft_prefix,
    colimit_wedge,
    random_open_par_rec_term,
    random_precube_wedge,
    random_rec_term,
    scratch_semantics,
    sync_edges,
)
from hdts import (
    check_relations,
    compile_text,
    hda_check,
    in_hda_hdts,
    iso_check,
    parse,
    realize,
    semantics,
    term_str,
    validate,
)
from hdts import ccs
from hdts.alphabet import make_alphabet
from hdts.ccs import CcsSyntaxError, Nil, Par, Prefix, Rec, Restrict, Sum, Var, subst
from hdts.precube import boundary, glue
from hdts.serialize import dumps, precube_to_json


def cell_counts(K):
    return [len(K.ncells(n)) for n in K.dims()]


# ---------------------------------------------------------------------------
# parsing


def test_parse_parallel_of_prefixes():
    t = parse("a.nil || abar.nil", ALPHA)
    assert t == Par(Prefix("a", Nil()), Prefix("abar", Nil()))


def test_parse_involution_alias():
    assert parse("a^-.nil", ALPHA) == Prefix("abar", Nil())
    with pytest.raises(CcsSyntaxError):
        parse("c^-.nil", ALPHA)  # c has no partner


def test_parse_recursion():
    t = parse("rec(x) a.x", ALPHA)
    assert t == Rec("x", Prefix("a", Var("x")))


def test_parse_rejects_unguarded_recursion():
    with pytest.raises(CcsSyntaxError, match="guarded"):
        parse("rec(x) x", ALPHA)
    with pytest.raises(CcsSyntaxError, match="guarded"):
        parse("rec(x) x + a.nil", ALPHA)
    # restriction does not guard
    with pytest.raises(CcsSyntaxError, match="guarded"):
        parse("rec(x) (nu a) x", ALPHA)


def test_parse_precedence():
    t = parse("a.nil + b.nil || c.nil", ALPHA)
    assert isinstance(t, Par) and isinstance(t.left, Sum)
    t = parse("a.b.nil + c.nil", ALPHA)
    assert isinstance(t, Sum) and t.left == Prefix("a", Prefix("b", Nil()))


def test_parse_restriction():
    t = parse("(nu a)(a.nil || abar.nil)", ALPHA)
    assert isinstance(t, Restrict) and t.label == "a"
    with pytest.raises(CcsSyntaxError, match="silent"):
        parse("(nu tau) a.nil", ALPHA)


def test_parse_errors_carry_positions():
    with pytest.raises(CcsSyntaxError, match="position"):
        parse("a.nil ||", ALPHA)
    with pytest.raises(CcsSyntaxError, match="unknown label"):
        parse("zz9.nil", ALPHA)
    with pytest.raises(CcsSyntaxError, match="unbound"):
        parse("a.x", ALPHA)
    # scope errors point at the variable itself
    with pytest.raises(CcsSyntaxError) as exc:
        parse("a.nil + b.y", ALPHA)
    assert str(exc.value) == "unbound variable 'y' (at position 10)"
    text = "rec(x) (a.nil + x)"
    with pytest.raises(CcsSyntaxError) as exc:
        parse(text, ALPHA)
    assert str(exc.value) == f"recursion variable 'x' must be guarded (at position {text.rindex('x')})"


@pytest.mark.parametrize(
    "text,error",
    [
        ("(nu tau)(a.nil)", "the silent label cannot be restricted (at position 4)"),
        ("a.nil + (nu tau)(b.nil)", "the silent label cannot be restricted (at position 12)"),
        ("(nu zz)a.nil", "unknown label 'zz' (at position 4)"),
    ],
)
def test_restriction_errors_point_at_the_label(text, error):
    with pytest.raises(CcsSyntaxError) as exc:
        parse(text, ALPHA)
    assert str(exc.value) == error


@pytest.mark.parametrize(
    "text,error",
    [
        ("rec(x) a.rec(x) x", "recursion variable 'x' must be guarded (at position 16)"),
        ("rec(x) (rec(x) a.x + x)", "recursion variable 'x' must be guarded (at position 21)"),
        ("rec(x) a.rec(y) (x + b.y) + y", "unbound variable 'y' (at position 28)"),
        ("rec(x) (nu a) (b.x || x)", "recursion variable 'x' must be guarded (at position 22)"),
    ],
)
def test_parse_scopes_binders_and_prefixes(text, error):
    # an inner rec(x) shadows the outer x and unguards it anew; a prefix
    # guards every variable bound outside it, until its body ends
    with pytest.raises(CcsSyntaxError) as exc:
        parse(text, ALPHA)
    assert str(exc.value) == error


def test_parse_accepts_shadowed_and_outer_guarded_variables():
    assert parse("rec(x) rec(x) a.x", ALPHA) == Rec("x", Rec("x", Prefix("a", Var("x"))))
    t = parse("rec(x) a.rec(y) (x + b.y)", ALPHA)
    assert t == Rec("x", Prefix("a", Rec("y", Sum(Var("x"), Prefix("b", Var("y"))))))


@pytest.mark.parametrize("text", CCS_CORPUS)
def test_pretty_printer_round_trips(text):
    t = parse(text, ALPHA)
    assert parse(term_str(t), ALPHA) == t


def test_subst_respects_shadowing():
    t = parse("rec(x) a.x", ALPHA)
    assert subst(t, "x", Nil()) == t


def test_subst_shares_the_replacement_and_untouched_subterms():
    t = Sum(Prefix("a", Var("x")), Par(Prefix("b", Nil()), parse("rec(x) c.x", ALPHA)))
    repl = Prefix("c", Nil())
    out = subst(t, "x", repl)
    assert out.left.body is repl
    assert out.right is t.right  # no free x there: the same object comes back
    assert subst(out, "x", Nil()) is out


# ---------------------------------------------------------------------------
# semantics


def test_semantics_prefix_chain_is_a_path():
    K = compile_text("a.b.nil", ALPHA)
    check_relations(K)
    assert cell_counts(K) == [3, 2]
    assert K.initial == 0
    assert K.decoration[K.initial] == "a.b.nil"
    labels = [K.label(1, e) for e in K.ncells(1)]
    assert sorted(labels) == [("a",), ("b",)]


def test_semantics_parallel_with_synchronization():
    K = compile_text("a.nil || abar.nil", ALPHA)
    check_relations(K)
    assert cell_counts(K) == [4, 5, 2]
    assert len(sync_edges(K, ALPHA)) == 1
    r = realize(K)
    report = validate(r.system)
    assert len(r.system.actions) == 3
    assert len(r.system.transitions) == 6
    assert report.csa1 and report.uisa


def test_semantics_restriction_keeps_only_the_silent_step():
    K = compile_text("(nu a)(a.nil || abar.nil)", ALPHA)
    check_relations(K)
    assert len(K.vertices) == 4
    assert len(K.ncells(1)) == 1
    assert K.dim == 1
    assert K.label(1, K.ncells(1)[0]) == (ALPHA.tau,)


def test_semantics_sum_is_a_wedge():
    K = compile_text("a.nil + b.nil", ALPHA)
    assert cell_counts(K) == [3, 2]
    assert K.decoration[K.initial] == "a.nil + b.nil"


def test_semantics_decorations_name_subterms():
    K = compile_text("a.nil || abar.nil", ALPHA)
    assert K.decoration[K.initial] == "a.nil || abar.nil"
    assert sorted(K.decoration.values()) == [
        "a.nil || abar.nil",
        "a.nil || nil",
        "nil || abar.nil",
        "nil || nil",
    ]


def test_semantics_recursion_stabilizes_when_variable_is_dead():
    K = compile_text("rec(x) a.nil", ALPHA)
    assert not K.truncated
    assert cell_counts(K) == [2, 1]


def test_semantics_recursion_with_a_dead_variable_needs_one_unfolding():
    term = parse("rec(x) a.nil", ALPHA)
    K = semantics(term, ALPHA, 1)
    assert not K.truncated
    assert _json(K) == _json(semantics(term, ALPHA, 8))
    nil = semantics(term, ALPHA, 0)
    assert nil.truncated and cell_counts(nil) == [1]


def test_semantics_recursion_truncates_when_infinite():
    K = compile_text("rec(x) a.x", ALPHA, unfold_depth=4)
    assert K.truncated
    assert cell_counts(K) == [5, 4]


def test_semantics_tau_prefix():
    K = compile_text("tau.a.nil", ALPHA)
    assert cell_counts(K) == [3, 2]


@pytest.mark.parametrize("text", CCS_CORPUS)
def test_corpus_realizes_to_honest_systems(text):
    K = compile_text(text, ALPHA, unfold_depth=4)
    check_relations(K)
    assert hda_check(K) == []
    assert in_hda_hdts(K)
    assert realize(K).closure_added == 0


def test_sum_and_par_commute_up_to_realization_iso():
    for left, right in [("a.nil", "b.nil"), ("a.b.nil", "abar.nil")]:
        s1 = realize(compile_text(f"{left} + {right}", ALPHA)).system
        s2 = realize(compile_text(f"{right} + {left}", ALPHA)).system
        assert iso_check(s1, s2) is not None
        p1 = realize(compile_text(f"{left} || {right}", ALPHA)).system
        p2 = realize(compile_text(f"{right} || {left}", ALPHA)).system
        assert iso_check(p1, p2) is not None


def test_silent_steps_run_concurrently_with_third_parties():
    # the silent synchronization edge fills a square against the
    # independent component
    K = compile_text("(a.nil || abar.nil) || b.nil", ALPHA)
    words = {K.label(2, c) for c in K.ncells(2)}
    assert (ALPHA.tau, "b") in words and ("b", ALPHA.tau) in words


def test_par_associates_up_to_realization_iso():
    a = realize(compile_text("(a.nil || abar.nil) || b.nil", ALPHA)).system
    b = realize(compile_text("a.nil || (abar.nil || b.nil)", ALPHA)).system
    assert iso_check(a, b) is not None


# ---------------------------------------------------------------------------
# recursion: the last stage compiled as one region, checked against a
# compile of every stage from scratch


def _json(K):
    return dumps(precube_to_json(K))


#: ALPHA plus the label ``e`` restricted by the nested recursion below.
ALPHA_E = make_alphabet(sorted(ALPHA.labels | {"e"}), pairs=ALPHA.pairs)

STAGE_CASES = [("rec(x) (a.x + b.x)", depth) for depth in range(8)] + [
    ("rec(x) ((a.x + b.x) + c.x)", 4),
    ("rec(x) a.b.c.x", 5),
    ("rec(x) (a.nil + b.nil)", 5),
    ("rec(x) a.x || abar.nil", 3),
    ("rec(x) a.(x || b.nil)", 3),
    ("rec(x) a.(nu b) (b.x + c.x)", 4),
    ("rec(x) (a.x + (nu e) e.rec(y) (b.y + c.x))", 3),
    ("rec(x) a.rec(x) b.x", 4),
]


@pytest.mark.parametrize("text,depth", STAGE_CASES)
def test_stage_reuse_matches_scratch_compile(text, depth):
    term = parse(text, ALPHA_E)
    K = semantics(term, ALPHA_E, depth)
    scratch = scratch_semantics(term, ALPHA_E, depth)
    assert _json(K) == _json(scratch)
    assert K.truncated == scratch.truncated
    check_relations(K)


@pytest.mark.parametrize("seed", range(60))
def test_stage_reuse_matches_scratch_compile_on_random_terms(seed):
    term = parse(random_rec_term(seed), ALPHA)
    K, scratch = semantics(term, ALPHA, 4), scratch_semantics(term, ALPHA, 4)
    assert _json(K) == _json(scratch)
    assert K.truncated == scratch.truncated


@pytest.mark.parametrize("seed", range(40))
def test_unfoldings_through_products_and_nested_recursions_match_scratch_compile(
    seed, monkeypatch
):
    # the sets of products and recursions that hold a stage, kept while
    # walked nodes still reach them, against every stage compiled from
    # scratch; and no product made by unfolding is built twice
    term = parse(random_open_par_rec_term(seed), ALPHA)
    parsed, todo = set(), [term]
    while todo:
        t = todo.pop()
        parsed.add(id(t))
        todo += [getattr(t, name) for name in ("body", "left", "right") if hasattr(t, name)]
    built, held = Counter(), []  # held keeps each product alive, so no id is reused
    original = ccs.semantics

    def counting(t, *args, sets=None, **kwargs):
        if isinstance(t, Par) and id(t) not in parsed and (sets is None or id(t) not in sets):
            built[id(t)] += 1
            held.append(t)
        return original(t, *args, sets=sets, **kwargs)

    monkeypatch.setattr(ccs, "semantics", counting)
    K = semantics(term, ALPHA, 3)
    monkeypatch.undo()
    scratch = scratch_semantics(term, ALPHA, 3)
    assert _json(K) == _json(scratch)
    assert K.truncated == scratch.truncated
    assert built and max(built.values()) == 1


_CHAIN_LABELS = ("a", "b", "abar", "c", "tau", "bbar")

#: wide and deep regions of nil, prefix, sum and restriction nodes, and
#: regions around products and recursions, for the scratch oracle
REGION_CASES = {
    "120-prefix-chain": ".".join(_CHAIN_LABELS[i % 6] for i in range(120)) + ".nil",
    "60-arm-sum": " + ".join(
        ".".join(_CHAIN_LABELS[(i + j) % 6] for j in range(i % 3 + 1)) + ".nil"
        for i in range(60)
    ),
    "restricted-prefix-with-body": "(nu a) b.a.c.nil",
    "nested-restrictions-around-a-sum": (
        "(nu b)(a.b.nil + (a.nil || abar.nil) + rec(x) b.x + (nu a)(a.nil + c.nil))"
    ),
    "product-on-the-left": (
        "(a.nil || abar.b.nil) + rec(x) (b.x + c.nil) + (nu a)(a.b.nil || abar.nil) + c.nil"
    ),
    "recursion-on-the-left": "rec(x) (b.x + c.nil) + (a.nil || abar.nil) + c.nil",
}


@pytest.mark.parametrize("text", list(REGION_CASES.values()), ids=list(REGION_CASES))
def test_regions_match_scratch_compile(text):
    term = parse(text, ALPHA)
    K, scratch = semantics(term, ALPHA, 4), scratch_semantics(term, ALPHA, 4)
    assert _json(K) == _json(scratch)
    assert K.truncated == scratch.truncated


def test_a_restricted_prefix_loses_its_edge_and_keeps_its_vertices():
    K = compile_text("(nu a) b.a.c.nil", ALPHA)
    assert cell_counts(K) == [4, 2]
    assert [K.label(1, e) for e in K.ncells(1)] == [("b",), ("c",)]
    assert K.faces[1] == {0: (0, 1), 1: (2, 3)}


def test_placed_sets_keep_an_initial_vertex_that_is_not_the_first():
    # a product with its vertices numbered backwards, placed from the
    # sets a region reads under a prefix and on either side of a sum
    text = "b.c.nil || c.nil"
    built = compile_text(text, ALPHA)
    last = len(built.vertices) - 1
    ids = {(n, c): last - c if n == 0 else c for n in built.dims() for c in built.ncells(n)}
    placed = glue([(built, ids)], initial=last - built.initial)
    assert placed.initial != 0
    S = parse(text, ALPHA)
    a_nil = semantics(parse("a.nil", ALPHA), ALPHA)
    for term, expected in [
        (Prefix("a", S), lambda t: checked_graft_prefix("a", placed, t)),
        (Sum(Prefix("a", Nil()), S), lambda t: colimit_wedge(a_nil, placed, t)),
        (Sum(S, Prefix("a", Nil())), lambda t: colimit_wedge(placed, a_nil, t)),
    ]:
        K = semantics(term, ALPHA, sets=ChainMap({id(S): (S, placed)}))
        assert _json(K) == _json(expected(term_str(term))), term_str(term)


def test_a_region_is_glued_once(monkeypatch):
    glues = []
    original = ccs.glue
    monkeypatch.setattr(ccs, "glue", lambda *a, **k: glues.append(1) or original(*a, **k))
    K = compile_text("a.b.(a.nil + b.c.nil + (nu a)(a.nil + b.nil))", ALPHA)
    assert len(glues) == 1
    assert cell_counts(K) == [8, 6]


def test_an_unfolding_is_glued_once(monkeypatch):
    # the last stage of rec(x) (a.x + b.x) holds the earlier ones, and one
    # walk numbers it: no stage is a set of its own, and no cube is built
    glues = []
    original = ccs.glue
    monkeypatch.setattr(ccs, "glue", lambda *a, **k: glues.append(1) or original(*a, **k))

    def refuse(*args, **kwargs):
        raise AssertionError("standard_cube was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hdts" and hasattr(module, "standard_cube"):
            monkeypatch.setattr(module, "standard_cube", refuse)
    with pytest.raises(AssertionError, match="was called"):
        boundary("ab")  # the patch is seen by callers
    K = compile_text("rec(x) (a.x + b.x)", ALPHA, unfold_depth=7)
    assert K.truncated
    assert len(glues) == 1
    assert cell_counts(K) == [2**8 - 1, 2**8 - 2]


# ---------------------------------------------------------------------------
# compile bytes, pinned, and the whole-set checks the compile steps do not make

#: sha256 over the compiled JSON of ``CCS_CORPUS`` and 200 random recursive
#: terms at unfold depth 4, in that order.
GOLDEN_COMPILE_DIGEST = "f1691ab8b41374e3822991a18e5434c150f163ce1e96c3426d8c7caf8ca265b0"


def test_compile_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    for text in CCS_CORPUS + [random_rec_term(seed) for seed in range(200)]:
        digest.update(_json(compile_text(text, ALPHA, 4)).encode())
    assert digest.hexdigest() == GOLDEN_COMPILE_DIGEST


def test_compile_bytes_written_from_tables_match_the_golden_digest():
    digest = hashlib.sha256()
    for text in CCS_CORPUS + [random_rec_term(seed) for seed in range(200)]:
        digest.update(dumps(compile_text(text, ALPHA, 4)).encode())
    assert digest.hexdigest() == GOLDEN_COMPILE_DIGEST


@pytest.mark.parametrize(
    "terms,depth",
    [
        (CCS_CORPUS, 8),
        (RANDOM_SYNC_TERMS, 8),
        ([random_rec_term(seed) for seed in range(200)], 4),
    ],
    ids=["corpus", "random-sync", "random-rec"],
)
def test_compiled_terms_satisfy_the_relations(terms, depth):
    for text in terms:
        K = compile_text(text, ALPHA, depth)
        check_relations(K)
        assert K.initial in K.vertices, text


def test_compile_never_calls_colimit_presheaf(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("colimit_presheaf was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hdts" and hasattr(module, "colimit_presheaf"):
            monkeypatch.setattr(module, "colimit_presheaf", refuse)
    with pytest.raises(AssertionError, match="was called"):
        random_precube_wedge(0)  # the patch is seen by callers
    for text in CCS_CORPUS:
        compile_text(text, ALPHA, 4)


def test_compile_never_calls_iso_check_precube(monkeypatch):
    # rec stops on its term: a body without its variable is its own
    # fixpoint, and no stage of a guarded unfolding repeats
    def refuse(*args, **kwargs):
        raise AssertionError("iso_check_precube was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hdts" and hasattr(module, "iso_check_precube"):
            monkeypatch.setattr(module, "iso_check_precube", refuse)
    with pytest.raises(AssertionError, match="was called"):
        scratch_semantics(parse("rec(x) a.nil", ALPHA), ALPHA)  # the patch is seen by callers
    for text in CCS_CORPUS:
        compile_text(text, ALPHA, 4)
    for text, depth in STAGE_CASES:
        compile_text(text, ALPHA_E, depth)
