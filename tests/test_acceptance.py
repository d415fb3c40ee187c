"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line.
All checks are exact (set equality, exact counts, exact witnesses,
zero-counterexample sweeps); nothing is tolerance-calibrated.
"""

import itertools
from contextlib import contextmanager

from corpus import (
    ALPHA,
    CCS_CORPUS,
    morphism_is_iso,
    random_cube_gluing,
    random_mixed_corpus,
    sync_edges,
)
from hdts import (
    boundary,
    compile_text,
    cube,
    cube_inclusion,
    cube_state_id,
    cubify,
    disjoint_union,
    fibered_product,
    hda_check,
    hom_enumerate,
    hom_enumerate_precube,
    in_hda_hdts,
    is_orthogonal,
    iso_check,
    lone_action,
    parallel_edges,
    realize,
    realize_cube_map,
    sh_reflect,
    standard_cube,
    transition,
    truncate,
    unrealize_cube_map,
    validate,
)
from hdts.encoding import all_encodings
from hdts.fixtures import double_square, glued_span, not_strong_complex


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {number:02d} {name}: PASS")


def test_01_square_transition_set():
    with criterion(1, "square transition set"):
        X = cube(("a", "b"))
        v = cube_state_id
        canonical = {
            transition(v((0, 0)), [1], v((1, 0))),
            transition(v((0, 1)), [1], v((1, 1))),
            transition(v((0, 0)), [2], v((0, 1))),
            transition(v((1, 0)), [2], v((1, 1))),
            transition(v((0, 0)), [1, 2], v((1, 1))),
        }
        assert set(X.transitions) == canonical
        ordered = {
            (t.src, perm, t.tgt)
            for t in X.transitions
            for perm in set(itertools.permutations(t.acts))
        }
        assert len(ordered) == 6


def test_02_double_square_realizes_to_the_cube():
    with criterion(2, "double square collapse"):
        got = realize(double_square()).system
        assert iso_check(got, cube(("a", "b"))) is not None


def test_03_cube_category_dictionary():
    with criterion(3, "cube category round trip"):
        words = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
        for wm in words:
            for wn in words:
                compatible = [
                    enc
                    for enc in all_encodings(len(wm), len(wn))
                    if all(
                        wm[i - 1] == wn[enc.fbar_inv(i) - 1]
                        for i in range(1, len(wm) + 1)
                    )
                ]
                homs = hom_enumerate(cube(wm), cube(wn))
                assert len(compatible) == len(homs)
                for enc in compatible:
                    assert unrealize_cube_map(realize_cube_map(enc, wm, wn)) == enc
                for g in homs:
                    assert realize_cube_map(unrealize_cube_map(g), wm, wn) == g


def _orthogonal_to_all_cube_inclusions(X, max_dim=3):
    labels = sorted({a.label for a in X.actions}) or ["a"]
    return all(
        is_orthogonal(X, cube_inclusion(word))
        for n in range(1, max_dim + 1)
        for word in itertools.product(labels, repeat=n)
    )


def test_04_unique_intermediates_equals_orthogonality():
    with criterion(4, "orthogonality characterization"):
        corpus = random_mixed_corpus(50)
        assert len(corpus) == 50
        mismatches = [
            i
            for i, X in enumerate(corpus)
            if validate(X).uisa != _orthogonal_to_all_cube_inclusions(X)
        ]
        assert mismatches == []
        # the sweep must see both outcomes
        outcomes = {validate(X).uisa for X in corpus}
        assert outcomes == {True, False}


def test_05_csa_pair_equals_unique_intermediates():
    with criterion(5, "csa2+csa3 vs unique intermediates"):
        for X in random_mixed_corpus(50):
            report = validate(X)
            assert (report.csa2 and report.csa3) == report.uisa


def test_06_counterexample_fixtures():
    with criterion(6, "counterexample fixtures"):
        report = validate(parallel_edges("a"))
        assert not report.csa1
        assert report.witnesses["csa1"] == {
            "first": (0, [1], 1),
            "second": (0, [2], 1),
        }
        assert report.coherence_closed and report.csa2 and report.csa3
        assert report.uisa and report.intermediate

        N = not_strong_complex()
        assert hda_check(N) == []
        r = realize(N)
        rep = validate(r.system)
        assert rep.csa1 and not rep.uisa
        witness = rep.witnesses["uisa"]
        labels = r.system.label_map()
        src, acts, tgt = witness["transition"]
        assert {labels[a] for a in acts} == {"u", "v"}
        assert witness["intermediates"] == [2, 3]  # exactly the two middle states
        assert src == 0 and tgt == 4


def test_07_cubification():
    with criterion(7, "cubification"):
        for K in [standard_cube(("a", "b")), sh_reflect(double_square())[0]]:
            X = realize(K).system
            assert morphism_is_iso(cubify(X).comparison)
        got = cubify(glued_span())
        expected = disjoint_union(cube(("x",)), cube(("x",)))
        assert iso_check(got.system, expected) is not None
        assert not cubify(lone_action("x")).system.states
        for seed in range(20):
            X = random_cube_gluing(seed)
            assert validate(X).is_hdts
            once = cubify(X)
            twice = cubify(once.system)
            assert iso_check(twice.system, once.system) is not None


def test_08_fibered_product_counts():
    with criterion(8, "fibered product counts"):
        F = fibered_product(
            truncate(standard_cube(("a", "b")), 1),
            truncate(standard_cube(("abar",)), 1),
            ALPHA,
        )
        assert len(F.vertices) == 8
        assert len(F.ncells(1)) == 14
        assert len(sync_edges(F, ALPHA)) == 2


def test_09_ccs_pipeline():
    with criterion(9, "ccs pipeline"):
        K = compile_text("a.nil || abar.nil", ALPHA)
        assert [len(K.ncells(n)) for n in K.dims()] == [4, 5, 2]
        r = realize(K)
        report = validate(r.system)
        assert len(r.system.actions) == 3
        assert len(r.system.transitions) == 6
        assert report.csa1 and report.uisa
        R = compile_text("(nu a)(a.nil || abar.nil)", ALPHA)
        assert len(R.ncells(1)) == 1
        assert R.label(1, R.ncells(1)[0]) == (ALPHA.tau,)
        assert R.dim == 1


def test_10_process_terms_realize_honestly():
    with criterion(10, "process term corpus"):
        assert len(CCS_CORPUS) >= 10
        for text in CCS_CORPUS:
            K = compile_text(text, ALPHA, unfold_depth=4)
            assert in_hda_hdts(K), text
            assert realize(K).closure_added == 0, text


def test_11_quotient_and_hom_bijection():
    with criterion(11, "quotient and hom bijection"):
        for K in [
            standard_cube(("a", "b")),
            double_square(),
            not_strong_complex(),
            standard_cube(("a", "b", "c")),
        ]:
            S, _ = sh_reflect(K)
            assert iso_check(realize(K).system, realize(S).system) is not None
        pairs = [
            (standard_cube(("a",)), standard_cube(("a", "b"))),
            (standard_cube(("a", "b")), standard_cube(("a", "b"))),
            (boundary(("a", "b")), standard_cube(("a", "b"))),
            (double_square(), standard_cube(("a", "b"))),
        ]
        for K, L in pairs:
            assert K.size <= 20 and L.size <= 20
            assert not hda_check(L)
            assert validate(realize(L).system).uisa
            n_pre = len(hom_enumerate_precube(K, L))
            n_sys = len(hom_enumerate(realize(K).system, realize(L).system))
            assert n_pre == n_sys
        N = not_strong_complex()
        K = standard_cube(("u", "v"))
        n_pre = len(hom_enumerate_precube(K, N))
        n_sys = len(hom_enumerate(realize(K).system, realize(N).system))
        assert n_pre != n_sys
