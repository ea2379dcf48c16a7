"""Tests for the threshold-ladder rewrites and the factor-moving maps."""

import dataclasses
from itertools import combinations, permutations, product

import pytest

from grothpoly import bijections
from grothpoly.bijections import (
    LADDER_TABLE,
    WQuadruple,
    arrow_down,
    arrow_up,
    check_quadruple,
    circled_to_double,
    circled_to_double_chain,
    psi,
    psi_inv,
    wk_step_down,
    wk_step_up,
)
from grothpoly.factorizations import (
    Factorization,
    Letter,
    enumerate_circled_bounded,
    enumerate_double_bounded,
    evaluation,
    is_valid_factorization,
    parse_factorization,
    weight,
)
from grothpoly.permutations import eval_hecke_word
from references import support


def test_rewrite_table_covers_exactly_the_patterns_with_a_threshold_letter():
    patterns = set(product((False, True), repeat=4))
    assert set(LADDER_TABLE) == {p for p in patterns if p[1] or p[2]}
    after = set(LADDER_TABLE.values())
    assert len(after) == len(LADDER_TABLE)
    assert after == {p for p in patterns if p[0] or p[3]}


def test_rewrite_table_preserves_block_lengths():
    for (b_k, b_K, c_K, c_k), (a_K, b_keeps, c_keeps, d_K) in LADDER_TABLE.items():
        assert a_K + c_keeps == c_K + c_k
        assert b_keeps + d_K == b_k + b_K


def test_ladder_step_matches_worked_rungs():
    assert wk_step_down(
        WQuadruple((), (1, 2, 3, 5, 6, 8), (8, 7, 5, 2), (), 8)
    ) == WQuadruple((8,), (1, 2, 3, 5, 6, 7), (7, 5, 2), (), 7)
    assert wk_step_down(
        WQuadruple((8, 6), (1, 2, 3, 5), (5, 2), (6, 7), 5)
    ) == WQuadruple((8, 6, 5), (1, 2, 3), (2,), (5, 6, 7), 4)


def test_ladder_step_is_identity_without_the_threshold_letter():
    q = WQuadruple((8, 6, 5), (1, 2, 3), (2,), (5, 6, 7), 4)
    assert wk_step_down(q) == q._replace(k=3)
    assert wk_step_up(q._replace(k=3)) == q
    empty = WQuadruple((), (), (), (), 5)
    assert wk_step_down(empty) == empty._replace(k=4)
    assert wk_step_up(empty) == empty._replace(k=6)


WORKED_RUNGS = [
    WQuadruple((), (1, 2, 3, 5, 6, 8), (8, 7, 5, 2), (), 8),
    WQuadruple((8,), (1, 2, 3, 5, 6, 7), (7, 5, 2), (), 7),
    WQuadruple((8,), (1, 2, 3, 5, 6), (6, 5, 2), (7,), 6),
    WQuadruple((8, 6), (1, 2, 3, 5), (5, 2), (6, 7), 5),
    WQuadruple((8, 6, 5), (1, 2, 3), (2,), (5, 6, 7), 4),
    WQuadruple((8, 6, 5), (1, 2, 3), (2,), (5, 6, 7), 3),
    WQuadruple((8, 6, 5, 3), (1, 2), (), (3, 5, 6, 7), 2),
    WQuadruple((8, 6, 5, 3), (1,), (), (2, 3, 5, 6, 7), 1),
    WQuadruple((8, 6, 5, 3), (), (), (1, 2, 3, 5, 6, 7), 0),
]


def test_full_descent_visits_every_worked_rung():
    for before, after in zip(WORKED_RUNGS, WORKED_RUNGS[1:]):
        assert wk_step_down(before) == after
        assert wk_step_up(after) == before


def increasing_subsets(top):
    return [
        c for r in range(top + 1) for c in combinations(range(1, top + 1), r)
    ]


def every_quadruple(top):
    """Every valid quadruple with letters <= top, at every threshold."""
    for k in range(top + 1):
        inner = increasing_subsets(k)
        outer = [tuple(x + k for x in s) for s in increasing_subsets(top - k)]
        for a, b, c, d in product(outer, inner, inner, outer):
            yield WQuadruple(a[::-1], b, c[::-1], d, k)


def test_ladder_step_is_fixed_exactly_when_the_threshold_letter_is_outside_the_support():
    steps = 0
    for q in every_quadruple(5):
        sup = support(eval_hecke_word(q.a + q.b + q.c + q.d, 5))
        if q.k:
            steps += 1
            fixed = wk_step_down(q) == q._replace(k=q.k - 1)
            assert fixed == (q.k not in sup), q
        steps += 1
        fixed = wk_step_up(q) == q._replace(k=q.k + 1)
        assert fixed == (q.k + 1 not in sup), q
    assert steps == 11264


def test_descent_preserves_lengths_and_permutation_at_every_rung():
    for b in increasing_subsets(4):
        for c_rev in increasing_subsets(4):
            c = c_rev[::-1]
            target = eval_hecke_word(b + c, 4)
            q = WQuadruple((), b, c, (), 4)
            while q.k:
                q = wk_step_down(q)
                assert len(q.a) + len(q.c) == len(c)
                assert len(q.b) + len(q.d) == len(b)
                assert eval_hecke_word(q.a + q.b + q.c + q.d, 4) == target


def test_descent_and_ascent_match_the_worked_pairs():
    assert arrow_down(((1, 2, 3, 5, 6, 8), (8, 7, 5, 2))) == (
        (8, 6, 5, 3),
        (1, 2, 3, 5, 6, 7),
    )
    assert arrow_up(((9, 7, 6, 4), (4, 5, 6, 8, 9))) == (
        (4, 5, 7, 8, 9),
        (9, 8, 6, 5),
    )
    assert arrow_down(((), ())) == ((), ())
    assert arrow_up(((), ())) == ((), ())


def test_descent_swaps_the_pair_lengths():
    for b, c in [((1, 2, 3, 5, 6, 8), (8, 7, 5, 2)), ((1, 3), (2,)), ((), (4,))]:
        a, d = arrow_down((b, c))
        assert len(a) == len(c) and len(d) == len(b)


def test_descent_and_ascent_are_mutually_inverse():
    subsets = increasing_subsets(4)
    for inc in subsets:
        for dec_rev in subsets:
            dec = dec_rev[::-1]
            down = arrow_down((inc, dec))
            assert arrow_up(down) == (inc, dec)
            up = arrow_up((dec, inc))
            assert arrow_down(up) == (dec, inc)


def test_cached_rides_equal_an_uncached_ladder_ride():
    subsets = increasing_subsets(5)
    for inc in subsets:
        for dec_rev in subsets:
            dec = dec_rev[::-1]
            q = WQuadruple((), inc, dec, (), max((*inc, *dec), default=0))
            while q.k:
                q = wk_step_down(q)
            assert arrow_down((inc, dec)) == (q.a, q.d)
            q = WQuadruple(dec, (), (), inc, 0)
            for _ in range(max((*dec, *inc), default=0)):
                q = wk_step_up(q)
            assert arrow_up((dec, inc)) == (q.b, q.c)


def test_an_invalid_pair_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            arrow_down(((2, 1), ()))
        with pytest.raises(ValueError):
            arrow_up(((1, 2), ()))
        with pytest.raises(ValueError):
            arrow_down(((0, 1), ()))


def test_quadruple_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        check_quadruple(WQuadruple((5, 6), (), (), (), 4))
    with pytest.raises(ValueError):
        check_quadruple(WQuadruple((), (2, 2), (), (), 4))
    with pytest.raises(ValueError):
        check_quadruple(WQuadruple((), (5,), (), (), 4))
    with pytest.raises(ValueError):
        check_quadruple(WQuadruple((3,), (), (), (), 4))
    with pytest.raises(ValueError):
        check_quadruple(WQuadruple((), (0, 1), (), (), 4))
    with pytest.raises(ValueError):
        wk_step_down(WQuadruple((), (), (), (), 0))


def factor(text, n=9):
    if not text:
        return ()
    return parse_factorization(f"({text})", "circled", n).factors[0]


def test_factor_move_matches_the_worked_example():
    f_j = factor("9 7 6 4 4o 3o 2 2o")
    f_ex2, f_j2 = psi(2, 3, f_j, (5, 6, 8, 9))
    assert f_ex2 == (4, 5, 7, 8, 9)
    assert f_j2 == factor("9 8 6 5 3o 2 2o")
    assert psi_inv(2, 3, f_ex2, f_j2) == (f_j, (5, 6, 8, 9))


def test_factor_move_with_nothing_to_move_keeps_the_factor():
    f_j = factor("3 2 1o")
    assert psi(1, 4, f_j, ()) == ((), f_j)
    assert psi(1, 4, (), ()) == ((), ())
    assert psi_inv(1, 4, (), ()) == ((), ())


def test_factor_move_rejects_constraint_violations():
    with pytest.raises(ValueError):
        psi(2, 3, (Letter(1), Letter(3)), ())
    with pytest.raises(ValueError):
        psi(2, 3, (Letter(1),), ())
    with pytest.raises(ValueError):
        psi(2, 3, (Letter(5, True),), ())
    with pytest.raises(ValueError):
        psi(2, 3, (Letter(5),), (4,))
    with pytest.raises(ValueError):
        psi(2, 3, (), (5, 5))
    with pytest.raises(ValueError):
        psi_inv(2, 3, (), (Letter(4, True),))
    with pytest.raises(ValueError):
        psi_inv(2, 3, (3,), ())


def test_cached_factor_moves_equal_an_uncached_move(monkeypatch):
    steps = set()

    def record(j, k, f_j, f_ex):
        steps.add((j, k, tuple(f_j), tuple(f_ex)))
        return psi(j, k, f_j, f_ex)

    monkeypatch.setattr(bijections, "psi", record)
    for w in permutations((1, 2, 3, 4)):
        for f in enumerate_circled_bounded(w):
            circled_to_double(f)
    monkeypatch.undo()
    assert len(steps) > 100
    for j, k, f_j, f_ex in steps:
        assert psi(j, k, f_j, f_ex) == bijections._psi.__wrapped__(j, k, f_j, f_ex)
        assert psi(j, k, list(f_j), list(f_ex)) == psi(j, k, f_j, f_ex)


def test_a_bad_factor_move_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError):
            psi(2, 3, (Letter(1), Letter(3)), ())
        with pytest.raises(ValueError):
            psi(2, 3, (), (5, 5))


def replayed_chain_pairs(f):
    """Re-run the rewrite chain, yielding each move's before/after."""
    rights = [tuple(fac) for fac in f.factors]
    f_ex = ()
    for k in range(f.n, 0, -1):
        for j in range(f.n - k + 1, 0, -1):
            before = (rights[j - 1], f_ex)
            f_ex, rights[j - 1] = psi(j, k, rights[j - 1], f_ex)
            yield (j, k), before, (f_ex, rights[j - 1])
        if k > 1:
            f_ex = ()


def test_factor_moves_invert_and_preserve_evaluation_along_every_chain():
    words = list(permutations((1, 2, 3))) + [(4, 3, 2, 1)]
    for w in words:
        for f in enumerate_circled_bounded(w):
            for (j, k), before, after in replayed_chain_pairs(f):
                assert psi_inv(j, k, *after) == before
                assert psi(j, k, *psi_inv(j, k, *after)) == after
                old = tuple(l.value for l in before[0]) + before[1]
                new = after[0] + tuple(l.value for l in after[1])
                assert eval_hecke_word(old, f.n) == eval_hecke_word(new, f.n)


def test_rewrite_chain_matches_the_worked_example():
    start = parse_factorization("(3 3o 2o 1 1o)(3o 2)(3 3o)()", "circled_bounded", 3)
    assert circled_to_double_chain(start) == [
        "(3 3o 2o 1 1o)(3o 2)(3 3o)()",
        "()|(3 3o 2o 1 1o)[](3o 2)(3 3o)()",
        "()|[3](3 2o 1 1o)(3o 2)(3 3o)()",
        "()(3)|(3 2o 1 1o)(3o 2)[](3 3o)()",
        "()(3)|(3 2o 1 1o)[3](2)(3 3o)()",
        "()(3)|[2 3](2 1 1o)(2)(3 3o)()",
        "()(3)(2 3)|(2 1 1o)(2)(3 3o)[]()",
        "()(3)(2 3)|(2 1 1o)(2)[3](3)()",
        "()(3)(2 3)|(2 1 1o)[2](3)(3)()",
        "()(3)(2 3)|[1 2](2 1)(3)(3)()",
        "()(3)(2 3)(1 2)|(2 1)(3)(3)()",
    ]


def test_rewrite_equals_the_last_chain_state_and_a_constructed_factorization():
    for w in permutations((1, 2, 3, 4)):
        for f in enumerate_circled_bounded(w):
            g = circled_to_double(f)
            # the last state of the chain, its extra factor moved left of
            # the center, read in the chain's own display form
            head, tail = circled_to_double_chain(f)[-2].split("|")
            extra, rights = tail.removeprefix("[").split("]")
            assert str(g) == f"{head}({extra})|{rights}"
            built = Factorization("double_bounded", g.factors, f.n, f.n + 1)
            assert g == built and hash(g) == hash(built)
            assert all(type(l) is Letter for fac in g.factors for l in fac)
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.split = 0


def test_rewrite_of_the_empty_factorization_is_empty():
    for size in (1, 2, 3, 4):
        (f,) = enumerate_circled_bounded(tuple(range(1, size + 1)))
        g = circled_to_double(f)
        assert all(fac == () for fac in g.factors)
        assert g.split == f.n + 1 and len(g.factors) == 2 * f.n + 2


def test_rewrite_is_a_weight_preserving_bijection_for_small_ranks():
    for size in (1, 2, 3):
        for w in permutations(range(1, size + 1)):
            source = enumerate_circled_bounded(w)
            image = [circled_to_double(f) for f in source]
            for f, g in zip(source, image):
                assert is_valid_factorization(g)
                assert weight(g) == weight(f)
                assert evaluation(g) == evaluation(f) == w
            assert len(set(image)) == len(source)
            assert set(image) == set(enumerate_double_bounded(w))


def test_rewrite_is_a_weight_preserving_bijection_for_sampled_rank_four():
    for w in [(4, 3, 2, 1), (2, 4, 1, 3), (1, 4, 3, 2)]:
        source = enumerate_circled_bounded(w)
        image = [circled_to_double(f) for f in source]
        assert all(weight(g) == weight(f) for f, g in zip(source, image))
        assert len(set(image)) == len(source)
        assert set(image) == set(enumerate_double_bounded(w))


def test_rewrite_rejects_other_kinds_and_invalid_input():
    plain = parse_factorization("(1)(2)", "plain", 2)
    with pytest.raises(ValueError):
        circled_to_double(plain)
    bad = Factorization("circled_bounded", ((Letter(1),), (Letter(1),), ()), 2)
    with pytest.raises(ValueError):
        circled_to_double(bad)
