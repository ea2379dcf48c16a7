from collections import OrderedDict
from functools import cache
import itertools
import random
import time

import pytest

from grothpoly import grothendieck
from grothpoly.factorizations import (
    _graph,
    _series,
    cauchy_sum,
    enumerate_circled_bounded,
    genfun,
)
from grothpoly.grothendieck import (
    grothendieck_double,
    grothendieck_single,
    staircase_product,
)
from grothpoly.permutations import (
    all_permutations,
    inverse,
    inversions,
    lex_min_reduced_word,
)
from grothpoly.polynomials import (
    Polynomial,
    constant,
    monomial,
    pi,
    pretty,
    substitute_zero,
    total_degree,
    truncate_degree,
    x_var,
    y_var,
)
from references import (
    compose,
    longest_element,
    pi_word,
    reduced_words,
    staircase_monomial,
)


def operator_word(w):
    """The reduced word along which the pi operators act for w: the
    lexicographically least reduced word of w^{-1} w0."""
    return lex_min_reduced_word(compose(inverse(w), longest_element(len(w))))


def test_staircase_monomial():
    assert staircase_monomial(1) == x_var(1, 2)
    assert staircase_monomial(2) == monomial(3, (2, 1, 0))
    assert staircase_monomial(3) == monomial(4, (3, 2, 1, 0))


@pytest.mark.parametrize("n", [-1, 1.5, True])
def test_staircase_product_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match="n must be an int >= 0"):
        staircase_product(n)


def test_staircase_product():
    assert staircase_product(0) == constant(1, 1)
    x1, y1 = x_var(1, 2), y_var(1, 2)
    assert staircase_product(1) == x1 + y1 + x1 * y1
    # 3 factors, each a choice of 3 monomials
    n2 = staircase_product(2)
    assert sum(abs(c) for c in n2.terms.values()) <= 27
    assert n2.terms[((2, 1, 0), (0, 0, 0))] == 1  # pure-x staircase term


def test_longest_element_is_the_base_case():
    for size in (2, 3, 4):
        w0 = longest_element(size)
        assert operator_word(w0) == ()
        assert grothendieck_single(w0) == staircase_monomial(size - 1)
        assert grothendieck_double(w0) == staircase_product(size - 1)


def test_identity_collapses_to_one():
    for size in (2, 3, 4):
        assert grothendieck_single((*range(1, size + 1),)) == constant(1, size)
        assert grothendieck_double((*range(1, size + 1),)) == constant(1, size)


def test_pinned_small_values():
    assert pretty(grothendieck_single((2, 1))) == "x1"
    assert pretty(grothendieck_single((3, 1, 2))) == "x1^2"
    assert pretty(grothendieck_single((1, 3, 2))) == "x1 + x2 + x1*x2"
    assert pretty(grothendieck_double((2, 1))) == "x1 + y1 + x1*y1"


def test_double_restricts_to_single():
    for w in all_permutations(4):
        assert substitute_zero(grothendieck_double(w), "y", 0) == grothendieck_single(w)


def test_lowest_degree_is_the_length():
    for w in all_permutations(4):
        p = grothendieck_single(w)
        assert min(total_degree(k) for k in p.terms) == inversions(w)


def test_reduced_word_independence():
    for w in all_permutations(4):
        target = compose(inverse(w), longest_element(4))
        results = {
            pi_word(word, staircase_monomial(3)) for word in reduced_words(target)
        }
        assert len(results) == 1
        assert results.pop() == grothendieck_single(w)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty descent memo for one test; the shared one comes back after."""
    monkeypatch.setattr(grothendieck, "_memo", OrderedDict())
    monkeypatch.setattr(grothendieck, "_memo_terms", 0)


def held_terms() -> int:
    return sum(len(p) for p in grothendieck._memo.values())


@cache
def staircase(n, double):
    return staircase_product(n) if double else staircase_monomial(n)


def per_w_route(w, double):
    """The operator definition applied to w alone, with no memo."""
    return pi_word(operator_word(w), staircase(len(w) - 1, double))


@pytest.mark.parametrize("size", [4, 5])
def test_memo_equals_the_per_w_route_in_any_order(fresh_memo, size):
    perms = list(all_permutations(size))
    random.Random(size).shuffle(perms)
    for w in perms:
        assert grothendieck_single(w) == per_w_route(w, False)
        assert grothendieck_double(w) == per_w_route(w, True)
        assert grothendieck._memo_terms == held_terms()
        assert held_terms() <= grothendieck._MEMO_TERM_BUDGET


@pytest.mark.parametrize("budget", [0, 40, 300])
def test_a_tiny_budget_gives_the_same_polynomials(fresh_memo, monkeypatch, budget):
    monkeypatch.setattr(grothendieck, "_MEMO_TERM_BUDGET", budget)
    perms = list(all_permutations(4))
    random.Random(budget).shuffle(perms)
    for w in perms:
        for double in (False, True):
            g = grothendieck_double(w) if double else grothendieck_single(w)
            assert g == per_w_route(w, double)
            assert grothendieck._memo_terms == held_terms() <= budget
    if budget:
        assert grothendieck._memo  # small entries are kept


def test_an_entry_over_the_budget_is_not_kept_and_evicts_nothing(
    fresh_memo, monkeypatch
):
    monkeypatch.setattr(grothendieck, "_MEMO_TERM_BUDGET", 40)
    grothendieck_single((1, 2, 3, 4))
    kept = dict(grothendieck._memo)
    assert ((1, 2, 3, 4), False) in kept
    w0 = (4, 3, 2, 1)
    assert len(grothendieck_double(w0).terms) > 40
    assert (w0, True) not in grothendieck._memo
    assert kept.items() <= dict(grothendieck._memo).items()


def dominant(u):
    """Whether u avoids the pattern 132."""
    return not any(a < c < b for a, b, c in itertools.combinations(u, 3))


def inverted_pairs(u):
    return {(b, a) for a, b in itertools.combinations(u, 2) if a > b}


def lehmer_code(u):
    return tuple(sum(b < a for b in u[i + 1 :]) for i, a in enumerate(u))


@pytest.mark.parametrize("size", [4, 5])
def test_a_climb_stops_at_its_first_remembered_permutation(monkeypatch, size):
    applied = []

    def counted(i, p):
        applied.append(i)
        return pi(i, p)

    def no_product(code, double):
        raise AssertionError("a diagram product was built")

    perms = all_permutations(size)
    route = {
        (w, double): per_w_route(w, double)
        for w in perms
        for double in (False, True)
    }
    monkeypatch.setattr(grothendieck, "pi", counted)
    monkeypatch.setattr(grothendieck, "_diagram_product", no_product)
    checked = 0
    for w in perms:
        steps, top = grothendieck._climb(w)
        # w, then each permutation the climb passes, the dominant top last
        chain = [u for u, _ in steps] + [top]
        assert chain[0] == w and dominant(top)
        for (u, i), v in zip(steps, chain[1:]):
            assert u[i - 1] < u[i]
            assert v == u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
        for k in range(1, len(chain)):
            for double in (False, True):
                g = route[chain[k], double]
                memo = OrderedDict({(chain[k], double): g})
                monkeypatch.setattr(grothendieck, "_memo", memo)
                monkeypatch.setattr(grothendieck, "_memo_terms", len(g))
                applied.clear()
                assert grothendieck._descend(w, double) == route[w, double]
                assert len(applied) == k
                checked += 1
    # the 10 non-dominant w of S_4 climb 14 steps in all, the 78 of S_5 156
    assert checked == 2 * {4: 14, 5: 156}[size]


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_a_cold_climb_ends_at_the_least_dominant_permutation_above_w(
    monkeypatch, size
):
    applied, tops = [], []

    def counted(i, p):
        applied.append(i)
        return pi(i, p)

    def recorded(code, double, product=grothendieck._diagram_product):
        tops.append(code)
        return product(code, double)

    monkeypatch.setattr(grothendieck, "pi", counted)
    monkeypatch.setattr(grothendieck, "_diagram_product", recorded)
    perms = all_permutations(size)
    by_pairs = {frozenset(inverted_pairs(u)): u for u in perms}
    dominant_pairs = [pairs for pairs, u in by_pairs.items() if dominant(u)]
    for w in perms:
        # the least dominant permutation above w inverts exactly the
        # pairs that every dominant permutation above w inverts
        below = inverted_pairs(w)
        d = by_pairs[frozenset.intersection(
            *(pairs for pairs in dominant_pairs if below <= pairs)
        )]
        assert dominant(d)
        monkeypatch.setattr(grothendieck, "_memo", OrderedDict())
        monkeypatch.setattr(grothendieck, "_memo_terms", 0)
        applied.clear()
        tops.clear()
        g = grothendieck._descend(w, False)
        assert tops == [lehmer_code(d)]
        assert len(applied) == inversions(d) - inversions(w)
        assert g == per_w_route(w, False)


def test_claim_one_on_a_sample_of_s6(fresh_memo):
    for w in random.Random(6).sample(all_permutations(6), 12):
        assert grothendieck_double(w) == _series("circled_bounded", w)
        assert grothendieck_single(w) == _series("bounded_plain", w)


def test_a_non_permutation_raises_on_a_warm_memo():
    for w in all_permutations(3):
        grothendieck_double(w)
        grothendieck_single(w)
    for bad in ((1, 1, 3), (2, 3), (0, 1, 2), ()):
        with pytest.raises(ValueError):
            grothendieck_double(bad)
        with pytest.raises(ValueError):
            grothendieck_single(bad)
    assert grothendieck_double([2, 1, 3]) == grothendieck_double((2, 1, 3))


def test_a_returned_polynomial_cannot_be_changed():
    w = (1, 3, 2)
    for g in (grothendieck_double, grothendieck_single):
        p = g(w)
        before = dict(p.terms)
        with pytest.raises(TypeError):
            p.terms[((0, 0, 0), (0, 0, 0))] = 7
        with pytest.raises(AttributeError):
            p.m = 9
        assert dict(g(w).terms) == before


def test_a_staircase_past_the_degree_cap_raises_before_any_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    with pytest.raises(ValueError, match="total degree 272 is past the cap"):
        staircase_product(16)
    with pytest.raises(ValueError, match="total degree 276 is past the cap"):
        staircase_monomial(23)
    monkeypatch.undo()
    assert total_degree(max(staircase_monomial(22).terms)) == 253


def test_a_top_past_the_degree_cap_raises_before_any_product(
    fresh_memo, monkeypatch
):
    def no_product(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    monkeypatch.setattr(grothendieck, "pi", no_product)
    start = time.perf_counter()
    # dominant and not w0: its diagram is the staircase of S_17
    with pytest.raises(ValueError, match="total degree 272 is past the cap"):
        grothendieck_double((*range(17, 0, -1), 18))
    # its least dominant permutation above is (25, 24, ..., 3, 1, 2)
    with pytest.raises(ValueError, match="total degree 299 is past the cap"):
        grothendieck_single((1, *range(25, 1, -1)))
    assert time.perf_counter() - start < 1


def test_nothing_on_the_arithmetic_path_unpacks_a_key(fresh_memo, monkeypatch):
    def unpacked(p):
        raise AssertionError("the terms of a polynomial were unpacked")

    _graph.cache_clear()  # so that every series is summed afresh
    monkeypatch.setattr(Polynomial, "terms", property(unpacked))
    for w in all_permutations(4):
        double, single = grothendieck_double(w), grothendieck_single(w)
        series, convolution = _series("circled_bounded", w), cauchy_sum(w)
        assert genfun(enumerate_circled_bounded(w)) == series == double
        assert convolution == double
        assert len({double, series, convolution}) == 1
        for i in range(1, 4):
            if w[i - 1] > w[i]:
                v = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
                assert pi(i, single) == grothendieck_single(v)
            else:
                assert pi(i, double) == -double
        assert truncate_degree(double, 12) == double
        assert truncate_degree(double, 0) == (1 if w == (1, 2, 3, 4) else 0)
    assert hash(grothendieck_single((1, 2, 3, 4))) == hash(1)
