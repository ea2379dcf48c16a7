import dataclasses
import itertools
import operator
import pickle

from hypothesis import given, settings, strategies as st
import pytest

from grothpoly import factorizations
from grothpoly.factorizations import (
    Factorization,
    Letter,
    cauchy_sum,
    enumerate_bounded_plain,
    enumerate_circled_bounded,
    enumerate_double_bounded,
    enumerate_double_unbounded,
    enumerate_hook,
    enumerate_plain_unbounded,
    enumerate_X,
    factorization_to_str,
    genfun,
    is_valid_factorization,
    parse_factorization,
    weight,
)
from grothpoly.factorizations import (
    _chain_spec,
    _descending,
    _graph,
    _series,
)
from grothpoly.grothendieck import (
    grothendieck_double,
    grothendieck_single,
    staircase_product,
)
from grothpoly.permutations import (
    all_permutations,
    eval_hecke_word,
    hecke_distance,
    hecke_search,
    inversions,
    _tuples,
)
from grothpoly.polynomials import monomial, poly_sum, pretty
from grothpoly.stable import (
    TruncationSpec,
    halfweak_stable,
    omega,
    stable_double,
    stable_double_via_tableaux,
    stable_single,
    weak_stable_double,
)
from grothpoly.tableaux import enumerate_hecke_tableaux
from references import demazure_product, evaluation


# ---------------------------------------------------------------------------
# brute-force oracles: build every candidate factor assignment from raw
# subsets, keep the ones that hit the target, and compare


def decreasing_subsets(values):
    vals = sorted(values, reverse=True)
    for r in range(len(vals) + 1):
        yield from itertools.combinations(vals, r)


def brute_bounded_plain(w):
    n = len(w) - 1
    pools = [
        list(decreasing_subsets(range(i, n + 1))) for i in range(1, n + 2)
    ]
    out = []
    for combo in itertools.product(*pools):
        flat = tuple(v for fac in combo for v in fac)
        if eval_hecke_word(flat, n) == w:
            factors = tuple(tuple(Letter(v) for v in fac) for fac in combo)
            out.append(Factorization("bounded_plain", factors, n))
    return out


def brute_circled_bounded(w):
    n = len(w) - 1
    pools = []
    for i in range(1, n + 2):
        letters = []
        for v in range(n, i - 1, -1):
            letters.append(Letter(v, False))
            letters.append(Letter(v, True))
        pools.append(list(decreasing_subsets_by_rank(letters)))
    out = []
    for combo in itertools.product(*pools):
        flat = tuple(l.value for fac in combo for l in fac)
        if eval_hecke_word(flat, n) == w:
            out.append(Factorization("circled_bounded", tuple(combo), n))
    return out


def decreasing_subsets_by_rank(letters):
    ordered = sorted(letters, key=lambda l: -l.rank)
    for r in range(len(ordered) + 1):
        yield from itertools.combinations(ordered, r)


def brute_double_bounded(w):
    n = len(w) - 1
    left_pools = [
        [tuple(reversed(fac)) for fac in decreasing_subsets(range(i, n + 1))]
        for i in range(n + 1, 0, -1)
    ]
    right_pools = [
        list(decreasing_subsets(range(i, n + 1))) for i in range(1, n + 2)
    ]
    out = []
    for combo in itertools.product(*(left_pools + right_pools)):
        flat = tuple(v for fac in combo for v in fac)
        if eval_hecke_word(flat, n) == w:
            factors = tuple(tuple(Letter(v) for v in fac) for fac in combo)
            out.append(
                Factorization("double_bounded", factors, n, split=n + 1)
            )
    return out


def brute_hook_single_factor(w, max_letters):
    n = len(w) - 1
    alphabet = [Letter(v, c) for v in range(1, n + 1) for c in (False, True)]
    seen = set()
    for length in range(max_letters + 1):
        for seq in itertools.product(alphabet, repeat=length):
            f = Factorization("hook", (seq,), n)
            if is_valid_factorization(f) and evaluation(f) == w:
                seen.add(seq)
    return seen


def as_strs(factorizations):
    return [factorization_to_str(f) for f in factorizations]


def test_bounded_plain_matches_brute_force():
    for w in all_permutations(3):
        assert as_strs(enumerate_bounded_plain(w)) == as_strs(
            sorted(brute_bounded_plain(w), key=factorization_to_str)
        )


def test_circled_bounded_matches_brute_force():
    for w in all_permutations(3):
        got = enumerate_circled_bounded(w)
        want = brute_circled_bounded(w)
        assert sorted(as_strs(got)) == sorted(as_strs(want))


def test_double_bounded_matches_brute_force():
    for w in all_permutations(3):
        got = enumerate_double_bounded(w)
        want = brute_double_bounded(w)
        assert sorted(as_strs(got)) == sorted(as_strs(want))


def test_hook_matches_brute_force():
    for w in [(2, 1), (3, 1, 2), (1, 3, 2), (3, 2, 1)]:
        got = {f.factors[0] for f in enumerate_hook(w, 1, 4)}
        assert got == set(brute_hook_single_factor(w, 4))


# ---------------------------------------------------------------------------
# pinned examples


def test_bounded_plain_membership():
    f = parse_factorization("(3 2 1)(2)(3)()", "bounded_plain", 3)
    assert is_valid_factorization(f)
    assert evaluation(f) == (4, 2, 3, 1)
    assert factorization_to_str(f) in as_strs(
        enumerate_bounded_plain((4, 2, 3, 1))
    )


def test_bounded_plain_rejects_bound_violation():
    f = parse_factorization("(3 2)(3 2 1)()(1)", "bounded_plain", 3)
    assert not is_valid_factorization(f)  # 1 may not sit in factors 2 or 4


def test_circled_bounded_membership():
    f = parse_factorization(
        "(4o 3 2o 1)(3 3o)(4 3 3o)(4)()", "circled_bounded", 4
    )
    assert is_valid_factorization(f)
    assert evaluation(f) == (5, 1, 4, 3, 2)
    assert weight(f) == ((2, 1, 2, 1, 0), (1, 2, 0, 1, 0))


def test_unbounded_circled_membership():
    f = parse_factorization("(3 2 2o)(3o 2 1 1o)()(1o)", "circled", 3)
    assert is_valid_factorization(f)
    assert evaluation(f) == (4, 1, 3, 2)
    g = Factorization("circled_bounded", f.factors, f.n)
    assert not is_valid_factorization(g)  # 1 and 1o sit past factor 1


def test_double_bounded_membership():
    f = parse_factorization(
        "()(3)(2)(1 2)|(3 1)(3 2)(3)()", "double_bounded", 3
    )
    assert is_valid_factorization(f)
    assert evaluation(f) == (4, 3, 2, 1)
    assert weight(f) == ((2, 2, 1, 0), (2, 1, 1, 0))
    assert factorization_to_str(f) in as_strs(
        enumerate_double_bounded((4, 3, 2, 1))
    )


def test_double_unbounded_membership():
    f = parse_factorization("(1 2)(1 3)|(2 1)(3 2)", "double_unbounded", 3)
    assert is_valid_factorization(f)
    assert evaluation(f) == (4, 3, 2, 1)
    assert weight(f) == ((2, 2), (2, 2))
    assert factorization_to_str(f) in as_strs(
        enumerate_double_unbounded((4, 3, 2, 1), 2, 8)
    )


def test_hook_membership():
    f = parse_factorization(
        "(3o 2o 2 3 3)(1o 2 2)(3o 2o 1 1 3 3)", "hook", 3
    )
    assert is_valid_factorization(f)
    assert evaluation(f) == (4, 3, 2, 1)
    assert weight(f) == ((3, 2, 4), (2, 1, 2))


def test_hook_four_letter_single_factors():
    hooks = enumerate_hook((3, 1, 2, 5, 4), 1, 4)
    four = [f for f in hooks if f.letter_count() == 4]
    assert as_strs(four) == [
        "(1 1 2 4)",
        "(1o 1 2 4)",
        "(1 2 2 4)",
        "(1o 2 2 4)",
        "(1 2 4 4)",
        "(1o 2 4 4)",
        "(4o 1 1 2)",
        "(4o 1o 1 2)",
        "(4o 1 2 2)",
        "(4o 1o 2 2)",
        "(4o 1 2 4)",
        "(4o 1o 2 4)",
    ]
    assert all(evaluation(f) == (3, 1, 2, 5, 4) for f in hooks)


def test_hook_rejects_misordered_factors():
    assert not is_valid_factorization(
        parse_factorization("(2 1)", "hook", 3)
    )  # uncircled part must weakly increase
    assert not is_valid_factorization(
        parse_factorization("(1 3o)", "hook", 3)
    )  # circles precede uncircled letters
    assert not is_valid_factorization(
        parse_factorization("(2o 3o 1)", "hook", 3)
    )  # circled prefix strictly decreases


def test_circled_counts_for_longest_elements():
    assert len(enumerate_circled_bounded((3, 2, 1))) == 27
    assert len(enumerate_circled_bounded((4, 3, 2, 1))) == 729


def test_plain_unbounded_small():
    got = as_strs(enumerate_plain_unbounded((2, 1), 2, 2))
    assert got == ["()(1)", "(1)()", "(1)(1)"]
    capped = enumerate_plain_unbounded((2, 1), 3, 1)
    assert as_strs(capped) == ["()()(1)", "()(1)()", "(1)()()"]


# ---------------------------------------------------------------------------
# generating polynomials


def test_bounded_plain_genfun_is_single_polynomial():
    for size in (2, 3, 4):
        for w in all_permutations(size):
            assert genfun(
                enumerate_bounded_plain(w), m=size
            ) == grothendieck_single(w)


def test_sorted_single_example():
    assert pretty(genfun(enumerate_bounded_plain((3, 1, 2)), m=3)) == "x1^2"


def test_circled_genfun_is_double_polynomial():
    for w in all_permutations(3):
        assert genfun(
            enumerate_circled_bounded(w), m=3
        ) == grothendieck_double(w)
    assert genfun(
        enumerate_circled_bounded((2, 1, 4, 3)), m=4
    ) == grothendieck_double((2, 1, 4, 3))


def test_circled_longest_genfun_is_staircase_product():
    assert genfun(
        enumerate_circled_bounded((3, 2, 1)), m=3
    ) == staircase_product(2)


def test_double_genfun_is_double_polynomial():
    for w in all_permutations(3):
        assert genfun(
            enumerate_double_bounded(w), m=3
        ) == grothendieck_double(w)


def test_genfun_rejects_mixed_kinds():
    a = enumerate_bounded_plain((2, 1))[0]
    b = enumerate_plain_unbounded((2, 1), 2, 2)[0]
    with pytest.raises(ValueError):
        genfun([a, b])
    assert pretty(genfun([], m=2)) == "0"


def test_genfun_of_an_empty_family_needs_its_width():
    w = (2, 3, 4, 5, 1)
    family = enumerate_plain_unbounded(w, 3, 5)
    assert family == []
    with pytest.raises(ValueError, match="width"):
        genfun(family)
    assert genfun(family, 3) == _series("plain", w, 3, 5)
    assert genfun(family, 3).m == 3


@pytest.mark.parametrize("m", [True, 3.0, -1, "3"])
def test_genfun_rejects_a_width_that_is_not_an_int_at_least_zero(m):
    family = enumerate_bounded_plain((2, 1))
    for given in (family, []):
        with pytest.raises(ValueError, match="family size"):
            genfun(given, m)


def test_genfun_pads_weights_to_the_width_and_rejects_a_narrower_one():
    for family, width in (
        (enumerate_bounded_plain((2, 1)), 4),
        (enumerate_circled_bounded((2, 3, 1)), 5),
    ):
        expected = poly_sum(width, (monomial(width, *weight(f)) for f in family))
        assert genfun(family, width) == expected
        assert genfun(family, width).m == width
    with pytest.raises(ValueError):
        genfun(enumerate_bounded_plain((2, 1)), 1)


# every kind the series reads: (kind, its enumerator, parts, letters
# beyond the length, largest symmetric group).  No parts means a bounded
# kind, whose whole finite family is listed.
SUMMED_KINDS = [
    ("plain", enumerate_plain_unbounded, 3, 1, 5),
    ("double_unbounded", enumerate_double_unbounded, 2, 1, 5),
    ("hook", enumerate_hook, 2, 1, 5),
    ("bounded_plain", enumerate_bounded_plain, None, None, 4),
    ("circled_bounded", enumerate_circled_bounded, None, None, 4),
    ("double_bounded", enumerate_double_bounded, None, None, 4),
]


@pytest.mark.parametrize(
    "kind, enumerate_kind, parts, extra, top",
    SUMMED_KINDS,
    ids=[case[0] for case in SUMMED_KINDS],
)
def test_path_sum_equals_genfun_of_the_listed_family(
    kind, enumerate_kind, parts, extra, top
):
    for size in range(1, top + 1):
        for w in all_permutations(size):
            if parts is None:
                budget, width = None, len(w)
                family = enumerate_kind(w)
            else:
                budget, width = inversions(w) + extra, parts
                family = enumerate_kind(w, parts, budget)
            assert _series(kind, w, parts, budget) == genfun(family, width), w


@pytest.mark.parametrize(
    "kind, enumerate_kind, parts, extra, top",
    SUMMED_KINDS,
    ids=[case[0] for case in SUMMED_KINDS],
)
def test_listing_and_series_share_one_graph_in_either_order(
    kind, enumerate_kind, parts, extra, top
):
    # each order against a run that starts with no graph kept, at two
    # letter budgets for each permutation
    for w, more in itertools.product(all_permutations(4), (0, 1)):
        if parts is None:
            budget = None if more else inversions(w) + 1
            args = (w, budget)
        else:
            budget = inversions(w) + extra + more
            args = (w, parts, budget)

        def listed():
            return pickle.dumps(enumerate_kind(*args))

        def summed():
            return _series(kind, w, parts, budget)

        _graph.cache_clear()
        alone = listed()
        _graph.cache_clear()
        series = summed()
        for first, then, want in ((listed, summed, series), (summed, listed, alone)):
            _graph.cache_clear()
            first()
            hits = _graph.cache_info().hits
            assert then() == want, (kind, w)
            assert _graph.cache_info().hits == hits + 1


def test_genfun_adds_weights_that_pad_to_one_key():
    # two parts and three parts, padded to three: the tallies of distinct
    # weights of a and b meet in shared keys
    a = enumerate_plain_unbounded((2, 1), 2, 2)
    b = enumerate_plain_unbounded((2, 1), 3, 3)
    assert genfun(a + b, m=3) == genfun(a, m=3) + genfun(b, m=3)
    # a plain weight pads on the right, so two and three parts meet at m=3
    two = parse_factorization("()(1)", "plain", 1)
    three = parse_factorization("()()(1)", "plain", 1)
    assert pretty(genfun([two, three], m=3)) == "x2 + x3"
    # a double item's y-weight reads its own split: one part a side and
    # two parts a side of (2, 1) pad to one width, and with no m the
    # first item's width is too narrow for the second
    one = enumerate_double_unbounded((2, 1), 1, 2)
    both = one + enumerate_double_unbounded((2, 1), 2, 2)
    padded = poly_sum(2, (monomial(2, *weight(f)) for f in both))
    assert genfun(both, m=2) == padded
    assert pretty(padded) == (
        "2*x1 + x2 + 2*y1 + y2"
        " + x1*x2 + 2*x1*y1 + x1*y2 + x2*y1 + x2*y2 + y1*y2"
    )
    with pytest.raises(ValueError, match="wider than the width"):
        genfun(both)


def test_a_series_is_kept_beside_its_graph(monkeypatch):
    sums = []

    def counted(graph, weigh):
        sums.append(graph)
        return path_sum(graph, weigh)

    path_sum = factorizations._path_sum
    monkeypatch.setattr(factorizations, "_path_sum", counted)
    _graph.cache_clear()
    w, t = (3, 1, 4, 2), TruncationSpec(2, 5)
    single = stable_double(w, t)
    weak = weak_stable_double(w, t)
    assert len(sums) == 1
    assert stable_double(w, t) is single and len(sums) == 1
    assert weak == omega(omega(_series("double_unbounded", w, 2, 5), "x"), "y")
    _graph.cache_clear()
    assert stable_double(w, t) == single and len(sums) == 2


def test_path_sum_and_genfun_reject_what_they_cannot_weigh():
    with pytest.raises(ValueError):
        _series("circled", (2, 1), 3, 2)  # the unbounded circled kind
    for kind in ("plain", "double_unbounded", "hook"):
        with pytest.raises(ValueError, match="parts must be at least 0"):
            _series(kind, (1, 2), -1, 3)
    a = enumerate_plain_unbounded((2, 1), 2, 2)[0]
    b = enumerate_plain_unbounded((2, 1), 3, 2)[0]
    with pytest.raises(ValueError):
        genfun([a, b])  # one kind, two shapes


def test_parse_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'zzz'"):
        parse_factorization("(1)", "zzz", 1)


@pytest.mark.parametrize("budget", [None, 1.5, True])
def test_a_letter_budget_that_is_not_an_int_raises_value_error(budget):
    enumerate_hook((2, 1), 1, 1)  # leaves the graph of budget 1 cached
    with pytest.raises(ValueError, match="max_letters"):
        enumerate_hook((2, 1), 1, budget)
    if budget is not None:
        with pytest.raises(ValueError, match="max_letters must be an int"):
            enumerate_bounded_plain((2, 1), budget)


def test_parse_rejects_stray_characters():
    for text in ("(3 x 2)", "(3)x(2)", "(1)|(2)|(3)"):
        with pytest.raises(ValueError):
            parse_factorization(text, "plain", 3)


def test_split_only_on_double_kinds():
    for kind in ("plain", "bounded_plain", "circled", "circled_bounded", "hook"):
        assert is_valid_factorization(Factorization(kind, ((), (), ()), 2))
        assert not is_valid_factorization(Factorization(kind, ((), (), ()), 2, 1))
        with pytest.raises(ValueError):
            parse_factorization("()|()()", kind, 2)
    f = parse_factorization("()|()", "double_unbounded", 2)
    assert f.split == 1 and is_valid_factorization(f)


def test_weight_undefined_for_unbounded_circled():
    f = parse_factorization("(3 2 2o)(3o 2 1 1o)()(1o)", "circled", 3)
    with pytest.raises(ValueError):
        weight(f)


def test_circled_weight_rejects_a_letter_with_no_y_slot():
    # a circled 1 in factor 3 would weigh y_(-1), a circled 3 in factor
    # 1 of a two-factor family y_3
    for text, n in (("()()(1o)()", 3), ("(3o)()", 3)):
        f = parse_factorization(text, "circled_bounded", n)
        with pytest.raises(ValueError, match="no y slot"):
            weight(f)
    g = parse_factorization("(3o)()()()", "circled_bounded", 3)
    assert weight(g) == ((0, 0, 0, 0), (0, 0, 1, 0))


# ---------------------------------------------------------------------------
# Demazure-product pairs and the convolution identity


def test_enumerate_X_simple_transposition():
    assert enumerate_X((2, 1)) == [
        ((1, 2), (2, 1)),
        ((2, 1), (1, 2)),
        ((2, 1), (2, 1)),
    ]


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_enumerate_X_matches_all_pairs_filter(size):
    perms = all_permutations(size)
    by_product = {w: [] for w in perms}
    for u in perms:
        for v in perms:
            by_product[demazure_product(u, v)].append((u, v))
    for w, pairs in by_product.items():
        assert enumerate_X(w) == sorted(pairs)


def test_cauchy_sum_is_double_polynomial():
    for w in all_permutations(3) + all_permutations(4):
        assert cauchy_sum(w) == grothendieck_double(w), w


# ---------------------------------------------------------------------------
# enumerated members are well formed


def test_enumerated_members_are_valid_and_on_target():
    cases = [
        (enumerate_bounded_plain((4, 2, 3, 1)), (4, 2, 3, 1)),
        (enumerate_circled_bounded((1, 3, 2)), (1, 3, 2)),
        (enumerate_double_bounded((3, 1, 2)), (3, 1, 2)),
        (enumerate_double_unbounded((3, 2, 1), 2, 4), (3, 2, 1)),
        (enumerate_plain_unbounded((3, 1, 2), 3, 4), (3, 1, 2)),
        (enumerate_hook((3, 2, 1), 2, 4), (3, 2, 1)),
    ]
    for members, w in cases:
        assert members, w
        for f in members:
            assert is_valid_factorization(f)
            assert evaluation(f) == w
        assert len(set(map(factorization_to_str, members))) == len(members)


@pytest.mark.parametrize(
    "kind, enumerate_kind",
    [
        ("bounded_plain", enumerate_bounded_plain),
        ("circled_bounded", enumerate_circled_bounded),
        ("double_bounded", enumerate_double_bounded),
    ],
)
def test_validator_accepts_exactly_the_enumerated_members(
    kind, enumerate_kind
):
    # every candidate with factors of at most 2 letters, valid or not:
    # the validator and the target must single out the enumerator's
    # members of that size (double kinds: uncircled letters at n = 2)
    double = kind.startswith("double")
    for n in (1, 2):
        marks = (False,) if double and n == 2 else (False, True)
        letters = [Letter(v, c) for v in range(1, n + 1) for c in marks]
        factors = [()] + [(a,) for a in letters]
        factors += [(a, b) for a in letters for b in letters]
        split = n + 1 if double else None
        parts = 2 * (n + 1) if double else n + 1
        valid = {}
        for candidate in itertools.product(factors, repeat=parts):
            f = Factorization(kind, candidate, n, split)
            if is_valid_factorization(f):
                valid.setdefault(evaluation(f), set()).add(f)
        for w in all_permutations(n + 1):
            small = {
                f for f in enumerate_kind(w)
                if all(len(fac) <= 2 for fac in f.factors)
            }
            assert valid.get(w, set()) == small, (kind, w)


def test_letter_budget_is_respected():
    for f in enumerate_hook((3, 2, 1), 2, 4):
        assert f.letter_count() <= 4
    for f in enumerate_double_unbounded((3, 2, 1), 2, 5):
        assert f.letter_count() <= 5


def test_listing_edge_cases():
    # a root with one way to the end, and no slots at all
    assert [str(f) for f in enumerate_bounded_plain((1, 2))] == ["()()"]
    for w in ((1, 2, 3), (2, 1, 3)):
        family = enumerate_plain_unbounded(w, 0, 3)
        if w == (1, 2, 3):
            assert family == [Factorization("plain", (), 2)]
        else:
            assert family == []
    # a letter budget cuts the family to its members of few enough letters
    for w in ((3, 2, 1), (2, 1, 4, 3)):
        whole = enumerate_circled_bounded(w)
        for budget in range(inversions(w), inversions(w) + 3):
            assert enumerate_circled_bounded(w, budget) == [
                f for f in whole if f.letter_count() <= budget
            ]


def test_negative_bounds_and_counts_raise():
    w = (1, 2)
    with_budget = [
        lambda b: enumerate_bounded_plain(w, b),
        lambda b: enumerate_circled_bounded(w, b),
        lambda b: enumerate_double_bounded(w, b),
        lambda b: enumerate_double_unbounded(w, 1, b),
        lambda b: enumerate_plain_unbounded(w, 1, b),
        lambda b: enumerate_hook(w, 1, b),
    ]
    for enumerate_kind in with_budget:
        assert len(enumerate_kind(0)) == 1
        with pytest.raises(ValueError):
            enumerate_kind(-1)
    assert enumerate_double_unbounded(w, 0, 3) == [
        Factorization("double_unbounded", (), 1, split=0)
    ]
    assert enumerate_plain_unbounded(w, 0, 3) == [Factorization("plain", (), 1)]
    assert enumerate_hook(w, 0, 0) == [Factorization("hook", (), 1)]
    with pytest.raises(ValueError):
        enumerate_double_unbounded(w, -1, 3)
    with pytest.raises(ValueError):
        enumerate_plain_unbounded(w, -2, 3)
    with pytest.raises(ValueError):
        enumerate_hook(w, -1, 0)


# ---------------------------------------------------------------------------
# serialization


def test_str_round_trip():
    samples = [
        ("(3 2 1)(2)(3)()", "bounded_plain", 3),
        ("(4o 3 2o 1)(3 3o)(4 3 3o)(4)()", "circled_bounded", 4),
        ("()(3)(2)(1 2)|(3 1)(3 2)(3)()", "double_bounded", 3),
        ("(1 2)(1 3)|(2 1)(3 2)", "double_unbounded", 3),
        ("(3o 2o 2 3 3)(1o 2 2)(3o 2o 1 1 3 3)", "hook", 3),
    ]
    for text, kind, n in samples:
        f = parse_factorization(text, kind, n)
        assert factorization_to_str(f) == text
        assert f.kind == kind and f.n == n


ENUMERATED = [
    f
    for w in sorted(all_permutations(3))
    for f in [
        *enumerate_bounded_plain(w),
        *enumerate_circled_bounded(w),
        *enumerate_double_bounded(w),
        *enumerate_double_unbounded(w, 2, 4),
        *enumerate_plain_unbounded(w, 3, 4),
        *enumerate_hook(w, 2, 4),
    ]
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ENUMERATED))
def test_str_round_trip_property(f):
    assert parse_factorization(factorization_to_str(f), f.kind, f.n) == f


def test_factorizations_are_slotted_frozen_and_hash_by_value():
    assert len(set(ENUMERATED)) == len(ENUMERATED)
    for f in ENUMERATED:
        assert not hasattr(f, "__dict__")
        g = parse_factorization(factorization_to_str(f), f.kind, f.n)
        assert g == f and hash(g) == hash(f) and g is not f
    with pytest.raises(dataclasses.FrozenInstanceError):
        ENUMERATED[0].n = 5


def test_equal_factors_of_one_search_are_one_tuple():
    fs = enumerate_circled_bounded((4, 5, 1, 3, 2))
    assert len(fs) == 10_935
    factors = [fac for f in fs for fac in f.factors]
    assert len({id(fac) for fac in factors}) == len(set(factors))


def _paths_key(factors):
    """The public order of a listing on a tuple of factors: flat word,
    then circle mask, then factor lengths."""
    masks = tuple(l.circled for fac in factors for l in fac)
    words = tuple(l.value for fac in factors for l in fac)
    return words, masks, tuple(map(len, factors))


def _listed_family_args():
    """(kind, w, parts, max_letters) of every family _listed_families
    lists, in order."""
    for w in all_permutations(3) + all_permutations(4):
        for kind in ("bounded_plain", "circled_bounded", "double_bounded"):
            yield kind, w, None, None
        for parts, extra in ((2, 1), (3, 2)):
            budget = inversions(w) + extra
            for kind in ("plain", "double_unbounded", "hook"):
                yield kind, w, parts, budget
    for w in ((4, 5, 1, 3, 2), (3, 5, 4, 1, 2)):
        yield "circled_bounded", w, None, None
        yield "double_bounded", w, None, None
    # letters and factor lengths past one byte
    s_256 = tuple(range(1, 256)) + (257, 256)
    yield "double_unbounded", s_256, 1, 2
    yield "hook", (2, 1), 1, 300


_ENUMERATORS = {
    "bounded_plain": lambda w, parts, budget: enumerate_bounded_plain(w, budget),
    "circled_bounded": lambda w, parts, budget: enumerate_circled_bounded(w, budget),
    "double_bounded": lambda w, parts, budget: enumerate_double_bounded(w, budget),
    "plain": enumerate_plain_unbounded,
    "double_unbounded": enumerate_double_unbounded,
    "hook": enumerate_hook,
}


def _listed_families():
    for kind, *args in _listed_family_args():
        yield _ENUMERATORS[kind](*args)


def test_listing_is_sorted_by_flat_word_then_mask_then_lengths():
    sizes = []
    for family in _listed_families():
        assert family == sorted(family, key=lambda f: _paths_key(f.factors))
        sizes.append(len(family))
    assert sizes[-2:] == [3, 600]


@pytest.mark.parametrize("bound", [1, 10**9])
def test_listing_is_the_sorted_paths_at_any_completion_bound(monkeypatch, bound):
    # a state's completion list is made only up to a bound; at 1 almost
    # every path is walked, at 10**9 every state whose closings all end
    # is completed, and either way the listing is every path of the
    # search graph in the public order, factor for factor the same
    # objects
    monkeypatch.setattr(factorizations, "_COMPLETIONS", bound)
    for kind, w, parts, budget in _listed_family_args():
        listed = factorizations._listed(kind, w, parts, budget)
        paths = _tuples(_graph(kind, w, parts, budget).graph)
        expected = sorted(paths, key=_paths_key)
        assert [f.factors for f in listed] == expected, (kind, w, parts, budget)
        for f, factors in zip(listed, expected):
            assert all(map(operator.is_, f.factors, factors)), (kind, w)
        assert {(f.kind, f.n, f.split) for f in listed} <= {
            (kind, len(w) - 1, _graph(kind, w, parts, budget).split)
        }


def _shifted_to_s9(base):
    k = 9 - len(base)
    return tuple(range(1, k + 1)) + tuple(v + k for v in base)


def test_listing_sorts_at_the_key_width_boundaries():
    # over S_9 the letters reach 8, which needs a 4-bit value field, and
    # a hook factor of 8 or more letters needs a 4-bit length field
    families = []
    for base in all_permutations(3):
        w = _shifted_to_s9(base)
        budget = inversions(w) + 2
        families += [("double_unbounded", w, 2, budget), ("hook", w, 2, budget)]
    families += [("hook", (2, 1), 2, 9), ("hook", (2, 1), 3, 9)]
    families.append(("hook", (1, 3, 2), 2, 10))
    met = []
    for kind, w, parts, budget in families:
        listed = factorizations._listed(kind, w, parts, budget)
        met += [fac for f in listed for fac in f.factors]
        # every path of the search graph, sorted here by the public key
        paths = _tuples(_graph(kind, w, parts, budget).graph)
        expected = sorted(paths, key=_paths_key)
        assert [f.factors for f in listed] == expected
    assert max(l.value for fac in met for l in fac) == 8
    assert max(map(len, met)) == 10


def test_letter_order():
    ranks = [Letter(1, True), Letter(1), Letter(2, True), Letter(2)]
    assert [l.rank for l in ranks] == sorted(l.rank for l in ranks)
    assert str(Letter(3, True)) == "3o"
    assert str(Letter(3)) == "3"


def test_enumerate_factors_rejects_unknown_side():
    specs = [_chain_spec(_descending(1, 2))]
    assert hecke_search((2, 1, 3), specs, "left")
    with pytest.raises(ValueError):
        hecke_search((2, 1, 3), specs, "rigth")


T = TruncationSpec(2, 5)
TAKES_A_PERMUTATION = {
    "enumerate_bounded_plain": enumerate_bounded_plain,
    "enumerate_circled_bounded": enumerate_circled_bounded,
    "enumerate_double_bounded": enumerate_double_bounded,
    "enumerate_double_unbounded": lambda w: enumerate_double_unbounded(w, 2, 5),
    "enumerate_plain_unbounded": lambda w: enumerate_plain_unbounded(w, 2, 5),
    "enumerate_hook": lambda w: enumerate_hook(w, 2, 4),
    "stable_single": lambda w: stable_single(w, T),
    "stable_double": lambda w: stable_double(w, T),
    "weak_stable_double": lambda w: weak_stable_double(w, T),
    "halfweak_stable": lambda w: halfweak_stable(w, T),
    "stable_double_via_tableaux": lambda w: stable_double_via_tableaux(w, T),
    "cauchy_sum": cauchy_sum,
    "enumerate_X": enumerate_X,
    "hecke_distance_right": lambda w: hecke_distance(w, "right"),
    "hecke_distance_left": lambda w: hecke_distance(w, "left"),
    "grothendieck_single": grothendieck_single,
    "grothendieck_double": grothendieck_double,
    "enumerate_hecke_tableaux": enumerate_hecke_tableaux,
}


@pytest.mark.parametrize("name", TAKES_A_PERMUTATION)
def test_a_permutation_may_be_a_list_or_a_tuple(name):
    call = TAKES_A_PERMUTATION[name]
    w = (3, 1, 4, 2)
    _graph.cache_clear()
    from_list = call(list(w))
    assert from_list
    assert from_list == call(w)


def test_genfun_and_the_series_reject_a_degree_past_the_cap(monkeypatch):
    past = pytest.raises(ValueError, match="total degree 255 is past the cap 254")
    hook = parse_factorization("(" + " ".join("1" * 255) + ")", "hook", 1)
    assert weight(hook) == ((255,), (0,))
    with past:
        genfun([hook])
    assert _series("plain", (1, 2), 2, 254) == 1

    def no_path_sum(graph, weigh):
        raise AssertionError("a weight was packed")

    monkeypatch.setattr(factorizations, "_path_sum", no_path_sum)
    with past:
        _series("plain", (1, 2), 2, 255)
