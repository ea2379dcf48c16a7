import random
from itertools import product
import signal

import pytest

from grothpoly import factorizations, tableaux
from grothpoly.permutations import _interval, _path_sum, _search_graph
from grothpoly.permutations import (
    FactorSpec,
    all_permutations,
    eval_hecke_word,
    eval_hecke_word_ltr,
    hecke_apply,
    hecke_apply_right,
    hecke_distance,
    hecke_search,
    identity,
    inverse,
    inversions,
    lex_min_reduced_word,
    perm_from_str,
    perm_to_str,
    reduced_words,
)
from references import (
    demazure_product,
    longest_element,
    support,
    word_from_str,
    word_to_str,
)


def brute_force_words(target, max_len):
    """Oracle: try every word over the alphabet, no pruning."""
    n = len(target) - 1
    found = []
    for length in range(max_len + 1):
        for word in product(range(1, n + 1), repeat=length):
            if eval_hecke_word(word, n) == target:
                found.append(word)
    return found


def test_hecke_apply_examples():
    assert hecke_apply((1, 2), 1) == (2, 1)
    assert hecke_apply((2, 1), 1) == (2, 1)
    assert hecke_apply((1, 3, 2, 4), 3) == (1, 4, 2, 3)


def test_hecke_apply_idempotent():
    for p in all_permutations(4):
        for i in range(1, 4):
            once = hecke_apply(p, i)
            assert hecke_apply(once, i) == once


def test_hecke_apply_rejects_bad_index():
    with pytest.raises(ValueError):
        hecke_apply((1, 2, 3), 3)
    with pytest.raises(ValueError):
        hecke_apply_right((1, 2, 3), 0)


def test_eval_hecke_word_pinned():
    # flattening of the factorization (32)(321)()(1)
    assert eval_hecke_word((3, 2, 3, 2, 1, 1), 3) == (4, 1, 3, 2)
    assert eval_hecke_word((), 3) == (1, 2, 3, 4)


def test_eval_matches_step_by_step_simulation():
    word = (1, 3, 2, 2)
    p = (1, 2, 3, 4)
    for i in reversed(word):
        p = hecke_apply(p, i)
    assert eval_hecke_word(word, 3) == p


def test_eval_ltr_is_reverse_and_inverse():
    rng = random.Random(7)
    for _ in range(100):
        word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 7)))
        assert eval_hecke_word_ltr(word, 3) == eval_hecke_word(word[::-1], 3)
        assert eval_hecke_word_ltr(word, 3) == inverse(eval_hecke_word(word, 3))


def test_letter_doubling_never_changes_eval():
    rng = random.Random(11)
    for _ in range(100):
        word = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 6)))
        pos = rng.randrange(len(word))
        doubled = word[: pos + 1] + (word[pos],) + word[pos + 1 :]
        assert eval_hecke_word(word, 3) == eval_hecke_word(doubled, 3)


def test_braid_and_commutation_exhaustive():
    # substitute the relation inside every context of length <= 4 in S_4
    contexts = [
        w
        for length in range(3)
        for w in product(range(1, 4), repeat=length)
    ]
    for left, right in [((1, 2, 1), (2, 1, 2)), ((2, 3, 2), (3, 2, 3)), ((1, 3), (3, 1))]:
        for pre in contexts:
            for post in contexts:
                assert eval_hecke_word(pre + left + post, 3) == eval_hecke_word(
                    pre + right + post, 3
                )


def test_distinct_generators_evaluate_differently():
    # doubling, braid and commutation are covered above; distinct
    # generators never evaluate alike
    assert eval_hecke_word((1,), 2) != eval_hecke_word((2,), 2)


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((4, 1, 3, 2)) == 4
    for size in range(2, 6):
        assert inversions(longest_element(size)) == size * (size - 1) // 2


def test_inversions_equals_reduced_word_length():
    for p in all_permutations(4):
        words = reduced_words(p)
        assert words
        assert all(len(w) == inversions(p) for w in words)


def test_reduced_words_examples():
    assert reduced_words((1, 2, 3)) == ((),)
    assert reduced_words((3, 2, 1)) == ((1, 2, 1), (2, 1, 2))
    assert reduced_words((2, 1, 3)) == ((1,),)


def test_reduced_words_evaluate_home():
    for p in all_permutations(4):
        for w in reduced_words(p):
            assert eval_hecke_word(w, 3) == p


def test_lex_min_reduced_word():
    for p in all_permutations(4):
        assert lex_min_reduced_word(p) == min(reduced_words(p))


def test_lex_min_reduced_word_rejects_a_non_permutation():
    def hung(signum, frame):
        raise TimeoutError("lex_min_reduced_word did not return")

    # a one-letter non-permutation must fail, not loop forever
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for bad in ((0,), (2,), (1, 1), (2, 3), (0, 1, 2), ()):
            with pytest.raises(ValueError, match="not a permutation"):
                lex_min_reduced_word(bad)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def enumerate_hecke_words(p, max_len):
    """All words of length <= max_len over the alphabet 1..n evaluating
    to p, sorted by length then lexicographically: hecke_search over one
    factor that takes any letter."""
    letters = [(i, i, max_len) for i in range(1, len(p))]
    spec = FactorSpec(lambda prev, below: letters, max_len)
    words = (word for (word,) in hecke_search(p, [spec], "right", max_len))
    return sorted(words, key=lambda w: (len(w), w))


def test_enumerate_hecke_words_examples():
    assert enumerate_hecke_words((1, 2), 0) == [()]
    assert enumerate_hecke_words((2, 1), 3) == [(1,), (1, 1), (1, 1, 1)]
    assert enumerate_hecke_words((3, 2, 1), 3) == [(1, 2, 1), (2, 1, 2)]


@pytest.mark.parametrize("size,max_len", [(2, 5), (3, 5), (4, 6)])
def test_enumerate_hecke_words_against_brute_force(size, max_len):
    for p in all_permutations(size):
        assert enumerate_hecke_words(p, max_len) == sorted(
            brute_force_words(p, max_len), key=lambda w: (len(w), w)
        )


def test_enumerate_hecke_words_rejects_negative_length():
    with pytest.raises(ValueError):
        enumerate_hecke_words((1, 2), -1)


def increasing_spec(n):
    """A strictly increasing factor over 1..n that reads below: it holds
    at least as many letters as the factor before it and does not start
    with that factor's first letter."""

    def candidates(prev, below):
        lo = 1 if prev is None else prev + 1
        return [
            (i, i, n - i)
            for i in range(lo, n + 1)
            if prev is not None or below[:1] != (i,)
        ]

    return FactorSpec(candidates, n, len)


@pytest.mark.parametrize("side", ["right", "left"])
def test_hecke_search_matches_brute_force(side):
    n = 3
    spec = increasing_spec(n)
    words = [
        w
        for k in range(n + 1)
        for w in product(range(1, n + 1), repeat=k)
        if list(w) == sorted(set(w))
    ]
    evaluate = eval_hecke_word if side == "right" else eval_hecke_word_ltr
    for target in all_permutations(n + 1):
        for budget in (None, 0, 1, 2, 3, 4, 5):
            expected = sorted(
                (a, b)
                for a in words
                for b in words
                if len(a) + len(b) <= (2 * n if budget is None else budget)
                and len(b) >= len(a)
                and not (a and b and a[0] == b[0])
                and evaluate(a + b, n) == target
            )
            found = hecke_search(target, [spec, spec], side, budget)
            assert sorted(found) == expected, (target, budget)
            assert len(set(found)) == len(found)
    assert hecke_search((1, 2), [], side) == [()]
    assert hecke_search((2, 1), [], side) == []
    with pytest.raises(ValueError):
        hecke_search((1, 2), [spec], side, -1)


def letter_by_letter_search(target, specs, side, max_letters=None):
    """Oracle: hecke_search as one depth-first walk that grows each
    prefix letter by letter and re-expands every state it reaches."""
    dist = hecke_distance(target, side)
    apply_fn = hecke_apply_right if side == "right" else hecke_apply
    tail = [sum(spec.size for spec in specs[idx:]) for idx in range(len(specs) + 1)]
    if max_letters is None:
        max_letters = tail[0]
    far = max_letters + 1
    out = []
    factors = []
    share = {}.setdefault

    def fill(idx, below, least, letters, prev, u, used):
        rest = tail[idx + 1]
        need = dist.get(u, far)
        if len(letters) >= least and need <= rest and need <= max_letters - used:
            closed = tuple(letters)
            factors.append(share(closed, closed))
            if idx + 1 == len(specs):
                out.append(tuple(factors))
            else:
                fewest = specs[idx + 1].least(factors[-1])
                fill(idx + 1, factors[-1], fewest, [], None, u, used)
            factors.pop()
        left = max_letters - used - 1
        if left < 0:
            return
        for letter, generator, room in specs[idx].candidates(prev, below):
            u2 = apply_fn(u, generator)
            need = dist.get(u2, far)
            if need <= left and need <= room + rest:
                letters.append(letter)
                fill(idx, below, least, letters, letter, u2, used + 1)
                letters.pop()

    start = identity(len(target))
    if not specs:
        return [()] if start == target else []
    if dist.get(start, far) <= min(tail[0], max_letters):
        fill(0, (), specs[0].least(()), [], None, start, 0)
    return out


def searched_specs(monkeypatch):
    """The (name, specs, side) that the six factorization families and
    the Hecke tableaux of S_4 hand to the search: a family builds its
    graph with _search_graph (through the cached factorizations._graph,
    cleared so that every family builds), the tableaux call hecke_search."""
    seen = []

    def record(target, specs, side, max_letters=None):
        seen.append((specs, side))
        return []

    def build(target, specs, side, max_letters):
        seen.append((specs, side))
        return _search_graph(target, specs, side, max_letters)

    factorizations._graph.cache_clear()
    monkeypatch.setattr(factorizations, "_search_graph", build)
    monkeypatch.setattr(tableaux, "hecke_search", record)
    w = (4, 3, 2, 1)
    calls = {
        "bounded_plain": lambda: factorizations.enumerate_bounded_plain(w),
        "circled_bounded": lambda: factorizations.enumerate_circled_bounded(w),
        "double_bounded": lambda: factorizations.enumerate_double_bounded(w),
        "double_unbounded": lambda: factorizations.enumerate_double_unbounded(w, 2, 8),
        "plain_unbounded": lambda: factorizations.enumerate_plain_unbounded(w, 3, 8),
        "hook": lambda: factorizations.enumerate_hook(w, 2, 3),
        "hecke_tableaux": lambda: tableaux.enumerate_hecke_tableaux(w),
    }
    out = []
    for name, call in calls.items():
        call()
        (specs, side), = seen
        seen.clear()
        out.append((name, specs, side))
    monkeypatch.undo()
    return out


def test_hecke_search_keeps_the_letter_by_letter_order(monkeypatch):
    cases = searched_specs(monkeypatch)
    cases += [(side, [increasing_spec(3)] * 2, side) for side in ("right", "left")]
    for name, specs, side in cases:
        for target in all_permutations(4):
            for budget in (None, *range(inversions(target) + 3)):
                found = hecke_search(target, specs, side, budget)
                want = letter_by_letter_search(target, specs, side, budget)
                assert found == want, (name, target, budget)
                shared = {}
                for factors in found:
                    for factor in factors:
                        assert shared.setdefault(factor, factor) is factor


def test_a_search_graph_lists_each_state_after_the_states_it_closes_into(
    monkeypatch,
):
    cases = searched_specs(monkeypatch)
    for name, specs, side in cases:
        for target in all_permutations(4):
            closings, root = _search_graph(target, specs, side, None)
            position = {state: k for k, state in enumerate(closings)}
            for state, out in closings.items():
                for _, nxt in out:
                    assert nxt is None or position[nxt] < position[state], name
            assert position[root] == len(closings) - 1


def path_sum(target, specs, side, weigh, max_letters=None):
    """The path sum of a search graph built for this call alone."""
    return _path_sum(_search_graph(target, specs, side, max_letters), weigh)


def test_hecke_path_sum_counts_what_hecke_search_lists(monkeypatch):
    # any weight of the slot and the factor's letters; no field is packed,
    # so the totals are plain sums
    def weigh(slot, factor):
        return hash((slot, factor)) % 1009

    cases = searched_specs(monkeypatch)
    cases += [(side, [increasing_spec(3)] * 2, side) for side in ("right", "left")]
    for name, specs, side in cases:
        for target in all_permutations(4):
            for budget in (None, *range(inversions(target) + 3)):
                found = hecke_search(target, specs, side, budget)
                want = {}
                for factors in found:
                    total = sum(weigh(slot, f) for slot, f in enumerate(factors))
                    want[total] = want.get(total, 0) + 1
                got = path_sum(target, specs, side, weigh, budget)
                assert got == want, (name, target, budget)
    assert path_sum((1, 2), [], "right", weigh) == {0: 1}
    assert path_sum((2, 1), [], "right", weigh) == {}
    with pytest.raises(ValueError):
        path_sum((1, 2), [increasing_spec(1)], "right", weigh, -1)


def search_states(target, specs, side):
    table, root = _search_graph(target, specs, side, None)
    table[root]
    return len(table)


def test_specs_that_ignore_below_merge_states_with_equal_closings(monkeypatch):
    # keyed with below, the same specs list the same tuples over more states
    by_name = {name: (specs, side) for name, specs, side in searched_specs(monkeypatch)}
    w = (3, 5, 4, 1, 2)
    for name, states, keyed_states in (
        ("circled_bounded", 133, 751),
        ("double_bounded", 270, 758),
    ):
        specs, side, _ = factorizations._family(name, len(w) - 1)
        assert not any(spec.reads_below for spec in specs)
        keyed = [spec._replace(reads_below=True) for spec in specs]
        assert search_states(w, specs, side) == states
        assert search_states(w, keyed, side) == keyed_states
        assert hecke_search(w, specs, side) == hecke_search(w, keyed, side)
    specs, side = by_name["hecke_tableaux"]
    assert all(spec.reads_below for spec in specs)


def test_a_shifted_permutation_keeps_the_state_count_of_its_base():
    # the tableaux bases of S_5 at m = 2, D = l + 2: a shift moves every
    # letter up and numbers a copy of the same interval, so the graph of
    # each copy in S_6 and S_7 has the base's states
    bases = {
        (3, 1, 2, 4, 5): 14,
        (2, 1, 4, 3, 5): 23,
        (1, 3, 4, 2, 5): 16,
        (2, 3, 1, 5, 4): 36,
        (1, 4, 2, 5, 3): 25,
        (2, 1, 5, 3, 4): 32,
        (3, 2, 1, 5, 4): 69,
        (2, 4, 1, 5, 3): 47,
    }
    for base, states in bases.items():
        copies = [base] + [
            tuple(range(1, k + 1))
            + tuple(v + k for v in base)
            + tuple(range(len(base) + k + 1, size + 1))
            for size in (6, 7)
            for k in range(size - len(base) + 1)
        ]
        for w in copies:
            n = len(w) - 1
            specs, side, _ = factorizations._family("double_unbounded", n, 2)
            closings, _ = _search_graph(w, specs, side, inversions(w) + 2)
            assert len(closings) == states, w


def test_a_letter_that_leaves_the_interval_is_pruned():
    # below (2, 1, 3) on the right lie only itself and the identity, so
    # generator 2 takes either out of the interval, to the one number
    # past it, whose distance no budget allows
    target = (2, 1, 3)
    dist = hecke_distance(target, "right")
    interval = _interval(target, dist, "right", 5)
    outside = len(interval.index)
    assert outside == 2 and interval.need[outside] == 5
    for u in dist:
        row = interval.step[interval.index[u]]
        assert row[1] == interval.index[target]
        assert row[2] == outside
    assert interval.step[outside][1:] == [outside, outside]
    letters = [(g, g, 4) for g in (2, 1)]
    spec = FactorSpec(lambda prev, below: letters, 4)
    closings, root = _search_graph(target, [spec], "right", 4)
    factors = [factor for factor, _ in closings[root]]
    assert factors == [(1,) * k for k in (1, 2, 3, 4)]
    assert all(u < outside for _, _, u, _ in closings)
    for generator in (0, -1, 3):
        bad = FactorSpec(lambda prev, below, g=generator: [(g, g, 0)], 1)
        with pytest.raises(ValueError, match="out of range"):
            hecke_search(target, [bad], "right")


def action_graph_distances(size, side):
    """Oracle: for every target in S_size, the least number of generators
    taking each u to it, by breadth-first search backwards over the
    forward action graph of the whole group."""
    apply_fn = hecke_apply_right if side == "right" else hecke_apply
    perms = all_permutations(size)
    preds = {}
    for u in perms:
        for i in range(1, size):
            preds.setdefault(apply_fn(u, i), set()).add(u)
    tables = {}
    for target in perms:
        dist = {target: 0}
        frontier = [target]
        while frontier:
            reached = []
            for v in frontier:
                for u in preds.get(v, ()):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        reached.append(u)
            frontier = reached
        tables[target] = dist
    return tables


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_hecke_distance_matches_action_graph_search(size, side):
    for target, expected in action_graph_distances(size, side).items():
        dist = hecke_distance(target, side)
        assert dist == expected
        assert all(d == inversions(target) - inversions(u) for u, d in dist.items())


def test_hecke_distance_rejects_unknown_side():
    for side in ("rigth", "Left", "", None):
        with pytest.raises(ValueError):
            hecke_distance((2, 3, 1), side)


def test_demazure_product_examples():
    assert demazure_product((1, 2, 3), (3, 1, 2)) == (3, 1, 2)
    assert demazure_product((2, 1), (2, 1)) == (2, 1)


def test_demazure_product_word_choice_independent():
    rng = random.Random(3)
    perms = all_permutations(4)
    for _ in range(60):
        u, v = rng.choice(perms), rng.choice(perms)
        expected = demazure_product(u, v)
        wu = rng.choice(reduced_words(u))
        wv = rng.choice(reduced_words(v))
        assert eval_hecke_word(wu + wv, 3) == expected


def test_demazure_product_associative():
    rng = random.Random(5)
    perms = all_permutations(4)
    for _ in range(40):
        u, v, w = (rng.choice(perms) for _ in range(3))
        assert demazure_product(demazure_product(u, v), w) == demazure_product(
            u, demazure_product(v, w)
        )


def test_support():
    assert support((1, 2, 3)) == frozenset()
    assert support((3, 1, 2, 5, 4)) == frozenset({1, 2, 4})
    # the letters of every Hecke word cover the support, and the letters
    # of some reduced word are exactly the support's interval closure
    for p in all_permutations(4):
        sup = support(p)
        for w in enumerate_hecke_words(p, inversions(p) + 1):
            assert sup <= set(w)
        for w in reduced_words(p):
            assert sup == set(w)


def test_serialization_round_trip():
    assert perm_to_str((4, 1, 3, 2)) == "4,1,3,2"
    assert perm_from_str("4,1,3,2") == (4, 1, 3, 2)
    assert word_to_str((3, 2, 3, 2, 1, 1), 3) == "323211"
    assert word_from_str("323211") == (3, 2, 3, 2, 1, 1)
    assert word_from_str("10,2") == (10, 2)
    with pytest.raises(ValueError):
        perm_from_str("1,1,2")
    with pytest.raises(ValueError):
        perm_from_str("zap")


def test_word_from_str_rejects_letters_below_one():
    for bad in ("0", "102", "-1,2", "3,0", "2,-4"):
        with pytest.raises(ValueError):
            word_from_str(bad)


def test_identity_and_inverse():
    assert identity(4) == (1, 2, 3, 4)
    for p in all_permutations(4):
        assert inverse(inverse(p)) == p
        assert demazure_product(p, identity(4)) == p
