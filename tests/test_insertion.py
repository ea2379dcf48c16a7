import itertools
from collections import defaultdict
from functools import cache

import pytest

from grothpoly.factorizations import (
    enumerate_double_unbounded,
    parse_factorization,
    weight,
)
from grothpoly.insertion import (
    _bump,
    insert_into_pair,
    insert_row,
    insert_word,
    phi,
)
from grothpoly.permutations import (
    all_permutations,
    eval_hecke_word_ltr,
    inverse,
    inversions,
)
from grothpoly.tableaux import (
    Entry,
    Tableau,
    enumerate_hecke_tableaux,
    is_hecke_tableau,
    is_psvt,
    is_standard_svt,
    outer_shape,
    tableau,
    weight_of,
)

from references import insert_word_by_rows, phi_by_rows


# ---------------------------------------------------------------------------
# row step


def test_insert_row_replaces_first_larger_entry():
    assert insert_row(None, (1, 2, 4, 5), 3) == ((1, 2, 3, 5), "bumped", 4)


def test_insert_row_equal_entry_pushes_its_neighbour():
    assert insert_row((1, 2, 3, 5), (2, 4, 6, 8), 4) == ((2, 4, 6, 8), "bumped", 6)


def test_insert_row_blocked_by_equal_entry_above():
    assert insert_row((2, 4, 6, 8), (3, 5, 7), 6) == ((3, 5, 7), "bumped", 7)


def test_insert_row_letter_equal_to_row_end_disappears():
    assert insert_row((3, 5, 7), (4, 7), 7) == ((4, 7), "disappeared", None)


def test_insert_row_letter_under_equal_entry_disappears():
    assert insert_row((1, 3), (1,), 3) == ((1,), "disappeared", None)


def test_insert_row_appends_past_row_end():
    assert insert_row(None, (), 5) == ((5,), "appended", None)
    assert insert_row((2, 4), (), 3) == ((3,), "appended", None)
    assert insert_row((1, 3, 4), (2, 4), 5) == ((2, 4, 5), "appended", None)


def test_insert_row_rejects_letters_off_the_bump_path():
    with pytest.raises(RuntimeError):
        insert_row((5,), (6,), 3)
    with pytest.raises(RuntimeError):
        insert_row((1, 2), (3, 4), 5)
    with pytest.raises(RuntimeError):
        insert_row((2, 4), (), 2)


@pytest.mark.parametrize("word", [(0, 1), (-1,), (True, 2), (1.5,), ("1",)])
def test_insert_word_rejects_letters_that_are_not_positive_ints(word):
    with pytest.raises(ValueError):
        insert_word(word)


@pytest.mark.parametrize("letter", [0, -1, True, 1.5, "1"])
def test_insert_into_pair_rejects_letters_that_are_not_positive_ints(letter):
    P, Q = insert_word((1, 2))
    with pytest.raises(ValueError):
        insert_into_pair(P, Q, letter, 3)


def test_insert_into_pair_rejects_pairs_of_different_or_skew_shapes():
    straight, _ = insert_word((1, 2))
    for P, Q in [
        (straight, tableau([[1]])),
        (tableau([[2]], inner=(1,)), tableau([[1]], inner=(1,))),
        (straight, tableau([[2]], inner=(1,))),
    ]:
        with pytest.raises(ValueError):
            insert_into_pair(P, Q, 3, 3)


def test_insert_into_pair_rejects_a_p_that_is_no_hecke_tableau():
    for P, Q in [
        (tableau([[[1, 2]]]), tableau([[1]])),
        (tableau([["1'"]]), tableau([[1]])),
        (tableau([[3, 1]]), tableau([[1, 2]])),
        (tableau([[1, 1]]), tableau([[1, 2]])),
        (tableau([[1], [1]]), tableau([[1], [2]])),
    ]:
        with pytest.raises(ValueError):
            insert_into_pair(P, Q, 2, 3)


# ---------------------------------------------------------------------------
# full words: pinned traces


def test_long_insertion_changes_one_row_and_marks_an_old_box():
    P = tableau([[1, 2, 4, 5], [2, 4, 6, 8], [3, 5, 7], [4, 7], [6, 8], [9]])
    Q = tableau(
        [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11], [12, 13], [14, 15], [16]]
    )
    P2, Q2 = insert_into_pair(P, Q, 3, 17)
    assert P2 == tableau(
        [[1, 2, 3, 5], [2, 4, 6, 8], [3, 5, 7], [4, 7], [6, 8], [9]]
    )
    assert Q2 == tableau(
        [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11], [12, 13], [14, [15, 17]], [16]]
    )


def test_trace_with_repeated_letter():
    steps = [insert_word((1, 3, 2, 2)[:k]) for k in range(1, 5)]
    assert steps == [
        (tableau([[1]]), tableau([[1]])),
        (tableau([[1, 3]]), tableau([[1, 2]])),
        (tableau([[1, 2], [3]]), tableau([[1, 2], [3]])),
        (tableau([[1, 2], [3]]), tableau([[1, [2, 4]], [3]])),
    ]


def test_trace_with_disappearing_letter():
    steps = [insert_word((1, 3, 1, 2)[:k]) for k in range(1, 5)]
    assert steps == [
        (tableau([[1]]), tableau([[1]])),
        (tableau([[1, 3]]), tableau([[1, 2]])),
        (tableau([[1, 3], [3]]), tableau([[1, 2], [3]])),
        (tableau([[1, 2], [3]]), tableau([[1, 2], [[3, 4]]])),
    ]


def test_same_word_different_tableaux():
    # the two traces above end on the same P but different Q
    P1, Q1 = insert_word((1, 3, 2, 2))
    P2, Q2 = insert_word((1, 3, 1, 2))
    assert P1 == P2 and Q1 != Q2


# ---------------------------------------------------------------------------
# full words: properties over every word of length <= 7 on letters <= 3


def words_up_to(length, n):
    for size in range(length + 1):
        yield from itertools.product(range(1, n + 1), repeat=size)


def strip(t):
    t = tuple(t)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def test_output_pair_is_always_valid():
    for w in words_up_to(6, 3):
        P, Q = insert_word(w)
        assert is_hecke_tableau(P, eval_hecke_word_ltr(w, 3))
        assert is_standard_svt(Q)
        assert outer_shape(P) == outer_shape(Q)
        marks = sorted(e.value for e in Q.all_entries())
        assert marks == list(range(1, len(w) + 1))


def test_descent_of_the_word_means_descent_in_the_record():
    for w in words_up_to(7, 3):
        _, Q = insert_word(w)
        row_of = {}
        for r, row in enumerate(Q.rows):
            for box in row:
                for e in box:
                    row_of[e.value] = r
        for i in range(1, len(w)):
            assert (row_of[i + 1] > row_of[i]) == (w[i - 1] > w[i])


@cache
def standard_svts(shape, n_letters):
    """Every standard set-valued filling of shape by 1..n_letters, built
    by handing out letters in order: a letter may join a box only while
    nothing sits to its right or below, and never before its left and
    upper neighbours have started."""
    boxes = [(r, c) for r, ln in enumerate(shape) for c in range(ln)]
    contents = {b: [] for b in boxes}
    out = []

    def go(t, empties):
        if n_letters - t + 1 < empties:
            return
        if t > n_letters:
            rows = tuple(
                tuple(
                    tuple(Entry(v) for v in contents[(r, c)])
                    for c in range(ln)
                )
                for r, ln in enumerate(shape)
            )
            out.append(Tableau(rows))
            return
        for r, c in boxes:
            if contents.get((r, c + 1)) or contents.get((r + 1, c)):
                continue
            if (r, c - 1) in contents and not contents[(r, c - 1)]:
                continue
            if (r - 1, c) in contents and not contents[(r - 1, c)]:
                continue
            was_empty = not contents[(r, c)]
            contents[(r, c)].append(t)
            go(t + 1, empties - was_empty)
            contents[(r, c)].pop()

    go(1, len(boxes))
    assert all(is_standard_svt(T) for T in out)
    return tuple(out)


def test_insert_word_matches_the_row_by_row_reference_forwards_then_backwards():
    # the backward walk reads the bump steps the forward walk cached, so
    # a cached step changed by a later call would show here
    cases = [(w, insert_word_by_rows(w)) for w in words_up_to(6, 4)]
    for w, pair in cases + cases[::-1]:
        assert insert_word(w) == pair, w


def test_cached_bump_steps_hold_tuples_only():
    for w in words_up_to(5, 3):
        p_rows = ()
        for a in w:
            p_rows, box = _bump(p_rows, a)
            assert type(p_rows) is tuple and type(box) is tuple, w
            assert all(type(row) is tuple for row in p_rows), w


def test_insertion_counts_tableau_pairs():
    for size in range(1, 8):
        groups = defaultdict(list)
        for w in itertools.product((1, 2, 3), repeat=size):
            groups[eval_hecke_word_ltr(w, 3)].append(w)
        for perm, words in groups.items():
            image = {insert_word(w) for w in words}
            assert len(image) == len(words)
            universe = {
                (P, Q)
                for P in enumerate_hecke_tableaux(perm, max_boxes=size)
                for Q in standard_svts(outer_shape(P), size)
            }
            assert image == universe


# ---------------------------------------------------------------------------
# the two-sided map


def test_two_sided_insertion_worked_example():
    f = parse_factorization("(1 2 4)(1 3)|(4 3 2)(3)", "double_unbounded", 9)
    P, Q = phi(f)
    assert P == tableau([[1, 2, 3, 4], [2, 3, 4], [4]])
    assert Q == tableau([["1'", "1'", "2'", 1], ["2'", "2'1", 2], [1]])


def transpose(T):
    """A straight-shape tableau reflected across its main diagonal."""
    width = len(T.rows[0]) if T.rows else 0
    return Tableau(
        tuple(tuple(row[c] for row in T.rows if c < len(row)) for c in range(width))
    )


def phi_by_public_insertion(f):
    """phi built from insert_into_pair and transpose alone."""
    left, right = f.factors[: f.split], f.factors[f.split :]
    P = Q = Tableau(())
    for i, fac in enumerate(reversed(left), start=1):
        for letter in reversed(fac):
            P, Q = insert_into_pair(P, Q, letter.value, i)
    P = transpose(P)
    Q = Tableau(
        tuple(
            tuple(tuple(Entry(e.value, True) for e in box) for box in row)
            for row in transpose(Q).rows
        )
    )
    for i, fac in enumerate(right, start=1):
        for letter in fac:
            P, Q = insert_into_pair(P, Q, letter.value, i)
    return P, Q


def test_phi_matches_public_insertion_forwards_then_backwards():
    # the backward walk reads left halves the forward walk cached, so a
    # cached state changed by a later call would show here
    cases = [
        (f, phi_by_public_insertion(f))
        for w in all_permutations(4)
        for f in enumerate_double_unbounded(w, 2, inversions(w) + 2)
    ]
    for f, pair in cases + cases[::-1]:
        assert phi(f) == pair, f


def test_phi_matches_the_row_by_row_reference_forwards_then_backwards():
    # phi_by_public_insertion shares the cached bump step with phi, and
    # phi_by_rows shares nothing with it but insert_row
    cases = [
        (f, phi_by_rows(f))
        for w in all_permutations(4)
        for f in enumerate_double_unbounded(w, 2, inversions(w) + 2)
    ]
    for f, pair in cases + cases[::-1]:
        assert phi(f) == pair, f


def test_two_sided_insertion_rejects_one_sided_input():
    f = parse_factorization("(2 1)", "plain", 2)
    with pytest.raises(ValueError):
        phi(f)


@cache
def partial_svts(shape, parts, budget):
    """Every primed set-valued filling of shape with values <= parts and
    at most budget entries, by brute filling and filtering."""
    pool = [Entry(v, True) for v in range(1, parts + 1)]
    pool += [Entry(v) for v in range(1, parts + 1)]
    boxes = sum(shape)
    out = []

    def fill(r, c, rows, row, used):
        if r == len(shape):
            T = Tableau(tuple(rows))
            if is_psvt(T):
                out.append(T)
            return
        if c == shape[r]:
            fill(r + 1, 0, rows + [tuple(row)], [], used)
            return
        still_empty = boxes - sum(shape[:r]) - c - 1
        for size in range(1, budget - used - still_empty + 1):
            for combo in itertools.combinations(pool, size):
                fill(r, c + 1, rows, row + [combo], used + size)

    fill(0, 0, [], [], 0)
    return tuple(out)


def test_two_sided_insertion_preserves_both_weights():
    for w in all_permutations(3):
        for parts in (1, 2, 3):
            for f in enumerate_double_unbounded(w, parts, 6):
                P, Q = phi(f)
                assert is_psvt(Q)
                assert is_hecke_tableau(P, inverse(w))
                fx, fy = weight(f)
                qx, qy = weight_of(Q)
                assert strip(fx) == strip(qx)
                assert strip(fy) == strip(qy)


def test_two_sided_insertion_counts_tableau_pairs():
    for w in all_permutations(3):
        for parts in (1, 2, 3):
            fs = enumerate_double_unbounded(w, parts, 6)
            image = {phi(f) for f in fs}
            assert len(image) == len(fs)
            universe = {
                (P, Q)
                for P in enumerate_hecke_tableaux(inverse(w), max_boxes=6)
                for Q in partial_svts(outer_shape(P), parts, 6)
            }
            assert image == universe
