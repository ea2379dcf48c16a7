from collections import Counter
import itertools

import pytest

from grothpoly.factorizations import enumerate_plain_unbounded, genfun
from grothpoly.permutations import all_permutations, eval_hecke_word_ltr
from grothpoly.polynomials import (
    Polynomial,
    coefficient,
    monomial,
    pi,
    pretty,
    set_y_equal_x,
    substitute_zero,
    truncate_degree,
)
from grothpoly.tableaux import (
    Entry,
    Tableau,
    check_partition,
    conjugate,
    contains,
    enumerate_hecke_tableaux,
    f_coefficient,
    genfun_psmt,
    genfun_psvt,
    genfun_pt,
    genfun_svt,
    has_i_lattice,
    has_i_starting,
    is_hecke_tableau,
    is_psmt,
    is_psvt,
    is_pt,
    is_standard_svt,
    is_svt,
    marked_key,
    oft_count,
    outer_shape,
    partitions_inside,
    partitions_of,
    pretty_tableau,
    q_schur,
    split_key,
    tableau,
    weight_of,
)
from grothpoly import tableaux
from grothpoly.tableaux import (
    _f_tally,
    _hecke_shapes,
    _lattice,
    _top_down_scan,
)

from references import f_tally_full_alphabet, is_oft, pt_fillings


# ---------------------------------------------------------------------------
# partitions


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 1, 1)) == (3, 1)
    assert conjugate(()) == ()
    for n in range(7):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_partitions_of():
    assert partitions_of(0) == [()]
    assert partitions_of(4, 3) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(6)) == 11


def test_partitions_of_a_negative_number_or_part_raise():
    assert partitions_of(3, 0) == [] and partitions_of(0, 0) == [()]
    for n, max_part in ((-1, None), (-1, 3), (3, -1), (0, -1)):
        with pytest.raises(ValueError):
            partitions_of(n, max_part)


def test_partitions_inside_matches_filter():
    for shape in [(), (1,), (3,), (2, 2), (3, 2, 1), (4, 1)]:
        brute = sorted(
            {
                p
                for n in range(sum(shape) + 1)
                for p in partitions_of(n)
                if contains(shape, p)
            },
            key=lambda p: (len(p), p),
        )
        assert partitions_inside(shape) == brute


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_tableau_rejects_specs_it_cannot_read():
    for spec in ("10", "1x", "1 2", "1''", 0, [Entry(0)]):
        with pytest.raises(ValueError):
            tableau([[spec]])
    assert tableau([[["1'2", 3]]]) == tableau([["1'23"]])


# ---------------------------------------------------------------------------
# validators on the worked tableaux


PSVT_EXAMPLE = tableau(
    [["1'2'", "2'3'", "123"], ["3'1", "23", "4"], ["12", "34"]]
)

PSMT_EXAMPLE = tableau(
    [["1'11", "12'", "23'"], ["2'", "2", "3'33"], ["2'3'", "3"]]
)

OFT_INNER = (4, 3, 2, 1)
OFT_EXAMPLE = tableau(
    [[4, 2], [3, 2, 1], [2, 2, 1], [1, 1, 1]], inner=OFT_INNER
)

BIG_PT = tableau(
    [
        ["1'", 1, 1, 1, 1, 1],
        [1, "2'", 2, 2],
        ["2'", 2, "3'", 3],
        [2, "3'", 3, 4],
        [3, "4'", 4],
    ]
)


def test_psvt_example():
    assert is_psvt(PSVT_EXAMPLE)
    assert weight_of(PSVT_EXAMPLE) == ((3, 3, 3, 2), (1, 2, 2, 0))


def test_psvt_counter_cases():
    # unprimed value twice in one row
    assert not is_psvt(tableau([[1, 1]]))
    # primed value twice in one column
    assert not is_psvt(tableau([["1'"], ["1'"]]))
    # split order: primed may not follow unprimed inside a box
    assert not is_psvt(tableau([["1", "2'"]]))
    # unprimed may repeat down a column
    assert is_psvt(tableau([[1], [1]]))


def test_psmt_example():
    assert is_psmt(PSMT_EXAMPLE)
    assert weight_of(PSMT_EXAMPLE) == ((3, 2, 3), (1, 3, 3))


def test_psmt_counter_cases():
    # unprimed value in two boxes of a column
    assert not is_psmt(tableau([[1], [1]]))
    # primed value twice in one box
    twice = Tableau((((Entry(1, True), Entry(1, True)),),))
    assert not is_psmt(twice)
    # primed value in two boxes of a row
    assert not is_psmt(tableau([["1'", "1'2"]]))
    # unprimed may repeat inside a box and along a row
    assert is_psmt(tableau([["11", 1]]))


def test_oft_example():
    assert is_oft(OFT_EXAMPLE, OFT_INNER)


def test_oft_counter_cases():
    # entry above the row flag
    assert not is_oft(tableau([[3]], inner=(2,)), (2,))
    # rows must weakly decrease
    assert not is_oft(tableau([[1, 2]], inner=(2,)), (2,))
    # columns must strictly decrease
    assert not is_oft(
        tableau([[2, 2], [2]], inner=(2, 2)), (2, 2)
    )
    assert is_oft(tableau([[2, 2], [1]], inner=(2, 2)), (2, 2))


def test_standard_svt():
    assert is_standard_svt(tableau([["12", 4], [3]]))
    # 3 repeats: not a partition of {1..N}
    assert not is_standard_svt(tableau([[1, 3], [3]]))
    # weak row violates strictness
    assert not is_standard_svt(tableau([["12", 2], [3]]))


def test_svt_buch_orientation():
    # equal values may sit in adjacent boxes of a row ...
    assert is_svt(tableau([[1, 1]]))
    # ... but not of a column
    assert not is_svt(tableau([[1], [1]]))
    assert is_svt(tableau([["12", 2], [3]]))
    assert not is_svt(tableau([["12", 1]]))


def test_inner_parts_past_the_last_row_are_rejected():
    assert not is_svt(Tableau((), (2,)))
    assert not is_svt(Tableau((((Entry(1),),),), (1, 1)))
    assert not is_psvt(Tableau((((Entry(1),),),), (1, 1)))
    assert is_svt(Tableau((((Entry(1),),),), (0, 0)))


def test_pt():
    assert is_pt(tableau([["1'", 1], [1]]))
    assert not is_pt(tableau([[1, 1], [1]]))
    assert not is_pt(tableau([["12"]]))  # two entries in a box
    assert is_pt(Tableau(()))


# ---------------------------------------------------------------------------
# Hecke tableaux


def test_hecke_tableau_validator():
    T = tableau([[1, 2], [4]])
    assert is_hecke_tableau(T, (3, 1, 2, 5, 4))
    assert not is_hecke_tableau(T, (1, 3, 2, 5, 4))
    # weak row is not allowed
    assert not is_hecke_tableau(tableau([[1, 1]]), (2, 1, 3))


def test_enumerate_hecke_tableaux_pinned():
    hts = enumerate_hecke_tableaux((3, 1, 2, 5, 4))
    rows = [[[e.value for (e,) in row] for row in T.rows] for T in hts]
    assert rows == [[[1, 2], [4]], [[1, 2, 4]], [[1, 2, 4], [4]]]
    assert enumerate_hecke_tableaux((1, 2, 3)) == [Tableau(())]
    single = enumerate_hecke_tableaux((2, 1))
    assert [outer_shape(T) for T in single] == [(1,)]


def test_enumerate_hecke_tableaux_respects_cap():
    hts = enumerate_hecke_tableaux((3, 1, 2, 5, 4), max_boxes=3)
    assert [outer_shape(T) for T in hts] == [(2, 1), (3,)]


def test_enumerated_hecke_tableaux_validate():
    # S_5 reaches a fourth row, where a row is bounded by the one below
    for w in all_permutations(4) + all_permutations(5):
        found = enumerate_hecke_tableaux(w)
        assert len(set(found)) == len(found), w
        for T in found:
            assert is_hecke_tableau(T, w)
            shape = outer_shape(T)
            assert all(a >= b > 0 for a, b in zip(shape, shape[1:] + (1,)))


def test_hecke_shapes_count_the_enumerated_tableaux_by_shape():
    # keys in the order of the sorted listing; every bound below n * n
    # narrows some slot's widest row, and S_5 has four slots
    cases = [
        (w, b)
        for w in all_permutations(4) + [(3, 1, 2, 5, 4)]
        for b in [*range((len(w) - 1) ** 2 + 1), None]
    ]
    cases += [(w, b) for w in all_permutations(5) for b in (3, 6, 9, None)]
    for w, b in cases:
        expected = Counter(map(outer_shape, enumerate_hecke_tableaux(w, b)))
        shapes = _hecke_shapes(w, b)
        assert list(shapes.items()) == list(expected.items()), (w, b)


def test_enumerate_hecke_tableaux_rejects_negative_bound():
    assert enumerate_hecke_tableaux((2, 1), max_boxes=0) == []
    assert enumerate_hecke_tableaux((1, 2), max_boxes=0) == [Tableau(())]
    with pytest.raises(ValueError):
        enumerate_hecke_tableaux((1, 2), max_boxes=-1)


def test_hecke_validator_accepts_exactly_the_enumerated_tableaux():
    # every single-entry filling with values 1..3 of every shape of at
    # most 4 boxes, valid or not
    fillings = []
    for shape in (s for k in range(5) for s in partitions_of(k)):
        for values in itertools.product(range(1, 4), repeat=sum(shape)):
            it = iter(values)
            fillings.append(tableau([[next(it) for _ in range(length)]
                                     for length in shape]))
    for w in all_permutations(4):
        members = set(enumerate_hecke_tableaux(w, max_boxes=4))
        for T in fillings:
            assert is_hecke_tableau(T, w) == (T in members), (w, T)


def column_word(T):
    cols = {}
    for r, row in enumerate(T.rows):
        for c, box in enumerate(row):
            cols.setdefault(c, []).append((r, box[0].value))
    return tuple(
        v
        for c in sorted(cols)
        for _, v in sorted(cols[c], reverse=True)
    )


def test_hecke_tableau_row_and_column_words_agree():
    for w in all_permutations(4):
        for T in enumerate_hecke_tableaux(w):
            rw = tuple(
                e.value
                for row in reversed(T.rows)
                for box in row
                for e in box
            )
            assert eval_hecke_word_ltr(rw, 3) == w
            assert eval_hecke_word_ltr(column_word(T), 3) == w


# ---------------------------------------------------------------------------
# generating polynomials


def test_genfun_svt_pinned():
    assert pretty(genfun_svt((1,), 2, 2)) == "x1 + x2 + x1*x2"
    assert pretty(genfun_svt((1, 1), 2, 2)) == "x1*x2"
    assert pretty(genfun_svt((), 3, 2)) == "1"


def test_genfun_svt_cache_matches_an_uncached_fill():
    tableaux._svt_series.cache_clear()
    for n in range(6):
        for outer in partitions_of(n):
            for inner in partitions_inside(outer):
                for m in range(1, 4):
                    for D in range(n + 3):
                        fill = tableaux._genfun(
                            tableaux._boxes_of(outer, inner),
                            D,
                            tableaux._svt_choices(m),
                            m,
                        )
                        assert genfun_svt(outer, m, D, inner) == fill
                        assert genfun_svt(list(outer), m, D, list(inner)) == fill


@pytest.mark.parametrize(
    "outer, inner",
    [((1, 2), ()), ((2, 0), ()), ((2, 1), (0,)), ((2, 1), (3,)), ((2,), (1, 1))],
)
def test_genfun_svt_rejects_bad_shapes_on_every_call(outer, inner):
    for _ in range(2):
        with pytest.raises(ValueError):
            genfun_svt(outer, 2, 3, inner)


def test_genfun_svt_skew_factors():
    # the two boxes of (2,1)/(1) are independent
    one = genfun_svt((1,), 2, 3)
    assert genfun_svt((2, 1), 2, 3, inner=(1,)) == truncate_degree(
        one * one, 3
    )


def test_genfun_svt_matches_unbounded_factorizations():
    m, D = 3, 5
    for w in all_permutations(4):
        lhs = truncate_degree(
            genfun(enumerate_plain_unbounded(w, m, D), m), D
        )
        rhs = Polynomial(m, {})
        shape_counts = {}
        for T in enumerate_hecke_tableaux(w, D):
            sh = outer_shape(T)
            shape_counts[sh] = shape_counts.get(sh, 0) + 1
        for sh, mult in shape_counts.items():
            rhs = rhs + genfun_svt(sh, m, D) * mult
        assert lhs == truncate_degree(rhs, D)


def test_genfun_svt_row_shapes_match_operator_image():
    for l1 in range(5):
        for l2 in range(l1 + 1):
            shape = tuple(p for p in (l1, l2) if p)
            D = 2 * (l1 + l2) + 2
            lhs = genfun_svt(shape, 2, D)
            rhs = pi(1, monomial(2, (l1 + 1, l2), ()))
            assert lhs == rhs, (l1, l2)


def _brute_genfun(shape, m, D, key, valid):
    """Tally, by weight, every filling with boxes sorted in the key's
    order that the validator accepts."""
    alphabet = sorted(
        (Entry(v, p) for v in range(1, m + 1) for p in (False, True)), key=key
    )
    n = sum(shape)
    contents = [
        combo
        for size in range(1, D - n + 2)
        for combo in itertools.combinations_with_replacement(alphabet, size)
    ]
    counts = {}
    for boxes in itertools.product(contents, repeat=n):
        if sum(map(len, boxes)) > D:
            continue
        it = iter(boxes)
        T = Tableau(tuple(tuple(next(it) for _ in range(k)) for k in shape))
        if not valid(T):
            continue
        x, y = weight_of(T)
        w = (x + (0,) * (m - len(x)), y + (0,) * (m - len(y)))
        counts[w] = counts.get(w, 0) + 1
    return Polynomial(m, counts)


def test_genfuns_match_brute_force():
    families = [
        (genfun_svt, marked_key, is_svt),
        (genfun_psvt, split_key, is_psvt),
        (genfun_psmt, marked_key, is_psmt),
    ]
    for shape in [p for n in range(4) for p in partitions_of(n)]:
        for m in (1, 2):
            for D in (sum(shape), sum(shape) + 1):
                for genfun_of, key, valid in families:
                    assert genfun_of(shape, m, D) == _brute_genfun(
                        shape, m, D, key, valid
                    ), (genfun_of.__name__, shape, m, D)


def test_genfun_psvt_pinned():
    assert pretty(genfun_psvt((1,), 1, 2)) == "x1 + y1 + x1*y1"


def test_genfun_psvt_unprimed_part():
    # dropping primed entries transposes the family: rows go strict,
    # columns weak, so the restriction is the conjugate-shape series
    for shape in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for m, D in [(2, 4), (3, 5)]:
            restricted = substitute_zero(genfun_psvt(shape, m, D), "y", 0)
            assert restricted == genfun_svt(conjugate(shape), m, D)


def test_genfun_pt_degree_and_empty():
    assert pretty(genfun_pt((), 2)) == "1"
    p = genfun_pt((2, 1), 3)
    for (xe, ye), coeff in p.terms.items():
        assert coeff > 0
        assert sum(xe) + sum(ye) == 3


def test_genfun_psmt_decomposes_over_flagged_fillings():
    m, D = 3, 5
    for mu in [(1,), (2,), (1, 1), (2, 1), (3,)]:
        lhs = truncate_degree(genfun_psmt(mu, m, D), D)
        rhs = Polynomial(m, {})
        for total in range(sum(mu), D + 1):
            for lam in partitions_of(total):
                if len(lam) == len(mu) and contains(lam, mu):
                    k = oft_count(lam, mu)
                    if k:
                        rhs = rhs + genfun_pt(lam, m) * k
        assert lhs == truncate_degree(rhs, D), mu


# ---------------------------------------------------------------------------
# over flagged counting


def brute_oft_count(mu, rho):
    rows = [
        [(r, c) for c in range(rho[r], mu[r])] for r in range(len(mu))
    ]
    if len(mu) > len(rho):
        return 0
    boxes = [b for row in rows for b in row]
    pools = [range(1, rho[r] + 1) for r, _ in boxes]
    total = 0
    for combo in itertools.product(*pools):
        filling = dict(zip(boxes, combo))
        grid = [
            [filling[(r, c)] for c in range(rho[r], mu[r])]
            for r in range(len(mu))
        ]
        T = tableau(grid, inner=rho)
        if is_oft(T, rho):
            total += 1
    return total


def test_oft_count_pinned():
    assert oft_count((3, 1), (2, 1)) == 2
    assert oft_count((2, 2), (2, 1)) == 1
    assert oft_count((4,), (3,)) == 3
    assert oft_count((2, 1), (2, 1)) == 1
    assert oft_count((2,), (1,)) == 1
    assert oft_count((2, 1, 1), (2, 1)) == 0


def test_oft_count_matches_brute_force():
    cases = [
        ((3, 1), (2, 1)),
        ((2, 2), (2, 1)),
        ((4,), (3,)),
        ((4, 2), (3, 2)),
        ((3, 3), (2, 2)),
        ((4, 3, 1), (3, 2, 1)),
        ((6, 6, 5, 4), (4, 3, 2, 1)),
    ]
    for mu, rho in cases:
        assert oft_count(mu, rho) == brute_oft_count(mu, rho), (mu, rho)


def test_oft_count_requires_containment():
    with pytest.raises(ValueError):
        oft_count((2,), (3,))


# ---------------------------------------------------------------------------
# Q-Schur


def test_q_schur_pinned():
    assert pretty(q_schur((1,), 2, 4)) == "2*x1 + 2*x2"
    assert coefficient(q_schur((4,), 1, 4), (4,)) == 2
    assert coefficient(q_schur((3, 1), 2, 6), (4, 0)) == 0


def test_q_schur_rejects_non_strict():
    with pytest.raises(ValueError):
        q_schur((2, 2), 2, 4)


def test_q_schur_degree_bound():
    assert q_schur((3, 1), 2, 3) == Polynomial(2, {})
    p = q_schur((2, 1), 3, 3)
    assert all(sum(xe) == 3 for (xe, _) in p.terms)


def test_pt_series_expands_into_q_schur():
    # setting y equal to x turns the primed-tableau series into a
    # nonnegative combination of Q-polynomials
    m = 4
    strict = [
        lam
        for n in range(5)
        for lam in partitions_of(n)
        if all(a > b for a, b in zip(lam, lam[1:]))
    ]
    for n in range(5):
        for mu in partitions_of(n):
            lhs = set_y_equal_x(genfun_pt(mu, m))
            rhs = Polynomial(m, {})
            for lam in strict:
                if sum(lam) == n:
                    f = f_coefficient(mu, lam)
                    assert f >= 0
                    if f:
                        rhs = rhs + q_schur(lam, m, n) * f
            assert lhs == rhs, mu


# ---------------------------------------------------------------------------
# finger scans and the F coefficients


def test_big_pt_verdicts():
    assert is_pt(BIG_PT)
    assert [has_i_starting(BIG_PT, i) for i in range(1, 5)] == [
        True,
        True,
        True,
        False,
    ]
    assert [has_i_lattice(BIG_PT, i) for i in range(1, 5)] == [
        True,
        True,
        True,
        False,
    ]


def test_finger_scans_on_empty():
    empty = Tableau(())
    for i in range(1, 4):
        assert has_i_starting(empty, i)
        assert has_i_lattice(empty, i)


def test_finger_scans_require_pt():
    with pytest.raises(ValueError):
        has_i_starting(tableau([["12"]]), 1)
    with pytest.raises(ValueError):
        has_i_lattice(tableau([["12"]]), 1)


def test_f_coefficient_pinned():
    assert f_coefficient((), ()) == 1
    assert f_coefficient((4,), (4,)) == 1
    assert f_coefficient((3, 1), (4,)) == 1
    assert f_coefficient((3, 1), (3, 1)) == 1
    assert f_coefficient((2, 2), (3, 1)) == 1
    assert f_coefficient((2, 2), (4,)) == 0
    assert f_coefficient((4,), (3, 1)) == 0
    assert f_coefficient((2,), (3,)) == 0  # size mismatch


def qualifying_weights(mu, cap):
    out = {}
    for T in pt_fillings(mu, cap):
        if all(
            has_i_starting(T, i) and has_i_lattice(T, i)
            for i in range(1, cap + 1)
        ):
            x, y = weight_of(T)
            comb = tuple(a + b for a, b in zip(x, y))
            while comb and comb[-1] == 0:
                comb = comb[:-1]
            out[comb] = out.get(comb, 0) + 1
    return out


def test_f_coefficient_cap_is_saturated():
    # the entry cap used internally never cuts off a qualifying filling
    for n in range(6):
        for mu in partitions_of(n):
            cap = max(n, 1)
            assert qualifying_weights(mu, cap) == qualifying_weights(
                mu, cap + 2
            ), mu


def test_f_coefficient_matches_public_scans():
    # every lam of the same size, strict or not, against a count made
    # through the public scans of every filling; the tally, whose fill
    # cuts branches, lists the same weights in the same order; repeat
    # calls agree and the cached tally is immutable all the way down
    # (hashable)
    for n in range(6):
        for mu in partitions_of(n):
            brute = qualifying_weights(mu, max(n, 1))
            assert _f_tally(mu) == tuple(brute.items()), mu
            for lam in partitions_of(n):
                value = f_coefficient(mu, lam)
                assert type(value) is int
                assert value == brute.get(lam, 0), (mu, lam)
                assert f_coefficient(mu, lam) == value
            hash(_f_tally(mu))


def test_a_scan_broken_on_the_top_rows_fails_the_lattice():
    # the cut's argument: once the first lattice scan breaks on complete
    # top rows, no bottom rows can save the tableau
    cuts = 0
    for n in range(5):
        for mu in partitions_of(n):
            for T in pt_fillings(mu, 4):
                for r in range(1, len(mu)):
                    for i in range(2, 5):
                        if _top_down_scan(T.rows[:r], i) is None:
                            cuts += 1
                            assert not _lattice(T, i), (T, r, i)
    assert cuts > 0


def test_f_coefficient_takes_lists():
    assert f_coefficient([3, 1], [4]) == 1
    assert f_coefficient((3, 1), [3, 1]) == 1
    assert f_coefficient([2, 2], (3, 1)) == 1


def test_f_coefficient_strictness_guard_survives_caching(monkeypatch):
    # with the lattice scan disabled, the column 1 over 2 qualifies
    # with the non-strict weight (1, 1)
    monkeypatch.setattr(tableaux, "_lattice", lambda T, i: True)
    _f_tally.cache_clear()
    try:
        with pytest.raises(RuntimeError):
            f_coefficient((1, 1), (2,))
    finally:
        _f_tally.cache_clear()


def test_f_tally_equals_the_full_alphabet_tally():
    # at |mu| = 6 and 7 the fill offers 4 values, not 6 or 7: the
    # tuple, order included, is the one a fill over every value gives
    for n in (6, 7):
        for mu in partitions_of(n):
            assert _f_tally(mu) == f_tally_full_alphabet(mu), mu


def test_the_sentinel_value_keeps_the_strictness_guard_live(monkeypatch):
    # with the lattice scan disabled, every shape of 4..7 boxes has a
    # qualifying filling whose weight is not strict; some shapes have
    # one only with the value one past the longest strict partition
    monkeypatch.setattr(tableaux, "_lattice", lambda T, i: True)
    _f_tally.cache_clear()
    try:
        for n in range(4, 8):
            for mu in partitions_of(n):
                with pytest.raises(RuntimeError):
                    f_coefficient(mu, (n,))
    finally:
        _f_tally.cache_clear()


# ---------------------------------------------------------------------------
# layout


def test_pretty_tableau():
    assert pretty_tableau(tableau([[1, 2], [3]])) == "1 2\n3"
    skew = pretty_tableau(tableau([[4, 2], [1]], inner=(2,)))
    assert skew.splitlines()[0] == ". . 4 2"


def test_weight_of_empty():
    assert weight_of(Tableau(())) == ((), ())
