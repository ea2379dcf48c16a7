"""Stable truncations: factorization models vs operator polynomials vs
tableau formulas, the conjugating involution, and the Q-basis pipeline."""

from collections import Counter
import hashlib

import pytest

from grothpoly.factorizations import enumerate_hook, genfun
from grothpoly.grothendieck import grothendieck_double, grothendieck_single
from grothpoly.permutations import (
    all_permutations,
    inverse,
    inversions,
)
from grothpoly.polynomials import (
    Polynomial,
    coefficient,
    constant,
    exchange_families,
    homogeneous_component,
    monomial,
    pretty,
    restrict_variables,
    set_y_equal_x,
    substitute_zero,
    truncate_degree,
    y_var,
)
from grothpoly.stable import (
    TruncationSpec,
    halfweak_stable,
    omega,
    qschur_expansion,
    schur,
    stability_check,
    stable_double,
    stable_double_via_tableaux,
    stable_single,
    weak_stable_double,
    weak_symmetric,
)
from grothpoly import cli
from grothpoly.stable import _MODELS, _shape_series
from grothpoly.tableaux import (
    conjugate,
    contains,
    enumerate_hecke_tableaux,
    f_coefficient,
    genfun_svt,
    outer_shape,
    partitions_inside,
    partitions_of,
    q_schur,
)
from grothpoly.tableaux import _hecke_shapes, _oft_count
from references import eliminate_by_tuples, reduced_words


def shifted(w, j):
    """The same permutation acting j places to the right."""
    return tuple(range(1, j + 1)) + tuple(v + j for v in w)


def test_single_model_matches_the_shifted_operator_polynomials():
    m = 2
    for w in all_permutations(3):
        t = TruncationSpec(m, m * (len(w) - 1))
        op = grothendieck_single(shifted(w, m))
        op = restrict_variables(substitute_zero(op, "x", m), m)
        assert stable_single(w, t) == op


def test_double_model_matches_the_shifted_operator_polynomials():
    m = 2
    for w in all_permutations(3):
        t = TruncationSpec(m, 2 * m * (len(w) - 1))
        op = grothendieck_double(shifted(w, m))
        op = substitute_zero(substitute_zero(op, "x", m), "y", m)
        assert stable_double(w, t) == restrict_variables(op, m)


def test_double_model_collapses_to_single_when_y_vanishes():
    t = TruncationSpec(2, 4)
    for w in all_permutations(3):
        assert substitute_zero(stable_double(w, t), "y", 0) == stable_single(w, t)


def test_pinned_small_values():
    assert pretty(stable_single((1,), TruncationSpec(2, 3))) == "1"
    assert pretty(stable_single((2, 1), TruncationSpec(2, 3))) == "x1 + x2 + x1*x2"
    assert pretty(stable_double((2, 1), TruncationSpec(1, 3))) == "x1 + y1 + x1*y1"
    assert (
        pretty(halfweak_stable((2, 1), TruncationSpec(1, 3)))
        == "x1 + y1 + x1^2 + x1*y1 + x1^3 + x1^2*y1"
    )
    assert pretty(weak_stable_double((2, 1), TruncationSpec(1, 2))) == "x1 + y1 + x1*y1"
    assert (
        pretty(weak_symmetric((2,), TruncationSpec(2, 3)))
        == "x1*x2 + x1^2*x2 + x1*x2^2"
    )


def test_tableau_formula_matches_the_double_model():
    t = TruncationSpec(3, 5)
    for w in all_permutations(3):
        assert stable_double_via_tableaux(w, t) == stable_double(w, t)


def scattered(outer, inner):
    pad = tuple(inner) + (0,) * (len(outer) - len(inner))
    cols = [pad[i] for i in range(len(outer)) if outer[i] > pad[i]]
    if any(outer[i] - pad[i] > 1 for i in range(len(outer))):
        return False
    return len(cols) == len(set(cols))


def weak_tableau_formula(w, t):
    out = Polynomial(t.m, {})
    for tab in enumerate_hecke_tableaux(w, max_boxes=t.D):
        shape = outer_shape(tab)
        for mu in partitions_inside(shape):
            wy = omega(genfun_svt(conjugate(mu), t.m, t.D), "x")
            for rho in partitions_inside(mu):
                if not scattered(mu, rho):
                    continue
                wx = omega(genfun_svt(shape, t.m, t.D, inner=rho), "x")
                out = out + truncate_degree(wx * exchange_families(wy), t.D)
    return out


def test_weak_tableau_formula_matches_the_weak_double_model():
    t = TruncationSpec(3, 4)
    for w in all_permutations(3):
        assert weak_tableau_formula(w, t) == weak_stable_double(w, t)


def test_every_tableau_model_weighs_a_repeated_shape_by_its_count():
    # two Hecke tableaux of (2, 1, 4, 3, 6, 5) have the shape (2, 1)
    w, t = (2, 1, 4, 3, 6, 5), TruncationSpec(2, 3)
    assert _hecke_shapes(w, t.D)[(2, 1)] == 2
    assert stable_double_via_tableaux(w, t) == stable_double(w, t)
    assert cli._weak_tableau_formula(w, t) == weak_tableau_formula(w, t)
    assert cli._hecke_expansion_matches(w, t)


def test_tableau_models_hold_when_shape_summands_are_reused():
    # S_4 in reverse order after S_3: later permutations read the summand
    # of each shape that earlier ones left in the cache
    _shape_series.cache_clear()
    for t in (TruncationSpec(3, 5), TruncationSpec(2, 4)):
        for w in all_permutations(3) + all_permutations(4)[::-1]:
            assert stable_double_via_tableaux(w, t) == stable_double(w, t), w
            assert weak_tableau_formula(w, t) == weak_stable_double(w, t), w
    assert _shape_series.cache_info().hits > 0


def test_schur_values_and_expansion():
    assert pretty(schur((2,), 2)) == "x1^2 + x1*x2 + x2^2"
    assert pretty(schur((1, 1), 2)) == "x1*x2"
    assert schur((1, 1, 1), 2) == Polynomial(2, {})
    both = schur((2, 1), 3) + schur((3,), 3)
    component = {xe: c for (xe, _), c in both.terms.items()}
    assert eliminate_by_tuples(component, 3) == {(2, 1): 1, (3,): 1}
    with pytest.raises(ValueError):
        eliminate_by_tuples({(2, 0): 1}, 2)


def test_schur_cache_cannot_be_changed_through_a_result():
    s = schur((1,), 2)
    with pytest.raises(AttributeError):
        s.terms.clear()
    with pytest.raises(TypeError):
        s.terms[((1, 0), (0, 0))] = 5
    with pytest.raises(AttributeError):
        s.m = 3
    assert pretty(schur((1,), 2)) == "x1 + x2"
    assert schur((1,), 2) is s  # the cached value itself, not a copy


def test_involution_conjugates_schur_components():
    assert omega(schur((2,), 3), "x") == schur((1, 1), 3)
    assert omega(schur((2, 1), 3), "x") == schur((2, 1), 3)
    p = schur((2,), 3) + schur((1,), 3) + constant(1, 3)
    assert omega(omega(p, "x"), "x") == p
    q = exchange_families(schur((2,), 3))
    assert omega(q, "y") == exchange_families(schur((1, 1), 3))
    with pytest.raises(ValueError):
        omega(monomial(2, (2,)), "x")


def omega_per_component(p, family="x"):
    """omega with one product per (component, partition) pair: each
    monomial of the other family, with the chosen family's part of each
    degree expanded alone by eliminate_by_tuples."""
    own = 0 if family == "x" else 1
    out = constant(0, p.m)
    for other, d in {(k[1 - own], sum(k[own])) for k in p.terms}:
        component = {
            k[own]: c
            for k, c in p.terms.items()
            if k[1 - own] == other and sum(k[own]) == d
        }
        rider = monomial(p.m, other) if own else monomial(p.m, (), other)
        for lam, c in eliminate_by_tuples(component, p.m).items():
            image = schur(conjugate(lam), p.m)
            if own:
                image = exchange_families(image)
            out = out + c * image * rider
    return out


def test_omega_groups_the_components_that_share_a_partition():
    y1, y2 = y_var(1, 3), y_var(2, 3)
    y_part = y1 + y2 + y1 * y2
    p = schur((2,), 3) * y_part
    assert omega(p, "x") == schur((1, 1), 3) * y_part == omega_per_component(p)
    mixed = p + 2 * schur((1, 1), 3) * y_part + schur((2, 1), 3) - schur((1,), 3)
    assert omega(mixed, "x") == omega_per_component(mixed)
    assert omega(omega(mixed, "x"), "x") == mixed


def test_omega_in_y_is_omega_in_x_between_two_exchanges():
    # every stable double series of S_3 and S_4, and mixed inputs whose
    # two families carry different partitions
    t = TruncationSpec(3, 5)
    x_part = monomial(3, (1,)) - 3 * monomial(3, (1, 2))
    inputs = [stable_double(w, t) for w in all_permutations(3) + all_permutations(4)]
    inputs += [
        schur((2, 1), 3) * exchange_families(schur((2,), 3)),
        exchange_families(schur((3,), 3) - 2 * schur((1, 1), 3)) * x_part,
        exchange_families(schur((2, 2), 3)) + schur((1,), 3) + 5,
    ]
    for p in inputs:
        want = exchange_families(omega(exchange_families(p), "x"))
        assert omega(p, "y") == want == omega_per_component(p, "y")
        assert omega(omega(p, "y"), "y") == p
    assert omega(inputs[-1], "y") == (
        exchange_families(schur((2, 2), 3)) + schur((1,), 3) + 5
    )


def test_omega_rejects_a_component_that_is_not_symmetric_in_either_family():
    x_only = monomial(3, (0, 2, 1))
    y_only = exchange_families(x_only)
    for p, family in ((x_only, "x"), (y_only, "y")):
        with pytest.raises(ValueError, match="not symmetric"):
            omega(p, family)
        assert omega(p, "y" if family == "x" else "x") == p
    # symmetric in y for one x monomial, not for the other
    lopsided = exchange_families(schur((2,), 3)) * monomial(3, (1,)) + y_only
    with pytest.raises(ValueError, match="not symmetric"):
        omega(lopsided, "y")


def test_one_factor_hooks_of_degree_four():
    ones = [
        f
        for f in enumerate_hook((3, 1, 2, 5, 4), 1, 4)
        if sum(len(part) for part in f.factors) == 4
    ]
    assert [str(f) for f in ones] == [
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


def test_the_half_weak_series_interpolates_stable_and_weak_stable():
    # claim 3a: x = 0 leaves the stable series of w^-1 in y, and y = 0
    # leaves its image under omega in x
    t = TruncationSpec(4, 4)
    perms = all_permutations(3) + all_permutations(4)
    assert len(perms) == 30
    for w in perms:
        half, stable = halfweak_stable(w, t), stable_single(inverse(w), t)
        assert substitute_zero(half, "x", 0) == exchange_families(stable)
        assert substitute_zero(half, "y", 0) == omega(stable, "x")


def test_degree_four_coefficient_after_merging_the_families():
    p = set_y_equal_x(halfweak_stable((3, 1, 2, 5, 4), TruncationSpec(1, 4)))
    assert coefficient(p, (4,)) == 12


def test_lowest_degree_component_comes_from_reduced_words_alone():
    for w in [(2, 1, 3), (3, 1, 2), (3, 2, 1), (3, 1, 2, 5, 4)]:
        ell = inversions(w)
        t = TruncationSpec(2, ell + 2)
        hooks = enumerate_hook(w, t.m, t.D)
        low = [f for f in hooks if sum(len(part) for part in f.factors) == ell]
        words = {tuple(reversed(word)) for word in reduced_words(w)}
        assert {f.flat_word() for f in low} <= words
        whole = halfweak_stable(w, t)
        for d in range(ell):
            assert homogeneous_component(whole, d) == Polynomial(t.m, {})
        assert homogeneous_component(whole, ell) == homogeneous_component(
            genfun(low, t.m), ell
        )


def test_q_basis_expansion_pins():
    t = TruncationSpec(2, 4)
    assert qschur_expansion((1, 2), t) == {(): 1}
    out = qschur_expansion((3, 1, 2, 5, 4), t)
    assert out == {(3,): 2, (2, 1): 1, (4,): 6, (3, 1): 4}
    assert {lam: c for lam, c in out.items() if sum(lam) == 4} == {(4,): 6, (3, 1): 4}


def test_q_basis_expansion_matches_the_merged_hook_model():
    t = TruncationSpec(2, 4)
    for w in list(all_permutations(3)) + [(3, 1, 2, 5, 4)]:
        out = qschur_expansion(w, t)
        assert all(len(set(lam)) == len(lam) for lam in out)
        assert all(c > 0 for c in out.values())
        rhs = Polynomial(t.m, {})
        for lam, c in out.items():
            rhs = rhs + constant(c, t.m) * q_schur(lam, t.m, t.D)
        lhs = set_y_equal_x(halfweak_stable(w, t))
        for d in range(t.D + 1):
            assert homogeneous_component(lhs, d) == homogeneous_component(rhs, d)


def test_q_basis_expansion_is_positive_on_all_of_s5_to_degree_eleven():
    # claim 3c on every permutation of S_5 to degree 11: 3,769
    # coefficients, each at least 1, pinned in order by their sha256
    expansions = [
        (w, list(qschur_expansion(w, TruncationSpec(1, 11)).items()))
        for w in all_permutations(5)
    ]
    coefficients = [c for _, items in expansions for _, c in items]
    assert len(coefficients) == 3769
    assert min(coefficients) >= 1
    assert hashlib.sha256(repr(expansions).encode()).hexdigest() == (
        "9fb9ade054e3ed5b0780f95f800240e79fc628dc6f901d53ce7b00da4afba11e"
    )


def qschur_by_pairs(w, t):
    """The Q-expansion asked pair by pair: each shape count, filled
    over each mu, times the public f_coefficient of every strict lam."""
    shapes = Counter(map(outer_shape, enumerate_hecke_tableaux(w, t.D)))
    out = {}
    for d in range(t.D + 1):
        for mu in partitions_of(d):
            filled = sum(
                count * _oft_count(mu, rho)
                for rho, count in shapes.items()
                if contains(mu, rho)
            )
            for lam in partitions_of(d):
                strict = all(a > b for a, b in zip(lam, lam[1:]))
                if filled and strict and (f := f_coefficient(mu, lam)):
                    out[lam] = out.get(lam, 0) + filled * f
    return out


def test_q_basis_expansion_reads_the_pairwise_coefficients_in_their_order():
    # at (2, 4, 5, 3, 1) the tally of (2, 2, 1, 1) meets (4, 2) before
    # (5, 1), and neither is in the expansion yet
    cases = [
        (w, D) for size in (3, 4) for w in all_permutations(size) for D in range(7)
    ] + [((3, 1, 2, 5, 4), 6), ((2, 4, 5, 3, 1), 6)]
    for w, D in cases:
        t = TruncationSpec(1, D)
        assert list(qschur_expansion(w, t).items()) == list(
            qschur_by_pairs(w, t).items()
        ), (w, D)


def test_stability_certificates():
    assert stability_check("stable_single", (2, 1), TruncationSpec(2, 2))
    assert stability_check("stable_double", (2, 1), TruncationSpec(1, 2))
    assert stability_check("stable_double_via_tableaux", (2, 1), TruncationSpec(1, 2))
    assert stability_check("halfweak_stable", (3, 1, 2), TruncationSpec(2, 3))
    assert stability_check("weak_symmetric", (1,), TruncationSpec(2, 2))
    assert not stability_check("weak_symmetric", (1,), TruncationSpec(1, 2))
    with pytest.raises(ValueError):
        stability_check("nope", (1,), TruncationSpec(1, 1))


def test_truncation_spec_validation():
    with pytest.raises(ValueError):
        stable_single((2, 1), TruncationSpec(0, 3))
    with pytest.raises(ValueError):
        stable_single((2, 1), TruncationSpec(1, -1))


WINDOWED = {
    "stable_single": stable_single,
    "stable_double": stable_double,
    "stable_double_via_tableaux": stable_double_via_tableaux,
    "weak_stable_double": weak_stable_double,
    "weak_symmetric": weak_symmetric,
    "halfweak_stable": halfweak_stable,
    "qschur_expansion": qschur_expansion,
}


@pytest.mark.parametrize("name", WINDOWED)
def test_a_window_that_is_not_two_ints_is_rejected(name):
    # (2, 1) is both a permutation and a shape; True once read as m = 1
    for t in [(2.5, 3), (2, 2.5), (True, 2), (2, True), (2, "3")]:
        with pytest.raises(ValueError):
            WINDOWED[name]((2, 1), TruncationSpec(*t))


@pytest.mark.parametrize("name", _MODELS)
def test_every_model_takes_the_degree_cap_and_rejects_one_past_it(name):
    # the window check rejects a D past the cap whatever the argument
    arg = () if name == "weak_symmetric" else (1, 2, 3)
    assert _MODELS[name](arg, TruncationSpec(2, 254)) == 1
    with pytest.raises(ValueError, match="past the cap"):
        _MODELS[name](arg, TruncationSpec(2, 255))


def test_q_basis_expansion_rejects_a_degree_past_the_cap():
    # at the cap itself it would run over every partition of up to 254
    with pytest.raises(ValueError, match="past the cap"):
        qschur_expansion((1, 2, 3), TruncationSpec(1, 255))
