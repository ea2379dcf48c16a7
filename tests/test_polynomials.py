import ast
from collections import Counter
import copy
from functools import reduce
import json
import operator
from pathlib import Path
import pickle
import random
from types import MappingProxyType

from hypothesis import given, settings, strategies as st
import pytest

from grothpoly.polynomials import (
    Polynomial,
    coefficient,
    constant,
    delta,
    exchange_families,
    homogeneous_component,
    monomial,
    pi,
    poly_sum,
    pretty,
    restrict_variables,
    set_y_equal_x,
    substitute_zero,
    swap_x,
    to_json,
    total_degree,
    truncate_degree,
    x_var,
    y_var,
)
import grothpoly
from references import pi_word


def random_poly(rng, m=3, max_terms=6, max_exp=3):
    """A random integer polynomial in both families."""
    p = constant(0, m)
    for _ in range(rng.randrange(1, max_terms + 1)):
        xe = tuple(rng.randrange(0, max_exp + 1) for _ in range(m))
        ye = tuple(rng.randrange(0, max_exp + 1) for _ in range(m))
        p = p + monomial(m, xe, ye, rng.randrange(-5, 6))
    return p


def test_ring_arithmetic():
    x1 = x_var(1, 2)
    y1 = y_var(1, 2)
    assert x1 + (-x1) == constant(0, 2)
    assert (x1 + y1) * (x1 - y1) == x1 * x1 - y1 * y1
    assert x1**3 == x1 * x1 * x1
    assert 2 * x1 - x1 == x1
    assert (x1 + 1) - 1 == x1


def test_staircase_factor_expands():
    x1, y1 = x_var(1, 1), y_var(1, 1)
    assert x1 + y1 + x1 * y1 == (1 + x1) * (1 + y1) - 1


def test_mixed_family_size_is_an_error():
    with pytest.raises(ValueError):
        x_var(1, 2) + x_var(1, 3)
    with pytest.raises(ValueError):
        x_var(1, 2) * x_var(1, 3)


def test_swap_x():
    assert swap_x(x_var(1, 2), 1) == x_var(2, 2)
    q = x_var(1, 2) * x_var(2, 2)
    assert swap_x(q, 1) == q
    assert swap_x(x_var(1, 2) ** 2 * y_var(1, 2), 1) == x_var(2, 2) ** 2 * y_var(1, 2)


def test_delta_examples():
    x1, x2 = x_var(1, 2), x_var(2, 2)
    assert delta(1, x1) == constant(1, 2)
    assert delta(1, x1**2 * x2) == x1 * x2
    # vanishes on anything symmetric in x1, x2
    sym = x1 * x2 + (x1 + x2) ** 3
    assert delta(1, sym) == constant(0, 2)


def test_delta_agrees_with_definition():
    # (f - swap f) must equal (x_i - x_{i+1}) * delta(f), exactly
    rng = random.Random(2)
    for _ in range(50):
        f = random_poly(rng)
        for i in (1, 2):
            diff = f - swap_x(f, i)
            assert (x_var(i, 3) - x_var(i + 1, 3)) * delta(i, f) == diff


def test_delta_output_symmetric():
    rng = random.Random(4)
    for _ in range(30):
        f = random_poly(rng)
        for i in (1, 2):
            d = delta(i, f)
            assert swap_x(d, i) == d


def test_pi_examples():
    assert pi(1, constant(1, 2)) == constant(-1, 2)
    assert pi(1, x_var(1, 2)) == constant(1, 2)
    x1, x2 = x_var(1, 2), x_var(2, 2)
    assert pi(1, x1**2) == x1 + x2 + x1 * x2


def test_operator_relations_random():
    rng = random.Random(9)
    for _ in range(60):
        f = random_poly(rng, m=4)
        i = rng.randrange(1, 4)
        assert delta(i, delta(i, f)) == constant(0, 4)
        assert pi(i, pi(i, f)) == -pi(i, f)
    for _ in range(30):
        f = random_poly(rng, m=4)
        # commutation for distant indices, braid for adjacent ones
        assert delta(1, delta(3, f)) == delta(3, delta(1, f))
        assert pi(1, pi(3, f)) == pi(3, pi(1, f))
        assert delta(1, delta(2, delta(1, f))) == delta(2, delta(1, delta(2, f)))
        assert pi_word((1, 2, 1), f) == pi_word((2, 1, 2), f)


def test_pi_is_delta_of_the_raised_polynomial():
    rng = random.Random(21)
    for _ in range(60):
        m = rng.randrange(2, 5)
        f = random_poly(rng, m=m, max_exp=4)
        i = rng.randrange(1, m)
        assert pi(i, f) == delta(i, f) + delta(i, x_var(i + 1, m) * f)
    for i in (0, 2):
        with pytest.raises(ValueError):
            pi(i, x_var(1, 2))


def test_pi_is_y_linear():
    rng = random.Random(13)
    for _ in range(30):
        f = random_poly(rng)
        yb = y_var(1, 3) ** 2 * y_var(3, 3)
        assert pi(1, yb * f) == yb * pi(1, f)


def test_pi_word_order():
    f = x_var(1, 3) ** 2 * x_var(2, 3)
    assert pi_word((1, 2), f) == pi(1, pi(2, f))
    assert pi_word((), f) == f
    assert pi_word((1, 1), f) == -pi_word((1,), f)


def test_substitute_zero():
    assert substitute_zero(x_var(1, 2) + x_var(2, 2), "x", 1) == x_var(1, 2)
    assert substitute_zero(y_var(2, 2) * x_var(1, 2), "y", 1) == constant(0, 2)
    p = x_var(1, 2) * y_var(1, 2)
    assert substitute_zero(p, "x", 2) == p
    with pytest.raises(ValueError):
        substitute_zero(p, "z", 1)


def test_substitute_zero_rejects_a_keep_that_is_not_an_int_at_least_0():
    x1, x2, y1 = x_var(1, 2), x_var(2, 2), y_var(1, 2)
    p = x1 + x2 + y1
    assert substitute_zero(p, "x", 0) == y1
    assert substitute_zero(p, "y", 0) == x1 + x2
    assert substitute_zero(p, "x", 3) == p
    for keep in (-1, -2, True, False, 1.0, "1", None):
        for family in ("x", "y"):
            with pytest.raises(ValueError, match="keep"):
                substitute_zero(p, family, keep)


def test_set_y_equal_x():
    assert set_y_equal_x(y_var(1, 1)) == x_var(1, 1)
    x1, y1 = x_var(1, 1), y_var(1, 1)
    assert set_y_equal_x(x1 * y1) == x1**2
    assert set_y_equal_x(x1 + y1 + x1 * y1) == 2 * x1 + x1**2


def test_truncate_coefficient_homogeneous():
    x1 = x_var(1, 1)
    assert truncate_degree(x1 + x1**2, 1) == x1
    assert coefficient(6 * x1**4, (4,)) == 6
    assert coefficient(6 * x1**4, (3,)) == 0
    p = x_var(1, 2) + x_var(1, 2) * x_var(2, 2)
    assert homogeneous_component(p, 2) == x_var(1, 2) * x_var(2, 2)
    assert homogeneous_component(p, 5) == constant(0, 2)


def test_a_degree_that_is_not_an_int_raises():
    # a str or None compared with a term's degree gives NotImplemented,
    # which would read as true and keep every term
    p = x_var(1, 2) + x_var(1, 2) * x_var(2, 2)
    for bad in ("2", "1", None, True, 2.0):
        with pytest.raises(ValueError):
            truncate_degree(p, bad)
        with pytest.raises(ValueError):
            homogeneous_component(p, bad)
    assert truncate_degree(p, -1) == homogeneous_component(p, -1) == constant(0, 2)


def test_len_is_the_term_count_and_truth_is_unchanged():
    rng = random.Random(3)
    for _ in range(100):
        p = random_poly(rng, m=rng.randrange(0, 4))
        assert len(p) == len(p.terms)
        assert bool(p) is (p.terms != {})
    assert len(constant(0, 2)) == 0 and not constant(0, 2)
    assert len(constant(7, 2)) == 1 and constant(7, 2)


def test_coefficient_is_one_lookup_that_aliases_no_other_key():
    rng = random.Random(8)
    for _ in range(100):
        p = random_poly(rng)
        for (xe, ye), c in p.terms.items():
            assert coefficient(p, xe, ye) == c
            while xe and xe[-1] == 0:
                xe = xe[:-1]
            assert coefficient(p, xe, ye) == c  # padded again
    assert coefficient(y_var(1, 2), (), (1,)) == 1
    assert coefficient(x_var(1, 1) ** 254, (254,)) == 1
    # a naive pack of each of these is the key of the polynomial's one term
    assert coefficient(x_var(2, 2), (256,)) == 0
    assert coefficient(x_var(3, 3), (-256, 257)) == 0
    assert coefficient(y_var(1, 2), (0, 0, 1)) == 0


def test_pretty_pinned_strings():
    m1 = x_var(1, 1) + y_var(1, 1) + x_var(1, 1) * y_var(1, 1)
    assert pretty(m1) == "x1 + y1 + x1*y1"
    assert pretty(constant(1, 1)) == "1"
    assert pretty(constant(0, 3)) == "0"
    assert pretty(set_y_equal_x(m1)) == "2*x1 + x1^2"
    assert pretty(3 * x_var(1, 2) * y_var(2, 2)) == "3*x1*y2"
    assert pretty(-x_var(1, 1)) == "-x1"
    assert pretty(x_var(1, 1) - 1) == "-1 + x1"


def by_constructor(data):
    """The polynomial a to_json dict names, by the checked constructor."""
    terms = {(tuple(t["x"]), tuple(t["y"])): t["c"] for t in data["terms"]}
    return Polynomial(data["m"], terms)


def test_json_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        p = random_poly(rng)
        blob = json.dumps(to_json(p))
        assert by_constructor(json.loads(blob)) == p
    # canonical ordering makes serialization deterministic
    p = x_var(1, 2) + y_var(1, 2) + 4
    assert json.dumps(to_json(p)) == json.dumps(to_json(constant(4, 2) + y_var(1, 2) + x_var(1, 2)))


@pytest.mark.parametrize("c, m", [(1.5, 2), (True, 1), (1, -1), (1, 1.5)])
def test_constant_rejects_what_the_constructor_rejects(c, m):
    with pytest.raises(ValueError):
        constant(c, m)


def test_constructor_rejects_malformed_terms():
    for m, terms in (
        (2, {((1,), (0, 0)): 1}),
        (2, {((1, -1), (0, 0)): 1}),
        (2, {((1, 0), (0, 0)): 1.5}),
        (2, {((1, 0), (0, 0)): True}),
        ("2", {}),
    ):
        with pytest.raises(ValueError):
            Polynomial(m, terms)
    assert Polynomial(2, {((1, 0), (0, 2)): -3}) == -3 * x_var(1, 2) * y_var(2, 2) ** 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: monomial(1.5, (1,)),
        lambda: x_var(1, 1.5),
        lambda: y_var(1, 1.5),
        lambda: monomial("2"),
        lambda: x_var(1.5, 2),
        lambda: pi(True, x_var(1, 2)),
        lambda: delta(1.0, x_var(1, 2)),
        lambda: swap_x(x_var(1, 2), 1.0),
        lambda: restrict_variables(x_var(1, 2), True),
        lambda: restrict_variables(x_var(1, 2), 1.0),
    ],
    ids=[
        "monomial_float", "x_var_float", "y_var_float", "monomial_str", "x_index",
        "pi_bool_index", "delta_float_index", "swap_x_float_index",
        "restrict_bool_size", "restrict_float_size",
    ],
)
def test_a_bad_family_size_or_index_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_polynomials_are_immutable():
    p = x_var(1, 2) * y_var(2, 2) + 3
    key = ((1, 0), (0, 1))
    with pytest.raises(TypeError):
        p.terms[key] = 5
    with pytest.raises(AttributeError):
        p.terms.clear()
    for attempt in (
        lambda: setattr(p, "m", 3),
        lambda: setattr(p, "terms", {}),
        lambda: delattr(p, "terms"),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert p.m == 2 and dict(p.terms) == {key: 1, ((0, 0), (0, 0)): 3}


def test_a_copy_is_equal_and_as_immutable():
    p = x_var(1, 2) * y_var(2, 2) - 2
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p
        with pytest.raises(AttributeError):
            q.m = 3


def shares_equal_exponents(p: Polynomial) -> bool:
    vectors = [e for key in p.terms for e in key]
    return len({id(e) for e in vectors}) == len(set(vectors))


def test_equal_exponent_tuples_are_one_object():
    m = 3
    x1, x2, y1 = x_var(1, m), x_var(2, m), y_var(1, m)
    built = [
        (x1 + x2 + y1 + x1 * y1) ** 3,
        pi(1, (x1 + y1) ** 2 * x2),
        Polynomial(m, {(tuple([1, 0, 0]), tuple([0, 0, 0])): 1,
                       (tuple([1, 0, 0]), tuple([1, 0, 0])): 2}),
    ]
    for p in built:
        assert len(p.terms) > 1
        assert shares_equal_exponents(p)


def test_zero_terms_never_stored():
    p = x_var(1, 2) - x_var(1, 2)
    assert p.terms == {}
    q = Polynomial(2, {((0, 0), (0, 0)): 0})
    assert q.terms == {}


def test_constants_hash_like_their_ints():
    assert len({constant(1, 1), 1}) == 1
    assert len({Polynomial(3, {}), 0, constant(-2, 2), -2, x_var(1, 2)}) == 3


def polynomials(m=2):
    exps = st.tuples(*[st.integers(0, 2)] * m)
    terms = st.dictionaries(st.tuples(exps, exps), st.integers(-3, 3), max_size=5)
    return terms.map(lambda t: Polynomial(m, t))


@settings(max_examples=200, deadline=None)
@given(st.lists(polynomials(), max_size=6))
def test_poly_sum_is_the_fold_of_plus(ps):
    tally: Counter = Counter()
    for p in ps:
        tally.update(p.terms)
    assert poly_sum(2, ps) == Polynomial(2, dict(tally))
    assert poly_sum(2, ps) == reduce(operator.add, ps, Polynomial(2, {}))
    assert poly_sum(2, ps + [-p for p in reversed(ps)]).terms == {}


@settings(max_examples=200, deadline=None)
@given(polynomials(3))
def test_json_round_trip_property(p):
    assert by_constructor(json.loads(json.dumps(to_json(p)))) == p


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), st.integers(-3, 3), st.integers(0, 3))
def test_arithmetic_builds_only_well_formed_polynomials(p, q, k, d):
    results = [
        p + q,
        p - q,
        p * q,
        p * k,
        k * p,
        p**d,
        -p,
        poly_sum(2, [p, q, -p]),
        swap_x(p, 1),
        delta(1, p),
        pi(1, p),
        set_y_equal_x(p),
        exchange_families(p),
        restrict_variables(p, 1),
        substitute_zero(p, "x", 1),
        substitute_zero(p, "y", 0),
        truncate_degree(p, d),
        homogeneous_component(p, d),
    ]
    for r in results:
        assert Polynomial(r.m, dict(r.terms)) == r
        assert 0 not in r.terms.values()


# the packed keys: one int per monomial, a field of bits per exponent


def tuple_product(p: Polynomial, q: Polynomial) -> dict:
    """p * q by adding exponent tuples, with no packed key involved."""
    out: Counter = Counter()
    for (xa, ya), ca in p.terms.items():
        for (xb, yb), cb in q.terms.items():
            key = (
                tuple(a + b for a, b in zip(xa, xb)),
                tuple(a + b for a, b in zip(ya, yb)),
            )
            out[key] += ca * cb
    return {k: c for k, c in out.items() if c}


def test_an_exponent_never_carries_into_the_next_field():
    # every exponent up to the degree cap fits its field, so each product
    # key is a sum of keys and x1^254 stays clear of x2's field
    m = 2
    x1, x2, y2 = x_var(1, m), x_var(2, m), y_var(2, m)
    p = x1
    for e in range(2, 255):
        p = p * x1
        assert dict(p.terms) == {((e, 0), (0, 0)): 1}
    rng = random.Random(5)
    q = x1 + 2 * x2 - y2
    for _ in range(12):
        factor = random_poly(rng, m=m, max_terms=3, max_exp=rng.randrange(1, 6))
        expected = tuple_product(q, factor)
        q = q * factor
        assert dict(q.terms) == expected
        assert Polynomial(m, expected) == q
    assert sum(((x1 + x2 + y2) ** 9).terms.values()) == 3**9
    assert dict(poly_sum(m, [x1, x2**7, y2**3 * x1]).terms) == {
        ((1, 0), (0, 0)): 1, ((0, 7), (0, 0)): 1, ((1, 0), (0, 3)): 1,
    }


def test_equal_polynomials_built_by_different_routes_are_equal_and_hash_alike():
    x1, x2, y2 = x_var(1, 2), x_var(2, 2), y_var(2, 2)
    # one drops the terms of degree 20 and 2 by a substitution
    wide = substitute_zero(x1 * y2 + 3 * x2 + y2**20, "y", 0)
    narrow = 3 * x2
    assert wide == narrow and narrow == wide
    assert hash(wide) == hash(narrow)
    assert len({wide, narrow}) == 1
    assert wide != 3 * x2 + x1 and wide != 2 * x2
    const = substitute_zero(y2**20 + 5, "y", 1)
    assert const == 5 and hash(const) == hash(5) == hash(constant(5, 2))
    assert pretty(wide) == pretty(narrow) == "3*x2"
    assert to_json(wide) == to_json(narrow)


def test_terms_is_a_read_only_view_that_packs_no_foreign_key():
    x2 = x_var(2, 2)
    p = x2 * y_var(1, 2) - 4
    terms = p.terms
    assert type(terms) is MappingProxyType
    assert len(terms) == 2
    assert terms[((0, 1), (1, 0))] == 1 and terms[((0, 0), (0, 0))] == -4
    with pytest.raises(TypeError):
        terms[((1, 0), (0, 0))] = 1
    with pytest.raises(TypeError):
        del terms[((0, 0), (0, 0))]
    # x1^256 packs to x2's key: a lookup must not alias it
    for key in (((256, 0), (0, 0)), ((1, 0), (0, 0)), ((0, -1), (0, 0)), ((0, 1),), "x"):
        assert key not in x2.terms
    assert coefficient(x2, (256,)) == 0 and coefficient(x2, (0, 1)) == 1
    assert list(p.terms.values()) == [c for _, c in p.terms.items()]
    # what a read-only view of a dict forwards: copy and |
    q = x_var(1, 2) + 5
    assert type(p.terms.copy()) is dict and p.terms.copy() == dict(p.terms)
    assert p.terms | {} == {} | p.terms == dict(p.terms)
    assert p.terms | q.terms == {**dict(p.terms), **dict(q.terms)}
    assert q.terms | {((0, 0), (0, 0)): 1} == {((1, 0), (0, 0)): 1, ((0, 0), (0, 0)): 1}
    with pytest.raises(TypeError):
        p.terms | [1]


def test_copies_of_a_loosely_bounded_polynomial_are_equal_and_immutable():
    wide = substitute_zero(x_var(1, 2) * y_var(2, 2) + x_var(2, 2) ** 20, "x", 1)
    for q in (copy.copy(wide), copy.deepcopy(wide), pickle.loads(pickle.dumps(wide))):
        assert q == wide and hash(q) == hash(wide)
        assert dict(q.terms) == dict(wide.terms) == {((1, 0), (0, 1)): 1}
        for name in ("m", "_packed", "terms"):
            with pytest.raises(AttributeError):
                setattr(q, name, None)
        with pytest.raises(TypeError):
            q.terms[((1, 0), (0, 1))] = 2


@pytest.mark.parametrize("d", [*range(1, 18), 252, 253])
def test_degree_reads_at_every_width_boundary(d):
    # the total degree of a key is read from it modulo the all-ones
    # field value 255, up to the degree cap of 254 (d = 253)
    m = 3
    x1, x2 = x_var(1, m), x_var(2, m)
    p = x2**d * y_var(3, m)  # of degree d + 1
    q = p + x1
    assert dict(p.terms) == {((0, d, 0), (0, 0, 1)): 1}
    assert truncate_degree(q, d + 1) == q and truncate_degree(q, d) == x1
    assert homogeneous_component(q, d + 1) == p
    assert homogeneous_component(q, d) == (x1 if d == 1 else 0)
    assert set_y_equal_x(p) == x2**d * x_var(3, m)
    assert exchange_families(p) == y_var(2, m) ** d * x_var(3, m)
    assert restrict_variables(q, 2) == x_var(1, 2)
    assert restrict_variables(x2**d, 2) == x_var(2, 2) ** d
    f = pi(1, x1 ** (d + 1))
    assert pi(1, f) == -f and max(map(total_degree, f.terms)) == d + 1


def test_a_degree_past_the_cap_raises_before_any_key_is_formed(monkeypatch):
    m = 2
    x1, y2 = x_var(1, m), y_var(2, m)
    past = pytest.raises(ValueError, match="total degree 255 is past the cap 254")
    with past:
        x1**255
    with past:
        (x1 + y2) ** 255
    a, b = x1**200, y2**55

    def no_key(*args):
        raise AssertionError("a key was formed")

    # the constructor packs through _units, and every product sums through _add
    monkeypatch.setattr("grothpoly.polynomials._units", no_key)
    monkeypatch.setattr("grothpoly.polynomials._add", no_key)
    with past:
        Polynomial(m, {((200, 0), (0, 55)): 1})
    with past:
        monomial(m, (200,), (0, 55))
    with past:
        a * b


def test_a_product_of_factors_that_dropped_their_top_terms_is_formed():
    # the degrees before the drop sum past the cap (300), the true ones
    # do not (101)
    x1, y2 = x_var(1, 2), y_var(2, 2)
    dropped = substitute_zero(y2**200 + x1, "y", 0)
    assert dropped * x1**100 == x1**101


def test_only_polynomials_reads_the_packed_terms():
    # the bit layout of a key is private to polynomials: any other
    # module goes through terms or a private helper defined there
    readers = []
    for path in sorted(Path(grothpoly.__file__).parent.glob("*.py")):
        if path.name == "polynomials.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_packed":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []
