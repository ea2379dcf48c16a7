"""
Sparse exact-integer polynomials in two variable families x1..xm, y1..ym,
with the divided-difference operators acting on the x side.

A term is keyed by a pair of exponent tuples, one per family.  All
arithmetic is exact; there are no floats anywhere.  The y variables are
scalars as far as the operators are concerned: delta and pi act on the
x exponents of each term and carry the y part along untouched.

>>> p = x_var(1, 2) + y_var(1, 2)
>>> pretty(p * p)
'x1^2 + 2*x1*y1 + y1^2'
>>> pretty(pi(1, x_var(1, 2) ** 2))
'x1 + x2 + x1*x2'
"""

from __future__ import annotations

from itertools import chain
from operator import add
from types import MappingProxyType
from typing import Iterable

__all__ = [
    "Polynomial",
    "constant",
    "x_var",
    "y_var",
    "monomial",
    "poly_sum",
    "swap_x",
    "delta",
    "pi",
    "pi_word",
    "substitute_zero",
    "restrict_variables",
    "exchange_families",
    "set_y_equal_x",
    "truncate_degree",
    "coefficient",
    "homogeneous_component",
    "total_degree",
    "pretty",
    "to_json",
    "from_json",
]

Key = tuple[tuple[int, ...], tuple[int, ...]]


class Polynomial:
    """
    Immutable sparse polynomial with a fixed family size m.

    terms is a read-only mapping from (x_exponents, y_exponents) to a
    nonzero int, set once when the polynomial is built; equal exponent
    tuples inside one polynomial are one object.  Setting or deleting
    an attribute raises AttributeError, so a polynomial can be cached
    and shared.  The constructor raises ValueError unless m is an int
    >= 0, each key is a pair of length-m tuples of nonnegative ints and
    each coefficient an int, not a bool.  Mixing family sizes in
    arithmetic is an error.
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[Key, int] | None = None):
        _check_size(m)
        terms = terms or {}
        for key, c in terms.items():
            if not (
                type(c) is int
                and type(key) is tuple and len(key) == 2
                and all(type(e) is tuple and len(e) == m for e in key)
                and all(type(a) is int and a >= 0 for a in key[0] + key[1])
            ):
                raise ValueError(f"bad term for family size {m}: {key!r}: {c!r}")
        _store(self, m, terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Polynomial is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Polynomial is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Polynomial, (self.m, dict(self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = _constant(other, self.m)
        return (
            isinstance(other, Polynomial)
            and self.m == other.m
            and self.terms == other.terms
        )

    def __hash__(self):
        zero = (0,) * self.m
        if self.terms.keys() <= {(zero, zero)}:  # equal to its int, so hash alike
            return hash(sum(self.terms.values()))
        return hash((self.m, frozenset(self.terms.items())))

    def __add__(self, other) -> "Polynomial":
        return poly_sum(self.m, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _tally(self.m, ((k, -c) for k, c in self.terms.items()))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(self.m, other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(self.m, other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return _tally(self.m, ((k, c * other) for k, c in self.terms.items()))
        other = _coerce(self.m, other)
        products = (
            ((tuple(map(add, xa, xb)), tuple(map(add, ya, yb))), ca * cb)
            for (xa, ya), ca in self.terms.items()
            for (xb, yb), cb in other.terms.items()
        )
        return _tally(self.m, products)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        result = _constant(1, self.m)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return pretty(self)


_set_m = Polynomial.m.__set__
_set_terms = Polynomial.terms.__set__


def _store(p: Polynomial, m: int, terms) -> Polynomial:
    """Set the two slots of p once: m, and a read-only view of the
    nonzero terms in which equal exponent tuples are one object."""
    share = {}.setdefault
    _set_m(p, m)
    _set_terms(p, MappingProxyType({
        (share(xe, xe), share(ye, ye)): c for (xe, ye), c in terms.items() if c
    }))
    return p


def _tally(m: int, pairs: Iterable[tuple[Key, int]]) -> Polynomial:
    """Sum the (key, coefficient) pairs into a polynomial, zeros dropped.
    Unchecked: only for results of arithmetic on checked polynomials."""
    out: dict[Key, int] = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return _store(Polynomial.__new__(Polynomial), m, out)


def _check_size(m) -> None:
    if type(m) is not int or m < 0:
        raise ValueError(f"family size must be an int >= 0: {m!r}")


def _constant(c: int, m: int) -> Polynomial:
    # unchecked: only for an int met in arithmetic on a checked polynomial
    return _tally(m, [(((0,) * m, (0,) * m), c)])


def constant(c: int, m: int) -> Polynomial:
    """The constant polynomial c in family size m.  Raises ValueError
    unless c is an int, not a bool, and m an int >= 0."""
    _check_size(m)  # before m sizes the key
    return Polynomial(m, {((0,) * m, (0,) * m): c})


def monomial(
    m: int,
    x_exps: tuple[int, ...] = (),
    y_exps: tuple[int, ...] = (),
    c: int = 1,
) -> Polynomial:
    """
    A single term; exponent tuples shorter than m are zero-padded.

    >>> pretty(monomial(2, (1, 2), (), 3))
    '3*x1*x2^2'
    """
    _check_size(m)  # before m sizes the padding
    xe = tuple(x_exps) + (0,) * (m - len(x_exps))
    ye = tuple(y_exps) + (0,) * (m - len(y_exps))
    return Polynomial(m, {(xe, ye): c})


def poly_sum(m: int, polys: Iterable[Polynomial]) -> Polynomial:
    """
    The sum of polynomials of family size m (an int counts as a
    constant), tallied into one dict; the sum of none is 0.

    >>> pretty(poly_sum(2, [x_var(1, 2), x_var(1, 2), -x_var(2, 2)]))
    '2*x1 - x2'
    >>> poly_sum(3, []) == constant(0, 3)
    True
    """
    return _tally(m, chain.from_iterable(_coerce(m, p).terms.items() for p in polys))


def _coerce(m: int, other) -> Polynomial:
    if isinstance(other, int):
        return _constant(other, m)
    if not isinstance(other, Polynomial):
        raise TypeError(f"cannot combine Polynomial with {type(other)}")
    if other.m != m:
        raise ValueError(f"family size mismatch: {m} vs {other.m}")
    return other


def x_var(i: int, m: int) -> Polynomial:
    """The variable x_i (1-based)."""
    _check_size(m)
    if type(i) is not int or not 1 <= i <= m:
        raise ValueError(f"x index {i} out of range 1..{m}")
    return monomial(m, (0,) * (i - 1) + (1,))


def y_var(i: int, m: int) -> Polynomial:
    """The variable y_i (1-based)."""
    _check_size(m)
    if type(i) is not int or not 1 <= i <= m:
        raise ValueError(f"y index {i} out of range 1..{m}")
    return monomial(m, (), (0,) * (i - 1) + (1,))


def swap_x(p: Polynomial, i: int) -> Polynomial:
    """
    Exchange the exponents of x_i and x_{i+1} in every term.

    >>> pretty(swap_x(x_var(1, 2), 1))
    'x2'
    >>> q = x_var(1, 2) * x_var(2, 2)
    >>> swap_x(q, 1) == q
    True
    """
    if not 1 <= i <= p.m - 1:
        raise ValueError(f"swap index {i} out of range 1..{p.m - 1}")
    swapped = (
        ((xe[: i - 1] + (xe[i], xe[i - 1]) + xe[i + 1 :], ye), c)
        for (xe, ye), c in p.terms.items()
    )
    return _tally(p.m, swapped)


def _quotients(i: int, f: Polynomial, lifts: tuple[int, ...]):
    """The unsummed terms of delta_i(x_{i+1}^l * f) for each l in lifts.

    For exponents (p, r) of x_i, x_{i+1} the quotient
    (x_i^p x_{i+1}^r - x_i^r x_{i+1}^p)/(x_i - x_{i+1}) is a signed
    geometric sum, so no polynomial division ever happens and the result
    is exact by construction.
    """
    if not 1 <= i <= f.m - 1:
        raise ValueError(f"operator index {i} out of range 1..{f.m - 1}")
    return (
        ((head + (t, p + r - 1 - t) + tail, ye), c if p > r else -c)
        for (xe, ye), c in f.terms.items()
        for head, (p, q), tail in [(xe[: i - 1], xe[i - 1 : i + 1], xe[i + 1 :])]
        for lift in lifts
        for r in [q + lift]
        for t in range(min(p, r), max(p, r))
    )


def delta(i: int, f: Polynomial) -> Polynomial:
    """
    The divided difference (f - swap_x(f, i)) / (x_i - x_{i+1}),
    computed term by term as a signed geometric sum.

    >>> pretty(delta(1, x_var(1, 2)))
    '1'
    >>> pretty(delta(1, x_var(1, 2) ** 2 * x_var(2, 2)))
    'x1*x2'
    >>> delta(1, x_var(1, 2) * x_var(2, 2)).terms == {}
    True
    """
    return _tally(f.m, _quotients(i, f, (0,)))


def pi(i: int, f: Polynomial) -> Polynomial:
    """
    The isobaric variant delta_i(f) + delta_i(x_{i+1} * f), in one
    tally of both geometric sums; satisfies pi^2 = -pi and commutes with
    multiplication by y monomials.

    >>> pretty(pi(1, constant(1, 2)))
    '-1'
    >>> pretty(pi(1, x_var(1, 2)))
    '1'
    """
    return _tally(f.m, _quotients(i, f, (0, 1)))


def pi_word(word: tuple[int, ...], f: Polynomial) -> Polynomial:
    """
    Composite pi_{i1}(pi_{i2}(...(f))) for word (i1, i2, ...): the
    rightmost letter acts first.

    >>> pi_word((), x_var(1, 2)) == x_var(1, 2)
    True
    """
    for i in reversed(word):
        f = pi(i, f)
    return f


def substitute_zero(p: Polynomial, family: str, keep: int) -> Polynomial:
    """
    Set every variable of the given family ("x" or "y") with index
    greater than keep to zero.

    >>> pretty(substitute_zero(x_var(1, 2) + x_var(2, 2), "x", 1))
    'x1'
    >>> pretty(substitute_zero(x_var(1, 2) * y_var(2, 2), "y", 1))
    '0'
    """
    if family not in ("x", "y"):
        raise ValueError("family must be 'x' or 'y'")
    slot = 0 if family == "x" else 1
    kept = ((k, c) for k, c in p.terms.items() if not any(k[slot][keep:]))
    return _tally(p.m, kept)


def restrict_variables(p: Polynomial, m: int) -> Polynomial:
    """
    Down-size to the first m variables of both families, dropping every
    term that uses a later one.

    >>> pretty(restrict_variables(x_var(1, 3) + x_var(3, 3), 1))
    'x1'
    """
    if not 0 <= m <= p.m:
        raise ValueError(f"cannot keep {m} of {p.m} variables")
    kept = (
        ((xe[:m], ye[:m]), c)
        for (xe, ye), c in p.terms.items()
        if not any(xe[m:]) and not any(ye[m:])
    )
    return _tally(m, kept)


def exchange_families(p: Polynomial) -> Polynomial:
    """
    Swap the two variable families: each term x^a y^b becomes x^b y^a.

    >>> exchange_families(x_var(1, 2)) == y_var(1, 2)
    True
    >>> q = x_var(1, 2) * y_var(2, 2) ** 3
    >>> exchange_families(exchange_families(q)) == q
    True
    """
    return _tally(p.m, (((ye, xe), c) for (xe, ye), c in p.terms.items()))


def set_y_equal_x(p: Polynomial) -> Polynomial:
    """
    Substitute y_i -> x_i for every i; collided terms sum.

    >>> pretty(set_y_equal_x(y_var(1, 1)))
    'x1'
    >>> sp1 = x_var(1, 1) + y_var(1, 1) + x_var(1, 1) * y_var(1, 1)
    >>> pretty(set_y_equal_x(sp1))
    '2*x1 + x1^2'
    """
    zero = (0,) * p.m
    summed = (((tuple(map(add, xe, ye)), zero), c) for (xe, ye), c in p.terms.items())
    return _tally(p.m, summed)


def total_degree(key: Key) -> int:
    return sum(key[0]) + sum(key[1])


def truncate_degree(p: Polynomial, bound: int) -> Polynomial:
    """
    Keep the terms of total degree (x and y together) at most bound.

    >>> pretty(truncate_degree(x_var(1, 1) + x_var(1, 1) ** 2, 1))
    'x1'
    """
    kept = ((k, c) for k, c in p.terms.items() if total_degree(k) <= bound)
    return _tally(p.m, kept)


def coefficient(
    p: Polynomial,
    x_exps: tuple[int, ...] = (),
    y_exps: tuple[int, ...] = (),
) -> int:
    """
    The integer coefficient of the given monomial (exponents padded).

    >>> coefficient(constant(6, 1) * x_var(1, 1) ** 4, (4,))
    6
    """
    xe = tuple(x_exps) + (0,) * (p.m - len(x_exps))
    ye = tuple(y_exps) + (0,) * (p.m - len(y_exps))
    return p.terms.get((xe, ye), 0)


def homogeneous_component(p: Polynomial, d: int) -> Polynomial:
    """
    The sum of terms of total degree exactly d.

    >>> q = x_var(1, 2) + x_var(1, 2) * x_var(2, 2)
    >>> pretty(homogeneous_component(q, 2))
    'x1*x2'
    """
    kept = ((k, c) for k, c in p.terms.items() if total_degree(k) == d)
    return _tally(p.m, kept)


def _term_sort_key(key: Key):
    # graded order, x block before y block inside a degree: ascending
    # total degree, then descending lexicographic on the concatenated
    # exponent vector, so "x1 + y1 + x1*y1" comes out in that order
    flat = key[0] + key[1]
    return (total_degree(key), tuple(-e for e in flat))


def _monomial_str(key: Key) -> str:
    parts = []
    for name, exps in zip("xy", key):
        for i, e in enumerate(exps, start=1):
            if e == 1:
                parts.append(f"{name}{i}")
            elif e > 1:
                parts.append(f"{name}{i}^{e}")
    return "*".join(parts)


def pretty(p: Polynomial) -> str:
    """
    Plain-text rendering in canonical term order.

    >>> pretty(constant(0, 1))
    '0'
    >>> pretty(x_var(1, 2) ** 2 * x_var(2, 2) - 3 * x_var(1, 2))
    '-3*x1 + x1^2*x2'
    """
    if not p.terms:
        return "0"
    chunks = []
    for key in sorted(p.terms, key=_term_sort_key):
        c = p.terms[key]
        mono = _monomial_str(key)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def to_json(p: Polynomial) -> dict:
    """JSON-ready dict, terms in canonical order."""
    return {
        "m": p.m,
        "terms": [
            {"c": p.terms[k], "x": list(k[0]), "y": list(k[1])}
            for k in sorted(p.terms, key=_term_sort_key)
        ],
    }


def from_json(data: dict) -> Polynomial:
    """
    Inverse of to_json; repeated exponents add up.  Whatever the
    constructor rejects raises ValueError, and so do a missing field and
    a scalar where an object or a list belongs.

    >>> q = x_var(1, 2) * y_var(2, 2) - 2
    >>> from_json(to_json(q)) == q
    True
    """
    if not (isinstance(data, dict) and "m" in data and "terms" in data):
        raise ValueError(f"expected an object with fields m and terms: {data!r}")
    m, terms = data["m"], data["terms"]
    if not isinstance(terms, list) or not all(
        isinstance(t, dict)
        and "c" in t
        and all(isinstance(t.get(v), list) for v in "xy")
        for t in terms
    ):
        raise ValueError(f"terms must be a list of {{c, x: list, y: list}}: {terms!r}")
    ones = [Polynomial(m, {(tuple(t["x"]), tuple(t["y"])): t["c"]}) for t in terms]
    return poly_sum(m, [Polynomial(m), *ones])  # checks m even with no terms
