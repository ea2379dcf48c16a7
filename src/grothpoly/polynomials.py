"""
Sparse exact-integer polynomials in two variable families x1..xm, y1..ym,
with the divided-difference operators acting on the x side.

A term is stored under one packed int key, eight bits per exponent,
x1..xm then y1..ym from the lowest bits up, so that multiplying two
monomials adds their keys (Monagan and Pearce, packed exponent vectors,
CASC 2007).  The total degree of a polynomial is capped at 254: then the
whole degree fits in one field, no exponent can carry into the next, and
a key modulo 255 is its total degree.  Whatever would pass the cap
raises ValueError before any key is formed.  The terms mapping of
(x_exponents, y_exponents) tuples is unpacked from the keys on each
access.
All arithmetic is exact; there are no floats anywhere.  The y variables are
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
from operator import eq, ge, mul
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

# the width of every exponent field; a total degree below the all-ones
# field value fits one field and is the key modulo that value
_BITS = 8
_ONES = (1 << _BITS) - 1
_MAX_DEGREE = _ONES - 1


class Polynomial:
    """
    Immutable sparse polynomial with a fixed family size m.

    terms is a read-only mapping from (x_exponents, y_exponents) to a
    nonzero int, unpacked from the packed keys on each access, so a
    caller that reads it more than once holds it in a local; within one
    mapping equal exponent tuples are one object.  len(p) is the number
    of terms, read without unpacking.  Setting or deleting
    an attribute raises AttributeError, so a polynomial can be cached
    and shared.  The constructor raises ValueError unless m is an
    int >= 0, each key is a pair of length-m tuples of nonnegative ints,
    each coefficient an int, not a bool, and the total degree at most
    254.
    Mixing family sizes in arithmetic is an error.
    """

    __slots__ = ("m", "_packed")

    def __init__(self, m: int, terms: dict[Key, int] | None = None):
        _check_size(m)
        flat = []
        for key, c in (terms or {}).items():
            if not (
                type(c) is int
                and type(key) is tuple and len(key) == 2
                and all(type(e) is tuple and len(e) == m for e in key)
                and all(type(a) is int and a >= 0 for a in key[0] + key[1])
            ):
                raise ValueError(f"bad term for family size {m}: {key!r}: {c!r}")
            flat.append((key[0] + key[1], c))
        _check_degree(max((sum(exps) for exps, _ in flat), default=0))
        units = _units(m)
        _store(self, m, {sum(map(mul, exps, units)): c for exps, c in flat})

    @property
    def terms(self) -> MappingProxyType:
        m = self.m
        shifts = range(0, 2 * m * _BITS, _BITS)
        share = {}.setdefault
        out = {}
        for key, c in self._packed.items():
            fields = [key >> s & _ONES for s in shifts]
            xe, ye = tuple(fields[:m]), tuple(fields[m:])
            out[share(xe, xe), share(ye, ye)] = c
        return MappingProxyType(out)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Polynomial is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Polynomial is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return Polynomial, (self.m, dict(self.terms))

    def __len__(self) -> int:
        return len(self._packed)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = _constant(other, self.m)
        return (
            isinstance(other, Polynomial)
            and self.m == other.m
            and self._packed == other._packed
        )

    def __hash__(self):
        packed = self._packed
        if packed.keys() <= {0}:  # equal to its int, so hash alike
            return hash(sum(packed.values()))
        return hash((self.m, frozenset(packed.items())))

    def __add__(self, other) -> "Polynomial":
        return poly_sum(self.m, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return self * -1

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(self.m, other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(self.m, other) - self

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            scaled = zip(self._packed, map(other.__mul__, self._packed.values()))
            return _distinct(self.m, scaled)
        other = _coerce(self.m, other)
        # exact over Z: the product of the two top homogeneous parts is
        # never 0, so this is the product's total degree
        _check_degree(_top(self) + _top(other))
        a, b = self._packed, other._packed
        if len(a) < len(b):
            a, b = b, a
        # one pass over the larger factor per term of the smaller: each
        # product key is a sum of keys, which the degree cap keeps exact
        products = chain.from_iterable(
            zip(map(kb.__add__, a), map(cb.__mul__, a.values()))
            for kb, cb in b.items()
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
_set_packed = Polynomial._packed.__set__


def _check_degree(deg: int) -> None:
    """ValueError for a total degree past the cap of the packed keys.

    Only what can increase a total degree checks it: the constructor,
    products, genfun, the factorization series and the staircases.
    Every other operation keeps or lowers the total degree of each term
    (pi and delta give quotients of their term's degree, the
    substitutions and set_y_equal_x move or drop exponents, truncation
    drops terms), so its result is under the cap of its input."""
    if deg > _MAX_DEGREE:
        raise ValueError(f"total degree {deg} is past the cap {_MAX_DEGREE}")


def _units(m: int) -> tuple[int, ...]:
    """The packing rule: the keys of x1..xm, y1..ym; a monomial's key is
    the sum of its exponents times these."""
    return tuple(1 << _BITS * f for f in range(2 * m))


def _top(p: Polynomial) -> int:
    """The total degree of p: the largest of its keys modulo the
    all-ones field value."""
    return max(map(_ONES.__rmod__, p._packed), default=0)


def _store(p: Polynomial, m: int, packed: dict) -> Polynomial:
    """Set the two slots of p once: m and the packed terms with zeros
    dropped."""
    _set_m(p, m)
    if 0 in packed.values():
        packed = {k: c for k, c in packed.items() if c}
    _set_packed(p, packed)
    return p


def _add(out: dict, pairs: Iterable[tuple[int, int]]) -> dict:
    """Add the (packed key, coefficient) pairs into out.  The module sums
    terms here and, one run of keys at a time, in _quotients."""
    get = out.get
    for key, c in pairs:
        out[key] = get(key, 0) + c
    return out


def _tally(m: int, pairs: Iterable[tuple[int, int]]) -> Polynomial:
    """Sum (packed key, coefficient) pairs into a polynomial, zeros
    dropped.  Unchecked: only for results of arithmetic on checked
    polynomials, or for keys whose total degree the caller has checked."""
    return _store(Polynomial.__new__(Polynomial), m, _add({}, pairs))


def _distinct(m: int, pairs) -> Polynomial:
    """(packed key, coefficient) pairs with distinct keys as a
    polynomial of family size m; nothing to sum."""
    return _store(Polynomial.__new__(Polynomial), m, dict(pairs))


def _check_size(m) -> None:
    if type(m) is not int or m < 0:
        raise ValueError(f"family size must be an int >= 0: {m!r}")


def _constant(c: int, m: int) -> Polynomial:
    # unchecked: only for an int met in arithmetic on a checked polynomial
    return _distinct(m, [(0, c)])


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
    out = {}
    for p in polys:
        _add(out, _coerce(m, p)._packed.items())
    return _store(Polynomial.__new__(Polynomial), m, out)


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
    s = _BITS * (i - 1)  # the shift of the x_i field
    # moving one unit from x_{i+1} to x_i adds step to a key
    step = (1 << s) - (1 << s + _BITS)
    swapped = (
        (key + ((key >> s + _BITS & _ONES) - (key >> s & _ONES)) * step, c)
        for key, c in p._packed.items()
    )
    return _distinct(p.m, swapped)


def _quotients(i: int, f: Polynomial, lifts: tuple[int, ...]) -> Polynomial:
    """The sum of delta_i(x_{i+1}^l * f) over l in lifts.

    For exponents (p, r) of x_i, x_{i+1} the quotient
    (x_i^p x_{i+1}^r - x_i^r x_{i+1}^p)/(x_i - x_{i+1}) is a signed
    geometric sum of x_i^t x_{i+1}^(p+r-1-t), t from min(p, r) up to
    max(p, r), so no polynomial division ever happens and the result is
    exact by construction.  Its packed keys step by one unit moved from
    x_{i+1} to x_i, so each sum is one range of keys, ending next to the
    key of x_i^p x_{i+1}^(r-1).  No quotient, lifted or not, passes the
    total degree of its term.
    """
    if not 1 <= i <= f.m - 1:
        raise ValueError(f"operator index {i} out of range 1..{f.m - 1}")
    s = _BITS * (i - 1)  # the shift of the x_i field
    next_unit = 1 << s + _BITS
    step = (1 << s) - next_unit
    shifts = [(lift, (lift - 1) * next_unit) for lift in lifts]
    out = {}
    get = out.get
    for key, c in f._packed.items():
        d = (key >> s & _ONES) - (key >> s + _BITS & _ONES)  # p - q
        for lift, shift in shifts:
            near = key + shift  # t = p
            if d > lift:
                keys, sc = range(near - (d - lift) * step, near, step), c
            elif d < lift:
                keys, sc = range(near, near - (d - lift) * step, step), -c
            else:
                continue
            # the one other loop that sums terms: a run of keys with one
            # coefficient, which costs less than a pair per key
            for k in keys:
                out[k] = get(k, 0) + sc
    return _store(Polynomial.__new__(Polynomial), f.m, out)


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
    return _quotients(i, f, (0,))


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
    return _quotients(i, f, (0, 1))


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
    greater than keep, an int >= 0, to zero.

    >>> pretty(substitute_zero(x_var(1, 2) + x_var(2, 2), "x", 1))
    'x1'
    >>> pretty(substitute_zero(x_var(1, 2) * y_var(2, 2), "y", 1))
    '0'
    """
    if family not in ("x", "y"):
        raise ValueError("family must be 'x' or 'y'")
    if type(keep) is not int or keep < 0:
        raise ValueError(f"keep must be an int >= 0, not {keep!r}")
    first = 0 if family == "x" else p.m
    dropped = sum(_ONES << _BITS * (first + j) for j in range(p.m)[keep:])
    kept = ((k, c) for k, c in p._packed.items() if not k & dropped)
    return _distinct(p.m, kept)


def restrict_variables(p: Polynomial, m: int) -> Polynomial:
    """
    Down-size to the first m variables of both families, dropping every
    term that uses a later one.

    >>> pretty(restrict_variables(x_var(1, 3) + x_var(3, 3), 1))
    'x1'
    """
    if not 0 <= m <= p.m:
        raise ValueError(f"cannot keep {m} of {p.m} variables")
    half = _BITS * p.m
    low = (1 << _BITS * m) - 1  # the first m fields
    dropped = (((1 << half) - 1) ^ low) * ((1 << half) + 1)
    kept = (
        ((k & low) + ((k >> half & low) << _BITS * m), c)
        for k, c in p._packed.items()
        if not k & dropped
    )
    return _distinct(m, kept)


def exchange_families(p: Polynomial) -> Polynomial:
    """
    Swap the two variable families: each term x^a y^b becomes x^b y^a.

    >>> exchange_families(x_var(1, 2)) == y_var(1, 2)
    True
    >>> q = x_var(1, 2) * y_var(2, 2) ** 3
    >>> exchange_families(exchange_families(q)) == q
    True
    """
    half = _BITS * p.m
    low = (1 << half) - 1
    swapped = (((k >> half) + ((k & low) << half), c) for k, c in p._packed.items())
    return _distinct(p.m, swapped)


def set_y_equal_x(p: Polynomial) -> Polynomial:
    """
    Substitute y_i -> x_i for every i; collided terms sum.

    >>> pretty(set_y_equal_x(y_var(1, 1)))
    'x1'
    >>> sp1 = x_var(1, 1) + y_var(1, 1) + x_var(1, 1) * y_var(1, 1)
    >>> pretty(set_y_equal_x(sp1))
    '2*x1 + x1^2'
    """
    half = _BITS * p.m
    low = (1 << half) - 1
    # x_i + y_i is at most the total degree, so it fits x_i's field
    summed = (((k & low) + (k >> half), c) for k, c in p._packed.items())
    return _tally(p.m, summed)


# ---------------------------------------------------------------------------
# change of basis in one family, on packed keys (the bit layout stays
# here; stable.omega drives these)


def _components(p: Polynomial, family: str) -> dict:
    """The terms of p split for a change of basis in one family ("x" or
    "y"): a map from (the key of a term's part in the other family, its
    degree in the chosen one) to a dict of the chosen family's parts,
    moved to x keys, and their coefficients.  Within one dict every key
    has the same degree."""
    shift = 0 if family == "x" else _BITS * p.m
    low = (1 << _BITS * p.m) - 1
    groups: dict = {}
    for k, c in p._packed.items():
        own = k >> shift & low
        groups.setdefault((k - (own << shift), own % _ONES), {})[own] = c
    return groups


def _lead_partition(key: int, m: int) -> tuple[int, ...]:
    """The partition of the leading x key of a symmetric component.

    x_m holds the highest bits, so the largest key of a symmetric
    component is its antidominant arrangement, and its fields read from
    x_m down are the partition.  A key whose fields rise on that way
    down raises ValueError: its component is not symmetric."""
    fields = [key >> s & _ONES for s in range(_BITS * (m - 1), -1, -_BITS)]
    if sorted(fields, reverse=True) != fields:
        raise ValueError(f"not symmetric: stray monomial {tuple(fields[::-1])}")
    return tuple(e for e in fields if e)


def _subtract(component: dict, q: Polynomial, c: int) -> None:
    """Take c * q from a dict of x keys in place, zeros dropped; q has
    no y part."""
    get = component.get
    for k, qc in q._packed.items():
        left = get(k, 0) - c * qc
        if left:
            component[k] = left
        else:
            del component[k]


def _placed(m: int, family: str, parts: Iterable) -> Polynomial:
    """The sum of c * q * other over (q, c, other) triples: q has no y
    part and moves into the chosen family, other is a key of the other
    family from _components.  Unchecked: each term keeps the degree of
    the component it came from."""
    shift = 0 if family == "x" else _BITS * m
    pairs = (
        ((k << shift) + other, c * qc)
        for q, c, other in parts
        for k, qc in q._packed.items()
    )
    return _tally(m, pairs)


def total_degree(key: Key) -> int:
    return sum(key[0]) + sum(key[1])


def _of_degree(p: Polynomial, d: int, keep) -> Polynomial:
    """The terms of p whose total degree t passes keep(d, t), for an int
    d.  A key modulo the all-ones field value is its total degree, which
    the cap keeps below that value."""
    if type(d) is not int:
        raise ValueError(f"degree must be an int, not {d!r}")
    kept = ((k, c) for k, c in p._packed.items() if keep(d, k % _ONES))
    return _distinct(p.m, kept)


def truncate_degree(p: Polynomial, bound: int) -> Polynomial:
    """
    Keep the terms of total degree (x and y together) at most bound, an
    int.

    >>> pretty(truncate_degree(x_var(1, 1) + x_var(1, 1) ** 2, 1))
    'x1'
    """
    return _of_degree(p, bound, ge)


def coefficient(
    p: Polynomial,
    x_exps: tuple[int, ...] = (),
    y_exps: tuple[int, ...] = (),
) -> int:
    """
    The integer coefficient of the given monomial (exponents padded):
    one lookup of its packed key, or 0, with nothing packed, when no key
    can hold it (more than m exponents, a negative one, a degree past 254).

    >>> coefficient(constant(6, 1) * x_var(1, 1) ** 4, (4,))
    6
    """
    xe, ye = tuple(x_exps), tuple(y_exps)
    exps = xe + (0,) * (p.m - len(xe)) + ye + (0,) * (p.m - len(ye))
    if len(exps) > 2 * p.m or min(exps, default=0) < 0 or sum(exps) > _MAX_DEGREE:
        return 0
    return p._packed.get(sum(map(mul, exps, _units(p.m))), 0)


def homogeneous_component(p: Polynomial, d: int) -> Polynomial:
    """
    The sum of terms of total degree exactly d, an int.

    >>> q = x_var(1, 2) + x_var(1, 2) * x_var(2, 2)
    >>> pretty(homogeneous_component(q, 2))
    'x1*x2'
    """
    return _of_degree(p, d, eq)


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
    terms = p.terms
    if not terms:
        return "0"
    chunks = []
    for key in sorted(terms, key=_term_sort_key):
        c = terms[key]
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
    terms = p.terms
    return {
        "m": p.m,
        "terms": [
            {"c": terms[k], "x": list(k[0]), "y": list(k[1])}
            for k in sorted(terms, key=_term_sort_key)
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
