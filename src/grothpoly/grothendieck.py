"""
Grothendieck polynomials by the operator definition.

For a permutation w of {1, ..., n+1} the single polynomial is obtained
by applying the pi operators along a reduced word of w^{-1} w0 to the
staircase monomial x1^n x2^(n-1) ... xn; the double polynomial starts
instead from the product of x_i + y_j + x_i*y_j over i + j <= n+1.
The result does not depend on the reduced word chosen.

Since the pi operators satisfy the braid relations, G_w = pi_i G_{w s_i}
for every ascent i of w (w(i) < w(i+1)), along any path down from w0.
The staircase is one case of a general rule (Fomin and Kirillov,
Grothendieck polynomials and the Yang-Baxter equation, 1994): for a
dominant (132-avoiding) u, whose code is a partition, G_u is x^code(u),
or the product of x_i + y_j + x_i*y_j over the boxes (i, j) of its
diagram.  So a new w climbs toward the least dominant permutation
above it in right weak order, stops at the first remembered
permutation on the way, or else builds the top as its diagram product,
and comes back down one pi per step.  One memo serves every
permutation of a size.

>>> from grothpoly.polynomials import pretty
>>> pretty(grothendieck_single((3, 1, 2)))
'x1^2'
>>> pretty(grothendieck_double((2, 1)))
'x1 + y1 + x1*y1'
"""

from collections import OrderedDict

from .permutations import check_permutation
from .polynomials import (
    Polynomial,
    constant,
    monomial,
    pi,
    x_var,
    y_var,
    _check_degree,
    _check_size,
)

__all__ = [
    "staircase_product",
    "grothendieck_single",
    "grothendieck_double",
]


def _diagram_product(code: tuple[int, ...], double: bool) -> Polynomial:
    """G of the dominant permutation whose code is the partition code,
    in family size len(code): the monomial x^code, or the product of
    (x_i + y_j + x_i*y_j) over the boxes (i, j) of code's diagram
    (Fomin and Kirillov, Grothendieck polynomials and the Yang-Baxter
    equation, 1994).  The total degree, |code| or 2|code|, is checked
    before any product is formed."""
    _check_degree(sum(code) * (2 if double else 1))
    m = len(code)
    if not double:
        return monomial(m, code)
    out = constant(1, m)
    for i, row in enumerate(code, 1):
        for j in range(1, row + 1):
            xi, yj = x_var(i, m), y_var(j, m)
            out = out * (xi + yj + xi * yj)
    return out


def staircase_product(n: int) -> Polynomial:
    """
    The expanded product of (x_i + y_j + x_i*y_j) over i + j <= n+1,
    in family size n+1.  Its degree n(n+1) passes the degree cap from
    n = 16 on, which raises ValueError before any product is formed, and
    so does an n that is not an int >= 0.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(staircase_product(1))
    'x1 + y1 + x1*y1'
    >>> pretty(staircase_product(0))
    '1'
    """
    _check_size(n, "n")
    return _diagram_product(tuple(range(n, -1, -1)), True)


# The descent memo holds at most this many terms in all (the sum of
# len(p) over its entries, which unpacks no key), least recently used
# out first.  A round of the cauchy benchmark, on S_4 and six
# permutations of S_5, leaves 6,555 to 9,623 terms in 140 to 145
# entries; an entry larger than the budget, such as the 187,945-term
# staircase of S_6, is never kept.
_MEMO_TERM_BUDGET = 100_000

# (w, double) -> G_w, least recently used first
_memo: OrderedDict[tuple[tuple[int, ...], bool], Polynomial] = OrderedDict()
_memo_terms = 0


def _remember(key: tuple[tuple[int, ...], bool], p: Polynomial) -> None:
    global _memo_terms
    size = len(p)
    if size > _MEMO_TERM_BUDGET:
        return
    _memo[key] = p
    _memo_terms += size
    while _memo_terms > _MEMO_TERM_BUDGET:
        _, old = _memo.popitem(last=False)
        _memo_terms -= len(old)


def _climb(
    w: tuple[int, ...],
) -> tuple[list[tuple[tuple[int, ...], int]], tuple[int, ...]]:
    """The steps (u, i) up from w to the least dominant (132-avoiding)
    permutation above w in right weak order, and that top: each step
    swaps an ascent u_i < u_(i+1) that has a later value strictly
    between the two, until none is left.  A dominant permutation above
    u inverts that pair too, or its values u_i, u_(i+1) and the later
    one would form a 132, so the climb passes none of them, and it ends
    at a dominant one."""
    steps = []
    u = list(w)
    i = 0
    while i < len(u) - 1:
        a, b = u[i], u[i + 1]
        if a < b and any(a < v < b for v in u[i + 2 :]):
            steps.append((tuple(u), i + 1))
            u[i], u[i + 1] = b, a
            i = max(i - 1, 0)  # only the ascent before can have become one
        else:
            i += 1
    return steps, tuple(u)


def _code(u: tuple[int, ...]) -> tuple[int, ...]:
    """The Lehmer code: for each position, the later values below it."""
    return tuple(sum(b < a for b in u[i + 1 :]) for i, a in enumerate(u))


def _descend(w: tuple[int, ...], double: bool) -> Polynomial:
    """G_w from the memo: climb from w toward the least dominant
    permutation above it, stop at the first remembered one, else build
    the top as its diagram product, then come back down one pi per
    step, remembering each result."""
    if (w, double) in _memo:
        _memo.move_to_end((w, double))
        return _memo[(w, double)]
    steps, top = _climb(w)
    # up the climb, the top last: the first remembered permutation
    for k, (u, _) in enumerate([*steps, (top, None)]):
        if (u, double) in _memo:
            _memo.move_to_end((u, double))
            p = _memo[(u, double)]
            break
    else:
        p = _diagram_product(_code(top), double)
        _remember((top, double), p)
    for u, i in reversed(steps[:k]):
        p = pi(i, p)
        _remember((u, double), p)
    return p


def grothendieck_single(w: tuple[int, ...]) -> Polynomial:
    """
    The single Grothendieck polynomial of w, in variables x1..x(n+1).

    >>> from grothpoly.polynomials import pretty
    >>> pretty(grothendieck_single((2, 1)))
    'x1'
    >>> pretty(grothendieck_single((1, 2)))
    '1'
    """
    check_permutation(w)
    return _descend(tuple(w), False)


def grothendieck_double(w: tuple[int, ...]) -> Polynomial:
    """
    The double Grothendieck polynomial of w, in x1..x(n+1), y1..y(n+1).

    >>> from grothpoly.polynomials import pretty
    >>> pretty(grothendieck_double((1, 2)))
    '1'
    """
    check_permutation(w)
    return _descend(tuple(w), True)
