"""
Grothendieck polynomials by the operator definition.

For a permutation w of {1, ..., n+1} the single polynomial is obtained
by applying the pi operators along a reduced word of w^{-1} w0 to the
staircase monomial x1^n x2^(n-1) ... xn; the double polynomial starts
instead from the product of x_i + y_j + x_i*y_j over i + j <= n+1.
The result does not depend on the reduced word chosen.

Since the pi operators satisfy the braid relations, G_w = pi_i G_{w s_i}
for every ascent i of w (w(i) < w(i+1)), along any path down from w0.
So one memo serves every permutation of a size: a new w climbs to the
nearest remembered permutation above it in right weak order, the one of
fewest inversions among those that invert every value pair w inverts
(Bjorner and Brenti, Combinatorics of Coxeter Groups, 3.1), and comes
back down one pi per step.  With nothing remembered above w it climbs to
w0, and the staircase is built once for as long as the memo keeps it.

>>> from grothpoly.polynomials import pretty
>>> pretty(grothendieck_single((3, 1, 2)))
'x1^2'
>>> pretty(grothendieck_double((2, 1)))
'x1 + y1 + x1*y1'
"""

from collections import OrderedDict
from functools import lru_cache

from .permutations import check_permutation
from .polynomials import (
    Polynomial,
    constant,
    monomial,
    pi,
    x_var,
    y_var,
    _check_degree,
)

__all__ = [
    "staircase_monomial",
    "staircase_product",
    "grothendieck_single",
    "grothendieck_double",
]


def staircase_monomial(n: int) -> Polynomial:
    """
    The monomial x1^n x2^(n-1) ... xn^1 in family size n+1.  Its degree
    n(n+1)/2 passes the degree cap from n = 23 on, and the constructor
    raises ValueError.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(staircase_monomial(2))
    'x1^2*x2'
    """
    return monomial(n + 1, tuple(n - i for i in range(n + 1)))


def staircase_product(n: int) -> Polynomial:
    """
    The expanded product of (x_i + y_j + x_i*y_j) over i + j <= n+1,
    in family size n+1.  Its degree n(n+1) passes the degree cap from
    n = 16 on, which raises ValueError before any product is formed.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(staircase_product(1))
    'x1 + y1 + x1*y1'
    >>> pretty(staircase_product(0))
    '1'
    """
    _check_degree(n * (n + 1))
    m = n + 1
    out = constant(1, m)
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            xi, yj = x_var(i, m), y_var(j, m)
            out = out * (xi + yj + xi * yj)
    return out


# The descent memo holds at most this many terms in all (the sum of
# len(p) over its entries, which unpacks no key), least recently
# used out first.  All that a round of the cauchy benchmark reaches, on
# S_4 and six permutations of S_5, is 22,000 to 29,000 terms in about
# 165 entries, each climb stopping at the nearest entry above it; an
# entry larger than the budget, such as the 187,945-term staircase of
# S_6, is never kept.
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


def _pair(a: int, b: int) -> int:
    """The bit of the value pair a < b."""
    return 1 << (b * (b - 1) // 2 + a)


# A memo scan reads the mask of every key, single and double alike: the
# masks of all of S_6 fit.
@lru_cache(maxsize=1024)
def _inverted(u: tuple[int, ...]) -> int:
    """The value pairs u inverts, one bit each: v lies above u in right
    weak order exactly when _inverted(u) & ~_inverted(v) is 0."""
    return sum(
        _pair(b, a) for i, a in enumerate(u) for b in u[i + 1 :] if a > b
    )


def _descend(w: tuple[int, ...], double: bool) -> Polynomial:
    """G_w from the memo: climb to the nearest remembered permutation
    above w in right weak order, or else to w0, then come back down one
    pi per step."""
    if (w, double) in _memo:
        _memo.move_to_end((w, double))
        return _memo[(w, double)]
    n = len(w) - 1
    # one pass over the memo: of the remembered u of w's size and flag
    # that invert every pair w inverts, the one with fewest inversions
    below = _inverted(w)
    top, fewest = None, n * (n + 1) // 2 + 1
    for u, flag in _memo:
        if flag is double and len(u) == n + 1:
            mask = _inverted(u)
            if not below & ~mask and mask.bit_count() < fewest:
                top, fewest = u, mask.bit_count()
    # w0 inverts every pair, so with no top every ascent leads there
    target = ~0 if top is None else _inverted(top)
    climb = []
    u = w
    while u != top:
        i = next(
            (
                i
                for i in range(1, n + 1)
                if u[i - 1] < u[i] and target & _pair(u[i - 1], u[i])
            ),
            None,
        )
        if i is None:  # u is w0
            p = staircase_product(n) if double else staircase_monomial(n)
            _remember((u, double), p)
            break
        climb.append((u, i))
        u = u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
    else:
        _memo.move_to_end((u, double))
        p = _memo[(u, double)]
    for v, i in reversed(climb):
        p = pi(i, p)
        _remember((v, double), p)
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
