"""Threshold-ladder rewrites on split Hecke words and the factor-moving
bijections built from them, ending in the rewrite from circled to
two-sided bounded factorizations."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

from .factorizations import (
    Factorization,
    Letter,
    factorization_to_str,
    is_valid_factorization,
    _factorization,
)

__all__ = [
    "WQuadruple",
    "check_quadruple",
    "LADDER_TABLE",
    "wk_step_down",
    "wk_step_up",
    "arrow_down",
    "arrow_up",
    "psi",
    "psi_inv",
    "circled_to_double",
    "circled_to_double_chain",
]


class WQuadruple(NamedTuple):
    """Four letter blocks split by a threshold k: the outer blocks a, d
    hold letters above k, the inner blocks b, c letters up to k; a and
    c decrease strictly while b and d increase strictly."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]
    k: int


def _decreasing(word) -> bool:
    return all(x > y for x, y in zip(word, word[1:]))


def _increasing(word) -> bool:
    return all(x < y for x, y in zip(word, word[1:]))


def check_quadruple(q: WQuadruple) -> None:
    if not (_decreasing(q.a) and _decreasing(q.c)):
        raise ValueError("blocks a and c must strictly decrease")
    if not (_increasing(q.b) and _increasing(q.d)):
        raise ValueError("blocks b and d must strictly increase")
    if any(x < 1 for block in (q.a, q.b, q.c, q.d) for x in block):
        raise ValueError("letters must be positive")
    if any(x > q.k for x in q.b + q.c):
        raise ValueError(f"blocks b and c may only hold letters <= {q.k}")
    if any(x <= q.k for x in q.a + q.d):
        raise ValueError(f"blocks a and d may only hold letters > {q.k}")


# One ladder step moves the letter K = k+1 out of the inner blocks and
# (possibly) into the outer ones.  Which letters sit where afterwards
# depends only on which of k, K appear in b and c; the table maps
#   (k in b, K in b, K in c, k in c)
# to
#   (K joins a, k stays in b, k stays in c, K joins d).
# Keys without any K are absent: they are fixed outright, and that
# absence is the whole test, since K occurs in the blocks exactly when
# it lies in the support of their Hecke evaluation.
LADDER_TABLE = {
    (True, True, True, True): (True, True, True, True),
    (True, True, False, True): (True, True, False, True),
    (True, False, True, True): (True, False, True, True),
    (True, True, True, False): (False, True, True, True),
    (False, True, True, True): (True, True, True, False),
    (False, True, True, False): (True, False, False, True),
    (False, True, False, True): (True, True, False, False),
    (True, False, True, False): (False, False, True, True),
    (True, True, False, False): (False, True, False, True),
    (False, False, True, True): (True, False, True, False),
    (False, True, False, False): (False, False, False, True),
    (False, False, True, False): (True, False, False, False),
}

_TABLE_INVERSE = {after: before for before, after in LADDER_TABLE.items()}


def wk_step_down(q: WQuadruple) -> WQuadruple:
    """Lower the threshold by one, migrating letters K = k+1 outward.

    >>> wk_step_down(WQuadruple((), (1, 2, 3, 5, 6, 8), (8, 7, 5, 2), (), 8))
    WQuadruple(a=(8,), b=(1, 2, 3, 5, 6, 7), c=(7, 5, 2), d=(), k=7)
    """
    check_quadruple(q)
    if q.k < 1:
        raise ValueError("already at threshold 0")
    return _step_down(q)


def _step_down(q: WQuadruple) -> WQuadruple:
    """wk_step_down of a quadruple known to pass check_quadruple, with
    k at least 1; a step keeps the quadruple valid, so a ride checks
    only where it starts."""
    K, k = q.k, q.k - 1
    key = (k in q.b, K in q.b, K in q.c, k in q.c)
    if key not in LADDER_TABLE:
        return q._replace(k=k)
    to_a, b_keeps_k, c_keeps_k, to_d = LADDER_TABLE[key]
    b = tuple(x for x in q.b if x not in (k, K))
    c = tuple(x for x in q.c if x not in (k, K))
    return WQuadruple(
        q.a + ((K,) if to_a else ()),
        b + ((k,) if b_keeps_k else ()),
        ((k,) if c_keeps_k else ()) + c,
        ((K,) if to_d else ()) + q.d,
        k,
    )


def wk_step_up(q: WQuadruple) -> WQuadruple:
    """Raise the threshold by one; the inverse of wk_step_down.

    >>> wk_step_up(WQuadruple((8,), (1, 2, 3, 5, 6, 7), (7, 5, 2), (), 7))
    WQuadruple(a=(), b=(1, 2, 3, 5, 6, 8), c=(8, 7, 5, 2), d=(), k=8)
    """
    check_quadruple(q)
    return _step_up(q)


def _step_up(q: WQuadruple) -> WQuadruple:
    """wk_step_up of a quadruple known to pass check_quadruple."""
    K, k = q.k + 1, q.k
    key = (
        bool(q.a) and q.a[-1] == K,
        k in q.b,
        k in q.c,
        bool(q.d) and q.d[0] == K,
    )
    if key not in _TABLE_INVERSE:
        return q._replace(k=K)
    b_had_k, b_had_K, c_had_K, c_had_k = _TABLE_INVERSE[key]
    b = tuple(x for x in q.b if x != k)
    c = tuple(x for x in q.c if x != k)
    return WQuadruple(
        q.a[:-1] if key[0] else q.a,
        b + ((k,) if b_had_k else ()) + ((K,) if b_had_K else ()),
        ((K,) if c_had_K else ()) + ((k,) if c_had_k else ()) + c,
        q.d[1:] if key[3] else q.d,
        K,
    )


# A ride up depends only on its two blocks, and the rewrites repeat a few
# hundred pairs thousands of times: every pair of subsets of {1..6} fits.
# A pair that fails check_quadruple raises, and a raise is never cached.
# A ride down is not cached: no rewrite rides down, only psi_inv and verify.
_RIDE_CACHE_SIZE = 4096


@lru_cache(maxsize=_RIDE_CACHE_SIZE)
def _ride_up(a: tuple[int, ...], d: tuple[int, ...]):
    q = WQuadruple(a, (), (), d, 0)
    check_quadruple(q)
    for _ in range(max((*a, *d), default=0)):
        q = _step_up(q)
    return q.b, q.c


def arrow_down(pair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ride the ladder from the top threshold to 0, turning an
    (increasing, decreasing) pair into a (decreasing, increasing) one
    for the same permutation.

    >>> arrow_down(((1, 2, 3, 5, 6, 8), (8, 7, 5, 2)))
    ((8, 6, 5, 3), (1, 2, 3, 5, 6, 7))
    """
    b, c = map(tuple, pair)
    q = WQuadruple((), b, c, (), max((*b, *c), default=0))
    check_quadruple(q)
    for _ in range(q.k):
        q = _step_down(q)
    return q.a, q.d


def arrow_up(pair) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ride the ladder from threshold 0 to the top; the inverse of
    arrow_down.

    >>> arrow_up(((9, 7, 6, 4), (4, 5, 6, 8, 9)))
    ((4, 5, 7, 8, 9), (9, 8, 6, 5))
    """
    a, d = pair
    return _ride_up(tuple(a), tuple(d))


def _check_moving_pair(j, factor, extra, circled_cap, extra_floor) -> None:
    ranks = [l.rank for l in factor]
    if any(x <= y for x, y in zip(ranks, ranks[1:])):
        raise ValueError("factor must strictly decrease in circled order")
    for l in factor:
        if not l.circled and l.value < j:
            raise ValueError(f"uncircled letters must be >= {j}")
        if l.circled and not j <= l.value <= circled_cap:
            raise ValueError(
                f"circled letters must lie between ({j}) and ({circled_cap})"
            )
    if not _increasing(extra):
        raise ValueError("extra factor must strictly increase")
    if any(v < extra_floor for v in extra):
        raise ValueError(f"extra letters must be >= {extra_floor}")


def psi(j: int, k: int, f_j, f_ex) -> tuple[tuple[int, ...], tuple[Letter, ...]]:
    """Move an increasing extra factor from the right of a decreasing
    factor to its left.  The letter s = j+k-1 is pivotal: a circled s
    leaves the factor and rides along as an uncircled s.  Equal moves
    are computed once and share their result tuples.

    >>> from .factorizations import parse_factorization
    >>> fj = parse_factorization("(9 7 6 4 4o 3o 2 2o)", "circled", 9).factors[0]
    >>> ex2, fj2 = psi(2, 3, fj, (5, 6, 8, 9))
    >>> ex2
    (4, 5, 7, 8, 9)
    >>> " ".join(str(l) for l in fj2)
    '9 8 6 5 3o 2 2o'
    """
    return _psi(j, k, tuple(f_j), tuple(f_ex))


# Rewrite chains repeat a few hundred distinct moves thousands of times
# (228 distinct among the 24,576 moves that rewrite every circled
# factorization of S_4), so psi shares the rides' bound.  A bad factor
# raises on every call, since a raise is never cached.
@lru_cache(maxsize=_RIDE_CACHE_SIZE)
def _psi(j: int, k: int, f_j: tuple, f_ex: tuple):
    s = j + k - 1
    _check_moving_pair(j, f_j, f_ex, circled_cap=s, extra_floor=s + 1)
    bar = 2 * s - 1
    above = tuple(l.value for l in f_j if l.rank > bar)
    pivot = any(l.rank == bar for l in f_j)
    below = tuple(l for l in f_j if l.rank < bar)
    g1, g2 = arrow_up((above, ((s,) if pivot else ()) + f_ex))
    return g1, tuple(Letter(v) for v in g2) + below


def psi_inv(j: int, k: int, f_ex, f_j) -> tuple[tuple[Letter, ...], tuple[int, ...]]:
    """Move the extra factor back to the right; the inverse of psi.
    An uncircled s = j+k-1 surfacing next to the factor re-enters it
    circled.

    >>> from .factorizations import parse_factorization
    >>> fj = parse_factorization("(9 8 6 5 3o 2 2o)", "circled", 9).factors[0]
    >>> fj2, ex2 = psi_inv(2, 3, (4, 5, 7, 8, 9), fj)
    >>> " ".join(str(l) for l in fj2)
    '9 7 6 4 4o 3o 2 2o'
    >>> ex2
    (5, 6, 8, 9)
    """
    s = j + k - 1
    _check_moving_pair(j, f_j, f_ex, circled_cap=s - 1, extra_floor=s)
    bar = 2 * s - 1
    above = tuple(l.value for l in f_j if l.rank > bar)
    below = tuple(l for l in f_j if l.rank < bar)
    h1, h2 = arrow_down((tuple(f_ex), above))
    factor = tuple(Letter(v) for v in h1)
    if h2 and h2[0] == s:
        return factor + (Letter(s, True),) + below, h2[1:]
    return factor + below, h2


@lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple[int, int, bool], ...]:
    """The rewrite's moves over S_{n+1}, in order: psi(j, k) for k from
    n down to 1 and j from n-k+1 down to 1, with close set on the last
    move of each k > 1, after which the extra factor joins the left
    half and a new, empty one starts.  The last move is psi(1, 1), so
    the last extra factor ends left of every right factor."""
    return tuple(
        (j, k, j == 1 and k > 1)
        for k in range(n, 0, -1)
        for j in range(n - k + 1, 0, -1)
    )


def _rewrite(f: Factorization, lines: list[str] | None = None) -> Factorization:
    """Run the moves of _moves(f.n) on a bounded circled factorization
    and build the two-sided result.  Given a list, append to it the
    display line of every state: the start, and after every move and
    every close, the extra factor in square brackets at its slot (the
    number of right factors left of it)."""
    if f.kind != "circled_bounded":
        raise ValueError("expected a bounded circled factorization")
    if not is_valid_factorization(f):
        raise ValueError("invalid factorization")
    n = f.n
    rights = [tuple(fac) for fac in f.factors]
    left: list[tuple[int, ...]] = [()] if n else []
    f_ex: tuple[int, ...] = ()
    if lines is not None:
        lines.append(_state_line(left, rights, f_ex, 1 if n else 0))
    for j, k, close in _moves(n):
        f_ex, rights[j - 1] = psi(j, k, rights[j - 1], f_ex)
        if lines is not None:
            lines.append(_state_line(left, rights, f_ex, j - 1))
        if close:
            left.append(f_ex)
            f_ex = ()
            if lines is not None:
                lines.append(_state_line(left, rights, f_ex, n - k + 2))
    if any(map(attrgetter("circled"), chain.from_iterable(rights))):
        raise RuntimeError("rewrite chain ended in a bad state")
    left.append(f_ex)
    factors = tuple(map(_plain, left)) + tuple(rights)
    return _factorization("double_bounded", factors, n, n + 1)


@lru_cache(maxsize=_RIDE_CACHE_SIZE)
def _plain(values: tuple[int, ...]) -> tuple[Letter, ...]:
    """A left factor's values as uncircled letters; the rewrites of a
    family repeat a few hundred left factors, so each is made once."""
    return tuple(Letter(v) for v in values)


def circled_to_double(f: Factorization) -> Factorization:
    """Rewrite a bounded circled factorization into the two-sided
    bounded factorization with the same letter weights, by repeatedly
    moving an extra factor leftward through the circled factors.

    >>> from .factorizations import parse_factorization
    >>> start = parse_factorization("(3 3o 2o 1 1o)(3o 2)(3 3o)()", "circled_bounded", 3)
    >>> str(circled_to_double(start))
    '()(3)(2 3)(1 2)|(2 1)(3)(3)()'
    """
    return _rewrite(f)


def _state_line(left, rights, f_ex, slot) -> str:
    head = "".join(
        "(" + " ".join(str(v) for v in fac) + ")" for fac in left
    )
    parts = ["(" + " ".join(str(l) for l in fac) + ")" for fac in rights]
    parts.insert(slot, "[" + " ".join(str(v) for v in f_ex) + "]")
    return head + "|" + "".join(parts)


def circled_to_double_chain(f: Factorization) -> list[str]:
    """Display strings for the full rewrite: the input, every
    intermediate state (extra factor in square brackets), and the
    final two-sided factorization."""
    lines: list[str] = []
    g = _rewrite(f, lines)
    return [factorization_to_str(f), *lines, factorization_to_str(g)]
