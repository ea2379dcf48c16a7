"""Row insertion for Hecke words, with factorization-labelled variants."""

from __future__ import annotations

from bisect import bisect_left
from functools import cache, lru_cache

from .tableaux import Entry, Tableau, outer_shape, pretty_tableau

__all__ = [
    "insert_row",
    "insert_word",
    "insert_into_pair",
    "phi",
]


def insert_row(
    above: tuple[int, ...] | None, row: tuple[int, ...], a: int
) -> tuple[tuple[int, ...], str, int | None]:
    """
    Insert the letter a into one increasing row; above is the row
    directly over it, or None at the top of the tableau.

    Returns (new_row, outcome, bumped).  The outcome is "appended"
    (a landed in a new box at the end), "disappeared" (a was absorbed
    and the bump path stops), or "bumped" (the returned letter moves
    on to the next row down).

    Walking the row, a either replaces the first entry >= it, or is
    blocked: equal entries, and entries sitting under an equal or
    larger entry of the row above, stay put and push their right or
    own neighbour down instead.

    >>> insert_row(None, (1, 2, 4, 5), 3)
    ((1, 2, 3, 5), 'bumped', 4)
    >>> insert_row((1, 2, 3, 5), (2, 4, 6, 8), 4)
    ((2, 4, 6, 8), 'bumped', 6)
    >>> insert_row((3, 5, 7), (4, 7), 7)
    ((4, 7), 'disappeared', None)
    """
    if above is not None:
        fits = a > above[0] and any(
            above[i] <= a and (i >= len(row) or a < row[i])
            for i in range(len(above))
        )
        if not fits:
            raise RuntimeError(f"letter {a} breaks the bump-path invariant")
    j = len(row)
    if j == 0 or a >= row[-1]:
        if j and a == row[-1]:
            return row, "disappeared", None
        nxt = above[j] if above is not None and j < len(above) else None
        if nxt == a:
            return row, "disappeared", None
        return row + (a,), "appended", None
    i = bisect_left(row, a)
    if row[i] == a:
        return row, "bumped", row[i + 1]
    if above is not None and above[i] == a:
        return row, "bumped", row[i]
    return row[:i] + (a,) + row[i + 1 :], "bumped", row[i]


# The bump path of a letter depends on the rows of P and the letter
# alone, and Q only records the box where that path ends, so the step is
# cached on P and the letter: `verify insertion --n 4 --degree 7` bumps
# 192,392 times into 524 distinct pairs, and a round of the tableaux
# benchmark 8,236 times into 254.  Keys and values are tuples, so a
# cached entry cannot be changed by a caller; a letter that breaks the
# bump path raises on every call, since a raise is never cached.
_BUMP_CACHE_SIZE = 1024


@lru_cache(maxsize=_BUMP_CACHE_SIZE)
def _bump(p_rows: tuple[tuple[int, ...], ...], a: int):
    """
    Push a down the rows of P.  Returns the new rows and the box
    (row, column, new) that ends the bump path: a new box where a
    letter was appended, or, where a letter vanished, the lowest box
    of the column under that row's last box.

    >>> _bump(((1, 3), (3,)), 2)
    (((1, 2), (3,)), (1, 0, False))
    """
    rows = list(p_rows)
    r, cur = 0, a
    while True:
        above = rows[r - 1] if r else None
        row = rows[r] if r < len(rows) else ()
        new_row, outcome, bumped = insert_row(above, row, cur)
        if outcome == "bumped":
            rows[r] = new_row
            r, cur = r + 1, bumped
        elif outcome == "appended":
            if r == len(rows):
                rows.append(new_row)
            else:
                rows[r] = new_row
            return tuple(rows), (r, len(new_row) - 1, True)
        else:
            col = len(row) - 1
            low = max(i for i, pr in enumerate(rows) if len(pr) > col)
            return tuple(rows), (low, col, False)


def _insert_one(
    p_rows: tuple[tuple[int, ...], ...],
    q_rows: list[list[tuple[Entry, ...]]],
    a: int,
    label: Entry,
) -> tuple[tuple[int, ...], ...]:
    """The rows of P after a goes in; the box ending its bump path gets
    the label in q_rows."""
    p_rows, (r, c, new) = _bump(p_rows, a)
    if not new:
        q_rows[r][c] += (label,)
    elif r == len(q_rows):
        q_rows.append([(label,)])
    else:
        q_rows[r].append((label,))
    return p_rows


# The words of one family insert to a few dozen distinct P, each met
# hundreds of times, so each P is built once from its rows of letters.
# A Tableau is immutable; the bound keeps a long run's memory flat.
_P_CACHE_SIZE = 1024


@lru_cache(maxsize=_P_CACHE_SIZE)
def _p_tableau(p_rows: tuple[tuple[int, ...], ...]) -> Tableau:
    return Tableau(tuple(tuple((Entry(v),) for v in row) for row in p_rows))


def _pair(p_rows, q_rows) -> tuple[Tableau, Tableau]:
    return _p_tableau(p_rows), Tableau(tuple(map(tuple, q_rows)))


def _unpair(P: Tableau, Q: Tableau):
    if any(len(box) != 1 or box[0].primed for row in P.rows for box in row):
        raise ValueError("every box of P must hold one unprimed entry")
    p_rows = tuple(tuple(box[0].value for box in row) for row in P.rows)
    if any(a >= b for row in p_rows for a, b in zip(row, row[1:])) or any(
        a >= b for up, down in zip(p_rows, p_rows[1:]) for a, b in zip(up, down)
    ):
        raise ValueError("P must strictly increase along rows and columns")
    q_rows = [list(row) for row in Q.rows]
    return p_rows, q_rows


def _check_letter(a) -> None:
    if isinstance(a, bool) or not isinstance(a, int) or a < 1:
        raise ValueError(f"letter {a!r} is not a positive int")


def insert_word(word) -> tuple[Tableau, Tableau]:
    """
    Insert a word letter by letter.  P accumulates the letters; box
    i of Q (new box, or a mark added to an old one) shows where step
    i ended.  A letter that is not a positive int raises ValueError.

    >>> P, Q = insert_word((1, 3, 2, 2))
    >>> print(pretty_tableau(P))
    1 2
    3
    >>> print(pretty_tableau(Q))
    1  24
    3
    """
    p_rows: tuple[tuple[int, ...], ...] = ()
    q_rows: list[list[tuple[Entry, ...]]] = []
    for step, a in enumerate(word, start=1):
        _check_letter(a)
        p_rows = _insert_one(p_rows, q_rows, a, Entry(step))
    return _pair(p_rows, q_rows)


def insert_into_pair(
    P: Tableau, Q: Tableau, a: int, label: int | Entry
) -> tuple[Tableau, Tableau]:
    """
    One further insertion into an existing pair: a goes into P and the
    box ending its bump path gets the label in Q.  A letter that is not
    a positive int, a skew P or Q, P and Q of different shapes, or a P
    that is no Hecke tableau (one unprimed entry per box, strictly
    increasing along rows and columns) raise ValueError.

    >>> P, Q = insert_word((1, 3, 2))
    >>> P2, Q2 = insert_into_pair(P, Q, 2, 4)
    >>> (P2, Q2) == insert_word((1, 3, 2, 2))
    True
    """
    _check_letter(a)
    if any(P.inner) or any(Q.inner) or outer_shape(P) != outer_shape(Q):
        raise ValueError("P and Q must share one straight shape")
    p_rows, q_rows = _unpair(P, Q)
    if not isinstance(label, Entry):
        label = Entry(label)
    p_rows = _insert_one(p_rows, q_rows, a, label)
    return _pair(p_rows, q_rows)


def _transpose_rows(rows):
    """The columns of straight-shape rows, each as a tuple."""
    width = len(rows[0]) if rows else 0
    return [
        tuple(rows[r][c] for r in range(len(rows)) if c < len(rows[r]))
        for c in range(width)
    ]


# One Entry per label and mark, shared by every Q of phi that holds it:
# an Entry is an immutable tuple, and a lookup costs less than building
# one.  Labels of phi count factors, so there are few of them.
_label = cache(Entry)


# Insertion reads its word left to right, so the pair after a prefix of
# a two-sided factorization does not depend on what follows it, and a
# family repeats a few thousand prefixes tens of thousands of times.  So
# the pair after the left half and all right factors but the last is
# kept, and each phi inserts only its last factor.  The cached rows are
# tuples: P's go on into _bump as they are, and only Q's are copied into
# fresh lists before a factor goes in.  A prefix that breaks the bump
# path raises on every call, since a raise is never cached.
_PREFIX_CACHE_SIZE = 4096


@lru_cache(maxsize=_PREFIX_CACHE_SIZE)
def _prefix(left, right):
    """The rows of P and Q, as tuples, after the left half and then the
    right factors given.  The left half goes in reversed (factor order
    and letters) with factor labels, and the pair is transposed with
    those labels primed; right factor i then goes in with the label i."""
    if right:
        p_rows, q_rows = _with_factor(_prefix(left, right[:-1]), right[-1], len(right))
        return p_rows, tuple(map(tuple, q_rows))
    p_rows: tuple[tuple[int, ...], ...] = ()
    q_rows: list[list[tuple[Entry, ...]]] = []
    for i, fac in enumerate(reversed(left), start=1):
        for letter in reversed(fac):
            p_rows = _insert_one(p_rows, q_rows, letter.value, _label(i))
    q_cols = tuple(
        tuple(tuple(_label(e.value, True) for e in box) for box in col)
        for col in _transpose_rows(q_rows)
    )
    return tuple(_transpose_rows(p_rows)), q_cols


def _with_factor(rows, fac, label: int):
    """The rows of P, and fresh lists of the rows of Q, after the letters
    of one more factor go into the given rows under the label."""
    p_rows, q_rows = rows[0], [list(row) for row in rows[1]]
    entry = _label(label)
    for letter in fac:
        p_rows = _insert_one(p_rows, q_rows, letter.value, entry)
    return p_rows, q_rows


def phi(f: Factorization) -> tuple[Tableau, Tableau]:
    """
    Insert a two-sided factorization.  The left half is reversed
    (factor order and letters) and inserted with factor labels, the
    pair is transposed with those labels primed, and the right half
    is then inserted on top with unprimed labels.

    >>> from .factorizations import parse_factorization
    >>> f = parse_factorization(
    ...     "(1 2 4)(1 3)|(4 3 2)(3)", "double_unbounded", 9
    ... )
    >>> P, Q = phi(f)
    >>> print(pretty_tableau(P))
    1 2 3 4
    2 3 4
    4
    >>> print(pretty_tableau(Q))
    1'  1'  2'  1
    2'  2'1 2
    1
    """
    if f.kind not in ("double_bounded", "double_unbounded"):
        raise ValueError("phi needs a two-sided factorization")
    left, right = f.factors[: f.split], f.factors[f.split :]
    last = right[-1] if right else ()
    return _pair(*_with_factor(_prefix(left, right[:-1]), last, len(right)))
