"""
Partitions, skew shapes, and the tableau families behind the symmetric
generating functions: set-valued tableaux, their primed variants,
Hecke tableaux, over flagged tableaux, primed tableaux, and marked
shifted tableaux for Q-Schur functions.

Entries are (value, primed) pairs.  Two orders are in play: the marked
order 1' < 1 < 2' < 2 < ... (multiset families, Q-Schur) and the
split order 1' < 2' < ... < 1 < 2 < ... (primed set-valued tableaux).
Each validator applies its own order; boxes are kept sorted in it.

>>> T = tableau([["1'2'", "2'3'", "123"], ["3'1", "23", "4"], ["12", "34"]])
>>> is_psvt(T)
True
>>> weight_of(T)
((3, 3, 3, 2), (1, 2, 2, 0))
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
import itertools
import math
import operator
import re
from typing import Iterable, NamedTuple

from .permutations import (
    FactorSpec,
    check_permutation,
    eval_hecke_word_ltr,
    hecke_search,
    _path_sum,
    _search_graph,
)
from .polynomials import Polynomial, constant, set_y_equal_x

__all__ = [
    "Entry",
    "Tableau",
    "tableau",
    "outer_shape",
    "check_partition",
    "conjugate",
    "contains",
    "partitions_of",
    "partitions_inside",
    "is_standard_svt",
    "is_svt",
    "is_psvt",
    "is_psmt",
    "is_pt",
    "is_hecke_tableau",
    "enumerate_hecke_tableaux",
    "weight_of",
    "genfun_svt",
    "genfun_psvt",
    "genfun_psmt",
    "genfun_pt",
    "oft_count",
    "q_schur",
    "has_i_starting",
    "has_i_lattice",
    "f_coefficient",
    "pretty_tableau",
]


# ---------------------------------------------------------------------------
# partitions


def check_partition(p: tuple[int, ...]) -> None:
    if any(a < b for a, b in zip(p, p[1:])) or any(a < 1 for a in p):
        raise ValueError(f"not a partition: {p}")


def conjugate(p: tuple[int, ...]) -> tuple[int, ...]:
    """
    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(())
    ()
    """
    check_partition(p)
    return tuple(sum(1 for a in p if a > j) for j in range(p[0] if p else 0))


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    check_partition(outer)
    check_partition(inner)
    return _inside(outer, inner)


def _inside(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """contains for two partitions already checked."""
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def partitions_of(
    n: int, max_part: int | None = None
) -> list[tuple[int, ...]]:
    """
    All partitions of n >= 0 with parts at most max_part >= 0.

    >>> partitions_of(4, 3)
    [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0 or (max_part is not None and max_part < 0):
        raise ValueError(f"cannot partition {n} into parts at most {max_part}")
    cap = n if max_part is None else min(n, max_part)
    if n == 0:
        return [()]
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return out


def partitions_inside(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """
    Every partition fitting componentwise inside the given one.

    >>> partitions_inside((2, 1))
    [(), (1,), (2,), (1, 1), (2, 1)]
    """
    check_partition(shape)
    levels = [[()]]
    for bound in shape:
        grown = []
        for p in levels[-1]:
            cap = min(bound, p[-1]) if p else bound
            grown.extend(p + (row,) for row in range(1, cap + 1))
        levels.append(grown)
    return sorted(
        (p for level in levels for p in level), key=lambda p: (len(p), p)
    )


# ---------------------------------------------------------------------------
# entries and tableaux


class Entry(NamedTuple):
    value: int
    primed: bool = False

    def __str__(self) -> str:
        return f"{self.value}'" if self.primed else str(self.value)


def marked_key(e: Entry) -> int:
    """Rank in the order 1' < 1 < 2' < 2 < ..."""
    return 2 * e.value - (1 if e.primed else 0)


def split_key(e: Entry) -> tuple[int, int]:
    """Rank in the order 1' < 2' < ... < 1 < 2 < ..."""
    return (0 if e.primed else 1, e.value)


@dataclass(frozen=True)
class Tableau:
    """Rows of boxes; each box a nonempty tuple of entries.  Row r of a
    skew tableau starts at column inner[r]."""

    rows: tuple[tuple[tuple[Entry, ...], ...], ...]
    inner: tuple[int, ...] = ()

    def all_entries(self) -> list[Entry]:
        return [e for row in self.rows for box in row for e in box]


_ENTRY_RE = re.compile(r"(\d)('?)")


def _as_box(spec) -> tuple[Entry, ...]:
    if isinstance(spec, Entry):
        box = (spec,)
    elif isinstance(spec, int):
        box = (Entry(spec),)
    elif isinstance(spec, str):
        if _ENTRY_RE.sub("", spec):
            raise ValueError(f"box spec {spec!r} is not digits and primes")
        box = tuple(
            Entry(int(v), p == "'") for v, p in _ENTRY_RE.findall(spec)
        )
    else:
        box = tuple(e for part in spec for e in _as_box(part))
    if any(e.value < 1 for e in box):
        raise ValueError(f"box spec {spec!r} has an entry below 1")
    return box


def tableau(rows, inner: tuple[int, ...] = ()) -> Tableau:
    """
    Build a tableau from per-box specs: an int, an Entry, a string of
    single digits like "1'2'3", or a list of such specs, read in turn.
    Entry order within a box is kept as given; a string with other
    characters, or an entry below 1, raises ValueError.

    >>> tableau([[1, 2], [3]]).rows
    (((Entry(value=1, primed=False),), (Entry(value=2, primed=False),)), ((Entry(value=3, primed=False),),))
    """
    return Tableau(
        tuple(tuple(_as_box(b) for b in row) for row in rows), tuple(inner)
    )


def outer_shape(T: Tableau) -> tuple[int, ...]:
    return tuple(
        (T.inner[r] if r < len(T.inner) else 0) + len(row)
        for r, row in enumerate(T.rows)
    )


def _shape_ok(T: Tableau) -> bool:
    if not T.inner:  # straight: the row lengths weakly decrease
        lengths = list(map(len, T.rows))
        return all(map(operator.ge, lengths, lengths[1:]))
    outer = outer_shape(T)
    inner = tuple(T.inner) + (0,) * (len(T.rows) - len(T.inner))
    if any(a < 0 for a in inner) or any(inner[len(outer) :]):
        return False  # the inner shape must sit inside the outer one
    if any(a < b for a, b in zip(outer, outer[1:])):
        return False
    if any(a < b for a, b in zip(inner, inner[1:])):
        return False
    return all(i <= o for i, o in zip(inner, outer))


def weight_of(T: Tableau) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    Vector pair (x, y): x counts unprimed values, y primed ones, both
    padded to the largest value present.

    >>> weight_of(tableau([["1'1", 2]]))
    ((1, 1), (1, 0))
    """
    entries = T.all_entries()
    width = max((e.value for e in entries), default=0)
    x = [0] * width
    y = [0] * width
    for e in entries:
        (y if e.primed else x)[e.value - 1] += 1
    return tuple(x), tuple(y)


# ---------------------------------------------------------------------------
# validators
#
# Every validator makes one _ordered walk in its family's order and adds
# only its family's own conditions.  The walk shares no code with the
# fillers below: the validators are the reference the tests hold them to.


def _ordered(T: Tableau, key, row_strict, col_strict, skew=False, lines=None):
    """
    True when T has a well-formed shape (skew only if skew is set), every
    box is nonempty and sorted by key, and each box's last entry is at
    most, or below where strict, the first entry of the box to its right
    and of the box below.  lines(r, c), if given, is the pair (line of an
    unprimed entry, line of a primed one) for box (r, c); an entry may
    sit in one box only of each such line.
    """
    if (T.inner and not skew) or not _shape_ok(T):
        return False
    row_bad = operator.ge if row_strict else operator.gt
    col_bad = operator.ge if col_strict else operator.gt
    seen: set = set()
    above: dict = {}
    for r, row in enumerate(T.rows):
        start = T.inner[r] if r < len(T.inner) else 0
        left = None
        lasts = {}
        for c, box in enumerate(row, start):
            keys = list(map(key, box))
            if not keys or keys != sorted(keys):
                return False
            if left is not None and row_bad(left, keys[0]):
                return False
            if c in above and col_bad(above[c], keys[0]):
                return False
            left = lasts[c] = keys[-1]
            if lines is not None:
                line = lines(r, c)
                marks = {(e, line[e.primed]) for e in box}
                if not seen.isdisjoint(marks):
                    return False
                seen |= marks
        above = lasts
    return True


def _boxes(T: Tableau) -> list[tuple[Entry, ...]]:
    return [box for row in T.rows for box in row]


def is_standard_svt(T: Tableau) -> bool:
    """Boxes partition {1..N}, all comparisons strict.

    >>> is_standard_svt(tableau([["12", 4], [3]]))
    True
    >>> is_standard_svt(tableau([[1, 3], [3]]))
    False
    """
    entries = sorted(T.all_entries())
    return _ordered(T, marked_key, row_strict=True, col_strict=True) and (
        entries == [Entry(v) for v in range(1, len(entries) + 1)]
    )


def is_svt(T: Tableau) -> bool:
    """Set-valued: rows weak, columns strict, boxes are sets.

    >>> is_svt(tableau([["12", 2], [2]]))
    False
    >>> is_svt(tableau([["12", 2], [3]]))
    True
    """
    return (
        _ordered(T, marked_key, row_strict=False, col_strict=True, skew=True)
        and not any(e.primed for e in T.all_entries())
        and all(len(set(box)) == len(box) for box in _boxes(T))
    )


def is_psvt(T: Tableau) -> bool:
    """Primed set-valued: split order, all comparisons weak, unprimed
    once per row, primed once per column."""
    return _ordered(
        T, split_key, row_strict=False, col_strict=False,
        lines=lambda r, c: (r, c),
    ) and all(len(set(box)) == len(box) for box in _boxes(T))


def is_psmt(T: Tableau) -> bool:
    """Primed multiset: marked order, weak comparisons, unprimed once
    per column, primed once per row and once per box."""
    return _ordered(
        T, marked_key, row_strict=False, col_strict=False,
        lines=lambda r, c: (c, r),
    ) and not any(
        a.primed and a == b for box in _boxes(T) for a, b in zip(box, box[1:])
    )


def is_pt(T: Tableau) -> bool:
    """One entry per box and the multiset-family constraints.

    >>> is_pt(tableau([[1, 1], [1]]))
    False
    >>> is_pt(tableau([["1'", 1], [2]]))
    True
    """
    return all(len(box) == 1 for box in _boxes(T)) and is_psmt(T)


def _single_values(T: Tableau, caps) -> bool:
    """Every box of row r holds one unprimed value from 1 to caps[r]."""
    return all(
        len(box) == 1 and not box[0].primed and 1 <= box[0].value <= hi
        for row, hi in zip(T.rows, caps)
        for box in row
    )


def reading_word(T: Tableau) -> tuple[int, ...]:
    """Row word: bottom row to top, left to right within each row."""
    return tuple(
        e.value for row in reversed(T.rows) for box in row for e in box
    )


def is_hecke_tableau(T: Tableau, w: tuple[int, ...]) -> bool:
    """Single strictly increasing entries whose row word, read with the
    leftmost letter acting first, evaluates to w.

    >>> is_hecke_tableau(tableau([[1, 2], [4]]), (3, 1, 2, 5, 4))
    True
    """
    check_permutation(w)
    n = len(w) - 1
    if not (
        _ordered(T, marked_key, row_strict=True, col_strict=True)
        and _single_values(T, itertools.repeat(n))
    ):
        return False
    return eval_hecke_word_ltr(reading_word(T), n) == w


def _tableau_key(T: Tableau):
    return outer_shape(T), T.rows


def _hecke_rows(
    w: tuple[int, ...], max_boxes: int | None
) -> tuple[int, int, list[FactorSpec]]:
    """
    The search for the Hecke tableaux of w with at most max_boxes boxes,
    as (n, cap, specs): n rows, bottom row first in reading order, and
    at most cap boxes in all.  A letter is a (column, value) box, bounded
    by the box to its left and the box below it, and a row holds at
    least as many boxes as the row below, so the empty rows come first.
    A row of L boxes at slot idx therefore stacks at least L * (n - idx)
    boxes, and the slot offers no column at or past cap // (n - idx).
    """
    n = len(w) - 1
    cap = n * n if max_boxes is None else min(max_boxes, n * n)

    def row(width):
        def candidates(prev, below):
            col, lo = (0, 1) if prev is None else (prev[0] + 1, prev[1] + 1)
            if col >= width:
                return ()
            hi = below[col][1] if col < len(below) else n + 1
            return [((col, v), v, n - v) for v in range(lo, hi)]

        return FactorSpec(candidates, width, len)

    return n, cap, [row(min(n, cap // (n - idx))) for idx in range(n)]


def enumerate_hecke_tableaux(
    w: tuple[int, ...], max_boxes: int | None = None
) -> list[Tableau]:
    """
    All Hecke tableaux for w with at most max_boxes boxes (default: the
    full n x n box), by a hecke_search over n rows (see _hecke_rows).  A
    negative max_boxes raises ValueError.

    >>> [outer_shape(T) for T in enumerate_hecke_tableaux((3, 1, 2, 5, 4))]
    [(2, 1), (3,), (3, 1)]
    >>> enumerate_hecke_tableaux((1, 2))
    [Tableau(rows=(), inner=())]
    """
    _, cap, specs = _hecke_rows(w, max_boxes)
    found = hecke_search(w, specs, "left", cap)
    tableaux = (
        Tableau(
            tuple(tuple((Entry(v),) for _, v in row) for row in rows[::-1] if row)
        )
        for rows in found
    )
    return sorted(tableaux, key=_tableau_key)


def _hecke_shapes(w: tuple[int, ...], max_boxes: int | None) -> Counter:
    """
    The outer shapes of enumerate_hecke_tableaux(w, max_boxes), counted,
    in sorted order, without listing a tableau: _path_sum weighs each row
    by its length packed at its slot, and a slot's field never holds
    more than n, so each total weight is one shape, read top row first.
    """
    n, cap, specs = _hecke_rows(w, max_boxes)
    bits = n.bit_length()
    mask = (1 << bits) - 1
    sums = _path_sum(
        _search_graph(w, specs, "left", cap),
        lambda slot, row: len(row) << (bits * slot),
    )
    shifts = [bits * idx for idx in reversed(range(n))]
    shapes = {}
    for key, count in sums.items():
        lengths = ((key >> shift) & mask for shift in shifts)
        shapes[tuple(size for size in lengths if size)] = count
    return Counter(dict(sorted(shapes.items())))


# ---------------------------------------------------------------------------
# generating polynomials
#
# One filler, _fill, walks the boxes of a straight, skew or shifted shape
# carrying the entry budget and the (entry, line) marks that keep an
# entry to one box per row or per column.  A family supplies only the
# choices for a box given its filled neighbours; _box_choices builds
# them from the family's alphabet order, box contents and line rule.


def _boxes_of(outer, inner=()):
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [
        (r, c)
        for r in range(len(outer))
        for c in range(inner[r], outer[r])
    ]


def _fill(boxes, budget, choices, leaf) -> None:
    """
    Call leaf(filled) on every filling of the boxes, taken in the given
    order, which must put each box after its left and upper neighbours.
    choices(r, c, filled, room, used) gives (content, marks) pairs: a
    box content of at most room entries and the marks it claims, none
    of them in used.  Each entry costs one unit of the budget and every
    box takes at least one, so a budget equal to the number of boxes
    forces one entry per box.
    """
    filled: dict = {}
    used: set = set()
    last = len(boxes) - 1

    def place(idx: int, budget: int) -> None:
        if idx > last:
            leaf(filled)
            return
        room = budget - (last - idx)
        if room < 1:
            return
        r, c = boxes[idx]
        for content, marks in choices(r, c, filled, room, used):
            filled[(r, c)] = content
            used.update(marks)
            place(idx + 1, budget - len(content))
            used.difference_update(marks)
        filled.pop((r, c), None)

    place(0, budget)


def _alphabet(m: int, key) -> list[Entry]:
    return sorted(
        (Entry(v, p) for v in range(1, m + 1) for p in (True, False)), key=key
    )


def _box_sets(pool, room):
    """Nonempty sets from pool of at most room entries, smallest first."""
    sizes = range(1, min(room, len(pool)) + 1)
    return itertools.chain.from_iterable(
        itertools.combinations(pool, size) for size in sizes
    )


def _box_multisets(pool, room):
    """Nonempty multisets from pool of at most room entries, each primed
    entry at most once, smallest first."""
    return (
        combo
        for size in range(1, room + 1)
        for combo in itertools.combinations_with_replacement(pool, size)
        if size == 1
        or not any(a.primed and a == b for a, b in zip(combo, combo[1:]))
    )


def _box_choices(alphabet, contents, lines=None, column_gap=0):
    """
    Choices for _fill: a box holds contents(pool, room), drawn from the
    alphabet (sorted in the family's order) no earlier than its left
    neighbour's largest entry and column_gap places after its upper
    neighbour's.  lines(r, c), if given, is the pair (line of an
    unprimed entry, line of a primed one) for box (r, c); an entry may
    sit in one box only of each such line.
    """
    rank = {e: i for i, e in enumerate(alphabet)}

    def choices(r, c, filled, room, used):
        lo = 0
        left = filled.get((r, c - 1))
        if left:
            lo = rank[left[-1]]
        above = filled.get((r - 1, c))
        if above:
            lo = max(lo, rank[above[-1]] + column_gap)
        if lines is None:
            return zip(contents(alphabet[lo:], room), itertools.repeat(()))
        line = lines(r, c)
        pool = [e for e in alphabet[lo:] if (e, line[e.primed]) not in used]
        return (
            (combo, {(e, line[e.primed]) for e in combo})
            for combo in contents(pool, room)
        )

    return choices


@cache
def _svt_choices(m: int):
    """Sets of values, rows weak, columns strict."""
    return _box_choices(
        [Entry(v) for v in range(1, m + 1)], _box_sets, column_gap=1
    )


@cache
def _psmt_choices(m: int):
    """Marked order, weak comparisons, multisets with each primed entry
    at most once; unprimed once per column, primed once per row."""
    return _box_choices(
        _alphabet(m, marked_key), _box_multisets, lines=lambda r, c: (c, r)
    )


def _genfun(boxes, budget, choices, m: int) -> Polynomial:
    """Count the fillings by weight: unprimed entries feed x, primed y."""
    counts: dict = {}

    def leaf(filled):
        x = [0] * m
        y = [0] * m
        for box in filled.values():
            for value, primed in box:
                (y if primed else x)[value - 1] += 1
        key = (tuple(x), tuple(y))
        counts[key] = counts.get(key, 0) + 1

    _fill(boxes, budget, choices, leaf)
    return Polynomial(m, counts)


# The tableau model asks for the same few skew shapes once per Hecke
# tableau and per partition inside it, so each fill is kept.  Unlike the
# keys of schur and _f_tally, these carry the degree cap and an inner
# shape, so a long run over many permutations keeps meeting new ones: a
# fixed bound keeps the memory flat.  genfun_svt checks its arguments
# before the lookup, and a raise is never cached.
_SVT_CACHE_SIZE = 1024


@lru_cache(maxsize=_SVT_CACHE_SIZE)
def _svt_series(outer, m, D, inner) -> Polynomial:
    return _genfun(_boxes_of(outer, inner), D, _svt_choices(m), m)


def genfun_svt(
    outer: tuple[int, ...],
    m: int,
    D: int,
    inner: tuple[int, ...] = (),
) -> Polynomial:
    """
    Degree-truncated set-valued generating polynomial of a (skew)
    shape in m variables.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(genfun_svt((1,), 2, 2))
    'x1 + x2 + x1*x2'
    >>> pretty(genfun_svt((1, 1), 2, 2))
    'x1*x2'
    >>> pretty(genfun_svt((), 3, 2))
    '1'
    """
    check_partition(outer)
    if inner:
        check_partition(inner)
        if not contains(outer, inner):
            raise ValueError(f"{inner} not inside {outer}")
    return _svt_series(tuple(outer), m, D, tuple(inner))


def genfun_psvt(outer: tuple[int, ...], m: int, D: int) -> Polynomial:
    """
    Primed set-valued generating polynomial: split order, primed
    entries feed the y variables.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(genfun_psvt((1,), 1, 2))
    'x1 + y1 + x1*y1'
    """
    check_partition(outer)
    choices = _box_choices(
        _alphabet(m, split_key),
        _box_sets,
        lines=lambda r, c: (r, c),
    )
    return _genfun(_boxes_of(outer), D, choices, m)


def genfun_psmt(outer: tuple[int, ...], m: int, D: int) -> Polynomial:
    """
    Primed multiset generating polynomial: marked order, unprimed
    values once per column, primed once per row and per box.
    """
    check_partition(outer)
    return _genfun(_boxes_of(outer), D, _psmt_choices(m), m)


def genfun_pt(shape: tuple[int, ...], m: int) -> Polynomial:
    """
    Generating polynomial of single-entry primed tableaux; every term
    has degree equal to the number of boxes, so no truncation bound is
    needed.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(genfun_pt((), 2))
    '1'
    """
    return genfun_psmt(shape, m, sum(shape))


def oft_count(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """
    The number of over flagged fillings of mu/rho; zero when mu has
    more rows than rho.

    >>> oft_count((3, 1), (2, 1))
    2
    >>> oft_count((2, 2), (2, 1))
    1
    >>> oft_count((4,), (3,))
    3
    >>> oft_count((2, 1), (2, 1))
    1
    """
    check_partition(mu)
    check_partition(rho)
    if not contains(mu, rho):
        raise ValueError(f"{rho} not inside {mu}")
    return _oft_count(tuple(mu), tuple(rho))


# qschur_expansion asks for the same few (mu, rho) counts for every
# permutation; like the fills of genfun_svt, the bound is fixed, and a
# raise is never cached (oft_count checks before it looks here).
_OFT_CACHE_SIZE = 4096


@lru_cache(maxsize=_OFT_CACHE_SIZE)
def _oft_count(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """oft_count for partitions mu containing rho, already checked."""
    if len(mu) > len(rho):
        return 0
    boxes = _boxes_of(mu, rho)
    total = 0

    def choices(r, c, filled, room, used):
        hi = rho[r]
        left = filled.get((r, c - 1))
        if left:
            hi = min(hi, left[0])
        above = filled.get((r - 1, c))
        if above:
            hi = min(hi, above[0] - 1)
        for v in range(1, hi + 1):
            yield (v,), ()

    def leaf(filled):
        nonlocal total
        total += 1

    _fill(boxes, len(boxes), choices, leaf)
    return total


def q_schur(shape: tuple[int, ...], m: int, D: int) -> Polynomial:
    """
    Schur Q-polynomial of a strict partition via marked shifted
    tableaux: row r sits shifted r columns right; rows and columns
    weakly increase in the marked order; unprimed values at most once
    per column, primed at most once per row; i and i' both count
    toward x_i.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(q_schur((1,), 2, 4))
    '2*x1 + 2*x2'
    """
    check_partition(shape)
    if any(a <= b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"parts must strictly decrease: {shape}")
    if sum(shape) > D:
        return constant(0, m)
    boxes = [
        (r, r + j) for r in range(len(shape)) for j in range(shape[r])
    ]
    return set_y_equal_x(_genfun(boxes, len(boxes), _psmt_choices(m), m))


# ---------------------------------------------------------------------------
# finger scans


def _check_scan(T: Tableau, i: int) -> None:
    if type(i) is not int or i < 1:
        raise ValueError(f"scan index {i!r} is not an int >= 1")
    if not is_pt(T):
        raise ValueError("finger scans are defined on primed tableaux only")


def _rows_bottom_up(T: Tableau) -> Iterable[Entry]:
    for row in reversed(T.rows):
        for box in row:
            yield box[0]


def has_i_starting(T: Tableau, i: int) -> bool:
    """
    Scan rows left to right, bottom row to top: the first i or i' seen
    must be unprimed (vacuously true if neither occurs).  T must be a
    primed tableau and i an int >= 1, else ValueError.
    """
    _check_scan(T, i)
    return _starts_unprimed(T, i)


def _starts_unprimed(T: Tableau, i: int) -> bool:
    for e in _rows_bottom_up(T):
        if e.value == i:
            return not e.primed
    return True


def has_i_lattice(T: Tableau, i: int) -> bool:
    """
    Two tally scans with shared tallies.  First: top row rightmost box,
    right to left then down; unprimed i tallies above, unprimed i-1
    below; the finger breaks when above exceeds below, or when they tie
    on a primed i.  Second (tallies kept): bottom row leftmost box,
    left to right then up; primed i tallies above, primed i-1 below;
    breaks when above exceeds below, or on a tie over an unprimed i-1.
    T must be a primed tableau and i an int >= 1, else ValueError.
    """
    _check_scan(T, i)
    return _lattice(T, i)


def _top_down_scan(rows, i: int) -> tuple[int, int] | None:
    """
    The first lattice scan for i >= 2 over the given rows, top row
    first, each row right to left: the (above, below) tallies it ends
    with, or None as soon as a prefix breaks it.  Because it reads the
    rows in order, its verdict on the top rows of a tableau is the
    verdict of the same prefix of the scan of the whole tableau.
    """
    above = below = 0
    for row in rows:
        for box in reversed(row):
            e = box[0]
            if not e.primed and e.value == i:
                above += 1
            elif not e.primed and e.value == i - 1:
                below += 1
            if above > below:
                return None
            if above == below and e.primed and e.value == i:
                return None
    return above, below


def _lattice(T: Tableau, i: int) -> bool:
    if i == 1:
        return True
    tallies = _top_down_scan(T.rows, i)
    if tallies is None:
        return False
    above, below = tallies
    for e in _rows_bottom_up(T):
        if e.primed and e.value == i:
            above += 1
        elif e.primed and e.value == i - 1:
            below += 1
        if above > below:
            return False
        if above == below and not e.primed and e.value == i - 1:
            return False
    return True


@cache
def _f_tally(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The primed tableaux of shape mu that pass the starting and lattice
    scans for every i in 1..|mu|, counted by combined weight, as
    (weight, count) pairs in decreasing weight order.

    Such a tableau has a strict weight, so it uses no value past k, the
    largest k with k(k+1)/2 <= |mu| (the length of the longest strict
    partition of |mu|); the fill offers values up to min(k + 1, |mu|).
    Value k + 1 is a sentinel: a filling that uses it and passes the
    scans has a weight that is not strict, and _lattice_tally raises.
    """
    n = sum(mu)
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return _lattice_tally(mu, min(k + 1, max(n, 1)))


def _breaks_scan(primed: bool, above: int, below: int) -> bool:
    """Whether an entry i >= 2 breaks the first lattice scan for i, the
    scan's (above, below) tallies counting it: above past below, or a
    primed i on a tie."""
    return above > below or (above == below and primed)


def _lattice_tally(mu: tuple[int, ...], top: int) -> tuple:
    """
    The tally of _f_tally over the primed tableaux of shape mu with
    values at most top; a qualifying weight that is not strict raises
    RuntimeError.

    The fill places the boxes in the order the first lattice scan reads
    them: rows top first, each row right to left.  A box lies between
    the box over it and its right neighbour in the marked order; as
    rows and columns weakly increase, an unprimed entry once per column
    is one unlike the entry over it, and a primed entry once per row
    one unlike its right neighbour.  The fill keeps that scan's (above,
    below) tallies for every i >= 2 and skips an entry that breaks the
    scan for its own value (_breaks_scan): every completion breaks it
    too.  The starting scan and the second lattice scan read the bottom
    row first, so every leaf is still scanned in full, for every i.
    Cutting drops only fillings that fail, so the counts are those of
    the whole list pt_fillings(mu, top) of tests/references.py.
    """
    values = range(1, max(sum(mu), 1) + 1)
    entries = _alphabet(top, marked_key)  # an entry's rank is its index
    boxes = [(r, c) for r, row in enumerate(mu) for c in range(row)[::-1]]
    grid = [[0] * row for row in mu]
    above = [0] * (top + 2)  # above[i], below[i]: the scan's tallies for i
    below = [0] * (top + 2)
    counts: dict[tuple[int, ...], int] = {}

    def leaf():
        T = Tableau(tuple(tuple((entries[e],) for e in row) for row in grid))
        if not all(_starts_unprimed(T, i) and _lattice(T, i) for i in values):
            return
        weight = [0] * top
        for row in grid:
            for e in row:
                weight[e >> 1] += 1
        while weight and weight[-1] == 0:
            weight.pop()
        key = tuple(weight)
        if any(a <= b for a, b in zip(key, key[1:])):
            raise RuntimeError(
                f"weight {key} of a qualifying tableau is not strict: {T}"
            )
        counts[key] = counts.get(key, 0) + 1

    def place(idx: int) -> None:
        if idx == len(boxes):
            leaf()
            return
        r, c = boxes[idx]
        row = grid[r]
        lo, hi = 0, 2 * top - 1  # ranks: 1' is 0, 1 is 1, 2' is 2, ...
        if r:
            lo = grid[r - 1][c]
            lo += lo & 1  # an unprimed entry is not repeated down a column
        if c + 1 < len(row):
            hi = row[c + 1]
            hi -= 1 - (hi & 1)  # a primed entry is not repeated along a row
        for e in range(lo, hi + 1):
            i, unprimed = (e >> 1) + 1, e & 1  # the scan counts unprimed only
            if i > 1 and _breaks_scan(
                not unprimed, above[i] + unprimed, below[i]
            ):
                continue
            row[c] = e
            above[i] += unprimed
            below[i + 1] += unprimed
            place(idx + 1)
            above[i] -= unprimed
            below[i + 1] -= unprimed

    place(0)
    return tuple(sorted(counts.items(), reverse=True))


def f_coefficient(mu: tuple[int, ...], lam: tuple[int, ...]) -> int:
    """
    The number of primed tableaux of shape mu having every starting and
    lattice property whose combined x- and y-weight is lam.  Qualifying
    weights are checked to be strict partitions; a violation raises.
    The count is read from a tally cached per shape that counts every
    lam at once, in decreasing order.  The fill behind it offers values
    up to one past the length k of the longest strict partition of
    |mu|, that sentinel value keeping the strictness check live.  It
    places the boxes in the order the first lattice scan reads them,
    rows top first and each row right to left, and skips an entry as
    soon as it breaks that scan (see _lattice_tally).

    >>> f_coefficient((3, 1), (4,))
    1
    >>> f_coefficient((3, 1), (3, 1))
    1
    >>> f_coefficient((), ())
    1
    """
    mu, lam = tuple(mu), tuple(lam)
    check_partition(mu)
    check_partition(lam)
    if sum(mu) != sum(lam):
        return 0
    return dict(_f_tally(mu)).get(lam, 0)


# ---------------------------------------------------------------------------
# layout


def pretty_tableau(T: Tableau) -> str:
    """Monospace Young-diagram layout; skew cells print as dots.

    >>> print(pretty_tableau(tableau([["1'2'", "123"], ["3"]])))
    1'2' 123
    3
    """
    cells: list[list[str]] = []
    for r, row in enumerate(T.rows):
        start = T.inner[r] if r < len(T.inner) else 0
        cells.append(["."] * start + ["".join(str(e) for e in box) for box in row])
    width = max((len(s) for row in cells for s in row), default=1)
    lines = [" ".join(s.ljust(width) for s in row).rstrip() for row in cells]
    return "\n".join(lines)
