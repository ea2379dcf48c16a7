"""
Hecke factorizations in all their flavors: plain, bounded, circled,
double, and hook, together with weights, enumeration, generating
polynomials, and the convolution over Demazure-product pairs.

A factorization cuts a Hecke word into ordered factors subject to
per-kind monotonicity and lower-bound constraints; circled letters feed
the y variables.  Letters compare in the interleaved order

    (1) < 1 < (2) < 2 < ... < (n) < n.

Plain, circled and double families evaluate their flattened word
rightmost letter first (like eval_hecke_word); hook factorizations
evaluate leftmost first.

>>> f = parse_factorization("(3 2)(3 2 1)()(1)", "plain", 3)
>>> factorization_to_str(f)
'(3 2)(3 2 1)()(1)'
>>> evaluation(f)
(4, 1, 3, 2)
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import getitem
import re
from typing import NamedTuple

from .grothendieck import grothendieck_single
from .permutations import (
    FactorSpec,
    eval_hecke_word,
    eval_hecke_word_ltr,
    hecke_apply_right,
    hecke_distance,
    inverse,
    lex_min_reduced_word,
    _path_sum,
    _search_graph,
)
from .polynomials import (
    Polynomial,
    constant,
    exchange_families,
    poly_sum,
    _check_size,
    _check_degree,
    _MAX_DEGREE,
    _tally,
    _units,
)

__all__ = [
    "Letter",
    "Factorization",
    "evaluation",
    "is_valid_factorization",
    "weight",
    "enumerate_bounded_plain",
    "enumerate_circled_bounded",
    "enumerate_double_bounded",
    "enumerate_double_unbounded",
    "enumerate_plain_unbounded",
    "enumerate_hook",
    "genfun",
    "enumerate_X",
    "cauchy_sum",
    "factorization_to_str",
    "parse_factorization",
]


class Letter(NamedTuple):
    value: int
    circled: bool = False

    @property
    def rank(self) -> int:
        """Position in the interleaved order; (v) sits just below v."""
        return 2 * self.value - (1 if self.circled else 0)

    def __str__(self) -> str:
        return f"{self.value}o" if self.circled else str(self.value)


@dataclass(frozen=True, slots=True)
class Factorization:
    """
    kind is one of plain, bounded_plain, circled, circled_bounded,
    double_bounded, double_unbounded, hook; factors hold Letter tuples;
    split is the number of factors left of center for double kinds.
    """

    kind: str
    factors: tuple[tuple[Letter, ...], ...]
    n: int
    split: int | None = None

    def flat_word(self) -> tuple[int, ...]:
        return tuple(l.value for f in self.factors for l in f)

    def letter_count(self) -> int:
        return sum(len(f) for f in self.factors)

    def __str__(self) -> str:
        return factorization_to_str(self)


def evaluation(f: Factorization) -> tuple[int, ...]:
    """
    The permutation the flattened word evaluates to, in the reading
    order of the factorization's kind.
    """
    word = f.flat_word()
    if f.kind == "hook":
        return eval_hecke_word_ltr(word, f.n)
    return eval_hecke_word(word, f.n)


def _strictly_decreasing(ranks) -> bool:
    return all(a > b for a, b in zip(ranks, ranks[1:]))


_CIRCLED_KINDS = ("circled", "circled_bounded", "hook")
_BOUNDED_KINDS = ("bounded_plain", "circled_bounded", "double_bounded")
_KINDS = _CIRCLED_KINDS + _BOUNDED_KINDS + ("plain", "double_unbounded")


def is_valid_factorization(f: Factorization) -> bool:
    """
    Structural membership test for the factorization's kind; does not
    fix a target permutation (use evaluation for that).

    >>> g = parse_factorization("(3 2 2o)(3o 2 1 1o)()(1o)", "circled", 3)
    >>> is_valid_factorization(g)
    True
    >>> evaluation(g)
    (4, 1, 3, 2)
    """
    kind = f.kind
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    n = f.n
    if kind == "hook":
        if f.split is not None:
            return False  # only the double kinds have a center
        for fac in f.factors:
            if any(not 1 <= l.value <= n for l in fac):
                return False
            flags = [l.circled for l in fac]
            if flags != sorted(flags, reverse=True):
                return False  # a circled letter after an uncircled one
            circled = [l.value for l in fac if l.circled]
            plain = [l.value for l in fac if not l.circled]
            if not _strictly_decreasing(circled):
                return False
            if any(a > b for a, b in zip(plain, plain[1:])):
                return False
        return True
    # double kinds have split factors left of center, the others none
    split = 0
    if kind.startswith("double"):
        if f.split is None or len(f.factors) != 2 * f.split:
            return False
        split = f.split
    elif f.split is not None:
        return False
    bounded = kind in _BOUNDED_KINDS
    # the bounded kinds have n+1 factors on each side
    if bounded and (len(f.factors) != split + n + 1 or split not in (0, n + 1)):
        return False
    # one pass over the letters: values from 1 (for the bounded kinds,
    # from i in the i-th factor outward from center) up to n, the left
    # half strictly increasing and the right half strictly decreasing in
    # the interleaved order, and circles only where the kind has them
    circles = kind in _CIRCLED_KINDS
    bound = 1
    for k, fac in enumerate(f.factors):
        sign = -1 if k < split else 1
        if bounded:
            bound = split - k if k < split else k - split + 1
        last = 2 * n + 2  # above every signed rank
        for value, circled in fac:
            if circled and not circles:
                return False
            rank = sign * (2 * value - 1 if circled else 2 * value)
            if not (bound <= value <= n and rank < last):
                return False
            last = rank
    return True


def _slot_weight(kind: str, split: int | None, slot: int, size: int, factor) -> tuple:
    """
    The exponents one factor adds in its slot of a shape of size
    factors: (x, y), each a tuple of (index, amount) pairs.  A factor's
    weight depends only on its slot and its letters, which is what lets
    the series be summed over the search graph; weight computes the same
    exponents a whole factorization at a time, and raises the same
    ValueError for a circled letter with no y slot.
    """
    if kind in ("plain", "bounded_plain"):
        return ((slot, len(factor)),), ()
    if kind in ("double_bounded", "double_unbounded"):
        if slot < split:
            return (), ((split - 1 - slot, len(factor)),)
        return ((slot - split, len(factor)),), ()
    circled = [l.value for l in factor if l.circled]
    x = ((slot, len(factor) - len(circled)),)
    if kind == "hook":
        return x, ((slot, len(circled)),)
    if kind == "circled_bounded":
        # a circled v in factor k = slot + 1 weighs y_i with i = v - k + 1
        for v in circled:
            if not 0 <= v - slot - 1 < size:
                raise ValueError(
                    f"circled {v} in factor {slot + 1} has no y slot of {size}"
                )
        return x, tuple((v - slot - 1, 1) for v in circled)
    raise ValueError(f"no weight defined for kind {kind!r}")


class _SlotWeights(dict):
    """
    The packed weight of each factor met in one slot of one shape, made
    on first lookup: its _slot_weight packed by units, the packing rule
    of polynomials, so that adding packed weights adds exponent vectors.
    An index past the width the units pack raises ValueError.  Keyed by
    the factor, so each distinct factor is weighed once per slot.
    """

    def __init__(self, kind: str, split: int | None, slot: int, size: int, units):
        super().__init__()
        self.args = kind, split, slot, size
        self.units = units

    def __missing__(self, factor) -> int:
        xs, ys = _slot_weight(*self.args, factor)
        units = self.units
        width = len(units) // 2
        packed = 0
        for offset, pairs in ((0, xs), (width, ys)):
            for i, a in pairs:
                if not 0 <= i < width:
                    raise ValueError(f"a weight is wider than the width {width}")
                packed += a * units[offset + i]
        self[factor] = packed
        return packed


def _slot_weights(kind: str, split: int | None, size: int, units) -> list[_SlotWeights]:
    """One _SlotWeights for each slot of a shape of size factors."""
    return [_SlotWeights(kind, split, slot, size, units) for slot in range(size)]


class _ShapeWeights(dict):
    """The _slot_weights of each shape (split, number of factors) met,
    made on first lookup."""

    def __init__(self, kind: str, units):
        super().__init__()
        self.kind, self.units = kind, units

    def __missing__(self, shape: tuple[int | None, int]) -> list[_SlotWeights]:
        memos = self[shape] = _slot_weights(self.kind, *shape, self.units)
        return memos


def weight(f: Factorization) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The (x-weight, y-weight) pair of vectors for f, per its kind.  A
    circled v in factor k of a circled_bounded factorization weighs
    y_(v-k+1); one with no such slot raises ValueError.

    >>> h = parse_factorization("(3o 2o 2 3 3)(1o 2 2)(3o 2o 1 1 3 3)", "hook", 3)
    >>> weight(h)
    ((3, 2, 4), (2, 1, 2))
    """
    if f.kind in ("plain", "bounded_plain"):
        sizes = tuple(map(len, f.factors))
        return sizes, (0,) * len(sizes)
    if f.kind == "circled_bounded":
        width = len(f.factors)
        x, y = [], [0] * width
        for k, fac in enumerate(f.factors, start=1):
            plain = len(fac)
            for value, circled in fac:
                if circled:
                    plain -= 1
                    if not 0 <= value - k < width:
                        raise ValueError(
                            f"circled {value} in factor {k} has no y slot of {width}"
                        )
                    y[value - k] += 1  # slot i = value - k + 1
            x.append(plain)
        return tuple(x), tuple(y)
    if f.kind in ("double_bounded", "double_unbounded"):
        left, right = f.factors[: f.split], f.factors[f.split :]
        return tuple(map(len, right)), tuple(map(len, reversed(left)))
    if f.kind == "hook":
        x = tuple(sum(1 for l in fac if not l.circled) for fac in f.factors)
        y = tuple(sum(1 for l in fac if l.circled) for fac in f.factors)
        return x, y
    raise ValueError(f"no weight defined for kind {f.kind!r}")


# ---------------------------------------------------------------------------
# enumeration: every family is a list of FactorSpec slots for hecke_search,
# built by _family; _graph builds the family's search graph, _listed lists
# the family from it and _series sums its generating polynomial over it


def _chain_spec(letters: list[Letter]) -> FactorSpec:
    """A factor is a subsequence of the given letters, taken in order."""
    after = {letter: k + 1 for k, letter in enumerate(letters)}
    triples = [
        (letter, letter.value, len(letters) - k - 1)
        for k, letter in enumerate(letters)
    ]
    return FactorSpec(
        lambda prev, below: triples[after.get(prev, 0):], len(letters),
        reads_below=False,
    )


def _descending(bound: int, n: int, circled: bool = False) -> list[Letter]:
    """Letters n down to bound; if circled, each (v) just below v."""
    marks = (False, True) if circled else (False,)
    return [Letter(v, c) for v in range(n, bound - 1, -1) for c in marks]


def _hook_spec(n: int, budget: int) -> FactorSpec:
    """Circled strictly decreasing prefix, then weakly increasing
    uncircled multiset; the multiset part makes capacity budget-bound."""

    def candidates(prev, below):
        if prev is None or prev.circled:
            hi = n if prev is None else prev.value - 1
            for v in range(hi, 0, -1):
                yield Letter(v, True), v, budget
            lo = 1
        else:
            lo = prev.value
        for v in range(lo, n + 1):
            yield Letter(v, False), v, budget

    return FactorSpec(candidates, budget, reads_below=False)


def _family(
    kind: str, n: int, parts: int | None = None, max_letters: int | None = None
) -> tuple[list[FactorSpec], str, int | None]:
    """
    The hecke_search slots of a family over S_{n+1}, the side its words
    act on and its split: the bounded kinds have n+1 factors a side,
    double_unbounded has parts a side, plain and hook have parts.  A
    negative parts raises ValueError.
    """
    if parts is not None and parts < 0:
        raise ValueError(f"parts must be at least 0: {parts}")
    if kind in ("bounded_plain", "circled_bounded"):
        circled = kind == "circled_bounded"
        specs = [_chain_spec(_descending(i, n, circled)) for i in range(1, n + 2)]
        return specs, "right", None
    if kind == "double_bounded":
        specs = [_chain_spec(_descending(i, n)[::-1]) for i in range(n + 1, 0, -1)]
        specs += [_chain_spec(_descending(i, n)) for i in range(1, n + 2)]
        return specs, "right", n + 1
    if kind == "double_unbounded":
        specs = [_chain_spec(_descending(1, n)[::-1])] * parts
        specs += [_chain_spec(_descending(1, n))] * parts
        return specs, "right", parts
    if kind == "plain":
        return [_chain_spec(_descending(1, n))] * parts, "right", None
    if kind == "hook":
        return [_hook_spec(n, max_letters) for _ in range(parts)], "left", None
    raise ValueError(f"no family of kind {kind!r}")


# A tableaux run asks for one double_unbounded family three times: the
# series for stable_double, again inside weak_stable_double, and the list
# for phi.  So the search graphs of the last few families are kept, each
# with its series once summed.  A graph of a bounded family over S_5
# holds thousands of states, and a run over many permutations rarely
# comes back to an old one, so the bound is small.  The graph and the
# series are read-only, and a raise is never cached.
_GRAPH_CACHE_SIZE = 4


@dataclass(slots=True)
class _Kept:
    """A family's slots, split and search graph, and its series once
    _series has summed it (None before)."""

    specs: tuple[FactorSpec, ...]
    split: int | None
    graph: tuple
    series: Polynomial | None = None


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _graph(kind: str, w: tuple[int, ...], parts: int | None, max_letters: int | None):
    """The kept search graph of a family; w is a tuple."""
    specs, side, split = _family(kind, len(w) - 1, parts, max_letters)
    return _Kept(tuple(specs), split, _search_graph(w, specs, side, max_letters))


_new_factorization = Factorization.__new__
_set_kind = Factorization.kind.__set__
_set_factors = Factorization.factors.__set__
_set_n = Factorization.n.__set__
_set_split = Factorization.split.__set__


def _listed(
    kind: str, w: tuple[int, ...], parts: int | None = None, max_letters: int | None = None
) -> list[Factorization]:
    """
    The family of the given kind for w, sorted by flat word, then circle
    mask, then factor lengths.  Each path's key is one int whose fields,
    most significant first, are the flat word padded with zeros to the
    root's letter budget, one bit per position of the circle mask, and
    one field per slot for the factor lengths, each value and length
    field as wide as the family's largest needs.  Letter values are at
    least 1, so the zero padding puts a flat word below every longer
    word it begins, and the key orders like the tuple (flat word, mask,
    lengths).  A family with no circled letter has no mask field.  Keys
    are distinct, so the order in which the walk finds the paths does
    not matter.

    A state holds its slot and its letters left, so an edge fixes where
    its factor sits in the flat word and in the lengths, and its share
    of the key is made once, as one int; a path's key is the sum along
    it.  Within one graph equal factors are one object, so its id names
    the factor's own word and mask fields, made once each.  Most of the
    states a walk steps on lie on a single-path tail, with one way to
    the end.  tails maps each such state to that one completion
    (factors, key share), built from the end back: None, the end of
    every path, completes with nothing, and a state with one closing
    into a tail is a tail.  Every other state keeps its closings split
    into those that end in a tail, the completion joined on, and those
    that go on, and the depth-first walk ends a path as soon as it
    reaches a tail.  The sorted keys are then read off in order, each
    path's factors becoming a Factorization built through the slot
    setters.
    """
    w = tuple(w)
    kept = _graph(kind, w, parts, max_letters)
    closings, root = kept.graph
    distinct = {id(f): f for edges in closings.values() for f, _ in edges}
    n = len(w) - 1
    slots = len(kept.specs)
    value_bits = n.bit_length()
    length_bits = max(map(len, distinct.values()), default=0).bit_length()
    circled = any(l.circled for f in distinct.values() for l in f)
    # the budget of a real root is the number of word positions
    positions = root[3] if root else 0
    mask_at = length_bits * slots
    word_at = mask_at + (positions if circled else 0)
    # each factor's word and mask fields, its last letter lowest
    fields = {}
    for k, f in distinct.items():
        word = mask = 0
        for value, c in f:
            word = word << value_bits | value
            mask = mask << 1 | c
        fields[k] = word, mask
    # the graph lists every state after the states its closings lead to,
    # so whether those are tails is known when a state is read
    tails = {None: ((), 0)}
    edges = {}
    for state, out in closings.items():
        ends, goes = [], []
        for f, nxt in out:
            word, mask = fields[id(f)]
            # state is (slot, below, u, letters left), and the word
            # positions after f are the letters left past it
            after = state[3] - len(f)
            share = (
                (word << word_at + value_bits * after)
                + (mask << mask_at + after)
                + (len(f) << length_bits * (slots - 1 - state[0]))
            )
            tail = tails.get(nxt)
            if tail is None:
                goes.append((f, share, nxt))
            else:
                ends.append(((f, *tail[0]), share + tail[1]))
        if len(out) == 1 and ends:
            tails[state] = ends[0]
        else:
            edges[state] = ends, goes
    found = {}
    stack = []
    if root in tails:
        t_factors, t_key = tails[root]
        found[t_key] = t_factors
    else:
        stack.append(((), 0, root))
    while stack:
        factors, key, state = stack.pop()
        ends, goes = edges[state]
        for e_factors, e_key in ends:
            found[key + e_key] = factors + e_factors
        stack += [(factors + (f,), key + share, nxt) for f, share, nxt in goes]
    split = kept.split
    listed = []
    for key in sorted(found):
        f = _new_factorization(Factorization)
        _set_kind(f, kind)
        _set_factors(f, found[key])
        _set_n(f, n)
        _set_split(f, split)
        listed.append(f)
    return listed


def _series(
    kind: str,
    w: tuple[int, ...],
    parts: int | None = None,
    max_letters: int | None = None,
) -> Polynomial:
    """
    genfun of the family _listed would give, one variable per x slot,
    summed over the same search graph by _path_sum instead of listed,
    and kept beside the graph.  Each edge's weight is read from the
    _SlotWeights of its slot, as genfun reads them.  Every letter adds one to the
    total degree, so most letters bound it; most past the degree cap
    raises ValueError before any weight is packed, and an index past the
    width raises it too.  Having checked every index, the result is
    built unchecked by _tally.
    """
    kept = _graph(kind, tuple(w), parts, max_letters)
    if kept.series is not None:
        return kept.series
    specs, split = kept.specs, kept.split
    width = len(specs) if split is None else split
    most = sum(spec.size for spec in specs) if max_letters is None else max_letters
    _check_degree(most)
    memos = _slot_weights(kind, split, len(specs), _units(width))
    sums = _path_sum(kept.graph, lambda slot, factor: memos[slot][factor])
    kept.series = _tally(width, sums.items())
    return kept.series


def enumerate_bounded_plain(
    w: tuple[int, ...], max_letters: int | None = None
) -> list[Factorization]:
    """
    All bounded Hecke factorizations of w: n+1 strictly decreasing
    factors with factor i using only values >= i.  The family is finite;
    max_letters defaults to its full capacity.

    >>> [factorization_to_str(f) for f in enumerate_bounded_plain((1, 2))]
    ['()()']
    >>> [factorization_to_str(f) for f in enumerate_bounded_plain((3, 1, 2))]
    ['(2 1)()()']
    """
    return _listed("bounded_plain", w, max_letters=max_letters)


def enumerate_circled_bounded(
    w: tuple[int, ...], max_letters: int | None = None
) -> list[Factorization]:
    """
    All bounded circled Hecke factorizations of w: n+1 factors strictly
    decreasing in the interleaved order, factor i bounded below by (i).

    >>> len(enumerate_circled_bounded((3, 2, 1)))
    27
    """
    return _listed("circled_bounded", w, max_letters=max_letters)


def enumerate_double_bounded(
    w: tuple[int, ...], max_letters: int | None = None
) -> list[Factorization]:
    """
    All bounded double Hecke factorizations of w: 2n+2 factors, the
    left half strictly increasing and the right half strictly
    decreasing, with the i-th factor outward from center on each side
    bounded below by i.
    """
    return _listed("double_bounded", w, max_letters=max_letters)


def enumerate_double_unbounded(
    w: tuple[int, ...], half_parts: int, max_letters: int
) -> list[Factorization]:
    """
    All double Hecke factorizations of w with half_parts factors on each
    side of center and at most max_letters letters.

    >>> [factorization_to_str(f)
    ...  for f in enumerate_double_unbounded((2, 1), 1, 2)]
    ['()|(1)', '(1)|()', '(1)|(1)']
    """
    return _listed("double_unbounded", w, half_parts, max_letters)


def enumerate_plain_unbounded(
    w: tuple[int, ...], parts: int, max_letters: int
) -> list[Factorization]:
    """
    All plain Hecke factorizations of w into the given number of
    strictly decreasing factors, at most max_letters letters.

    >>> [factorization_to_str(f) for f in enumerate_plain_unbounded((2, 1), 2, 2)]
    ['()(1)', '(1)()', '(1)(1)']
    """
    return _listed("plain", w, parts, max_letters)


def enumerate_hook(
    w: tuple[int, ...], parts: int, max_letters: int
) -> list[Factorization]:
    """
    All hook Hecke factorizations of w into the given number of factors
    and at most max_letters letters: each factor is a strictly
    decreasing circled set followed by a weakly increasing uncircled
    multiset, and the flattened word is read leftmost letter first.

    >>> [factorization_to_str(f) for f in enumerate_hook((2, 1), 1, 2)]
    ['(1)', '(1o)', '(1 1)', '(1o 1)']
    """
    return _listed("hook", w, parts, max_letters)


def genfun(factorizations, m: int | None = None) -> Polynomial:
    """
    The generating polynomial: the sum of x^(x-weight) y^(y-weight)
    over the given factorizations, which must share kind.  Each weight
    is padded to the width, m or else that of the first item's weight,
    and one wider than the width raises ValueError.  An empty family
    carries no width, so it raises ValueError unless m is given.

    >>> from grothpoly.polynomials import pretty
    >>> pretty(genfun(enumerate_bounded_plain((3, 1, 2))))
    'x1^2'
    """
    items = list(factorizations)
    if m is not None:
        _check_size(m)  # before m sizes the packing
    if not items:
        if m is None:
            raise ValueError("an empty family needs its width m")
        return constant(0, m)
    kinds = {f.kind for f in items}
    if len(kinds) > 1:
        raise ValueError(f"mixed kinds {sorted(kinds)}")
    kind = items[0].kind
    first_x, first_y = weight(items[0])
    width = max(len(first_x), len(first_y)) if m is None else m
    # tally the packed weights: each item's is the sum of its factors'
    # slot weights, read from the slot memos of its own shape (split and
    # number of factors), so that items of mixed shapes pad each by its
    # own split and weights that pad to one key add up
    shapes = _ShapeWeights(kind, _units(width))
    keys = [
        sum(map(getitem, shapes[f.split, len(f.factors)], f.factors)) for f in items
    ]
    # each letter adds one to the total degree, so the longest factor met
    # in each slot bounds it; only past the cap is every item counted
    most = max(sum(max(map(len, memo)) for memo in memos) for memos in shapes.values())
    if most > _MAX_DEGREE:
        _check_degree(max(map(Factorization.letter_count, items)))
    return _tally(width, Counter(keys).items())


def enumerate_X(w: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """
    All pairs (u, v) whose Demazure product is w.

    The Demazure product of u and v is u acted on from the right by a
    word for v, and v acted on from the left by a word for u.  Each
    action only climbs its weak order, so u lies below w in right weak
    order and v below w in left weak order: the candidates are the keys
    of the two hecke_distance tables of w, not all of the symmetric
    group.  Each u is acted on by the letters of lex_min_reduced_word(v),
    the word of each v made once.

    >>> enumerate_X((2, 1))
    [((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 1), (2, 1))]
    """
    w = tuple(w)
    below_right = hecke_distance(w, "right")
    words = [(v, lex_min_reduced_word(v)) for v in hecke_distance(w, "left")]
    pairs = []
    for u in below_right:
        for v, word in words:
            p = u
            for i in word:
                p = hecke_apply_right(p, i)
            if p == w:
                pairs.append((u, v))
    return sorted(pairs)


def cauchy_sum(w: tuple[int, ...]) -> Polynomial:
    """
    The convolution over pairs with Demazure product w of the single
    polynomial of u^-1 in the y variables times that of v in the x
    variables.  Each single polynomial, of a u^-1 or of a v, is computed
    once, and the pairs are grouped by u: one product of G_{u^-1}(y)
    with the sum of its G_v(x).

    >>> from grothpoly.polynomials import pretty
    >>> pretty(cauchy_sum((1, 2)))
    '1'
    """
    m = len(w)
    partners: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for u, v in enumerate_X(w):
        partners.setdefault(inverse(u), []).append(v)
    needed = set(partners).union(*partners.values())
    singles = {p: grothendieck_single(p) for p in needed}
    products = (
        exchange_families(singles[u_inv]) * poly_sum(m, (singles[v] for v in vs))
        for u_inv, vs in partners.items()
    )
    return poly_sum(m, products)


def factorization_to_str(f: Factorization) -> str:
    """ASCII form: circles become an "o" suffix, factors sit in
    parentheses, and double kinds mark the center with "|"."""
    chunks = []
    for idx, fac in enumerate(f.factors):
        if f.split is not None and idx == f.split:
            chunks.append("|")
        chunks.append("(" + " ".join(str(l) for l in fac) + ")")
    return "".join(chunks)


_LETTER_RE = re.compile(r"(\d+)(o?)")
_FACTOR_RE = re.compile(r"\(([^()]*)\)")


def parse_factorization(text: str, kind: str, n: int) -> Factorization:
    """
    Parse the ASCII form back into a Factorization; "|" fixes the split
    for double kinds, otherwise the split is the midpoint when needed.
    A "|" in any other kind raises ValueError.

    >>> parse_factorization("()(3)|(3 1)()", "double_unbounded", 3).split
    2
    """
    stray = _FACTOR_RE.sub("", text).replace("|", "", 1) + "".join(
        _LETTER_RE.sub("", body) for body in _FACTOR_RE.findall(text)
    )
    if stray.strip():
        raise ValueError(f"cannot parse factorization from {text!r}")
    split = None
    if "|" in text:
        if not kind.startswith("double"):
            raise ValueError(f"only double kinds have a center: {text!r}")
        before, _ = text.split("|", maxsplit=1)
        split = len(_FACTOR_RE.findall(before))
    elif kind.startswith("double"):
        split = len(_FACTOR_RE.findall(text)) // 2
    factors = []
    for body in _FACTOR_RE.findall(text):
        factors.append(
            tuple(
                Letter(int(v), bool(circle))
                for v, circle in _LETTER_RE.findall(body)
            )
        )
    return Factorization(kind, tuple(factors), n, split)
