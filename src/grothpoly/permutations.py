"""
Permutations in one-line notation and the 0-Hecke monoid acting on them.

A permutation of {1, ..., n+1} is stored as a tuple of length n+1.  The
0-Hecke generator for index i (1 <= i <= n) exchanges the *values* i and
i+1 when i sits at a smaller position than i+1, and does nothing
otherwise; unlike the simple transpositions these operators are
idempotent.  A word in the generators evaluates to a permutation by
applying its letters rightmost first:

>>> eval_hecke_word((3, 2, 3, 2, 1, 1), 3)
(4, 1, 3, 2)

Words may be longer than reduced words; two words are Hecke equivalent
when they evaluate to the same permutation.
"""

from functools import lru_cache
from itertools import permutations as _itertools_permutations
from types import MappingProxyType
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "identity",
    "all_permutations",
    "compose",
    "inverse",
    "inversions",
    "hecke_apply",
    "hecke_apply_right",
    "eval_hecke_word",
    "eval_hecke_word_ltr",
    "hecke_distance",
    "FactorSpec",
    "hecke_search",
    "reduced_words",
    "lex_min_reduced_word",
    "perm_to_str",
    "perm_from_str",
]


def identity(size: int) -> tuple[int, ...]:
    """The identity permutation of {1, ..., size}."""
    return tuple(range(1, size + 1))


def all_permutations(size: int) -> list[tuple[int, ...]]:
    """All permutations of {1, ..., size} in lexicographic order."""
    return [tuple(p) for p in _itertools_permutations(range(1, size + 1))]


def check_permutation(p: tuple[int, ...]) -> None:
    """Raise ValueError unless p is a permutation of {1, ..., len(p)}."""
    if len(p) < 1 or sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p!r}")


def compose(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """
    Functional composition (u o v)(i) = u(v(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return tuple(u[x - 1] for x in v)


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    """
    The inverse permutation.

    >>> inverse((4, 1, 3, 2))
    (2, 4, 3, 1)
    """
    inv = [0] * len(p)
    for pos, val in enumerate(p, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def inversions(p: tuple[int, ...]) -> int:
    """
    Number of pairs i < j with p(i) > p(j); the Coxeter length of p.

    >>> inversions((4, 1, 3, 2))
    4
    """
    return sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )


def hecke_apply(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """
    Act on p by the 0-Hecke generator for index i.

    The values i and i+1 are interchanged if i lies to the left of i+1
    in p; otherwise p is returned unchanged.  Applying twice is the same
    as applying once.

    >>> hecke_apply((1, 2), 1)
    (2, 1)
    >>> hecke_apply((2, 1), 1)
    (2, 1)
    >>> hecke_apply((1, 3, 2, 4), 3)
    (1, 4, 2, 3)
    """
    if not 1 <= i <= len(p) - 1:
        raise ValueError(f"generator index {i} out of range 1..{len(p) - 1}")
    a, b = p.index(i), p.index(i + 1)
    if a < b:
        q = list(p)
        q[a], q[b] = i + 1, i
        return tuple(q)
    return p


def hecke_apply_right(p: tuple[int, ...], i: int) -> tuple[int, ...]:
    """
    Act on p by the 0-Hecke generator on the right (position side).

    The entries at positions i and i+1 are exchanged if they increase;
    otherwise p is returned unchanged.  This is the mirror of
    hecke_apply: acting on inverse(p) by hecke_apply(i) and inverting
    again gives the same result.

    >>> hecke_apply_right((1, 2, 3), 2)
    (1, 3, 2)
    >>> hecke_apply_right((1, 3, 2), 2)
    (1, 3, 2)
    """
    if not 1 <= i <= len(p) - 1:
        raise ValueError(f"generator index {i} out of range 1..{len(p) - 1}")
    if p[i - 1] < p[i]:
        return p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]
    return p


def eval_hecke_word(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """
    Evaluate a word in the generators 1..n, rightmost letter first.

    Starting from the identity arrangement of {1, ..., n+1}, the letters
    of the word are applied via hecke_apply from the right end of the
    word to the left end.

    >>> eval_hecke_word((3, 2, 3, 2, 1, 1), 3)
    (4, 1, 3, 2)
    >>> eval_hecke_word((), 3)
    (1, 2, 3, 4)
    """
    p = identity(n + 1)
    for i in reversed(word):
        p = hecke_apply(p, i)
    return p


def eval_hecke_word_ltr(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    """
    Evaluate a word applying its letters leftmost first.

    This is the opposite reading order to eval_hecke_word; the two
    evaluations of the same word are inverse permutations of each other.

    >>> eval_hecke_word_ltr((1, 2), 2)
    (3, 1, 2)
    >>> eval_hecke_word((1, 2), 2)
    (2, 3, 1)
    """
    p = identity(n + 1)
    for i in word:
        p = hecke_apply(p, i)
    return p


@lru_cache(maxsize=None)
def reduced_words(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """
    All words of length exactly inversions(p) evaluating to p,
    lexicographically sorted.

    >>> reduced_words((1, 2, 3))
    ((),)
    >>> reduced_words((3, 2, 1))
    ((1, 2, 1), (2, 1, 2))
    >>> reduced_words((2, 1, 3))
    ((1,),)
    """
    check_permutation(p)
    if p == identity(len(p)):
        return ((),)
    words = set()
    for i in range(1, len(p)):
        if p[i - 1] > p[i]:
            shorter = p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]
            for w in reduced_words(shorter):
                words.add(w + (i,))
    return tuple(sorted(words))


def lex_min_reduced_word(p: tuple[int, ...]) -> tuple[int, ...]:
    """
    The lexicographically smallest reduced word, built greedily: the
    leading letter is the smallest left descent.

    >>> lex_min_reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> lex_min_reduced_word((1, 2, 3))
    ()
    """
    check_permutation(p)
    word = []
    q = p
    ident = identity(len(p))
    while q != ident:
        for i in range(1, len(q)):
            if q.index(i) > q.index(i + 1):  # left descent: i after i+1
                swap = {i: i + 1, i + 1: i}
                q = tuple(swap.get(v, v) for v in q)
                word.append(i)
                break
    return tuple(word)


def hecke_distance(
    target: tuple[int, ...], side: str = "right"
) -> dict[tuple[int, ...], int]:
    """
    For every permutation u of the same size, the least number of
    generators that must still be applied to u (on the given side) to
    reach target; permutations that cannot reach it are absent.  Used
    to prune dead branches during word and factorization enumeration.

    A generator acting on the right either fixes u or lengthens it by
    one step in right weak order, so the permutations that reach target
    form the lower interval [e, target] of that order, and u lies
    inversions(target) - inversions(u) steps below it.  Breadth-first
    search therefore walks down from target, swapping adjacent positions
    that hold a decrease, and visits only that interval.  The left
    action is the right action conjugated by inverse (see
    hecke_apply_right), so its table is the right table of
    inverse(target) with every key inverted: the lower interval of left
    weak order.  A side other than "right" or "left" raises ValueError.

    >>> hecke_distance((2, 1))[(1, 2)]
    1
    >>> hecke_distance((2, 1))[(2, 1)]
    0
    >>> sorted(hecke_distance((2, 3, 1), "left").items())
    [((1, 2, 3), 2), ((1, 3, 2), 1), ((2, 3, 1), 0)]
    """
    target = tuple(target)
    check_permutation(target)
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left': {side!r}")
    mirrored = side == "left"
    top = inverse(target) if mirrored else target
    dist = {top: 0}
    frontier = [top]
    while frontier:
        below = []
        for v in frontier:
            for i in range(1, len(v)):
                if v[i - 1] > v[i]:
                    u = v[: i - 1] + (v[i], v[i - 1]) + v[i + 1 :]
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        below.append(u)
        frontier = below
    if mirrored:
        return {inverse(u): d for u, d in dist.items()}
    return dist


# ---------------------------------------------------------------------------
# the pruned Hecke search
#
# Factorizations and Hecke tableaux are both found the same way: factor
# by factor, letter by letter, carrying the evaluation of the prefix as
# a permutation.  A branch survives only while the prefix can still be
# completed to the target within both the letter budget and the
# residual capacity of the remaining factor slots, measured by the
# hecke_distance table, so the search never walks a dead subtree.
#
# What a slot may hold next depends only on the state (slot index, the
# factor closed just before, the permutation reached, the letters left),
# and many prefixes reach the same state; a slot whose spec does not read
# the factor before it keys its states without that factor, which merges
# states with equal closings.  So the search is a graph: each state is
# expanded once, into its live closings, and two readers walk its edges.
# hecke_search lists every path depth first; the private _path_sum adds
# up the weights of all paths with one memo per state, the
# transfer-matrix method (Stanley, Enumerative Combinatorics I, 4.7),
# without listing them.
#
# The search never leaves the interval of hecke_distance: a generator
# moves a permutation up or fixes it, and the interval is a lower set.
# So _interval numbers its permutations once per search, with one more
# number for everything outside it, and a state holds that number.  A
# letter is then two list lookups, the number it steps to and that
# number's distance, with no permutation built or hashed.


class FactorSpec(NamedTuple):
    """One factor slot of hecke_search.  candidates(prev, below) yields a
    (letter, generator, room) triple for each letter that may follow prev
    (None at the factor's start), given below, the factor finished just
    before: generator is an index 1..n of S_{n+1}, and room bounds how
    many more letters the factor can take after it.  size bounds the
    factor's length, least(below) is its fewest.  reads_below says
    whether candidates or least reads below; a spec that reads neither
    sets it False, so that states differing only in below are one state
    of the search."""

    candidates: Callable[[Any, tuple], Iterable[tuple[Any, int, int]]]
    size: int
    least: Callable[[tuple], int] = lambda below: 0
    reads_below: bool = True


class _Interval(NamedTuple):
    """The permutations that reach a target, numbered: index maps each
    to its number, step[u][g] is the number generator g takes number u
    to (len(index), the one number outside, where it leaves the
    interval), and need[u] is the distance of number u to the target,
    far for the outside number.  Every step row holds None at 0, so that
    generator g is read at step[u][g]."""

    index: dict
    step: list
    need: list


def _interval(target, dist, side, far) -> _Interval:
    """The interval dist of hecke_distance(target, side) as an
    _Interval, every step computed up front: one application of each
    generator to each permutation of the interval."""
    apply_fn = hecke_apply_right if side == "right" else hecke_apply
    index = {u: k for k, u in enumerate(dist)}
    outside = len(index)
    generators = range(1, len(target))
    step = [
        [None, *[index.get(apply_fn(u, g), outside) for g in generators]]
        for u in dist
    ]
    step.append([None] + [outside] * len(generators))
    return _Interval(index, step, [*dist.values(), far])


class _Closings(dict):
    """The live closings of each search state (idx, below, u, budget),
    expanded on first lookup: a tuple of every (factor, next state) that
    closes slot idx, in search order, where next is None after the last
    slot.  u is the number of the permutation reached in the _Interval
    of the search, and below is () when spec idx does not read it.  An
    edge is kept only if its next state has closings of its own.  A
    generator outside 1..n raises ValueError.  A dict with __missing__
    rather than a recursive closure, which would be a reference cycle:
    _search_graph copies out the states and drops it."""

    def __init__(self, specs, interval: _Interval):
        super().__init__()
        self.specs = specs
        self.step = interval.step
        self.need = interval.need
        self.width = len(interval.step[0])  # n + 1, past the last generator
        self.tail = [sum(s.size for s in specs[i:]) for i in range(len(specs) + 1)]
        self.share = {}.setdefault

    def __missing__(self, state):
        idx, below, u, budget = state
        spec, step, need, width = self.specs[idx], self.step, self.need, self.width
        rest = self.tail[idx + 1]
        last = idx + 1 == len(self.specs)
        keyed = not last and self.specs[idx + 1].reads_below
        least = spec.least(below)
        edges = []
        # grow the factor letter by letter, depth first, shortest first
        stack = [((), None, u, budget)]
        while stack:
            letters, prev, u, left = stack.pop()
            d = need[u]
            if len(letters) >= least and d <= rest and d <= left:
                factor = self.share(letters, letters)
                if last:
                    edges.append((factor, None))
                else:
                    nxt = (idx + 1, factor if keyed else (), u, left)
                    if self[nxt]:
                        edges.append((factor, nxt))
            if left:
                row = step[u]
                grown = []
                for letter, generator, room in spec.candidates(prev, below):
                    if not 0 < generator < width:
                        raise ValueError(
                            f"generator {generator} out of range 1..{width - 1}"
                        )
                    u2 = row[generator]
                    d = need[u2]
                    if d < left and d <= room + rest:
                        grown.append((letters + (letter,), letter, u2, left - 1))
                stack.extend(reversed(grown))
        self[state] = edges = tuple(edges)
        return edges


def _search_graph(target, specs, side, max_letters):
    """
    The whole search graph of hecke_search, as (closings, root): a
    read-only map from every state reached to its tuple of closings, and
    the state the search starts from.  A path ends where an edge leads
    to None; with no slots the root is None when target is the identity
    (one empty tuple of factors) and a state with no closings otherwise.
    The map lists every state after the states its closings lead to.
    Nothing in it can be changed, so a caller may keep it and read it
    again.
    """
    target = tuple(target)
    dist = hecke_distance(target, side)
    if max_letters is None:
        max_letters = sum(spec.size for spec in specs)
    if max_letters < 0:
        raise ValueError(f"max_letters must be at least 0: {max_letters}")
    if not specs:
        root = None if target == identity(len(target)) else ()
        return MappingProxyType({(): ()}), root
    interval = _interval(target, dist, side, max_letters + 1)
    table = _Closings(specs, interval)
    root = (0, (), interval.index[identity(len(target))], max_letters)
    table[root]
    return MappingProxyType(dict(table)), root


def _tuples(graph) -> list[tuple[tuple, ...]]:
    """Every path of a search graph as its tuple of factors, depth first
    in search order."""
    closings, root = graph
    out: list[tuple[tuple, ...]] = []
    stack = [((), root)]
    while stack:
        factors, state = stack.pop()
        if state is None:
            out.append(factors)
        else:
            edges = reversed(closings[state])
            stack.extend([(factors + (f,), nxt) for f, nxt in edges])
    return out


def hecke_search(
    target: tuple[int, ...],
    specs: list[FactorSpec],
    side: str,
    max_letters: int | None = None,
) -> list[tuple[tuple, ...]]:
    """
    Every tuple of factors, one per spec, with at most max_letters
    letters in all (default: the sum of the sizes), whose generators,
    applied in order on the given side, take the identity to target.
    The tuples come in search order, and equal factors within one
    search are one tuple object.  A negative max_letters or a side
    other than "right" or "left" raises ValueError.

    Each state of the search (slot, factor closed before it, permutation
    reached, letters left) is expanded once into its live closings; a
    depth-first walk then follows those edges to list the tuples.

    >>> letters = [(i, i, 3) for i in (1, 2)]
    >>> spec = FactorSpec(lambda prev, below: letters, 3)
    >>> hecke_search((3, 2, 1), [spec], "right")
    [((1, 2, 1),), ((2, 1, 2),)]
    """
    return _tuples(_search_graph(target, specs, side, max_letters))


class _PathSums(dict):
    """The path sum of each search state, computed on first lookup from
    the sums of the states its closings lead to; None, the end of every
    path, sums to {0: 1}.  Like _Closings, a dict with __missing__,
    dropped when the call returns."""

    def __init__(self, closings, weigh):
        super().__init__({None: {0: 1}})
        self.closings = closings
        self.weigh = weigh

    def __missing__(self, state):
        out: dict[int, int] = {}
        for factor, nxt in self.closings[state]:
            w = self.weigh(state[0], factor)
            for key, c in self[nxt].items():
                key += w
                out[key] = out.get(key, 0) + c
        self[state] = out
        return out


def _path_sum(graph, weigh) -> dict[int, int]:
    """
    The paths of a search graph, counted by weight: a map from each
    total weight to the number of the tuples hecke_search would list
    that have it.  A tuple's weight is the sum of weigh(slot, factor)
    over its factors, so the sum is read off the graph, one memo per
    state, without listing a tuple:

        P(state) = sum over the closings (factor, next) of state of
                   weigh(slot, factor) added to each weight of P(next),

    with P(None) = {0: 1} at the end of a path.  weigh returns an int; a
    packed exponent vector adds fieldwise as long as no field overflows.

    >>> letters = [(i, i, 3) for i in (1, 2)]
    >>> spec = FactorSpec(lambda prev, below: letters, 3)
    >>> graph = _search_graph((3, 2, 1), [spec], "right", None)
    >>> _path_sum(graph, lambda slot, factor: len(factor))
    {3: 2}
    """
    closings, root = graph
    return _PathSums(closings, weigh)[root]


def perm_to_str(p: tuple[int, ...]) -> str:
    """One-line notation, comma separated: (4,1,3,2) -> "4,1,3,2"."""
    return ",".join(str(v) for v in p)


def perm_from_str(text: str) -> tuple[int, ...]:
    """
    Parse comma-separated one-line notation.

    >>> perm_from_str("4,1,3,2")
    (4, 1, 3, 2)
    """
    try:
        p = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse permutation from {text!r}") from exc
    check_permutation(p)
    return p
