"""
Reference computations the benchmark checks grothpoly's results against.

Nothing here imports grothpoly.  A polynomial is a plain dict mapping a
pair of exponent tuples (x exponents, y exponents) to a nonzero integer,
the same key layout as ``Polynomial.terms``, so results compare with
``==`` on the dicts.  Permutations are one-line tuples.
"""

from __future__ import annotations


def length(w: tuple[int, ...]) -> int:
    """Coxeter length: the number of inversions."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[val - 1] = pos
    return tuple(out)


def hecke_act(u: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The 0-Hecke generator i on values: i and i+1 trade places when i
    stands left of i+1, otherwise u is unchanged."""
    a, b = u.index(i), u.index(i + 1)
    if a > b:
        return u
    out = list(u)
    out[a], out[b] = i + 1, i
    return tuple(out)


def evaluate(word, size: int, rightmost_first: bool) -> tuple[int, ...]:
    """Evaluate a word in the 0-Hecke generators on {1..size}."""
    u = tuple(range(1, size + 1))
    for i in reversed(word) if rightmost_first else word:
        u = hecke_act(u, i)
    return u


def degree(key) -> int:
    return sum(key[0]) + sum(key[1])


def _multiply(f: dict, g: dict) -> dict:
    out: dict = {}
    for (fx, fy), a in f.items():
        for (gx, gy), b in g.items():
            key = (
                tuple(p + q for p, q in zip(fx, gx)),
                tuple(p + q for p, q in zip(fy, gy)),
            )
            out[key] = out.get(key, 0) + a * b
    return {k: c for k, c in out.items() if c}


def _divided_difference(f: dict, i: int) -> dict:
    """(f - s_i f) / (x_i - x_{i+1}), term by term: x_i^p x_{i+1}^q
    with p > q gives the sum of x_i^t x_{i+1}^(p+q-1-t) for q <= t < p,
    and with p < q the negative of the mirrored sum."""
    out: dict = {}
    for (xs, ys), c in f.items():
        p, q = xs[i - 1], xs[i]
        sign = 1 if p > q else -1
        for t in range(min(p, q), max(p, q)):
            x = list(xs)
            x[i - 1], x[i] = t, p + q - 1 - t
            key = (tuple(x), ys)
            out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _strip_left_descents(v: tuple[int, ...]) -> list[int]:
    """A reduced word a_1..a_k with v = s_{a_1} ... s_{a_k}."""
    word = []
    while True:
        i = next(
            (i for i in range(1, len(v)) if v.index(i) > v.index(i + 1)), None
        )
        if i is None:
            return word
        word.append(i)
        v = tuple(i + 1 if x == i else i if x == i + 1 else x for x in v)


def double_schubert(w: tuple[int, ...]) -> dict:
    """
    The double Schubert polynomial of w: the divided differences along
    a reduced word of w^-1 w0 applied to the product of x_i + y_j over
    i + j <= n+1, in n+1 variables per family.
    """
    size = len(w)
    zero = (0,) * size
    f = {(zero, zero): 1}
    for i in range(1, size):
        for j in range(1, size + 1 - i):
            x = tuple(1 if k == i - 1 else 0 for k in range(size))
            y = tuple(1 if k == j - 1 else 0 for k in range(size))
            f = _multiply(f, {(x, zero): 1, (zero, y): 1})
    w_inv = inverse(w)
    v = tuple(w_inv[size - k] for k in range(1, size + 1))
    for i in reversed(_strip_left_descents(v)):
        f = _divided_difference(f, i)
    return f


def is_symmetric(terms: dict, m: int) -> bool:
    """Whether swapping x_i, x_{i+1}, or y_i, y_{i+1}, fixes the terms."""
    for i in range(m - 1):
        for side in (0, 1):
            swapped = {}
            for key, c in terms.items():
                exps = list(key[side])
                exps[i], exps[i + 1] = exps[i + 1], exps[i]
                new = (tuple(exps), key[1]) if side == 0 else (key[0], tuple(exps))
                swapped[new] = c
            if swapped != terms:
                return False
    return True


def strip(vector) -> tuple[int, ...]:
    v = tuple(vector)
    while v and v[-1] == 0:
        v = v[:-1]
    return v


def circled_weight(factors, size: int):
    """(x, y) weight of a bounded circled factorization: factor k adds
    its uncircled letters to x_k and a circled v to y_{v-k+1}."""
    x, y = [0] * size, [0] * size
    for k, factor in enumerate(factors, start=1):
        for letter in factor:
            if letter.circled:
                y[letter.value - k] += 1
            else:
                x[k - 1] += 1
    return tuple(x), tuple(y)


def double_weight(factors, split: int):
    """(x, y) weight of a two-sided factorization: x from the factor
    sizes right of center, y from those left of it, read outward."""
    left, right = factors[:split], factors[split:]
    return (
        tuple(len(f) for f in right),
        tuple(len(f) for f in reversed(left)),
    )


def is_bounded_double(f, w: tuple[int, ...]) -> bool:
    """Membership in the bounded two-sided family of w: 2n+2 uncircled
    factors, increasing left of center and decreasing right of it, the
    i-th factor outward on either side using only letters >= i, and the
    word evaluating to w rightmost letter first."""
    n = len(w) - 1
    if f.split != n + 1 or len(f.factors) != 2 * (n + 1):
        return False
    letters = [l for factor in f.factors for l in factor]
    if any(l.circled or not 1 <= l.value <= n for l in letters):
        return False
    for i in range(1, n + 2):
        inner_left = [l.value for l in f.factors[n + 1 - i]]
        inner_right = [l.value for l in f.factors[n + i]]
        if any(a >= b for a, b in zip(inner_left, inner_left[1:])):
            return False
        if any(a <= b for a, b in zip(inner_right, inner_right[1:])):
            return False
        if min(inner_left + inner_right, default=i) < i:
            return False
    return evaluate([l.value for l in letters], n + 1, True) == w


def tableau_weight(T):
    """(x, y) weight of a tableau: unprimed entries count in x, primed in y."""
    entries = [e for row in T.rows for box in row for e in box]
    width = max((e.value for e in entries), default=0)
    x, y = [0] * width, [0] * width
    for e in entries:
        (y if e.primed else x)[e.value - 1] += 1
    return strip(x), strip(y)


def reading_word(T) -> list[int]:
    """Row reading word of a tableau with one entry per box: bottom row
    first, left to right."""
    return [box[0].value for row in reversed(T.rows) for box in row]


def strict_partitions(d: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if d == 0:
        return [()]
    top = d if largest is None else min(d, largest)
    return [
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in strict_partitions(d - first, first - 1)
    ]
