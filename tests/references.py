"""Independent references that the tests compare the library against,
kept apart from the code they check."""

from grothpoly.insertion import insert_row
from grothpoly.permutations import hecke_apply_right, lex_min_reduced_word
from grothpoly.stable import schur
from grothpoly.tableaux import (
    Entry,
    Tableau,
    _boxes_of,
    _fill,
    _lattice,
    _ordered,
    _psmt_choices,
    _single_values,
    _starts_unprimed,
    _top_down_scan,
    check_partition,
    weight_of,
)


def support(p):
    """
    The set of generator indices that occur in every Hecke word for p.

    Index r is in the support exactly when some inversion of p straddles
    it, i.e. p(i) > p(j) for some i <= r < j: without the letter r no
    word can move a value across that boundary, and any word for p must
    create such an inversion.
    """
    return frozenset(r for r in range(1, len(p)) if max(p[:r]) > min(p[r:]))


def insert_by_rows(p_rows, q_rows, letters):
    """
    Hecke insertion with nothing cached, built on insert_row alone.

    p_rows are the rows of P as tuples of ints, q_rows those of Q as
    sequences of boxes (tuples of entries); neither is changed.  Each
    (letter, label) of letters walks down P one insert_row call per
    row.  Where it lands in a new box, Q gets a new box holding the
    label; where it disappears in row r, the label joins the lowest box
    of the column under the last box of row r.  Returns the new rows of
    P and of Q, as lists.
    """
    P = list(p_rows)
    Q = [list(row) for row in q_rows]
    for a, label in letters:
        r = 0
        while True:
            above = P[r - 1] if r else None
            row = P[r] if r < len(P) else ()
            new_row, outcome, bumped = insert_row(above, row, a)
            if outcome == "bumped":
                P[r] = new_row
                r, a = r + 1, bumped
                continue
            if outcome == "appended":
                if r == len(P):
                    P.append(())
                    Q.append([])
                P[r] = new_row
                Q[r].append((label,))
            else:
                c = len(row) - 1
                while r + 1 < len(P) and len(P[r + 1]) > c:
                    r += 1
                Q[r][c] += (label,)
            break
    return P, Q


def _as_pair(P, Q):
    return (
        Tableau(tuple(tuple((Entry(v),) for v in row) for row in P)),
        Tableau(tuple(tuple(row) for row in Q)),
    )


def insert_word_by_rows(word):
    """The pair (P, Q) of insert_word, by insert_by_rows."""
    letters = [(a, Entry(step)) for step, a in enumerate(word, start=1)]
    return _as_pair(*insert_by_rows((), (), letters))


def _columns(rows):
    return [
        tuple(row[c] for row in rows if c < len(row))
        for c in range(len(rows[0]) if rows else 0)
    ]


def phi_by_rows(f):
    """The pair (P, Q) of phi, by insert_by_rows: the left half goes in
    reversed (factor order and letters) labelled by factor, the pair is
    transposed with those labels primed, and right factor i goes in
    labelled i."""
    left, right = f.factors[: f.split], f.factors[f.split :]
    P, Q = insert_by_rows((), (), [
        (letter.value, Entry(i))
        for i, fac in enumerate(reversed(left), start=1)
        for letter in reversed(fac)
    ])
    Q = [
        tuple(tuple(Entry(e.value, True) for e in box) for box in col)
        for col in _columns(Q)
    ]
    P, Q = insert_by_rows(_columns(P), Q, [
        (letter.value, Entry(i))
        for i, fac in enumerate(right, start=1)
        for letter in fac
    ])
    return _as_pair(P, Q)


def longest_element(size: int) -> tuple[int, ...]:
    """The longest permutation (size, size-1, ..., 1)."""
    return tuple(range(size, 0, -1))


def demazure_product(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """
    The permutation represented by concatenating words for u and v.

    Computed by folding a reduced word of v into u one letter at a time;
    the result does not depend on which words are chosen.

    >>> demazure_product((2, 1), (2, 1))
    (2, 1)
    >>> demazure_product((1, 3, 2), (2, 1, 3))
    (3, 1, 2)
    """
    if len(u) != len(v):
        raise ValueError("size mismatch")
    p = u
    for i in lex_min_reduced_word(v):
        p = hecke_apply_right(p, i)
    return p


def word_to_str(word: tuple[int, ...], n: int) -> str:
    """Digit string when the alphabet fits (n <= 9), else comma separated."""
    if n <= 9:
        return "".join(str(i) for i in word)
    return ",".join(str(i) for i in word)


def word_from_str(text: str) -> tuple[int, ...]:
    """
    Parse a word either as a digit string or comma separated; a letter
    below 1 names no generator and raises ValueError.

    >>> word_from_str("3232")
    (3, 2, 3, 2)
    >>> word_from_str("10,2")
    (10, 2)
    """
    if not text:
        return ()
    word = tuple(int(tok) for tok in (text.split(",") if "," in text else text))
    if any(i < 1 for i in word):
        raise ValueError(f"letters must be positive: {text!r}")
    return word


def is_oft(T: Tableau, inner: tuple[int, ...]) -> bool:
    """Over flagged: skew over the given inner shape, row r entries at
    most inner[r], rows weakly decreasing, columns strictly decreasing."""
    check_partition(inner)
    return (
        tuple(T.inner) == tuple(inner)
        and len(T.rows) == len(inner)
        and _ordered(
            T, lambda e: -e.value, row_strict=False, col_strict=True, skew=True
        )
        and _single_values(T, inner)
    )


def filled_tableau(shape, filled):
    """The straight tableau of the shape whose box (r, c) holds
    filled[(r, c)]."""
    return Tableau(tuple(
        tuple(filled[(r, c)] for c in range(length))
        for r, length in enumerate(shape)
    ))


def pt_fillings(shape, max_value):
    """All primed tableaux of the shape with values <= max_value, in the
    order the box filler meets them."""
    boxes = _boxes_of(shape)
    out = []

    def leaf(filled):
        out.append(filled_tableau(shape, filled))

    _fill(boxes, len(boxes), _psmt_choices(max_value), leaf)
    return out


def f_tally_full_alphabet(mu):
    """
    The primed-tableau tally of shape mu as the library made it when its
    fill offered every value up to |mu|, with nothing cached: the
    qualifying fillings counted by combined weight, in the order the
    fill first meets each weight.  The shorter alphabet of
    tableaux._f_tally must give the same tuple.
    """
    cap = max(sum(mu), 1)
    values = range(1, cap + 1)
    fill_choices = _psmt_choices(cap)

    def choices(r, c, filled, room, used):
        if c == 0 and r > 0:
            top = [[filled[(q, k)] for k in range(mu[q])] for q in range(r)]
            if any(_top_down_scan(top, i) is None for i in values[1:]):
                return ()
        return fill_choices(r, c, filled, room, used)

    counts: dict[tuple[int, ...], int] = {}

    def leaf(filled):
        T = filled_tableau(mu, filled)  # valid by construction: scan unchecked
        if not all(_starts_unprimed(T, i) and _lattice(T, i) for i in values):
            return
        x, y = weight_of(T)
        combined = tuple(a + b for a, b in zip(x, y))
        while combined and combined[-1] == 0:
            combined = combined[:-1]
        if any(a <= b for a, b in zip(combined, combined[1:])):
            raise RuntimeError(
                f"weight {combined} of a qualifying tableau is not strict: "
                f"{T}"
            )
        counts[combined] = counts.get(combined, 0) + 1

    _fill(_boxes_of(mu), sum(mu), choices, leaf)
    return tuple(counts.items())


def eliminate_by_tuples(component, m):
    """
    A homogeneous symmetric component, a map from x-exponent tuples to
    coefficients, in Schur coordinates by leading-term subtraction on
    the tuples: the leading monomial is the largest tuple, the dominant
    arrangement of its partition, and a lead that is not a partition
    raises ValueError.
    """
    component = {k: c for k, c in component.items() if c}
    out = {}
    while component:
        lead = max(component)
        if any(a < b for a, b in zip(lead, lead[1:])):
            raise ValueError(f"not symmetric: stray monomial {lead}")
        lam = tuple(e for e in lead if e)
        c = out[lam] = component[lead]
        for (exps, _), sc in schur(lam, m).terms.items():
            left = component.get(exps, 0) - c * sc
            if left:
                component[exps] = left
            else:
                del component[exps]
    return out
