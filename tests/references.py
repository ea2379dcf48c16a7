"""Independent references that the tests compare the library against,
kept apart from the code they check."""

from grothpoly.insertion import insert_row
from grothpoly.tableaux import Entry, Tableau


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
