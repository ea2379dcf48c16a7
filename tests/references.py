"""Independent references that more than one test file compares the
library against."""


def support(p):
    """
    The set of generator indices that occur in every Hecke word for p.

    Index r is in the support exactly when some inversion of p straddles
    it, i.e. p(i) > p(j) for some i <= r < j: without the letter r no
    word can move a value across that boundary, and any word for p must
    create such an inversion.
    """
    return frozenset(r for r in range(1, len(p)) if max(p[:r]) > min(p[r:]))
