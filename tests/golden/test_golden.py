"""Every pinned output prints the bytes and exits with the code that
digests.txt records (see digests.py)."""

from digests import _FAMILIES, cases, digest, factorization_lines, read

from grothpoly.factorizations import (
    enumerate_double_unbounded,
    factorization_to_str,
)
from grothpoly.permutations import all_permutations


def test_the_digest_file_lists_every_pinned_output_once():
    assert list(read()) == cases()


def test_every_pinned_output_matches_its_golden_digest():
    changed = [
        name for name, pinned in read().items() if digest(name) != pinned
    ]
    assert not changed, "changed outputs:\n" + "\n".join(changed)


def test_the_pinned_listing_lines_are_factorization_to_str():
    families = [
        enumerate_family(w, *args)
        for _, enumerate_family, args in _FAMILIES
        for w in all_permutations(4)
    ]
    for family in families:
        assert factorization_lines(family) == list(
            map(factorization_to_str, family)
        )
    # a double family with no parts has a split and no factor after it
    empty = enumerate_double_unbounded((1, 2), 0, 0)
    assert factorization_lines(empty) == [factorization_to_str(empty[0])]
