"""Every pinned output prints the bytes and exits with the code that
digests.txt records (see digests.py)."""

from pathlib import Path
import re

from digests import (
    _CI_VERIFY_STEPS,
    _FAMILIES,
    cases,
    digest,
    factorization_lines,
    read,
)

from grothpoly.factorizations import (
    enumerate_double_unbounded,
    factorization_to_str,
)
from grothpoly.permutations import all_permutations

WORKFLOW = Path(__file__).parents[2] / ".github" / "workflows" / "tests.yml"


def test_the_digest_file_lists_every_pinned_output_once():
    assert list(read()) == cases()


def test_every_verify_step_of_the_ci_workflow_is_pinned():
    # read with regexes, as there is no YAML parser to lean on: each
    # literal `grothpoly verify ...` line, and each quoted argv of a
    # `for argv in ...` loop that runs `grothpoly verify $argv`
    text = WORKFLOW.read_text()
    literal = re.findall(r"grothpoly verify ([^$\n]+?)\s*$", text, re.M)
    looped = [
        argv
        for loop in re.findall(r"for argv in (.+?); do", text)
        for argv in re.findall(r'"([^"]+)"', loop)
    ]
    assert "grothpoly verify $argv" in text
    assert literal and looped
    missing = [argv for argv in literal + looped if argv not in _CI_VERIFY_STEPS]
    assert not missing, "unpinned CI verify steps:\n" + "\n".join(missing)


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
