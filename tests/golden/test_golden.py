"""Every pinned output prints the bytes and exits with the code that
digests.txt records (see digests.py)."""

from digests import cases, digest, read


def test_the_digest_file_lists_every_pinned_output_once():
    assert list(read()) == cases()


def test_every_pinned_output_matches_its_golden_digest():
    changed = [
        name for name, pinned in read().items() if digest(name) != pinned
    ]
    assert not changed, "changed outputs:\n" + "\n".join(changed)
