"""Golden digests: the sha256 of what each pinned output prints, and its
exit code, kept in digests.txt next to this script.

Each line of digests.txt is one output, as three tab-separated fields:
the argv of `groth` (or the name of a library output, starting with
`py:`), the sha256 of its stdout and its exit code.  test_golden.py
recomputes every line; rewrite the file, after a change that is meant
to alter an output, with

    PYTHONPATH=src python tests/golden/digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
from pathlib import Path

from grothpoly import cli
from grothpoly.factorizations import enumerate_double_unbounded
from grothpoly.insertion import insert_word, phi
from grothpoly.permutations import all_permutations, inversions

DIGESTS = Path(__file__).parent / "digests.txt"


def _cli_cases() -> list[tuple[str, ...]]:
    cases = []
    for n in range(2, 6):
        for w in all_permutations(n):
            perm = ",".join(map(str, w))
            for what in ("single", "double"):
                cases.append(("compute", what, "--perm", perm))
                cases.append(("compute", what, "--perm", perm, "--json"))
    cases.append(("verify", "all"))
    return cases


def _insert_word_pairs() -> str:
    """The pair of every word over {1..4} of at most 6 letters."""
    words = (
        w for k in range(7) for w in itertools.product(range(1, 5), repeat=k)
    )
    return repr([insert_word(w) for w in words])


def _phi_pairs() -> str:
    """The pair of every double factorization of S_4 with two factors a
    side and at most two letters past the length."""
    return repr([
        phi(f)
        for w in all_permutations(4)
        for f in enumerate_double_unbounded(w, 2, inversions(w) + 2)
    ])


_LIBRARY = {
    "py:insert_word every word over 1..4 of at most 6 letters": _insert_word_pairs,
    "py:phi the S_4 double factorizations, 2 factors a side": _phi_pairs,
}


def cases() -> list[str]:
    """Every pinned output by name, in file order."""
    return [" ".join(argv) for argv in _cli_cases()] + list(_LIBRARY)


def digest(name: str) -> tuple[str, int]:
    """The sha256 of the stdout of one pinned output, and its exit code."""
    if name in _LIBRARY:
        out, code = _LIBRARY[name]() + "\n", 0
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(name.split(" "))
        out = buf.getvalue()
    return hashlib.sha256(out.encode()).hexdigest(), code


def read() -> dict[str, tuple[str, int]]:
    """The digests on file, by name."""
    out = {}
    for line in DIGESTS.read_text().splitlines():
        name, sha, code = line.split("\t")
        out[name] = (sha, int(code))
    return out


def main() -> None:
    lines = [
        f"{name}\t{sha}\t{code}\n"
        for name in cases()
        for sha, code in [digest(name)]
    ]
    DIGESTS.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {DIGESTS}")


if __name__ == "__main__":
    main()
