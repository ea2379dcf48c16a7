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
from functools import partial
import hashlib
import io
import itertools
from pathlib import Path

from grothpoly import cli
from grothpoly.factorizations import (
    enumerate_bounded_plain,
    enumerate_circled_bounded,
    enumerate_double_bounded,
    enumerate_double_unbounded,
    enumerate_hook,
    enumerate_plain_unbounded,
    genfun,
)
from grothpoly.insertion import insert_word, phi
from grothpoly.permutations import all_permutations, inversions, perm_to_str
from grothpoly.polynomials import pretty

DIGESTS = Path(__file__).parent / "digests.txt"


# every `groth verify` step of the CI workflow, each next to the steps
# it replaced (Cauchy at 42 trials, qp at degrees 7 and 9), the five
# bounds above their caps last (each exits 2 with nothing on stdout)
_CI_VERIFY_STEPS = [
    "cauchy --n 4 --trials 42",
    "cauchy --n 4 --trials 46",
    "qp --degree 7",
    "qp --degree 9",
    "qp --degree 11",
    "insertion --n 4 --degree 7",
    "tabt --m 4 --degree 8",
    "bijections --n 5",
    "relations --n 8 --degree 6 --trials 100",
    "tabtopi --n 6",
    "relations --n 9",
    "relations --degree 246",
    "cauchy --n 5",
    "qp --degree 255",
    "tabt --degree 255",
]


def _cli_cases() -> list[tuple[str, ...]]:
    cases = []
    for n in range(2, 6):
        for w in all_permutations(n):
            perm = ",".join(map(str, w))
            for what in ("single", "double"):
                cases.append(("compute", what, "--perm", perm))
                cases.append(("compute", what, "--perm", perm, "--json"))
    cases.append(("verify", "all"))
    cases += [("verify", *argv.split(" ")) for argv in _CI_VERIFY_STEPS]
    for n in range(2, 6):
        for w in all_permutations(n):
            perm = ",".join(map(str, w))
            for degree in ("4", "6"):
                argv = ("compute", "qschur", "--perm", perm, "--degree", degree)
                cases += [argv, (*argv, "--json")]
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


def factorization_lines(family) -> list[str]:
    """factorization_to_str of each member of a listed family.  Equal
    factors of one listing are one object, so the text of each factor
    is made once, by id, and the member's text joined from it: the
    circled and split families of S_5 hold 1,048,576 members each, and
    factorization_to_str letter by letter would take 6-8 s on each."""
    texts: dict[int, str] = {}
    lines = []
    for f in family:
        chunks = []
        for fac in f.factors:
            text = texts.get(id(fac))
            if text is None:
                text = texts[id(fac)] = "(" + " ".join(map(str, fac)) + ")"
            chunks.append(text)
        if f.split is not None and f.split < len(chunks):
            chunks.insert(f.split, "|")
        lines.append("".join(chunks))
    return lines


def _families(enumerate_family, size: int, *args) -> str:
    """For each permutation of S_size in order, a line with it and the
    generating polynomial of its family (at the family's width: the
    number of parts, else size), then the family, one member a line."""
    lines = []
    for w in all_permutations(size):
        family = enumerate_family(w, *args)
        width = args[0] if args else size
        lines.append(f"{perm_to_str(w)}: {pretty(genfun(family, width))}")
        lines += factorization_lines(family)
    return "\n".join(lines)


_FAMILIES = [
    ("bounded_plain", enumerate_bounded_plain, ()),
    ("circled_bounded", enumerate_circled_bounded, ()),
    ("double_bounded", enumerate_double_bounded, ()),
    ("double_unbounded", enumerate_double_unbounded, (2, 5)),
    ("plain", enumerate_plain_unbounded, (2, 5)),
    ("hook", enumerate_hook, (2, 4)),
]


def _family_outputs() -> dict:
    """The _families output of each family on each of S_2..S_5."""
    outputs = {}
    for kind, enumerate_family, args in _FAMILIES:
        at = f" at {args[0]} parts, {args[1]} letters" if args else ""
        for size in range(2, 6):
            name = f"py:{kind} families of S_{size}{at}, genfun and listing"
            outputs[name] = partial(_families, enumerate_family, size, *args)
    return outputs


_LIBRARY = {
    "py:insert_word every word over 1..4 of at most 6 letters": _insert_word_pairs,
    "py:phi the S_4 double factorizations, 2 factors a side": _phi_pairs,
    **_family_outputs(),
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
