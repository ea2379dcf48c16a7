"""Every public name of the library has a caller outside its own
definition, so dead names do not come back."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "grothpoly").glob("*.py"))
CALLERS = [
    *LIBRARY,
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "golden" / "digests.py",
]

# public names kept with no caller in the files above, each for a reason
UNCALLED = {
    "polynomials.substitute_zero": "the interpolation check of ROADMAP item 3 will call it",
    "bijections.wk_step_down": "the checked single ladder step the README documents; "
    "rides use the unchecked _step_down",
    "bijections.wk_step_up": "the checked single ladder step the README documents; "
    "rides use the unchecked _step_up",
    "permutations.eval_hecke_word": "the reading of a word rightmost letter first, "
    "the module's own example; the tests' evaluation of a factorization reads it",
}


def used_names(path: Path) -> set[str]:
    """Every name a file reads or imports, except where a top-level
    definition reads its own name."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out |= names - {getattr(top, "name", None)}
    return out


def public_names(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def test_every_public_name_has_a_caller():
    called = set().union(*map(used_names, CALLERS))
    uncalled = {
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in public_names(path)
        if name not in called
    }
    assert uncalled == set(UNCALLED)
