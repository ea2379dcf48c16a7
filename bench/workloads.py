"""
The three benchmark workloads, one per claim of the paper.

Each workload makes a seeded list of permutations (one op each), runs an
op through ``clock.call`` so that only the calls into grothpoly are
timed, and checks an op's result outside that interval against
``reference`` or against an independent model.  ``corrupt`` damages one
result so that the benchmark can show its checks catch it.

The seed changes which permutations run, not how much work they take.
Op costs differ up to a hundredfold between permutations of the same
length, and a run holds too few ops for a seed-dependent mix to average
out.  So each workload starts from a fixed list of base permutations,
and every round draws, from the seed and the round number, one variant
of each base that does nearly the same work: its inverse, where the
model is symmetric under w -> w^-1, or a copy shifted into a larger
symmetric group, whose Hecke words are those of the base with every
letter moved up.  The draw also orders the round's ops and picks the
factorizations that ``cauchy`` rewrites.  Warm-up inputs come from a
smaller symmetric group than any timed op.
"""

from __future__ import annotations

import contextlib
import io
from itertools import permutations
import json
import random
from typing import NamedTuple

from grothpoly import (
    bijections,
    cli,
    factorizations,
    grothendieck,
    insertion,
    polynomials,
    stable,
    tableaux,
)

import reference as ref


def _seeded(seed: int, what: str) -> random.Random:
    return random.Random(f"{seed}:{what}")


def _placements(base: tuple[int, ...], size: int) -> list[tuple[int, ...]]:
    """Copies of base in S_size that shift its letters by 0, 1, ...: the
    Hecke words of each copy are those of base with every letter moved
    up by the shift, so every factorization and tableau count agrees."""
    extra = size - len(base)
    return [
        tuple(range(1, k + 1))
        + tuple(v + k for v in base)
        + tuple(range(len(base) + k + 1, size + 1))
        for k in range(extra + 1)
    ]


def _draw(seed: int, round_: int, groups) -> list[tuple[int, ...]]:
    """One round of ops: one variant from each group of equal-work
    variants, taken in turn from a seeded starting point so that
    consecutive rounds run distinct ones, and never one that another
    group already runs in this round."""
    start = _seeded(seed, "variants")
    ops: list[tuple[int, ...]] = []
    for variants in groups:
        first = start.randrange(len(variants)) + round_
        picks = [variants[(first + j) % len(variants)] for j in range(len(variants))]
        ops.append(next((v for v in picks if v not in ops), picks[0]))
    _seeded(seed, f"order {round_}").shuffle(ops)
    return ops


def _with_inverse(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    inv = ref.inverse(w)
    return [w] if inv == w else [w, inv]


def _key(p) -> tuple[int, dict]:
    return p.m, p.terms


# ---------------------------------------------------------------------------
# cauchy: the generalized Cauchy identity for double Grothendieck polynomials


class CauchyResult(NamedTuple):
    operator: object
    circled: list
    from_circled: object
    double: list
    from_double: object
    convolution: object
    rewritten_from: list
    rewritten: list


class Cauchy:
    """
    Every permutation of S_4, then S_5 permutations: one whose circled
    factorizations number 10,935, where genfun's accumulation dominates,
    and five with fewer than 10^3, where the operator route and
    cauchy_sum dominate.  The seed picks w or w^-1 for each (G_{w^-1} is
    G_w with the families swapped, so both do the same work).  Six S_5
    ops put the median op among S_4 ops of like cost, not in a gap
    between two.
    """

    large = (4, 5, 1, 3, 2)
    small = (
        (2, 3, 4, 5, 1),
        (2, 4, 1, 3, 5),
        (1, 3, 4, 5, 2),
        (1, 2, 4, 5, 3),
        (3, 1, 4, 5, 2),
    )
    rewrites = 200

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = _seeded(seed, "rewrites")

    def inputs(self, round_: int):
        groups = [[w] for w in permutations(range(1, 5))]
        groups += [_with_inverse(u) for u in (self.large, *self.small)]
        return _draw(self.seed, round_, groups)

    def warm_up(self, clock) -> None:
        for w in ((1, 3, 2), (2, 3, 1), (3, 2, 1)):
            self.op(w, clock)

    def op(self, w, clock) -> CauchyResult:
        operator = clock.call(grothendieck.grothendieck_double, w)
        circled = clock.call(factorizations.enumerate_circled_bounded, w)
        from_circled = clock.call(factorizations.genfun, circled)
        double = clock.call(factorizations.enumerate_double_bounded, w)
        from_double = clock.call(factorizations.genfun, double)
        convolution = clock.call(factorizations.cauchy_sum, w)
        chosen = circled
        if len(circled) > self.rewrites:
            chosen = self.rng.sample(circled, self.rewrites)
        rewritten = clock.call(_rewrite_all, chosen)
        return CauchyResult(
            operator, circled, from_circled, double, from_double,
            convolution, chosen, rewritten,
        )

    def check(self, w, r: CauchyResult) -> list[str]:
        problems = []
        models = (r.from_circled, r.from_double, r.convolution)
        if any(_key(p) != _key(r.operator) for p in models):
            problems.append("the four models of G_w disagree")
        terms = r.operator.terms
        low = min((ref.degree(k) for k in terms), default=-1)
        if low != ref.length(w):
            problems.append(f"lowest degree {low}, expected {ref.length(w)}")
        lowest = {k: c for k, c in terms.items() if ref.degree(k) == low}
        if lowest != ref.double_schubert(w):
            problems.append("lowest-degree part is not the double Schubert")
        if any(c <= 0 for c in terms.values()):
            problems.append("a coefficient is not positive")
        if len(r.circled) != sum(terms.values()):
            problems.append("circled count differs from the coefficient sum")
        if len(set(r.rewritten)) != len(r.rewritten_from):
            problems.append("rewritten factorizations are not distinct")
        family = set(r.double)
        for f, g in zip(r.rewritten_from, r.rewritten):
            if ref.circled_weight(f.factors, len(w)) != ref.double_weight(
                g.factors, g.split
            ):
                problems.append(f"rewrite of {f} changed the weight")
                break
            if g not in family or not ref.is_bounded_double(g, w):
                problems.append(f"rewrite of {f} left the split family")
                break
        return problems

    @staticmethod
    def corrupt(r: CauchyResult) -> CauchyResult:
        """Drop one term of the operator polynomial."""
        terms = dict(r.operator.terms)
        terms.pop(next(iter(terms)))
        return r._replace(operator=polynomials.Polynomial(r.operator.m, terms))


def _rewrite_all(fs):
    return [bijections.circled_to_double(f) for f in fs]


# ---------------------------------------------------------------------------
# tableaux: the stable double polynomial by triples of tableaux


class TableauxResult(NamedTuple):
    via_tableaux: object
    direct: object
    weak: object
    family: list
    pairs: list


class Tableaux:
    """
    Short permutations of S_6 and S_7 in the window m=2, D=l(w)+2.  Each
    base of S_5 runs once shifted into S_6 and once into S_7; the seed
    picks the shift, and whether to take the inverse (which reverses the
    Hecke words and so swaps the two sides of every factorization).
    """

    bases = (
        (3, 1, 2, 4, 5),
        (2, 1, 4, 3, 5),
        (1, 3, 4, 2, 5),
        (2, 3, 1, 5, 4),
        (1, 4, 2, 5, 3),
        (2, 1, 5, 3, 4),
        (3, 2, 1, 5, 4),
        (2, 4, 1, 5, 3),
    )
    m = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, round_: int):
        groups = [
            [v for w in _placements(base, size) for v in _with_inverse(w)]
            for base in self.bases
            for size in (6, 7)
        ]
        return _draw(self.seed, round_, groups)

    def warm_up(self, clock) -> None:
        for w in ((2, 1, 4, 3), (1, 3, 4, 2)):
            self.op(w, clock)

    def op(self, w, clock) -> TableauxResult:
        t = stable.TruncationSpec(self.m, ref.length(w) + 2)
        via = clock.call(stable.stable_double_via_tableaux, w, t)
        direct = clock.call(stable.stable_double, w, t)
        weak = clock.call(stable.weak_stable_double, w, t)
        family = clock.call(
            factorizations.enumerate_double_unbounded, w, t.m, t.D
        )
        pairs = clock.call(_phi_all, family)
        return TableauxResult(via, direct, weak, family, pairs)

    def check(self, w, r: TableauxResult) -> list[str]:
        problems = []
        if _key(r.via_tableaux) != _key(r.direct):
            problems.append("tableau model differs from stable_double")
        for name, p in (
            ("via_tableaux", r.via_tableaux),
            ("stable_double", r.direct),
            ("weak_stable_double", r.weak),
        ):
            if not ref.is_symmetric(p.terms, self.m):
                problems.append(f"{name} is not symmetric")
        w_inv = ref.inverse(w)
        for f, (P, Q) in zip(r.family, r.pairs):
            if ref.evaluate(ref.reading_word(P), len(w), False) != w_inv:
                problems.append(f"P of phi({f}) does not evaluate to w^-1")
                break
            fx, fy = ref.double_weight(f.factors, f.split)
            if ref.tableau_weight(Q) != (ref.strip(fx), ref.strip(fy)):
                problems.append(f"Q of phi({f}) has another weight")
                break
        if len(set(r.pairs)) != len(r.family):
            problems.append("phi is not injective")
        return problems

    @staticmethod
    def corrupt(r: TableauxResult) -> TableauxResult:
        """Change one coefficient of the tableau model."""
        terms = dict(r.via_tableaux.terms)
        key = next(iter(terms))
        terms[key] += 1
        return r._replace(
            via_tableaux=polynomials.Polynomial(r.via_tableaux.m, terms)
        )


def _phi_all(family):
    return [insertion.phi(f) for f in family]


# ---------------------------------------------------------------------------
# qschur: Q-Schur positivity of the half weak series at x = y


class QschurResult(NamedTuple):
    exit_code: int
    stdout: str


class Qschur:
    """
    `groth compute qschur --json` at degree 4, in-process.  The bases are
    every permutation of S_4 of length 1 to 4, and the paper's running
    example (3,1,2,5,4).  The seed places each base of S_4 in S_4 or,
    shifted by 0 or 1, in S_5; the Hecke tableaux keep their shapes, so
    the expansion and its cost do not change.
    """

    degree = 4
    running_example = (3, 1, 2, 5, 4)
    worked_example = {(4,): 6, (3, 1): 4}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # enough variables that the Q-functions of degree d are independent
        self.m = max(len(lam) for lam in ref.strict_partitions(self.degree))

    def inputs(self, round_: int):
        groups = [[self.running_example]]
        groups += [
            [base, *_placements(base, 5)]
            for base in permutations(range(1, 5))
            if 1 <= ref.length(base) <= 4
        ]
        return _draw(self.seed, round_, groups)

    def warm_up(self, clock) -> None:
        for w in ((2, 1, 3), (1, 3, 2)):
            self.op(w, clock, degree=2)

    def op(self, w, clock, degree: int | None = None) -> QschurResult:
        argv = [
            "compute", "qschur", "--perm", ",".join(map(str, w)),
            "--degree", str(self.degree if degree is None else degree),
            "--json",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = clock.call(cli.main, argv)
        return QschurResult(code, out.getvalue())

    def check(self, w, r: QschurResult) -> list[str]:
        if r.exit_code != 0:
            return [f"exit code {r.exit_code}"]
        try:
            raw = json.loads(r.stdout)
            coeffs = {
                tuple(int(p) for p in label.strip("[]").split(",") if p): c
                for label, c in raw.items()
            }
        except (ValueError, AttributeError):
            return [f"unparsable output {r.stdout!r}"]
        problems = []
        if any(not isinstance(c, int) or c <= 0 for c in coeffs.values()):
            problems.append("a coefficient is not positive")
        strict = set(ref.strict_partitions(self.degree))
        if not coeffs.keys() <= strict:
            problems.append("a label is not a strict partition of the degree")
            return problems
        expanded: dict = {}
        for lam, c in coeffs.items():
            q = tableaux.q_schur(lam, self.m, self.degree)
            for key, qc in q.terms.items():
                expanded[key] = expanded.get(key, 0) + c * qc
        expanded = {k: c for k, c in expanded.items() if c}
        hooks = polynomials.set_y_equal_x(
            stable.halfweak_stable(w, stable.TruncationSpec(self.m, self.degree))
        )
        top = {k: c for k, c in hooks.terms.items() if ref.degree(k) == self.degree}
        if expanded != top:
            problems.append("sum of c*Q differs from the hook-factorization model")
        if w == self.running_example and coeffs != self.worked_example:
            problems.append(f"running example gives {coeffs}")
        return problems

    @staticmethod
    def corrupt(r: QschurResult) -> QschurResult:
        """Change one coefficient of the printed expansion."""
        raw = json.loads(r.stdout)
        label = next(iter(raw))
        raw[label] += 1
        return r._replace(stdout=json.dumps(raw))


WORKLOADS = {"cauchy": Cauchy, "tableaux": Tableaux, "qschur": Qschur}
