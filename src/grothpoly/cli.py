"""
Command line front end, installed as ``groth``.

``groth compute`` prints one object for a given permutation: an operator
polynomial, a degree-truncated stable series, or a Q-expansion stratum.
``groth verify`` replays the identity suites at adjustable desk scale
and reports one line per check; report order is fixed.  Identical
invocations print identical bytes.
"""

import argparse
from functools import cache
import itertools
import json
import random
import sys

from .bijections import (
    arrow_down,
    arrow_up,
    circled_to_double,
    circled_to_double_chain,
    psi,
    psi_inv,
)
from .factorizations import (
    _series,
    cauchy_sum,
    enumerate_bounded_plain,
    enumerate_circled_bounded,
    enumerate_double_bounded,
    enumerate_double_unbounded,
    enumerate_hook,
    genfun,
    parse_factorization,
    weight,
)
from .grothendieck import (
    grothendieck_double,
    grothendieck_single,
    staircase_product,
)
from .insertion import insert_word, phi
from .permutations import (
    all_permutations,
    eval_hecke_word_ltr,
    inverse,
    perm_from_str,
)
from .polynomials import (
    Polynomial,
    coefficient,
    delta,
    exchange_families,
    homogeneous_component,
    monomial,
    pi,
    poly_sum,
    pretty,
    restrict_variables,
    set_y_equal_x,
    swap_x,
    to_json,
    truncate_degree,
    x_var,
    _MAX_DEGREE,
)
from .stable import (
    TruncationSpec,
    _check_spec,
    _one_box_per_line,
    _qschur_degree,
    halfweak_stable,
    omega,
    qschur_expansion,
    stability_check,
    stable_double,
    stable_double_via_tableaux,
    stable_single,
    weak_stable_double,
)
from .tableaux import (
    _hecke_shapes,
    conjugate,
    enumerate_hecke_tableaux,
    f_coefficient,
    genfun_pt,
    genfun_svt,
    has_i_lattice,
    has_i_starting,
    is_hecke_tableau,
    is_standard_svt,
    outer_shape,
    partitions_inside,
    partitions_of,
    q_schur,
    tableau,
    weight_of,
)

__all__ = ["main"]

# each compute target with the flags it reads besides --perm and --json, as
# flag: (default, least, greatest), where None leaves the flag unset or that
# side unbounded; any other flag is a usage error, never silently ignored
_WINDOW = {"n": (None, 0, None)}
_SERIES = {"degree": (4, 0, _MAX_DEGREE), "m": (2, 1, None), **_WINDOW}
COMPUTE_TARGETS = {
    "single": _WINDOW,
    "double": _WINDOW,
    "stable-single": _SERIES,
    "stable-double": _SERIES,
    "halfweak": _SERIES,
    "qschur": {"degree": (4, 0, _MAX_DEGREE)},
}
# each verify suite with the flags it reads besides --json, in the same
# form; a suite named alone rejects any other flag, and all reads every
# flag that some suite reads
_RELATIONS_N = (4, 2, 8)
SUITE_FLAGS = {
    "relations": {
        "n": _RELATIONS_N,
        # a random term adds up to n y-exponents to its x-degree, and the
        # raised-delta check multiplies it by one more x
        "degree": (4, 0, _MAX_DEGREE - _RELATIONS_N[2] - 1),
        "trials": (50, 1, None),
        "seed": (0, None, None),
    },
    "cauchy": {"n": (2, 1, 4), "trials": (10, 1, None), "seed": (0, None, None)},
    "insertion": {"n": (3, 1, 4), "degree": (5, 1, 7)},
    "bijections": {"n": (4, 2, 5)},
    "tabt": {"m": (3, 1, None), "degree": (5, 1, _MAX_DEGREE)},
    "qp": {"degree": (4, 1, _MAX_DEGREE)},
    "tabtopi": {"n": (4, 0, 6)},
    "stability": {"degree": (3, 1, _MAX_DEGREE)},
}


class UsageError(ValueError):
    """Bad input on the command line; reported with exit code 2."""


def parse_perm(text: str) -> tuple[int, ...]:
    """
    One-line notation, comma separated.

    >>> parse_perm("3,1,2")
    (3, 1, 2)
    """
    try:
        return perm_from_str(text)
    except ValueError:
        raise UsageError(f"not a permutation: {text!r}") from None


def _reject_unread(
    args: argparse.Namespace, tables: dict, names: list[str], command: str
) -> None:
    """A usage error for a flag that some table reads, set on the command
    line although none of the named tables reads it."""
    known = {flag for table in tables.values() for flag in table}
    unread = known - {flag for name in names for flag in tables[name]}
    for flag, value in vars(args).items():
        if flag in unread and value is not None:
            raise UsageError(f"{command} does not read --{flag}")


def _resolve(args: argparse.Namespace, table: dict) -> argparse.Namespace:
    """The flags of one table, each set to its value on the command line or
    to its default; a value outside its range is a usage error."""
    values = {}
    for flag, (default, least, greatest) in table.items():
        value = getattr(args, flag)
        if value is None:
            value = default
        elif least is not None and value < least:
            raise UsageError(f"--{flag} must be at least {least}")
        elif greatest is not None and value > greatest:
            raise UsageError(f"--{flag} must be at most {greatest}")
        values[flag] = value
    return argparse.Namespace(**values)


def _in_window(p: Polynomial, m: int) -> Polynomial:
    """Restrict to the first m variables, or pad with unused ones."""
    if m <= p.m:
        return restrict_variables(p, m)
    pad = (0,) * (m - p.m)
    return Polynomial(
        m, {(xe + pad, ye + pad): c for (xe, ye), c in p.terms.items()}
    )


# ---------------------------------------------------------------------------
# compute


def _partition_label(lam: tuple[int, ...]) -> str:
    """
    >>> _partition_label((3, 1))
    '[3,1]'
    """
    return "[" + ",".join(str(part) for part in lam) + "]"


def _stratum(w: tuple[int, ...], d: int) -> dict[tuple[int, ...], int]:
    """The degree-d part of qschur_expansion(w, TruncationSpec(1, d)),
    its partitions in decreasing order, with no other degree evaluated."""
    _check_spec(TruncationSpec(1, d))
    part = _qschur_degree(_hecke_shapes(w, d), d)
    return {lam: part[lam] for lam in sorted(part, reverse=True)}


def _stratum_text(stratum: dict[tuple[int, ...], int]) -> str:
    if not stratum:
        return "0"
    parts = []
    for lam, c in stratum.items():
        q = "Q" + _partition_label(lam)
        parts.append(q if c == 1 else f"{c}*{q}")
    return " + ".join(parts)


def cmd_compute(args: argparse.Namespace) -> int:
    _reject_unread(args, COMPUTE_TARGETS, [args.what], f"compute {args.what}")
    w = parse_perm(args.perm)
    b = _resolve(args, COMPUTE_TARGETS[args.what])
    if args.what == "qschur":
        stratum = _stratum(w, b.degree)
        if args.json:
            out = {_partition_label(lam): c for lam, c in stratum.items()}
            print(json.dumps(out, separators=(",", ":")))
        else:
            print(_stratum_text(stratum))
        return 0
    if args.what == "single":
        p = grothendieck_single(w)
    elif args.what == "double":
        p = grothendieck_double(w)
    else:
        model = {
            "stable-single": stable_single,
            "stable-double": stable_double,
            "halfweak": halfweak_stable,
        }[args.what]
        p = model(w, TruncationSpec(b.m, b.degree))
    if b.n is not None:
        p = _in_window(p, b.n)
    if args.json:
        print(json.dumps(to_json(p), separators=(",", ":")))
    else:
        print(pretty(p))
    return 0


# ---------------------------------------------------------------------------
# verify

Check = tuple[str, bool, str]


def _check(name: str, failures) -> Check:
    bad = next(iter(failures), None)
    if bad is None:
        return (name, True, "")
    bad = str(bad)
    return (name, False, bad if len(bad) <= 120 else bad[:117] + "...")


def _split_degree(rng: random.Random, total: int, m: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, total) for _ in range(max(m - 1, 0)))
    edges = [0, *cuts, total]
    return tuple(b - a for a, b in zip(edges, edges[1:]))


def _random_poly(rng: random.Random, m: int, degree: int) -> Polynomial:
    def term() -> Polynomial:
        xe = _split_degree(rng, rng.randint(0, degree), m)
        ye = tuple(rng.randint(0, 1) for _ in range(m))
        return monomial(m, xe, ye, rng.choice((-3, -2, -1, 1, 2, 3)))

    return poly_sum(m, [term() for _ in range(rng.randint(1, 4))])


def suite_relations(b: argparse.Namespace) -> list[Check]:
    m = b.n
    rng = random.Random(b.seed)
    polys = [_random_poly(rng, m, b.degree) for _ in range(b.trials)]
    zero = Polynomial(m, {})
    ops = (("delta", delta), ("pi", pi))
    return [
        _check(
            "delta_squared_is_zero",
            (
                f"i={i} on {pretty(p)}"
                for p in polys
                for i in range(1, m)
                if delta(i, delta(i, p)) != zero
            ),
        ),
        _check(
            "pi_squared_is_minus_pi",
            (
                f"i={i} on {pretty(p)}"
                for p in polys
                for i in range(1, m)
                if pi(i, pi(i, p)) + pi(i, p) != zero
            ),
        ),
        _check(
            "operators_commute_far_apart",
            (
                f"{nm} i={i} j={j} on {pretty(p)}"
                for p in polys
                for nm, op in ops
                for i in range(1, m)
                for j in range(i + 2, m)
                if op(i, op(j, p)) != op(j, op(i, p))
            ),
        ),
        _check(
            "operators_satisfy_the_braid_relation",
            (
                f"{nm} i={i} on {pretty(p)}"
                for p in polys
                for nm, op in ops
                for i in range(1, m - 1)
                if op(i, op(i + 1, op(i, p)))
                != op(i + 1, op(i, op(i + 1, p)))
            ),
        ),
        _check(
            "delta_divides_the_swap_difference",
            (
                f"i={i} on {pretty(p)}"
                for p in polys
                for i in range(1, m)
                if (x_var(i, m) - x_var(i + 1, m)) * delta(i, p)
                != p - swap_x(p, i)
            ),
        ),
        _check(
            "pi_is_delta_of_the_raised_polynomial",
            (
                f"i={i} on {pretty(p)}"
                for p in polys
                for i in range(1, m)
                if pi(i, p) != delta(i, p) + delta(i, x_var(i + 1, m) * p)
            ),
        ),
    ]


def suite_cauchy(b: argparse.Namespace) -> list[Check]:
    rank, trials = b.n, b.trials
    rng = random.Random(b.seed)
    perms = sorted(all_permutations(min(rank, 2) + 1))
    if rank >= 3:
        pool = sorted(all_permutations(rank + 1))
        for _ in range(trials):
            perms.append(pool[rng.randrange(len(pool))])
    n0 = 3 if rank >= 3 else 2
    circled = enumerate_circled_bounded(tuple(range(n0 + 1, 0, -1)))
    ok = len(circled) == 3 ** (n0 * (n0 + 1) // 2) and genfun(
        circled
    ) == staircase_product(n0)
    return [
        _check(
            "single_equals_bounded_plain_series",
            (
                f"w={w}"
                for w in perms
                if genfun(enumerate_bounded_plain(w)) != grothendieck_single(w)
            ),
        ),
        _check(
            "double_equals_circled_series",
            (
                f"w={w}"
                for w in perms
                if genfun(enumerate_circled_bounded(w))
                != grothendieck_double(w)
            ),
        ),
        _check(
            "double_equals_split_series",
            (
                f"w={w}"
                for w in perms
                if genfun(enumerate_double_bounded(w))
                != grothendieck_double(w)
            ),
        ),
        _check(
            "double_equals_pairing_sum",
            (
                f"w={w}"
                for w in perms
                if cauchy_sum(w) != grothendieck_double(w)
            ),
        ),
        _check(
            "longest_element_series_is_the_staircase_product",
            [] if ok else [f"n={n0}, count={len(circled)}"],
        ),
        _check(
            "double_equals_circled_path_sum",
            (
                f"w={w}"
                for w in perms
                if _series("circled_bounded", w) != grothendieck_double(w)
            ),
        ),
        _check(
            "double_equals_split_path_sum",
            (
                f"w={w}"
                for w in perms
                if _series("double_bounded", w) != grothendieck_double(w)
            ),
        ),
    ]


def suite_insertion(b: argparse.Namespace) -> list[Check]:
    n, length = b.n, b.degree
    words = [
        w
        for size in range(length + 1)
        for w in itertools.product(range(1, n + 1), repeat=size)
    ]
    pairs = {w: insert_word(w) for w in words}

    def record_rows(Q):
        rows = {}
        for r, row in enumerate(Q.rows):
            for box in row:
                for e in box:
                    rows[e.value] = r
        return rows

    groups: dict[tuple, list] = {}
    for w in words:
        groups.setdefault((len(w), eval_hecke_word_ltr(w, n)), []).append(w)

    def padded(v):
        return tuple(v) + (0,) * (2 - len(v))

    def phi_failures():
        # two factors a side, at most `length` letters, over S_{n+1}
        for perm in all_permutations(n + 1):
            family = enumerate_double_unbounded(perm, 2, length)
            images = [phi(f) for f in family]
            perm_inv = inverse(perm)
            for f, (P, Q) in zip(family, images):
                qx, qy = weight_of(Q)
                if not is_hecke_tableau(P, perm_inv) or (
                    (padded(qx), padded(qy)) != weight(f)
                ):
                    yield f"w={perm} f={f}"
            if len(set(images)) != len(images):
                yield f"w={perm}: two factorizations share an image"
    return [
        _check(
            "insertion_lands_on_the_word_of_the_input",
            (
                f"word={w}"
                for w, (P, Q) in pairs.items()
                if not is_hecke_tableau(P, eval_hecke_word_ltr(w, n))
                or not is_standard_svt(Q)
                or outer_shape(P) != outer_shape(Q)
            ),
        ),
        _check(
            "word_descents_appear_in_the_record",
            (
                f"word={w} position={i}"
                for w, (_, Q) in pairs.items()
                for rows in [record_rows(Q)]
                for i in range(1, len(w))
                if (rows[i + 1] > rows[i]) != (w[i - 1] > w[i])
            ),
        ),
        _check(
            "insertion_is_injective_on_each_word_class",
            (
                f"length={size} target={perm}"
                for (size, perm), ws in sorted(groups.items())
                if len({pairs[w] for w in ws}) != len(ws)
            ),
        ),
        _check("phi_is_an_injection_into_hecke_pairs", phi_failures()),
    ]


def _increasing_subsets(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [
        sub
        for r in range(len(values) + 1)
        for sub in itertools.combinations(values, r)
    ]


def suite_bijections(b: argparse.Namespace) -> list[Check]:
    subs = _increasing_subsets(tuple(range(1, b.n + 1)))
    pair = ((1, 2, 3, 5, 6, 8), (8, 7, 5, 2))
    down = arrow_down(pair)
    f_j = parse_factorization("(9 7 6 4 4o 3o 2 2o)", "circled", 9).factors[0]
    moved = psi(2, 3, f_j, (5, 6, 8, 9))
    want = parse_factorization("(9 8 6 5 3o 2 2o)", "circled", 9).factors[0]
    start = "(3 3o 2o 1 1o)(3o 2)(3 3o)()"
    chain = circled_to_double_chain(parse_factorization(start, "circled_bounded", 3))

    def rewrite_failures():
        for w in sorted(all_permutations(b.n - 1)):
            image = {}
            for f in enumerate_circled_bounded(w):
                g = circled_to_double(f)
                if weight(g) != weight(f):
                    yield f"w={w} weight changed on {f}"
                    return
                image[str(g)] = g
            target = {str(g) for g in enumerate_double_bounded(w)}
            if set(image) != target:
                yield f"w={w} image mismatch"

    return [
        _check(
            "ladder_descent_matches_the_worked_pair",
            []
            if down == ((8, 6, 5, 3), (1, 2, 3, 5, 6, 7)) and arrow_up(down) == pair
            else [f"got {down}"],
        ),
        _check(
            "factor_move_matches_the_worked_example",
            []
            if moved == ((4, 5, 7, 8, 9), want)
            and psi_inv(2, 3, *moved) == (f_j, (5, 6, 8, 9))
            else [f"got {moved}"],
        ),
        _check(
            "rewrite_chain_reaches_the_worked_output",
            []
            if len(chain) == 11
            and chain[0] == start
            and chain[-1] == "()(3)(2 3)(1 2)|(2 1)(3)(3)()"
            else [f"got {chain[-1]}"],
        ),
        _check(
            "ladder_moves_invert_each_other",
            (
                f"pair={(bb, cc)}"
                for bb in subs
                for cc in map(lambda s: tuple(reversed(s)), subs)
                if arrow_up(arrow_down((bb, cc))) != (bb, cc)
                or arrow_down(arrow_up((cc, bb))) != (cc, bb)
            ),
        ),
        _check("rewrite_is_a_weight_preserving_bijection", rewrite_failures()),
    ]


def _weak_tableau_formula(w: tuple[int, ...], t: TruncationSpec) -> Polynomial:
    """The weak stable double series by triples of tableaux, an independent
    model: omega is applied to each factor before the product, not once to
    stable_double_via_tableaux.  The tabt check
    conjugated_series_match_the_weak_model holds weak_stable_double to it."""
    products = (
        truncate_degree(omega(genfun_svt(shape, t.m, t.D, inner=rho), "x") * wy, t.D)
        * count
        for shape, count in _hecke_shapes(w, t.D).items()
        for mu in partitions_inside(shape)
        for wy in [exchange_families(omega(genfun_svt(conjugate(mu), t.m, t.D), "x"))]
        for rho in partitions_inside(mu)
        if _one_box_per_line(mu, rho)
    )
    return poly_sum(t.m, products)


def _hecke_expansion_matches(w: tuple[int, ...], t: TruncationSpec) -> bool:
    counts = _hecke_shapes(w, t.D).items()
    rhs = poly_sum(t.m, (genfun_svt(sh, t.m, t.D) * mult for sh, mult in counts))
    return stable_single(w, t) == truncate_degree(rhs, t.D)


def suite_tabt(b: argparse.Namespace) -> list[Check]:
    t = TruncationSpec(b.m, b.degree)
    t_weak = TruncationSpec(b.m, max(b.degree - 1, 1))
    shapes = sorted(
        outer_shape(T) for T in enumerate_hecke_tableaux((3, 1, 2, 5, 4))
    )
    return [
        _check(
            "skew_tableau_series_match_the_split_model",
            (
                f"w={w}"
                for size in (3, 4)
                for w in sorted(all_permutations(size))
                if stable_double_via_tableaux(w, t) != stable_double(w, t)
            ),
        ),
        _check(
            "conjugated_series_match_the_weak_model",
            (
                f"w={w}"
                for w in sorted(all_permutations(3))
                if _weak_tableau_formula(w, t_weak)
                != weak_stable_double(w, t_weak)
            ),
        ),
        _check(
            "single_series_expands_over_hecke_tableaux",
            (
                f"w={w}"
                for w in sorted(all_permutations(4))
                if not _hecke_expansion_matches(w, t)
            ),
        ),
        _check(
            "hecke_tableaux_of_the_running_example",
            [] if shapes == [(2, 1), (3,), (3, 1)] else [f"shapes={shapes}"],
        ),
    ]


ONE_FACTOR_HOOKS = (
    "(1 1 2 4)",
    "(1o 1 2 4)",
    "(1 2 2 4)",
    "(1o 2 2 4)",
    "(1 2 4 4)",
    "(1o 2 4 4)",
    "(4o 1 1 2)",
    "(4o 1o 1 2)",
    "(4o 1 2 2)",
    "(4o 1o 2 2)",
    "(4o 1 2 4)",
    "(4o 1o 2 4)",
)


def suite_qp(b: argparse.Namespace) -> list[Check]:
    running = (3, 1, 2, 5, 4)
    stratum = _stratum(running, 4)
    merged = set_y_equal_x(halfweak_stable(running, TruncationSpec(1, 4)))
    got = coefficient(merged, (4,))
    ones = tuple(
        str(f)
        for f in enumerate_hook(running, 1, 4)
        if sum(len(part) for part in f.factors) == 4
    )

    def pipeline_failures():
        t = TruncationSpec(2, b.degree)
        for w in [*sorted(all_permutations(3)), running]:
            out = qschur_expansion(w, t)
            bad = next((lam for lam, c in out.items() if c <= 0), None)
            if bad is not None:
                yield f"w={w} nonpositive coefficient at {bad}"
                return
            rhs = poly_sum(
                t.m, (q_schur(lam, t.m, t.D) * c for lam, c in out.items())
            )
            lhs = set_y_equal_x(halfweak_stable(w, t))
            for d in range(t.D + 1):
                if homogeneous_component(lhs, d) != homogeneous_component(
                    rhs, d
                ):
                    yield f"w={w} degree={d}"
                    return

    # sizes up to min(degree, 6), never fewer than 4; four variables see
    # every strict partition of these sizes
    sizes = range(max(min(b.degree, 6), 4) + 1)

    def stembridge_failures():
        for size in sizes:
            q = {
                lam: q_schur(lam, 4, size)
                for lam in partitions_of(size)
                if all(a > b for a, b in zip(lam, lam[1:]))
            }
            for mu in partitions_of(size):
                lhs = set_y_equal_x(genfun_pt(mu, 4))
                terms = (
                    q_lam * c
                    for lam, q_lam in q.items()
                    if (c := f_coefficient(mu, lam))
                )
                if lhs != poly_sum(4, terms):
                    yield f"mu={mu}"

    P = tableau(
        [
            ["1'", 1, 1, 1, 1, 1],
            [1, "2'", 2, 2],
            ["2'", 2, "3'", 3],
            [2, "3'", 3, 4],
            [3, "4'", 4],
        ]
    )
    starting = [has_i_starting(P, i) for i in range(1, 5)]
    lattice = [has_i_lattice(P, i) for i in range(1, 5)]
    return [
        _check(
            "running_example_stratum",
            [] if stratum == {(4,): 6, (3, 1): 4} else [f"got {stratum}"],
        ),
        _check("merged_degree_four_coefficient", [] if got == 12 else [f"got {got}"]),
        _check(
            "one_factor_hook_census",
            [] if ones == ONE_FACTOR_HOOKS else [f"got {len(ones)} hooks"],
        ),
        _check("q_expansion_matches_the_merged_hook_model", pipeline_failures()),
        _check("primed_series_expand_into_q_polynomials", stembridge_failures()),
        _check(
            "finger_scan_verdicts",
            []
            if starting == lattice == [True, True, True, False]
            else [f"starting={starting} lattice={lattice}"],
        ),
    ]


def suite_tabtopi(b: argparse.Namespace) -> list[Check]:
    return [
        _check(
            "two_letter_columns_match_the_operator_image",
            (
                f"lengths={(l1, l2)}"
                for l1 in range(b.n + 1)
                for l2 in range(l1 + 1)
                if genfun_svt(
                    tuple(p for p in (l1, l2) if p), 2, 2 * (l1 + l2) + 2
                )
                != pi(1, monomial(2, (l1 + 1, l2), ()))
            ),
        )
    ]


def suite_stability(b: argparse.Namespace) -> list[Check]:
    wide = [
        ("stable_single", (2, 1), TruncationSpec(2, b.degree)),
        ("stable_double", (2, 1), TruncationSpec(1, b.degree)),
        ("stable_double_via_tableaux", (2, 1), TruncationSpec(1, b.degree)),
        ("halfweak_stable", (3, 1, 2), TruncationSpec(2, b.degree)),
        ("weak_stable_double", (2, 1), TruncationSpec(3, 2)),
        ("weak_symmetric", (1,), TruncationSpec(2, 2)),
    ]
    narrow = not stability_check("weak_symmetric", (1,), TruncationSpec(1, 2))
    return [
        _check(
            "models_are_stable_in_wide_windows",
            (
                f"{name} {arg} m={t.m} D={t.D}"
                for name, arg, t in wide
                if not stability_check(name, arg, t)
            ),
        ),
        _check(
            "weak_model_detects_a_narrow_window",
            [] if narrow else ["expected an unstable verdict"],
        ),
    ]


SUITES = {
    "relations": suite_relations,
    "cauchy": suite_cauchy,
    "insertion": suite_insertion,
    "bijections": suite_bijections,
    "tabt": suite_tabt,
    "qp": suite_qp,
    "tabtopi": suite_tabtopi,
    "stability": suite_stability,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite in (None, "all") else [args.suite]
    _reject_unread(args, SUITE_FLAGS, names, f"verify {args.suite}")
    # every named suite's flags are checked before any suite runs
    bounds = {nm: _resolve(args, SUITE_FLAGS[nm]) for nm in names}
    rows = [(nm, check) for nm, b in bounds.items() for check in SUITES[nm](b)]
    if args.json:
        payload = [
            {"suite": nm, "check": cname, "ok": ok, "detail": detail}
            for nm, (cname, ok, detail) in rows
        ]
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for nm, (cname, ok, detail) in rows:
            tag = "ok" if ok else "FAIL"
            suffix = f": {detail}" if detail else ""
            print(f"{tag} {nm}.{cname}{suffix}")
    return 0 if all(ok for _, (_, ok, _) in rows) else 3


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groth",
        description="Grothendieck polynomial models and identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--n",
        type=int,
        default=None,
        help="variable window for operator polynomials; group rank or "
        "size bound for suites",
    )
    shared.add_argument(
        "--m",
        type=int,
        default=None,
        help="variables per family for truncated models (default 2; "
        "suites default 3)",
    )
    shared.add_argument(
        "--degree",
        type=int,
        default=None,
        help="total degree cap for truncated models; per-suite size bound",
    )
    shared.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    comp = sub.add_parser(
        "compute", parents=[shared], help="print one object"
    )
    comp.add_argument("what", choices=COMPUTE_TARGETS)
    comp.add_argument(
        "--perm", required=True, help="one-line notation, e.g. 3,1,2"
    )

    ver = sub.add_parser(
        "verify", parents=[shared], help="replay an identity suite"
    )
    ver.add_argument(
        "suite",
        nargs="?",
        choices=(*SUITES, "all"),
        metavar="suite",
        help="suite name (default: all)",
    )
    ver.add_argument("--trials", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: parsing leaves it unchanged, and building
    it costs about as much as a small compute."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        return cmd_verify(args)
    except ValueError as err:  # bad input, from the command line or deeper
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
