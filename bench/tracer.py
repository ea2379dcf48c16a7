"""
Span tracer for the traced benchmark run.

``Tracer.install`` wraps grothpoly's public functions and the
``Polynomial`` arithmetic operators from outside.  The modules bind each
other's functions at import, so every module attribute that refers to a
wrapped function is replaced, not only the defining one.  While
``active`` is set, each call records one span (name, start, end, parent)
in flat arrays; the spans stay in memory until ``metrics`` reads them at
the end of a round.  The benchmark sets ``active`` only inside the timed
calls of an op, so its own checks leave no spans.

A span's self time is its duration minus the durations of its direct
child spans.  A layer metric ending in ``_s`` sums the self times of the
spans it selects.
"""

from __future__ import annotations

from array import array
from collections import Counter
import functools
import inspect
import statistics
import sys
from time import perf_counter

MODULES = (
    "polynomials",
    "permutations",
    "grothendieck",
    "factorizations",
    "tableaux",
    "stable",
    "insertion",
    "bijections",
    "cli",
)

# Public functions that act on one letter, box, entry, word or exponent
# vector.  They run hundreds of thousands of times per op at a cost close
# to the tracer's own, so they stay unwrapped and their time counts in
# the self time of the traced function that called them.
PRIMITIVES = {
    "polynomials": {
        "constant", "x_var", "y_var", "monomial", "coefficient", "pretty",
        "to_json", "from_json",
    },
    "permutations": {
        "identity", "longest_element", "all_permutations", "compose",
        "inverse", "inversions", "support", "hecke_apply",
        "hecke_apply_right", "eval_hecke_word", "eval_hecke_word_ltr",
        "hecke_equivalent", "bruhat_leq", "lex_min_reduced_word",
        "perm_to_str", "perm_from_str", "word_to_str", "word_from_str",
    },
    "factorizations": {
        "evaluation", "is_valid_factorization", "weight",
        "factorization_to_str", "factorization_to_json",
        "parse_factorization",
    },
    "tableaux": {
        "tableau", "outer_shape", "check_partition", "conjugate", "contains",
        "partitions_of", "partitions_inside", "is_standard_svt", "is_svt",
        "is_psvt", "is_psmt", "is_pt", "is_oft", "is_hecke_tableau",
        "weight_of", "has_i_starting", "has_i_lattice", "tableau_to_json",
        "tableau_from_json", "pretty_tableau",
    },
    "insertion": {"insert_row"},
    "bijections": {"check_quadruple", "wk_step_down", "wk_step_up"},
}

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__pow__", "__neg__",
)
ARITH_LABELS = frozenset(f"polynomials.Polynomial.{op}" for op in ARITHMETIC)
OPERATOR_LABELS = frozenset(
    f"polynomials.{name}" for name in ("delta", "pi", "pi_word")
)
ENUMERATORS = frozenset(
    f"factorizations.{name}"
    for name in (
        "enumerate_bounded_plain", "enumerate_circled_bounded",
        "enumerate_double_bounded", "enumerate_double_unbounded",
        "enumerate_plain_unbounded", "enumerate_hook",
    )
)
# calls whose arguments were already seen in the round are counted for these
REPEAT_TRACKED = frozenset(
    {
        "permutations.hecke_distance",
        "grothendieck.staircase_product",
        "tableaux.f_coefficient",
    }
)

# name -> unit of the metrics ``Tracer.metrics`` reports
PER_LAYER = {
    "cli.self_s": "s",
    "polynomials.arith_s": "s",
    "polynomials.arith_calls": "count",
    "polynomials.operator_s": "s",
    "polynomials.max_terms": "count",
    "permutations.hecke_distance_s": "s",
    "permutations.hecke_distance_calls": "count",
    "permutations.hecke_distance_repeat_ratio": "ratio",
    "permutations.demazure_s": "s",
    "permutations.demazure_calls": "count",
    "grothendieck.staircase_s": "s",
    "grothendieck.staircase_repeat_ratio": "ratio",
    "grothendieck.self_s": "s",
    "factorizations.enumerate_s": "s",
    "factorizations.objects": "count",
    "factorizations.genfun_s": "s",
    "factorizations.cauchy_sum_s": "s",
    "tableaux.hecke_tableaux_s": "s",
    "tableaux.hecke_tableaux": "count",
    "tableaux.genfun_svt_s": "s",
    "tableaux.genfun_svt_calls": "count",
    "tableaux.f_coefficient_s": "s",
    "tableaux.f_coefficient_calls": "count",
    "tableaux.f_coefficient_nonzero_ratio": "ratio",
    "tableaux.f_coefficient_repeat_ratio": "ratio",
    "tableaux.oft_count_s": "s",
    "stable.via_tableaux_s": "s",
    "stable.omega_s": "s",
    "stable.qschur_expansion_s": "s",
    "insertion.phi_s": "s",
    "insertion.phi_calls": "count",
    "bijections.rewrite_s": "s",
    "bijections.rewrite_calls": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.labels: list[str] = []
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._seen: dict[str, set] = {label: set() for label in REPEAT_TRACKED}
        self.repeats: Counter = Counter()
        self.objects = 0
        self.hecke_tableaux = 0
        self.f_nonzero = 0
        self.max_terms = 0

    def install(self) -> None:
        """Wrap every traced function at every grothpoly import site."""
        package = [
            mod for name, mod in sys.modules.items()
            if name == "grothpoly" or name.startswith("grothpoly.")
        ]
        replace: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"grothpoly.{short}"]
            skip = PRIMITIVES.get(short, set())
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, type) or not callable(fn) or name in skip:
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                replace[id(fn)] = self._wrap(fn, f"{short}.{name}")
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        poly = sys.modules["grothpoly.polynomials"].Polynomial
        for op in ARITHMETIC:
            label = f"polynomials.Polynomial.{op}"
            setattr(poly, op, self._wrap(getattr(poly, op), label))

    def _observer(self, fn, label: str):
        """What to count from a call's arguments and result, if anything."""
        if label in REPEAT_TRACKED:
            seen = self._seen[label]
            signature = inspect.signature(fn)

            def repeat(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                if key in seen:
                    self.repeats[label] += 1
                seen.add(key)
                if label == "tableaux.f_coefficient" and result:
                    self.f_nonzero += 1

            return repeat
        if label in ENUMERATORS:
            def objects(args, kwargs, result):
                self.objects += len(result)
            return objects
        if label == "tableaux.enumerate_hecke_tableaux":
            def tableaux(args, kwargs, result):
                self.hecke_tableaux += len(result)
            return tableaux
        if label.startswith("polynomials."):
            def terms(args, kwargs, result):
                size = len(getattr(result, "terms", ()))
                if size > self.max_terms:
                    self.max_terms = size
            return terms
        return None

    def _wrap(self, fn, label: str):
        self.labels.append(label)
        label_id = len(self.labels) - 1
        observe = self._observer(fn, label)
        stack = self._stack
        span_label, span_parent = self.span_label, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_label.append(label_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def by_label(self) -> dict[str, tuple[float, int]]:
        """Self time and call count per traced function."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        self_time = [0.0] * len(self.labels)
        calls = [0] * len(self.labels)
        for i in range(n):
            lid = self.span_label[i]
            self_time[lid] += self.span_end[i] - self.span_start[i] - child[i]
            calls[lid] += 1
        return {
            label: (self_time[lid], calls[lid])
            for lid, label in enumerate(self.labels)
            if calls[lid]
        }

    def metrics(self) -> dict[str, float]:
        """The PER_LAYER metrics of the spans recorded so far."""
        table = self.by_label()

        def self_s(select) -> float:
            return sum((t for label, (t, _) in table.items() if select(label)), 0.0)

        def calls(label: str) -> int:
            return table.get(label, (0.0, 0))[1]

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        def module(name: str):
            return lambda label: label.split(".", 1)[0] == name

        def one_of(*names: str):
            return lambda label: label in names

        hd = "permutations.hecke_distance"
        sp = "grothendieck.staircase_product"
        fc = "tableaux.f_coefficient"
        values = {
            "cli.self_s": self_s(module("cli")),
            "polynomials.arith_s": self_s(lambda l: l in ARITH_LABELS),
            "polynomials.arith_calls": sum(calls(l) for l in ARITH_LABELS),
            "polynomials.operator_s": self_s(lambda l: l in OPERATOR_LABELS),
            "polynomials.max_terms": self.max_terms,
            "permutations.hecke_distance_s": self_s(one_of(hd)),
            "permutations.hecke_distance_calls": calls(hd),
            "permutations.hecke_distance_repeat_ratio": ratio(
                self.repeats[hd], calls(hd)
            ),
            "permutations.demazure_s": self_s(
                one_of("permutations.demazure_product")
            ),
            "permutations.demazure_calls": calls(
                "permutations.demazure_product"
            ),
            "grothendieck.staircase_s": self_s(one_of(sp)),
            "grothendieck.staircase_repeat_ratio": ratio(
                self.repeats[sp], calls(sp)
            ),
            "grothendieck.self_s": self_s(module("grothendieck")),
            "factorizations.enumerate_s": self_s(lambda l: l in ENUMERATORS),
            "factorizations.objects": self.objects,
            "factorizations.genfun_s": self_s(one_of("factorizations.genfun")),
            "factorizations.cauchy_sum_s": self_s(
                one_of("factorizations.cauchy_sum", "factorizations.enumerate_X")
            ),
            "tableaux.hecke_tableaux_s": self_s(
                one_of("tableaux.enumerate_hecke_tableaux")
            ),
            "tableaux.hecke_tableaux": self.hecke_tableaux,
            "tableaux.genfun_svt_s": self_s(one_of("tableaux.genfun_svt")),
            "tableaux.genfun_svt_calls": calls("tableaux.genfun_svt"),
            "tableaux.f_coefficient_s": self_s(one_of(fc)),
            "tableaux.f_coefficient_calls": calls(fc),
            "tableaux.f_coefficient_nonzero_ratio": ratio(
                self.f_nonzero, calls(fc)
            ),
            "tableaux.f_coefficient_repeat_ratio": ratio(
                self.repeats[fc], calls(fc)
            ),
            "tableaux.oft_count_s": self_s(one_of("tableaux.oft_count")),
            "stable.via_tableaux_s": self_s(
                one_of("stable.stable_double_via_tableaux")
            ),
            "stable.omega_s": self_s(one_of("stable.omega")),
            "stable.qschur_expansion_s": self_s(
                one_of("stable.qschur_expansion")
            ),
            "insertion.phi_s": self_s(module("insertion")),
            "insertion.phi_calls": calls("insertion.phi"),
            "bijections.rewrite_s": self_s(module("bijections")),
            "bijections.rewrite_calls": calls("bijections.circled_to_double"),
        }
        return values


def per_round(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Combine the metrics of a run's rounds: the largest max_terms, and
    the mean of every other metric."""
    return {
        name: (max if name == "polynomials.max_terms" else statistics.fmean)(
            r[name] for r in rounds
        )
        for name in PER_LAYER
    }


def by_label_total(rounds: list[dict]) -> dict[str, tuple[float, int]]:
    """Sum the rounds' self times and call counts per traced function."""
    total: dict[str, tuple[float, int]] = {}
    for table in rounds:
        for label, (t, n) in table.items():
            t0, n0 = total.get(label, (0.0, 0))
            total[label] = (t0 + t, n0 + n)
    return total
